//! End-to-end `campaign_status`: the real binary run against real spool
//! directories — live, killed mid-campaign, completed, torn and bogus —
//! across the sweep and fuzz spool kinds. The dashboard must always exit
//! `0`, degrade damaged shards to `unknown`, and report completion.

use regemu_bounds::Params;
use regemu_workloads::campaign::{run_campaign, CampaignOptions};
use regemu_workloads::fuzz::{
    run_fuzz_campaign, FuzzCampaignConfig, FuzzCampaignOptions, FuzzConfig,
};
use regemu_workloads::status::stats_path;
use regemu_workloads::SweepConfig;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn status_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "regemu-status-process-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `campaign_status` one-shot and returns its stdout, asserting the
/// zero exit status the tool guarantees for every spool condition.
fn status_of(spool: &Path, extra: &[&str]) -> String {
    let output = Command::new(status_bin())
        .arg("status")
        .arg("--spool")
        .arg(spool)
        .args(extra)
        .output()
        .expect("campaign_status runs");
    assert!(
        output.status.success(),
        "campaign_status must exit 0 (got {:?}) — stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn dashboard_follows_a_sweep_campaign_through_kill_resume_and_damage() {
    let mut config = SweepConfig::quick();
    config.threads = 1;

    // --- killed after one of two shards ----------------------------------
    let dir = spool_dir("sweep");
    let mut options = CampaignOptions::new(&dir);
    options.shards = 2;
    options.workers = 1;
    options.worker_threads = 1;
    options.quiet = true;
    options.exit_after = Some(1);
    let first = run_campaign(&config, &options).unwrap();
    assert!(first.report.is_none(), "campaign was stopped early");

    let out = status_of(&dir, &[]);
    assert!(out.contains("done"), "one shard finished: {out}");
    assert!(
        !out.contains("COMPLETE"),
        "campaign not complete yet: {out}"
    );

    // --- a torn heartbeat degrades one shard, not the dashboard ----------
    fs::write(stats_path(&dir, 1), "{\"version\":1,\"kind\":\"sw").unwrap();
    let out = status_of(&dir, &[]);
    assert!(out.contains("unknown"), "torn heartbeat row: {out}");

    // --- resumed to completion; --watch exits once complete --------------
    options.exit_after = None;
    let second = run_campaign(&config, &options).unwrap();
    assert!(second.report.is_some(), "campaign completed");
    let out = status_of(&dir, &["--watch", "--interval-ms", "50"]);
    assert!(out.contains("COMPLETE"), "watch exits on completion: {out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dashboard_reads_fuzz_spools_and_shrugs_at_non_spools() {
    // --- a completed fuzz campaign ---------------------------------------
    let dir = spool_dir("fuzz");
    let config = FuzzCampaignConfig::new(FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(32))
        .streams(2)
        .generations(2);
    let mut options = FuzzCampaignOptions::new(&dir);
    options.shards = 2;
    options.quiet = true;
    run_fuzz_campaign(&config, &options).unwrap();

    let out = status_of(&dir, &[]);
    assert!(out.contains("[fuzz]"), "fuzz spool detected: {out}");
    assert!(out.contains("COMPLETE"), "completed campaign: {out}");
    let _ = fs::remove_dir_all(&dir);

    // --- an empty directory and a missing one are diagnosed, exit 0 ------
    let empty = spool_dir("empty");
    fs::create_dir_all(&empty).unwrap();
    let out = status_of(&empty, &[]);
    assert!(out.contains("not a campaign spool"), "{out}");
    let _ = fs::remove_dir_all(&empty);
    let missing = spool_dir("missing");
    let out = status_of(&missing, &[]);
    assert!(out.contains("not a campaign spool"), "{out}");

    // --- garbage heartbeats sprayed over a live spool never panic --------
    let dir = spool_dir("garbage");
    let mut sweep_config = SweepConfig::quick();
    sweep_config.threads = 1;
    let mut sweep_options = CampaignOptions::new(&dir);
    sweep_options.shards = 2;
    sweep_options.worker_threads = 1;
    sweep_options.quiet = true;
    sweep_options.exit_after = Some(1);
    run_campaign(&sweep_config, &sweep_options).unwrap();
    fs::write(stats_path(&dir, 0), b"\xde\xad\xbe\xef").unwrap();
    fs::write(stats_path(&dir, 1), "[1,2,").unwrap();
    fs::write(dir.join("stats-0001.tmp"), "{\"mid\":\"rename\"").unwrap();
    let out = status_of(&dir, &[]);
    assert!(out.contains("unknown"), "{out}");
    let _ = fs::remove_dir_all(&dir);
}
