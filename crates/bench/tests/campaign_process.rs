//! End-to-end multi-process campaign: real `campaign worker` processes
//! spawned over a spool directory, interrupted mid-campaign, retried after
//! an injected worker crash — and the merged report stays byte-identical
//! to the single-process sweep, in this process or from `campaign sweep`
//! with or without a spool.
//!
//! Cargo builds the worker binary for integration tests of this crate and
//! exposes its path via `CARGO_BIN_EXE_campaign`.

use regemu_workloads::campaign::{run_campaign, CampaignOptions, ShardManifest, WorkerMode};
use regemu_workloads::{run_sweep, SweepConfig};
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "regemu-campaign-process-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `campaign sweep --quick --threads 2` plus `extra` with JSON and
/// CSV sinks, and returns what it wrote there.
fn sweep_process(tag: &str, extra: &[&str]) -> (String, String) {
    let (json, csv) = (
        spool_dir(&format!("{tag}.json")),
        spool_dir(&format!("{tag}.csv")),
    );
    let out = Command::new(worker_bin())
        .args(["sweep", "--quick", "--threads", "2", "--quiet"])
        .args(extra)
        .arg("--json")
        .arg(&json)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("spawn campaign sweep");
    assert!(out.status.success(), "{out:?}");
    let written = (
        fs::read_to_string(&json).unwrap(),
        fs::read_to_string(&csv).unwrap(),
    );
    let _ = fs::remove_file(json);
    let _ = fs::remove_file(csv);
    written
}

fn quick_config() -> SweepConfig {
    let mut config = SweepConfig::quick();
    config.threads = 1;
    config
}

/// One sequential test running the whole multi-process story: spawning,
/// interruption + resume, and worker-failure retries share the process
/// environment (the failure hook is an env var inherited by children), so
/// they must not run concurrently with each other.
#[test]
fn multi_process_campaign_is_byte_identical_resumable_and_retries() {
    let config = quick_config();
    let single = run_sweep(&config);

    // --- 4 shards, 2 concurrent worker processes -------------------------
    let dir = spool_dir("spawn");
    let mut options = CampaignOptions::new(&dir);
    options.shards = 4;
    options.workers = 2;
    options.worker_threads = 1;
    options.worker = WorkerMode::Spawn(worker_bin());
    options.quiet = true;
    let outcome = run_campaign(&config, &options).unwrap();
    assert_eq!(outcome.units_run, 4);
    let merged = outcome.report.expect("campaign completed");
    assert_eq!(merged.to_json(), single.to_json());
    assert_eq!(merged.to_csv(), single.to_csv());
    let _ = fs::remove_dir_all(&dir);

    // --- the same report from `campaign sweep`, without a spool and with
    // a 7-shard in-process one ---------------------------------------------
    let spooled = spool_dir("in-process");
    let spool_arg = spooled.to_str().expect("utf-8 temp path");
    let in_process = sweep_process(
        "in-process",
        &["--spool", spool_arg, "--in-process", "--shards", "7"],
    );
    let _ = fs::remove_dir_all(&spooled);
    let here = sweep_process("here", &[]);
    assert_eq!(here, (merged.to_json(), merged.to_csv()));
    assert_eq!(here, in_process);

    // --- killed mid-campaign, then resumed -------------------------------
    let dir = spool_dir("resume");
    options.spool = dir.clone();
    options.exit_after = Some(2);
    let first = run_campaign(&config, &options).unwrap();
    assert!(first.report.is_none());
    assert!(first.units_run >= 2);
    let manifest = ShardManifest::load(&dir).unwrap().unwrap();
    assert!(manifest.incomplete().count() <= 2);
    options.exit_after = None;
    let second = run_campaign(&config, &options).unwrap();
    assert_eq!(second.units_run + second.units_reused, 4);
    assert!(second.units_reused >= 2, "completed shards must be reused");
    let merged = second.report.expect("campaign completed after resume");
    assert_eq!(merged.to_json(), single.to_json());
    let _ = fs::remove_dir_all(&dir);

    // --- a worker that dies once is retried within the budget ------------
    let dir = spool_dir("retry");
    let marker = dir.join("fail-once.marker");
    options.spool = dir.clone();
    options.workers = 1;
    options.max_attempts = 3;
    std::env::set_var("REGEMU_WORKER_FAIL_ONCE", &marker);
    let outcome = run_campaign(&config, &options);
    std::env::remove_var("REGEMU_WORKER_FAIL_ONCE");
    let outcome = outcome.unwrap();
    assert_eq!(outcome.retries, 1, "exactly one injected failure");
    let merged = outcome
        .report
        .expect("campaign completed despite the crash");
    assert_eq!(merged.to_json(), single.to_json());
    let _ = fs::remove_dir_all(&dir);

    // --- a worker that always fails exhausts the attempt budget ----------
    let dir = spool_dir("exhaust");
    options.spool = dir.clone();
    options.max_attempts = 2;
    options.worker = WorkerMode::Spawn(PathBuf::from("/nonexistent/campaign_worker"));
    match run_campaign(&config, &options) {
        Err(e) => assert!(e.to_string().contains("shard"), "{e}"),
        Ok(_) => panic!("campaign with an unspawnable worker must fail"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pool_flags_without_a_spool_are_usage_errors() {
    for flags in [
        ["--shards", "4"].as_slice(),
        &["--workers", "2"],
        &["--retries", "2"],
        &["--worker-bin", "campaign"],
        &["--in-process"],
        &["--exit-after", "1"],
        &["--merge-only"],
        &["--worker-threads", "1"],
    ] {
        let out = Command::new(worker_bin())
            .args(["sweep", "--quick", "--quiet"])
            .args(flags)
            .output()
            .expect("spawn campaign sweep");
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{} needs --spool", flags[0])),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?} ran the sweep");
    }
}
