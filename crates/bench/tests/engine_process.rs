//! Process-level checks of the unified campaign engine that need the real
//! `campaign` binary: spools written by the pre-engine coordinators resume
//! under it, and the two pool bugs the engine fixed stay fixed.
//!
//! The stages share scripts and child processes, so they run as one
//! sequential test (a script file still open for writing while another
//! thread forks is `ETXTBSY`).
#![cfg(unix)]

use regemu_bounds::Params;
use regemu_workloads::campaign::{CampaignError, WorkerMode};
use regemu_workloads::fuzz::{
    run_fuzz_campaign, FuzzCampaignConfig, FuzzCampaignOptions, FuzzConfig,
};
use std::fs;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn campaign_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "regemu-engine-process-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copies a committed pre-engine spool into a scratch directory.
fn golden_spool(name: &str, tag: &str) -> PathBuf {
    let source = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let target = temp_dir(tag);
    fs::create_dir_all(&target).unwrap();
    for entry in fs::read_dir(&source).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), target.join(entry.file_name())).unwrap();
    }
    target
}

fn campaign(args: &[&str]) -> Option<i32> {
    let output = Command::new(campaign_bin()).args(args).output().unwrap();
    if !output.stderr.is_empty() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    output.status.code()
}

fn script(dir: &Path, name: &str, body: &str) -> PathBuf {
    fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
    fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
    path
}

fn pre_engine_sweep_spool_resumes_and_merges_identically() {
    let spool = golden_spool("spool-sweep-paused", "sweep-resume");
    let out = temp_dir("sweep-out");
    fs::create_dir_all(&out).unwrap();
    let resumed = out.join("resumed.json");
    let fresh = out.join("fresh.json");
    // No config flags: the spool dictates the campaign.
    let code = campaign(&[
        "sweep",
        "--quiet",
        "--spool",
        spool.to_str().unwrap(),
        "--json",
        resumed.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    // The same config (see the fixture's config.txt), one shard, no spawn.
    let code = campaign(&[
        "sweep",
        "--quiet",
        "--in-process",
        "--shards",
        "1",
        "--spool",
        out.join("fresh-spool").to_str().unwrap(),
        "--quick",
        "--seeds",
        "7",
        "--grid",
        "2/1/4",
        "--json",
        fresh.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    assert_eq!(fs::read(&resumed).unwrap(), fs::read(&fresh).unwrap());
    for dir in [spool, out] {
        let _ = fs::remove_dir_all(dir);
    }
}

fn pre_engine_fuzz_spool_resumes_and_merges_identically() {
    let spool = golden_spool("spool-fuzz-paused", "fuzz-resume");
    let out = temp_dir("fuzz-out");
    fs::create_dir_all(&out).unwrap();
    let path = |name: &str| out.join(name).to_str().unwrap().to_string();
    let code = campaign(&[
        "fuzz",
        "--quiet",
        "--spool",
        spool.to_str().unwrap(),
        "--out",
        &path("resumed.report"),
        "--failures",
        &path("resumed.failures"),
    ]);
    assert_eq!(
        code,
        Some(2),
        "the seeded liveness bug is in the merged set"
    );
    let code = campaign(&[
        "fuzz",
        "--quiet",
        "--in-process",
        "--shards",
        "1",
        "--spool",
        &path("fresh-spool"),
        "--params",
        "1,1,3",
        "--emulation",
        "faulty-dropped-acks",
        "--budget",
        "24",
        "--streams",
        "4",
        "--generations",
        "2",
        "--out",
        &path("fresh.report"),
        "--failures",
        &path("fresh.failures"),
    ]);
    assert_eq!(code, Some(2));
    for artifact in ["report", "failures"] {
        assert_eq!(
            fs::read(path(&format!("resumed.{artifact}"))).unwrap(),
            fs::read(path(&format!("fresh.{artifact}"))).unwrap(),
            "{artifact} differs"
        );
    }
    for dir in [spool, out] {
        let _ = fs::remove_dir_all(dir);
    }
}

fn small_fuzz_campaign(generations: usize) -> FuzzCampaignConfig {
    FuzzCampaignConfig::new(FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(32))
        .streams(2)
        .generations(generations)
}

/// Before the engine, `run_fuzz_campaign` returned the fatal verdict with
/// the sibling worker still running.
fn a_fatal_fuzz_failure_leaves_no_worker_alive() {
    let spool = temp_dir("orphan");
    // Shard 0's worker dies at once; shard 1's would leave a mark 0.4 s on.
    let worker = script(
        &spool,
        "worker.sh",
        "case \"$*\" in *'--shard 0'*) exit 1;; esac\nsleep 0.4\n: > \"$SURVIVED\"",
    );
    let survived = spool.join("survived");
    std::env::set_var("SURVIVED", &survived);
    let options = FuzzCampaignOptions {
        shards: 2,
        workers: 2,
        max_attempts: 1,
        worker: WorkerMode::Spawn(worker),
        quiet: true,
        ..FuzzCampaignOptions::new(&spool)
    };
    let outcome = run_fuzz_campaign(&small_fuzz_campaign(1), &options);
    std::env::remove_var("SURVIVED");
    match outcome {
        Err(CampaignError::ShardFailed { shard: 0, .. }) => {}
        other => panic!("expected ShardFailed for shard 0, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(800));
    assert!(
        !survived.exists(),
        "a worker outlived the campaign that declared it failed"
    );
    let _ = fs::remove_dir_all(&spool);
}

/// Before the engine, attempts accumulated over a shard's generations, so
/// by generation 3 the first failure already exceeded a budget of 2.
fn the_fuzz_retry_budget_is_per_generation() {
    let spool = temp_dir("budget");
    // The real worker, except that the first generation-3 unit dies once.
    let worker = script(
        &spool,
        "worker.sh",
        "case \"$*\" in *'--gen 3'*)\n\
         if [ ! -e \"$FAILED_ONCE\" ]; then : > \"$FAILED_ONCE\"; exit 1; fi;;\nesac\n\
         exec \"$REAL_WORKER\" \"$@\"",
    );
    std::env::set_var("FAILED_ONCE", spool.join("failed-once"));
    std::env::set_var("REAL_WORKER", campaign_bin());
    let options = FuzzCampaignOptions {
        shards: 2,
        workers: 1,
        max_attempts: 2,
        worker: WorkerMode::Spawn(worker),
        quiet: true,
        ..FuzzCampaignOptions::new(&spool)
    };
    let outcome = run_fuzz_campaign(&small_fuzz_campaign(4), &options);
    std::env::remove_var("FAILED_ONCE");
    std::env::remove_var("REAL_WORKER");
    let outcome = outcome.expect("one failure in the last generation is within a budget of 2");
    assert_eq!(outcome.retries, 1, "exactly the injected failure");
    assert_eq!(outcome.units_run, 8);
    assert!(outcome.report.is_some());
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn pre_engine_spools_resume_and_the_pool_fixes_hold() {
    pre_engine_sweep_spool_resumes_and_merges_identically();
    pre_engine_fuzz_spool_resumes_and_merges_identically();
    a_fatal_fuzz_failure_leaves_no_worker_alive();
    the_fuzz_retry_budget_is_per_generation();
}
