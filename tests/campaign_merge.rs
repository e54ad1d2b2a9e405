//! Merge determinism of sharded campaigns.
//!
//! The campaign contract: for *any* partition of the case space into
//! contiguous shards, run in *any* completion order, merging the per-shard
//! reports yields JSON and CSV **byte-identical** to a single-process
//! `run_sweep` of the same config — and resuming an interrupted campaign
//! reuses completed shard files instead of re-running them.

use regemu::campaign::{
    config_fingerprint, init_spool, merge_shards, run_campaign, run_shard, shard_report_path,
    CampaignOptions, ShardManifest, WorkerMode,
};
use regemu::prelude::*;
use std::fs;
use std::path::PathBuf;

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "regemu-campaign-merge-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_config() -> SweepConfig {
    let mut config = SweepConfig::quick();
    config.grid.truncate(2);
    config.schedulers = vec![SchedulerSpec::Fair, SchedulerSpec::Delayed];
    config.threads = 1;
    config
}

/// Deterministic "shuffles" of the shard execution order: identity,
/// reversed, and an interleave — enough to prove completion order cannot
/// leak into the merge.
fn orders(n: usize) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (0..n).collect();
    let reversed: Vec<usize> = (0..n).rev().collect();
    let interleaved: Vec<usize> = (0..n)
        .filter(|i| i % 2 == 1)
        .chain((0..n).filter(|i| i % 2 == 0))
        .collect();
    vec![identity, reversed, interleaved]
}

#[test]
fn any_partition_in_any_order_merges_byte_identically() {
    let config = small_config();
    let single = run_sweep(&config);
    let case_count = config.case_count();
    assert_eq!(case_count, 32);

    for threads in [1, 2, 3] {
        for shards in [1, 2, 7, case_count] {
            for (variant, order) in orders(shards.min(case_count)).into_iter().enumerate() {
                let dir = spool_dir(&format!("partition-{threads}-{shards}-{variant}"));
                let manifest = init_spool(&dir, &config, shards).unwrap();
                assert_eq!(manifest.shards.len(), shards.min(case_count));
                assert_eq!(manifest.fingerprint, config_fingerprint(&config));
                for shard in order {
                    run_shard(&dir, shard, threads).unwrap();
                }
                let merged = merge_shards(&dir).unwrap();
                let at = format!("{threads} threads, {shards} shards, order variant {variant}");
                assert_eq!(merged.to_json(), single.to_json(), "JSON differs at {at}");
                assert_eq!(merged.to_csv(), single.to_csv(), "CSV differs at {at}");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn shard_workers_can_run_concurrently() {
    // Four worker "processes" (threads here; the bench suite covers real
    // processes) racing on the same spool still merge byte-identically:
    // each shard only touches its own files.
    let config = small_config();
    let single = run_sweep(&config);
    let dir = spool_dir("concurrent");
    let manifest = init_spool(&dir, &config, 4).unwrap();
    assert_eq!(manifest.shards.len(), 4);
    std::thread::scope(|scope| {
        for shard in 0..4 {
            let dir = dir.clone();
            scope.spawn(move || run_shard(&dir, shard, 1).unwrap());
        }
    });
    let merged = merge_shards(&dir).unwrap();
    assert_eq!(merged.to_json(), single.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_kill_reuses_completed_shard_files() {
    let config = small_config();
    let single = run_sweep(&config);
    let dir = spool_dir("resume");
    let mut options = CampaignOptions::new(&dir);
    options.shards = 4;
    options.worker_threads = 1;
    options.worker = WorkerMode::InProcess;
    options.quiet = true;

    // "Kill" the campaign after two shards.
    options.exit_after = Some(2);
    let first = run_campaign(&config, &options).unwrap();
    assert!(first.report.is_none());
    assert_eq!(first.shards_run, 2);
    let manifest = ShardManifest::load(&dir).unwrap().unwrap();
    assert_eq!(manifest.incomplete().count(), 2);
    let mtime = |shard: usize| {
        fs::metadata(shard_report_path(&dir, shard))
            .unwrap()
            .modified()
            .unwrap()
    };
    let before = (mtime(0), mtime(1));

    // Resume: only the two incomplete shards run; the completed files are
    // reused untouched.
    options.exit_after = None;
    let second = run_campaign(&config, &options).unwrap();
    assert_eq!(second.shards_reused, 2);
    assert_eq!(second.shards_run, 2);
    assert_eq!(
        (mtime(0), mtime(1)),
        before,
        "completed shards were rewritten"
    );
    let merged = second.report.expect("campaign completed");
    assert_eq!(merged.to_json(), single.to_json());
    assert_eq!(merged.to_csv(), single.to_csv());
    let _ = fs::remove_dir_all(&dir);
}
