//! End-to-end `frontier_campaign` binary: typed rejection of infeasible
//! grid points (exit code 2, no silent skip), and a real multi-process
//! sharded campaign — killed mid-run via `--exit-after`, resumed, and
//! merge-only'd — whose frontier table stays byte-identical to the
//! single-process run.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn frontier_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "regemu-frontier-process-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&path);
    let _ = fs::remove_file(&path);
    path
}

const GRID: &str = "2/1/4,5/2/6";
const SEEDS: &str = "1,2";

#[test]
fn infeasible_grid_points_are_rejected_with_a_typed_error() {
    // n = 4 < 2f+1 = 5 makes z = 0: the binary must refuse the whole grid
    // up front with the bound-level reason, not run the feasible points.
    let out = Command::new(frontier_bin())
        .arg("frontier")
        .args(["--grid", "2/1/4,3/2/4", "--quiet"])
        .output()
        .expect("spawn frontier_campaign");
    assert_eq!(out.status.code(), Some(2), "usage-error exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("infeasible frontier grid point k=3, f=2, n=4"),
        "stderr must name the offending point: {stderr}"
    );
    assert!(
        stderr.contains("z = ⌊(n-f-1)/f⌋ is 0"),
        "stderr must carry the bound-level reason: {stderr}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).is_empty(),
        "no partial table on a rejected grid"
    );
}

#[test]
fn pool_flags_without_a_spool_are_usage_errors() {
    // Without a spool these used to be ignored: a single-process run that
    // exited 0 where `--exit-after 1` asked for a pause (exit 3).
    for flags in [
        ["--shards", "4", "--exit-after", "1"].as_slice(),
        &["--workers", "2"],
        &["--retries", "2"],
        &["--worker-bin", "campaign"],
        &["--in-process"],
        &["--exit-after", "1"],
        &["--merge-only"],
    ] {
        let out = Command::new(frontier_bin())
            .args(["frontier", "--grid", GRID, "--quiet"])
            .args(flags)
            .output()
            .expect("spawn campaign frontier");
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{} needs --spool", flags[0])),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?} printed a table");
    }
}

#[test]
fn sharded_kill_resume_campaign_matches_the_single_process_table() {
    // Single-process reference.
    let single = temp_path("single.txt");
    let status = Command::new(frontier_bin())
        .arg("frontier")
        .args(["--grid", GRID, "--seeds", SEEDS, "--quiet", "--text"])
        .arg(&single)
        .status()
        .expect("spawn frontier_campaign");
    assert!(status.success());
    let single_table = fs::read_to_string(&single).unwrap();
    assert!(single_table.contains("lower"), "{single_table}");
    assert!(single_table.contains("upper"));
    assert!(single_table.contains("2f+1"));

    // 2-shard campaign over real worker processes, killed after 1 shard.
    let spool = temp_path("spool");
    let paused = Command::new(frontier_bin())
        .arg("frontier")
        .args(["--grid", GRID, "--seeds", SEEDS, "--quiet"])
        .args(["--spool"])
        .arg(&spool)
        .args(["--shards", "2", "--workers", "2", "--exit-after", "1"])
        .args(["--worker-bin"])
        .arg(worker_bin())
        .output()
        .expect("spawn frontier_campaign");
    assert_eq!(
        paused.status.code(),
        Some(3),
        "exit-after must pause with the resumable exit code: {}",
        String::from_utf8_lossy(&paused.stderr)
    );

    // Resume the same spool (config comes from the spool, not the flags).
    let sharded = temp_path("sharded.txt");
    let resumed = Command::new(frontier_bin())
        .arg("frontier")
        .args(["--quiet", "--spool"])
        .arg(&spool)
        .args(["--worker-bin"])
        .arg(worker_bin())
        .args(["--text"])
        .arg(&sharded)
        .output()
        .expect("spawn frontier_campaign");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        fs::read_to_string(&sharded).unwrap(),
        single_table,
        "resumed sharded campaign must merge byte-identically"
    );

    // Merge-only re-reads the finished shard files without running anything.
    let merged = temp_path("merged.txt");
    let merge = Command::new(frontier_bin())
        .arg("frontier")
        .args(["--quiet", "--merge-only", "--spool"])
        .arg(&spool)
        .args(["--text"])
        .arg(&merged)
        .status()
        .expect("spawn frontier_campaign");
    assert!(merge.success());
    assert_eq!(fs::read_to_string(&merged).unwrap(), single_table);

    for p in [single, sharded, merged] {
        let _ = fs::remove_file(p);
    }
    let _ = fs::remove_dir_all(spool);
}
