//! End-to-end fuzz processes: the spool-less `campaign fuzz` and `campaign
//! replay` exit codes, and real `campaign worker` processes spawned over a
//! spool directory with interruption, resume and retry — merging
//! byte-identically to the in-process campaign.
//!
//! Cargo builds the binaries for integration tests of this crate and
//! exposes their paths via `CARGO_BIN_EXE_*`.

use regemu_bounds::Params;
use regemu_core::FaultyKind;
use regemu_workloads::campaign::WorkerMode;
use regemu_workloads::fuzz::campaign::{
    run_fuzz_campaign, FuzzCampaignConfig, FuzzCampaignOptions,
};
use regemu_workloads::fuzz::{
    fuzz_and_shrink, FuzzCase, FuzzConfig, FuzzEmulation, RecordedSchedule,
};
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn spool_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("regemu-fuzz-process-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .unwrap()
}

/// `campaign replay` is the triage entry point scripts build on, so its
/// exit codes are contract: `0` for a passing trace, `2` for a failing one,
/// `1` for a malformed file — and a malformed file must produce a
/// line-numbered parse error, never a panic.
#[test]
fn replay_exit_codes_are_contract() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let dir = spool_dir("replay");
    fs::create_dir_all(&dir).unwrap();

    // A passing trace: the untouched seed case of a clean construction.
    let clean_config = FuzzConfig::new(Params::new(1, 1, 3).unwrap());
    let clean =
        RecordedSchedule::from_parts(&clean_config, &FuzzCase::seed_case(2, clean_config.seed));
    let clean_path = dir.join("clean.trace");
    fs::write(&clean_path, clean.to_text()).unwrap();
    let out = Command::new(bin)
        .args(["replay", clean_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "clean replay must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict pass"));

    // A failing trace: the shrunk repro of a seeded bug.
    let faulty_config = FuzzConfig::new(Params::new(1, 1, 3).unwrap())
        .emulation(FuzzEmulation::Faulty(FaultyKind::WeakQuorumWrite))
        .seed(61525)
        .budget(200)
        .stop_on_failure();
    let (_, shrunk) = fuzz_and_shrink(faulty_config);
    let failing_path = dir.join("failing.trace");
    fs::write(&failing_path, shrunk.unwrap().trace.to_text()).unwrap();
    let out = Command::new(bin)
        .args(["replay", failing_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "failing replay must exit 2");

    // Malformed traces: exit 1 with a line-numbered error, never a panic.
    let mangled = clean.to_text().replace("decisions", "decisionz");
    let bad_path = dir.join("bad.trace");
    fs::write(&bad_path, mangled).unwrap();
    for path in [bad_path.to_str().unwrap(), "/nonexistent/trace.file"] {
        let out = Command::new(bin).args(["replay", path]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "malformed replay must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "replay must fail gracefully: {stderr}"
        );
    }
    let stderr_of_bad = Command::new(bin)
        .args(["replay", bad_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        String::from_utf8_lossy(&stderr_of_bad.stderr).contains("line "),
        "parse errors must carry a line number"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Without `--spool`, `campaign fuzz` runs one fuzzer in this process: its
/// report is the library's `fuzz_and_shrink` report byte for byte, a clean
/// construction exits 0, and a seeded bug exits 2 with its shrunk trace
/// written to `--trace` — a trace `campaign replay` then fails again (2).
#[test]
fn spool_less_fuzz_and_replay_exit_codes() {
    let dir = spool_dir("solo");
    fs::create_dir_all(&dir).unwrap();
    let common = ["fuzz", "--params", "1,1,3", "--budget", "120", "--quiet"];

    let clean = campaign(&[&common[..], &["--emulation", "space-optimal", "--out", "-"]].concat());
    assert_eq!(clean.status.code(), Some(0), "a clean construction exits 0");
    let (reference, _) =
        fuzz_and_shrink(FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(120));
    assert_eq!(String::from_utf8_lossy(&clean.stdout), reference.to_text());

    let trace = dir.join("weak.trace");
    let trace_arg = trace.to_str().unwrap();
    let found = campaign(
        &[
            &common[..],
            &[
                "--emulation",
                "faulty-weak-quorum",
                "--stop-on-failure",
                "--trace",
                trace_arg,
            ],
        ]
        .concat(),
    );
    assert_eq!(found.status.code(), Some(2), "a seeded bug exits 2");
    let stderr = String::from_utf8_lossy(&found.stderr);
    assert!(
        stderr.contains(&format!("campaign replay {trace_arg}")),
        "{stderr}"
    );

    let replayed = campaign(&["replay", trace_arg]);
    assert_eq!(
        replayed.status.code(),
        Some(2),
        "the shrunk trace fails again"
    );
    assert!(String::from_utf8_lossy(&replayed.stdout).starts_with("verdict violation"));
    let _ = fs::remove_dir_all(&dir);
}

/// The flags that shape a sharded campaign are usage errors (exit 1, the
/// fuzz usage code) without `--spool`, and the flags of the one-process run
/// are usage errors with one.
#[test]
fn fuzz_pool_flags_need_a_spool() {
    for flag in [
        &["--streams", "2"][..],
        &["--generations", "2"],
        &["--failures", "-"],
        &["--seed-corpus", "/tmp"],
        &["--shards", "2"],
    ] {
        let out = campaign(&[&["fuzz", "--budget", "1"], flag].concat());
        assert_eq!(out.status.code(), Some(1), "{flag:?} without --spool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{} needs --spool", flag[0])),
            "{stderr}"
        );
    }
    let dir = spool_dir("solo-flags");
    let out = campaign(&[
        "fuzz",
        "--spool",
        dir.to_str().unwrap(),
        "--trace",
        "t.trace",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace does not combine with --spool"));
    assert!(!dir.exists(), "a usage error touches no spool");
}

/// One sequential test running the whole multi-process fuzz story (the
/// failure hook is an env var inherited by children, so the stages must not
/// run concurrently): spawned workers, kill + resume, injected retry.
#[test]
fn multi_process_fuzz_campaign_is_byte_identical_resumable_and_retries() {
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_campaign"));
    let config = FuzzCampaignConfig::new(
        FuzzConfig::new(Params::new(1, 1, 3).unwrap())
            .emulation(FuzzEmulation::Faulty(FaultyKind::DroppedAcks))
            .budget(24),
    )
    .streams(4)
    .generations(2);

    // The in-process single-shard run is the reference artifact.
    let reference = {
        let dir = spool_dir("reference");
        let options = FuzzCampaignOptions {
            shards: 1,
            quiet: true,
            ..FuzzCampaignOptions::new(&dir)
        };
        let report = run_fuzz_campaign(&config, &options)
            .unwrap()
            .report
            .expect("reference campaign completes");
        assert!(report.found(), "the seeded liveness bug must be caught");
        let artifact = (report.to_text(), report.failures_text());
        let _ = fs::remove_dir_all(&dir);
        artifact
    };

    // --- 4 shards, 2 concurrent worker processes -------------------------
    let dir = spool_dir("spawn");
    let mut options = FuzzCampaignOptions {
        shards: 4,
        workers: 2,
        worker: WorkerMode::Spawn(worker.clone()),
        quiet: true,
        ..FuzzCampaignOptions::new(&dir)
    };
    let outcome = run_fuzz_campaign(&config, &options).unwrap();
    assert_eq!(outcome.units_run, 8);
    let report = outcome.report.expect("spawned campaign completes");
    assert_eq!(report.to_text(), reference.0);
    assert_eq!(report.failures_text(), reference.1);
    let _ = fs::remove_dir_all(&dir);

    // --- killed mid-campaign, then resumed -------------------------------
    let dir = spool_dir("resume");
    options.spool = dir.clone();
    options.exit_after = Some(3);
    let first = run_fuzz_campaign(&config, &options).unwrap();
    assert!(first.report.is_none());
    assert!(first.units_run >= 3);
    options.exit_after = None;
    let second = run_fuzz_campaign(&config, &options).unwrap();
    assert_eq!(second.units_run + second.units_reused, 8);
    assert!(second.units_reused >= 3, "completed units must be reused");
    let report = second.report.expect("campaign completes after resume");
    assert_eq!(report.to_text(), reference.0);
    assert_eq!(report.failures_text(), reference.1);
    let _ = fs::remove_dir_all(&dir);

    // --- a worker that dies once is retried within the budget ------------
    let dir = spool_dir("retry");
    let marker = dir.join("fail-once.marker");
    options.spool = dir.clone();
    options.workers = 1;
    options.max_attempts = 3;
    std::env::set_var("REGEMU_WORKER_FAIL_ONCE", &marker);
    let outcome = run_fuzz_campaign(&config, &options);
    std::env::remove_var("REGEMU_WORKER_FAIL_ONCE");
    let outcome = outcome.unwrap();
    assert_eq!(outcome.retries, 1, "exactly one injected failure");
    let report = outcome
        .report
        .expect("campaign completes despite the crash");
    assert_eq!(report.to_text(), reference.0);
    let _ = fs::remove_dir_all(&dir);

    // --- a worker that always fails exhausts the attempt budget ----------
    let dir = spool_dir("exhaust");
    options.spool = dir.clone();
    options.max_attempts = 2;
    options.worker = WorkerMode::Spawn(PathBuf::from("/nonexistent/fuzz_worker"));
    match run_fuzz_campaign(&config, &options) {
        Err(e) => assert!(e.to_string().contains("shard"), "{e}"),
        Ok(_) => panic!("campaign with an unspawnable worker must fail"),
    }
    let _ = fs::remove_dir_all(&dir);
}
