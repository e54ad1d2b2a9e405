//! Bounded-memory soak: million-step runs under every recording mode.
//!
//! The full soak (`#[ignore]`, run it with `cargo test --release --test
//! soak_recording -- --include-ignored`) drives a single scenario past one
//! million simulation events and asserts the tentpole guarantees:
//!
//! * under `Ring(1024)` the peak retained-event count never exceeds the
//!   capacity, and the configured consistency condition is still verified —
//!   *online*, with complete coverage (the offline checkers need the `Full`
//!   log, which keeps every event in memory);
//! * under `Digest` zero events are retained;
//! * the `RunMetrics` of the bounded runs are byte-identical to the `Full`
//!   run of the same seed, and match the closed-form golden values.
//!
//! CI runs the same assertions with a reduced operation count via the
//! `REGEMU_SOAK_OPS` environment variable; the non-ignored smoke test keeps
//! a small version in every local `cargo test`. A second ignored test,
//! `offline_checkers_scale_linearly`, guards the other side: checking a
//! `Full` recording offline stays near-linear in its length.

use regemu::prelude::*;
use std::time::Instant;

/// Workload size of the ignored soak (the smoke test uses a fixed small
/// count). Overridable with `REGEMU_SOAK_OPS` for CI.
fn soak_ops() -> usize {
    std::env::var("REGEMU_SOAK_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SOAK_OPS)
}

/// Enough high-level operations to push the event stream past one million
/// events at `(k, f, n) = (2, 1, 4)` under the space-optimal construction.
const DEFAULT_SOAK_OPS: usize = 80_000;

const RING_CAPACITY: usize = 1024;

fn scenario(ops: usize, mode: RecordingModeSpec, check: ConsistencyCheck) -> Scenario {
    Scenario::new(Params::new(2, 1, 4).unwrap())
        .emulation(EmulationKind::SpaceOptimal)
        .workload(WorkloadSpec::RandomMixed {
            readers: 2,
            total: ops,
            write_percent: 50,
        })
        .recording(mode)
        .check(check)
        .seed(2024)
}

fn run(ops: usize, mode: RecordingModeSpec, check: ConsistencyCheck) -> (RunReport, u64, usize) {
    let mut run = scenario(ops, mode, check).build();
    run.run().expect("soak scenario completes");
    let total = run.history().total_events();
    let peak = run.history().peak_retained_events();
    (run.into_report(), total, peak)
}

fn soak(ops: usize, expect_million: bool) {
    // Full recording is metrics-only here on purpose: the soak is about the
    // bounded modes, and proving verdict agreement at scale is the online
    // checker's job below (and the property suite's at small scale).
    let (full, full_total, full_peak) = run(ops, RecordingModeSpec::Full, ConsistencyCheck::None);
    let (ring, ring_total, ring_peak) = run(
        ops,
        RecordingModeSpec::Ring(RING_CAPACITY),
        ConsistencyCheck::WsRegular,
    );
    let (digest, digest_total, digest_peak) =
        run(ops, RecordingModeSpec::Digest, ConsistencyCheck::None);

    eprintln!(
        "soak({ops} ops): {full_total} events; peak retained full={full_peak} \
         ring={ring_peak} digest={digest_peak}"
    );
    if expect_million {
        assert!(
            full_total >= 1_000_000,
            "soak run too short: {full_total} events (raise DEFAULT_SOAK_OPS)"
        );
    }

    // The run itself is recording-independent: same event count, same
    // metrics, same completions, same high-level schedule.
    assert_eq!(ring_total, full_total);
    assert_eq!(digest_total, full_total);
    assert_eq!(ring.metrics, full.metrics);
    assert_eq!(digest.metrics, full.metrics);
    assert_eq!(ring.completed_ops, full.completed_ops);
    assert_eq!(digest.history, full.history);
    assert_eq!(ring.history, full.history);

    // Memory bounds: Full retains everything, Ring at most its capacity,
    // Digest nothing.
    assert_eq!(full_peak as u64, full_total);
    assert!(
        ring_peak <= RING_CAPACITY,
        "ring peak {ring_peak} exceeds capacity {RING_CAPACITY}"
    );
    assert_eq!(digest_peak, 0);

    // The bounded run is still *checked*: online, over the whole stream.
    assert!(ring.is_fully_checked(), "{:?}", ring.check_coverage);
    assert!(ring.is_consistent(), "{:?}", ring.check_violation);

    // With folded-interval eviction the *interval digest* is bounded too:
    // retained intervals track the checker's window (point contention), not
    // the number of high-level operations, while metrics and the online
    // verdict are untouched.
    let mut evicting = scenario(
        ops,
        RecordingModeSpec::Ring(RING_CAPACITY),
        ConsistencyCheck::WsRegular,
    )
    .evict_folded_intervals()
    .build();
    evicting.run().expect("evicting soak scenario completes");
    let peak_intervals = evicting.history().peak_retained_intervals();
    let total_intervals = evicting.history().total_intervals();
    eprintln!("soak({ops} ops): interval digest peak {peak_intervals} of {total_intervals}");
    assert_eq!(total_intervals, ops as u64);
    assert!(
        peak_intervals <= 64,
        "interval digest grew to {peak_intervals} (of {total_intervals}) despite eviction"
    );
    let evicting_report = evicting.into_report();
    assert_eq!(evicting_report.metrics, full.metrics);
    assert!(evicting_report.is_fully_checked());
    assert!(evicting_report.is_consistent());

    // Golden values (tier-1 metrics): the space-optimal construction uses
    // exactly its provisioned layout, which is the Theorem 3 closed form.
    let params = Params::new(2, 1, 4).unwrap();
    assert_eq!(
        full.metrics.resource_consumption(),
        register_upper_bound(params)
    );
    assert_eq!(full.completed_ops, ops);
    assert_eq!(full.metrics.point_contention, ring.metrics.point_contention);
    assert!(full.metrics.low_level_responses <= full.metrics.low_level_triggers);
}

/// Small enough for every local `cargo test` run, asserting the same
/// invariants as the full soak.
#[test]
fn soak_smoke_bounded_recording() {
    soak(1_500, false);
}

/// The million-step soak. `#[ignore]`d locally (seconds of release-mode
/// work, much longer unoptimized); CI runs it with `--include-ignored` and
/// a reduced `REGEMU_SOAK_OPS`.
#[test]
#[ignore = "million-step soak; run with --release --include-ignored"]
fn soak_million_step_ring_is_bounded_and_checked() {
    let ops = soak_ops();
    soak(ops, ops >= DEFAULT_SOAK_OPS);
}

/// Scaling guard for the `soak-smoke` CI job: the offline checkers are
/// near-linear in run length, so checking 4× the operations may take at
/// most 8× as long (near-linear reads 4–5×, a quadratic checker about 16×).
/// A ratio of two timings on the same box, so the box's speed cancels out;
/// only the check is timed, not the run that records the schedule.
#[test]
#[ignore = "timing; run with --release --ignored"]
fn offline_checkers_scale_linearly() {
    let spec = SequentialSpec::register();
    for (kind, check) in [
        (
            EmulationKind::AbdMaxRegisterAtomic,
            ConsistencyCheck::Atomic,
        ),
        (EmulationKind::SpaceOptimal, ConsistencyCheck::WsRegular),
    ] {
        let best_of_three = |ops: usize| {
            let mut run = Scenario::new(Params::new(4, 1, 5).unwrap())
                .emulation(kind)
                .workload(WorkloadSpec::RandomMixed {
                    readers: 2,
                    total: ops,
                    write_percent: 50,
                })
                .recording(RecordingModeSpec::Full)
                .check(ConsistencyCheck::None)
                .seed(7)
                .build();
            run.run().expect("scaling scenario completes");
            let history = HighHistory::from_run(run.history());
            assert_eq!(history.len(), ops);
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let verdict = match check {
                        ConsistencyCheck::Atomic => check_linearizable(&history, &spec),
                        _ => check_ws_regular(&history, &spec),
                    };
                    let elapsed = start.elapsed();
                    assert!(verdict.is_ok(), "{kind}/{check}: {verdict:?}");
                    elapsed
                })
                .min()
                .expect("three timings")
        };
        let (small, large) = (best_of_three(4_000), best_of_three(16_000));
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        eprintln!("{kind}/{check}: 4 k ops {small:?}, 16 k ops {large:?}, ratio {ratio:.1}");
        assert!(
            ratio <= 8.0,
            "{kind}/{check}: 4 k ops took {small:?}, 16 k ops {large:?}: ratio {ratio:.1}"
        );
    }
}
