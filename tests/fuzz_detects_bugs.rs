//! Seeded-bug oracle suite for the fuzzer (`regemu::fuzz`): every
//! intentionally broken emulation variant ([`FaultyKind`]) must be caught
//! within a fixed budget, the clean constructions must survive the *same*
//! budget with zero failures, and each caught failure must shrink to a
//! deterministic, replayable repro. This is the suite the CI `fuzz-smoke`
//! job runs.

use regemu::prelude::*;

const BUDGET: usize = 200;
const SEED: u64 = 61525;

fn faulty_config(kind: FaultyKind) -> FuzzConfig {
    FuzzConfig::new(Params::new(1, 1, 3).unwrap())
        .emulation(FuzzEmulation::Faulty(kind))
        .seed(SEED)
        .budget(BUDGET)
}

#[test]
fn every_seeded_bug_is_found_within_the_budget() {
    for kind in FaultyKind::ALL {
        let report = Fuzzer::new(faulty_config(kind).stop_on_failure()).run();
        assert!(
            report.found(),
            "{kind:?} not caught within {BUDGET} iterations"
        );
        let failure = &report.failures[0];
        // Safety bugs surface as consistency violations; the dropped-acks
        // liveness bug never violates a condition and must be caught by the
        // stuck oracle instead.
        if kind.is_liveness_bug() {
            assert_eq!(
                failure.kind,
                FailureKind::Stuck,
                "{kind:?} failed as {:?}, expected the stuck oracle",
                failure.kind
            );
        } else {
            assert!(
                matches!(failure.kind, FailureKind::Violation(_)),
                "{kind:?} failed as {:?}, expected a consistency violation",
                failure.kind
            );
        }
    }
}

#[test]
fn clean_constructions_survive_the_same_budget_with_zero_failures() {
    for kind in EmulationKind::ALL {
        let config = FuzzConfig::new(Params::new(1, 1, 3).unwrap())
            .emulation(FuzzEmulation::Kind(kind))
            .seed(SEED)
            .budget(BUDGET);
        let report = Fuzzer::new(config).run();
        assert!(
            !report.found(),
            "{kind} failed under fuzzing: {}",
            report.failures[0].verdict
        );
        assert_eq!(report.iterations, BUDGET);
        assert!(report.corpus_size > 1, "no coverage growth on {kind}");
    }
}

#[test]
fn every_found_failure_shrinks_to_a_replayable_repro() {
    for kind in FaultyKind::ALL {
        let config = faulty_config(kind).stop_on_failure();
        let (report, shrunk) = fuzz_and_shrink(config.clone());
        assert!(report.found(), "{kind:?} not caught");
        let failure = shrunk.expect("a found failure must shrink");
        // The shrunk case still fails the same condition...
        assert_eq!(failure.kind, report.failures[0].kind);
        // ...and the emitted trace replays to the byte-identical verdict.
        let text = failure.trace.to_text();
        let parsed = RecordedSchedule::from_text(&text).unwrap();
        let outcome = replay(&parsed).unwrap();
        assert_eq!(outcome.kind.as_ref(), Some(&failure.kind));
        assert_eq!(outcome.verdict, failure.verdict);
        // The report names the replay command for triage.
        assert!(failure
            .replay_command("repro.trace")
            .contains("campaign replay repro.trace"));
    }
}

#[test]
fn shrinking_is_deterministic_and_idempotent() {
    let config = faulty_config(FaultyKind::WeakQuorumWrite).stop_on_failure();
    let (report_a, shrunk_a) = fuzz_and_shrink(config.clone());
    let (report_b, shrunk_b) = fuzz_and_shrink(config.clone());
    assert_eq!(report_a.to_text(), report_b.to_text());
    let (a, b) = (shrunk_a.unwrap(), shrunk_b.unwrap());
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.to_text(), b.to_text());
    // Shrinking the shrunk case again is a fixed point.
    let kind = report_a.failures[0].kind.clone();
    let case = a.trace.case();
    let (again, _) = regemu::fuzz::shrink_case(&config, &case, &kind);
    assert_eq!(again, case);
}

#[test]
fn corpus_evolution_is_a_pure_function_of_the_seed() {
    let config = FuzzConfig::new(Params::new(2, 1, 4).unwrap())
        .seed(SEED)
        .budget(60);
    let a = Fuzzer::new(config.clone()).run();
    let b = Fuzzer::new(config).run();
    assert_eq!(a.to_text(), b.to_text());
    assert!(!a.found());
    // A different seed explores differently.
    let c = Fuzzer::new(
        FuzzConfig::new(Params::new(2, 1, 4).unwrap())
            .seed(SEED + 1)
            .budget(60),
    )
    .run();
    assert_ne!(a.to_text(), c.to_text());
}

#[test]
fn the_shrunk_weak_quorum_repro_is_minimal_noise_free() {
    // The weak-quorum bug needs only delivery ordering: the shrunk repro
    // must carry no crash and a canonical (zero) tail seed.
    let config = faulty_config(FaultyKind::WeakQuorumWrite).stop_on_failure();
    let (_, shrunk) = fuzz_and_shrink(config);
    let trace = shrunk.expect("weak quorum must be caught").trace;
    assert!(trace.crashes.is_empty(), "{:?}", trace.crashes);
    assert_eq!(trace.tail_seed, 0);
    assert!(trace.workload_len <= 2, "{}", trace.workload_len);
}
