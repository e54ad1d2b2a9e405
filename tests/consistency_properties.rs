//! Property-based integration tests: consistency guarantees hold across
//! random schedules, random workloads and random crash points — all driven
//! through the [`Scenario`] pipeline.

use proptest::prelude::*;
use regemu::prelude::*;

/// Strategy over the parameter points used by the property tests (kept small
/// so each case stays fast; the checkers are exponential in history size).
fn small_params() -> impl Strategy<Value = Params> {
    (1usize..=3, 1usize..=2, 0usize..=3).prop_map(|(k, f, extra)| {
        Params::new(k, f, 2 * f + 1 + extra).expect("n ≥ 2f + 1 by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Theorem 3's guarantee: the space-optimal construction is WS-Regular in
    /// every fair schedule of a write-sequential workload, with or without a
    /// crash of up to f servers.
    #[test]
    fn space_optimal_is_ws_regular_under_random_schedules(
        params in small_params(),
        seed in 0u64..1000,
        crash in proptest::bool::ANY,
    ) {
        let mut scenario = Scenario::new(params)
            .emulation(EmulationKind::SpaceOptimal)
            .workload(WorkloadSpec::WriteSequential { rounds: 1, read_after_each: true })
            .check(ConsistencyCheck::WsRegular)
            .seed(seed);
        if crash {
            let victim = ServerId::new((seed as usize) % params.n);
            scenario = scenario.crash_plan(CrashPlan::none().crash_at(seed % 7, victim));
        }
        let report = scenario.run().unwrap();
        prop_assert!(report.is_consistent(), "violation: {:?}", report.check_violation);
        prop_assert_eq!(report.metrics.resource_consumption(), register_upper_bound(params));
    }

    /// The same property for the ABD-style emulations over max-registers and
    /// CAS, whose space cost must stay at 2f + 1.
    #[test]
    fn rmw_emulations_are_ws_regular_and_small(
        params in small_params(),
        seed in 0u64..1000,
    ) {
        for kind in [EmulationKind::AbdMaxRegister, EmulationKind::AbdCas] {
            let report = Scenario::new(params)
                .emulation(kind)
                .workload(WorkloadSpec::WriteSequential { rounds: 1, read_after_each: true })
                .check(ConsistencyCheck::WsRegular)
                .seed(seed)
                .run()
                .unwrap();
            prop_assert!(report.is_consistent(), "{}: {:?}", kind, report.check_violation);
            prop_assert_eq!(report.metrics.resource_consumption(), 2 * params.f + 1);
        }
    }

    /// Reads that overlap writes still satisfy WS-Regularity (the condition
    /// constrains them through the write-sequential order of the writes) —
    /// under the fair scheduler and the deterministic round-robin alike.
    #[test]
    fn concurrent_reads_remain_ws_regular(
        params in small_params(),
        seed in 0u64..500,
        round_robin in proptest::bool::ANY,
    ) {
        let report = Scenario::new(params)
            .emulation(EmulationKind::SpaceOptimal)
            .workload(WorkloadSpec::ConcurrentReadWrite { rounds: 1 })
            .scheduler(if round_robin { SchedulerSpec::RoundRobin } else { SchedulerSpec::Fair })
            .check(ConsistencyCheck::WsRegular)
            .seed(seed)
            .drain()
            .run()
            .unwrap();
        prop_assert!(report.is_consistent(), "violation: {:?}", report.check_violation);
    }

    /// The write-back variant of ABD is atomic under small mixed workloads.
    #[test]
    fn atomic_abd_is_linearizable(
        seed in 0u64..300,
        write_ratio in 0.2f64..0.8,
    ) {
        let params = Params::new(2, 1, 3).unwrap();
        let workload = Workload::random_mixed(params.k, 2, 10, write_ratio, seed);
        let report = Scenario::new(params)
            .emulation(EmulationKind::AbdMaxRegisterAtomic)
            .workload_steps(workload)
            .check(ConsistencyCheck::Atomic)
            .seed(seed)
            .run()
            .unwrap();
        prop_assert!(report.is_consistent(), "violation: {:?}", report.check_violation);
    }

    /// Simulator invariants: no response without a trigger, crashed servers
    /// never respond, resource consumption never exceeds the provisioned
    /// object count, and coverage is always a subset of the touched objects.
    #[test]
    fn simulator_invariants_hold_on_random_runs(
        params in small_params(),
        seed in 0u64..1000,
    ) {
        let report = Scenario::new(params)
            .emulation(EmulationKind::SpaceOptimal)
            .workload(WorkloadSpec::RandomMixed { readers: 1, total: 6, write_percent: 60 })
            .check(ConsistencyCheck::None)
            .seed(seed)
            .run()
            .unwrap();
        let metrics = &report.metrics;
        prop_assert!(metrics.resource_consumption() <= report.provisioned_objects);
        prop_assert!(metrics.covered.iter().all(|b| metrics.written.contains(b)));
        prop_assert!(metrics.written.iter().all(|b| metrics.touched.contains(b)));
        prop_assert!(metrics.low_level_responses <= metrics.low_level_triggers);
    }
}

/// A deterministic (non-proptest) regression: the legal-read-value window of
/// the WS-Regularity checker agrees with a brute-force linearizability check
/// on write-sequential schedules with a single read.
#[test]
fn ws_regularity_agrees_with_linearizability_on_single_read_schedules() {
    let spec = SequentialSpec::register();
    for read_start in 0..8u64 {
        for read_end in read_start..9u64 {
            for value in [0u64, 1, 2, 99] {
                let mut h = HighHistory::default();
                h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 2);
                h.push_complete(1, HighOp::Write(2), HighResponse::WriteAck, 4, 6);
                h.push_complete(
                    2,
                    HighOp::Read,
                    HighResponse::ReadValue(value),
                    read_start,
                    read_end,
                );
                let regular = check_ws_regular(&h, &spec).is_ok();
                let linearizable = check_linearizable(&h, &spec).is_ok();
                // Atomicity implies WS-Regularity; on single-read schedules
                // the two coincide.
                assert_eq!(
                    regular, linearizable,
                    "read [{read_start},{read_end}] = {value}: regular={regular}, linearizable={linearizable}"
                );
            }
        }
    }
}

/// The cheapest repro of the `n = 2f+1` hole: a plain fair run of
/// `register-bank` at `(1,1,3)` breaks WS-Safety. A writer's driver reset
/// forgets its in-flight own-slot write, which later lands on top of a
/// newer value and moves the slot backwards. Ignored until
/// `BankMaxDriver` keeps one own-slot write in flight across resets.
#[test]
#[ignore = "ROADMAP item 1: register-bank is not WS-Safe at n = 2f+1"]
fn register_bank_is_ws_safe_at_n_equal_2f_plus_1() {
    let report = Scenario::new(Params::new(1, 1, 3).unwrap())
        .emulation(EmulationKind::RegisterBank)
        .workload(WorkloadSpec::RandomMixed {
            readers: 2,
            total: 60,
            write_percent: 50,
        })
        .scheduler(SchedulerSpec::Fair)
        .check(ConsistencyCheck::WsSafe)
        .seed(12)
        .run()
        .unwrap();
    assert!(
        report.is_consistent(),
        "violation: {:?}",
        report.check_violation
    );
}
