//! Integration test: the measured space consumption of every implemented
//! emulation conforms to Table 1 of the paper, over a sweep of `(k, f, n)`.

use regemu::bounds::{
    min_servers, register_lower_bound_any_n, saturation_server_count,
    special_case_minimal_n_upper_bound,
};
use regemu::prelude::*;

/// Runs a write-sequential workload (every writer writes once, one read after
/// each write) through a [`Scenario`] and returns the measured resource
/// consumption.
fn measure(kind: EmulationKind, params: Params, seed: u64) -> usize {
    let report = Scenario::new(params)
        .emulation(kind)
        .workload(WorkloadSpec::WriteSequential {
            rounds: 1,
            read_after_each: true,
        })
        .check(ConsistencyCheck::WsRegular)
        .seed(seed)
        .run()
        .expect("workload must complete");
    assert!(
        report.is_consistent(),
        "{kind} at {params} violated WS-Regularity: {:?}",
        report.check_violation
    );
    report.metrics.resource_consumption()
}

#[test]
fn max_register_and_cas_emulations_use_2f_plus_1_objects() {
    for params in small_sweep() {
        assert_eq!(
            measure(EmulationKind::AbdMaxRegister, params, 1),
            max_register_bound(params.f),
            "{params}"
        );
        assert_eq!(
            measure(EmulationKind::AbdCas, params, 2),
            cas_bound(params.f),
            "{params}"
        );
    }
}

#[test]
fn space_optimal_construction_matches_theorem_3_and_respects_theorem_1() {
    for params in small_sweep() {
        let consumption = measure(EmulationKind::SpaceOptimal, params, 3);
        assert_eq!(consumption, register_upper_bound(params), "{params}");
        assert!(consumption >= register_lower_bound(params), "{params}");
        // Provisioning matches consumption: the construction has no unused
        // registers.
        let emulation = SpaceOptimalEmulation::new(params);
        assert_eq!(emulation.base_object_count(), consumption, "{params}");
    }
}

#[test]
fn register_emulations_are_separated_from_rmw_emulations_for_k_above_1() {
    // The headline separation of the paper: the space cost of register-based
    // emulations grows with k, the RMW-based ones stay at 2f + 1.
    for params in small_sweep().into_iter().filter(|p| p.k > 1) {
        let register_cost = SpaceOptimalEmulation::new(params).base_object_count();
        let rmw_cost = EmulationKind::AbdMaxRegister
            .build(params)
            .base_object_count();
        assert!(
            register_cost > rmw_cost,
            "expected separation at {params}: {register_cost} vs {rmw_cost}"
        );
    }
}

#[test]
fn bounds_coincide_at_the_two_special_cases_and_measurements_agree() {
    // n = 2f + 1 and n ≥ kf + f + 1 are the cases where the paper's bounds
    // are tight; the implementation hits them exactly.
    for (k, f) in [(2usize, 1usize), (3, 1), (2, 2)] {
        let minimal = Params::new(k, f, min_servers(f)).unwrap();
        assert!(minimal.bounds_coincide());
        let consumption = measure(EmulationKind::SpaceOptimal, minimal, 7);
        assert_eq!(consumption, special_case_minimal_n_upper_bound(k, f));

        let saturated = Params::new(k, f, saturation_server_count(k, f)).unwrap();
        assert!(saturated.bounds_coincide());
        let consumption = measure(EmulationKind::SpaceOptimal, saturated, 8);
        assert_eq!(consumption, register_lower_bound_any_n(k, f));
    }
}

#[test]
fn register_bank_construction_uses_k_registers_per_server() {
    for params in small_sweep()
        .into_iter()
        .filter(|p| p.n == min_servers(p.f))
    {
        let emulation = EmulationKind::RegisterBank.build(params);
        assert_eq!(emulation.base_object_count(), params.n * params.k);
        let consumption = measure(EmulationKind::RegisterBank, params, 4);
        // The ABD phases read every bank register, so consumption equals the
        // provisioned (2f+1)·k — the special-case matching upper bound.
        assert_eq!(
            consumption,
            special_case_minimal_n_upper_bound(params.k, params.f),
            "{params}"
        );
    }
}

#[test]
fn every_kind_tolerates_exactly_f_crashes() {
    let params = Params::new(2, 1, 4).unwrap();
    for kind in EmulationKind::ALL {
        // Crash one server early in the run.
        let plan = CrashPlan::none().crash_at(3, ServerId::new(params.n - 1));
        let report = Scenario::new(params)
            .emulation(kind)
            .workload(WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true,
            })
            .crash_plan(plan)
            .check(ConsistencyCheck::WsRegular)
            .seed(5)
            .run()
            .expect("an f-tolerant emulation must survive f crashes");
        assert!(report.is_consistent(), "{kind}");
        assert_eq!(report.completed_ops, 2 * params.k * 2);
    }
}
