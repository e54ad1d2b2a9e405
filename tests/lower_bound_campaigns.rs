//! Integration test: the executable `Ad_i` adversary reproduces the covering
//! behaviour behind the paper's lower bounds (Lemma 1, Theorems 1, 6 and 8)
//! on every register-based emulation.

use regemu::prelude::*;
use regemu_adversary::LowerBoundCampaign;

#[test]
fn lemma_1_coverage_growth_holds_for_every_register_based_emulation() {
    for params in [
        Params::new(2, 1, 3).unwrap(),
        Params::new(3, 1, 4).unwrap(),
        Params::new(4, 1, 6).unwrap(),
        Params::new(2, 2, 5).unwrap(),
        Params::new(3, 2, 8).unwrap(),
    ] {
        for emulation in
            [EmulationKind::SpaceOptimal, EmulationKind::RegisterBank].map(|k| k.build(params))
        {
            let report = LowerBoundCampaign::new(emulation.as_ref())
                .run(emulation.as_ref())
                .unwrap_or_else(|e| panic!("{} at {params}: {e}", emulation.name()));
            assert!(
                report.satisfies_coverage_growth(),
                "{} at {params}: coverage did not grow by f per write: {report:?}",
                emulation.name()
            );
            assert!(
                report.coverage_always_avoids_protected(),
                "{} at {params}: coverage touched the protected set",
                emulation.name()
            );
            assert!(report.final_covered >= params.k * params.f);
        }
    }
}

#[test]
fn theorem_1_resource_consumption_is_at_least_the_lower_bound() {
    for params in [Params::new(3, 1, 4).unwrap(), Params::new(5, 2, 6).unwrap()] {
        let emulation = SpaceOptimalEmulation::new(params);
        let report = LowerBoundCampaign::new(&emulation).run(&emulation).unwrap();
        assert!(
            report.final_resource_consumption >= register_lower_bound(params),
            "{params}: measured {} < lower bound {}",
            report.final_resource_consumption,
            register_lower_bound(params)
        );
        assert!(report.final_resource_consumption <= register_upper_bound(params));
    }
}

#[test]
fn theorem_6_per_server_occupancy_reaches_k_at_minimal_n() {
    for (k, f) in [(2usize, 1usize), (3, 1), (4, 1), (2, 2)] {
        let params = Params::new(k, f, 2 * f + 1).unwrap();
        let emulation = SpaceOptimalEmulation::new(params);
        let report = LowerBoundCampaign::new(&emulation).run(&emulation).unwrap();
        assert_eq!(
            report.max_covered_on_one_server(),
            k,
            "at n = 2f+1 the adversary pins k covered registers on one server (k={k}, f={f})"
        );
        // And the layout indeed stores k registers on every server.
        let occupancy = emulation.layout().occupancy();
        assert!(occupancy.values().all(|c| *c == k));
    }
}

#[test]
fn theorem_8_resources_grow_while_point_contention_stays_one() {
    let params = Params::new(6, 1, 3).unwrap();
    let emulation = SpaceOptimalEmulation::new(params);
    let report = LowerBoundCampaign::new(&emulation).run(&emulation).unwrap();
    assert!(report.is_write_sequential_evidence());
    // Coverage (and hence the number of registers that must exist) grows
    // linearly in the number of writes even though no two operations ever
    // overlap — no function of point contention can bound it.
    let first = report.iterations.first().unwrap().covered;
    let last = report.iterations.last().unwrap().covered;
    assert!(last >= first + (params.k - 1) * params.f);
}

#[test]
fn theorem_5_partition_argument() {
    use regemu_adversary::demonstrate_partition;
    // n = 2f: violation; n = 2f + 1: safe. (Also covered by unit tests; here
    // we assert the checker integration end-to-end.)
    let bad = demonstrate_partition(4, 2).unwrap();
    assert!(bad.is_violation());
    assert!(check_ws_safe(&bad.history, &SequentialSpec::register()).is_err());

    let good = demonstrate_partition(5, 2).unwrap();
    assert!(!good.is_violation());
    assert!(check_ws_safe(&good.history, &SequentialSpec::register()).is_ok());
}

#[test]
fn adversary_cannot_grow_coverage_of_rmw_based_emulations() {
    // The other side of the separation: against max-register/CAS emulations
    // the same adversary is powerless — space stays at 2f + 1.
    let params = Params::new(5, 1, 3).unwrap();
    for emulation in [EmulationKind::AbdMaxRegister, EmulationKind::AbdCas].map(|k| k.build(params))
    {
        let report = LowerBoundCampaign::new(emulation.as_ref())
            .run(emulation.as_ref())
            .unwrap();
        assert!(
            report.final_resource_consumption <= 2 * params.f + 1,
            "{}",
            emulation.name()
        );
        assert!(report.final_covered <= 2 * params.f + 1);
    }
}
