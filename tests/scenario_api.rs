//! Scenario-API smoke: a tiny grid across *all* schedulers × *all*
//! emulations through the facade, plus the sweep axes and the incremental
//! run surface. This is the test the CI `scenario-smoke` job runs.
//!
//! The final block of tests was folded in from the removed
//! `run_workload`/`RunConfig` shim suite: the behavioural guarantees those
//! tests pinned (crash survival, atomic ABD, reader scaling, consumption =
//! Theorem 3) are now stated through `Scenario`, the single entry point.

use regemu::prelude::*;

#[test]
fn every_scheduler_drives_every_emulation_through_the_facade() {
    let params = Params::new(2, 1, 4).unwrap();
    for scheduler in SchedulerSpec::ALL {
        for kind in EmulationKind::ALL.into_iter().chain(EmulationKind::ATOMIC) {
            let report = Scenario::new(params)
                .emulation(kind)
                .workload(WorkloadSpec::WriteSequential {
                    rounds: 1,
                    read_after_each: true,
                })
                .scheduler(scheduler)
                .check(ConsistencyCheck::WsRegular)
                .seed(31)
                .run()
                .unwrap_or_else(|e| panic!("{kind} under {scheduler}: {e}"));
            assert!(
                report.is_consistent(),
                "{kind} under {scheduler}: {:?}",
                report.check_violation
            );
            assert_eq!(report.scheduler, scheduler.name());
            assert_eq!(report.completed_ops, 2 * params.k);
        }
    }
}

#[test]
fn sweeps_cross_scheduler_and_crash_plan_axes_deterministically() {
    let mut config = SweepConfig::quick();
    config.grid.truncate(2);
    config.workloads.truncate(1);
    config.schedulers = SchedulerSpec::ALL.to_vec();
    config.crash_plans = CrashPlanSpec::ALL.to_vec();
    config.threads = 1;
    let single = run_sweep(&config);
    assert_eq!(single.len(), config.case_count());
    assert_eq!(
        single.len(),
        2 * 4 * SchedulerSpec::ALL.len() * CrashPlanSpec::ALL.len()
    );
    assert!(single.all_consistent(), "{:?}", single.failures().next());
    config.threads = 4;
    let multi = run_sweep(&config);
    assert_eq!(single.to_json(), multi.to_json());
    assert_eq!(single.to_csv(), multi.to_csv());
    // The new axes are part of the serialized identity of each case.
    assert!(multi
        .to_json()
        .contains("\"scheduler\": \"adversary-silence\""));
    assert!(multi.to_json().contains("\"crashes\": \"crash-f\""));
}

#[test]
fn scenario_run_exposes_the_incremental_surface() {
    let params = Params::new(2, 1, 4).unwrap();
    let scenario = Scenario::new(params)
        .workload(WorkloadSpec::ConcurrentReadWrite { rounds: 2 })
        .seed(5)
        .drain();
    let mut run = scenario.build();
    // Step until the first completion, inspect mid-run state.
    while run.completed_ops() == 0 {
        assert!(run.step().unwrap());
    }
    assert!(run.history().total_events() > 0);
    let mid = run.metrics();
    assert!(mid.low_level_triggers > 0);
    // Crash within the budget, then finish.
    run.crash_server(ServerId::new(params.n - 1)).unwrap();
    run.run().unwrap();
    let report = run.into_report();
    assert!(report.is_consistent(), "{:?}", report.check_violation);
    assert_eq!(report.completed_ops, 2 * params.k * 2);
}

#[test]
fn pending_snapshot_agrees_with_the_event_log_scan_mid_run() {
    let params = Params::new(2, 1, 4).unwrap();
    let mut run = Scenario::new(params).seed(3).build();
    run.step().unwrap();
    run.step().unwrap();
    let snapshot = run.sim().pending_snapshot();
    assert_eq!(snapshot.len(), run.sim().pending_count());
    let ids: Vec<OpId> = snapshot.iter().map(|p| p.op_id).collect();
    let from_log: Vec<OpId> = run.history().pending_low_level().into_iter().collect();
    assert_eq!(ids, from_log);
}

#[test]
fn runs_survive_f_crashes_from_the_plan() {
    let params = Params::new(2, 1, 4).unwrap();
    for kind in EmulationKind::ALL {
        let report = Scenario::new(params)
            .emulation(kind)
            .workload(WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true,
            })
            .crash_plan(CrashPlan::none().crash_at(5, ServerId::new(3)))
            .check(ConsistencyCheck::WsRegular)
            .seed(3)
            .run()
            .unwrap();
        assert!(
            report.is_consistent(),
            "{}: {:?}",
            report.emulation,
            report.check_violation
        );
    }
}

#[test]
fn atomic_abd_variant_is_linearizable_under_mixed_workloads() {
    let params = Params::new(2, 1, 3).unwrap();
    let workload = Workload::random_mixed(2, 2, 14, 0.5, 21);
    let report = Scenario::new(params)
        .emulation(EmulationKind::AbdMaxRegisterAtomic)
        .workload_steps(workload)
        .check(ConsistencyCheck::Atomic)
        .seed(23)
        .run()
        .unwrap();
    assert!(report.is_consistent(), "{:?}", report.check_violation);
}

#[test]
fn read_heavy_workloads_scale_readers_without_extra_space() {
    // Readers never write in the WS-Regular constructions, so piling on
    // readers does not change the resource consumption — the reason the
    // paper can state its bounds independently of the number of readers.
    let params = Params::new(2, 1, 4).unwrap();
    let scenario = Scenario::new(params).emulation(EmulationKind::SpaceOptimal);
    let a = scenario
        .clone()
        .workload(WorkloadSpec::ReadHeavy {
            writes: 2,
            reads_per_write: 1,
            readers: 1,
        })
        .seed(31)
        .run()
        .unwrap();
    let b = scenario
        .workload(WorkloadSpec::ReadHeavy {
            writes: 2,
            reads_per_write: 6,
            readers: 3,
        })
        .seed(32)
        .run()
        .unwrap();
    assert!(a.is_consistent() && b.is_consistent());
    assert_eq!(
        a.metrics.resource_consumption(),
        b.metrics.resource_consumption()
    );
    assert!(b.metrics.written.len() <= a.provisioned_objects);
    assert_eq!(b.completed_ops, 2 + 2 * 6);
}

#[test]
fn resource_consumption_matches_the_theorem_3_formula() {
    let params = Params::new(3, 1, 5).unwrap();
    let report = Scenario::new(params)
        .emulation(EmulationKind::SpaceOptimal)
        .workload(WorkloadSpec::WriteSequential {
            rounds: 1,
            read_after_each: false,
        })
        .run()
        .unwrap();
    // The writers only touch their own register sets plus whatever the
    // collect reads, which is the full layout: consumption equals the
    // provisioned count (= Theorem 3 formula).
    assert_eq!(
        report.metrics.resource_consumption(),
        report.provisioned_objects
    );
    assert_eq!(report.provisioned_objects, register_upper_bound(params));
}

/// Scaling smoke for the `scenario-smoke` CI job: operations stranded on a
/// crashed server pile up for the whole run, and no scheduler step may cost
/// more for it. 4× the operations taking more than 12× the time means a pick
/// is walking the pile again (flat is 4–5×, a walk per step about 28×). A
/// ratio of two timings on the same box, so the box's speed cancels out;
/// `Digest` recording keeps the event log's allocations out of it.
#[test]
#[ignore = "timing; run with --release --ignored"]
fn the_withheld_pile_costs_the_fair_scheduler_nothing_per_step() {
    let best_of_three = |ops: usize| {
        let scenario = Scenario::new(Params::new(4, 1, 5).unwrap())
            .emulation(EmulationKind::RegisterBank)
            .workload(WorkloadSpec::RandomMixed {
                readers: 2,
                total: ops,
                write_percent: 50,
            })
            .scheduler(SchedulerSpec::Fair)
            .crashes(CrashPlanSpec::CrashF)
            .recording(RecordingModeSpec::Digest)
            .check(ConsistencyCheck::None)
            .seed(7);
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let report = scenario.run().unwrap();
                assert_eq!(report.completed_ops, ops);
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let (small, large) = (best_of_three(2_000), best_of_three(8_000));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 12.0,
        "2 k ops took {small:?}, 8 k ops {large:?}: ratio {ratio:.1}"
    );
}
