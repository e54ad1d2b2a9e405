//! Golden adversarial traces: the full event history of `CoverAdversary` and
//! `SilenceAdversary` runs is pinned byte-for-byte.
//!
//! `scenario_golden` pins `FairDriver` runs only, and `frontier_table.txt`
//! pins aggregates, not histories — so nothing stopped a change to
//! `AdversarialScheduler` from silently picking different operations as long
//! as the peaks came out the same. This file pins the picks themselves: every
//! invoke / trigger / respond / return / crash of each run, with logical times
//! and ids, plus the end-of-run metrics. The runs drain, so the step that
//! finds nothing it is willing to deliver (and must draw nothing from the
//! RNG) is inside the pinned trace too.
//!
//! The file was recorded against the scheduler that rescans the whole pending
//! set on every step. Regenerate with
//! `REGEMU_REGEN_GOLDEN=1 cargo test --test adversary_golden` only after an
//! *intentional* semantic change (and say so in the PR).

use regemu::prelude::*;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/adversary_history.txt";

/// One run of the matrix: `(scheduler, emulation, crash plan, seed)`.
type Case = (SchedulerSpec, EmulationKind, CrashPlanSpec, u64);

fn matrix() -> Vec<Case> {
    let mut cases = Vec::new();
    for scheduler in [
        SchedulerSpec::CoverAdversary,
        SchedulerSpec::SilenceAdversary,
    ] {
        for emulation in [EmulationKind::SpaceOptimal, EmulationKind::RegisterBank] {
            for crashes in [CrashPlanSpec::None, CrashPlanSpec::CrashF] {
                for seed in [5, 19] {
                    cases.push((scheduler, emulation, crashes, seed));
                }
            }
        }
    }
    cases
}

/// Same renderer as `scenario_golden`: one line per event, then the metrics.
fn render(sim: &Simulation, header: &str, out: &mut String) {
    writeln!(out, "== {header} ==").unwrap();
    for event in sim.history().events() {
        writeln!(out, "{event}").unwrap();
    }
    let metrics = RunMetrics::capture(sim);
    writeln!(
        out,
        "metrics: consumption={} covered={} contention={} triggers={} responses={} \
         pending={} peak_covered={}",
        metrics.resource_consumption(),
        metrics.covered_count(),
        metrics.point_contention,
        metrics.low_level_triggers,
        metrics.low_level_responses,
        sim.pending_count(),
        sim.peak_covered_count(),
    )
    .unwrap();
}

fn adversary_trace() -> String {
    let params = Params::new(2, 1, 4).unwrap();
    let mut out = String::new();
    for (scheduler, emulation, crashes, seed) in matrix() {
        let header = format!("{emulation} {params} {scheduler} crashes={crashes} seed={seed}");
        let mut run = Scenario::new(params)
            .emulation(emulation)
            .workload(WorkloadSpec::RandomMixed {
                readers: 2,
                total: 16,
                write_percent: 50,
            })
            .scheduler(scheduler)
            .crashes(crashes)
            .check(ConsistencyCheck::None)
            .seed(seed)
            .drain()
            .build();
        run.run().unwrap_or_else(|e| panic!("{header}: {e}"));
        render(run.sim(), &header, &mut out);
    }
    out
}

#[test]
fn adversarial_traces_match_the_recorded_golden_file() {
    let trace = adversary_trace();
    if std::env::var_os("REGEMU_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden trace missing; regenerate with REGEMU_REGEN_GOLDEN=1 cargo test --test adversary_golden",
    );
    assert!(
        trace == golden,
        "an adversarial run no longer reproduces its recorded trace\n\
         (first difference at byte {})",
        trace
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.len().min(golden.len())),
    );
}

#[test]
fn the_golden_runs_actually_withhold_operations() {
    // A golden file of runs in which the adversary never had anything to
    // withhold would pin nothing about the adversarial pick.
    let trace = adversary_trace();
    let withheld = trace
        .lines()
        .filter(|l| l.starts_with("metrics:"))
        .filter(|l| !l.contains(" pending=0 "))
        .count();
    assert!(
        withheld >= 8,
        "only {withheld} of 16 runs end with withheld operations"
    );
}
