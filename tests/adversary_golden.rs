//! Golden scheduler traces: the full event history of runs under each of the
//! five schedulers is pinned byte-for-byte.
//!
//! `scenario_golden` pins `FairDriver` runs at a handful of points, and
//! `frontier_table.txt` pins aggregates, not histories — so nothing stopped a
//! change to a scheduler from silently picking different operations as long
//! as the peaks came out the same. This file pins the picks themselves: every
//! invoke / trigger / respond / return / crash of each run, with logical times
//! and ids, plus the end-of-run metrics. The runs drain, so the step that
//! finds nothing it is willing to deliver (and must draw nothing from the
//! RNG) is inside the pinned trace too.
//!
//! Two files, each recorded against schedulers that rescanned the whole
//! pending set on every step: `adversary_history.txt` (`CoverAdversary` and
//! `SilenceAdversary`) and `scheduler_history.txt` (fair, round-robin and
//! delayed, with and without the crash-`f` plan that strands operations on a
//! crashed server). Regenerate with
//! `REGEMU_REGEN_GOLDEN=1 cargo test --test adversary_golden` only after an
//! *intentional* semantic change (and say so in the PR).

use regemu::prelude::*;
use std::fmt::Write as _;

const ADVERSARY_GOLDEN: &str = "tests/golden/adversary_history.txt";
const SCHEDULER_GOLDEN: &str = "tests/golden/scheduler_history.txt";

const ADVERSARIES: [SchedulerSpec; 2] = [
    SchedulerSpec::CoverAdversary,
    SchedulerSpec::SilenceAdversary,
];
const PLAIN_SCHEDULERS: [SchedulerSpec; 3] = [
    SchedulerSpec::Fair,
    SchedulerSpec::RoundRobin,
    SchedulerSpec::Delayed,
];

/// One run of the matrix: `(scheduler, emulation, crash plan, seed)`.
type Case = (SchedulerSpec, EmulationKind, CrashPlanSpec, u64);

fn matrix(schedulers: &[SchedulerSpec]) -> Vec<Case> {
    let mut cases = Vec::new();
    for &scheduler in schedulers {
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

fn trace(schedulers: &[SchedulerSpec]) -> String {
    let params = Params::new(2, 1, 4).unwrap();
    let mut out = String::new();
    for (scheduler, emulation, crashes, seed) in matrix(schedulers) {
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

fn assert_matches_golden(trace: &str, path: &str) {
    if std::env::var_os("REGEMU_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(path, trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden trace missing; regenerate with REGEMU_REGEN_GOLDEN=1 cargo test --test adversary_golden",
    );
    assert!(
        trace == golden,
        "a run no longer reproduces its trace recorded in {path}\n\
         (first difference at byte {})",
        trace
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.len().min(golden.len())),
    );
}

#[test]
fn adversarial_traces_match_the_recorded_golden_file() {
    assert_matches_golden(&trace(&ADVERSARIES), ADVERSARY_GOLDEN);
}

#[test]
fn fair_round_robin_and_delayed_traces_match_the_recorded_golden_file() {
    assert_matches_golden(&trace(&PLAIN_SCHEDULERS), SCHEDULER_GOLDEN);
}

#[test]
fn the_golden_runs_actually_withhold_operations() {
    // A golden file of runs in which the adversary never had anything to
    // withhold would pin nothing about the adversarial pick.
    let trace = trace(&ADVERSARIES);
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

#[test]
fn the_crash_runs_actually_strand_operations() {
    // The pile a crashed server leaves behind is what a scheduler's kept
    // candidate list must step around; a golden file without it would not
    // pin that.
    let trace = trace(&PLAIN_SCHEDULERS);
    let stranded = trace
        .lines()
        .filter(|l| l.starts_with("metrics:"))
        .filter(|l| !l.contains(" pending=0 "))
        .count();
    assert_eq!(
        stranded, 12,
        "every crash-f run of the 24 strands operations"
    );
}
