//! `check_heavy`: long checked runs, where `regemu-spec` does most of the
//! work.
//!
//! Two constructions, each checked twice: offline over a `Full` recording
//! and online over a `Ring(1024)` window. Offline atomicity is superlinear in
//! the run length while simulating the run is not, so the offline `Atomic`
//! row is dominated by the checker; the streaming rows bypass the offline
//! checkers entirely.

use crate::harness::{Ctx, Layers, Repeat, Verified, Workload};
use crate::trace::Tracer;
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{RecordingMode, RunMetrics};
use regemu_spec::{
    check_linearizable, check_ws_regular, Condition, HighHistory, SequentialSpec, StreamingChecker,
};
use regemu_workloads::{CheckCoverage, ConsistencyCheck, Scenario, SchedulerSpec, WorkloadSpec};
use std::time::Instant;

/// Operations per row at divisor 1 (about 0.9 s per repeat of four rows on
/// the reference box, two thirds of it in the offline `Atomic` check).
const TOTAL: usize = 16_000;
const RING: RecordingMode = RecordingMode::Ring(1024);

/// The two checked constructions: Algorithm 2 promises WS-Regularity, ABD
/// with read write-back promises atomicity.
const CHECKED: [(EmulationKind, ConsistencyCheck); 2] = [
    (EmulationKind::SpaceOptimal, ConsistencyCheck::WsRegular),
    (
        EmulationKind::AbdMaxRegisterAtomic,
        ConsistencyCheck::Atomic,
    ),
];

pub struct CheckHeavy {
    seed: u64,
}

fn total(div: usize) -> usize {
    (TOTAL / div).max(8)
}

fn scenario(kind: EmulationKind, seed: u64, div: usize) -> Scenario {
    Scenario::new(Params::new(4, 1, 5).expect("(4,1,5) is feasible"))
        .emulation(kind)
        .workload(WorkloadSpec::RandomMixed {
            readers: 2,
            total: total(div),
            write_percent: 50,
        })
        .scheduler(SchedulerSpec::Fair)
        .seed(seed)
}

fn label(kind: EmulationKind, check: ConsistencyCheck, mode: RecordingMode) -> String {
    format!("{kind}/{check}/{}", mode.label())
}

/// Counts one checked row into the repeat. `verdict_ok` is the gate on the
/// verdict itself; the op count is gated here.
fn account(
    repeat: &mut Repeat,
    row: &str,
    div: usize,
    completed: u64,
    events: u64,
    verdict_ok: bool,
    why: &str,
) {
    let total = total(div) as u64;
    repeat.attempted += total;
    repeat.ops += completed;
    repeat.events += events;
    if !verdict_ok || completed != total {
        repeat.failed += (total - completed.min(total)).max(1);
        repeat
            .failures
            .push(format!("{row}: {completed} of {total} ops verified, {why}"));
    }
    repeat.exact.push((format!("{row}.completed"), completed));
    repeat.exact.push((format!("{row}.events"), events));
}

fn events_of(metrics: &RunMetrics) -> u64 {
    metrics.low_level_triggers + metrics.low_level_responses
}

impl Workload for CheckHeavy {
    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        Ok(CheckHeavy { seed: ctx.seed })
    }

    fn repeat(&mut self, div: usize) -> Result<Repeat, String> {
        let mut repeat = Repeat::default();
        for (kind, check) in CHECKED {
            let base = scenario(kind, self.seed, div).check(check);
            let mut verdicts = Vec::new();
            for mode in [RecordingMode::Full, RING] {
                let row = label(kind, check, mode);
                let started = Instant::now();
                let outcome = base.clone().recording(mode).run();
                repeat.wall += started.elapsed();
                match outcome {
                    Ok(report) => {
                        let ok = report.is_consistent()
                            && report.check_coverage == CheckCoverage::Complete;
                        let why = format!(
                            "violation {:?}, coverage {}",
                            report.check_violation, report.check_coverage
                        );
                        account(
                            &mut repeat,
                            &row,
                            div,
                            report.completed_ops as u64,
                            events_of(&report.metrics),
                            ok,
                            &why,
                        );
                        verdicts.push(report.is_consistent());
                    }
                    Err(error) => account(&mut repeat, &row, div, 0, 0, false, &error.to_string()),
                }
            }
            if verdicts.len() == 2 && verdicts[0] != verdicts[1] {
                repeat.failed += 1;
                repeat.failures.push(format!(
                    "{kind}/{check}: offline and streaming verdicts disagree"
                ));
            }
        }
        Ok(repeat)
    }

    fn verify(&mut self, _div: usize) -> Result<Verified, String> {
        // Verdict agreement and coverage are gated in every repeat.
        Ok(Verified::default())
    }

    fn traced(
        &mut self,
        div: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Repeat, String> {
        let mut repeat = Repeat::default();
        let spec = SequentialSpec::register();
        let mut from_run_us = Vec::new();
        let mut window_peak = 0usize;
        for (kind, check) in CHECKED {
            let unchecked = scenario(kind, self.seed, div)
                .check(ConsistencyCheck::None)
                .recording(RecordingMode::Full);
            let simulate = |tracer: &mut Tracer, row: &str| {
                tracer.span("workloads.scenario_run", row, |_| {
                    let mut run = unchecked.build();
                    run.run().map(|_| ()).map(|()| run)
                })
            };

            // The offline row: simulate, extract the schedule, check it.
            let row = label(kind, check, RecordingMode::Full);
            let (run, simulated) = simulate(tracer, &row);
            let run = run.map_err(|e| format!("{row}: {e}"))?;
            let (history, extracted) = tracer.span("spec.from_run", &row, |_| {
                HighHistory::from_run(run.history())
            });
            from_run_us.push(extracted.as_secs_f64() * 1e6);
            let (violation, checked) = tracer.span("spec.offline_check", &row, |_| match check {
                ConsistencyCheck::Atomic => check_linearizable(&history, &spec).err(),
                _ => check_ws_regular(&history, &spec).err(),
            });
            repeat.wall += simulated + extracted + checked;
            let completed = run.completed_ops() as u64;
            let events = events_of(&run.metrics());
            let offline_ok = violation.is_none();
            account(
                &mut repeat,
                &row,
                div,
                completed,
                events,
                offline_ok,
                &format!("violation {violation:?}"),
            );
            layers.set(
                match check {
                    ConsistencyCheck::Atomic => "spec.offline_atomic_ns_per_op",
                    _ => "spec.offline_ws_regular_ns_per_op",
                },
                checked.as_nanos() as f64 / completed as f64,
            );
            let spec_ns = tracer.self_ns_by_prefix_and_label("spec.", &row);
            eprintln!(
                "  {row}: spec.* self time is {:.1}% of the row",
                spec_ns as f64 * 100.0 / tracer.root_total_ns_by_label(&row) as f64
            );

            // The streaming row: simulate again, feed the online checker
            // from the recorded event stream.
            let row = label(kind, check, RING);
            let (run, simulated) = simulate(tracer, &row);
            let run = run.map_err(|e| format!("{row}: {e}"))?;
            let condition = match check {
                ConsistencyCheck::Atomic => Condition::Atomicity,
                _ => Condition::WsRegularity,
            };
            let ((outcome, observed), streamed) = tracer.span("spec.stream_observe", &row, |_| {
                let mut checker = StreamingChecker::new(condition, spec);
                let mut observed = 0u64;
                for event in run.history().events() {
                    checker.observe(event);
                    observed += 1;
                }
                (checker.into_outcome(), observed)
            });
            window_peak = window_peak.max(outcome.peak_window);
            repeat.wall += simulated + streamed;
            account(
                &mut repeat,
                &row,
                div,
                run.completed_ops() as u64,
                events_of(&run.metrics()),
                outcome.is_consistent(),
                &format!(
                    "violation {:?}, complete {}",
                    outcome.violation, outcome.complete
                ),
            );
            if outcome.violation.is_none() != offline_ok {
                repeat.failed += 1;
                repeat.failures.push(format!(
                    "{kind}/{check}: offline and streaming verdicts disagree"
                ));
            }
            layers.set(
                match check {
                    ConsistencyCheck::Atomic => "spec.stream_atomic_ns_per_event",
                    _ => "spec.stream_ws_regular_ns_per_event",
                },
                streamed.as_nanos() as f64 / observed as f64,
            );
        }
        layers.set("spec.from_run_us", crate::stats::median(&from_run_us));
        layers.set("spec.stream_window_peak", window_peak as f64);
        Ok(repeat)
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}
