//! `sim_fair` and `sim_adversary`: the simulator driven through
//! `Scenario::run`, single-threaded, `Full` recording, no check.
//!
//! The two share the generator and the constructions and differ only in the
//! scheduler, which is the point: under the fair scheduler the pending set
//! stays tiny and time goes to node transitions, history recording and
//! engine bookkeeping; under the Cover/Silence adversaries withheld
//! operations pile up and the scheduler's pick rescans them every step.

use crate::harness::{Ctx, Layers, Repeat, Verified, Workload};
use crate::trace::{Agg, Tracer};
use crate::wrappers::{CountingBlocks, TimingScheduler};
use regemu_adversary::strategy::{CoverWrites, SilenceServers};
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{
    AdversarialScheduler, ClientId, CrashPlan, RecordingMode, Scheduler, Simulation,
};
use regemu_workloads::{
    drive, ConsistencyCheck, Issuer, RunReport, Scenario, SchedulerSpec, WorkloadSpec,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Same budget `Scenario` defaults to, so `drive` runs the identical run.
const MAX_STEPS_PER_OP: u64 = 100_000;

/// Operations per case at divisor 1. Pinned on the 2-core reference box so
/// one repeat takes about a second and `R` is about nine in a 10 s run.
const FAIR_TOTAL: usize = 24_000;
const FAIR_WIDE_TOTAL: usize = 6_000;
const ADVERSARY_SPACE_OPTIMAL_TOTAL: usize = 1_700;
const ADVERSARY_REGISTER_BANK_TOTAL: usize = 640;
const ADVERSARY_ABD_TOTAL: usize = 2_000;
/// Each adversarial row runs this many times per repeat, with scenario seeds
/// `S`, `S + 1`, …: the cost of a withheld pile-up is quadratic in how many
/// writes the seed happens to draw, and averaging over sub-seeds keeps the
/// workload's speed a property of the code, not of the seed.
const ADVERSARY_SUB_SEEDS: u64 = 2;

#[derive(Clone, Copy, Debug)]
struct SimCase {
    kind: EmulationKind,
    params: Params,
    total: usize,
    scheduler: SchedulerSpec,
    /// Added to the run's seed to give this case's scenario seed.
    sub_seed: u64,
}

impl SimCase {
    fn label(&self) -> String {
        format!(
            "{}/({},{},{})/{}/seed+{}",
            self.kind, self.params.k, self.params.f, self.params.n, self.scheduler, self.sub_seed
        )
    }

    /// High-level operations of the case at count divisor `div`.
    fn total(&self, div: usize) -> usize {
        (self.total / div).max(8)
    }

    fn workload(&self, div: usize) -> WorkloadSpec {
        WorkloadSpec::RandomMixed {
            readers: 2,
            total: self.total(div),
            write_percent: 50,
        }
    }

    fn scenario(&self, seed: u64, div: usize) -> Scenario {
        Scenario::new(self.params)
            .emulation(self.kind)
            .workload(self.workload(div))
            .scheduler(self.scheduler)
            .recording(RecordingMode::Full)
            .check(ConsistencyCheck::None)
            .seed(seed + self.sub_seed)
    }

    /// The per-layer metrics `(sim_ops_per_s, lowlevel_per_op)` this case
    /// feeds: the four `sim_fair` cases at (4,1,5), one per construction.
    fn core_metrics(&self) -> Option<(&'static str, &'static str)> {
        if self.scheduler != SchedulerSpec::Fair || self.params.k != 4 {
            return None;
        }
        match self.kind {
            EmulationKind::AbdMaxRegister => Some((
                "core.abd_max_register.sim_ops_per_s",
                "core.abd_max_register.lowlevel_per_op",
            )),
            EmulationKind::AbdCas => {
                Some(("core.abd_cas.sim_ops_per_s", "core.abd_cas.lowlevel_per_op"))
            }
            EmulationKind::SpaceOptimal => Some((
                "core.space_optimal.sim_ops_per_s",
                "core.space_optimal.lowlevel_per_op",
            )),
            EmulationKind::RegisterBank => Some((
                "core.register_bank.sim_ops_per_s",
                "core.register_bank.lowlevel_per_op",
            )),
            _ => None,
        }
    }
}

fn params(k: usize, f: usize, n: usize) -> Params {
    Params::new(k, f, n).expect("benchmark parameter points are feasible")
}

fn cases(adversary: bool) -> Vec<SimCase> {
    let point = params(4, 1, 5);
    if !adversary {
        let mut cases: Vec<SimCase> = EmulationKind::ALL
            .into_iter()
            .map(|kind| SimCase {
                kind,
                params: point,
                total: FAIR_TOTAL,
                scheduler: SchedulerSpec::Fair,
                sub_seed: 0,
            })
            .collect();
        // A wider point: more servers and registers per operation, so the
        // recording and the per-op fan-out weigh more than at (4,1,5).
        cases.push(SimCase {
            kind: EmulationKind::SpaceOptimal,
            params: params(16, 2, 7),
            total: FAIR_WIDE_TOTAL,
            scheduler: SchedulerSpec::Fair,
            sub_seed: 0,
        });
        return cases;
    }
    let mut cases = Vec::new();
    for scheduler in [
        SchedulerSpec::CoverAdversary,
        SchedulerSpec::SilenceAdversary,
    ] {
        for (kind, total) in [
            (EmulationKind::SpaceOptimal, ADVERSARY_SPACE_OPTIMAL_TOTAL),
            (EmulationKind::RegisterBank, ADVERSARY_REGISTER_BANK_TOTAL),
            // In-workload control: max-registers leave nothing withheld to
            // rescan, so this row stays at fair speed.
            (EmulationKind::AbdMaxRegister, ADVERSARY_ABD_TOTAL),
        ] {
            for sub_seed in 0..ADVERSARY_SUB_SEEDS {
                cases.push(SimCase {
                    kind,
                    params: point,
                    total,
                    scheduler,
                    sub_seed,
                });
            }
        }
    }
    cases
}

/// `sim_fair` (`ADVERSARY = false`) and `sim_adversary` (`true`).
pub struct Sim<const ADVERSARY: bool> {
    seed: u64,
    cases: Vec<SimCase>,
}

/// Folds one finished case into the repeat: gates, counts, exact counters.
fn account(repeat: &mut Repeat, case: &SimCase, div: usize, outcome: Result<&RunReport, String>) {
    let total = case.total(div) as u64;
    repeat.attempted += total;
    let label = case.label();
    match outcome {
        Ok(report) => {
            let completed = report.completed_ops as u64;
            repeat.ops += completed;
            repeat.events += report.metrics.low_level_triggers + report.metrics.low_level_responses;
            if !report.is_consistent() || completed != total {
                repeat.failed += (total - completed.min(total)).max(1);
                repeat.failures.push(format!(
                    "{label} seed-derived run: {completed} of {total} ops, violation {:?}",
                    report.check_violation
                ));
            }
            for (what, count) in [
                ("completed", completed),
                ("triggers", report.metrics.low_level_triggers),
                ("responses", report.metrics.low_level_responses),
                ("peak_pending", report.metrics.peak_pending as u64),
            ] {
                repeat.exact.push((format!("{label}.{what}"), count));
            }
        }
        Err(error) => {
            repeat.failed += total;
            repeat.failures.push(format!("{label}: {error}"));
        }
    }
}

impl<const ADVERSARY: bool> Sim<ADVERSARY> {
    /// The scheduler `SchedulerSpec::build` would build, with the block
    /// strategy wrapped so its calls are counted.
    fn traced_scheduler(&self, case: &SimCase, calls: &Rc<Cell<u64>>) -> Box<dyn Scheduler> {
        let Params { n, f, .. } = case.params;
        let seed = self.seed + case.sub_seed;
        match case.scheduler {
            SchedulerSpec::CoverAdversary => Box::new(AdversarialScheduler::new(
                seed,
                Box::new(CountingBlocks {
                    inner: CoverWrites::highest(n, f),
                    calls: Rc::clone(calls),
                }),
            )),
            SchedulerSpec::SilenceAdversary => Box::new(AdversarialScheduler::new(
                seed,
                Box::new(CountingBlocks {
                    inner: SilenceServers::highest(n, f),
                    calls: Rc::clone(calls),
                }),
            )),
            other => other.build(seed, CrashPlan::none(), case.params),
        }
    }
}

impl<const ADVERSARY: bool> Workload for Sim<ADVERSARY> {
    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        Ok(Sim {
            seed: ctx.seed,
            cases: cases(ADVERSARY),
        })
    }

    fn repeat(&mut self, div: usize) -> Result<Repeat, String> {
        let mut repeat = Repeat::default();
        for case in &self.cases {
            let scenario = case.scenario(self.seed, div);
            let started = Instant::now();
            let outcome = scenario.run();
            let wall = started.elapsed();
            repeat.wall += wall;
            if let (Some((sim_ops_per_s, _)), Ok(report)) = (case.core_metrics(), &outcome) {
                repeat.splits.push((
                    sim_ops_per_s,
                    report.completed_ops as f64 / wall.as_secs_f64(),
                ));
            }
            account(
                &mut repeat,
                case,
                div,
                outcome.as_ref().map_err(ToString::to_string),
            );
        }
        Ok(repeat)
    }

    fn verify(&mut self, _div: usize) -> Result<Verified, String> {
        // Every gate of the simulator workloads is checked per repeat.
        Ok(Verified::default())
    }

    fn traced(
        &mut self,
        div: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Repeat, String> {
        // The cost of one `blocks` call, probed before the traced repeat so
        // the trace can turn the exact call counts into time.
        let blocks_ns = if ADVERSARY {
            self.blocks_probe(div)?
        } else {
            0.0
        };
        let mut repeat = Repeat::default();
        let mut steps = Agg::default();
        let (mut calls, mut adversarial_steps) = (0u64, 0u64);
        let (mut bank_calls, mut bank_steps) = (0u64, 0u64);
        let mut peak_pending = 0usize;
        for case in &self.cases {
            let label = case.label();
            let emulation = case.kind.build(case.params);
            let workload = case
                .workload(div)
                .instantiate(case.params.k, self.seed + case.sub_seed);
            let blocks_calls = Rc::new(Cell::new(0u64));
            let mut scheduler = TimingScheduler {
                inner: self.traced_scheduler(case, &blocks_calls),
                steps: Agg::default(),
            };
            let (outcome, wall) = tracer.span("workloads.drive", &label, |tracer| {
                let outcome = drive(
                    emulation.as_ref(),
                    &workload,
                    &mut scheduler,
                    ConsistencyCheck::None,
                    MAX_STEPS_PER_OP,
                    false,
                );
                let step = tracer.aggregate("fpsm.sched_step", &label, None, scheduler.steps);
                if blocks_calls.get() > 0 {
                    let estimate = Agg {
                        count: blocks_calls.get(),
                        total_ns: (blocks_ns * blocks_calls.get() as f64) as u64,
                        max_ns: blocks_ns as u64,
                    };
                    tracer.aggregate("adversary.blocks", &label, Some(step), estimate);
                }
                outcome
            });
            repeat.wall += wall;
            steps.count += scheduler.steps.count;
            steps.total_ns += scheduler.steps.total_ns;
            if blocks_calls.get() > 0 {
                calls += blocks_calls.get();
                adversarial_steps += scheduler.steps.count;
                if case.kind == EmulationKind::RegisterBank {
                    bank_calls += blocks_calls.get();
                    bank_steps += scheduler.steps.count;
                }
            }
            if let Ok(report) = &outcome {
                peak_pending = peak_pending.max(report.metrics.peak_pending);
                if let Some((_, lowlevel_per_op)) = case.core_metrics() {
                    layers.set(
                        lowlevel_per_op,
                        report.metrics.low_level_triggers as f64 / report.completed_ops as f64,
                    );
                }
            }
            account(
                &mut repeat,
                case,
                div,
                outcome.as_ref().map_err(ToString::to_string),
            );
        }
        if !ADVERSARY && calls > 0 {
            return Err("the blocks wrapper was invoked on sim_fair".to_string());
        }

        layers.set("fpsm.steps", steps.count as f64);
        layers.set("fpsm.sched_step_ns", steps.mean_ns());
        layers.set("fpsm.peak_pending", peak_pending as f64);
        layers.set(
            "workloads.engine_self_ns_per_step",
            (repeat.wall.as_nanos() as u64).saturating_sub(steps.total_ns) as f64
                / steps.count as f64,
        );
        if adversarial_steps > 0 {
            layers.set(
                "adversary.blocks_calls_per_step",
                calls as f64 / adversarial_steps as f64,
            );
            layers.set(
                "adversary.register_bank.blocks_calls_per_step",
                bank_calls as f64 / bank_steps as f64,
            );
            layers.set("adversary.blocks_ns", blocks_ns);
        }

        // Probes, outside the traced repeat.
        let (invoke, deliver) = self.replay_probe(div)?;
        layers.set("fpsm.invoke_ns", invoke.mean_ns());
        layers.set("fpsm.deliver_ns", deliver.mean_ns());
        layers.set(
            "fpsm.sched_pick_ns",
            (steps.mean_ns() - deliver.mean_ns()).max(0.0),
        );
        if !ADVERSARY {
            self.recording_and_telemetry_probes(div, layers)?;
        }
        Ok(repeat)
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

/// Shrinks the probes relative to the repeat: they time single calls, so a
/// quarter of the operations gives the same means.
const PROBE_DIV: usize = 4;

impl<const ADVERSARY: bool> Sim<ADVERSARY> {
    /// `Simulation::invoke` and `Simulation::deliver` timed one by one in a
    /// bench-owned oldest-first replay of each (4,1,5) case's workload on
    /// `Emulation::build_simulation()`: the node transitions and history
    /// recording with no scheduler and no engine around them.
    fn replay_probe(&self, div: usize) -> Result<(Agg, Agg), String> {
        let (mut invoke, mut deliver) = (Agg::default(), Agg::default());
        for case in self.cases.iter().filter(|c| c.params.k == 4) {
            // Both adversaries run the same constructions; probe each once.
            if case.scheduler == SchedulerSpec::SilenceAdversary || case.sub_seed != 0 {
                continue;
            }
            let emulation = case.kind.build(case.params);
            let workload = case
                .workload(div * PROBE_DIV)
                .instantiate(case.params.k, self.seed);
            let mut sim: Simulation = emulation.build_simulation();
            let mut writers: Vec<Option<ClientId>> = vec![None; case.params.k];
            let mut readers: Vec<Option<ClientId>> = Vec::new();
            for step in workload.ops() {
                let client = match step.issuer {
                    Issuer::Writer(i) => {
                        let slot = i % case.params.k;
                        *writers[slot].get_or_insert_with(|| {
                            sim.register_client(emulation.writer_protocol(slot))
                        })
                    }
                    Issuer::Reader(i) => {
                        if i >= readers.len() {
                            readers.resize(i + 1, None);
                        }
                        *readers[i]
                            .get_or_insert_with(|| sim.register_client(emulation.reader_protocol()))
                    }
                };
                let started = Instant::now();
                let high = sim
                    .invoke(client, step.op)
                    .map_err(|e| format!("replay probe {}: {e}", case.label()))?;
                invoke.add(started.elapsed());
                while sim.result_of(high).is_none() {
                    let oldest = sim
                        .deliverable_ops()
                        .next()
                        .map(|p| p.op_id)
                        .ok_or_else(|| format!("replay probe {}: stuck", case.label()))?;
                    let started = Instant::now();
                    sim.deliver(oldest)
                        .map_err(|e| format!("replay probe {}: {e}", case.label()))?;
                    deliver.add(started.elapsed());
                }
            }
        }
        Ok((invoke, deliver))
    }

    /// Mean nanoseconds of one `BlockStrategy::blocks` call: the covering
    /// strategy asked about every pending operation of a register-bank run
    /// stopped halfway, a few million times in a tight loop. (Inside the
    /// scheduler a call is too short to time, so the counting wrapper only
    /// counts.)
    fn blocks_probe(&self, div: usize) -> Result<f64, String> {
        const CALLS: usize = 4_000_000;
        let case = self
            .cases
            .iter()
            .find(|c| c.kind == EmulationKind::RegisterBank)
            .ok_or("sim_adversary has a register-bank row")?;
        let mut run = case.scenario(self.seed, div).build();
        while run.completed_ops() < case.total(div) / 2 {
            if !run.step().map_err(|e| format!("blocks probe: {e}"))? {
                break;
            }
        }
        let pending = run.sim().pending_snapshot();
        if pending.is_empty() {
            return Err("blocks probe: the adversarial run withheld nothing".to_string());
        }
        let mut strategy = CoverWrites::highest(case.params.n, case.params.f);
        let mut blocked = 0usize;
        let started = Instant::now();
        for op in pending.iter().cycle().take(CALLS) {
            blocked += usize::from(regemu_fpsm::BlockStrategy::blocks(
                &mut strategy,
                run.sim(),
                std::hint::black_box(op),
            ));
        }
        let elapsed = started.elapsed();
        std::hint::black_box(blocked);
        Ok(elapsed.as_nanos() as f64 / CALLS as f64)
    }

    /// `Full` ÷ `Digest` recording time on the (16,2,7) case, and the cost of
    /// `regemu_obs::set_enabled(true)` on the space-optimal (4,1,5) case;
    /// each the ratio of medians over three alternating pairs.
    fn recording_and_telemetry_probes(
        &self,
        div: usize,
        layers: &mut Layers,
    ) -> Result<(), String> {
        const PAIRS: usize = 3;
        let timed = |scenario: &Scenario| -> Result<f64, String> {
            let started = Instant::now();
            scenario.run().map_err(|e| format!("probe run: {e}"))?;
            Ok(started.elapsed().as_secs_f64())
        };

        let wide = self
            .cases
            .iter()
            .find(|c| c.params.k == 16)
            .expect("sim_fair has the (16,2,7) case")
            .scenario(self.seed, div);
        let digest = wide.clone().recording(RecordingMode::Digest);
        let (mut full_s, mut digest_s) = (Vec::new(), Vec::new());
        for _ in 0..PAIRS {
            full_s.push(timed(&wide)?);
            digest_s.push(timed(&digest)?);
        }
        layers.set(
            "fpsm.record_full_vs_digest_ratio",
            crate::stats::median(&full_s) / crate::stats::median(&digest_s),
        );

        let narrow = self
            .cases
            .iter()
            .find(|c| c.kind == EmulationKind::SpaceOptimal && c.params.k == 4)
            .expect("sim_fair has the space-optimal (4,1,5) case")
            .scenario(self.seed, div);
        let was_enabled = regemu_obs::enabled();
        let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
        for _ in 0..PAIRS {
            regemu_obs::set_enabled(false);
            off_s.push(timed(&narrow)?);
            regemu_obs::set_enabled(true);
            on_s.push(timed(&narrow)?);
        }
        layers.set(
            "obs.enabled_overhead_pct",
            (crate::stats::median(&on_s) / crate::stats::median(&off_s) - 1.0) * 100.0,
        );
        // The registry now holds what the enabled runs published.
        const SNAPSHOTS: u32 = 200;
        let started = Instant::now();
        for _ in 0..SNAPSHOTS {
            std::hint::black_box(regemu_obs::global().snapshot().to_json());
        }
        layers.set(
            "obs.snapshot_us",
            started.elapsed().as_secs_f64() * 1e6 / f64::from(SNAPSHOTS),
        );
        regemu_obs::set_enabled(was_enabled);
        Ok(())
    }
}
