//! Coverage-guided scenario fuzzing with automatic failure shrinking.
//!
//! The paper's bounds are adversarial: the interesting bugs live in
//! schedules the hand-enumerated sweep grid never visits. This module
//! explores that space and triages what it finds:
//!
//! 1. **Record & replay** — every run can record its per-delivery scheduler
//!    decisions ([`regemu_fpsm::DecisionRecord`]); a recorded stream replays
//!    byte-identically through [`regemu_fpsm::FairDriver::replaying`]. The
//!    [`RecordedSchedule`] text format (`trace`) makes traces portable, so
//!    external model checkers can feed schedules in and repros out.
//! 2. **Coverage-guided exploration** — [`Fuzzer`] maintains a corpus of
//!    schedules. Each iteration derives a mutant via `mutate::mutate`
//!    (flip delivery decisions, splice prefixes, shift crash points,
//!    truncate the workload, reseed the fair tail), executes it, and admits
//!    it to the corpus only when its
//!    interleaving-coverage signature (an FNV-1a digest of the per-step
//!    delivery-order decisions) is new. Everything flows from one seed: the
//!    same corpus + seed produces a byte-identical [`FuzzReport`].
//! 3. **Automatic shrinking** — when a run fails its
//!    [`ConsistencyCheck`] (or wedges), [`shrink::shrink_failure`]
//!    delta-debugs the case — schedule prefix, crash plan, workload length,
//!    tail seed — to a minimal still-failing repro and emits a
//!    `FailureReport` with the replay command line and the trace file.
//!
//! The machinery is validated by a seeded-bug oracle suite
//! (`tests/fuzz_detects_bugs.rs`): for every [`regemu_core::FaultyKind`]
//! the fuzzer must find a failing schedule within a fixed budget, while the
//! clean constructions survive the same budget with zero failures.
//!
//! ```
//! use regemu_workloads::fuzz::{FuzzConfig, FuzzEmulation, Fuzzer};
//! use regemu_bounds::Params;
//!
//! // A clean construction survives a small budget with zero failures.
//! let config = FuzzConfig::new(Params::new(1, 1, 3)?).budget(25);
//! let report = Fuzzer::new(config).run();
//! assert!(!report.found());
//! assert_eq!(report.iterations, 25);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod campaign;
pub(crate) mod mutate;
pub(crate) mod shrink;
pub(crate) mod trace;

pub use campaign::{
    merge_fuzz_campaign, run_fuzz_campaign, FuzzCampaignConfig, FuzzCampaignOptions,
};
pub(crate) use mutate::MutationStream;
pub(crate) use shrink::FailureReport;
pub use shrink::{shrink_case, shrink_failure};
pub use trace::RecordedSchedule;

use crate::generator::{Issuer, Workload};
use crate::runner::ConsistencyCheck;
use crate::scenario::Engine;
use crate::sweep::WorkloadSpec;
use regemu_bounds::Params;
use regemu_core::{EmulationKind, FaultyKind};
use regemu_fpsm::{CrashPlan, DelayedScheduler, FairDriver, HighOp, Scheduler, ServerId, Time};
use regemu_spec::Condition;
use std::collections::BTreeSet;
use std::fmt;

/// The emulation under fuzz: a clean construction or a seeded bug.
///
/// Wrapping [`FaultyKind`] here keeps faulty names round-trippable through
/// [`RecordedSchedule`] text, so a repro against a seeded bug replays from
/// its trace file exactly like one against a clean construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzEmulation {
    /// One of the paper's constructions ([`EmulationKind`]).
    Kind(EmulationKind),
    /// An intentionally broken variant ([`FaultyKind`]).
    Faulty(FaultyKind),
}

impl FuzzEmulation {
    /// Stable short name (the wrapped kind's name).
    pub fn name(self) -> &'static str {
        match self {
            FuzzEmulation::Kind(kind) => kind.name(),
            FuzzEmulation::Faulty(kind) => kind.name(),
        }
    }

    /// Resolves a name against the clean catalogue first, then the seeded
    /// bugs.
    pub fn from_name(name: &str) -> Option<Self> {
        EmulationKind::from_name(name)
            .map(FuzzEmulation::Kind)
            .or_else(|| FaultyKind::from_name(name).map(FuzzEmulation::Faulty))
    }

    /// Builds the emulation instance.
    pub fn build(self, params: Params) -> Box<dyn regemu_core::Emulation> {
        match self {
            FuzzEmulation::Kind(kind) => kind.build(params),
            FuzzEmulation::Faulty(kind) => kind.build(params),
        }
    }
}

impl fmt::Display for FuzzEmulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fuzzed scenario: everything a mutant varies, nothing more.
///
/// The invariant dimensions (parameters, emulation, workload shape, check)
/// live in [`FuzzConfig`]; a case is the variable part — the schedule
/// decisions (ranks among deliverable operations, replayed by
/// [`FairDriver::replaying`]), the server crash plan, how much of the
/// workload to issue, and the seed driving the fair tail after the decisions
/// run out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Delivery-order decisions replayed before the fair tail takes over.
    pub decisions: Vec<u32>,
    /// Server crashes as `(time, server index)` pairs, at most `f` distinct
    /// servers (the mutator keeps this within the fault budget).
    pub crashes: Vec<(Time, usize)>,
    /// Number of workload operations to issue (a prefix of the full
    /// workload; at least 1).
    pub workload_len: usize,
    /// Workload-op value rewrites as `(op index, value)` pairs: the write at
    /// that index (if any, and if inside the issued prefix) writes `value`
    /// instead of the generated one. Sorted by index, indices distinct.
    pub rewrites: Vec<(usize, u64)>,
    /// Workload-op kind flips: writer-issued *writes* at these indices are
    /// demoted to reads (reader ops are never promoted — read-only clients
    /// reject writes by construction). Sorted, indices distinct.
    pub flips: Vec<usize>,
    /// Delay-tick perturbation: when non-empty the case runs under the
    /// [`regemu_fpsm::DelayedScheduler`] (seeded by [`FuzzCase::seed`]) with
    /// these extra per-op delay ticks instead of the replay scheduler, and
    /// `decisions` is ignored. The executed interleaving still folds back
    /// into a pure decision stream for corpus admission.
    pub delays: Vec<u32>,
    /// Seed of the scheduler's fair tail (or of the delayed scheduler when
    /// [`FuzzCase::delays`] is non-empty).
    pub seed: u64,
}

impl FuzzCase {
    /// The un-mutated seed case: issue `workload_len` operations under the
    /// plain seeded fair schedule, no decisions, crashes or perturbations.
    pub fn seed_case(workload_len: usize, seed: u64) -> Self {
        FuzzCase {
            decisions: Vec::new(),
            crashes: Vec::new(),
            workload_len,
            rewrites: Vec::new(),
            flips: Vec::new(),
            delays: Vec::new(),
            seed,
        }
    }
}

/// What to fuzz and how hard.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// The `(k, f, n)` parameter point.
    pub params: Params,
    /// The emulation under test.
    pub emulation: FuzzEmulation,
    /// The workload shape (instantiated with `params.k` and
    /// [`FuzzConfig::seed`]; cases issue prefixes of it).
    pub workload: WorkloadSpec,
    /// The consistency condition every run is checked against.
    pub check: ConsistencyCheck,
    /// Master seed: workload instantiation, the mutation stream and the
    /// seed case all derive from it.
    pub seed: u64,
    /// Number of mutants to execute.
    pub budget: usize,
    /// Per-operation delivery budget before a run is declared stuck.
    pub max_steps_per_op: u64,
    /// Stop at the first failure instead of spending the whole budget.
    pub stop_on_failure: bool,
}

impl FuzzConfig {
    /// A config over `params` with every dimension at its default: the
    /// space-optimal construction, one write-sequential round with reads,
    /// the WS-Regularity check, a 500-mutant budget.
    pub fn new(params: Params) -> Self {
        FuzzConfig {
            params,
            emulation: FuzzEmulation::Kind(EmulationKind::SpaceOptimal),
            workload: WorkloadSpec::WriteSequential {
                rounds: 1,
                read_after_each: true,
            },
            check: ConsistencyCheck::WsRegular,
            seed: 0xF055,
            budget: 500,
            max_steps_per_op: 50_000,
            stop_on_failure: false,
        }
    }

    /// Selects the emulation under test.
    pub fn emulation(mut self, emulation: FuzzEmulation) -> Self {
        self.emulation = emulation;
        self
    }

    /// Selects the workload shape.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the consistency condition.
    pub fn check(mut self, check: ConsistencyCheck) -> Self {
        self.check = check;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mutation budget.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Stops at the first failure.
    pub fn stop_on_failure(mut self) -> Self {
        self.stop_on_failure = true;
        self
    }

    /// The fully instantiated workload cases take prefixes of.
    pub(crate) fn full_workload(&self) -> Workload {
        self.workload.instantiate(self.params.k, self.seed)
    }
}

/// Why a run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The run could not complete (stuck or a simulation error).
    Stuck,
    /// The consistency check found a violation of this condition.
    Violation(Condition),
}

impl FailureKind {
    /// Stable single-token label used in traces and reports.
    pub(crate) fn label(&self) -> String {
        match self {
            FailureKind::Stuck => "stuck".to_string(),
            FailureKind::Violation(c) => format!("violation:{c}"),
        }
    }

    /// `true` for liveness failures (the execution wedged instead of
    /// violating a consistency condition).
    pub fn is_liveness_bug(&self) -> bool {
        matches!(self, FailureKind::Stuck)
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A failing case as the explorer found it (before shrinking).
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The failing case.
    pub case: FuzzCase,
    /// Why it failed.
    pub kind: FailureKind,
    /// Human-readable verdict of the failing run.
    pub verdict: String,
    /// Iteration at which it was found (0 = the un-mutated seed case).
    pub iteration: usize,
}

/// The executed outcome of one case.
pub(crate) struct ExecOutcome {
    pub(crate) kind: Option<FailureKind>,
    pub(crate) verdict: String,
    /// The `(choice, candidates)` pairs the run actually executed — the
    /// closed form of the schedule, replayable without the fair tail.
    pub(crate) executed: Vec<(u32, u32)>,
    /// Interleaving-coverage signature over `executed`.
    pub(crate) signature: u64,
}

/// FNV-1a over the little-endian bytes of the decision pairs.
pub(crate) fn signature_of(executed: &[(u32, u32)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(choice, candidates) in executed {
        for byte in choice
            .to_le_bytes()
            .into_iter()
            .chain(candidates.to_le_bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Executes one case: replay the decisions, let the seeded fair tail finish,
/// record the executed interleaving, check the configured condition.
pub(crate) fn execute(config: &FuzzConfig, case: &FuzzCase) -> ExecOutcome {
    let emulation = config.emulation.build(config.params);
    let full = config.full_workload();
    let len = case
        .workload_len
        .clamp(1, full.len().max(1))
        .min(full.len());
    let mut steps = full.ops()[..len].to_vec();
    // Workload-op mutation: rewrite written values, demote writer writes to
    // reads. Out-of-prefix indices are silently inert, so the mutator does
    // not have to track the prefix cut.
    for &(idx, value) in &case.rewrites {
        if let Some(step) = steps.get_mut(idx) {
            if step.op.is_write() {
                step.op = HighOp::Write(value);
            }
        }
    }
    for &idx in &case.flips {
        if let Some(step) = steps.get_mut(idx) {
            if step.op.is_write() && matches!(step.issuer, Issuer::Writer(_)) {
                step.op = HighOp::Read;
            }
        }
    }
    let workload = Workload::from_steps(steps);
    let mut plan = CrashPlan::none();
    for &(time, server) in &case.crashes {
        plan = plan.crash_at(time, ServerId::new(server));
    }
    // Delay perturbation switches the whole run to the delayed scheduler;
    // otherwise the recorded decisions replay, then the seeded tail picks.
    let mut scheduler: Box<dyn Scheduler> = if case.delays.is_empty() {
        Box::new(FairDriver::replaying(case.seed, case.decisions.clone()).with_crash_plan(plan))
    } else {
        Box::new(
            DelayedScheduler::new(case.seed, DelayedScheduler::DEFAULT_MAX_DELAY)
                .with_perturbation(case.delays.iter().map(|&d| u64::from(d)).collect())
                .with_crash_plan(plan),
        )
    };

    let mut engine = Engine::new(emulation.as_ref());
    engine.sim_mut().enable_decision_trace();
    let mut error = None;
    loop {
        match engine.step(
            emulation.as_ref(),
            &workload,
            scheduler.as_mut(),
            config.max_steps_per_op,
            false,
        ) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let executed: Vec<(u32, u32)> = engine
        .sim()
        .decision_trace()
        .iter()
        .map(|d| (d.choice, d.candidates))
        .collect();
    let signature = signature_of(&executed);
    let (kind, verdict) = match error {
        Some(e) => (Some(FailureKind::Stuck), format!("stuck: {e}")),
        None => {
            let report = engine.report(emulation.as_ref(), "fuzz", config.check);
            match report.check_violation {
                Some(v) => (
                    Some(FailureKind::Violation(v.condition)),
                    format!("violation: {v}"),
                ),
                None => (None, "pass".to_string()),
            }
        }
    };
    ExecOutcome {
        kind,
        verdict,
        executed,
        signature,
    }
}

/// The coverage-guided explorer.
///
/// Fully deterministic: corpus evolution, failures and the final report are
/// a pure function of the [`FuzzConfig`].
pub struct Fuzzer {
    config: FuzzConfig,
    corpus: Vec<FuzzCase>,
    seen: BTreeSet<u64>,
    failures: Vec<FuzzFailure>,
    bounds: mutate::MutationBounds,
    stream: MutationStream,
    seed_case: FuzzCase,
    seeded: bool,
    iterations: usize,
}

impl Fuzzer {
    /// Creates the explorer.
    pub fn new(config: FuzzConfig) -> Self {
        let full_len = config.full_workload().len().max(1);
        let bounds = mutate::MutationBounds {
            n: config.params.n,
            f: config.params.f,
            full_workload_len: full_len,
        };
        let stream = MutationStream::new(config.seed);
        let seed_case = FuzzCase::seed_case(full_len, config.seed);
        Fuzzer {
            config,
            corpus: Vec::new(),
            seen: BTreeSet::new(),
            failures: Vec::new(),
            bounds,
            stream,
            seed_case,
            seeded: false,
            iterations: 0,
        }
    }

    /// The corpus admitted so far (closed-form cases, admission order).
    pub fn corpus(&self) -> &[FuzzCase] {
        &self.corpus
    }

    /// Every failure found so far, in discovery order.
    pub fn failures(&self) -> &[FuzzFailure] {
        &self.failures
    }

    /// Mutants executed so far (excludes the seed case and ingests).
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// Executes a foreign closed-form case (a peer's published corpus
    /// entry, in a sharded campaign) and admits it when its interleaving
    /// signature is new. Does not consume budget. A case that fails here is
    /// recorded as a failure like any other — though peers only publish
    /// passing cases, so under an identical config that never fires.
    pub fn ingest(&mut self, case: FuzzCase) {
        self.observe(case, self.iterations);
    }

    /// Runs the whole campaign: the un-mutated seed case first, then
    /// `budget` mutants, admitting new-coverage survivors to the corpus.
    pub fn run(&mut self) -> FuzzReport {
        let budget = self.config.budget;
        self.run_iterations(budget);
        self.report()
    }

    /// Runs up to `count` further mutants, continuing from the current
    /// corpus and mutation-stream state (the incremental form [`Fuzzer::run`]
    /// is built on; sharded campaigns call this once per generation). The
    /// first call also executes the un-mutated seed case (iteration 0).
    pub(crate) fn run_iterations(&mut self, count: usize) {
        if !self.seeded {
            self.seeded = true;
            self.observe(self.seed_case.clone(), 0);
        }
        let mut done = 0;
        while done < count {
            if self.config.stop_on_failure && !self.failures.is_empty() {
                break;
            }
            done += 1;
            self.iterations += 1;
            // When even the seed case fails the corpus can be empty; keep
            // mutating the seed case so exploration never stalls.
            let bi = (self.stream.next_u64() as usize) % self.corpus.len().max(1);
            let di = (self.stream.next_u64() as usize) % self.corpus.len().max(1);
            let base = self.corpus.get(bi).unwrap_or(&self.seed_case).clone();
            let donor = self.corpus.get(di).unwrap_or(&self.seed_case).clone();
            let mutant = mutate::mutate(&base, Some(&donor), &self.bounds, &mut self.stream);
            let iteration = self.iterations;
            self.observe(mutant, iteration);
        }
    }

    /// The report over everything run so far.
    pub(crate) fn report(&self) -> FuzzReport {
        FuzzReport {
            config: self.config.clone(),
            iterations: self.iterations,
            corpus_size: self.corpus.len(),
            failures: self.failures.clone(),
        }
    }

    /// Executes one case and folds the outcome into corpus/failures.
    fn observe(&mut self, case: FuzzCase, iteration: usize) {
        let outcome = execute(&self.config, &case);
        match outcome.kind {
            Some(kind) => self.failures.push(FuzzFailure {
                case,
                kind,
                verdict: outcome.verdict,
                iteration,
            }),
            None => {
                if self.seen.insert(outcome.signature) {
                    // Admit the *closed form*: the executed ranks, which
                    // replay this exact run without relying on the tail
                    // seed or the delay perturbation (the decision trace is
                    // scheduler-agnostic, so a delayed run folds back into
                    // pure decisions). Mutants splice and extend from these.
                    self.corpus.push(FuzzCase {
                        decisions: outcome.executed.iter().map(|&(c, _)| c).collect(),
                        delays: Vec::new(),
                        ..case
                    });
                }
            }
        }
    }
}

/// The outcome of a fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The config that was fuzzed.
    pub config: FuzzConfig,
    /// Mutants executed (excludes the seed case).
    pub iterations: usize,
    /// Distinct interleaving signatures admitted to the corpus.
    pub corpus_size: usize,
    /// Every failing case, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether any failure was found.
    pub fn found(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Deterministic text rendering: two campaigns over the same config are
    /// byte-identical if and only if they explored identically.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("regemu-fuzz-report v1\n");
        out.push_str(&format!(
            "params {} {} {}\n",
            self.config.params.k, self.config.params.f, self.config.params.n
        ));
        out.push_str(&format!("emulation {}\n", self.config.emulation));
        out.push_str(&format!("workload {}\n", self.config.workload.label()));
        out.push_str(&format!("check {}\n", self.config.check));
        out.push_str(&format!("seed {}\n", self.config.seed));
        out.push_str(&format!("iterations {}\n", self.iterations));
        out.push_str(&format!("corpus {}\n", self.corpus_size));
        out.push_str(&format!("failures {}\n", self.failures.len()));
        for failure in &self.failures {
            out.push_str(&format!(
                "failure iter={} kind={} decisions={} crashes={} workload-len={} rewrites={} flips={} delays={} tail-seed={} verdict={}\n",
                failure.iteration,
                failure.kind.label(),
                failure.case.decisions.len(),
                failure.case.crashes.len(),
                failure.case.workload_len,
                failure.case.rewrites.len(),
                failure.case.flips.len(),
                failure.case.delays.len(),
                failure.case.seed,
                failure.verdict,
            ));
        }
        out
    }
}

/// The outcome of replaying a [`RecordedSchedule`].
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Why the replay failed, if it did.
    pub kind: Option<FailureKind>,
    /// Human-readable verdict, byte-identical to the verdict of the run the
    /// trace was emitted from.
    pub verdict: String,
}

/// Replays a trace and re-derives its verdict.
///
/// # Errors
///
/// Returns a message when the trace references an unknown emulation,
/// workload or check, or describes an invalid parameter point.
pub fn replay(schedule: &RecordedSchedule) -> Result<ReplayOutcome, String> {
    let config = schedule.config()?;
    let outcome = execute(&config, &schedule.case());
    Ok(ReplayOutcome {
        kind: outcome.kind,
        verdict: outcome.verdict,
    })
}

/// Runs a whole campaign and shrinks the first failure (if any): the
/// one-call form behind a spool-less `campaign fuzz` and CI.
pub fn fuzz_and_shrink(config: FuzzConfig) -> (FuzzReport, Option<FailureReport>) {
    let report = Fuzzer::new(config.clone()).run();
    let shrunk = report
        .failures
        .first()
        .map(|failure| shrink_failure(&config, failure));
    (report, shrunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FuzzConfig {
        FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(40)
    }

    #[test]
    fn emulation_names_round_trip_across_both_catalogues() {
        for kind in EmulationKind::ALL {
            let e = FuzzEmulation::Kind(kind);
            assert_eq!(FuzzEmulation::from_name(e.name()), Some(e));
        }
        for kind in FaultyKind::ALL {
            let e = FuzzEmulation::Faulty(kind);
            assert_eq!(FuzzEmulation::from_name(e.name()), Some(e));
        }
        assert_eq!(FuzzEmulation::from_name("nope"), None);
    }

    #[test]
    fn the_seed_case_executes_and_passes_on_a_clean_emulation() {
        let config = config();
        let case = FuzzCase::seed_case(config.full_workload().len(), config.seed);
        let outcome = execute(&config, &case);
        assert!(outcome.kind.is_none(), "{}", outcome.verdict);
        assert!(!outcome.executed.is_empty());
        // Replaying the closed form reproduces the identical interleaving.
        let closed = FuzzCase {
            decisions: outcome.executed.iter().map(|&(c, _)| c).collect(),
            seed: 999, // the tail seed must not matter any more
            ..case
        };
        let replayed = execute(&config, &closed);
        assert_eq!(replayed.executed, outcome.executed);
        assert_eq!(replayed.signature, outcome.signature);
    }

    #[test]
    fn workload_mutation_and_delay_perturbation_are_deterministic() {
        let config = config();
        let full_len = config.full_workload().len();

        let mut case = FuzzCase::seed_case(full_len, config.seed);
        case.rewrites = vec![(0, (1u64 << 32) | 42)];
        case.flips = vec![0];
        let a = execute(&config, &case);
        let b = execute(&config, &case);
        assert_eq!(a.executed, b.executed);
        assert!(a.kind.is_none(), "{}", a.verdict);

        let mut delayed = FuzzCase::seed_case(full_len, config.seed);
        delayed.delays = vec![3, 0, 11];
        let d1 = execute(&config, &delayed);
        let d2 = execute(&config, &delayed);
        assert_eq!(d1.executed, d2.executed);
        assert!(d1.kind.is_none(), "{}", d1.verdict);
        // The delayed run folds back into a pure decision stream: replaying
        // the executed ranks without the perturbation reproduces the
        // identical interleaving.
        let closed = FuzzCase {
            decisions: d1.executed.iter().map(|&(c, _)| c).collect(),
            delays: Vec::new(),
            ..delayed
        };
        let replayed = execute(&config, &closed);
        assert_eq!(replayed.executed, d1.executed);
    }

    #[test]
    fn fuzz_reports_are_byte_identical_for_the_same_seed() {
        let a = Fuzzer::new(config()).run();
        let b = Fuzzer::new(config()).run();
        assert_eq!(a.to_text(), b.to_text());
        let c = Fuzzer::new(config().seed(1234)).run();
        assert_ne!(a.to_text(), c.to_text());
    }

    #[test]
    fn coverage_gating_grows_the_corpus_beyond_the_seed_case() {
        let report = Fuzzer::new(config()).run();
        assert!(!report.found(), "clean emulation must not fail");
        assert!(
            report.corpus_size > 1,
            "mutation must discover new interleavings (corpus {})",
            report.corpus_size
        );
        assert!(report.corpus_size <= 1 + report.iterations);
    }
}
