//! The unified `Scenario` API: one typed value that fully determines a run.
//!
//! A [`Scenario`] composes everything the experiment pipeline needs —
//! parameters, emulation construction, workload, scheduler, crash plan,
//! consistency check and seed — into a single description:
//!
//! ```
//! use regemu_workloads::scenario::{Scenario, SchedulerSpec};
//! use regemu_workloads::{ConsistencyCheck, WorkloadSpec};
//! use regemu_core::EmulationKind;
//! use regemu_bounds::Params;
//!
//! let report = Scenario::new(Params::new(2, 1, 4)?)
//!     .emulation(EmulationKind::SpaceOptimal)
//!     .workload(WorkloadSpec::WriteSequential { rounds: 2, read_after_each: true })
//!     .scheduler(SchedulerSpec::RoundRobin)
//!     .check(ConsistencyCheck::WsRegular)
//!     .seed(7)
//!     .run()?;
//! assert!(report.is_consistent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Scenario::build`] turns the description into a [`ScenarioRun`] — an
//! *incremental* run that can be driven to completion ([`ScenarioRun::run`]),
//! advanced one delivery at a time ([`ScenarioRun::step`]), inspected
//! mid-flight ([`ScenarioRun::history`], [`ScenarioRun::metrics`]), perturbed
//! ([`ScenarioRun::crash_server`]) and finally measured
//! ([`ScenarioRun::into_report`]).
//!
//! Because a `Scenario` is a plain value whose every dimension is a small
//! serializable enum ([`regemu_core::EmulationKind`],
//! [`crate::sweep::WorkloadSpec`], [`SchedulerSpec`], [`CrashPlanSpec`],
//! [`RecordingModeSpec`]), grids over scenarios are trivially
//! expressible — [`crate::sweep`] is exactly that, and new dimensions land as
//! one extra axis instead of a cross-crate plumbing change.
//!
//! Long runs can bound their memory with [`Scenario::recording`]: `Digest`
//! keeps metrics only, `Ring(capacity)` keeps a sliding event window and
//! verifies the configured consistency condition *online*
//! ([`regemu_spec::StreamingChecker`]) instead of offline over the full
//! log. Metrics are byte-identical across recording modes for the same
//! scenario — recording changes what is retained, never what happens.
//!
//! Determinism: everything a run does flows from the scenario value. Two
//! builds of the same scenario replay the same run, event for event; the
//! golden-trace suite pins this byte-for-byte, including against the
//! pre-`Scenario` `run_workload` code path.

use crate::generator::{Issuer, Workload};
use crate::runner::{CheckCoverage, ConsistencyCheck, RunReport};
use regemu_adversary::strategy::{CoverWrites, SilenceServers};
use regemu_bounds::Params;
use regemu_core::{Emulation, EmulationKind};
use regemu_fpsm::{
    AdversarialScheduler, ClientId, CrashPlan, DelayedScheduler, FairDriver, History,
    RecordingMode, RoundRobinScheduler, RunMetrics, Scheduler, ServerId, SimError, Simulation,
};
use regemu_spec::{HighHistory, SequentialSpec, StreamingChecker};
use std::fmt;

/// The sweepable recording-mode axis of a scenario.
///
/// Unlike [`SchedulerSpec`] and [`CrashPlanSpec`], the fpsm mechanism type
/// ([`regemu_fpsm::RecordingMode`]) is already a plain, serializable value
/// that needs no per-run instantiation, so the spec *is* the mode. Labels
/// (`full`, `digest`, `ring:N`) round-trip through
/// [`RecordingMode::label`] / [`RecordingMode::from_label`] for CLI flags
/// and reports.
pub use regemu_fpsm::RecordingMode as RecordingModeSpec;

/// Which scheduler drives a scenario — a sweepable, serializable dimension.
///
/// Every variant builds a [`Scheduler`] seeded from the scenario seed, so the
/// axis never breaks run determinism. The adversarial variants target the `f`
/// *highest-numbered* servers — the same set a [`CrashPlanSpec::CrashF`] plan
/// crashes — so combining the two axes stays within one fault budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Seeded pseudo-random fair scheduling ([`FairDriver`]) — the default.
    Fair,
    /// Deterministic client rotation ([`RoundRobinScheduler`]).
    RoundRobin,
    /// Deterministic seed-derived per-message delivery delays
    /// ([`DelayedScheduler`] with its default delay bound): a message-delay
    /// *distribution* over the network, under which responses overtake each
    /// other in bursts.
    Delayed,
    /// Fair scheduling, but write responses from the `f` highest-numbered
    /// servers are withheld forever (the `Ad_i` move;
    /// [`regemu_adversary::CoverWrites`]).
    CoverAdversary,
    /// Fair scheduling, but *every* response from the `f` highest-numbered
    /// servers is withheld forever (`regemu_adversary::SilenceServers`).
    SilenceAdversary,
}

impl SchedulerSpec {
    /// Every scheduler kind, in sweep-axis order.
    pub const ALL: [SchedulerSpec; 5] = [
        SchedulerSpec::Fair,
        SchedulerSpec::RoundRobin,
        SchedulerSpec::Delayed,
        SchedulerSpec::CoverAdversary,
        SchedulerSpec::SilenceAdversary,
    ];

    /// Builds the scheduler for a run over `params`, seeded with `seed` and
    /// injecting `crash_plan`.
    pub fn build(self, seed: u64, crash_plan: CrashPlan, params: Params) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Fair => Box::new(FairDriver::new(seed).with_crash_plan(crash_plan)),
            SchedulerSpec::RoundRobin => {
                Box::new(RoundRobinScheduler::new(seed).with_crash_plan(crash_plan))
            }
            SchedulerSpec::Delayed => Box::new(
                DelayedScheduler::new(seed, DelayedScheduler::DEFAULT_MAX_DELAY)
                    .with_crash_plan(crash_plan),
            ),
            SchedulerSpec::CoverAdversary => Box::new(
                AdversarialScheduler::new(seed, Box::new(CoverWrites::highest(params.n, params.f)))
                    .with_crash_plan(crash_plan),
            ),
            SchedulerSpec::SilenceAdversary => Box::new(
                AdversarialScheduler::new(
                    seed,
                    Box::new(SilenceServers::highest(params.n, params.f)),
                )
                .with_crash_plan(crash_plan),
            ),
        }
    }

    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerSpec::Fair => "fair",
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::Delayed => "delayed",
            SchedulerSpec::CoverAdversary => "adversary-cover",
            SchedulerSpec::SilenceAdversary => "adversary-silence",
        }
    }

    /// The inverse of [`SchedulerSpec::name`], for CLI flags.
    pub fn from_name(name: &str) -> Option<Self> {
        SchedulerSpec::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which crash plan a scenario injects — a sweepable, serializable dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPlanSpec {
    /// Failure-free run.
    None,
    /// Crash the `f` highest-numbered servers at logical times 5, 10, … —
    /// exactly the fault budget the construction must tolerate. Quorum-
    /// critical low server ids survive, and the times land inside the run.
    CrashF,
    /// Crash *clients* instead of servers: the last writer at logical time
    /// 10 and the first reader at logical time 20. A crashed client's
    /// in-flight operation stays pending forever (abandoned) and its
    /// remaining workload operations are skipped; client crashes are outside
    /// the server fault budget, so the construction must stay consistent
    /// under any scheduler.
    CrashClients,
}

impl CrashPlanSpec {
    /// Every crash-plan kind, in sweep-axis order.
    pub const ALL: [CrashPlanSpec; 3] = [
        CrashPlanSpec::None,
        CrashPlanSpec::CrashF,
        CrashPlanSpec::CrashClients,
    ];

    /// Builds the concrete server [`CrashPlan`] for a parameter point.
    /// [`CrashPlanSpec::CrashClients`] crashes no servers — its client
    /// crashes are delivered through [`CrashPlanSpec::client_crashes`].
    pub(crate) fn instantiate(self, params: Params) -> CrashPlan {
        match self {
            CrashPlanSpec::None | CrashPlanSpec::CrashClients => CrashPlan::none(),
            CrashPlanSpec::CrashF => {
                let mut plan = CrashPlan::none();
                for i in 0..params.f {
                    let server = ServerId::new(params.n - 1 - i);
                    plan = plan.crash_at(5 * (i as u64 + 1), server);
                }
                plan
            }
        }
    }

    /// The client crashes the plan injects, as `(time, issuer)` pairs. A
    /// crash fires once the simulation clock passes `time` *and* the
    /// issuer's client has been registered by the workload (a client that
    /// never issues anything cannot crash — there is nothing to crash).
    pub(crate) fn client_crashes(self, params: Params) -> Vec<(regemu_fpsm::Time, Issuer)> {
        match self {
            CrashPlanSpec::None | CrashPlanSpec::CrashF => Vec::new(),
            CrashPlanSpec::CrashClients => {
                vec![(10, Issuer::Writer(params.k - 1)), (20, Issuer::Reader(0))]
            }
        }
    }

    /// Stable short name used in reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CrashPlanSpec::None => "none",
            CrashPlanSpec::CrashF => "crash-f",
            CrashPlanSpec::CrashClients => "crash-clients",
        }
    }

    /// The inverse of `CrashPlanSpec::name`, for CLI flags.
    pub fn from_name(name: &str) -> Option<Self> {
        CrashPlanSpec::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for CrashPlanSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a scenario describes its workload.
#[derive(Clone, Debug)]
enum WorkloadChoice {
    /// A shape instantiated with the scenario's `k` and seed.
    Spec(crate::sweep::WorkloadSpec),
    /// Explicit operation steps, used verbatim.
    Explicit(Workload),
}

/// How a scenario describes its crash plan.
#[derive(Clone, Debug)]
enum CrashChoice {
    Spec(CrashPlanSpec),
    Explicit(CrashPlan),
}

/// A typed, self-contained description of one experiment run.
///
/// See the [module docs](self) for the full picture. All setters are
/// by-value builders; every dimension has a sensible default (space-optimal
/// emulation, one write-sequential round per writer with reads, fair
/// scheduler, no crashes, full recording, WS-Regularity check, seed
/// `0xC0FFEE`).
#[derive(Clone, Debug)]
pub struct Scenario {
    params: Params,
    emulation: EmulationKind,
    workload: WorkloadChoice,
    scheduler: SchedulerSpec,
    crashes: CrashChoice,
    recording: RecordingModeSpec,
    check: ConsistencyCheck,
    seed: u64,
    max_steps_per_op: u64,
    drain: bool,
    evict_intervals: bool,
}

impl Scenario {
    /// A scenario over `params` with every dimension at its default.
    pub fn new(params: Params) -> Self {
        Scenario {
            params,
            emulation: EmulationKind::SpaceOptimal,
            workload: WorkloadChoice::Spec(crate::sweep::WorkloadSpec::WriteSequential {
                rounds: 1,
                read_after_each: true,
            }),
            scheduler: SchedulerSpec::Fair,
            crashes: CrashChoice::Spec(CrashPlanSpec::None),
            recording: RecordingModeSpec::Full,
            check: ConsistencyCheck::WsRegular,
            seed: 0xC0FFEE,
            max_steps_per_op: 100_000,
            drain: false,
            evict_intervals: false,
        }
    }

    /// Selects the emulation construction.
    pub fn emulation(mut self, kind: EmulationKind) -> Self {
        self.emulation = kind;
        self
    }

    /// Selects the workload shape (instantiated with the scenario's `k` and
    /// seed).
    pub fn workload(mut self, spec: crate::sweep::WorkloadSpec) -> Self {
        self.workload = WorkloadChoice::Spec(spec);
        self
    }

    /// Uses an explicit operation sequence instead of a workload shape.
    pub fn workload_steps(mut self, workload: Workload) -> Self {
        self.workload = WorkloadChoice::Explicit(workload);
        self
    }

    /// Selects the scheduler.
    pub fn scheduler(mut self, spec: SchedulerSpec) -> Self {
        self.scheduler = spec;
        self
    }

    /// Selects the crash plan by kind.
    pub fn crashes(mut self, spec: CrashPlanSpec) -> Self {
        self.crashes = CrashChoice::Spec(spec);
        self
    }

    /// Injects an explicit crash plan instead of a crash-plan kind.
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crashes = CrashChoice::Explicit(plan);
        self
    }

    /// Selects how much of the event stream the run retains.
    ///
    /// [`RecordingModeSpec::Full`] (the default) keeps every event and
    /// checks consistency offline over the complete history.
    /// [`RecordingModeSpec::Ring`] keeps a sliding window and verifies the
    /// requested condition *online* with a
    /// [`regemu_spec::StreamingChecker`] fed from the window — the verdict
    /// covers the whole run unless the ring evicted events faster than the
    /// engine drained them (see [`RunReport::check_coverage`]).
    /// [`RecordingModeSpec::Digest`] retains nothing: the run is
    /// metrics-only. Metrics are byte-identical across modes for the same
    /// scenario.
    pub fn recording(mut self, mode: RecordingModeSpec) -> Self {
        self.recording = mode;
        self
    }

    /// Selects the consistency condition verified by the report.
    pub fn check(mut self, check: ConsistencyCheck) -> Self {
        self.check = check;
        self
    }

    /// Sets the seed every source of nondeterminism flows from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-operation delivery budget before the run is declared
    /// stuck.
    pub(crate) fn max_steps_per_op(mut self, max_steps: u64) -> Self {
        self.max_steps_per_op = max_steps;
        self
    }

    /// Keeps delivering outstanding low-level operations after the last
    /// high-level operation completed (a "drain" phase).
    pub fn drain(mut self) -> Self {
        self.drain = true;
        self
    }

    /// Evicts high-level intervals from the recording's digest as soon as
    /// the online checker has folded them out of its window, bounding the
    /// interval digest by the run's point contention instead of its length.
    ///
    /// Only effective when the run is checked online (a bounded
    /// [`Scenario::recording`] mode with a [`Scenario::check`] selected) —
    /// without an online checker nothing ever signals that an interval is
    /// done. The price: [`RunReport::history`] then contains only the
    /// intervals still live at the end of the run, so leave this off when
    /// the report's full high-level schedule matters. Metrics and verdicts
    /// are unaffected.
    pub fn evict_folded_intervals(mut self) -> Self {
        self.evict_intervals = true;
        self
    }

    /// Materializes the scenario into a runnable [`ScenarioRun`].
    ///
    /// Building is cheap and side-effect free; a scenario can be built many
    /// times and every build replays the identical run.
    pub fn build(&self) -> ScenarioRun {
        let emulation = self.emulation.build(self.params);
        let workload = match &self.workload {
            WorkloadChoice::Spec(spec) => spec.instantiate(self.params.k, self.seed),
            WorkloadChoice::Explicit(w) => w.clone(),
        };
        let crash_plan = match &self.crashes {
            CrashChoice::Spec(spec) => spec.instantiate(self.params),
            CrashChoice::Explicit(plan) => plan.clone(),
        };
        let scheduler = self.scheduler.build(self.seed, crash_plan, self.params);
        let mut engine = Engine::with_recording(emulation.as_ref(), self.recording, self.check);
        if self.evict_intervals {
            engine.enable_interval_eviction();
        }
        if let CrashChoice::Spec(spec) = &self.crashes {
            engine.set_client_crash_plan(spec.client_crashes(self.params));
        }
        ScenarioRun {
            emulation,
            scheduler,
            scheduler_name: self.scheduler.name(),
            workload,
            engine,
            check: self.check,
            max_steps_per_op: self.max_steps_per_op,
            drain: self.drain,
        }
    }

    /// Builds the scenario, runs it to completion and returns the measured
    /// report — the one-call form of `build()` + `run()` + `into_report()`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if some operation cannot complete within the
    /// step budget.
    pub fn run(&self) -> Result<RunReport, SimError> {
        let mut run = self.build();
        run.run()?;
        Ok(run.into_report())
    }
}

/// A materialized, incrementally drivable scenario run.
pub struct ScenarioRun {
    emulation: Box<dyn Emulation>,
    scheduler: Box<dyn Scheduler>,
    scheduler_name: &'static str,
    workload: Workload,
    engine: Engine,
    check: ConsistencyCheck,
    max_steps_per_op: u64,
    drain: bool,
}

impl ScenarioRun {
    /// Advances the run by its smallest unit of progress: issues every
    /// workload operation that can start right now, then delivers one
    /// low-level operation.
    ///
    /// Returns `Ok(false)` once the run is complete (all workload operations
    /// finished and, when draining, quiescence reached).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stuck`] when no progress is possible within the
    /// per-operation step budget, and propagates engine errors.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.engine.step(
            self.emulation.as_ref(),
            &self.workload,
            self.scheduler.as_mut(),
            self.max_steps_per_op,
            self.drain,
        )
    }

    /// Drives the run to completion.
    ///
    /// # Errors
    ///
    /// See [`ScenarioRun::step`].
    pub fn run(&mut self) -> Result<&mut Self, SimError> {
        while self.step()? {}
        Ok(self)
    }

    /// The recorded history of the run so far.
    pub fn history(&self) -> &History {
        self.engine.sim.history()
    }

    /// A snapshot of the space metrics of the run so far.
    pub fn metrics(&self) -> RunMetrics {
        RunMetrics::capture(&self.engine.sim)
    }

    /// Number of high-level operations completed so far.
    pub fn completed_ops(&self) -> usize {
        self.engine.sim.completed_high_count()
    }

    /// The simulation under the run (read-only).
    pub fn sim(&self) -> &Simulation {
        &self.engine.sim
    }

    /// The emulation instance under the run.
    pub fn emulation(&self) -> &dyn Emulation {
        self.emulation.as_ref()
    }

    /// Crashes a server mid-run (counted against the fault budget `f`).
    ///
    /// # Errors
    ///
    /// Fails if the server is unknown or the fault budget is exhausted.
    pub fn crash_server(&mut self, server: ServerId) -> Result<(), SimError> {
        self.engine.sim.crash_server(server)
    }

    /// Finalizes the run: captures metrics, extracts the high-level schedule
    /// and verifies the configured consistency condition — offline over the
    /// full history under [`RecordingModeSpec::Full`], from the online
    /// checker under the bounded recording modes.
    pub fn into_report(mut self) -> RunReport {
        self.engine
            .report(self.emulation.as_ref(), self.scheduler_name, self.check)
    }
}

impl fmt::Debug for ScenarioRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioRun")
            .field("emulation", &self.emulation.name())
            .field("scheduler", &self.scheduler_name)
            .field("workload_ops", &self.workload.len())
            .field("issued", &self.engine.cursor)
            .field("completed", &self.engine.sim.completed_high_count())
            .finish()
    }
}

/// The incremental run engine shared by [`ScenarioRun`] and the
/// `run_workload` compatibility shim.
///
/// Issuing and delivering are interleaved exactly as the pre-`Scenario`
/// runner did (invoke as soon as the issuing client is free, deliver
/// otherwise), so for the same seed the history is byte-identical — the
/// golden-trace suite pins this. In-flight operations are tracked through
/// the simulation's own per-client state (O(1) per query) instead of the
/// former linear scan over a `Vec` of outstanding operations.
pub(crate) struct Engine {
    sim: Simulation,
    /// Lazily registered writer clients, indexed by writer slot (`i % k`).
    writer_clients: Vec<Option<ClientId>>,
    /// Lazily registered reader clients, indexed by reader index.
    reader_clients: Vec<Option<ClientId>>,
    /// Next workload operation to issue.
    cursor: usize,
    /// A `sequential` operation that must complete before the cursor moves
    /// (with its issuing client, so a crash of that client can release the
    /// wait — the operation will never complete).
    wait_for: Option<(regemu_fpsm::HighOpId, ClientId)>,
    /// High-level operations whose client crashed while they were in
    /// flight: they never complete and must not count against run
    /// completion.
    abandoned_ops: usize,
    /// Completion count at the last observed progress (for stuck detection).
    last_completed: usize,
    /// Deliveries since the last completed high-level operation.
    steps_since_progress: u64,
    /// Set once the post-completion drain reached quiescence.
    quiesced: bool,
    /// How much of the event stream the simulation retains.
    recording: RecordingMode,
    /// Online checker for bounded recording modes, fed from the retained
    /// event window after every engine step.
    checker: Option<StreamingChecker>,
    /// Sequence number of the next event the checker has not seen.
    checker_cursor: u64,
    /// When set, intervals the checker has folded out of its window are
    /// evicted from the history's digest right after every feed.
    evict_intervals: bool,
    /// Client crashes to inject: `(time, issuer)` pairs, fired once the
    /// clock passes `time` and the issuer's client is registered.
    client_crash_plan: Vec<(regemu_fpsm::Time, Issuer)>,
}

impl Engine {
    pub(crate) fn new(emulation: &dyn Emulation) -> Self {
        Engine::with_recording(emulation, RecordingMode::Full, ConsistencyCheck::None)
    }

    pub(crate) fn with_recording(
        emulation: &dyn Emulation,
        recording: RecordingMode,
        check: ConsistencyCheck,
    ) -> Self {
        let mut sim = emulation.build_simulation();
        sim.set_recording_mode(recording);
        // Under `Full` the report checks offline over the complete history;
        // under `Digest` nothing is retained to check. Only `Ring` needs the
        // online checker, draining the window as the run produces events.
        let checker = match (recording, check.condition()) {
            (RecordingMode::Ring(_), Some(condition)) => {
                Some(StreamingChecker::new(condition, SequentialSpec::register()))
            }
            _ => None,
        };
        Engine {
            sim,
            writer_clients: vec![None; emulation.params().k],
            reader_clients: Vec::new(),
            cursor: 0,
            wait_for: None,
            abandoned_ops: 0,
            last_completed: 0,
            steps_since_progress: 0,
            quiesced: false,
            recording,
            checker,
            checker_cursor: 0,
            evict_intervals: false,
            client_crash_plan: Vec::new(),
        }
    }

    /// Installs the client crashes to inject during the run.
    pub(crate) fn set_client_crash_plan(&mut self, plan: Vec<(regemu_fpsm::Time, Issuer)>) {
        self.client_crash_plan = plan;
    }

    /// Read access to the simulation under the engine.
    pub(crate) fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Mutable access to the simulation under the engine (used by the fuzz
    /// executor to enable decision tracing before the first delivery).
    pub(crate) fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Crashes a client: its in-flight high-level operation (if any) is
    /// counted as abandoned and the online checker is told immediately.
    pub(crate) fn crash_client(&mut self, client: ClientId) -> Result<(), SimError> {
        let first_crash = !self.sim.is_client_crashed(client);
        let in_flight = self.sim.current_high_op(client).is_some();
        self.sim.crash_client(client)?;
        if first_crash && in_flight {
            self.abandoned_ops += 1;
        }
        // The crash event reaches the checker through the regular stream
        // feed; do it now so the abandonment is not deferred to the next
        // delivery step.
        self.feed_checker();
        Ok(())
    }

    /// Fires every due entry of the client-crash plan. An entry is due once
    /// the clock passed its time and its issuer has a registered client;
    /// entries for clients the workload never registers stay pending
    /// forever, deterministically.
    fn inject_due_client_crashes(&mut self) {
        if self.client_crash_plan.is_empty() {
            return;
        }
        let now = self.sim.time();
        let mut i = 0;
        while i < self.client_crash_plan.len() {
            let (at, issuer) = self.client_crash_plan[i];
            let registered = match issuer {
                Issuer::Writer(w) => {
                    let slot = w % self.writer_clients.len();
                    self.writer_clients[slot]
                }
                Issuer::Reader(r) => self.reader_clients.get(r).copied().flatten(),
            };
            match registered {
                Some(client) if now >= at => {
                    self.client_crash_plan.remove(i);
                    self.crash_client(client)
                        .expect("a registered client is a known client");
                }
                _ => i += 1,
            }
        }
    }

    /// Turns on interval-digest eviction: operations the online checker is
    /// done with are dropped from the history's interval digest. No-op
    /// without an online checker (there is no fold signal to act on).
    pub(crate) fn enable_interval_eviction(&mut self) {
        if let Some(checker) = self.checker.as_mut() {
            checker.set_track_retired(true);
            self.evict_intervals = true;
        }
    }

    /// Feeds every event the checker has not yet observed. Called after each
    /// engine step, so one ring capacity only needs to cover the events of a
    /// single step (issuing plus one delivery) to never miss anything; a gap
    /// is reported to the checker, which degrades the verdict to
    /// [`CheckCoverage::Truncated`] instead of guessing.
    fn feed_checker(&mut self) {
        let Some(checker) = self.checker.as_mut() else {
            return;
        };
        let history = self.sim.history();
        match history.events_since(self.checker_cursor) {
            Some(events) => {
                for event in events {
                    checker.observe(event);
                }
            }
            None => checker.note_gap(),
        }
        self.checker_cursor = history.total_events();
        if self.evict_intervals {
            for high_op in checker.take_retired() {
                self.sim.evict_interval(high_op);
            }
        }
    }

    fn client_for(&mut self, emulation: &dyn Emulation, issuer: Issuer) -> ClientId {
        match issuer {
            Issuer::Writer(i) => {
                let slot = i % emulation.params().k;
                if self.writer_clients[slot].is_none() {
                    let id = self.sim.register_client(emulation.writer_protocol(slot));
                    self.writer_clients[slot] = Some(id);
                }
                self.writer_clients[slot].expect("writer client registered above")
            }
            Issuer::Reader(i) => {
                if i >= self.reader_clients.len() {
                    self.reader_clients.resize(i + 1, None);
                }
                if self.reader_clients[i].is_none() {
                    let id = self.sim.register_client(emulation.reader_protocol());
                    self.reader_clients[i] = Some(id);
                }
                self.reader_clients[i].expect("reader client registered above")
            }
        }
    }

    /// Issues every workload operation that can start right now: the cursor
    /// advances while the previous `sequential` operation has completed and
    /// the next operation's client is idle.
    fn issue_ready(
        &mut self,
        emulation: &dyn Emulation,
        workload: &Workload,
    ) -> Result<(), SimError> {
        while self.cursor < workload.ops().len() {
            if let Some((w, issuer)) = self.wait_for {
                if self.sim.result_of(w).is_none() {
                    if !self.sim.is_client_crashed(issuer) {
                        return Ok(());
                    }
                    // The issuer crashed: the operation will never
                    // complete, so waiting for it would wedge the run.
                }
                self.wait_for = None;
            }
            let step = workload.ops()[self.cursor];
            let client = self.client_for(emulation, step.issuer);
            if self.sim.is_client_crashed(client) {
                // A dead client issues nothing: its remaining workload
                // operations are skipped.
                self.cursor += 1;
                continue;
            }
            if !self.sim.is_client_idle(client) {
                // The client's previous operation is still in flight; a
                // client's schedule must be sequential.
                return Ok(());
            }
            let high_op = self.sim.invoke(client, step.op)?;
            self.cursor += 1;
            if step.sequential {
                self.wait_for = Some((high_op, client));
            }
        }
        Ok(())
    }

    fn all_issued_complete(&self) -> bool {
        self.sim.completed_high_count() + self.abandoned_ops == self.sim.invoked_high_count()
    }

    fn finished(&self, workload: &Workload, drain: bool) -> bool {
        self.cursor == workload.ops().len()
            && self.all_issued_complete()
            && (!drain || self.quiesced)
    }

    pub(crate) fn step(
        &mut self,
        emulation: &dyn Emulation,
        workload: &Workload,
        scheduler: &mut dyn Scheduler,
        max_steps_per_op: u64,
        drain: bool,
    ) -> Result<bool, SimError> {
        self.issue_ready(emulation, workload)?;
        self.inject_due_client_crashes();
        if self.finished(workload, drain) {
            return Ok(false);
        }
        if !scheduler.step(&mut self.sim)? {
            // Nothing the scheduler is willing to deliver remains.
            if self.cursor == workload.ops().len() && self.all_issued_complete() {
                self.quiesced = true;
                return Ok(false);
            }
            return Err(SimError::Stuck {
                steps: self.steps_since_progress,
                waiting_for: format!(
                    "workload operation {} of {} to make progress",
                    self.cursor.min(workload.ops().len().saturating_sub(1)),
                    workload.ops().len()
                ),
            });
        }
        self.feed_checker();
        let completed = self.sim.completed_high_count();
        if completed > self.last_completed {
            self.last_completed = completed;
            self.steps_since_progress = 0;
        } else {
            self.steps_since_progress += 1;
            if self.steps_since_progress >= max_steps_per_op && !self.finished(workload, drain) {
                return Err(SimError::Stuck {
                    steps: self.steps_since_progress,
                    waiting_for: format!(
                        "progress within the {max_steps_per_op}-step budget \
                         ({} of {} operations issued)",
                        self.cursor,
                        workload.ops().len()
                    ),
                });
            }
        }
        Ok(true)
    }

    pub(crate) fn report(
        &mut self,
        emulation: &dyn Emulation,
        scheduler: &str,
        check: ConsistencyCheck,
    ) -> RunReport {
        self.feed_checker();
        let params = emulation.params();
        let metrics = RunMetrics::capture(&self.sim);
        let history = HighHistory::from_run(self.sim.history());
        let completed_ops = self.sim.completed_high_count();
        let (check_violation, check_coverage) = match (check, self.checker.take()) {
            // Nothing was requested: nothing could be missed.
            (ConsistencyCheck::None, _) => (None, CheckCoverage::Complete),
            // Bounded recording with an online checker (`Ring`): the verdict
            // is the stream's, conclusive only if no event was evicted
            // before the checker observed it.
            (_, Some(checker)) => {
                let outcome = checker.into_outcome();
                let coverage = if outcome.complete {
                    CheckCoverage::Complete
                } else {
                    CheckCoverage::Truncated
                };
                (outcome.violation, coverage)
            }
            // Full recording: check offline over the complete schedule.
            (_, None) if self.recording.is_full() => {
                (check.check_offline(&history), CheckCoverage::Complete)
            }
            // `Digest` retains nothing: the requested check never ran.
            (_, None) => (None, CheckCoverage::NotRecorded),
        };
        RunReport {
            emulation: emulation.name().to_string(),
            scheduler: scheduler.to_string(),
            params,
            provisioned_objects: emulation.base_object_count(),
            metrics,
            completed_ops,
            check_violation,
            check_coverage,
            history,
        }
    }
}

/// Runs `workload` against an already-built emulation instance under an
/// arbitrary scheduler — the escape hatch for callers that hold a custom
/// [`Emulation`] implementation or a hand-constructed [`Scheduler`] and
/// therefore cannot describe their run as a [`Scenario`] value.
///
/// [`Scenario::run`] and the deprecated `run_workload` are both thin layers
/// over this function, so every execution path shares one engine.
///
/// # Errors
///
/// Returns a [`SimError`] if some operation cannot complete within the step
/// budget.
pub fn drive(
    emulation: &dyn Emulation,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    check: ConsistencyCheck,
    max_steps_per_op: u64,
    drain: bool,
) -> Result<RunReport, SimError> {
    let mut engine = Engine::new(emulation);
    while engine.step(emulation, workload, scheduler, max_steps_per_op, drain)? {}
    Ok(engine.report(emulation, scheduler.name(), check))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::WorkloadSpec;
    use regemu_fpsm::{HighOp, HighResponse};

    fn params(k: usize, f: usize, n: usize) -> Params {
        Params::new(k, f, n).unwrap()
    }

    #[test]
    fn scenario_runs_every_emulation_under_every_scheduler() {
        let p = params(2, 1, 4);
        for kind in EmulationKind::ALL {
            for sched in SchedulerSpec::ALL {
                let report = Scenario::new(p)
                    .emulation(kind)
                    .scheduler(sched)
                    .seed(13)
                    .run()
                    .unwrap_or_else(|e| panic!("{kind} under {sched}: {e}"));
                assert!(
                    report.is_consistent(),
                    "{kind} under {sched}: {:?}",
                    report.check_violation
                );
                assert_eq!(report.scheduler, sched.name());
                assert!(report.completed_ops > 0);
            }
        }
    }

    #[test]
    fn scenario_builds_are_replayable() {
        let scenario = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::RandomMixed {
                readers: 2,
                total: 10,
                write_percent: 50,
            })
            .seed(99);
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn step_drives_the_run_incrementally() {
        let scenario = Scenario::new(params(2, 1, 4)).seed(3);
        let mut run = scenario.build();
        assert_eq!(run.completed_ops(), 0);
        let mut steps = 0;
        while run.step().unwrap() {
            steps += 1;
        }
        assert!(steps > 0);
        assert_eq!(run.completed_ops(), 4); // 2 writes + 2 reads
                                            // Once finished, further steps are no-ops.
        assert!(!run.step().unwrap());
        let report = run.into_report();
        assert!(report.is_consistent());
    }

    #[test]
    fn stepwise_and_one_shot_runs_are_identical() {
        let scenario = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::ConcurrentReadWrite { rounds: 2 })
            .scheduler(SchedulerSpec::Fair)
            .seed(21);
        let one_shot = scenario.run().unwrap();
        let mut stepped = scenario.build();
        while stepped.step().unwrap() {}
        let stepped = stepped.into_report();
        assert_eq!(one_shot.history, stepped.history);
    }

    #[test]
    fn mid_run_crash_is_survivable_and_observable() {
        let p = params(2, 1, 4);
        let scenario = Scenario::new(p).seed(8);
        let mut run = scenario.build();
        while run.completed_ops() < 1 {
            run.step().unwrap();
        }
        run.crash_server(ServerId::new(p.n - 1)).unwrap();
        run.run().unwrap();
        assert!(run.sim().is_server_crashed(ServerId::new(p.n - 1)));
        let report = run.into_report();
        assert!(report.is_consistent(), "{:?}", report.check_violation);
    }

    #[test]
    fn explicit_workload_steps_are_used_verbatim() {
        use crate::generator::WorkloadOp;
        let steps = vec![
            WorkloadOp {
                issuer: Issuer::Writer(0),
                op: HighOp::Write(77),
                sequential: true,
            },
            WorkloadOp {
                issuer: Issuer::Reader(0),
                op: HighOp::Read,
                sequential: true,
            },
        ];
        let report = Scenario::new(params(2, 1, 4))
            .workload_steps(Workload::from_steps(steps))
            .seed(4)
            .run()
            .unwrap();
        assert_eq!(report.completed_ops, 2);
        let read = report.history.ops().last().unwrap();
        assert_eq!(
            read.returned.map(|(_, r)| r),
            Some(HighResponse::ReadValue(77))
        );
    }

    #[test]
    fn crash_plan_specs_instantiate_within_the_fault_budget() {
        let p = params(3, 2, 7);
        let plan = CrashPlanSpec::CrashF.instantiate(p);
        assert_eq!(plan.remaining(), 2);
        assert!(plan.servers().all(|s| s.index() >= p.n - p.f));
        assert_eq!(CrashPlanSpec::None.instantiate(p).remaining(), 0);
        let report = Scenario::new(p)
            .crashes(CrashPlanSpec::CrashF)
            .seed(5)
            .run()
            .unwrap();
        assert!(report.is_consistent());
    }

    #[test]
    fn crash_clients_spec_abandons_and_stays_consistent() {
        let p = params(2, 1, 4);
        assert_eq!(CrashPlanSpec::CrashClients.instantiate(p).remaining(), 0);
        assert_eq!(
            CrashPlanSpec::CrashClients.client_crashes(p),
            vec![(10, Issuer::Writer(1)), (20, Issuer::Reader(0))]
        );
        // A long enough workload that both crash times land mid-run.
        let report = Scenario::new(p)
            .workload(WorkloadSpec::WriteSequential {
                rounds: 3,
                read_after_each: true,
            })
            .crashes(CrashPlanSpec::CrashClients)
            .seed(11)
            .run()
            .unwrap();
        assert!(report.is_consistent(), "{:?}", report.check_violation);
        assert!(report.is_fully_checked());
        // The crashed clients stopped issuing: fewer ops complete than the
        // workload describes, but the run still terminates cleanly.
        assert!(report.completed_ops > 0);
        assert!(report.completed_ops < 12);
        // Identical scenario values replay the identical run.
        let again = Scenario::new(p)
            .workload(WorkloadSpec::WriteSequential {
                rounds: 3,
                read_after_each: true,
            })
            .crashes(CrashPlanSpec::CrashClients)
            .seed(11)
            .run()
            .unwrap();
        assert_eq!(report.history, again.history);
        assert_eq!(report.completed_ops, again.completed_ops);
    }

    #[test]
    fn spec_names_round_trip() {
        for s in SchedulerSpec::ALL {
            assert_eq!(SchedulerSpec::from_name(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        for c in CrashPlanSpec::ALL {
            assert_eq!(CrashPlanSpec::from_name(c.name()), Some(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!(SchedulerSpec::from_name("nope"), None);
        assert_eq!(CrashPlanSpec::from_name("nope"), None);
    }

    #[test]
    fn bounded_recording_modes_leave_metrics_untouched() {
        let scenario = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::RandomMixed {
                readers: 2,
                total: 12,
                write_percent: 50,
            })
            .seed(41);
        let full = scenario.run().unwrap();
        assert!(full.is_fully_checked());
        for mode in [
            RecordingModeSpec::Digest,
            RecordingModeSpec::Ring(1024),
            RecordingModeSpec::Ring(1),
        ] {
            let bounded = scenario.clone().recording(mode).run().unwrap();
            assert_eq!(bounded.metrics, full.metrics, "{mode}");
            assert_eq!(bounded.completed_ops, full.completed_ops, "{mode}");
            assert_eq!(bounded.history, full.history, "{mode}");
        }
    }

    #[test]
    fn ring_recording_checks_online_with_full_coverage() {
        let scenario = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::ConcurrentReadWrite { rounds: 2 })
            .check(ConsistencyCheck::WsRegular)
            .seed(9);
        let full = scenario.run().unwrap();
        let ring = scenario
            .clone()
            .recording(RecordingModeSpec::Ring(1024))
            .run()
            .unwrap();
        assert!(ring.is_fully_checked(), "{:?}", ring.check_coverage);
        assert_eq!(ring.is_consistent(), full.is_consistent());
        assert_eq!(ring.check_coverage, crate::runner::CheckCoverage::Complete);
    }

    #[test]
    fn tiny_rings_report_truncated_instead_of_guessing() {
        // A one-event window cannot cover a whole engine step, so the online
        // checker must miss events and say so.
        let report = Scenario::new(params(2, 1, 4))
            .recording(RecordingModeSpec::Ring(1))
            .check(ConsistencyCheck::WsRegular)
            .seed(3)
            .run()
            .unwrap();
        assert!(!report.is_fully_checked());
        assert_eq!(
            report.check_coverage,
            crate::runner::CheckCoverage::Truncated
        );
        // No violation was *observed*; the report does not claim one.
        assert!(report.check_violation.is_none());
    }

    #[test]
    fn digest_recording_is_metrics_only() {
        let scenario = Scenario::new(params(2, 1, 4)).seed(5);
        let report = scenario
            .clone()
            .recording(RecordingModeSpec::Digest)
            .run()
            .unwrap();
        assert_eq!(
            report.check_coverage,
            crate::runner::CheckCoverage::NotRecorded
        );
        assert!(report.check_violation.is_none());
        // With no check requested there is nothing to miss.
        let unchecked = scenario
            .recording(RecordingModeSpec::Digest)
            .check(ConsistencyCheck::None)
            .run()
            .unwrap();
        assert!(unchecked.is_fully_checked());
    }

    #[test]
    fn ring_runs_retain_at_most_the_capacity() {
        let scenario = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::RandomMixed {
                readers: 1,
                total: 20,
                write_percent: 60,
            })
            .recording(RecordingModeSpec::Ring(16))
            .seed(77);
        let mut run = scenario.build();
        assert_eq!(run.sim().recording_mode(), RecordingModeSpec::Ring(16));
        run.run().unwrap();
        let history = run.history();
        assert!(history.total_events() > 16);
        assert!(history.peak_retained_events() <= 16);
        // Digest runs retain nothing at all.
        let mut run = Scenario::new(params(2, 1, 4))
            .recording(RecordingModeSpec::Digest)
            .seed(77)
            .build();
        run.run().unwrap();
        assert_eq!(run.history().peak_retained_events(), 0);
        assert_eq!(run.history().retained_events(), 0);
        assert!(run.history().total_events() > 0);
    }

    #[test]
    fn crashed_clients_abandon_their_ops_and_the_run_completes() {
        // Writer 0 crashes while its second write is in flight; the rest of
        // the workload (other clients) must still complete, the report must
        // count the abandoned op as pending, and the online verdict must
        // stay complete — the abandoned write no longer pins the checker's
        // window.
        use crate::generator::WorkloadOp;
        use regemu_fpsm::HighOp;
        let steps = vec![
            WorkloadOp {
                issuer: Issuer::Writer(0),
                op: HighOp::Write(1),
                sequential: true,
            },
            WorkloadOp {
                issuer: Issuer::Writer(0),
                op: HighOp::Write(2),
                sequential: false,
            },
            WorkloadOp {
                issuer: Issuer::Reader(0),
                op: HighOp::Read,
                sequential: true,
            },
            // Skipped: the writer is dead by the time the cursor gets here.
            WorkloadOp {
                issuer: Issuer::Writer(0),
                op: HighOp::Write(3),
                sequential: true,
            },
            WorkloadOp {
                issuer: Issuer::Reader(1),
                op: HighOp::Read,
                sequential: true,
            },
        ];
        for recording in [RecordingModeSpec::Full, RecordingModeSpec::Ring(1024)] {
            let scenario = Scenario::new(params(2, 1, 4))
                .workload_steps(Workload::from_steps(steps.clone()))
                .recording(recording)
                .check(ConsistencyCheck::WsRegular)
                .seed(12);
            let mut run = scenario.build();
            // Drive until the second write is in flight, then kill writer 0.
            while run.completed_ops() < 1 {
                run.step().unwrap();
            }
            while run.sim().invoked_high_count() < 2 {
                run.step().unwrap();
            }
            let writer = ClientId::new(0);
            assert!(run.sim().current_high_op(writer).is_some());
            run.engine.crash_client(writer).unwrap();
            assert!(run.sim().is_client_crashed(writer));
            run.run().unwrap_or_else(|e| panic!("{recording}: {e}"));
            let report = run.into_report();
            // Both reads completed; write 3 was skipped; write 2 is pending.
            assert_eq!(report.completed_ops, 3, "{recording}");
            let pending: Vec<_> = report
                .history
                .ops()
                .iter()
                .filter(|o| !o.is_complete())
                .collect();
            assert_eq!(pending.len(), 1, "{recording}");
            assert_eq!(pending[0].op, HighOp::Write(2));
            assert!(
                report.is_fully_checked(),
                "{recording}: {:?}",
                report.check_coverage
            );
            assert!(
                report.is_consistent(),
                "{recording}: {:?}",
                report.check_violation
            );
        }
    }

    #[test]
    fn folded_interval_eviction_bounds_the_digest() {
        let base = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::RandomMixed {
                readers: 2,
                total: 200,
                write_percent: 50,
            })
            .recording(RecordingModeSpec::Ring(1024))
            .check(ConsistencyCheck::WsRegular)
            .seed(33);
        let mut plain = base.clone().build();
        plain.run().unwrap();
        let full_intervals = plain.history().retained_intervals();
        assert_eq!(full_intervals as u64, plain.history().total_intervals());
        let plain_metrics = plain.metrics();

        let mut evicting = base.clone().evict_folded_intervals().build();
        evicting.run().unwrap();
        let history = evicting.history();
        assert_eq!(history.total_intervals(), full_intervals as u64);
        assert!(
            history.peak_retained_intervals() < full_intervals / 4,
            "peak {} of {} intervals retained",
            history.peak_retained_intervals(),
            full_intervals
        );
        // Metrics and the verdict are untouched by eviction.
        assert_eq!(evicting.metrics(), plain_metrics);
        let report = evicting.into_report();
        assert!(report.is_fully_checked());
        assert!(report.is_consistent(), "{:?}", report.check_violation);
        assert_eq!(report.completed_ops, 200);

        // Without an online checker the flag is inert.
        let mut unchecked = base
            .recording(RecordingModeSpec::Full)
            .evict_folded_intervals()
            .build();
        unchecked.run().unwrap();
        assert_eq!(
            unchecked.history().retained_intervals() as u64,
            unchecked.history().total_intervals()
        );
    }

    #[test]
    fn drain_reaches_quiescence_under_fair_scheduling() {
        let report = Scenario::new(params(2, 1, 4))
            .workload(WorkloadSpec::ConcurrentReadWrite { rounds: 1 })
            .seed(17)
            .drain()
            .run()
            .unwrap();
        assert!(report.is_consistent());
        assert_eq!(
            report.metrics.low_level_triggers,
            report.metrics.low_level_responses
        );
    }

    #[test]
    fn adversarial_drain_stops_at_blocked_quiescence() {
        // Under the covering adversary the blocked writes are never
        // delivered: the drain must settle instead of erroring.
        let report = Scenario::new(params(2, 1, 4))
            .scheduler(SchedulerSpec::CoverAdversary)
            .seed(17)
            .drain()
            .run()
            .unwrap();
        assert!(report.is_consistent());
    }
}
