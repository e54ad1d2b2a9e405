//! Fast path ≡ rescan path.
//!
//! [`CoverWrites`] and [`SilenceServers`] declare their verdicts final, so
//! [`AdversarialScheduler`] asks them once per operation and keeps its list
//! of deliverable, unblocked operations across steps. Behind a wrapper that
//! forwards only `blocks` and `name` the same strategy is consulted about
//! every pending operation on every step — the behaviour every recorded
//! artifact was produced under. The two must be indistinguishable: the same
//! event history, the same per-delivery [`DecisionRecord`] stream, the same
//! `step` results, for every construction, crash plan and seed — also when
//! somebody other than the scheduler delivers, drops and crashes between its
//! steps.
//!
//! [`FairDriver`], [`RoundRobinScheduler`] and [`DelayedScheduler`] pick from
//! the same kept list, so each is held to the same standard against a
//! [`Reference`] that rebuilds its pick from `Simulation::deliverable_ops`
//! on every step, the way each of them did before the step loop was shared.

use regemu_adversary::strategy::{CoverWrites, SilenceServers};
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{
    AdversarialScheduler, BlockStrategy, ClientId, CrashPlan, DecisionRecord, DelayedScheduler,
    Event, FairDriver, HighOp, OpId, PendingOp, RoundRobinScheduler, Scheduler, ServerId, SimError,
    Simulation, Time,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Forwards `blocks` and `name` only: `verdicts_are_final` stays at its
/// default, which forces the per-step rescan.
#[derive(Debug)]
struct Opaque(Box<dyn BlockStrategy>);

impl BlockStrategy for Opaque {
    fn blocks(&mut self, sim: &Simulation, op: &PendingOp) -> bool {
        self.0.blocks(sim, op)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[derive(Clone, Copy, Debug)]
enum Adversary {
    Cover,
    Silence,
}

impl Adversary {
    /// The scheduler under test, or — with `rescan` — the same strategy made
    /// opaque so that it is consulted about everything on every step.
    fn scheduler(self, rescan: bool, seed: u64, plan: CrashPlan) -> Box<dyn Scheduler> {
        let params = params();
        let strategy: Box<dyn BlockStrategy> = match self {
            Adversary::Cover => Box::new(CoverWrites::highest(params.n, params.f)),
            Adversary::Silence => Box::new(SilenceServers::highest(params.n, params.f)),
        };
        assert!(strategy.verdicts_are_final());
        let strategy: Box<dyn BlockStrategy> = if rescan {
            Box::new(Opaque(strategy))
        } else {
            strategy
        };
        assert_eq!(strategy.verdicts_are_final(), !rescan);
        Box::new(AdversarialScheduler::new(seed, strategy).with_crash_plan(plan))
    }
}

/// The schedulers that withhold nothing.
#[derive(Clone, Copy, Debug)]
enum Plain {
    Fair,
    RoundRobin,
    Delayed,
}

impl Plain {
    fn scheduler(self, seed: u64, plan: CrashPlan) -> Box<dyn Scheduler> {
        match self {
            Plain::Fair => Box::new(FairDriver::new(seed).with_crash_plan(plan)),
            Plain::RoundRobin => Box::new(RoundRobinScheduler::new(seed).with_crash_plan(plan)),
            Plain::Delayed => Box::new(
                DelayedScheduler::new(seed, DelayedScheduler::DEFAULT_MAX_DELAY)
                    .with_crash_plan(plan),
            ),
        }
    }

    fn reference(self, seed: u64, crash: Option<(Time, ServerId)>) -> Box<dyn Scheduler> {
        let pick = match self {
            Plain::Fair => {
                let asked = Rc::new(RefCell::new(Vec::new()));
                let strategy = Box::new(AskedAbout(Rc::clone(&asked)));
                Pick::Fair(AdversarialScheduler::new(seed, strategy), asked)
            }
            Plain::RoundRobin => Pick::RoundRobin(seed),
            Plain::Delayed => Pick::Delayed(DelayedScheduler::new(
                seed,
                DelayedScheduler::DEFAULT_MAX_DELAY,
            )),
        };
        Box::new(Reference { pick, crash })
    }
}

/// A plain scheduler as it was before the step loop was shared: its crash,
/// then a pick rebuilt from `sim.deliverable_ops()`.
struct Reference {
    pick: Pick,
    /// The crash plan, held here because [`CrashPlan`] cannot be read back.
    crash: Option<(Time, ServerId)>,
}

enum Pick {
    /// The seeded uniform draw is not reachable from this crate, so it is
    /// made by an [`AdversarialScheduler`] whose strategy opts out of final
    /// verdicts: every step it starts from an empty list and asks
    /// [`AskedAbout`] about each operation it would choose from. The list
    /// asked about must be `deliverable_ops()`, element for element.
    Fair(AdversarialScheduler, Rc<RefCell<Vec<OpId>>>),
    /// The rotation cursor.
    RoundRobin(u64),
    /// Kept for `delay_of` only; it never steps.
    Delayed(DelayedScheduler),
}

/// Blocks nothing and writes down what it is asked about.
#[derive(Debug)]
struct AskedAbout(Rc<RefCell<Vec<OpId>>>);

impl BlockStrategy for AskedAbout {
    fn blocks(&mut self, _sim: &Simulation, op: &PendingOp) -> bool {
        self.0.borrow_mut().push(op.op_id);
        false
    }
}

impl Scheduler for Reference {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        if let Some((_, server)) = self.crash.filter(|(at, _)| *at <= sim.time()) {
            self.crash = None;
            sim.crash_server(server)?;
        }
        let chosen = match &mut self.pick {
            Pick::Fair(scheduler, asked) => {
                let deliverable: Vec<OpId> = sim.deliverable_ops().map(|p| p.op_id).collect();
                asked.borrow_mut().clear();
                let delivered = scheduler.step(sim)?;
                assert_eq!(*asked.borrow(), deliverable);
                return Ok(delivered);
            }
            Pick::RoundRobin(next_client) => {
                let clients = sim.client_count() as u64;
                let start = *next_client % clients;
                let chosen = sim
                    .deliverable_ops()
                    .map(|p| {
                        let distance = (p.client.index() as u64 + clients - start) % clients;
                        (distance, p.op_id, p.client)
                    })
                    .min();
                chosen.map(|(_, op, client)| {
                    *next_client = client.index() as u64 + 1;
                    op
                })
            }
            Pick::Delayed(delays) => sim
                .deliverable_ops()
                .map(|p| (p.triggered_at + delays.delay_of(p.op_id), p.op_id))
                .min()
                .map(|(_, op)| op),
        };
        let Some(op) = chosen else {
            return Ok(false);
        };
        sim.deliver(op)?;
        Ok(true)
    }
}

/// The three crash plans of the sweep axis, spelled out against the engine,
/// and one that no scheduler knows about.
#[derive(Clone, Copy, Debug)]
enum Crashes {
    None,
    /// The `f` highest-numbered servers, through the scheduler's own crash
    /// plan. Later than the sweep axis's time 5, which fires before the first
    /// delivery: here the crash must land on a list that already holds
    /// candidates on that server.
    ServersF,
    /// The last writer once the clock passes 10, the first reader at 20.
    Clients,
    /// The same server as `ServersF`, crashed by the test a third of the way
    /// into the run.
    ByTheTest,
}

impl Crashes {
    /// What the scheduler's own crash plan holds.
    fn planned(self) -> Option<(Time, ServerId)> {
        matches!(self, Crashes::ServersF).then(|| (40, last_server()))
    }

    fn plan(self) -> CrashPlan {
        self.planned().map_or_else(CrashPlan::none, |(at, server)| {
            CrashPlan::none().crash_at(at, server)
        })
    }
}

fn params() -> Params {
    Params::new(2, 1, 4).unwrap()
}

fn last_server() -> ServerId {
    ServerId::new(params().n - 1)
}

/// SplitMix64: the environment's own stream, independent of the scheduler's.
struct Stream(u64);

impl Stream {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// Everything an observer can tell about a run.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<Event>,
    decisions: Vec<DecisionRecord>,
    /// What each `Scheduler::step` returned.
    delivered: Vec<bool>,
    withheld: Vec<OpId>,
}

const ROUNDS: usize = 240;

/// Drives one seeded run of `ROUNDS` steps of `scheduler`, which must already
/// hold `crashes`' plan. Between steps the environment starts operations at
/// idle clients and — with `interfere` — delivers, drops and crashes behind
/// the scheduler's back. Everything the environment does is drawn from
/// `seed`, so twins see the same interference as long as they make the same
/// picks.
fn run(
    kind: EmulationKind,
    mut scheduler: Box<dyn Scheduler>,
    crashes: Crashes,
    seed: u64,
    interfere: bool,
) -> Trace {
    let emulation = kind.build(params());
    let mut sim = emulation.build_simulation();
    sim.enable_decision_trace();
    let clients: Vec<ClientId> = vec![
        sim.register_client(emulation.writer_protocol(0)),
        sim.register_client(emulation.writer_protocol(1)),
        sim.register_client(emulation.reader_protocol()),
        sim.register_client(emulation.reader_protocol()),
    ];
    let (last_writer, first_reader) = (clients[1], clients[2]);
    let last_server = last_server();

    let mut env = Stream(seed ^ 0x5EED_0FE2);
    let mut next_value = 0;
    let mut delivered = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        for (slot, &client) in clients.iter().enumerate() {
            if sim.is_client_idle(client) && env.below(3) == 0 {
                let op = if slot < 2 {
                    next_value += 1;
                    HighOp::Write(next_value)
                } else {
                    HighOp::Read
                };
                sim.invoke(client, op).unwrap();
            }
        }
        if matches!(crashes, Crashes::Clients) {
            if sim.time() >= 10 {
                sim.crash_client(last_writer).unwrap();
            }
            if sim.time() >= 20 {
                sim.crash_client(first_reader).unwrap();
            }
        }
        if matches!(crashes, Crashes::ByTheTest) && round == ROUNDS / 3 {
            sim.crash_server(last_server).unwrap();
        }
        if interfere {
            // Any pending operation may be hit: ones the scheduler holds as
            // candidates, ones the strategy withholds, ones stranded on a
            // crashed server.
            let pending: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
            match env.below(6) {
                0 if !pending.is_empty() => {
                    let op = pending[env.below(pending.len())];
                    let server = sim.pending_op(op).unwrap().server;
                    if !sim.is_server_crashed(server) {
                        sim.deliver(op).unwrap();
                    }
                }
                1 if !pending.is_empty() => {
                    sim.drop_pending(pending[env.below(pending.len())]).unwrap();
                }
                // The server the adversary targets: under `Cover` its reads
                // are candidates until this moment. Re-crashing is a no-op,
                // so this composes with the crash plan inside one budget.
                2 if round >= ROUNDS / 3 => sim.crash_server(last_server).unwrap(),
                _ => {}
            }
        }
        // `UnknownOp` / `ServerCrashed` here would mean the scheduler picked
        // from a stale list.
        let step = scheduler.step(&mut sim).unwrap_or_else(|e| {
            panic!(
                "{kind} {} {crashes:?} seed {seed} round {round}: {e}",
                scheduler.name()
            )
        });
        delivered.push(step);
    }
    Trace {
        events: sim.history().events().copied().collect(),
        decisions: sim.decision_trace().to_vec(),
        delivered,
        withheld: sim.pending_ops().map(|p| p.op_id).collect(),
    }
}

fn assert_twins_agree(interfere: bool) {
    let (mut steps, mut withheld) = (0, 0);
    for kind in EmulationKind::ALL {
        for adversary in [Adversary::Cover, Adversary::Silence] {
            for crashes in [Crashes::None, Crashes::ServersF, Crashes::Clients] {
                for seed in 0..16 {
                    let twin = |rescan| adversary.scheduler(rescan, seed, crashes.plan());
                    let fast = run(kind, twin(false), crashes, seed, interfere);
                    let rescan = run(kind, twin(true), crashes, seed, interfere);
                    assert_eq!(
                        fast, rescan,
                        "{kind} {adversary:?} {crashes:?} seed {seed} interfere {interfere}"
                    );
                    steps += fast.delivered.iter().filter(|d| **d).count();
                    withheld += fast.withheld.len();
                }
            }
        }
    }
    // The grid must exercise what it claims to: plenty of deliveries, and
    // operations still withheld when the runs end.
    assert!(steps > 10_000, "only {steps} deliveries over the grid");
    assert!(withheld > 100, "only {withheld} operations left withheld");
}

fn assert_plain_schedulers_match_their_references(interfere: bool) {
    let (mut steps, mut stranded) = (0, 0);
    for kind in EmulationKind::ALL {
        for plain in [Plain::Fair, Plain::RoundRobin, Plain::Delayed] {
            for crashes in [Crashes::None, Crashes::ServersF, Crashes::ByTheTest] {
                for seed in 0..16 {
                    let kept = plain.scheduler(seed, crashes.plan());
                    let reference = plain.reference(seed, crashes.planned());
                    let kept = run(kind, kept, crashes, seed, interfere);
                    let reference = run(kind, reference, crashes, seed, interfere);
                    assert_eq!(
                        kept, reference,
                        "{kind} {plain:?} {crashes:?} seed {seed} interfere {interfere}"
                    );
                    steps += kept.delivered.iter().filter(|d| **d).count();
                    stranded += kept.withheld.len();
                }
            }
        }
    }
    // Plenty of deliveries, and operations left stranded on the crashed
    // server for the kept list to step around.
    assert!(steps > 10_000, "only {steps} deliveries over the grid");
    assert!(stranded > 100, "only {stranded} operations left stranded");
}

#[test]
fn plain_schedulers_pick_what_a_rescan_of_deliverable_ops_picks() {
    assert_plain_schedulers_match_their_references(false);
}

#[test]
fn outside_interference_keeps_plain_schedulers_on_their_references() {
    assert_plain_schedulers_match_their_references(true);
}

#[test]
fn final_strategies_run_identically_with_and_without_the_rescan() {
    assert_twins_agree(false);
}

#[test]
fn outside_interference_between_steps_keeps_the_twins_identical() {
    assert_twins_agree(true);
}

/// Counts `blocks` calls and *does* forward `verdicts_are_final`.
#[derive(Debug)]
struct Counting {
    inner: CoverWrites,
    calls: Rc<Cell<u64>>,
}

impl BlockStrategy for Counting {
    fn blocks(&mut self, sim: &Simulation, op: &PendingOp) -> bool {
        self.calls.set(self.calls.get() + 1);
        self.inner.blocks(sim, op)
    }

    fn verdicts_are_final(&self) -> bool {
        self.inner.verdicts_are_final()
    }
}

#[test]
fn a_final_strategy_is_asked_once_per_operation() {
    let params = Params::new(2, 1, 4).unwrap();
    let emulation = EmulationKind::RegisterBank.build(params);
    let mut sim = emulation.build_simulation();
    let writer = sim.register_client(emulation.writer_protocol(0));
    let calls = Rc::new(Cell::new(0));
    let mut scheduler = AdversarialScheduler::new(
        3,
        Box::new(Counting {
            inner: CoverWrites::highest(params.n, params.f),
            calls: Rc::clone(&calls),
        }),
    );
    for value in 1..=50 {
        let write = sim.invoke(writer, HighOp::Write(value)).unwrap();
        scheduler
            .run_until_complete(&mut sim, write, 10_000)
            .unwrap();
    }
    scheduler.run_until_quiescent(&mut sim, 10_000).unwrap();
    assert!(sim.pending_count() >= 20, "covering writes must pile up");
    // No crashes in this run, so every operation ever triggered was seen
    // deliverable exactly once.
    assert_eq!(calls.get(), sim.next_op_id().index());
}
