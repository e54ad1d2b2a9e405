//! Kept list ≡ rescan.
//!
//! Every scheduler picks from a candidate list the shared step loop keeps
//! across steps: it drops what left the pending set or was stranded by a
//! crash, and asks the block strategy, if there is one, about each operation
//! once — a verdict is final. Each scheduler — fair, round-robin, delayed,
//! the Cover and Silence adversaries, and a fair driver replaying recorded
//! ranks — is held against a [`Reference`] that rebuilds its pick from
//! `Simulation::deliverable_ops` on every step, with its own seeded draw. The
//! two must be indistinguishable: the same event history, the same
//! per-delivery [`DecisionRecord`] stream, the same `step` results and the
//! same operations left pending, for every construction, crash plan and
//! seed — also when somebody other than the scheduler delivers, drops and
//! crashes between its steps.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use regemu_adversary::strategy::{CoverWrites, SilenceServers};
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{
    AdversarialScheduler, BlockStrategy, ClientId, CrashPlan, DecisionRecord, DelayedScheduler,
    Event, FairDriver, HighOp, OpId, PendingOp, RoundRobinScheduler, Scheduler, ServerId, SimError,
    Simulation, Time,
};
use std::cell::Cell;
use std::rc::Rc;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Fair,
    RoundRobin,
    Delayed,
    Cover,
    Silence,
    Replay,
}

const KINDS: [Kind; 6] = [
    Kind::Fair,
    Kind::RoundRobin,
    Kind::Delayed,
    Kind::Cover,
    Kind::Silence,
    Kind::Replay,
];

impl Kind {
    /// The scheduler under test.
    fn scheduler(self, seed: u64, plan: CrashPlan) -> Box<dyn Scheduler> {
        match self {
            Kind::Fair => Box::new(FairDriver::new(seed).with_crash_plan(plan)),
            Kind::RoundRobin => Box::new(RoundRobinScheduler::new(seed).with_crash_plan(plan)),
            Kind::Delayed => Box::new(
                DelayedScheduler::new(seed, DelayedScheduler::DEFAULT_MAX_DELAY)
                    .with_crash_plan(plan),
            ),
            Kind::Cover | Kind::Silence => Box::new(
                AdversarialScheduler::new(seed, self.strategy().unwrap()).with_crash_plan(plan),
            ),
            Kind::Replay => {
                Box::new(FairDriver::replaying(seed, self.ranks(seed)).with_crash_plan(plan))
            }
        }
    }

    fn strategy(self) -> Option<Box<dyn BlockStrategy>> {
        let params = params();
        match self {
            Kind::Cover => Some(Box::new(CoverWrites::highest(params.n, params.f))),
            Kind::Silence => Some(Box::new(SilenceServers::highest(params.n, params.f))),
            _ => None,
        }
    }

    /// Ranks to replay: arbitrary `u32`s, running out a third of the way
    /// into the run so that the seeded tail takes over.
    fn ranks(self, seed: u64) -> Vec<u32> {
        if !matches!(self, Kind::Replay) {
            return Vec::new();
        }
        let mut stream = Stream(seed ^ 0x0AA7_5EED);
        (0..ROUNDS / 3).map(|_| stream.next() as u32).collect()
    }

    /// The same scheduler, rebuilt from `deliverable_ops()` on every step.
    fn reference(self, seed: u64, crash: Option<(Time, ServerId)>) -> Reference {
        Reference {
            kind: self,
            strategy: self.strategy(),
            rng: StdRng::seed_from_u64(seed),
            replay: self.ranks(seed).into_iter(),
            next_client: seed,
            delays: DelayedScheduler::new(seed, DelayedScheduler::DEFAULT_MAX_DELAY),
            crash,
        }
    }
}

/// A scheduler as it would be written without a kept list: its crash, then
/// a pick from every deliverable operation its strategy (asked again on
/// every step) does not block.
struct Reference {
    kind: Kind,
    strategy: Option<Box<dyn BlockStrategy>>,
    /// The seeded uniform draw of fair, adversarial and replay picks.
    rng: StdRng,
    replay: std::vec::IntoIter<u32>,
    /// The round-robin cursor.
    next_client: u64,
    /// Kept for `delay_of` only; it never steps.
    delays: DelayedScheduler,
    /// The crash plan, held here because [`CrashPlan`] cannot be read back.
    crash: Option<(Time, ServerId)>,
}

impl Scheduler for Reference {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        if let Some((_, server)) = self.crash.filter(|(at, _)| *at <= sim.time()) {
            self.crash = None;
            sim.crash_server(server)?;
        }
        let strategy = &mut self.strategy;
        let candidates: Vec<PendingOp> = sim
            .deliverable_ops()
            .filter(|p| !strategy.as_mut().is_some_and(|s| s.blocks(sim, p)))
            .copied()
            .collect();
        let chosen = match self.kind {
            Kind::RoundRobin => {
                let clients = sim.client_count() as u64;
                let start = self.next_client % clients;
                let chosen = candidates
                    .iter()
                    .map(|p| {
                        let distance = (p.client.index() as u64 + clients - start) % clients;
                        (distance, p.op_id, p.client)
                    })
                    .min();
                chosen.map(|(_, op, client)| {
                    self.next_client = client.index() as u64 + 1;
                    op
                })
            }
            Kind::Delayed => candidates
                .iter()
                .map(|p| (p.triggered_at + self.delays.delay_of(p.op_id), p.op_id))
                .min()
                .map(|(_, op)| op),
            Kind::Fair | Kind::Cover | Kind::Silence | Kind::Replay => candidates
                .choose(&mut self.rng)
                .map(|drawn| match self.replay.next() {
                    Some(rank) => candidates[rank as usize % candidates.len()].op_id,
                    None => drawn.op_id,
                }),
        };
        let Some(op) = chosen else {
            return Ok(false);
        };
        sim.deliver(op)?;
        Ok(true)
    }
}

/// The crash plans of the sweep axis, spelled out against the engine, and
/// one that no scheduler knows about.
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

const CRASHES: [Crashes; 4] = [
    Crashes::None,
    Crashes::ServersF,
    Crashes::Clients,
    Crashes::ByTheTest,
];

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
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Everything an observer can tell about a run.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<Event>,
    decisions: Vec<DecisionRecord>,
    /// What each `Scheduler::step` returned.
    delivered: Vec<bool>,
    /// The operations still pending at the end.
    left: Vec<OpId>,
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
        events: sim.history().events().collect(),
        decisions: sim.decision_trace().to_vec(),
        delivered,
        left: sim.pending_ops().map(|p| p.op_id).collect(),
    }
}

fn assert_every_scheduler_matches_its_reference(interfere: bool) {
    for scheduler in KINDS {
        let (mut steps, mut left) = (0, 0);
        for kind in EmulationKind::ALL {
            for crashes in CRASHES {
                for seed in 0..16 {
                    let kept = run(
                        kind,
                        scheduler.scheduler(seed, crashes.plan()),
                        crashes,
                        seed,
                        interfere,
                    );
                    let reference = run(
                        kind,
                        Box::new(scheduler.reference(seed, crashes.planned())),
                        crashes,
                        seed,
                        interfere,
                    );
                    assert_eq!(
                        kept, reference,
                        "{kind} {scheduler:?} {crashes:?} seed {seed} interfere {interfere}"
                    );
                    steps += kept.delivered.iter().filter(|d| **d).count();
                    left += kept.left.len();
                }
            }
        }
        // The grid must exercise what it claims to: plenty of deliveries,
        // and operations still withheld or stranded on a crashed server when
        // the runs end, for the kept list to step around.
        assert!(
            steps > 10_000,
            "{scheduler:?}: only {steps} deliveries over the grid"
        );
        assert!(
            left > 100,
            "{scheduler:?}: only {left} operations left pending"
        );
    }
}

#[test]
fn every_scheduler_picks_what_a_rescan_of_deliverable_ops_picks() {
    assert_every_scheduler_matches_its_reference(false);
}

#[test]
fn outside_interference_keeps_every_scheduler_on_its_reference() {
    assert_every_scheduler_matches_its_reference(true);
}

/// Counts `blocks` calls.
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
}

#[test]
fn a_strategy_is_asked_once_per_operation() {
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
