//! Pluggable schedulers: the common interface every run driver implements.
//!
//! The [`crate::sim::Simulation`] engine is passive — *something* must decide
//! which enabled action happens next. That something is a [`Scheduler`]. The
//! trait captures exactly the contract the experiment layers rely on, so fair
//! drivers, deterministic round-robins and adversarial block/unblock
//! strategies are interchangeable everywhere a run is driven (scenarios,
//! sweeps, examples, the benchmark).
//!
//! Four implementations ship with the workspace:
//!
//! * [`crate::driver::FairDriver`] — seeded pseudo-random fair scheduling
//!   (the default; realizes the paper's fair runs);
//! * [`RoundRobinScheduler`] — deterministic client-rotation scheduling, the
//!   worst case for protocols that rely on randomized luck;
//! * [`DelayedScheduler`] — deterministic seed-derived per-message delivery
//!   delays, modelling a network with a delay distribution;
//! * [`AdversarialScheduler`] — fair scheduling restricted by a pluggable
//!   [`BlockStrategy`]; the `regemu-adversary` crate provides strategies that
//!   withhold responses the way the lower-bound adversary `Ad_i` does.
//!
//! All four take the same step, written once in [`crate::driver`]: crash the
//! servers that are due, bring a candidate list kept across steps up to date,
//! choose from it, deliver. A scheduler supplies only which operations it
//! admits — judged once per operation — and which candidate it chooses. The
//! list is re-checked only after something outside the loop delivered,
//! dropped or crashed, so a step never revisits the operations withheld or
//! stranded on a crashed server, however many there are. The kept list
//! remembers which operations of *one* run were judged: a scheduler instance
//! is bound to one [`crate::sim::Simulation`].

use crate::driver::{draw_index, Candidate, CrashPlan, StepLoop};
use crate::error::SimError;
use crate::ids::{HighOpId, OpId};
use crate::sim::{PendingOp, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A run driver: decides which deliverable pending operation happens next.
///
/// # Contract
///
/// Implementations must uphold three properties the experiment harness
/// assumes:
///
/// 1. **Determinism** — a scheduler is constructed from a seed; the same
///    seed over the same simulation must produce the same delivery sequence
///    (and therefore a byte-identical [`crate::history::History`]).
/// 2. **One delivery per step** — [`Scheduler::step`] performs at most one
///    [`Simulation::deliver`] call and returns `Ok(false)` *only* when no
///    operation it is willing to deliver remains (quiescence, or everything
///    withheld). It must not spin.
/// 3. **Error propagation** — engine errors are returned, never swallowed:
///    a `false` is "nothing to do", an `Err` is "the run is broken".
///
/// [`Scheduler::run_until_complete`] and [`Scheduler::run_until_quiescent`]
/// have default implementations in terms of `step` that every implementation
/// inherits, so the contract above is all a new scheduler must provide.
///
/// ```
/// use regemu_fpsm::prelude::*;
/// use regemu_fpsm::{Scheduler, RoundRobinScheduler};
///
/// // A protocol that writes one register and completes on the ack.
/// struct OneShot(ObjectId);
/// impl ClientProtocol for OneShot {
///     fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
///         if let HighOp::Write(v) = op {
///             ctx.trigger(self.0, BaseOp::Write(Value::new(1, v)));
///         }
///     }
///     fn on_response(&mut self, _d: Delivery, ctx: &mut Context<'_>) {
///         ctx.complete(HighResponse::WriteAck);
///     }
/// }
///
/// let mut topology = Topology::new(1);
/// let obj = topology.add_object(ObjectKind::Register, ServerId::new(0));
/// let mut sim = Simulation::new(topology, SimConfig::unchecked());
/// let client = sim.register_client(Box::new(OneShot(obj)));
/// let op = sim.invoke(client, HighOp::Write(7))?;
///
/// // Any scheduler drives the same passive engine through the same API.
/// let mut scheduler: Box<dyn Scheduler> = Box::new(RoundRobinScheduler::new(0));
/// scheduler.run_until_complete(&mut sim, op, 1_000)?;
/// assert_eq!(sim.result_of(op), Some(HighResponse::WriteAck));
/// scheduler.run_until_quiescent(&mut sim, 1_000)?;
/// assert_eq!(sim.pending_count(), 0);
/// # Ok::<(), regemu_fpsm::SimError>(())
/// ```
pub trait Scheduler {
    /// Delivers one pending operation of the scheduler's choosing.
    ///
    /// Returns `Ok(true)` if an operation was delivered and `Ok(false)` if
    /// no operation this scheduler is willing to deliver remains.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. a crash plan exceeding the fault
    /// threshold).
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError>;

    /// Short name used in reports and labels.
    fn name(&self) -> &'static str {
        "scheduler"
    }

    /// Delivers operations until the high-level operation `target` completes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stuck`] if the operation has not completed after
    /// `max_steps` deliveries or no deliverable operation remains.
    fn run_until_complete(
        &mut self,
        sim: &mut Simulation,
        target: HighOpId,
        max_steps: u64,
    ) -> Result<(), SimError> {
        let mut executed = 0;
        while sim.result_of(target).is_none() {
            if executed >= max_steps || !self.step(sim)? {
                return Err(SimError::Stuck {
                    steps: executed,
                    waiting_for: format!("high-level operation {target} to complete"),
                });
            }
            executed += 1;
        }
        Ok(())
    }

    /// Delivers operations until no operation this scheduler is willing to
    /// deliver remains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stuck`] if quiescence is not reached within
    /// `max_steps` deliveries. Only a step can tell whether anything is left,
    /// so the step that finds out delivers one operation past the budget.
    fn run_until_quiescent(
        &mut self,
        sim: &mut Simulation,
        max_steps: u64,
    ) -> Result<(), SimError> {
        let mut executed = 0;
        while self.step(sim)? {
            executed += 1;
            if executed > max_steps {
                return Err(SimError::Stuck {
                    steps: executed,
                    waiting_for: "quiescence".to_string(),
                });
            }
        }
        Ok(())
    }
}

/// A deterministic round-robin scheduler.
///
/// Each step delivers the oldest pending operation of the next client in a
/// fixed rotation (clients with nothing deliverable are skipped). Compared to
/// [`crate::FairDriver`] it is fair in the strongest sense — every client is
/// served within one rotation — while being completely predictable, which
/// makes it the scheduler of choice for step-debugging a protocol. The seed
/// only offsets the rotation's starting point.
#[derive(Debug)]
pub struct RoundRobinScheduler {
    next_client: u64,
    pub(crate) core: StepLoop,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler; `seed` offsets the rotation start.
    pub fn new(seed: u64) -> Self {
        RoundRobinScheduler {
            next_client: seed,
            core: StepLoop::default(),
        }
    }

    /// Attaches a crash plan to the scheduler.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.core.crash_plan = plan;
        self
    }
}

impl Scheduler for RoundRobinScheduler {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        let clients = sim.client_count() as u64;
        self.core.step(sim, None, |candidates| {
            // Pick the candidate whose client is closest after the cursor
            // (wrapping), oldest op id first within a client.
            let start = self.next_client.checked_rem(clients)?;
            let (_, index, client) = candidates
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let distance = (c.client.index() as u64 + clients - start) % clients;
                    (distance, i, c.client)
                })
                .min()?;
            self.next_client = client.index() as u64 + 1;
            Some(index)
        })
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// A deterministic scheduler that imposes a seed-derived *delivery delay* on
/// every message (pending low-level operation).
///
/// Each pending operation is assigned a deterministic delay of
/// `0..=max_delay` ticks, derived by mixing the scheduler seed with the
/// operation id. An operation becomes *ready* `delay` ticks after it was
/// triggered; each step delivers the ready operation with the earliest
/// ready time (ties broken by operation id, so the schedule is total). When
/// nothing is ready yet the earliest-to-become-ready operation is delivered
/// anyway — logical time only advances on deliveries, so waiting would be
/// meaningless — which also makes the scheduler starvation-free: every
/// pending operation is eventually the minimum.
///
/// The effect is a message-delay *distribution* over the network rather
/// than the uniform choice of [`crate::FairDriver`]: responses from different
/// servers overtake each other in bursts, which exercises protocol paths
/// (stale reads, late acks) that uniform fairness rarely produces.
#[derive(Debug)]
pub struct DelayedScheduler {
    seed: u64,
    max_delay: u64,
    perturbation: Vec<u64>,
    pub(crate) core: StepLoop,
}

impl DelayedScheduler {
    /// Default delay bound (ticks) used by the sweepable scheduler axis.
    pub const DEFAULT_MAX_DELAY: u64 = 7;

    /// Creates a delayed scheduler with per-message delays in
    /// `0..=max_delay` ticks derived from `seed`.
    pub fn new(seed: u64, max_delay: u64) -> Self {
        DelayedScheduler {
            seed,
            max_delay,
            perturbation: Vec::new(),
            core: StepLoop::default(),
        }
    }

    /// Attaches a crash plan to the scheduler.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.core.crash_plan = plan;
        self
    }

    /// Adds a deterministic *perturbation* on top of the seed-derived
    /// delays: operation `op` gains `ticks[op.index() % ticks.len()]`
    /// extra ticks of delay (no-op when `ticks` is empty). The fuzzer uses
    /// this as a mutation operator — nudging individual delay buckets
    /// shifts whole bursts of deliveries without losing determinism, since
    /// the total delay stays a pure function of `(seed, ticks, op)`.
    pub fn with_perturbation(mut self, ticks: Vec<u64>) -> Self {
        self.perturbation = ticks;
        self
    }

    /// The deterministic delay (in ticks) assigned to operation `op`,
    /// including any perturbation from [`DelayedScheduler::with_perturbation`].
    pub fn delay_of(&self, op: OpId) -> u64 {
        delay(self.seed, self.max_delay, &self.perturbation, op)
    }
}

/// [`DelayedScheduler::delay_of`] over the scheduler's parts, so that its
/// step can ask while the step loop is borrowed.
fn delay(seed: u64, max_delay: u64, perturbation: &[u64], op: OpId) -> u64 {
    let extra = if perturbation.is_empty() {
        0
    } else {
        perturbation[op.index() as usize % perturbation.len()]
    };
    if max_delay == 0 {
        return extra;
    }
    // SplitMix64 finalizer over seed ⊕ op id: uniform enough for a delay
    // distribution, dependency-free, and stable across platforms.
    let mut x = seed ^ (op.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % (max_delay + 1) + extra
}

impl Scheduler for DelayedScheduler {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        self.core.step(sim, None, |candidates| {
            let ready = |(i, c): (usize, &Candidate)| {
                let delay = delay(self.seed, self.max_delay, &self.perturbation, c.op_id);
                (c.triggered_at + delay, i)
            };
            candidates
                .iter()
                .enumerate()
                .map(ready)
                .min()
                .map(|(_, i)| i)
        })
    }

    fn name(&self) -> &'static str {
        "delayed"
    }
}

/// A scheduling restriction: decides which pending operations are withheld.
///
/// Implementations model the paper's adversarial environments — an operation
/// for which [`BlockStrategy::blocks`] returns `true` is never chosen by the
/// [`AdversarialScheduler`]. Blocking is *allowed* to starve operations
/// forever; that is the point — an `f`-tolerant emulation must make progress
/// anyway as long as the blocked operations touch at most `f` servers.
///
/// The verdict is on an *operation*, the way `Ad_i` withholds one: the
/// scheduler asks about each operation once, at its first step after the
/// operation was triggered (unless its server has crashed by then), and the
/// answer stands until the operation leaves the pending set. A step
/// therefore never looks at an operation withheld earlier: its cost is the
/// draw among the operations the scheduler is willing to deliver and a
/// `memmove` of the entries behind the one delivered, however many are
/// withheld — and withheld operations piling up is exactly what the
/// covering adversary is for. Per-step choices, such as replaying a
/// recorded schedule, belong to the scheduler's choice instead:
/// [`crate::FairDriver::replaying`].
pub trait BlockStrategy: std::fmt::Debug {
    /// Returns `true` when `op` must be withheld.
    fn blocks(&mut self, sim: &Simulation, op: &PendingOp) -> bool;

    /// Short name used in reports and labels.
    fn name(&self) -> &'static str {
        "block-strategy"
    }
}

/// Fair scheduling restricted by a [`BlockStrategy`].
///
/// Each step delivers a uniformly random deliverable operation among the ones
/// the strategy does not block — the same seeded stream as
/// [`crate::FairDriver`], carved down by the strategy. With a strategy that
/// never blocks it is byte-for-byte a `FairDriver`.
///
/// The list of operations the scheduler is willing to deliver is the shared
/// step loop's, kept across steps: the strategy is asked about each
/// operation once, and the list holds exactly the deliverable operations it
/// did not block, in ascending id order. The list is re-checked only when
/// an operation left the pending set or a server crashed behind the loop's
/// back, so a step's cost does not grow with the withheld pile.
///
/// An instance is bound to one [`Simulation`]: its RNG stream and its memory
/// of which operations it has judged both belong to that run.
#[derive(Debug)]
pub struct AdversarialScheduler {
    rng: StdRng,
    strategy: Box<dyn BlockStrategy>,
    pub(crate) core: StepLoop,
}

impl AdversarialScheduler {
    /// Creates an adversarial scheduler with the given seed and strategy.
    pub fn new(seed: u64, strategy: Box<dyn BlockStrategy>) -> Self {
        AdversarialScheduler {
            rng: StdRng::seed_from_u64(seed),
            strategy,
            core: StepLoop::default(),
        }
    }

    /// Attaches a crash plan to the scheduler.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.core.crash_plan = plan;
        self
    }
}

impl Scheduler for AdversarialScheduler {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        self.core.step(sim, Some(self.strategy.as_mut()), |ops| {
            draw_index(&mut self.rng, ops.len())
        })
    }

    /// The strategy's name: an adversarial scheduler *is* its block
    /// strategy, so reports group by strategy rather than by the generic
    /// wrapper.
    fn name(&self) -> &'static str {
        self.strategy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientProtocol, Context, Delivery};
    use crate::driver::FairDriver;
    use crate::ids::{ObjectId, ServerId};
    use crate::object::ObjectKind;
    use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
    use crate::sim::SimConfig;
    use crate::topology::Topology;
    use crate::value::Value;

    /// Writes to all targets and completes once a majority of acks arrived.
    struct MajorityWriter {
        targets: Vec<ObjectId>,
        acks: usize,
    }

    impl ClientProtocol for MajorityWriter {
        fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
            if let HighOp::Write(v) = op {
                self.acks = 0;
                for b in &self.targets {
                    ctx.trigger(*b, BaseOp::Write(Value::new(1, v)));
                }
            }
        }

        fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
            if delivery.response == BaseResponse::WriteAck {
                self.acks += 1;
                if self.acks == self.targets.len() / 2 + 1 && !ctx.has_completed() {
                    ctx.complete(HighResponse::WriteAck);
                }
            }
        }
    }

    fn build(n: usize, f: usize) -> (Simulation, Vec<ObjectId>) {
        let mut t = Topology::new(n);
        let objs = t.add_object_per_server(ObjectKind::Register);
        (Simulation::new(t, SimConfig::with_fault_threshold(f)), objs)
    }

    fn spawn_write(sim: &mut Simulation, objs: Vec<ObjectId>) -> crate::ids::HighOpId {
        let c = sim.register_client(Box::new(MajorityWriter {
            targets: objs,
            acks: 0,
        }));
        sim.invoke(c, HighOp::Write(1)).unwrap()
    }

    #[test]
    fn run_until_quiescent_allows_exactly_its_budget() {
        // Three writes pending, nothing else ever triggered: quiescence
        // takes exactly three deliveries.
        let run = |budget| {
            let (mut sim, objs) = build(3, 1);
            spawn_write(&mut sim, objs);
            let result = RoundRobinScheduler::new(0).run_until_quiescent(&mut sim, budget);
            (result, sim.pending_count())
        };
        assert_eq!(run(3), (Ok(()), 0));
        let (result, _) = run(2);
        assert!(
            matches!(result, Err(SimError::Stuck { steps: 3, .. })),
            "{result:?}"
        );
    }

    #[test]
    fn round_robin_completes_and_is_deterministic() {
        let run = |seed: u64| {
            let (mut sim, objs) = build(5, 2);
            let w = spawn_write(&mut sim, objs);
            let mut sched = RoundRobinScheduler::new(seed);
            sched.run_until_complete(&mut sim, w, 100).unwrap();
            sched.run_until_quiescent(&mut sim, 100).unwrap();
            assert_eq!(sim.pending_count(), 0);
            sim.history().events().collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn round_robin_rotates_over_clients() {
        let (mut sim, objs) = build(3, 1);
        let a = sim.register_client(Box::new(MajorityWriter {
            targets: objs.clone(),
            acks: 0,
        }));
        let b = sim.register_client(Box::new(MajorityWriter {
            targets: objs,
            acks: 0,
        }));
        sim.invoke(a, HighOp::Write(1)).unwrap();
        sim.invoke(b, HighOp::Write(2)).unwrap();
        let mut sched = RoundRobinScheduler::new(0);
        // Starting at client 0 the rotation must alternate a, b, a, b, …
        let mut order = Vec::new();
        for _ in 0..4 {
            let before: Vec<_> = sim.pending_ops().map(|p| (p.op_id, p.client)).collect();
            assert!(Scheduler::step(&mut sched, &mut sim).unwrap());
            let after: Vec<_> = sim.pending_ops().map(|p| p.op_id).collect();
            let delivered = before
                .iter()
                .find(|(id, _)| !after.contains(id))
                .expect("one op delivered");
            order.push(delivered.1.index());
        }
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_honors_crash_plans() {
        let (mut sim, objs) = build(3, 1);
        let w = spawn_write(&mut sim, objs);
        let plan = CrashPlan::none().crash_at(0, ServerId::new(2));
        let mut sched = RoundRobinScheduler::new(0).with_crash_plan(plan);
        sched.run_until_complete(&mut sim, w, 100).unwrap();
        assert!(sim.is_server_crashed(ServerId::new(2)));
    }

    #[test]
    fn delayed_scheduler_completes_and_is_deterministic() {
        let run = |seed: u64, max_delay: u64| {
            let (mut sim, objs) = build(5, 2);
            let w = spawn_write(&mut sim, objs);
            let mut sched = DelayedScheduler::new(seed, max_delay);
            sched.run_until_complete(&mut sim, w, 100).unwrap();
            sched.run_until_quiescent(&mut sim, 100).unwrap();
            assert_eq!(sim.pending_count(), 0);
            sim.history().events().collect::<Vec<_>>()
        };
        assert_eq!(run(3, 7), run(3, 7));
        // Different seeds reorder deliveries (with overwhelming probability
        // over five messages and eight delay buckets).
        assert_ne!(run(3, 7), run(4, 7));
    }

    #[test]
    fn delayed_scheduler_orders_by_ready_time() {
        let (mut sim, objs) = build(3, 1);
        spawn_write(&mut sim, objs);
        let mut sched = DelayedScheduler::new(11, 7);
        // All three writes were triggered at the same time, so the delivery
        // order must follow the per-op delays (ties by op id).
        let mut expected: Vec<(u64, OpId)> = sim
            .pending_ops()
            .map(|p| (p.triggered_at + sched.delay_of(p.op_id), p.op_id))
            .collect();
        expected.sort();
        for (_, op) in expected {
            let before: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
            assert!(Scheduler::step(&mut sched, &mut sim).unwrap());
            let after: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
            let delivered = before.iter().find(|id| !after.contains(id)).unwrap();
            assert_eq!(*delivered, op);
        }
    }

    #[test]
    fn delayed_scheduler_perturbation_is_deterministic_and_shifts_buckets() {
        let run = |ticks: Vec<u64>| {
            let (mut sim, objs) = build(5, 2);
            let w = spawn_write(&mut sim, objs);
            let mut sched = DelayedScheduler::new(3, 7).with_perturbation(ticks);
            sched.run_until_complete(&mut sim, w, 100).unwrap();
            sched.run_until_quiescent(&mut sim, 100).unwrap();
            sim.history().events().collect::<Vec<_>>()
        };
        // Empty perturbation is the unperturbed scheduler, and any fixed
        // perturbation replays byte-identically.
        assert_eq!(run(vec![]), run(vec![]));
        assert_eq!(run(vec![5, 0, 11]), run(vec![5, 0, 11]));
        // Nudging delay buckets reorders deliveries.
        assert_ne!(run(vec![]), run(vec![5, 0, 11]));
        // The extra ticks survive max_delay == 0 (base delay zero).
        let sched = DelayedScheduler::new(5, 0).with_perturbation(vec![2, 9]);
        assert_eq!(sched.delay_of(OpId::new(42)), 2);
        assert_eq!(sched.delay_of(OpId::new(43)), 9);
    }

    #[test]
    fn delayed_scheduler_with_zero_delay_is_oldest_first() {
        let (mut sim, objs) = build(3, 1);
        spawn_write(&mut sim, objs);
        let mut sched = DelayedScheduler::new(5, 0);
        assert_eq!(sched.delay_of(OpId::new(42)), 0);
        let oldest = sim.pending_ops().map(|p| p.op_id).min().unwrap();
        let before: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
        assert!(Scheduler::step(&mut sched, &mut sim).unwrap());
        let after: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
        let delivered = before.iter().find(|id| !after.contains(id)).unwrap();
        assert_eq!(*delivered, oldest);
    }

    #[test]
    fn delayed_scheduler_honors_crash_plans() {
        let (mut sim, objs) = build(3, 1);
        let w = spawn_write(&mut sim, objs);
        let plan = CrashPlan::none().crash_at(0, ServerId::new(2));
        let mut sched = DelayedScheduler::new(0, 3).with_crash_plan(plan);
        sched.run_until_complete(&mut sim, w, 100).unwrap();
        assert!(sim.is_server_crashed(ServerId::new(2)));
    }

    /// Blocks everything on a fixed server.
    #[derive(Debug)]
    struct Silence(ServerId);
    impl BlockStrategy for Silence {
        fn blocks(&mut self, _sim: &Simulation, op: &PendingOp) -> bool {
            op.server == self.0
        }
    }

    #[test]
    fn adversarial_scheduler_never_delivers_blocked_ops() {
        let (mut sim, objs) = build(3, 1);
        let w = spawn_write(&mut sim, objs);
        let silenced = ServerId::new(2);
        let mut sched = AdversarialScheduler::new(9, Box::new(Silence(silenced)));
        sched.run_until_complete(&mut sim, w, 100).unwrap();
        // Quiescence under the adversary: only the blocked op remains.
        sched.run_until_quiescent(&mut sim, 100).unwrap();
        assert_eq!(sim.pending_count(), 1);
        assert_eq!(sim.pending_ops().next().unwrap().server, silenced);
    }

    /// Never blocks anything.
    #[derive(Debug)]
    struct NoBlock;
    impl BlockStrategy for NoBlock {
        fn blocks(&mut self, _sim: &Simulation, _op: &PendingOp) -> bool {
            false
        }
    }

    #[test]
    fn adversarial_scheduler_with_noop_strategy_matches_fair_driver() {
        let run = |adversarial: bool| {
            let (mut sim, objs) = build(5, 2);
            let w = spawn_write(&mut sim, objs);
            if adversarial {
                let mut s = AdversarialScheduler::new(42, Box::new(NoBlock));
                s.run_until_complete(&mut sim, w, 100).unwrap();
                s.run_until_quiescent(&mut sim, 100).unwrap();
            } else {
                let mut s = FairDriver::new(42);
                s.run_until_complete(&mut sim, w, 100).unwrap();
                s.run_until_quiescent(&mut sim, 100).unwrap();
            }
            sim.history().events().collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fair_driver_behaves_identically_through_the_trait() {
        let run = |dynamic: bool| {
            let (mut sim, objs) = build(5, 2);
            let w = spawn_write(&mut sim, objs);
            if dynamic {
                let mut s: Box<dyn Scheduler> = Box::new(FairDriver::new(7));
                s.run_until_complete(&mut sim, w, 100).unwrap();
            } else {
                let mut s = FairDriver::new(7);
                s.run_until_complete(&mut sim, w, 100).unwrap();
            }
            sim.history().events().collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }
}
