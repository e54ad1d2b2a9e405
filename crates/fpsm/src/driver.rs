//! Run drivers: crash plans, the step loop every scheduler shares, and the
//! fair scheduler.
//!
//! The [`Simulation`] engine is entirely passive; a *driver* decides which
//! enabled action happens next. [`FairDriver`] implements the fair schedules
//! required by the liveness definitions: every pending low-level operation on
//! a correct base object is eventually delivered, in a pseudo-random order
//! derived from a seed so runs are reproducible.
//!
//! The lower-bound adversary `Ad_i` is *not* implemented here — it lives in
//! the `regemu-adversary` crate and drives the simulation through the same
//! public API.

use crate::error::SimError;
use crate::ids::{ClientId, OpId, ServerId, Time};
use crate::scheduler::{BlockStrategy, Scheduler};
use crate::sim::{PendingOp, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A plan of server crashes to inject at given logical times.
///
/// The driver consults the plan before every step and crashes every server
/// whose scheduled time has been reached.
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    entries: Vec<(Time, ServerId)>,
}

impl CrashPlan {
    /// An empty plan (failure-free run).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a crash of `server` once the simulation time reaches `at`.
    pub fn crash_at(mut self, at: Time, server: ServerId) -> Self {
        self.entries.push((at, server));
        self
    }

    /// Servers scheduled to crash, in insertion order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.entries.iter().map(|(_, s)| *s)
    }

    /// Removes and returns the first server, in insertion order, whose crash
    /// time has been reached. Allocates nothing, and does nothing on an
    /// empty plan.
    pub(crate) fn pop_due(&mut self, now: Time) -> Option<ServerId> {
        let i = self.entries.iter().position(|&(at, _)| at <= now)?;
        Some(self.entries.remove(i).1)
    }

    /// Number of crashes still scheduled.
    pub fn remaining(&self) -> usize {
        self.entries.len()
    }
}

/// What the step loop keeps of a deliverable operation: everything the
/// choosers and the re-check read, in a third of a [`PendingOp`]'s bytes.
#[derive(Debug)]
pub(crate) struct Candidate {
    pub(crate) op_id: OpId,
    pub(crate) client: ClientId,
    pub(crate) server: ServerId,
    pub(crate) triggered_at: Time,
}

const _: () = assert!(std::mem::size_of::<Candidate>() <= 32);

impl From<&PendingOp> for Candidate {
    fn from(p: &PendingOp) -> Self {
        Candidate {
            op_id: p.op_id,
            client: p.client,
            server: p.server,
            triggered_at: p.triggered_at,
        }
    }
}

/// The step every scheduler in this crate takes, written once: crash the
/// servers that are due, bring the candidate list up to date, let the
/// scheduler choose from it, deliver.
///
/// A scheduler supplies only what differs: *admission* — a [`BlockStrategy`]
/// for [`crate::AdversarialScheduler`], nothing for the others — and
/// *choice* among the admitted candidates, by index.
///
/// The candidate list is kept across steps, and outside the choice a step
/// only does work for what changed: it judges the operations triggered since
/// the previous step, asking the strategy about each once, and after its own
/// delivery it removes the delivered entry itself (one `memmove` of the
/// entries behind it). The whole list is re-checked — entries that left
/// the pending set or whose server crashed are dropped — only when the
/// simulation's `deliverable_epoch` moved since the loop last saw it: after
/// a crash-plan crash, or when anything else holding the simulation
/// delivered, dropped or crashed in between. Ids are allocated in ascending
/// order, so the list is, element for element, the one a walk over
/// [`Simulation::deliverable_ops`] would build, however many operations are
/// withheld or stranded on a crashed server.
///
/// The memory of which operations were judged belongs to one run: a step
/// loop, and so every scheduler built on it, is bound to one [`Simulation`].
#[derive(Debug, Default)]
pub(crate) struct StepLoop {
    pub(crate) crash_plan: CrashPlan,
    pub(crate) steps: u64,
    /// Deliverable operations that were admitted, ascending by id.
    candidates: Vec<Candidate>,
    /// Every operation with a smaller id has been judged already.
    watermark: OpId,
    /// The simulation's `deliverable_epoch` when the list was last exact.
    epoch: u64,
}

impl StepLoop {
    pub(crate) fn step(
        &mut self,
        sim: &mut Simulation,
        mut strategy: Option<&mut dyn BlockStrategy>,
        choose: impl FnOnce(&[Candidate]) -> Option<usize>,
    ) -> Result<bool, SimError> {
        // Each crash advances the time; an entry that only a crash of this
        // step brings due waits for the next step.
        let now = sim.time();
        while let Some(server) = self.crash_plan.pop_due(now) {
            sim.crash_server(server)?;
        }
        debug_assert!(
            sim.next_op_id() >= self.watermark,
            "a scheduler is bound to one Simulation"
        );
        if self.epoch != sim.deliverable_epoch {
            self.candidates
                .retain(|c| sim.pending_op(c.op_id).is_some() && !sim.is_server_crashed(c.server));
            self.epoch = sim.deliverable_epoch;
        }
        self.candidates.extend(
            sim.pending_ops_from(self.watermark)
                .filter(|p| {
                    !sim.is_server_crashed(p.server)
                        && !strategy.as_mut().is_some_and(|s| s.blocks(sim, p))
                })
                .map(Candidate::from),
        );
        self.watermark = sim.next_op_id();
        let Some(index) = choose(&self.candidates) else {
            return Ok(false);
        };
        sim.deliver(self.candidates[index].op_id)?;
        self.candidates.remove(index);
        self.epoch = sim.deliverable_epoch;
        self.steps += 1;
        Ok(true)
    }
}

/// The index of a uniformly drawn element of a slice of `len`, as
/// `SliceRandom::choose` draws it: one value from the seeded stream, and
/// none when the slice is empty.
pub(crate) fn draw_index(rng: &mut StdRng, len: usize) -> Option<usize> {
    (len > 0).then(|| rng.gen_range(0..len))
}

/// A pseudo-random fair driver: [`crate::AdversarialScheduler`] with nothing
/// withheld.
///
/// Every step delivers one deliverable pending operation chosen uniformly at
/// random, so in any infinite execution every operation on a correct object
/// is eventually delivered with probability 1 — a fair run in the paper's
/// sense. Drive it through the [`Scheduler`] trait; like every scheduler
/// here, an instance is bound to one [`Simulation`].
///
/// [`FairDriver::replaying`] first replays a recorded schedule, then
/// continues fairly.
#[derive(Debug)]
pub struct FairDriver {
    rng: StdRng,
    /// Recorded ranks still to replay.
    replay: std::vec::IntoIter<u32>,
    core: StepLoop,
}

impl FairDriver {
    /// Creates a driver with the given RNG seed and no crash plan.
    pub fn new(seed: u64) -> Self {
        Self::replaying(seed, Vec::new())
    }

    /// A driver that replays `decisions` before it chooses for itself.
    ///
    /// Each decision is a *rank* among the deliverable operations in
    /// ascending id order — what [`Simulation::enable_decision_trace`]
    /// records, whichever scheduler made the run. While ranks remain, a step
    /// delivers the operation at `rank % candidates`; after that the seeded
    /// draw picks. Any `u32` stream is therefore a valid schedule, and a
    /// recorded one replays its run exactly.
    ///
    /// A replayed step still draws from the seeded stream and discards the
    /// draw, so the tail after a prefix of `m` ranks uses the same stream
    /// whatever those ranks were.
    pub fn replaying(seed: u64, decisions: Vec<u32>) -> Self {
        FairDriver {
            rng: StdRng::seed_from_u64(seed),
            replay: decisions.into_iter(),
            core: StepLoop::default(),
        }
    }

    /// Attaches a crash plan to the driver.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.core.crash_plan = plan;
        self
    }

    /// Number of delivery steps executed so far.
    pub fn steps(&self) -> u64 {
        self.core.steps
    }
}

impl Scheduler for FairDriver {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        let (rng, replay) = (&mut self.rng, &mut self.replay);
        self.core.step(sim, None, |ops| {
            let drawn = draw_index(rng, ops.len())?;
            Some(
                replay
                    .next()
                    .map_or(drawn, |rank| rank as usize % ops.len()),
            )
        })
    }

    fn name(&self) -> &'static str {
        "fair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientProtocol, Context, Delivery};
    use crate::event::Event;
    use crate::ids::ObjectId;
    use crate::object::ObjectKind;
    use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
    use crate::scheduler::{AdversarialScheduler, DelayedScheduler, RoundRobinScheduler};
    use crate::sim::SimConfig;
    use crate::topology::Topology;
    use crate::value::Value;
    use rand::seq::SliceRandom;

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

    #[test]
    fn fair_driver_completes_a_majority_write() {
        let (mut sim, objs) = build(3, 1);
        let c = sim.register_client(Box::new(MajorityWriter {
            targets: objs,
            acks: 0,
        }));
        let w = sim.invoke(c, HighOp::Write(1)).unwrap();
        let mut driver = FairDriver::new(7);
        driver.run_until_complete(&mut sim, w, 100).unwrap();
        assert_eq!(sim.result_of(w), Some(HighResponse::WriteAck));
    }

    #[test]
    fn driver_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let (mut sim, objs) = build(5, 2);
            let c = sim.register_client(Box::new(MajorityWriter {
                targets: objs,
                acks: 0,
            }));
            let w = sim.invoke(c, HighOp::Write(1)).unwrap();
            let mut driver = FairDriver::new(seed);
            driver.run_until_complete(&mut sim, w, 100).unwrap();
            sim.history().events().collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn crash_plan_crashes_up_to_f_servers_and_write_still_completes() {
        let (mut sim, objs) = build(3, 1);
        let c = sim.register_client(Box::new(MajorityWriter {
            targets: objs,
            acks: 0,
        }));
        let w = sim.invoke(c, HighOp::Write(1)).unwrap();
        let plan = CrashPlan::none().crash_at(0, ServerId::new(2));
        let mut driver = FairDriver::new(1).with_crash_plan(plan);
        driver.run_until_complete(&mut sim, w, 100).unwrap();
        assert!(sim.is_server_crashed(ServerId::new(2)));
        assert_eq!(sim.result_of(w), Some(HighResponse::WriteAck));
    }

    #[test]
    fn run_until_quiescent_drains_all_pending_ops() {
        let (mut sim, objs) = build(3, 1);
        let c = sim.register_client(Box::new(MajorityWriter {
            targets: objs,
            acks: 0,
        }));
        sim.invoke(c, HighOp::Write(1)).unwrap();
        let mut driver = FairDriver::new(11);
        driver.run_until_quiescent(&mut sim, 100).unwrap();
        assert_eq!(sim.pending_count(), 0);
        assert!(driver.steps() >= 3);
    }

    #[test]
    fn replaying_the_recorded_ranks_reproduces_the_run_under_another_seed() {
        let run = |mut driver: FairDriver| {
            let (mut sim, objs) = build(5, 2);
            sim.enable_decision_trace();
            let c = sim.register_client(Box::new(MajorityWriter {
                targets: objs,
                acks: 0,
            }));
            sim.invoke(c, HighOp::Write(1)).unwrap();
            driver.run_until_quiescent(&mut sim, 100).unwrap();
            let ranks: Vec<u32> = sim.decision_trace().iter().map(|d| d.choice).collect();
            (sim.history().events().collect::<Vec<_>>(), ranks)
        };
        let (events, ranks) = run(FairDriver::new(3));
        assert_eq!(
            run(FairDriver::replaying(4, ranks.clone())),
            (events, ranks)
        );
    }

    #[test]
    fn crash_plan_bookkeeping() {
        let plan = CrashPlan::none()
            .crash_at(5, ServerId::new(0))
            .crash_at(9, ServerId::new(1));
        assert_eq!(plan.remaining(), 2);
        assert_eq!(plan.servers().count(), 2);
        let mut plan = plan;
        assert_eq!(plan.pop_due(6), Some(ServerId::new(0)));
        assert_eq!(plan.pop_due(6), None);
        assert_eq!(plan.remaining(), 1);
        assert_eq!(plan.pop_due(9), Some(ServerId::new(1)));
        assert_eq!(plan.pop_due(u64::MAX), None);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn crashes_due_together_happen_in_insertion_order() {
        let mut plan = CrashPlan::none()
            .crash_at(9, ServerId::new(4))
            .crash_at(3, ServerId::new(2))
            .crash_at(3, ServerId::new(0));
        assert_eq!(plan.pop_due(3), Some(ServerId::new(2)));
        assert_eq!(plan.pop_due(3), Some(ServerId::new(0)));
        assert_eq!(plan.pop_due(3), None);

        // Through a step: both crash before the delivery, in plan order.
        let (mut sim, objs) = build(5, 2);
        spawn_writer(&mut sim, &objs);
        let plan = CrashPlan::none()
            .crash_at(0, ServerId::new(3))
            .crash_at(0, ServerId::new(1));
        let mut driver = FairDriver::new(1).with_crash_plan(plan);
        assert!(driver.step(&mut sim).unwrap());
        let crashed: Vec<ServerId> = sim
            .history()
            .events()
            .filter_map(|e| match e {
                Event::ServerCrash { server, .. } => Some(server),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, vec![ServerId::new(3), ServerId::new(1)]);
        assert_eq!(driver.core.crash_plan.remaining(), 0);
    }

    #[test]
    fn a_due_crash_beyond_the_fault_budget_fails_the_step_before_any_delivery() {
        let (mut sim, objs) = build(3, 1);
        spawn_writer(&mut sim, &objs);
        let pending = sim.pending_count();
        let plan = CrashPlan::none()
            .crash_at(0, ServerId::new(0))
            .crash_at(0, ServerId::new(1));
        let mut driver = FairDriver::new(1).with_crash_plan(plan);
        let result = driver.step(&mut sim);
        assert!(
            matches!(
                result,
                Err(SimError::FaultBudgetExceeded {
                    f: 1,
                    already_crashed: 1
                })
            ),
            "{result:?}"
        );
        assert_eq!(driver.steps(), 0);
        assert_eq!(sim.pending_count(), pending);
        assert_eq!(sim.history().respond_count(), 0);
    }

    fn spawn_writer(sim: &mut Simulation, objs: &[ObjectId]) -> ClientId {
        let c = sim.register_client(Box::new(MajorityWriter {
            targets: objs.to_vec(),
            acks: 0,
        }));
        sim.invoke(c, HighOp::Write(1)).unwrap();
        c
    }

    /// Withholds every third operation.
    #[derive(Debug)]
    struct EveryThird;

    impl BlockStrategy for EveryThird {
        fn blocks(&mut self, _sim: &Simulation, op: &PendingOp) -> bool {
            op.op_id.index() % 3 == 0
        }
    }

    /// One interference between steps, drawn from `noise`: deliver or drop
    /// a pending operation, crash server 3 or client 3, or nothing. Counts
    /// what it did in `done` (deliver, drop, server crash, client crash).
    fn interfere(sim: &mut Simulation, noise: &mut StdRng, done: &mut [u32; 4]) {
        let kind = noise.gen_range(0..12usize);
        match kind {
            0 => {
                let ops: Vec<OpId> = sim.deliverable_ops().map(|p| p.op_id).collect();
                if let Some(&op) = ops.choose(noise) {
                    sim.deliver(op).unwrap();
                }
            }
            1 => {
                let ops: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
                if let Some(&op) = ops.choose(noise) {
                    sim.drop_pending(op).unwrap();
                }
            }
            2 => sim.crash_server(ServerId::new(3)).unwrap(),
            3 => sim.crash_client(ClientId::new(3)).unwrap(),
            _ => return,
        }
        done[kind] += 1;
    }

    /// Drives four writers at `(n, f) = (5, 2)` under the scheduler `make`
    /// builds, with a crash plan that fires mid-run and one that never
    /// does, each with and without interference between steps. After every
    /// step the loop's candidate ids must equal a rebuild from scratch: the
    /// deliverable operations the scheduler admits that the loop has judged
    /// (ids below its watermark; the delivery may have triggered more).
    fn assert_candidates_match_a_rebuild<S: Scheduler>(
        make: impl Fn(CrashPlan) -> S,
        core: impl Fn(&S) -> &StepLoop,
        admits: impl Fn(&PendingOp) -> bool,
    ) {
        let plans = [
            CrashPlan::none().crash_at(60, ServerId::new(1)),
            CrashPlan::none().crash_at(Time::MAX, ServerId::new(0)),
        ];
        for plan in plans {
            for interfering in [false, true] {
                let (mut sim, objs) = build(5, 2);
                let clients: Vec<ClientId> =
                    (0..4).map(|_| spawn_writer(&mut sim, &objs)).collect();
                let mut sched = make(plan.clone());
                let mut noise = StdRng::seed_from_u64(5);
                let mut done = [0; 4];
                let mut delivered = 0;
                for step in 0..300 {
                    for &c in &clients {
                        // Busy and crashed clients refuse; that is fine.
                        let _ = sim.invoke(c, HighOp::Write(step));
                    }
                    if interfering {
                        interfere(&mut sim, &mut noise, &mut done);
                    }
                    delivered += u32::from(sched.step(&mut sim).unwrap());
                    let kept = core(&sched);
                    let rebuilt: Vec<OpId> = sim
                        .deliverable_ops()
                        .filter(|p| p.op_id < kept.watermark && admits(p))
                        .map(|p| p.op_id)
                        .collect();
                    let ids: Vec<OpId> = kept.candidates.iter().map(|c| c.op_id).collect();
                    assert_eq!(
                        ids, rebuilt,
                        "step {step}, {plan:?}, interfering: {interfering}"
                    );
                }
                // The adversary starves writers once a crash leaves it too few
                // unwithheld acks, so its runs stop early.
                assert!(delivered > 40, "{delivered} deliveries");
                let fires = plan.servers().all(|s| s == ServerId::new(1));
                assert_eq!(sim.is_server_crashed(ServerId::new(1)), fires);
                if interfering {
                    assert!(done.iter().all(|&n| n > 0), "{done:?}");
                }
            }
        }
    }

    #[test]
    fn every_scheduler_keeps_its_candidates_equal_to_a_rebuild() {
        assert_candidates_match_a_rebuild(
            |plan| FairDriver::new(3).with_crash_plan(plan),
            |s| &s.core,
            |_| true,
        );
        assert_candidates_match_a_rebuild(
            |plan| RoundRobinScheduler::new(1).with_crash_plan(plan),
            |s| &s.core,
            |_| true,
        );
        assert_candidates_match_a_rebuild(
            |plan| DelayedScheduler::new(2, 7).with_crash_plan(plan),
            |s| &s.core,
            |_| true,
        );
        assert_candidates_match_a_rebuild(
            |plan| AdversarialScheduler::new(4, Box::new(EveryThird)).with_crash_plan(plan),
            |s| &s.core,
            |p| p.op_id.index() % 3 != 0,
        );
    }
}
