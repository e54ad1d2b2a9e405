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
use crate::ids::{OpId, ServerId, Time};
use crate::scheduler::{BlockStrategy, Scheduler};
use crate::sim::{PendingOp, Simulation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

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

    /// Returns the servers whose crash time has been reached and removes them
    /// from the plan.
    pub(crate) fn due(&mut self, now: Time) -> Vec<ServerId> {
        let (due, rest): (Vec<_>, Vec<_>) = self.entries.iter().partition(|(t, _)| *t <= now);
        self.entries = rest;
        due.into_iter().map(|(_, s)| s).collect()
    }

    /// Number of crashes still scheduled.
    pub fn remaining(&self) -> usize {
        self.entries.len()
    }
}

/// The step every scheduler in this crate takes, written once: crash the
/// servers that are due, bring the candidate list up to date, let the
/// scheduler choose from it, deliver.
///
/// A scheduler supplies only what differs: *admission* — a [`BlockStrategy`]
/// for [`crate::AdversarialScheduler`], nothing for the others — and
/// *choice* among the admitted candidates.
///
/// The candidate list is kept across steps. Each step drops the entries that
/// left the pending set or whose server crashed — whoever caused that: this
/// scheduler, its crash plan, or anything else holding the simulation — and
/// then judges only the operations triggered since the previous step, asking
/// the strategy about each once. Ids are allocated in ascending order, so the
/// list is, element for element, the one a walk over
/// [`Simulation::deliverable_ops`] would build — at a cost of O(candidates)
/// instead of O(pending window), however many operations are withheld or
/// stranded on a crashed server.
///
/// The memory of which operations were judged belongs to one run: a step
/// loop, and so every scheduler built on it, is bound to one [`Simulation`].
#[derive(Debug, Default)]
pub(crate) struct StepLoop {
    pub(crate) crash_plan: CrashPlan,
    pub(crate) steps: u64,
    /// Deliverable operations that were admitted, ascending by id. Copies:
    /// nothing in a [`PendingOp`] changes while it is pending.
    candidates: Vec<PendingOp>,
    /// Every operation with a smaller id has been judged already.
    watermark: OpId,
}

impl StepLoop {
    pub(crate) fn step(
        &mut self,
        sim: &mut Simulation,
        mut strategy: Option<&mut dyn BlockStrategy>,
        choose: impl FnOnce(&[PendingOp]) -> Option<OpId>,
    ) -> Result<bool, SimError> {
        for server in self.crash_plan.due(sim.time()) {
            sim.crash_server(server)?;
        }
        debug_assert!(
            sim.next_op_id() >= self.watermark,
            "a scheduler is bound to one Simulation"
        );
        let deliverable = |p: &PendingOp| !sim.is_server_crashed(p.server);
        self.candidates
            .retain(|p| sim.pending_op(p.op_id).is_some_and(deliverable));
        self.candidates.extend(
            sim.pending_ops_from(self.watermark)
                .filter(|p| deliverable(p) && !strategy.as_mut().is_some_and(|s| s.blocks(sim, p)))
                .copied(),
        );
        self.watermark = sim.next_op_id();
        let Some(chosen) = choose(&self.candidates) else {
            return Ok(false);
        };
        sim.deliver(chosen)?;
        self.steps += 1;
        Ok(true)
    }
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
            let drawn = ops.choose(rng)?;
            let chosen = replay
                .next()
                .map_or(drawn, |rank| &ops[rank as usize % ops.len()]);
            Some(chosen.op_id)
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
    use crate::ids::ObjectId;
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
        let due = plan.due(6);
        assert_eq!(due, vec![ServerId::new(0)]);
        assert_eq!(plan.remaining(), 1);
    }
}
