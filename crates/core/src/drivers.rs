//! Per-server `read-max` / `write-max` drivers.
//!
//! The observation at the heart of the paper's upper bounds for RMW-style
//! base objects is that the per-server code of multi-writer ABD only needs
//! the two max-register primitives `write-max` and `read-max`. A
//! [`MaxDriver`] realizes those two primitives against whatever a given
//! server actually stores:
//!
//! * `NativeMaxDriver` — the server stores a real max-register (1 object);
//! * `CasMaxDriver` — the server stores a single CAS object; the driver runs
//!   Algorithm 1 (Appendix B) as a client-side retry loop;
//! * [`BankMaxDriver`] — the server stores a bank of `k` plain read/write
//!   registers, one per writer; `write-max` updates the caller's own slot and
//!   `read-max` collects the whole bank (the construction behind the
//!   `(2f+1)·k` special case for `n = 2f+1`).
//!
//! The ABD protocol in `crate::abd` is generic over the driver, which is how
//! a single protocol implementation yields the max-register, CAS and
//! register-bank rows of Table 1.

use regemu_fpsm::{BaseOp, BaseResponse, Context, Delivery, ObjectId, OpId, ServerId, Value};

/// Completion of a per-server max primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaxOutcome {
    /// A `read-max` completed with the given value.
    ReadMax(Value),
    /// A `write-max` completed.
    WriteMaxDone,
}

/// A per-server driver realizing `read-max`/`write-max` from the server's
/// base objects.
///
/// A driver executes at most one primitive at a time; starting a new one (or
/// calling [`MaxDriver::reset`]) abandons the previous one, whose stale
/// responses are subsequently ignored.
pub trait MaxDriver {
    /// The server this driver talks to.
    fn server(&self) -> ServerId;

    /// The base objects this driver may touch.
    fn objects(&self) -> Vec<ObjectId>;

    /// Starts a `read-max` on this server.
    fn start_read_max(&mut self, ctx: &mut Context<'_>);

    /// Starts a `write-max(value)` on this server.
    fn start_write_max(&mut self, value: Value, ctx: &mut Context<'_>);

    /// Feeds a low-level response to the driver. Returns the outcome when the
    /// current primitive completes, `None` when the response is stale or the
    /// primitive still needs more steps.
    fn on_response(&mut self, delivery: &Delivery, ctx: &mut Context<'_>) -> Option<MaxOutcome>;

    /// Abandons the current primitive (stale responses will be ignored).
    fn reset(&mut self);
}

// ---------------------------------------------------------------------------
// Native max-register
// ---------------------------------------------------------------------------

/// Driver for a server hosting a single native max-register.
#[derive(Debug)]
pub(crate) struct NativeMaxDriver {
    server: ServerId,
    object: ObjectId,
    pending: Option<OpId>,
}

impl NativeMaxDriver {
    /// Creates a driver for the max-register `object` hosted on `server`.
    pub(crate) fn new(server: ServerId, object: ObjectId) -> Self {
        NativeMaxDriver {
            server,
            object,
            pending: None,
        }
    }
}

impl MaxDriver for NativeMaxDriver {
    fn server(&self) -> ServerId {
        self.server
    }

    fn objects(&self) -> Vec<ObjectId> {
        vec![self.object]
    }

    fn start_read_max(&mut self, ctx: &mut Context<'_>) {
        self.pending = Some(ctx.trigger(self.object, BaseOp::ReadMax));
    }

    fn start_write_max(&mut self, value: Value, ctx: &mut Context<'_>) {
        self.pending = Some(ctx.trigger(self.object, BaseOp::WriteMax(value)));
    }

    fn on_response(&mut self, delivery: &Delivery, _ctx: &mut Context<'_>) -> Option<MaxOutcome> {
        if self.pending != Some(delivery.op_id) {
            return None;
        }
        self.pending = None;
        match delivery.response {
            BaseResponse::MaxValue(v) => Some(MaxOutcome::ReadMax(v)),
            BaseResponse::WriteMaxAck => Some(MaxOutcome::WriteMaxDone),
            _ => None,
        }
    }

    fn reset(&mut self) {
        self.pending = None;
    }
}

// ---------------------------------------------------------------------------
// Max-register from a single CAS (Algorithm 1, Appendix B)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CasPhase {
    /// `read-max`: a single `CAS(v0, v0)` returning the current value.
    Read,
    /// `write-max` loop, line 3: `tmp ← CAS(v0, v0)`.
    WriteProbe,
    /// `write-max` loop, line 6: `CAS(tmp, v)`.
    WriteSwap,
}

/// Driver realizing a max-register from a single CAS object via Algorithm 1.
///
/// `read-max` is one `CAS(v0, v0)`. `write-max(v)` loops: probe the current
/// value; if it is already `≥ v` the write is done, otherwise attempt
/// `CAS(current, v)` and probe again. The loop terminates because the stored
/// value grows monotonically, but its length depends on contention — the
/// time/space trade-off discussed in Section 5.
#[derive(Debug)]
pub(crate) struct CasMaxDriver {
    server: ServerId,
    object: ObjectId,
    pending: Option<OpId>,
    phase: Option<CasPhase>,
    target: Value,
}

impl CasMaxDriver {
    /// Creates a driver for the CAS `object` hosted on `server`.
    pub(crate) fn new(server: ServerId, object: ObjectId) -> Self {
        CasMaxDriver {
            server,
            object,
            pending: None,
            phase: None,
            target: Value::INITIAL,
        }
    }

    fn probe(&mut self, ctx: &mut Context<'_>) {
        self.pending = Some(ctx.trigger(
            self.object,
            BaseOp::Cas {
                expected: Value::INITIAL,
                new: Value::INITIAL,
            },
        ));
    }
}

impl MaxDriver for CasMaxDriver {
    fn server(&self) -> ServerId {
        self.server
    }

    fn objects(&self) -> Vec<ObjectId> {
        vec![self.object]
    }

    fn start_read_max(&mut self, ctx: &mut Context<'_>) {
        self.phase = Some(CasPhase::Read);
        self.probe(ctx);
    }

    fn start_write_max(&mut self, value: Value, ctx: &mut Context<'_>) {
        self.phase = Some(CasPhase::WriteProbe);
        self.target = value;
        self.probe(ctx);
    }

    fn on_response(&mut self, delivery: &Delivery, ctx: &mut Context<'_>) -> Option<MaxOutcome> {
        if self.pending != Some(delivery.op_id) {
            return None;
        }
        self.pending = None;
        let BaseResponse::CasOld(current) = delivery.response else {
            return None;
        };
        match self.phase? {
            CasPhase::Read => {
                self.phase = None;
                Some(MaxOutcome::ReadMax(current))
            }
            CasPhase::WriteProbe => {
                if current >= self.target {
                    // Line 4–5 of Algorithm 1: somebody (possibly us) already
                    // installed a value at least as large.
                    self.phase = None;
                    Some(MaxOutcome::WriteMaxDone)
                } else {
                    // Line 6: attempt to install our value.
                    self.phase = Some(CasPhase::WriteSwap);
                    self.pending = Some(ctx.trigger(
                        self.object,
                        BaseOp::Cas {
                            expected: current,
                            new: self.target,
                        },
                    ));
                    None
                }
            }
            CasPhase::WriteSwap => {
                // Whatever the swap returned, go back to the probe (line 2).
                self.phase = Some(CasPhase::WriteProbe);
                self.probe(ctx);
                None
            }
        }
    }

    fn reset(&mut self) {
        self.pending = None;
        self.phase = None;
    }
}

// ---------------------------------------------------------------------------
// Max-register from a bank of k plain registers
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankPhase {
    /// `read-max`: reading the whole bank.
    Collect,
    /// `write-max`: reading the caller's own slot before updating it.
    ReadOwn,
    /// `write-max`: waiting for the write to the own slot to ack.
    WriteOwn,
}

/// Driver realizing a `k`-writer max-register from `k` plain registers, one
/// per writer (the collect-based construction matching Theorem 2's bound).
///
/// `write-max(v)` reads the caller's own slot and writes back
/// `max(slot, v)`; `read-max` reads every slot and returns the maximum.
/// Readers construct the driver without an own slot and may only `read-max`.
#[derive(Debug)]
pub struct BankMaxDriver {
    server: ServerId,
    registers: Vec<ObjectId>,
    own_slot: Option<usize>,
    phase: Option<BankPhase>,
    /// The current collect's reads: the id of the first (one read per
    /// register, triggered back to back, so the ids are contiguous), which
    /// are still unanswered, and how many.
    collect_base: u64,
    collect_live: Vec<bool>,
    collect_left: usize,
    /// The pending read or write of the own slot.
    own_op: Option<OpId>,
    best: Value,
    target: Value,
}

impl BankMaxDriver {
    /// Creates a driver over the `registers` bank on `server`; `own_slot` is
    /// the index of the register owned by this client when it acts as writer
    /// `own_slot` (readers pass `None`).
    ///
    /// # Panics
    ///
    /// Panics if `own_slot` is out of range or the bank is empty.
    pub fn new(server: ServerId, registers: Vec<ObjectId>, own_slot: Option<usize>) -> Self {
        assert!(
            !registers.is_empty(),
            "a register bank must hold at least one register"
        );
        if let Some(slot) = own_slot {
            assert!(slot < registers.len(), "own slot {slot} out of range");
        }
        BankMaxDriver {
            server,
            collect_live: vec![false; registers.len()],
            registers,
            own_slot,
            phase: None,
            collect_base: 0,
            collect_left: 0,
            own_op: None,
            best: Value::INITIAL,
            target: Value::INITIAL,
        }
    }
}

impl MaxDriver for BankMaxDriver {
    fn server(&self) -> ServerId {
        self.server
    }

    fn objects(&self) -> Vec<ObjectId> {
        self.registers.clone()
    }

    fn start_read_max(&mut self, ctx: &mut Context<'_>) {
        self.phase = Some(BankPhase::Collect);
        self.own_op = None;
        self.best = Value::INITIAL;
        for (i, b) in self.registers.iter().enumerate() {
            let op = ctx.trigger(*b, BaseOp::Read);
            if i == 0 {
                self.collect_base = op.index();
            }
        }
        self.collect_live.fill(true);
        self.collect_left = self.registers.len();
    }

    fn start_write_max(&mut self, value: Value, ctx: &mut Context<'_>) {
        let slot = self
            .own_slot
            .expect("write-max on a register bank requires an own slot (writers only)");
        self.reset();
        self.phase = Some(BankPhase::ReadOwn);
        self.target = value;
        self.own_op = Some(ctx.trigger(self.registers[slot], BaseOp::Read));
    }

    fn on_response(&mut self, delivery: &Delivery, ctx: &mut Context<'_>) -> Option<MaxOutcome> {
        match self.phase? {
            BankPhase::Collect => {
                let index = delivery.op_id.index().checked_sub(self.collect_base)?;
                let live = self.collect_live.get_mut(usize::try_from(index).ok()?)?;
                if !std::mem::take(live) {
                    return None;
                }
                if let BaseResponse::ReadValue(v) = delivery.response {
                    self.best = self.best.max(v);
                }
                self.collect_left -= 1;
                if self.collect_left == 0 {
                    self.phase = None;
                    Some(MaxOutcome::ReadMax(self.best))
                } else {
                    None
                }
            }
            BankPhase::ReadOwn | BankPhase::WriteOwn if self.own_op != Some(delivery.op_id) => None,
            BankPhase::ReadOwn => {
                let current = match delivery.response {
                    BaseResponse::ReadValue(v) => v,
                    _ => Value::INITIAL,
                };
                if current >= self.target {
                    // The own slot already stores a value at least as large.
                    self.phase = None;
                    self.own_op = None;
                    return Some(MaxOutcome::WriteMaxDone);
                }
                let slot = self.own_slot.expect("checked in start_write_max");
                self.own_op = Some(ctx.trigger(self.registers[slot], BaseOp::Write(self.target)));
                self.phase = Some(BankPhase::WriteOwn);
                None
            }
            BankPhase::WriteOwn => {
                self.phase = None;
                self.own_op = None;
                Some(MaxOutcome::WriteMaxDone)
            }
        }
    }

    fn reset(&mut self) {
        self.phase = None;
        self.collect_live.fill(false);
        self.collect_left = 0;
        self.own_op = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::prelude::*;
    use regemu_fpsm::{ClientProtocol, HighOp, HighResponse};

    /// A protocol wrapping a single driver, used to unit-test drivers inside
    /// the real simulation engine: a high-level write maps to `write-max` and
    /// a high-level read to `read-max` on the one server.
    struct DriverHarness<D: MaxDriver> {
        driver: D,
    }

    impl<D: MaxDriver> ClientProtocol for DriverHarness<D> {
        fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
            self.driver.reset();
            match op {
                HighOp::Write(v) => self.driver.start_write_max(Value::new(v, v), ctx),
                HighOp::Read => self.driver.start_read_max(ctx),
            }
        }

        fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
            match self.driver.on_response(&delivery, ctx) {
                Some(MaxOutcome::WriteMaxDone) => ctx.complete(HighResponse::WriteAck),
                Some(MaxOutcome::ReadMax(v)) => ctx.complete(HighResponse::ReadValue(v.val)),
                None => {}
            }
        }
    }

    fn run_write_then_read<D, F>(kind: ObjectKind, objects_per_server: usize, make: F) -> u64
    where
        D: MaxDriver + 'static,
        F: Fn(ServerId, Vec<ObjectId>) -> D,
    {
        let mut t = Topology::new(1);
        let objs: Vec<ObjectId> = (0..objects_per_server)
            .map(|_| t.add_object(kind, ServerId::new(0)))
            .collect();
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        let c = sim.register_client(Box::new(DriverHarness {
            driver: make(ServerId::new(0), objs.clone()),
        }));
        let mut driver = FairDriver::new(3);

        for v in [5u64, 3u64] {
            let w = sim.invoke(c, HighOp::Write(v)).unwrap();
            driver.run_until_complete(&mut sim, w, 1000).unwrap();
        }
        let r = sim.invoke(c, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 1000).unwrap();
        sim.result_of(r).unwrap().payload().unwrap()
    }

    #[test]
    fn native_driver_keeps_the_maximum() {
        let best = run_write_then_read(ObjectKind::MaxRegister, 1, |s, objs| {
            NativeMaxDriver::new(s, objs[0])
        });
        assert_eq!(best, 5);
    }

    #[test]
    fn cas_driver_implements_algorithm_1() {
        let best = run_write_then_read(ObjectKind::Cas, 1, |s, objs| CasMaxDriver::new(s, objs[0]));
        assert_eq!(best, 5);
    }

    #[test]
    fn bank_driver_collects_the_maximum_across_slots() {
        let best = run_write_then_read(ObjectKind::Register, 3, |s, objs| {
            BankMaxDriver::new(s, objs, Some(1))
        });
        assert_eq!(best, 5);
    }

    #[test]
    fn cas_write_max_skips_when_value_already_large() {
        // Write 5 then 3: the second write-max must finish after a single
        // probe without attempting a swap.
        let mut t = Topology::new(1);
        let obj = t.add_object(ObjectKind::Cas, ServerId::new(0));
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        let c = sim.register_client(Box::new(DriverHarness {
            driver: CasMaxDriver::new(ServerId::new(0), obj),
        }));
        let mut driver = FairDriver::new(1);
        let w1 = sim.invoke(c, HighOp::Write(5)).unwrap();
        driver.run_until_complete(&mut sim, w1, 100).unwrap();
        let before = sim.object(obj).unwrap().applied_writes();
        let w2 = sim.invoke(c, HighOp::Write(3)).unwrap();
        driver.run_until_complete(&mut sim, w2, 100).unwrap();
        let after = sim.object(obj).unwrap().applied_writes();
        // One probe CAS only (it is still counted as an applied op on the CAS
        // object but does not change the value).
        assert_eq!(after - before, 1);
        assert_eq!(sim.object(obj).unwrap().value(), Value::new(5, 5));
    }

    #[test]
    fn stale_responses_are_ignored_after_reset() {
        let mut t = Topology::new(1);
        let obj = t.add_object(ObjectKind::MaxRegister, ServerId::new(0));
        let mut sim = Simulation::new(t, SimConfig::unchecked());

        // Protocol that triggers a read-max, then resets the driver before the
        // response arrives and completes only if the driver (incorrectly)
        // reports an outcome.
        struct ResetHarness {
            driver: NativeMaxDriver,
            started: bool,
        }
        impl ClientProtocol for ResetHarness {
            fn on_invoke(&mut self, _op: HighOp, ctx: &mut Context<'_>) {
                self.driver.start_read_max(ctx);
                self.driver.reset();
                self.started = true;
                // Trigger a second read-max; only its response should count.
                self.driver.start_read_max(ctx);
            }
            fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
                if self.driver.on_response(&delivery, ctx).is_some() && !ctx.has_completed() {
                    ctx.complete(HighResponse::ReadValue(0));
                }
            }
        }

        let c = sim.register_client(Box::new(ResetHarness {
            driver: NativeMaxDriver::new(ServerId::new(0), obj),
            started: false,
        }));
        let r = sim.invoke(c, HighOp::Read).unwrap();
        // Two pending read-max ops; deliver both in trigger order: the first
        // (stale) one must be ignored, the second completes the operation.
        let ops: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
        assert_eq!(ops.len(), 2);
        sim.deliver(ops[0]).unwrap();
        assert!(
            sim.result_of(r).is_none(),
            "stale response must not complete the op"
        );
        sim.deliver(ops[1]).unwrap();
        assert!(sim.result_of(r).is_some());
    }

    #[test]
    #[should_panic(expected = "own slot")]
    fn bank_writer_without_slot_panics_on_write_max() {
        let mut t = Topology::new(1);
        let obj = t.add_object(ObjectKind::Register, ServerId::new(0));
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        let c = sim.register_client(Box::new(DriverHarness {
            driver: BankMaxDriver::new(ServerId::new(0), vec![obj], None),
        }));
        let _ = sim.invoke(c, HighOp::Write(1));
    }

    #[test]
    fn objects_and_servers_are_reported() {
        let native = NativeMaxDriver::new(ServerId::new(0), ObjectId::new(0));
        let cas = CasMaxDriver::new(ServerId::new(1), ObjectId::new(1));
        let bank = BankMaxDriver::new(
            ServerId::new(2),
            vec![ObjectId::new(2), ObjectId::new(3)],
            Some(0),
        );
        assert_eq!(native.objects(), vec![ObjectId::new(0)]);
        assert_eq!(bank.objects().len(), 2);
        assert_eq!(cas.server(), ServerId::new(1));
    }
}
