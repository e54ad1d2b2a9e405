//! Multi-writer ABD over per-server `read-max`/`write-max` drivers.
//!
//! The classic ABD emulation keeps one base object per server and uses two
//! quorum phases per operation. As the paper observes (Section 1, "Results"),
//! the per-server code of multi-writer ABD can be encapsulated in the
//! `write-max` / `read-max` primitives of a max-register, so the very same
//! client protocol yields
//!
//! * the `2f + 1` max-register upper bound (with [`NativeMaxDriver`]),
//! * the `2f + 1` CAS upper bound (with [`CasMaxDriver`], i.e. Algorithm 1
//!   executed against each server's single CAS object), and
//! * the `(2f+1)·k` register construction for `n = 2f + 1` (with
//!   [`BankMaxDriver`] over `k` plain registers per server).
//!
//! The protocol is wait-free and WS-Regular; with the optional *read
//! write-back* phase enabled it is atomic (linearizable) as in the original
//! ABD algorithm.
//!
//! [`NativeMaxDriver`]: crate::drivers::NativeMaxDriver
//! [`CasMaxDriver`]: crate::drivers::CasMaxDriver
//! [`BankMaxDriver`]: crate::drivers::BankMaxDriver

use crate::drivers::{MaxDriver, MaxOutcome};
use crate::quorum::ServerQuorumTracker;
use crate::timestamp;
use regemu_bounds::Params;
use regemu_fpsm::{ClientProtocol, Context, Delivery, HighOp, HighResponse, Value};

/// Which phase of the two-phase quorum protocol the client is in.
#[derive(Debug)]
enum Phase {
    /// No high-level operation in progress.
    Idle,
    /// Phase 1: `read-max` from `n - f` servers.
    Query { op: HighOp },
    /// Phase 2: `write-max` to `n - f` servers, then return `response`.
    Update { response: HighResponse },
}

/// The ABD client protocol, generic over the per-server [`MaxDriver`]s.
pub struct AbdClient {
    /// 0-based writer index, or `None` for a read-only client.
    writer_index: Option<usize>,
    /// When `true`, reads perform a write-back phase before returning, which
    /// upgrades the guarantee from (WS-)regular to atomic.
    read_write_back: bool,
    drivers: Vec<Box<dyn MaxDriver>>,
    /// Routing table from base object (by index) to the driver responsible
    /// for it.
    object_to_driver: Vec<Option<usize>>,
    phase: Phase,
    /// The servers that answered the current phase; reset when one starts.
    quorum: ServerQuorumTracker,
    /// Fault injection (see [`AbdClient::skipping_update`]): when `true`,
    /// writes acknowledge after the query phase without running the update
    /// round.
    skip_update: bool,
    /// Fault injection (see [`AbdClient::dropping_acks_after`]): when set,
    /// the client silently drops every response after it has processed this
    /// many deliveries — in-flight operations wedge forever.
    drop_acks_after: Option<u64>,
    /// Responses processed so far (only tracked for the dropped-acks fault).
    processed: u64,
}

impl AbdClient {
    /// Creates an ABD client.
    ///
    /// `drivers` must contain one driver per server (the quorum size is
    /// computed as `n - f` over their number). `writer_index` is required for
    /// clients that will invoke high-level writes.
    pub fn new(
        params: Params,
        writer_index: Option<usize>,
        read_write_back: bool,
        drivers: Vec<Box<dyn MaxDriver>>,
    ) -> Self {
        assert_eq!(
            drivers.len(),
            params.n,
            "ABD needs exactly one driver per server (n = {})",
            params.n
        );
        let mut object_to_driver = Vec::new();
        for (i, d) in drivers.iter().enumerate() {
            for b in d.objects() {
                if object_to_driver.len() <= b.index() {
                    object_to_driver.resize(b.index() + 1, None);
                }
                object_to_driver[b.index()] = Some(i);
            }
        }
        AbdClient {
            writer_index,
            read_write_back,
            drivers,
            object_to_driver,
            phase: Phase::Idle,
            quorum: ServerQuorumTracker::new(params.n - params.f),
            skip_update: false,
            drop_acks_after: None,
            processed: 0,
        }
    }

    /// Fault injection for fuzzer validation (`regemu_core::faulty`): the
    /// returned client acknowledges high-level writes right after the query
    /// phase, *skipping the update round entirely*, so the written value
    /// never reaches any server. This breaks even WS-Safety and exists only
    /// so the schedule fuzzer has a known bug to find.
    pub fn skipping_update(mut self) -> Self {
        self.skip_update = true;
        self
    }

    /// Fault injection for the liveness (stuck) oracle
    /// (`regemu_core::faulty`): the returned client processes its first
    /// `threshold` response deliveries normally and silently drops every
    /// later one, so an operation still in flight past the threshold never
    /// completes. Safety is untouched — the run simply wedges — which makes
    /// this the seeded bug only a stuck detector can catch.
    pub fn dropping_acks_after(mut self, threshold: u64) -> Self {
        self.drop_acks_after = Some(threshold);
        self
    }

    fn start_query(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        for d in &mut self.drivers {
            d.reset();
            d.start_read_max(ctx);
        }
        self.phase = Phase::Query { op };
        self.quorum.reset();
    }

    fn start_update(&mut self, value: Value, response: HighResponse, ctx: &mut Context<'_>) {
        for d in &mut self.drivers {
            d.reset();
            d.start_write_max(value, ctx);
        }
        self.phase = Phase::Update { response };
        self.quorum.reset();
    }
}

impl ClientProtocol for AbdClient {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        debug_assert!(
            !(op.is_write() && self.writer_index.is_none()),
            "a read-only ABD client received a high-level write"
        );
        self.start_query(op, ctx);
    }

    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
        if let Some(threshold) = self.drop_acks_after {
            if self.processed >= threshold {
                return;
            }
            self.processed += 1;
        }
        let Some(&Some(driver_index)) = self.object_to_driver.get(delivery.object.index()) else {
            return;
        };
        let outcome = self.drivers[driver_index].on_response(&delivery, ctx);
        let Some(outcome) = outcome else { return };
        let server = self.drivers[driver_index].server();

        match self.phase {
            Phase::Idle => {}
            Phase::Query { op } => {
                let value = match outcome {
                    MaxOutcome::ReadMax(v) => Some(v),
                    MaxOutcome::WriteMaxDone => None,
                };
                self.quorum.record(server, value);
                if !self.quorum.satisfied() {
                    return;
                }
                let best = self.quorum.best();
                match op {
                    HighOp::Write(payload) => {
                        if self.skip_update {
                            // Injected fault: acknowledge without writing.
                            self.phase = Phase::Idle;
                            ctx.complete(HighResponse::WriteAck);
                            return;
                        }
                        let writer = self.writer_index.expect("writes require a writer index");
                        let ts = timestamp::next(best.ts, writer);
                        self.start_update(Value::new(ts, payload), HighResponse::WriteAck, ctx);
                    }
                    HighOp::Read => {
                        if self.read_write_back && !best.is_initial() {
                            self.start_update(best, HighResponse::ReadValue(best.val), ctx);
                        } else {
                            self.phase = Phase::Idle;
                            ctx.complete(HighResponse::ReadValue(best.val));
                        }
                    }
                }
            }
            Phase::Update { response } => {
                self.quorum.record(server, None);
                if self.quorum.satisfied() {
                    self.phase = Phase::Idle;
                    ctx.complete(response);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "abd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{BankMaxDriver, CasMaxDriver, NativeMaxDriver};
    use regemu_fpsm::prelude::*;
    use regemu_fpsm::ObjectKind;

    fn params(k: usize, f: usize, n: usize) -> Params {
        Params::new(k, f, n).unwrap()
    }

    fn native_setup(p: Params) -> (Simulation, Vec<ObjectId>) {
        let mut t = Topology::new(p.n);
        let objs = t.add_object_per_server(ObjectKind::MaxRegister);
        (
            Simulation::new(t, SimConfig::with_fault_threshold(p.f)),
            objs,
        )
    }

    fn native_client(p: Params, objs: &[ObjectId], writer: Option<usize>, wb: bool) -> AbdClient {
        let drivers: Vec<Box<dyn MaxDriver>> = objs
            .iter()
            .enumerate()
            .map(|(s, b)| {
                Box::new(NativeMaxDriver::new(ServerId::new(s), *b)) as Box<dyn MaxDriver>
            })
            .collect();
        AbdClient::new(p, writer, wb, drivers)
    }

    #[test]
    fn write_then_read_over_native_max_registers() {
        let p = params(2, 1, 3);
        let (mut sim, objs) = native_setup(p);
        let w = sim.register_client(Box::new(native_client(p, &objs, Some(0), false)));
        let r = sim.register_client(Box::new(native_client(p, &objs, None, false)));
        let mut driver = FairDriver::new(5);

        let wop = sim.invoke(w, HighOp::Write(41)).unwrap();
        driver.run_until_complete(&mut sim, wop, 1000).unwrap();
        let rop = sim.invoke(r, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, rop, 1000).unwrap();
        assert_eq!(sim.result_of(rop), Some(HighResponse::ReadValue(41)));
    }

    #[test]
    fn later_writes_win_over_earlier_ones() {
        let p = params(2, 1, 3);
        let (mut sim, objs) = native_setup(p);
        let w0 = sim.register_client(Box::new(native_client(p, &objs, Some(0), false)));
        let w1 = sim.register_client(Box::new(native_client(p, &objs, Some(1), false)));
        let r = sim.register_client(Box::new(native_client(p, &objs, None, false)));
        let mut driver = FairDriver::new(9);

        for (client, value) in [(w0, 10), (w1, 20), (w0, 30)] {
            let op = sim.invoke(client, HighOp::Write(value)).unwrap();
            driver.run_until_complete(&mut sim, op, 1000).unwrap();
        }
        let rop = sim.invoke(r, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, rop, 1000).unwrap();
        assert_eq!(sim.result_of(rop), Some(HighResponse::ReadValue(30)));
    }

    #[test]
    fn tolerates_f_crashed_servers() {
        let p = params(1, 1, 3);
        let (mut sim, objs) = native_setup(p);
        let w = sim.register_client(Box::new(native_client(p, &objs, Some(0), false)));
        let r = sim.register_client(Box::new(native_client(p, &objs, None, false)));
        sim.crash_server(ServerId::new(2)).unwrap();

        let mut driver = FairDriver::new(2);
        let wop = sim.invoke(w, HighOp::Write(7)).unwrap();
        driver.run_until_complete(&mut sim, wop, 1000).unwrap();
        let rop = sim.invoke(r, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, rop, 1000).unwrap();
        assert_eq!(sim.result_of(rop), Some(HighResponse::ReadValue(7)));
    }

    #[test]
    fn uses_exactly_2f_plus_1_base_objects() {
        let p = params(4, 2, 5);
        let (mut sim, objs) = native_setup(p);
        let clients: Vec<ClientId> = (0..4)
            .map(|i| sim.register_client(Box::new(native_client(p, &objs, Some(i), false))))
            .collect();
        let mut driver = FairDriver::new(3);
        for (i, c) in clients.iter().enumerate() {
            let op = sim.invoke(*c, HighOp::Write(i as u64 + 1)).unwrap();
            driver.run_until_complete(&mut sim, op, 2000).unwrap();
        }
        let metrics = RunMetrics::capture(&sim);
        assert_eq!(metrics.resource_consumption(), 2 * p.f + 1);
        assert_eq!(
            metrics.resource_consumption(),
            regemu_bounds::max_register_bound(p.f)
        );
    }

    #[test]
    fn works_over_cas_servers_via_algorithm_1() {
        let p = params(2, 1, 3);
        let mut t = Topology::new(p.n);
        let objs = t.add_object_per_server(ObjectKind::Cas);
        let mut sim = Simulation::new(t, SimConfig::with_fault_threshold(p.f));
        let make = |writer: Option<usize>| {
            let drivers: Vec<Box<dyn MaxDriver>> = objs
                .iter()
                .enumerate()
                .map(|(s, b)| {
                    Box::new(CasMaxDriver::new(ServerId::new(s), *b)) as Box<dyn MaxDriver>
                })
                .collect();
            AbdClient::new(p, writer, false, drivers)
        };
        let w0 = sim.register_client(Box::new(make(Some(0))));
        let w1 = sim.register_client(Box::new(make(Some(1))));
        let r = sim.register_client(Box::new(make(None)));
        let mut driver = FairDriver::new(17);

        for (c, v) in [(w0, 5), (w1, 9)] {
            let op = sim.invoke(c, HighOp::Write(v)).unwrap();
            driver.run_until_complete(&mut sim, op, 4000).unwrap();
        }
        let rop = sim.invoke(r, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, rop, 4000).unwrap();
        assert_eq!(sim.result_of(rop), Some(HighResponse::ReadValue(9)));
        assert_eq!(RunMetrics::capture(&sim).resource_consumption(), 3);
    }

    #[test]
    fn works_over_register_banks_for_minimal_n() {
        // n = 2f + 1 special case: each server stores k registers.
        let k = 3;
        let p = params(k, 1, 3);
        let mut t = Topology::new(p.n);
        let mut banks: Vec<Vec<ObjectId>> = Vec::new();
        for s in 0..p.n {
            banks.push(
                (0..k)
                    .map(|_| t.add_object(ObjectKind::Register, ServerId::new(s)))
                    .collect(),
            );
        }
        let mut sim = Simulation::new(t, SimConfig::with_fault_threshold(p.f));
        let make = |slot: Option<usize>| {
            let drivers: Vec<Box<dyn MaxDriver>> = banks
                .iter()
                .enumerate()
                .map(|(s, bank)| {
                    Box::new(BankMaxDriver::new(ServerId::new(s), bank.clone(), slot))
                        as Box<dyn MaxDriver>
                })
                .collect();
            AbdClient::new(p, slot, false, drivers)
        };
        let writers: Vec<ClientId> = (0..k)
            .map(|i| sim.register_client(Box::new(make(Some(i)))))
            .collect();
        let reader = sim.register_client(Box::new(make(None)));
        let mut driver = FairDriver::new(23);

        for (i, c) in writers.iter().enumerate() {
            let op = sim.invoke(*c, HighOp::Write(100 + i as u64)).unwrap();
            driver.run_until_complete(&mut sim, op, 4000).unwrap();
        }
        let rop = sim.invoke(reader, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, rop, 4000).unwrap();
        assert_eq!(sim.result_of(rop), Some(HighResponse::ReadValue(102)));
        // Resource consumption is (2f+1)·k = 9.
        assert_eq!(
            RunMetrics::capture(&sim).resource_consumption(),
            (2 * p.f + 1) * k
        );
    }

    #[test]
    #[should_panic(expected = "one driver per server")]
    fn wrong_driver_count_is_rejected() {
        let p = params(1, 1, 3);
        AbdClient::new(p, Some(0), false, Vec::new());
    }
}
