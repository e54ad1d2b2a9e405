//! The space-optimal construction (Algorithm 2, Section 3.3 / Appendix D).
//!
//! An `f`-tolerant, wait-free, WS-Regular emulation of a `k`-writer register
//! from `kf + ⌈k/z⌉·(f+1)` plain read/write registers (`z = ⌊(n-(f+1))/f⌋`),
//! matching the upper bound of Theorem 3.
//!
//! The construction's two key ideas, both forced by the lower-bound adversary
//! (Section 3.1):
//!
//! 1. **Disjoint register sets.** The `k` writers are partitioned over the
//!    register sets of a [`RegisterLayout`]; writer `c_i` only writes to its
//!    set `R_j`, whose size is large enough that the at most `f` registers
//!    left covered by each of the set's `z` writers — plus the up to `f`
//!    registers lost to crashed servers — can never hide the latest value
//!    from a read quorum.
//! 2. **Never double-cover a register.** A writer never triggers a new
//!    low-level write on a register that still has one of its *own* writes
//!    pending (the `coverSet`), so a writer covers at most `f` registers at
//!    any time (Observation 3). When the old write finally responds, the
//!    writer immediately re-writes the register with its *current* value
//!    (lines 29–32).
//!
//! Reads collect every register of the layout from `n - f` servers and return
//! the value with the highest timestamp; readers never write.

use crate::layout::RegisterLayout;
use crate::quorum::ScanTracker;
use crate::timestamp;
use regemu_bounds::Params;
use regemu_fpsm::{
    BaseOp, BaseResponse, ClientProtocol, Context, Delivery, HighOp, HighResponse, ObjectId, OpId,
    ServerId, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Immutable description of the layout shared by all clients of one
/// emulation instance: the register sets plus the per-server grouping used by
/// `collect()`.
#[derive(Clone, Debug)]
pub struct SharedLayout {
    params: Params,
    layout: RegisterLayout,
    /// All registers grouped by hosting server (including servers that host
    /// none), in server order — the read-quorum structure.
    scan_groups: Vec<(ServerId, Vec<ObjectId>)>,
}

impl SharedLayout {
    /// Builds the shared view from a layout and the topology it was installed
    /// in.
    pub fn new(layout: RegisterLayout, topology: &regemu_fpsm::Topology) -> Arc<Self> {
        let params = layout.params();
        let mut by_server: BTreeMap<ServerId, Vec<ObjectId>> = BTreeMap::new();
        for s in topology.servers() {
            by_server.insert(s, Vec::new());
        }
        for b in layout.all_registers() {
            by_server.entry(topology.server_of(b)).or_default().push(b);
        }
        let scan_groups = by_server.into_iter().collect();
        Arc::new(SharedLayout {
            params,
            layout,
            scan_groups,
        })
    }

    /// The layout parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The underlying register layout.
    pub fn layout(&self) -> &RegisterLayout {
        &self.layout
    }

    /// The per-server register groups scanned by `collect()`.
    pub fn scan_groups(&self) -> &[(ServerId, Vec<ObjectId>)] {
        &self.scan_groups
    }
}

/// What the client is currently doing.
#[derive(Debug)]
enum Phase {
    Idle,
    /// Running `collect()` on behalf of `op`.
    Collecting {
        op: HighOp,
    },
    /// A write has triggered its low-level writes and waits for
    /// `|R_j| - f` acknowledgements.
    Writing,
}

/// A client of the space-optimal construction (Algorithm 2).
///
/// The same type implements writers (constructed with a writer index) and
/// readers (constructed without one). Local state persists across high-level
/// operations, exactly as in the paper's pseudo-code: `tsVal`, `wrSet` and
/// `coverSet` live for the whole run.
pub struct SpaceOptimalClient {
    shared: Arc<SharedLayout>,
    writer_index: Option<usize>,
    /// `R_j` — the register set this writer writes to (empty for readers).
    my_set: Vec<ObjectId>,

    /// `tsVal` — the timestamped value of this writer's latest write.
    ts_val: Value,
    /// `wrSet` as flags over the slots of `R_j`: the registers whose most
    /// recent low-level write by this client has been acknowledged.
    /// Initially all of `R_j` (nothing pending).
    wr_set: Vec<bool>,
    /// `|wrSet|`.
    wr_count: usize,
    /// `coverSet` as flags over the slots of `R_j`: registers still covered
    /// by one of this client's earlier low-level writes; the client must not
    /// write to them again until that write responds.
    cover_set: Vec<bool>,

    /// The current `collect()`: its scan, the id of its first low-level read
    /// (one read per register, triggered back to back in scan order, so the
    /// ids are contiguous) and which of those reads are still unanswered.
    scan: ScanTracker,
    read_base: u64,
    read_live: Vec<bool>,
    /// Low-level writes (across high-level operations) awaiting a response,
    /// with the slot in `R_j` each one writes. At most one per register.
    write_ops: Vec<(OpId, usize)>,

    /// **Ablation knob** — extra acknowledgements the writer is allowed to
    /// skip: the write returns after `|R_j| - f - slack` acks instead of
    /// `|R_j| - f`. The paper's algorithm uses 0; any positive slack breaks
    /// WS-Safety under the right crash/delay schedule (demonstrated by the
    /// `ablation` module of `regemu-adversary`), which is exactly why the
    /// quorum size is what it is.
    write_quorum_slack: usize,

    phase: Phase,
}

impl SpaceOptimalClient {
    /// Creates the protocol for writer `writer_index` (0-based, `< k`).
    pub fn writer(shared: Arc<SharedLayout>, writer_index: usize) -> Self {
        let mut client = Self::reader(shared);
        client.writer_index = Some(writer_index);
        client.my_set = client
            .shared
            .layout()
            .registers_for_writer(writer_index)
            .to_vec();
        client.wr_set = vec![true; client.my_set.len()];
        client.wr_count = client.my_set.len();
        client.cover_set = vec![false; client.my_set.len()];
        client
    }

    /// **For ablation studies only.** Returns a writer that waits for `slack`
    /// fewer acknowledgements than Algorithm 2 prescribes. With `slack = 0`
    /// this is the paper's algorithm; with any larger value the construction
    /// is no longer `f`-tolerant WS-Safe (demonstrated by the `ablation`
    /// module of `regemu-adversary`).
    pub fn writer_with_quorum_slack(
        shared: Arc<SharedLayout>,
        writer_index: usize,
        slack: usize,
    ) -> Self {
        let mut client = Self::writer(shared, writer_index);
        client.write_quorum_slack = slack;
        client
    }

    /// Creates the protocol for a read-only client.
    pub fn reader(shared: Arc<SharedLayout>) -> Self {
        let scan = ScanTracker::new(shared.params().n - shared.params().f, shared.scan_groups());
        SpaceOptimalClient {
            shared,
            writer_index: None,
            my_set: Vec::new(),
            ts_val: Value::INITIAL,
            wr_set: Vec::new(),
            wr_count: 0,
            cover_set: Vec::new(),
            scan,
            read_base: 0,
            read_live: Vec::new(),
            write_ops: Vec::new(),
            write_quorum_slack: 0,
            phase: Phase::Idle,
        }
    }

    /// The registers currently covered by this client's own pending writes —
    /// at most `f` of them once a write completes (Observation 3).
    pub fn covered_registers(&self) -> BTreeSet<ObjectId> {
        self.my_set
            .iter()
            .zip(&self.cover_set)
            .filter(|(_, covered)| **covered)
            .map(|(b, _)| *b)
            .collect()
    }

    fn write_quorum_size(&self) -> usize {
        (self.my_set.len() - self.shared.params().f).saturating_sub(self.write_quorum_slack)
    }

    /// Lines 20–24: trigger a read on every register of the layout and wait
    /// for `n - f` complete per-server scans.
    fn start_collect(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        self.scan.restart(self.shared.scan_groups());
        self.read_live.clear();
        for (_, registers) in self.shared.scan_groups() {
            for b in registers {
                let op_id = ctx.trigger(*b, BaseOp::Read);
                if self.read_live.is_empty() {
                    self.read_base = op_id.index();
                }
                debug_assert_eq!(op_id.index(), self.read_base + self.read_live.len() as u64);
                self.read_live.push(true);
            }
        }
        self.phase = Phase::Collecting { op };
        // Degenerate layouts (or a threshold of zero) may already be
        // satisfied; handle the transition immediately.
        self.maybe_finish_collect(ctx);
    }

    fn maybe_finish_collect(&mut self, ctx: &mut Context<'_>) {
        let Phase::Collecting { op } = self.phase else {
            return;
        };
        if !self.scan.satisfied() {
            return;
        }
        let best = self.scan.best();
        match op {
            HighOp::Read => {
                self.phase = Phase::Idle;
                ctx.complete(HighResponse::ReadValue(best.val));
            }
            HighOp::Write(payload) => {
                let writer = self
                    .writer_index
                    .expect("a read-only client cannot execute a high-level write");
                // Lines 3–4: pick a timestamp larger than everything observed.
                self.ts_val = Value::new(timestamp::next(best.ts, writer), payload);
                // Lines 6–7: registers that never acknowledged the previous
                // write remain covered; start the new round with an empty
                // acknowledgement set.
                for (covered, acked) in self.cover_set.iter_mut().zip(&mut self.wr_set) {
                    *covered = !std::mem::take(acked);
                }
                self.wr_count = 0;
                // Lines 8–10: write to every register of R_j that is not
                // covered by one of our own pending writes.
                for slot in 0..self.my_set.len() {
                    if !self.cover_set[slot] {
                        self.trigger_write(slot, ctx);
                    }
                }
                self.phase = Phase::Writing;
                self.maybe_finish_write(ctx);
            }
        }
    }

    /// Line 11: the write returns once `|R_j| - f` registers acknowledged.
    fn maybe_finish_write(&mut self, ctx: &mut Context<'_>) {
        if !matches!(self.phase, Phase::Writing) {
            return;
        }
        if self.wr_count >= self.write_quorum_size() {
            self.phase = Phase::Idle;
            ctx.complete(HighResponse::WriteAck);
        }
    }

    /// Lines 29–34: handle a low-level write acknowledgement. Active in every
    /// phase — acknowledgements of writes from *previous* high-level
    /// operations can arrive at any time.
    fn on_write_ack(&mut self, slot: usize, ctx: &mut Context<'_>) {
        if std::mem::take(&mut self.cover_set[slot]) {
            // The old covering write finally landed; immediately refresh the
            // register with our current value (it stays covered by the new
            // write until that one responds).
            self.trigger_write(slot, ctx);
        } else {
            if !std::mem::replace(&mut self.wr_set[slot], true) {
                self.wr_count += 1;
            }
            self.maybe_finish_write(ctx);
        }
    }

    /// Writes `tsVal` to slot `slot` of `R_j`, which has no write of this
    /// client pending.
    fn trigger_write(&mut self, slot: usize, ctx: &mut Context<'_>) {
        let op_id = ctx.trigger(self.my_set[slot], BaseOp::Write(self.ts_val));
        self.write_ops.push((op_id, slot));
        debug_assert!(
            self.write_ops.len() <= self.my_set.len(),
            "two own writes pending on one register"
        );
    }
}

impl ClientProtocol for SpaceOptimalClient {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        debug_assert!(
            !(op.is_write() && self.writer_index.is_none()),
            "a read-only client received a high-level write"
        );
        // Both reads and writes begin with collect() (lines 2 and 18).
        self.start_collect(op, ctx);
    }

    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
        match delivery.response {
            BaseResponse::ReadValue(value) => {
                // Responses to reads of an earlier collect fall outside the
                // current id range (or were answered) and are ignored.
                let live = delivery
                    .op_id
                    .index()
                    .checked_sub(self.read_base)
                    .and_then(|i| self.read_live.get_mut(usize::try_from(i).ok()?));
                if let Some(live @ true) = live {
                    *live = false;
                    if matches!(self.phase, Phase::Collecting { .. }) {
                        self.scan.record(delivery.server, delivery.object, value);
                        self.maybe_finish_collect(ctx);
                    }
                }
            }
            BaseResponse::WriteAck => {
                let at = self
                    .write_ops
                    .iter()
                    .position(|(id, _)| *id == delivery.op_id);
                if let Some(at) = at {
                    let (_, slot) = self.write_ops.swap_remove(at);
                    self.on_write_ack(slot, ctx);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "space-optimal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::prelude::*;
    use regemu_fpsm::{PendingOp, RunMetrics};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn build(k: usize, f: usize, n: usize) -> (Simulation, Arc<SharedLayout>) {
        let params = Params::new(k, f, n).unwrap();
        let (topology, layout) = RegisterLayout::build(params);
        let shared = SharedLayout::new(layout, &topology);
        let sim = Simulation::new(topology, SimConfig::with_fault_threshold(f));
        (sim, shared)
    }

    fn register_clients(
        sim: &mut Simulation,
        shared: &Arc<SharedLayout>,
        k: usize,
        readers: usize,
    ) -> (Vec<ClientId>, Vec<ClientId>) {
        let writers = (0..k)
            .map(|i| sim.register_client(Box::new(SpaceOptimalClient::writer(shared.clone(), i))))
            .collect();
        let readers = (0..readers)
            .map(|_| sim.register_client(Box::new(SpaceOptimalClient::reader(shared.clone()))))
            .collect();
        (writers, readers)
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut sim, shared) = build(2, 1, 4);
        let (writers, readers) = register_clients(&mut sim, &shared, 2, 1);
        let mut driver = FairDriver::new(5);

        let w = sim.invoke(writers[0], HighOp::Write(77)).unwrap();
        driver.run_until_complete(&mut sim, w, 5000).unwrap();
        let r = sim.invoke(readers[0], HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 5000).unwrap();
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(77)));
    }

    #[test]
    fn sequential_writers_from_different_sets_are_observed_in_order() {
        let (mut sim, shared) = build(4, 1, 6);
        let (writers, readers) = register_clients(&mut sim, &shared, 4, 1);
        let mut driver = FairDriver::new(11);

        for (i, w) in writers.iter().enumerate() {
            let op = sim.invoke(*w, HighOp::Write(1000 + i as u64)).unwrap();
            driver.run_until_complete(&mut sim, op, 8000).unwrap();
            let r = sim.invoke(readers[0], HighOp::Read).unwrap();
            driver.run_until_complete(&mut sim, r, 8000).unwrap();
            assert_eq!(
                sim.result_of(r),
                Some(HighResponse::ReadValue(1000 + i as u64))
            );
        }
    }

    #[test]
    fn read_returns_latest_value_despite_f_crashes() {
        let (mut sim, shared) = build(2, 1, 4);
        let (writers, readers) = register_clients(&mut sim, &shared, 2, 1);
        let mut driver = FairDriver::new(3);

        let w = sim.invoke(writers[1], HighOp::Write(5)).unwrap();
        driver.run_until_complete(&mut sim, w, 5000).unwrap();
        // Crash one server (f = 1) after the write completed.
        sim.crash_server(ServerId::new(0)).unwrap();
        let r = sim.invoke(readers[0], HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 5000).unwrap();
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(5)));
    }

    /// Withholds whatever the test has put into the shared set so far.
    ///
    /// The scheduler asks about each operation once, at its first step after
    /// the trigger, so the set must name an operation before that step. The
    /// test below fills it right after the step that triggered the writes,
    /// which is before the scheduler's next step first sees them.
    #[derive(Debug)]
    struct Withhold(Rc<RefCell<BTreeSet<OpId>>>);

    impl BlockStrategy for Withhold {
        fn blocks(&mut self, _sim: &Simulation, op: &PendingOp) -> bool {
            self.0.borrow().contains(&op.op_id)
        }
    }

    #[test]
    fn writer_covers_at_most_f_registers_after_completion() {
        // Block the acknowledgements of up to f low-level writes; the write
        // must still complete (wait-freedom) and leave at most f covered
        // registers (Observation 3).
        let (mut sim, shared) = build(2, 2, 8);
        let writer_protocol = SpaceOptimalClient::writer(shared.clone(), 0);
        let my_set = writer_protocol.my_set.clone();
        let c = sim.register_client(Box::new(writer_protocol));
        let withheld = Rc::new(RefCell::new(BTreeSet::new()));
        let mut driver = AdversarialScheduler::new(7, Box::new(Withhold(withheld.clone())));

        let w = sim.invoke(c, HighOp::Write(9)).unwrap();
        // Let the collect finish and the low-level writes be triggered, then
        // block the first f write ops.
        for _ in 0..10_000 {
            if sim.pending_ops().any(|p| p.op.is_write()) {
                break;
            }
            driver.step(&mut sim).unwrap();
        }
        let writes: Vec<OpId> = sim
            .pending_ops()
            .filter(|p| p.op.is_write())
            .map(|p| p.op_id)
            .collect();
        assert_eq!(writes.len(), my_set.len(), "one write per register of R_j");
        withheld.borrow_mut().extend(writes.iter().take(2));
        driver.run_until_complete(&mut sim, w, 10_000).unwrap();
        // After completion, exactly the blocked writes are still covering.
        let metrics = RunMetrics::capture(&sim);
        assert_eq!(metrics.covered_count(), 2);
        assert!(metrics.covered_count() <= 2);
    }

    #[test]
    fn resource_consumption_matches_theorem_3() {
        for (k, f, n) in [(1, 1, 3), (2, 1, 4), (3, 1, 5), (2, 2, 6), (5, 2, 6)] {
            let (mut sim, shared) = build(k, f, n);
            let (writers, readers) = register_clients(&mut sim, &shared, k, 1);
            let mut driver = FairDriver::new(k as u64 * 31 + f as u64);
            for (i, w) in writers.iter().enumerate() {
                let op = sim.invoke(*w, HighOp::Write(i as u64 + 1)).unwrap();
                driver.run_until_complete(&mut sim, op, 20_000).unwrap();
            }
            let r = sim.invoke(readers[0], HighOp::Read).unwrap();
            driver.run_until_complete(&mut sim, r, 20_000).unwrap();
            assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(k as u64)));

            let params = Params::new(k, f, n).unwrap();
            let metrics = RunMetrics::capture(&sim);
            // Reads touch every register of the layout, so the consumption is
            // exactly the layout size, which is Theorem 3's formula.
            assert_eq!(
                metrics.resource_consumption(),
                regemu_bounds::register_upper_bound(params)
            );
            assert!(metrics.resource_consumption() >= regemu_bounds::register_lower_bound(params));
        }
    }

    #[test]
    fn reader_never_triggers_writes() {
        let (mut sim, shared) = build(2, 1, 4);
        let (_writers, readers) = register_clients(&mut sim, &shared, 2, 1);
        let mut driver = FairDriver::new(2);
        let r = sim.invoke(readers[0], HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 5000).unwrap();
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(0)));
        let metrics = RunMetrics::capture(&sim);
        assert!(metrics.written.is_empty(), "readers must not write");
    }

    #[test]
    fn two_writers_of_the_same_set_do_not_lose_updates() {
        // k = 2, z = 2: both writers share one register set.
        let (mut sim, shared) = build(2, 1, 6);
        assert_eq!(shared.layout().set_count(), 1);
        let (writers, readers) = register_clients(&mut sim, &shared, 2, 1);
        let mut driver = FairDriver::new(13);
        for round in 0..3u64 {
            for (i, w) in writers.iter().enumerate() {
                let value = round * 10 + i as u64 + 1;
                let op = sim.invoke(*w, HighOp::Write(value)).unwrap();
                driver.run_until_complete(&mut sim, op, 8000).unwrap();
                let r = sim.invoke(readers[0], HighOp::Read).unwrap();
                driver.run_until_complete(&mut sim, r, 8000).unwrap();
                assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(value)));
            }
        }
    }
}
