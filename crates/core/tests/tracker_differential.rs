//! Differential test of the dense protocol bookkeeping against the
//! tree-based code it replaced, kept verbatim below as the reference:
//! `ScanTracker`, `ServerQuorumTracker`, `BankMaxDriver`'s pending and
//! outstanding sets and `SpaceOptimalClient`'s op maps and `wrSet` /
//! `coverSet`. Both sides get the same random sequences of responses —
//! duplicates, stale ids from earlier phases, ids never triggered, servers
//! that never answer — interleaved with restarts and new operations, and
//! after every step must agree on `satisfied`, `best`, `completed_count`,
//! every outcome and every triggered low-level operation.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use regemu_bounds::Params;
use regemu_core::drivers::{BankMaxDriver, MaxDriver, MaxOutcome};
use regemu_core::quorum::{ScanTracker, ServerQuorumTracker};
use regemu_core::{RegisterLayout, SharedLayout, SpaceOptimalClient};
use regemu_fpsm::{
    BaseOp, BaseResponse, ClientEffects, ClientId, ClientNode, ClientProtocol, Context, Delivery,
    HighOp, HighOpId, HighResponse, ObjectId, OpId, ServerId, Value,
};
use std::cell::RefCell;
use std::rc::Rc;

/// The code as it was before the dense rewrite, renamed with a `Ref` prefix.
#[allow(dead_code, clippy::collapsible_match)]
mod reference {
    use regemu_core::drivers::{MaxDriver, MaxOutcome};
    use regemu_core::timestamp;
    use regemu_core::SharedLayout;
    use regemu_fpsm::{
        BaseOp, BaseResponse, ClientProtocol, Context, Delivery, HighOp, HighResponse, ObjectId,
        OpId, ServerId, Value,
    };
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    /// Tracks completion of per-server tasks until a threshold of servers is
    /// reached, accumulating the maximum [`Value`] observed along the way.
    #[derive(Clone, Debug, Default)]
    pub struct RefServerQuorumTracker {
        threshold: usize,
        completed: BTreeSet<ServerId>,
        best: Value,
    }

    impl RefServerQuorumTracker {
        /// Creates a tracker that is satisfied once `threshold` distinct servers
        /// completed.
        pub fn new(threshold: usize) -> Self {
            RefServerQuorumTracker {
                threshold,
                completed: BTreeSet::new(),
                best: Value::INITIAL,
            }
        }

        /// Records that `server` completed its task, folding `value` (if any)
        /// into the running maximum. Re-completing a server has no effect.
        pub fn record(&mut self, server: ServerId, value: Option<Value>) {
            if let Some(v) = value {
                self.best = self.best.max(v);
            }
            self.completed.insert(server);
        }

        /// Number of servers recorded so far.
        pub fn completed_count(&self) -> usize {
            self.completed.len()
        }

        /// Returns `true` once the threshold has been reached.
        pub fn satisfied(&self) -> bool {
            self.completed.len() >= self.threshold
        }

        /// The maximum value observed across all recorded servers.
        pub fn best(&self) -> Value {
            self.best
        }

        /// The servers recorded so far.
        pub fn completed(&self) -> &BTreeSet<ServerId> {
            &self.completed
        }
    }

    /// Tracks a `collect()`-style scan: for every server, the set of registers
    /// that still have to respond; a server's scan is complete once all of its
    /// registers responded. Satisfied once `threshold` servers completed.
    #[derive(Clone, Debug, Default)]
    pub struct RefScanTracker {
        threshold: usize,
        outstanding: BTreeMap<ServerId, BTreeSet<ObjectId>>,
        completed: BTreeSet<ServerId>,
        best: Value,
        values: Vec<Value>,
    }

    impl RefScanTracker {
        /// Creates a scan over the given `(server, registers)` groups; servers
        /// with no registers count as completed immediately.
        pub fn new<I>(threshold: usize, groups: I) -> Self
        where
            I: IntoIterator<Item = (ServerId, Vec<ObjectId>)>,
        {
            let mut outstanding = BTreeMap::new();
            let mut completed = BTreeSet::new();
            for (server, registers) in groups {
                if registers.is_empty() {
                    completed.insert(server);
                } else {
                    outstanding.insert(server, registers.into_iter().collect());
                }
            }
            RefScanTracker {
                threshold,
                outstanding,
                completed,
                best: Value::INITIAL,
                values: Vec::new(),
            }
        }

        /// Records a read response of `value` from `register` on `server`.
        pub fn record(&mut self, server: ServerId, register: ObjectId, value: Value) {
            self.best = self.best.max(value);
            self.values.push(value);
            if let Some(waiting) = self.outstanding.get_mut(&server) {
                waiting.remove(&register);
                if waiting.is_empty() {
                    self.outstanding.remove(&server);
                    self.completed.insert(server);
                }
            }
        }

        /// Returns `true` once enough servers completed their scans.
        pub fn satisfied(&self) -> bool {
            self.completed.len() >= self.threshold
        }

        /// Number of servers whose scan completed.
        pub fn completed_count(&self) -> usize {
            self.completed.len()
        }

        /// The maximum value observed so far (over *all* responses, including
        /// those from servers whose scan is still incomplete).
        pub fn best(&self) -> Value {
            self.best
        }

        /// The maximum value observed, restricted to nothing — alias of
        /// [`RefScanTracker::best`] kept for readability at call sites that follow
        /// the paper's `max(rdSet)` notation.
        pub fn max_of_read_set(&self) -> Value {
            self.best
        }

        /// All values collected so far (the `rdSet` of Algorithm 2).
        pub fn read_set(&self) -> &[Value] {
            &self.values
        }
    }

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
    pub struct RefBankMaxDriver {
        server: ServerId,
        registers: Vec<ObjectId>,
        own_slot: Option<usize>,
        phase: Option<BankPhase>,
        pending: BTreeMap<OpId, ObjectId>,
        outstanding: BTreeSet<ObjectId>,
        best: Value,
        target: Value,
    }

    impl RefBankMaxDriver {
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
            RefBankMaxDriver {
                server,
                registers,
                own_slot,
                phase: None,
                pending: BTreeMap::new(),
                outstanding: BTreeSet::new(),
                best: Value::INITIAL,
                target: Value::INITIAL,
            }
        }
    }

    impl MaxDriver for RefBankMaxDriver {
        fn server(&self) -> ServerId {
            self.server
        }

        fn objects(&self) -> Vec<ObjectId> {
            self.registers.clone()
        }

        fn start_read_max(&mut self, ctx: &mut Context<'_>) {
            self.phase = Some(BankPhase::Collect);
            self.pending.clear();
            self.outstanding = self.registers.iter().copied().collect();
            self.best = Value::INITIAL;
            for b in &self.registers {
                let op = ctx.trigger(*b, BaseOp::Read);
                self.pending.insert(op, *b);
            }
        }

        fn start_write_max(&mut self, value: Value, ctx: &mut Context<'_>) {
            let slot = self
                .own_slot
                .expect("write-max on a register bank requires an own slot (writers only)");
            self.phase = Some(BankPhase::ReadOwn);
            self.pending.clear();
            self.target = value;
            let own = self.registers[slot];
            let op = ctx.trigger(own, BaseOp::Read);
            self.pending.insert(op, own);
        }

        fn on_response(
            &mut self,
            delivery: &Delivery,
            ctx: &mut Context<'_>,
        ) -> Option<MaxOutcome> {
            let object = self.pending.remove(&delivery.op_id)?;
            match self.phase? {
                BankPhase::Collect => {
                    if let BaseResponse::ReadValue(v) = delivery.response {
                        self.best = self.best.max(v);
                    }
                    self.outstanding.remove(&object);
                    if self.outstanding.is_empty() {
                        self.phase = None;
                        Some(MaxOutcome::ReadMax(self.best))
                    } else {
                        None
                    }
                }
                BankPhase::ReadOwn => {
                    let current = match delivery.response {
                        BaseResponse::ReadValue(v) => v,
                        _ => Value::INITIAL,
                    };
                    if current >= self.target {
                        // The own slot already stores a value at least as large.
                        self.phase = None;
                        return Some(MaxOutcome::WriteMaxDone);
                    }
                    let slot = self.own_slot.expect("checked in start_write_max");
                    let own = self.registers[slot];
                    let op = ctx.trigger(own, BaseOp::Write(self.target));
                    self.pending.insert(op, own);
                    self.phase = Some(BankPhase::WriteOwn);
                    None
                }
                BankPhase::WriteOwn => {
                    self.phase = None;
                    Some(MaxOutcome::WriteMaxDone)
                }
            }
        }

        fn reset(&mut self) {
            self.phase = None;
            self.pending.clear();
            self.outstanding.clear();
        }

        fn flavour(&self) -> &'static str {
            "register-bank-max"
        }
    }

    /// What the client is currently doing.
    #[derive(Debug)]
    enum Phase {
        Idle,
        /// Running `collect()` on behalf of `op`.
        Collecting {
            op: HighOp,
            scan: RefScanTracker,
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
    pub struct RefSpaceOptimalClient {
        shared: Arc<SharedLayout>,
        writer_index: Option<usize>,
        /// `R_j` — the register set this writer writes to (empty for readers).
        my_set: Vec<ObjectId>,

        /// `tsVal` — the timestamped value of this writer's latest write.
        ts_val: Value,
        /// `wrSet` — registers of `R_j` whose most recent low-level write by this
        /// client has been acknowledged. Initially all of `R_j` (nothing pending).
        wr_set: BTreeSet<ObjectId>,
        /// `coverSet` — registers of `R_j` still covered by one of this client's
        /// earlier low-level writes; the client must not write to them again
        /// until that write responds.
        cover_set: BTreeSet<ObjectId>,

        /// Low-level reads belonging to the current `collect()`.
        read_ops: BTreeMap<OpId, ObjectId>,
        /// Low-level writes (across high-level operations) awaiting a response.
        write_ops: BTreeMap<OpId, ObjectId>,

        /// **Ablation knob** — extra acknowledgements the writer is allowed to
        /// skip: the write returns after `|R_j| - f - slack` acks instead of
        /// `|R_j| - f`. The paper's algorithm uses 0; any positive slack breaks
        /// WS-Safety under the right crash/delay schedule (demonstrated by the
        /// `ablation` module of `regemu-adversary`), which is exactly why the
        /// quorum size is what it is.
        write_quorum_slack: usize,

        phase: Phase,
    }

    impl RefSpaceOptimalClient {
        /// Creates the protocol for writer `writer_index` (0-based, `< k`).
        pub fn writer(shared: Arc<SharedLayout>, writer_index: usize) -> Self {
            let my_set = shared.layout().registers_for_writer(writer_index).to_vec();
            let wr_set = my_set.iter().copied().collect();
            RefSpaceOptimalClient {
                shared,
                writer_index: Some(writer_index),
                my_set,
                ts_val: Value::INITIAL,
                wr_set,
                cover_set: BTreeSet::new(),
                read_ops: BTreeMap::new(),
                write_ops: BTreeMap::new(),
                write_quorum_slack: 0,
                phase: Phase::Idle,
            }
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
            RefSpaceOptimalClient {
                shared,
                writer_index: None,
                my_set: Vec::new(),
                ts_val: Value::INITIAL,
                wr_set: BTreeSet::new(),
                cover_set: BTreeSet::new(),
                read_ops: BTreeMap::new(),
                write_ops: BTreeMap::new(),
                write_quorum_slack: 0,
                phase: Phase::Idle,
            }
        }

        /// The registers currently covered by this client's own pending writes —
        /// at most `f` of them once a write completes (Observation 3).
        pub fn covered_registers(&self) -> &BTreeSet<ObjectId> {
            &self.cover_set
        }

        fn read_quorum_size(&self) -> usize {
            self.shared.params().n - self.shared.params().f
        }

        fn write_quorum_size(&self) -> usize {
            (self.my_set.len() - self.shared.params().f).saturating_sub(self.write_quorum_slack)
        }

        /// Lines 20–24: trigger a read on every register of the layout and wait
        /// for `n - f` complete per-server scans.
        fn start_collect(&mut self, op: HighOp, ctx: &mut Context<'_>) {
            let scan = RefScanTracker::new(
                self.read_quorum_size(),
                self.shared.scan_groups().iter().cloned(),
            );
            self.read_ops.clear();
            for (_, registers) in self.shared.scan_groups() {
                for b in registers {
                    let op_id = ctx.trigger(*b, BaseOp::Read);
                    self.read_ops.insert(op_id, *b);
                }
            }
            self.phase = Phase::Collecting { op, scan };
            // Degenerate layouts (or a threshold of zero) may already be
            // satisfied; handle the transition immediately.
            self.maybe_finish_collect(ctx);
        }

        fn maybe_finish_collect(&mut self, ctx: &mut Context<'_>) {
            let Phase::Collecting { op, scan } = &self.phase else {
                return;
            };
            if !scan.satisfied() {
                return;
            }
            let op = *op;
            let best = scan.best();
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
                    self.cover_set = self
                        .my_set
                        .iter()
                        .copied()
                        .filter(|b| !self.wr_set.contains(b))
                        .collect();
                    self.wr_set.clear();
                    // Lines 8–10: write to every register of R_j that is not
                    // covered by one of our own pending writes.
                    for b in self.my_set.clone() {
                        if !self.cover_set.contains(&b) {
                            let op_id = ctx.trigger(b, BaseOp::Write(self.ts_val));
                            self.write_ops.insert(op_id, b);
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
            if self.wr_set.len() >= self.write_quorum_size() {
                self.phase = Phase::Idle;
                ctx.complete(HighResponse::WriteAck);
            }
        }

        /// Lines 29–34: handle a low-level write acknowledgement. Active in every
        /// phase — acknowledgements of writes from *previous* high-level
        /// operations can arrive at any time.
        fn on_write_ack(&mut self, register: ObjectId, ctx: &mut Context<'_>) {
            if self.cover_set.remove(&register) {
                // The old covering write finally landed; immediately refresh the
                // register with our current value (it stays covered by the new
                // write until that one responds).
                let op_id = ctx.trigger(register, BaseOp::Write(self.ts_val));
                self.write_ops.insert(op_id, register);
            } else {
                self.wr_set.insert(register);
                self.maybe_finish_write(ctx);
            }
        }
    }

    impl ClientProtocol for RefSpaceOptimalClient {
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
                    if self.read_ops.remove(&delivery.op_id).is_some() {
                        if let Phase::Collecting { scan, .. } = &mut self.phase {
                            scan.record(delivery.server, delivery.object, value);
                            self.maybe_finish_collect(ctx);
                        }
                        // Stale responses from an earlier collect are ignored.
                    }
                }
                BaseResponse::WriteAck => {
                    if let Some(register) = self.write_ops.remove(&delivery.op_id) {
                        self.on_write_ack(register, ctx);
                    }
                }
                _ => {}
            }
        }

        fn name(&self) -> &'static str {
            "space-optimal"
        }
    }
}

/// A small deterministic generator (SplitMix64) for the random sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn value(&mut self) -> Value {
        Value::new(self.next() % 6, self.next() % 100)
    }
}

/// Random scan groups over servers `0..servers` and objects `0..objects`:
/// each object lands on one listed server or stays outside the scan, some
/// listed servers host nothing, and some servers are not listed at all.
fn random_groups(rng: &mut Rng, servers: usize, objects: usize) -> Vec<(ServerId, Vec<ObjectId>)> {
    let listed: Vec<usize> = (0..servers).filter(|_| rng.below(5) != 0).collect();
    let mut groups: Vec<(ServerId, Vec<ObjectId>)> = listed
        .iter()
        .map(|s| (ServerId::new(*s), Vec::new()))
        .collect();
    for b in 0..objects {
        let slot = rng.below(groups.len() + 1);
        if let Some((_, registers)) = groups.get_mut(slot) {
            registers.push(ObjectId::new(b));
        }
    }
    // Group order is irrelevant to the result; shuffle it anyway.
    for i in (1..groups.len()).rev() {
        let j = rng.below(i + 1);
        groups.swap(i, j);
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `ScanTracker` with `restart` against a reference rebuilt per scan.
    #[test]
    fn scan_tracker_matches_the_tree_version(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let (servers, objects) = (1 + rng.below(6), rng.below(14));
        let threshold = rng.below(servers + 2);
        // Servers in `silent` never answer (until the next restart).
        let mut silent = rng.below(servers + 1);
        let groups = random_groups(&mut rng, servers, objects);
        let mut dense = ScanTracker::new(threshold, &groups);
        let mut tree = reference::RefScanTracker::new(threshold, groups);
        for _ in 0..200 {
            if rng.below(12) == 0 {
                let groups = random_groups(&mut rng, servers, objects);
                dense.restart(&groups);
                tree = reference::RefScanTracker::new(threshold, groups);
                silent = rng.below(servers + 1);
            } else {
                // Any pair, in range or not: duplicates, registers outside
                // the scan and mismatched servers included.
                let server = rng.below(servers + 1);
                if server == silent {
                    continue;
                }
                let (server, register, value) =
                    (ServerId::new(server), ObjectId::new(rng.below(objects + 2)), rng.value());
                dense.record(server, register, value);
                tree.record(server, register, value);
            }
            prop_assert_eq!(dense.satisfied(), tree.satisfied());
            prop_assert_eq!(dense.completed_count(), tree.completed_count());
            prop_assert_eq!(dense.best(), tree.best());
            prop_assert_eq!(dense.read_set(), tree.read_set());
        }
    }

    /// `ServerQuorumTracker` with `reset` against a reference rebuilt per
    /// phase, as ABD used to.
    #[test]
    fn server_quorum_matches_the_tree_version(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let servers = 1 + rng.below(7);
        let threshold = rng.below(servers + 2);
        let mut dense = ServerQuorumTracker::new(threshold);
        let mut tree = reference::RefServerQuorumTracker::new(threshold);
        for _ in 0..200 {
            if rng.below(10) == 0 {
                dense.reset();
                tree = reference::RefServerQuorumTracker::new(threshold);
            } else {
                let server = ServerId::new(rng.below(servers));
                let value = (rng.below(3) != 0).then(|| rng.value());
                dense.record(server, value);
                tree.record(server, value);
            }
            prop_assert_eq!(dense.satisfied(), tree.satisfied());
            prop_assert_eq!(dense.completed_count(), tree.completed_count());
            prop_assert_eq!(dense.best(), tree.best());
            let completed: Vec<ServerId> = tree.completed().iter().copied().collect();
            prop_assert_eq!(dense.completed().collect::<Vec<_>>(), completed);
        }
    }

    /// `BankMaxDriver` against the reference driver, through a harness
    /// protocol: a high-level read starts `read-max`, a write of `v > 0`
    /// starts `write-max` (abandoning whatever was running, as
    /// `start_write_max` does) and a write of 0 only resets the driver.
    #[test]
    fn bank_driver_matches_the_tree_version(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let slots = 1 + rng.below(5);
        let registers: Vec<ObjectId> = (0..slots).map(|i| ObjectId::new(3 + i)).collect();
        let own_slot = (rng.below(4) != 0).then(|| rng.below(slots));
        let server = ServerId::new(0);
        let dense_log = Rc::new(RefCell::new(Vec::new()));
        let tree_log = Rc::new(RefCell::new(Vec::new()));
        let dense = ClientNode::new(ClientId::new(0), Box::new(DriverHarness {
            driver: BankMaxDriver::new(server, registers.clone(), own_slot),
            outcomes: dense_log.clone(),
        }));
        let tree = ClientNode::new(ClientId::new(0), Box::new(DriverHarness {
            driver: reference::RefBankMaxDriver::new(server, registers, own_slot),
            outcomes: tree_log.clone(),
        }));
        let mut twins = Twins::new(dense, tree, true);
        for _ in 0..300 {
            match rng.below(8) {
                0 => twins.invoke(HighOp::Read),
                1 if own_slot.is_some() => {
                    twins.invoke(HighOp::Write(rng.next() % 4));
                }
                _ => twins.deliver(&mut rng, |_| server, &[]),
            }
            twins.assert_same_effects()?;
            prop_assert_eq!(&*dense_log.borrow(), &*tree_log.borrow());
        }
    }

    /// `SpaceOptimalClient` against the reference client: same triggers,
    /// same completions and the same covered registers after every step.
    #[test]
    fn space_optimal_client_matches_the_tree_version(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let (k, f, n) = [(2, 1, 4), (4, 1, 5), (2, 2, 6), (3, 1, 3), (5, 1, 4)][rng.below(5)];
        let params = Params::new(k, f, n).expect("valid parameters");
        let (topology, layout) = RegisterLayout::build(params);
        let shared = SharedLayout::new(layout, &topology);
        let writer = (rng.below(3) != 0).then(|| rng.below(k));
        let slack = rng.below(2);
        let (dense, tree) = match writer {
            Some(w) => (
                Shared::new(SpaceOptimalClient::writer_with_quorum_slack(shared.clone(), w, slack)),
                Shared::new(reference::RefSpaceOptimalClient::writer_with_quorum_slack(
                    shared.clone(),
                    w,
                    slack,
                )),
            ),
            None => (
                Shared::new(SpaceOptimalClient::reader(shared.clone())),
                Shared::new(reference::RefSpaceOptimalClient::reader(shared.clone())),
            ),
        };
        let mut twins = Twins::new(
            ClientNode::new(ClientId::new(0), Box::new(dense.clone())),
            ClientNode::new(ClientId::new(0), Box::new(tree.clone())),
            false,
        );
        // Up to f servers never answer.
        let silent: Vec<ServerId> = (0..rng.below(f + 1)).map(|_| ServerId::new(rng.below(n))).collect();
        for _ in 0..400 {
            if rng.below(10) == 0 {
                let op = match writer {
                    Some(_) if rng.below(2) == 0 => HighOp::Write(1 + rng.next() % 50),
                    _ => HighOp::Read,
                };
                twins.invoke(op);
            } else {
                twins.deliver(&mut rng, |b| topology.server_of(b), &silent);
            }
            twins.assert_same_effects()?;
            prop_assert_eq!(
                dense.0.borrow().covered_registers(),
                tree.0.borrow().covered_registers().clone()
            );
        }
    }
}

/// Forwards a protocol's callbacks to an instance the test keeps a handle
/// on, so its state can be inspected between steps.
struct Shared<P>(Rc<RefCell<P>>);

impl<P> Shared<P> {
    fn new(protocol: P) -> Self {
        Shared(Rc::new(RefCell::new(protocol)))
    }
}

impl<P> Clone for Shared<P> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<P: ClientProtocol> ClientProtocol for Shared<P> {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        self.0.borrow_mut().on_invoke(op, ctx);
    }

    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
        self.0.borrow_mut().on_response(delivery, ctx);
    }
}

/// Drives one max driver and logs every `on_response` outcome.
struct DriverHarness<D> {
    driver: D,
    outcomes: Rc<RefCell<Vec<Option<MaxOutcome>>>>,
}

impl<D: MaxDriver> ClientProtocol for DriverHarness<D> {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        match op {
            HighOp::Read => self.driver.start_read_max(ctx),
            HighOp::Write(0) => self.driver.reset(),
            HighOp::Write(v) => self.driver.start_write_max(Value::new(v, v), ctx),
        }
    }

    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
        let outcome = self.driver.on_response(&delivery, ctx);
        self.outcomes.borrow_mut().push(outcome);
    }
}

/// The same protocol twice — dense and reference — fed identical inputs.
struct Twins {
    dense: ClientNode,
    tree: ClientNode,
    next_op_id: [u64; 2],
    next_high: u64,
    /// Every low-level operation triggered so far, answered or not.
    triggered: Vec<(OpId, ObjectId, BaseOp)>,
    /// Indices into `triggered` of the operations not yet answered.
    pending: Vec<usize>,
    last: Option<(ClientEffects, ClientEffects)>,
    /// Retire every invoked operation at once (for protocols that never
    /// complete one, like the driver harness).
    retire_at_once: bool,
}

impl Twins {
    fn new(dense: ClientNode, tree: ClientNode, retire_at_once: bool) -> Self {
        Twins {
            dense,
            tree,
            next_op_id: [0; 2],
            next_high: 0,
            triggered: Vec::new(),
            pending: Vec::new(),
            last: None,
            retire_at_once,
        }
    }

    /// Invokes `op` on both sides if they are idle.
    fn invoke(&mut self, op: HighOp) {
        if !self.dense.is_idle() {
            return;
        }
        let high = HighOpId::new(self.next_high);
        self.next_high += 1;
        let dense = self.dense.on_invoke(high, op, 0, &mut self.next_op_id[0]);
        let tree = self.tree.on_invoke(high, op, 0, &mut self.next_op_id[1]);
        self.settle(dense, tree);
    }

    /// Delivers a response on both sides: mostly to a pending operation,
    /// sometimes to any operation triggered so far (answered before, or
    /// abandoned by a later phase), sometimes to an id never triggered.
    /// Operations on `silent` servers are never answered.
    fn deliver(
        &mut self,
        rng: &mut Rng,
        server_of: impl Fn(ObjectId) -> ServerId,
        silent: &[ServerId],
    ) {
        let pick = match rng.below(8) {
            0 => rng.below(self.triggered.len()),
            _ if self.pending.is_empty() => return,
            _ => self.pending[rng.below(self.pending.len())],
        };
        let Some(&(mut op_id, object, op)) = self.triggered.get(pick) else {
            return;
        };
        if silent.contains(&server_of(object)) {
            return;
        }
        if rng.below(8) == 0 {
            // An id that was never triggered.
            op_id = OpId::new(self.next_op_id[0] + rng.next() % 4);
        } else {
            self.pending.retain(|&i| i != pick);
        }
        let response = match op {
            BaseOp::Read => BaseResponse::ReadValue(rng.value()),
            _ => BaseResponse::WriteAck,
        };
        let delivery = Delivery {
            op_id,
            object,
            server: server_of(object),
            op,
            response,
        };
        let dense = self.dense.on_delivery(delivery, 0, &mut self.next_op_id[0]);
        let tree = self.tree.on_delivery(delivery, 0, &mut self.next_op_id[1]);
        self.settle(dense, tree);
    }

    /// Records the triggers and retires a completion on both sides.
    fn settle(&mut self, dense: ClientEffects, tree: ClientEffects) {
        for trigger in &tree.triggers {
            self.pending.push(self.triggered.len());
            self.triggered.push(*trigger);
        }
        if let (Some(a), Some(b)) = (dense.completion, tree.completion) {
            self.dense.finish(a);
            self.tree.finish(b);
        }
        if self.retire_at_once && self.dense.current().is_some() {
            self.dense.finish(HighResponse::WriteAck);
            self.tree.finish(HighResponse::WriteAck);
        }
        self.last = Some((dense, tree));
    }

    fn assert_same_effects(&mut self) -> Result<(), TestCaseError> {
        if let Some((dense, tree)) = self.last.take() {
            prop_assert_eq!(&dense.triggers, &tree.triggers);
            prop_assert_eq!(dense.completion, tree.completion);
            prop_assert_eq!(self.dense.current(), self.tree.current());
            self.dense.recycle(dense.triggers);
        }
        Ok(())
    }
}

#[test]
fn harness_reaches_completions() {
    // Guards the generator: the differential runs must exercise completed
    // reads and writes, not only stale traffic.
    let params = Params::new(2, 1, 4).expect("valid parameters");
    let (topology, layout) = RegisterLayout::build(params);
    let shared = SharedLayout::new(layout, &topology);
    let mut twins = Twins::new(
        ClientNode::new(
            ClientId::new(0),
            Box::new(SpaceOptimalClient::writer(shared.clone(), 0)),
        ),
        ClientNode::new(
            ClientId::new(0),
            Box::new(reference::RefSpaceOptimalClient::writer(shared, 0)),
        ),
        false,
    );
    let mut rng = Rng(5);
    let (mut reads, mut writes) = (0, 0);
    for step in 0..2_000 {
        if step % 20 == 0 {
            twins.invoke(if step % 40 == 0 {
                HighOp::Write(9)
            } else {
                HighOp::Read
            });
        } else {
            twins.deliver(&mut rng, |b| topology.server_of(b), &[]);
        }
        match twins.last.as_ref().and_then(|(_, tree)| tree.completion) {
            Some(HighResponse::ReadValue(_)) => reads += 1,
            Some(HighResponse::WriteAck) => writes += 1,
            None => {}
        }
        twins.assert_same_effects().expect("same effects");
    }
    assert!(
        reads > 10 && writes > 10,
        "{reads} reads and {writes} writes completed"
    );
}
