//! The simulation engine for asynchronous fault-prone shared memory.
//!
//! [`Simulation`] executes runs of an emulation algorithm under *explicit*
//! environment control: nothing happens unless the caller (a driver or an
//! adversary) asks for it. The primitive transitions are:
//!
//! * [`Simulation::invoke`] — a client invokes a high-level operation; its
//!   protocol state machine runs and may trigger low-level operations.
//! * [`Simulation::deliver`] — a pending low-level operation takes effect on
//!   its (atomic) base object **and** responds to the client, in one step.
//!   This realizes Assumption 1 (Write Linearization): a write linearizes at
//!   its respond step, so a pending write has no effect until it is delivered.
//! * [`Simulation::drop_pending`] — a pending low-level operation is discarded
//!   without ever taking effect (e.g. a message lost because its sender
//!   crashed). The environment is free to choose between delivering and
//!   dropping, exactly as in the paper's model.
//! * [`Simulation::crash_server`] / [`Simulation::crash_client`] — crash
//!   faults; crashing a server crashes every base object mapped to it.
//!
//! Fair schedules, crash plans and the lower-bound adversary `Ad_i` are all
//! implemented *on top of* this interface (see [`crate::driver`] and the
//! `regemu-adversary` crate).

use crate::client::{ClientProtocol, Delivery};
use crate::error::SimError;
use crate::event::Event;
use crate::history::{History, RecordingMode};
use crate::ids::{ClientId, HighOpId, ObjectId, OpId, ServerId, Time};
use crate::node::{ClientEffects, ClientNode};
use crate::object::BaseObject;
use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
use crate::telemetry::SimTelemetry;
use crate::topology::Topology;
use std::collections::VecDeque;

/// Static configuration of a simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Failure threshold `f`. When set, [`Simulation::crash_server`] refuses
    /// to crash more than `f` servers, which keeps runs inside the fault model
    /// the emulation was designed for. Use [`SimConfig::unchecked`] to lift
    /// the restriction (e.g. for impossibility demonstrations).
    pub fault_threshold: Option<usize>,
}

impl SimConfig {
    /// Configuration enforcing the failure threshold `f`.
    pub fn with_fault_threshold(f: usize) -> Self {
        SimConfig {
            fault_threshold: Some(f),
        }
    }

    /// Configuration without a failure-threshold check.
    pub fn unchecked() -> Self {
        SimConfig {
            fault_threshold: None,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::unchecked()
    }
}

/// A low-level operation that has been triggered but has not yet responded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingOp {
    /// Identifier of the operation.
    pub op_id: OpId,
    /// Client that triggered it.
    pub client: ClientId,
    /// High-level operation on whose behalf it was triggered (if any).
    pub high_op: Option<HighOpId>,
    /// Target base object.
    pub object: ObjectId,
    /// Server hosting the target object.
    pub server: ServerId,
    /// The operation itself.
    pub op: BaseOp,
    /// Time at which it was triggered.
    pub triggered_at: Time,
}

impl PendingOp {
    /// Returns `true` if this pending operation is a *covering write*: a
    /// write-class operation that may still take effect and overwrite the
    /// object at any later time.
    pub fn is_covering_write(&self) -> bool {
        self.op.is_write()
    }
}

/// Result of delivering a pending low-level operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// The response the base object produced.
    pub response: BaseResponse,
    /// Set when delivering this response caused the client's current
    /// high-level operation to return.
    pub completed_high_op: Option<(HighOpId, HighResponse)>,
    /// `false` when the triggering client had crashed: the operation still
    /// took effect on the object, but no response was delivered to anyone.
    pub notified_client: bool,
}

/// Dense, `OpId`-ordered store of the pending low-level operations.
///
/// Op ids are allocated monotonically (ids are indices), so the slab is a
/// sliding window over the id space: deque slot `i` holds the operation with
/// id `base + i`. Insertion is a `push_back`, lookup and removal are O(1)
/// index arithmetic, and slots drained at the front are popped so the memory
/// footprint stays proportional to the id *span* from the oldest pending
/// operation to the newest id allocated, not to the number of ids ever
/// allocated. Slots drained at the back are kept: the next insert would pad
/// them straight back, an O(span) round trip per operation for as long as
/// one old operation stays pending. A fully drained slab is emptied by the
/// front loop alone. Iteration visits operations in ascending id order — the same order
/// the previous `BTreeMap<OpId, PendingOp>` representation produced, which
/// keeps seeded drivers byte-identical.
#[derive(Debug, Default)]
struct PendingSlab {
    /// Op id corresponding to deque slot 0.
    base: u64,
    slots: VecDeque<Option<PendingOp>>,
    live: usize,
}

impl PendingSlab {
    fn len(&self) -> usize {
        self.live
    }

    fn get(&self, op_id: OpId) -> Option<&PendingOp> {
        let idx = op_id.index().checked_sub(self.base)?;
        self.slots.get(idx as usize)?.as_ref()
    }

    fn insert(&mut self, op: PendingOp) {
        let id = op.op_id.index();
        if self.slots.is_empty() {
            self.base = id;
        }
        debug_assert!(
            id >= self.base + self.slots.len() as u64,
            "op ids must be inserted in allocation order"
        );
        while self.base + (self.slots.len() as u64) < id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(op));
        self.live += 1;
    }

    fn remove(&mut self, op_id: OpId) -> Option<PendingOp> {
        let idx = op_id.index().checked_sub(self.base)? as usize;
        let op = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(op)
    }

    /// Iterates over the pending operations in ascending id order.
    fn iter(&self) -> impl Iterator<Item = &PendingOp> {
        self.slots.iter().flatten()
    }

    /// Iterates over the pending operations with id `>= from`, in ascending
    /// id order. Positioning is index arithmetic, not a scan: O(1) plus the
    /// slots actually visited.
    fn iter_from(&self, from: OpId) -> impl Iterator<Item = &PendingOp> {
        let skip = from.index().saturating_sub(self.base);
        // Clamped to the window first, so the narrowing cast cannot truncate.
        let skip = skip.min(self.slots.len() as u64) as usize;
        self.slots.range(skip..).flatten()
    }
}

/// One scheduler decision, recorded at delivery time.
///
/// When decision tracing is enabled ([`Simulation::enable_decision_trace`]),
/// every [`Simulation::deliver`] call records which of the currently
/// deliverable operations was chosen: `choice` is the rank of the delivered
/// operation among [`Simulation::deliverable_ops`] (ascending op-id order)
/// and `candidates` is how many deliverable operations there were. The
/// resulting stream is a scheduler-independent encoding of the interleaving —
/// replaying the same ranks against the same scenario
/// ([`crate::FairDriver::replaying`]) reproduces the run exactly, whichever
/// scheduler originally produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Simulation time immediately before the delivery.
    pub time: Time,
    /// Rank of the delivered operation among the deliverable ones.
    pub choice: u32,
    /// Number of deliverable operations at that moment.
    pub candidates: u32,
}

/// The simulation of an asynchronous fault-prone shared-memory system.
///
/// Per-client state lives in [`ClientNode`] — the same deployable unit a
/// live client process hosts (see [`crate::node`]) — so the simulated and
/// served executions run literally the same state-machine code.
pub struct Simulation {
    topology: Topology,
    config: SimConfig,
    objects: Vec<BaseObject>,
    server_crashed: Vec<bool>,
    clients: Vec<ClientNode>,
    pending: PendingSlab,
    /// Response of each high-level operation, indexed by `HighOpId` (ids are
    /// allocated densely, so the arena is append-only: a slot is pushed at
    /// invocation and filled in at return).
    high_results: Vec<Option<HighResponse>>,
    /// Running count of filled `high_results` slots.
    completed_high: usize,
    history: History,
    time: Time,
    next_op_id: u64,
    /// Per-delivery scheduler decisions; recorded only when enabled.
    decision_trace: Option<Vec<DecisionRecord>>,
    /// Number of pending *covering writes* per object (`cover_counts[b] > 0`
    /// iff `b ∈ Cov(now)`), maintained incrementally at every pending-set
    /// mutation so coverage peaks cost O(1) per step instead of a scan.
    cover_counts: Vec<usize>,
    /// Number of currently covered objects, `|Cov(now)|`.
    covered_now: usize,
    /// Per-server count of currently covered objects.
    covered_per_server_now: Vec<usize>,
    /// Maximum of `covered_now` over the whole run (`max_t |Cov(t)|`).
    peak_covered: usize,
    /// Maximum, over the whole run, of the covered-object count of any
    /// single server (`max_t max_s |Cov(t) ∩ objects(s)|`, Theorem 6's
    /// per-server quantity under adversarial pressure).
    peak_covered_on_one_server: usize,
    /// Maximum number of simultaneously pending low-level operations.
    peak_pending: usize,
    /// Bumped whenever an operation stops being deliverable: it left the
    /// pending set (delivered or dropped), or its server crashed. A step
    /// loop that reads the same value as at its last step knows that its
    /// candidate list is still exact (see [`crate::driver`]).
    pub(crate) deliverable_epoch: u64,
    /// Sampled telemetry hook, attached at construction only when
    /// [`regemu_obs::enabled`] is on. Observation-only: nothing in the
    /// simulator reads it back, so behaviour — and every deterministic
    /// artifact — is byte-identical with telemetry on or off (the
    /// non-perturbation contract, see [`crate::telemetry`]).
    telemetry: Option<SimTelemetry>,
}

impl Simulation {
    /// Creates a simulation for the given topology.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        let objects: Vec<BaseObject> = topology
            .objects()
            .map(|id| BaseObject::new(id, topology.server_of(id), topology.kind_of(id)))
            .collect();
        let server_crashed = vec![false; topology.server_count()];
        let cover_counts = vec![0; objects.len()];
        let covered_per_server_now = vec![0; topology.server_count()];
        Simulation {
            topology,
            config,
            objects,
            server_crashed,
            clients: Vec::new(),
            pending: PendingSlab::default(),
            high_results: Vec::new(),
            completed_high: 0,
            history: History::new(),
            time: 0,
            next_op_id: 0,
            decision_trace: None,
            cover_counts,
            covered_now: 0,
            covered_per_server_now,
            peak_covered: 0,
            peak_covered_on_one_server: 0,
            peak_pending: 0,
            deliverable_epoch: 0,
            telemetry: regemu_obs::enabled().then(SimTelemetry::attached),
        }
    }

    /// Starts recording one [`DecisionRecord`] per delivery.
    ///
    /// Off by default: ranking the chosen operation costs a scan of the
    /// pending set on every delivery, which ordinary runs should not pay.
    /// Enabling mid-run records from the next delivery onward.
    pub fn enable_decision_trace(&mut self) {
        if self.decision_trace.is_none() {
            self.decision_trace = Some(Vec::new());
        }
    }

    /// The scheduler decisions recorded so far (empty when tracing is off).
    pub fn decision_trace(&self) -> &[DecisionRecord] {
        self.decision_trace.as_deref().unwrap_or(&[])
    }

    /// The topology this simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The configuration of the simulation.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Current logical time (number of steps executed so far).
    pub fn time(&self) -> Time {
        self.time
    }

    /// The recorded history of the run so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The active [`RecordingMode`] of the history.
    pub fn recording_mode(&self) -> RecordingMode {
        self.history.recording_mode()
    }

    /// Switches how much of the event stream the history retains (see
    /// [`RecordingMode`]). Retention is the only thing that changes: the
    /// digests, and therefore the run's behaviour and metrics, are identical
    /// in every mode. Typically called right after construction, before any
    /// events are recorded.
    pub fn set_recording_mode(&mut self, mode: RecordingMode) {
        self.history.set_recording_mode(mode);
    }

    /// Evicts a completed high-level interval from the history's digest
    /// (see [`History::evict_interval`]). Used by run engines that verify
    /// the run online and no longer need the folded operation for the
    /// report surface — together with a bounded [`RecordingMode`] this
    /// keeps the whole recording footprint proportional to the run's point
    /// contention instead of its length.
    pub fn evict_interval(&mut self, high_op: HighOpId) -> bool {
        self.history.evict_interval(high_op)
    }

    /// Registers a new client running the given protocol and returns its id.
    pub fn register_client(&mut self, protocol: Box<dyn ClientProtocol>) -> ClientId {
        let id = ClientId::new(self.clients.len());
        self.clients.push(ClientNode::new(id, protocol));
        id
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    // ----- introspection ---------------------------------------------------

    /// Returns the base object with the given id.
    pub fn object(&self, id: ObjectId) -> Result<&BaseObject, SimError> {
        self.objects
            .get(id.index())
            .ok_or(SimError::UnknownObject(id))
    }

    /// Returns `true` if the server has crashed.
    pub fn is_server_crashed(&self, server: ServerId) -> bool {
        self.server_crashed
            .get(server.index())
            .copied()
            .unwrap_or(false)
    }

    /// Returns `true` if the client has crashed.
    pub fn is_client_crashed(&self, client: ClientId) -> bool {
        self.clients
            .get(client.index())
            .map(|c| c.is_crashed())
            .unwrap_or(false)
    }

    /// Number of servers crashed so far.
    pub fn crashed_server_count(&self) -> usize {
        self.server_crashed.iter().filter(|c| **c).count()
    }

    /// Returns `true` if the client has no high-level operation in progress
    /// and has not crashed.
    pub fn is_client_idle(&self, client: ClientId) -> bool {
        self.clients
            .get(client.index())
            .map(|c| c.is_idle())
            .unwrap_or(false)
    }

    /// The high-level operation currently in progress at `client`, if any.
    pub fn current_high_op(&self, client: ClientId) -> Option<(HighOpId, HighOp)> {
        self.clients.get(client.index()).and_then(|c| c.current())
    }

    /// Returns the response of a completed high-level operation, if it has
    /// completed. O(1): responses live in a dense arena indexed by the id.
    pub fn result_of(&self, high_op: HighOpId) -> Option<HighResponse> {
        self.high_results
            .get(high_op.index() as usize)
            .copied()
            .flatten()
    }

    /// Iterator over all pending low-level operations, in ascending id order.
    pub fn pending_ops(&self) -> impl Iterator<Item = &PendingOp> {
        self.pending.iter()
    }

    /// Iterator over the pending low-level operations with id `>= from`, in
    /// ascending id order.
    ///
    /// Seeking is O(1) — op ids are indices into the pending store — so a
    /// caller that remembers [`Simulation::next_op_id`] from its last visit
    /// sees exactly the operations triggered since, without walking the ones
    /// it already knows (see [`crate::AdversarialScheduler`]).
    pub fn pending_ops_from(&self, from: OpId) -> impl Iterator<Item = &PendingOp> {
        self.pending.iter_from(from)
    }

    /// The id the next triggered low-level operation will get. Ids are
    /// allocated densely and never reused, so every operation triggered so
    /// far has a smaller id and every later one an id `>=` this.
    pub fn next_op_id(&self) -> OpId {
        OpId::new(self.next_op_id)
    }

    /// Number of pending low-level operations.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The pending operation with the given id, if any.
    pub fn pending_op(&self, op_id: OpId) -> Option<&PendingOp> {
        self.pending.get(op_id)
    }

    /// Pending operations that can still be delivered (their server has not
    /// crashed).
    pub fn deliverable_ops(&self) -> impl Iterator<Item = &PendingOp> {
        self.pending
            .iter()
            .filter(move |p| !self.is_server_crashed(p.server))
    }

    /// An owned snapshot of the pending low-level operations, in ascending id
    /// order.
    ///
    /// O(pending): the live pending set is materialized directly from the
    /// simulation's slab. Checkers and drivers that need "what is in flight
    /// right now" should call this instead of re-deriving the set from the
    /// event log via [`crate::history::History::pending_low_level`], which is
    /// O(events).
    pub fn pending_snapshot(&self) -> Vec<PendingOp> {
        self.pending.iter().copied().collect()
    }

    /// Number of currently covered base objects, `|Cov(now)|` — objects with
    /// at least one pending covering write. O(1): maintained incrementally.
    pub fn covered_count_now(&self) -> usize {
        self.covered_now
    }

    /// Peak number of covered base objects over the whole run so far,
    /// `max_t |Cov(t)|`. Unlike the end-of-run snapshot, this captures
    /// coverage the schedule built up and later released.
    pub fn peak_covered_count(&self) -> usize {
        self.peak_covered
    }

    /// Peak number of covered objects on any *single* server over the run so
    /// far — the per-server occupancy pressure of Theorem 6.
    pub fn peak_covered_on_one_server(&self) -> usize {
        self.peak_covered_on_one_server
    }

    /// Peak number of simultaneously pending low-level operations over the
    /// run so far.
    pub fn peak_pending_count(&self) -> usize {
        self.peak_pending
    }

    /// Number of high-level operations invoked so far (completed or not).
    pub fn invoked_high_count(&self) -> usize {
        self.high_results.len()
    }

    /// Number of high-level operations that have completed so far. O(1):
    /// maintained incrementally, never derived by scanning.
    pub fn completed_high_count(&self) -> usize {
        self.completed_high
    }

    // ----- transitions -----------------------------------------------------

    /// Invokes a high-level operation at `client`.
    ///
    /// # Errors
    ///
    /// Fails if the client is unknown, crashed, or already has a high-level
    /// operation in progress (per-client schedules must be sequential).
    pub fn invoke(&mut self, client: ClientId, op: HighOp) -> Result<HighOpId, SimError> {
        let node = self
            .clients
            .get(client.index())
            .ok_or(SimError::UnknownClient(client))?;
        if node.is_crashed() {
            return Err(SimError::ClientCrashed(client));
        }
        if node.current().is_some() {
            return Err(SimError::ClientBusy(client));
        }

        let high_op = HighOpId::new(self.high_results.len() as u64);
        self.high_results.push(None);
        self.time += 1;
        self.history.push(Event::Invoke {
            time: self.time,
            client,
            high_op,
            op,
        });
        let effects =
            self.clients[client.index()].on_invoke(high_op, op, self.time, &mut self.next_op_id);
        self.apply_effects(client, Some(high_op), effects);
        if let Some(t) = self.telemetry.as_mut() {
            t.note_invoke(self.time, self.pending.len());
        }
        Ok(high_op)
    }

    /// Delivers the pending low-level operation `op_id`: the operation takes
    /// effect on its base object and the response is handed to the client's
    /// protocol (unless the client crashed).
    ///
    /// # Errors
    ///
    /// Fails if the operation is not pending or its server has crashed.
    pub fn deliver(&mut self, op_id: OpId) -> Result<DeliveryOutcome, SimError> {
        let pending = *self.pending.get(op_id).ok_or(SimError::UnknownOp(op_id))?;
        if self.is_server_crashed(pending.server) {
            return Err(SimError::ServerCrashed(pending.server));
        }
        if self.decision_trace.is_some() {
            let mut choice = 0u32;
            let mut candidates = 0u32;
            for p in self.deliverable_ops() {
                if p.op_id < op_id {
                    choice += 1;
                }
                candidates += 1;
            }
            let record = DecisionRecord {
                time: self.time,
                choice,
                candidates,
            };
            self.decision_trace
                .as_mut()
                .expect("checked above")
                .push(record);
        }
        // Apply to the object: this is the operation's linearization point.
        let response = self.objects[pending.object.index()].apply(&pending.op)?;
        self.pending.remove(op_id);
        self.note_pending_removed(&pending);
        self.time += 1;
        self.history.push(Event::Respond {
            time: self.time,
            client: pending.client,
            op_id,
            object: pending.object,
            response,
        });

        let client_crashed = self.is_client_crashed(pending.client);
        if client_crashed {
            if let Some(t) = self.telemetry.as_mut() {
                t.note_delivery(self.time, self.pending.len());
            }
            return Ok(DeliveryOutcome {
                response,
                completed_high_op: None,
                notified_client: false,
            });
        }

        let delivery = Delivery {
            op_id,
            object: pending.object,
            server: pending.server,
            op: pending.op,
            response,
        };
        let client = pending.client;
        let current_high = self.clients[client.index()].current().map(|(id, _)| id);
        let effects =
            self.clients[client.index()].on_delivery(delivery, self.time, &mut self.next_op_id);
        let completed = self.apply_effects(client, current_high, effects);
        if let Some(t) = self.telemetry.as_mut() {
            t.note_delivery(self.time, self.pending.len());
        }
        Ok(DeliveryOutcome {
            response,
            completed_high_op: completed,
            notified_client: true,
        })
    }

    /// Discards a pending low-level operation without applying it.
    ///
    /// Models an operation that never takes effect (for instance because the
    /// message carrying it was lost when its sender crashed). The environment
    /// may choose freely between [`Simulation::deliver`] and this.
    ///
    /// # Errors
    ///
    /// Fails if the operation is not pending.
    pub fn drop_pending(&mut self, op_id: OpId) -> Result<PendingOp, SimError> {
        let op = self
            .pending
            .remove(op_id)
            .ok_or(SimError::UnknownOp(op_id))?;
        self.note_pending_removed(&op);
        if let Some(t) = self.telemetry.as_mut() {
            t.note_drop(self.time, self.pending.len());
        }
        Ok(op)
    }

    /// Crashes a server, crashing every base object mapped to it.
    ///
    /// # Errors
    ///
    /// Fails if the server is unknown or crashing it would exceed the
    /// configured failure threshold.
    pub fn crash_server(&mut self, server: ServerId) -> Result<(), SimError> {
        if server.index() >= self.topology.server_count() {
            return Err(SimError::UnknownServer(server));
        }
        if self.server_crashed[server.index()] {
            return Ok(());
        }
        if let Some(f) = self.config.fault_threshold {
            let crashed = self.crashed_server_count();
            if crashed >= f {
                return Err(SimError::FaultBudgetExceeded {
                    f,
                    already_crashed: crashed,
                });
            }
        }
        self.server_crashed[server.index()] = true;
        self.deliverable_epoch += 1;
        for obj in self.topology.objects_on(server) {
            self.objects[obj.index()].crash();
        }
        self.time += 1;
        self.history.push(Event::ServerCrash {
            time: self.time,
            server,
        });
        if let Some(t) = self.telemetry.as_mut() {
            t.note_crash(self.time, self.pending.len());
        }
        Ok(())
    }

    /// Crashes a client. Its pending low-level operations remain pending; the
    /// environment decides whether they ever take effect.
    ///
    /// # Errors
    ///
    /// Fails if the client is unknown.
    pub fn crash_client(&mut self, client: ClientId) -> Result<(), SimError> {
        if client.index() >= self.clients.len() {
            return Err(SimError::UnknownClient(client));
        }
        if self.clients[client.index()].is_crashed() {
            return Ok(());
        }
        self.clients[client.index()].crash();
        self.time += 1;
        self.history.push(Event::ClientCrash {
            time: self.time,
            client,
        });
        if let Some(t) = self.telemetry.as_mut() {
            t.note_crash(self.time, self.pending.len());
        }
        Ok(())
    }

    // ----- internals -------------------------------------------------------

    /// Updates the incremental coverage/pending accounting after `op` was
    /// inserted into the pending set.
    fn note_pending_inserted(&mut self, op: &PendingOp) {
        self.peak_pending = self.peak_pending.max(self.pending.len());
        if !op.is_covering_write() {
            return;
        }
        let obj = op.object.index();
        self.cover_counts[obj] += 1;
        if self.cover_counts[obj] == 1 {
            self.covered_now += 1;
            self.peak_covered = self.peak_covered.max(self.covered_now);
            let server = op.server.index();
            self.covered_per_server_now[server] += 1;
            self.peak_covered_on_one_server = self
                .peak_covered_on_one_server
                .max(self.covered_per_server_now[server]);
        }
    }

    /// Updates the incremental coverage accounting after `op` left the
    /// pending set (delivered or dropped).
    fn note_pending_removed(&mut self, op: &PendingOp) {
        self.deliverable_epoch += 1;
        if !op.is_covering_write() {
            return;
        }
        let obj = op.object.index();
        self.cover_counts[obj] -= 1;
        if self.cover_counts[obj] == 0 {
            self.covered_now -= 1;
            self.covered_per_server_now[op.server.index()] -= 1;
        }
    }

    fn apply_effects(
        &mut self,
        client: ClientId,
        high_op: Option<HighOpId>,
        effects: ClientEffects,
    ) -> Option<(HighOpId, HighResponse)> {
        let ClientEffects {
            triggers,
            completion,
        } = effects;
        for &(op_id, object, op) in &triggers {
            let server = self.topology.server_of(object);
            debug_assert!(
                self.topology.kind_of(object).supports(&op),
                "protocol {} triggered {} on a {}",
                self.clients[client.index()].protocol_name(),
                op,
                self.topology.kind_of(object),
            );
            self.time += 1;
            self.history.push(Event::Trigger {
                time: self.time,
                client,
                high_op,
                op_id,
                object,
                op,
            });
            let pending = PendingOp {
                op_id,
                client,
                high_op,
                object,
                server,
                op,
                triggered_at: self.time,
            };
            self.pending.insert(pending);
            self.note_pending_inserted(&pending);
        }
        self.clients[client.index()].recycle(triggers);
        if let Some(response) = completion {
            let (high_id, _op) = self.clients[client.index()].finish(response);
            self.time += 1;
            self.history.push(Event::Return {
                time: self.time,
                client,
                high_op: high_id,
                response,
            });
            self.high_results[high_id.index() as usize] = Some(response);
            self.completed_high += 1;
            Some((high_id, response))
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("time", &self.time)
            .field("servers", &self.topology.server_count())
            .field("objects", &self.topology.object_count())
            .field("clients", &self.clients.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Context, NoopProtocol};
    use crate::object::ObjectKind;
    use crate::scheduler::Scheduler;
    use crate::value::Value;

    /// A protocol that writes to a fixed register and returns after the ack,
    /// and reads from it and returns the payload.
    struct SingleRegisterClient {
        target: ObjectId,
    }

    impl ClientProtocol for SingleRegisterClient {
        fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
            match op {
                HighOp::Write(v) => {
                    ctx.trigger(self.target, BaseOp::Write(Value::new(1, v)));
                }
                HighOp::Read => {
                    ctx.trigger(self.target, BaseOp::Read);
                }
            }
        }

        fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
            match delivery.response {
                BaseResponse::WriteAck => ctx.complete(HighResponse::WriteAck),
                BaseResponse::ReadValue(v) => ctx.complete(HighResponse::ReadValue(v.val)),
                _ => unreachable!(),
            }
        }

        fn name(&self) -> &'static str {
            "single-register"
        }
    }

    fn simple_sim() -> (Simulation, ObjectId) {
        let mut t = Topology::new(1);
        let b = t.add_object(ObjectKind::Register, ServerId::new(0));
        (Simulation::new(t, SimConfig::unchecked()), b)
    }

    #[test]
    fn invoke_deliver_complete_cycle() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        let w = sim.invoke(c, HighOp::Write(42)).unwrap();
        assert!(sim.result_of(w).is_none());
        assert_eq!(sim.pending_count(), 1);
        let op_id = sim.pending_ops().next().unwrap().op_id;
        let outcome = sim.deliver(op_id).unwrap();
        assert!(outcome.notified_client);
        assert_eq!(outcome.completed_high_op, Some((w, HighResponse::WriteAck)));
        assert_eq!(sim.result_of(w), Some(HighResponse::WriteAck));
        assert_eq!(sim.pending_count(), 0);

        let r = sim.invoke(c, HighOp::Read).unwrap();
        let op_id = sim.pending_ops().next().unwrap().op_id;
        sim.deliver(op_id).unwrap();
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(42)));
    }

    #[test]
    fn pending_write_has_no_effect_until_delivered() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        sim.invoke(c, HighOp::Write(7)).unwrap();
        // The write is pending: the object still holds the initial value.
        assert_eq!(sim.object(b).unwrap().value(), Value::INITIAL);
        let op_id = sim.pending_ops().next().unwrap().op_id;
        sim.deliver(op_id).unwrap();
        assert_eq!(sim.object(b).unwrap().value(), Value::new(1, 7));
    }

    #[test]
    fn dropped_ops_never_take_effect() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        sim.invoke(c, HighOp::Write(7)).unwrap();
        let op_id = sim.pending_ops().next().unwrap().op_id;
        let dropped = sim.drop_pending(op_id).unwrap();
        assert!(dropped.is_covering_write());
        assert_eq!(sim.pending_count(), 0);
        assert_eq!(sim.object(b).unwrap().value(), Value::INITIAL);
        assert_eq!(sim.deliver(op_id).unwrap_err(), SimError::UnknownOp(op_id));
    }

    #[test]
    fn busy_and_crashed_clients_cannot_invoke() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        sim.invoke(c, HighOp::Write(1)).unwrap();
        assert_eq!(
            sim.invoke(c, HighOp::Read).unwrap_err(),
            SimError::ClientBusy(c)
        );
        sim.crash_client(c).unwrap();
        assert_eq!(
            sim.invoke(c, HighOp::Read).unwrap_err(),
            SimError::ClientCrashed(c)
        );
        assert!(sim.is_client_crashed(c));
        assert!(!sim.is_client_idle(c));
    }

    #[test]
    fn crashed_server_blocks_delivery_and_crashes_objects() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        sim.invoke(c, HighOp::Write(1)).unwrap();
        let op_id = sim.pending_ops().next().unwrap().op_id;
        sim.crash_server(ServerId::new(0)).unwrap();
        assert!(sim.is_server_crashed(ServerId::new(0)));
        assert!(sim.object(b).unwrap().is_crashed());
        assert_eq!(
            sim.deliver(op_id).unwrap_err(),
            SimError::ServerCrashed(ServerId::new(0))
        );
        assert_eq!(sim.deliverable_ops().count(), 0);
        assert_eq!(sim.pending_count(), 1);
    }

    #[test]
    fn fault_threshold_is_enforced() {
        let mut t = Topology::new(3);
        t.add_object_per_server(ObjectKind::Register);
        let mut sim = Simulation::new(t, SimConfig::with_fault_threshold(1));
        sim.crash_server(ServerId::new(0)).unwrap();
        // Re-crashing the same server is a no-op, not a second fault.
        sim.crash_server(ServerId::new(0)).unwrap();
        let err = sim.crash_server(ServerId::new(1)).unwrap_err();
        assert!(matches!(
            err,
            SimError::FaultBudgetExceeded {
                f: 1,
                already_crashed: 1
            }
        ));
        assert_eq!(sim.crashed_server_count(), 1);
    }

    #[test]
    fn delivery_to_crashed_client_still_applies_to_object() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        let w = sim.invoke(c, HighOp::Write(9)).unwrap();
        let op_id = sim.pending_ops().next().unwrap().op_id;
        sim.crash_client(c).unwrap();
        let outcome = sim.deliver(op_id).unwrap();
        assert!(!outcome.notified_client);
        assert!(outcome.completed_high_op.is_none());
        // The write took effect even though nobody was notified.
        assert_eq!(sim.object(b).unwrap().value(), Value::new(1, 9));
        assert!(sim.result_of(w).is_none());
    }

    #[test]
    fn history_records_the_full_run() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        let w = sim.invoke(c, HighOp::Write(3)).unwrap();
        let op_id = sim.pending_ops().next().unwrap().op_id;
        sim.deliver(op_id).unwrap();
        let h = sim.history();
        assert_eq!(h.high_intervals().len(), 1);
        assert!(h.high_intervals()[0].is_complete());
        assert_eq!(h.touched_objects().len(), 1);
        assert!(h.is_write_sequential());
        assert!(sim.result_of(w).is_some());
        assert!(sim.time() >= 4);
    }

    #[test]
    fn noop_protocol_returns_without_pending_ops() {
        let (mut sim, _b) = simple_sim();
        let c = sim.register_client(Box::new(NoopProtocol));
        let w = sim.invoke(c, HighOp::Write(1)).unwrap();
        assert_eq!(sim.result_of(w), Some(HighResponse::WriteAck));
        assert_eq!(sim.pending_count(), 0);
        assert!(sim.is_client_idle(c));
        assert_eq!(sim.completed_high_count(), 1);
    }

    /// A pending read with the given op id, for the slab tests.
    fn mk(id: u64) -> PendingOp {
        PendingOp {
            op_id: OpId::new(id),
            client: ClientId::new(0),
            high_op: None,
            object: ObjectId::new(0),
            server: ServerId::new(0),
            op: BaseOp::Read,
            triggered_at: id,
        }
    }

    #[test]
    fn pending_slab_keeps_id_order_and_reclaims_drained_slots() {
        let mut slab = PendingSlab::default();
        for id in 0..8 {
            slab.insert(mk(id));
        }
        assert_eq!(slab.len(), 8);
        // Iteration is ascending-id, like the BTreeMap it replaced.
        let ids: Vec<u64> = slab.iter().map(|p| p.op_id.index()).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());

        // Remove a middle element: lookups and order are unaffected.
        assert!(slab.remove(OpId::new(3)).is_some());
        assert!(slab.get(OpId::new(3)).is_none());
        assert!(slab.remove(OpId::new(3)).is_none());
        let ids: Vec<u64> = slab.iter().map(|p| p.op_id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 4, 5, 6, 7]);

        // Drain the front: the window slides and the deque shrinks.
        for id in [0, 1, 2, 4] {
            slab.remove(OpId::new(id));
        }
        assert_eq!(slab.base, 5);
        assert_eq!(slab.slots.len(), 3);
        assert_eq!(slab.len(), 3);

        // Drain everything, then insert a much later id: the window restarts
        // at that id instead of padding the gap.
        for id in 5..8 {
            slab.remove(OpId::new(id));
        }
        assert_eq!(slab.len(), 0);
        assert!(slab.slots.is_empty());
        slab.insert(mk(1000));
        assert_eq!(slab.base, 1000);
        assert_eq!(slab.slots.len(), 1);
        assert!(slab.get(OpId::new(1000)).is_some());
        assert!(slab.get(OpId::new(999)).is_none());
        assert!(slab.get(OpId::new(0)).is_none());
    }

    #[test]
    fn pending_slab_iter_from_seeks_by_id() {
        let from = |slab: &PendingSlab, id: u64| -> Vec<u64> {
            slab.iter_from(OpId::new(id))
                .map(|p| p.op_id.index())
                .collect()
        };

        // An empty slab yields nothing wherever the seek lands — including
        // after it was drained, when `base` is stale.
        let mut slab = PendingSlab::default();
        assert!(from(&slab, 0).is_empty());
        assert!(from(&slab, 17).is_empty());
        slab.insert(mk(3));
        slab.remove(OpId::new(3));
        assert!(from(&slab, 0).is_empty());
        assert!(from(&slab, 3).is_empty());
        assert!(from(&slab, 4).is_empty());

        // Ids 10..20 pending.
        for id in 10..20 {
            slab.insert(mk(id));
        }
        // `from` below `base` is the whole slab; `from == base` too.
        assert_eq!(from(&slab, 0), (10..20).collect::<Vec<_>>());
        assert_eq!(from(&slab, 10), (10..20).collect::<Vec<_>>());
        assert_eq!(from(&slab, 15), (15..20).collect::<Vec<_>>());
        // Equal to and beyond the next id to allocate: nothing.
        assert!(from(&slab, 20).is_empty());
        assert!(from(&slab, 21).is_empty());
        assert!(from(&slab, u64::MAX).is_empty());

        // A run of reclaimed `None` slots in the middle: seeking to its
        // first, an inner and its last slot all resume at the next live op.
        for id in 13..17 {
            slab.remove(OpId::new(id));
        }
        for seek in [13, 14, 16, 17] {
            assert_eq!(from(&slab, seek), vec![17, 18, 19], "seek {seek}");
        }
        assert_eq!(from(&slab, 12), vec![12, 17, 18, 19]);

        // Front reclamation moves `base` up; seeks below it still start at
        // the first live op.
        for id in 10..13 {
            slab.remove(OpId::new(id));
        }
        assert_eq!(slab.base, 17);
        assert_eq!(from(&slab, 0), vec![17, 18, 19]);
        assert_eq!(from(&slab, 11), vec![17, 18, 19]);
        assert_eq!(from(&slab, 18), vec![18, 19]);

        // Slots drained at the back stay in the window; seeks into that tail
        // find nothing.
        slab.remove(OpId::new(19));
        slab.remove(OpId::new(18));
        assert_eq!(slab.slots.len(), 3);
        assert_eq!(from(&slab, 17), vec![17]);
        assert!(from(&slab, 18).is_empty());
        assert!(from(&slab, 19).is_empty());

        // Ids allocated but never inserted (a gap) pad the window.
        slab.insert(mk(25));
        assert_eq!(from(&slab, 18), vec![25]);
        assert_eq!(from(&slab, 25), vec![25]);
        assert!(from(&slab, 26).is_empty());
    }

    #[test]
    fn pending_ops_from_and_next_op_id_track_allocation() {
        let mut t = Topology::new(3);
        let objs = t.add_object_per_server(ObjectKind::Register);
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        let ids = |sim: &Simulation, from: OpId| -> Vec<OpId> {
            sim.pending_ops_from(from).map(|p| p.op_id).collect()
        };
        assert_eq!(sim.next_op_id(), OpId::new(0));
        assert!(ids(&sim, OpId::new(0)).is_empty());

        let clients: Vec<ClientId> = objs
            .iter()
            .map(|obj| sim.register_client(Box::new(SingleRegisterClient { target: *obj })))
            .collect();
        // Each invocation triggers exactly one operation and takes one id.
        sim.invoke(clients[0], HighOp::Write(1)).unwrap();
        assert_eq!(sim.next_op_id(), OpId::new(1));
        let mark = sim.next_op_id();
        sim.invoke(clients[1], HighOp::Write(2)).unwrap();
        sim.invoke(clients[2], HighOp::Write(3)).unwrap();
        assert_eq!(sim.next_op_id(), OpId::new(3));
        // From a remembered `next_op_id`: exactly what was triggered since.
        assert_eq!(ids(&sim, mark), vec![OpId::new(1), OpId::new(2)]);
        assert_eq!(
            ids(&sim, OpId::new(0)),
            sim.pending_ops().map(|p| p.op_id).collect::<Vec<_>>()
        );
        assert!(ids(&sim, sim.next_op_id()).is_empty());

        // Delivering and dropping remove operations but never hand an id
        // back: `next_op_id` only moves when something is triggered.
        sim.deliver(OpId::new(1)).unwrap();
        sim.drop_pending(OpId::new(0)).unwrap();
        assert_eq!(sim.next_op_id(), OpId::new(3));
        assert_eq!(ids(&sim, OpId::new(0)), vec![OpId::new(2)]);
        assert_eq!(ids(&sim, mark), vec![OpId::new(2)]);
        // The client freed by the delivery triggers the next id.
        sim.invoke(clients[1], HighOp::Read).unwrap();
        assert_eq!(sim.next_op_id(), OpId::new(4));
        assert_eq!(ids(&sim, OpId::new(3)), vec![OpId::new(3)]);
    }

    #[test]
    fn result_arena_tracks_every_high_op() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        let mut ids = Vec::new();
        for i in 0..10 {
            let w = sim.invoke(c, HighOp::Write(i)).unwrap();
            let op_id = sim.pending_ops().next().unwrap().op_id;
            sim.deliver(op_id).unwrap();
            ids.push(w);
        }
        for w in &ids {
            assert_eq!(sim.result_of(*w), Some(HighResponse::WriteAck));
        }
        // Ids stay dense and an in-flight op has no result yet.
        let r = sim.invoke(c, HighOp::Read).unwrap();
        assert_eq!(r, HighOpId::new(10));
        assert_eq!(sim.result_of(r), None);
        assert_eq!(sim.result_of(HighOpId::new(99)), None);
    }

    #[test]
    fn pending_snapshot_matches_the_history_derived_set() {
        let mut t = Topology::new(3);
        let objs = t.add_object_per_server(ObjectKind::Register);
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        for (i, obj) in objs.iter().enumerate() {
            let c = sim.register_client(Box::new(SingleRegisterClient { target: *obj }));
            sim.invoke(c, HighOp::Write(i as u64)).unwrap();
        }
        // Deliver one, leaving two pending.
        let first = sim.pending_ops().next().unwrap().op_id;
        sim.deliver(first).unwrap();

        let snapshot = sim.pending_snapshot();
        assert_eq!(snapshot.len(), sim.pending_count());
        // Ascending id order, and exactly the set the O(events) scan finds.
        let ids: Vec<_> = snapshot.iter().map(|p| p.op_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        let from_history: Vec<_> = sim.history().pending_low_level().into_iter().collect();
        assert_eq!(ids, from_history);
    }

    #[test]
    fn completion_counters_track_invoked_and_completed_ops() {
        let (mut sim, b) = simple_sim();
        let c = sim.register_client(Box::new(SingleRegisterClient { target: b }));
        assert_eq!(sim.invoked_high_count(), 0);
        assert_eq!(sim.completed_high_count(), 0);
        sim.invoke(c, HighOp::Write(1)).unwrap();
        assert_eq!(sim.invoked_high_count(), 1);
        assert_eq!(sim.completed_high_count(), 0);
        let op = sim.pending_ops().next().unwrap().op_id;
        sim.deliver(op).unwrap();
        assert_eq!(sim.completed_high_count(), 1);
    }

    /// Golden-trace proof of the non-perturbation contract: the same seeded
    /// run produces a byte-identical history and metric surface whether
    /// global telemetry is enabled or not. The run exercises every hook site
    /// (invoke, deliver, drop, server crash, client crash) under a seeded
    /// fair driver.
    #[test]
    fn telemetry_does_not_perturb_runs() {
        fn golden_run() -> String {
            let mut t = Topology::new(3);
            let objs = t.add_object_per_server(ObjectKind::Register);
            let mut sim = Simulation::new(t, SimConfig::with_fault_threshold(1));
            let clients: Vec<ClientId> = objs
                .iter()
                .map(|obj| sim.register_client(Box::new(SingleRegisterClient { target: *obj })))
                .collect();
            let mut driver = crate::driver::FairDriver::new(42);
            for round in 0..20u64 {
                for (i, c) in clients.iter().enumerate() {
                    if sim.is_client_idle(*c) {
                        sim.invoke(*c, HighOp::Write(round * 10 + i as u64))
                            .unwrap();
                    }
                }
                if round == 7 {
                    let first = sim.pending_ops().next().map(|p| p.op_id);
                    if let Some(op) = first {
                        sim.drop_pending(op).unwrap();
                    }
                }
                if round == 11 {
                    sim.crash_server(ServerId::new(2)).unwrap();
                    sim.crash_client(clients[2]).unwrap();
                }
                for _ in 0..2 {
                    driver.step(&mut sim).unwrap();
                }
            }
            let events: Vec<Event> = sim.history().events().collect();
            format!(
                "{events:?}\ntime={} pending={} covered={} peaks={}/{}/{} done={}",
                sim.time(),
                sim.pending_count(),
                sim.covered_count_now(),
                sim.peak_covered_count(),
                sim.peak_covered_on_one_server(),
                sim.peak_pending_count(),
                sim.completed_high_count(),
            )
        }

        let was_enabled = regemu_obs::enabled();
        regemu_obs::set_enabled(false);
        let off = golden_run();
        regemu_obs::set_enabled(true);
        let on = golden_run();
        regemu_obs::set_enabled(was_enabled);
        assert_eq!(on, off, "telemetry perturbed the run");
        assert!(off.contains("ServerCrash"), "run must exercise crash hooks");
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (mut sim, _b) = simple_sim();
        assert!(matches!(
            sim.invoke(ClientId::new(5), HighOp::Read),
            Err(SimError::UnknownClient(_))
        ));
        assert!(matches!(
            sim.deliver(OpId::new(99)),
            Err(SimError::UnknownOp(_))
        ));
        assert!(matches!(
            sim.crash_server(ServerId::new(9)),
            Err(SimError::UnknownServer(_))
        ));
        assert!(matches!(
            sim.crash_client(ClientId::new(9)),
            Err(SimError::UnknownClient(_))
        ));
        assert!(matches!(
            sim.object(ObjectId::new(42)),
            Err(SimError::UnknownObject(_))
        ));
    }
}
