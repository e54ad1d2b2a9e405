//! Covering-write bookkeeping (Definition 1 of the paper).
//!
//! The lower-bound adversary `Ad_i` tracks, for the extension following the
//! checkpoint `t_{i-1}`, the sets
//!
//! * `Rr_i(t)` — registers whose post-checkpoint write already *responded*,
//! * `Cov_i(t)` — registers newly covered after the checkpoint,
//! * `Q_i(t)` — up to `f` covered servers outside the protected set `F`
//!   whose responses the adversary withholds,
//! * `F_i(t)` — servers of `F` that already responded to a post-checkpoint
//!   write,
//! * `M_i(t)` — servers of `F` covered by a post-checkpoint write but with no
//!   response yet,
//! * `G_i(t)` — equal to `M_i(t)` while `|Q_i| < |F_i|`, empty otherwise.
//!
//! [`CoveringTracker`] maintains all of them by replaying the run's events
//! *one at a time* (each trigger/respond is one step, exactly as in the
//! paper's fine-grained runs), so the freezing rule of `Q_i` behaves as in
//! the proof.

use regemu_fpsm::{ClientId, Event, ObjectId, OpId, ServerId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Incremental tracker of the Definition 1 sets for one adversary iteration.
#[derive(Clone, Debug)]
pub(crate) struct CoveringTracker {
    /// The protected server set `F` (|F| = f + 1).
    protected: BTreeSet<ServerId>,
    /// Failure threshold `f`.
    f: usize,
    /// Clients that had completed a high-level write before the checkpoint
    /// (`C(t_{i-1})`): their covering writes are blocked unconditionally.
    previous_writers: BTreeSet<ClientId>,
    /// Registers covered at the checkpoint (`Cov(t_{i-1})`).
    covered_at_checkpoint: BTreeSet<ObjectId>,

    /// Pending post-checkpoint covering writes per register.
    pending_new_writes: BTreeMap<ObjectId, usize>,
    /// Pending pre-checkpoint covering writes per register (they only
    /// disappear if the environment ever lets them respond).
    pending_old_writes: BTreeMap<ObjectId, usize>,
    /// Low-level writes triggered after the checkpoint.
    new_write_ops: BTreeSet<OpId>,
    /// Low-level writes triggered before the checkpoint (still pending then).
    old_write_ops: BTreeSet<OpId>,

    /// `Rr_i` — registers whose post-checkpoint write responded.
    responded: BTreeSet<ObjectId>,
    /// `Q_i` — the frozen-at-`f` covered servers outside `F`.
    q: BTreeSet<ServerId>,
    /// `F_i` — servers of `F` that responded to a post-checkpoint write.
    f_responded: BTreeSet<ServerId>,
}

impl CoveringTracker {
    /// Starts a tracker for a new iteration.
    ///
    /// `previous_writers` is `C(t_{i-1})`; `covered_at_checkpoint` together
    /// with `pending_old_writes` describes the covering writes inherited from
    /// the previous iterations (all of which the adversary keeps blocking).
    pub(crate) fn new(
        protected: BTreeSet<ServerId>,
        f: usize,
        previous_writers: BTreeSet<ClientId>,
        old_pending: impl IntoIterator<Item = (OpId, ObjectId, ClientId)>,
    ) -> Self {
        assert_eq!(
            protected.len(),
            f + 1,
            "the protected set F must have exactly f + 1 servers"
        );
        let mut covered_at_checkpoint = BTreeSet::new();
        let mut pending_old_writes: BTreeMap<ObjectId, usize> = BTreeMap::new();
        let mut old_write_ops = BTreeSet::new();
        for (op, object, _) in old_pending {
            covered_at_checkpoint.insert(object);
            *pending_old_writes.entry(object).or_default() += 1;
            old_write_ops.insert(op);
        }
        CoveringTracker {
            protected,
            f,
            previous_writers,
            covered_at_checkpoint,
            pending_new_writes: BTreeMap::new(),
            pending_old_writes,
            new_write_ops: BTreeSet::new(),
            old_write_ops,
            responded: BTreeSet::new(),
            q: BTreeSet::new(),
            f_responded: BTreeSet::new(),
        }
    }

    /// Feeds one run event to the tracker. Only trigger/respond events of
    /// write-class operations matter; everything else is ignored.
    pub(crate) fn observe(&mut self, event: &Event, topology: &Topology) {
        match event {
            Event::Trigger {
                op_id, object, op, ..
            } if op.is_write() => {
                self.new_write_ops.insert(*op_id);
                *self.pending_new_writes.entry(*object).or_default() += 1;
                self.refresh_q(topology);
            }
            Event::Respond { op_id, object, .. } => {
                if self.new_write_ops.remove(op_id) {
                    if let Some(count) = self.pending_new_writes.get_mut(object) {
                        *count = count.saturating_sub(1);
                        if *count == 0 {
                            self.pending_new_writes.remove(object);
                        }
                    }
                    self.responded.insert(*object);
                    let server = topology.server_of(*object);
                    if self.protected.contains(&server) {
                        self.f_responded.insert(server);
                    }
                    self.refresh_q(topology);
                } else if self.old_write_ops.remove(op_id) {
                    if let Some(count) = self.pending_old_writes.get_mut(object) {
                        *count = count.saturating_sub(1);
                        if *count == 0 {
                            self.pending_old_writes.remove(object);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Definition 1.4: `Q_i` follows `δ(Cov_i) \ F` while that set has at most
    /// `f` servers and freezes afterwards.
    fn refresh_q(&mut self, topology: &Topology) {
        let candidate: BTreeSet<ServerId> = self
            .newly_covered()
            .into_iter()
            .map(|b| topology.server_of(b))
            .filter(|s| !self.protected.contains(s))
            .collect();
        if candidate.len() <= self.f {
            self.q = candidate;
        }
    }

    /// `Cov_i(t)` — registers newly covered since the checkpoint.
    pub(crate) fn newly_covered(&self) -> BTreeSet<ObjectId> {
        self.pending_new_writes
            .keys()
            .filter(|b| !self.covered_at_checkpoint.contains(b))
            .copied()
            .collect()
    }

    /// `M_i(t)` — covered servers of `F` that have not responded yet.
    pub(crate) fn m(&self, topology: &Topology) -> BTreeSet<ServerId> {
        self.newly_covered()
            .into_iter()
            .map(|b| topology.server_of(b))
            .filter(|s| self.protected.contains(s) && !self.f_responded.contains(s))
            .collect()
    }

    /// `G_i(t)` — `M_i(t)` while `|Q_i| < |F_i|`, empty otherwise
    /// (Definition 1.7).
    pub(crate) fn g(&self, topology: &Topology) -> BTreeSet<ServerId> {
        if self.q.len() < self.f_responded.len() {
            self.m(topology)
        } else {
            BTreeSet::new()
        }
    }

    /// Definition 2: is the pending write `op_id` (by `client`, on `object`)
    /// currently blocked by the adversary?
    pub(crate) fn is_blocked(
        &self,
        op_id: OpId,
        client: ClientId,
        object: ObjectId,
        topology: &Topology,
    ) -> bool {
        let _ = op_id;
        // Condition 1: triggered by a client that completed a write before
        // the checkpoint.
        if self.previous_writers.contains(&client) {
            return true;
        }
        // Condition 2: triggered on a register of δ⁻¹(Q_i ∪ G_i).
        let server = topology.server_of(object);
        if self.q.contains(&server) {
            return true;
        }
        if self.g(topology).contains(&server) {
            return true;
        }
        false
    }

    /// Sanity checks corresponding to Lemma 2 claims 5, 6, 8 and 11.
    /// [`AdversaryIteration::run`](crate::adi::AdversaryIteration::run)
    /// checks them after every event it observes when debug assertions are
    /// on, so every debug-built `Ad_i` run (the lower-bound campaign tests,
    /// `paper figure2_coverage` in a debug build) validates the bookkeeping
    /// step by step.
    pub(crate) fn check_lemma2_invariants(&self, topology: &Topology) -> Result<(), String> {
        if self.q.len() > self.f {
            return Err(format!("|Q_i| = {} exceeds f = {}", self.q.len(), self.f));
        }
        if self.f_responded.len() > self.f + 1 {
            return Err(format!("|F_i| = {} exceeds f + 1", self.f_responded.len()));
        }
        if self.m(topology).len() > self.f + 1 {
            return Err("|M_i| exceeds f + 1".to_string());
        }
        // Lemma 2.1: Q_i ⊆ δ(Cov_i) \ F.
        let cov_servers: BTreeSet<ServerId> = self
            .newly_covered()
            .into_iter()
            .map(|b| topology.server_of(b))
            .collect();
        for s in &self.q {
            if self.protected.contains(s) || !cov_servers.contains(s) {
                return Err(format!(
                    "Q_i contains {s} which is not a covered non-F server"
                ));
            }
        }
        // Lemma 2.11: (Q_i ∪ M_i) ∩ δ(Rr_i) = ∅.
        let responded_servers: BTreeSet<ServerId> = self
            .responded
            .iter()
            .map(|b| topology.server_of(*b))
            .collect();
        for s in self.q.iter().chain(self.m(topology).iter()) {
            if responded_servers.contains(s) {
                return Err(format!(
                    "server {s} is in Q_i ∪ M_i but already responded to a new write"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::{BaseOp, BaseResponse, HighOpId, ObjectKind, Value};

    /// `Cov(t)`: every currently covered register, old and new.
    fn covered(tracker: &CoveringTracker) -> BTreeSet<ObjectId> {
        tracker
            .pending_new_writes
            .keys()
            .chain(tracker.pending_old_writes.keys())
            .copied()
            .collect()
    }

    fn topology(n: usize) -> Topology {
        let mut t = Topology::new(n);
        t.add_object_per_server(ObjectKind::Register);
        t
    }

    fn protected(servers: &[usize]) -> BTreeSet<ServerId> {
        servers.iter().map(|s| ServerId::new(*s)).collect()
    }

    fn trigger(op: u64, client: usize, object: usize) -> Event {
        Event::Trigger {
            time: op,
            client: ClientId::new(client),
            high_op: Some(HighOpId::new(0)),
            op_id: OpId::new(op),
            object: ObjectId::new(object),
            op: BaseOp::Write(Value::new(1, 1)),
        }
    }

    fn respond(op: u64, client: usize, object: usize) -> Event {
        Event::Respond {
            time: op + 100,
            client: ClientId::new(client),
            op_id: OpId::new(op),
            object: ObjectId::new(object),
            response: BaseResponse::WriteAck,
        }
    }

    #[test]
    fn q_grows_to_f_and_freezes() {
        // n = 5, f = 2, F = {3, 4}... F needs f + 1 = 3 servers.
        let t = topology(6);
        let f_set = protected(&[3, 4, 5]);
        let mut tracker = CoveringTracker::new(f_set, 2, BTreeSet::new(), Vec::new());
        // Writes triggered one at a time on servers 0, 1, 2 (outside F).
        for (op, srv) in [(0u64, 0usize), (1, 1), (2, 2)] {
            tracker.observe(&trigger(op, 9, srv), &t);
        }
        // Q grew to {0, 1} and froze before server 2 could join.
        assert_eq!(tracker.q.len(), 2);
        assert!(tracker.q.contains(&ServerId::new(0)));
        assert!(tracker.q.contains(&ServerId::new(1)));
        assert!(!tracker.q.contains(&ServerId::new(2)));
        tracker.check_lemma2_invariants(&t).unwrap();
    }

    #[test]
    fn writes_on_protected_servers_track_f_i_and_m_i() {
        let t = topology(6);
        let f_set = protected(&[3, 4, 5]);
        let mut tracker = CoveringTracker::new(f_set, 2, BTreeSet::new(), Vec::new());
        tracker.observe(&trigger(0, 7, 3), &t);
        tracker.observe(&trigger(1, 7, 4), &t);
        // Both protected servers are covered, none responded: M_i = {3, 4}.
        assert_eq!(tracker.m(&t).len(), 2);
        assert!(tracker.f_responded.is_empty());
        // One responds: it moves from M_i to F_i.
        tracker.observe(&respond(0, 7, 3), &t);
        assert_eq!(tracker.m(&t).len(), 1);
        assert_eq!(tracker.f_responded.len(), 1);
        assert!(tracker.f_responded.contains(&ServerId::new(3)));
        // G_i = M_i because |Q_i| = 0 < |F_i| = 1.
        assert_eq!(tracker.g(&t), tracker.m(&t));
        tracker.check_lemma2_invariants(&t).unwrap();
    }

    #[test]
    fn blocking_rules_cover_old_clients_and_q_servers() {
        let t = topology(6);
        let f_set = protected(&[3, 4, 5]);
        let old_client = ClientId::new(1);
        let mut previous = BTreeSet::new();
        previous.insert(old_client);
        // One old covering write on register 2 by the previous writer.
        let mut tracker = CoveringTracker::new(
            f_set,
            2,
            previous,
            vec![(OpId::new(100), ObjectId::new(2), old_client)],
        );
        // A new client covers servers 0 and 1 → Q = {0, 1}.
        tracker.observe(&trigger(0, 9, 0), &t);
        tracker.observe(&trigger(1, 9, 1), &t);
        // Old client's write is blocked by rule 1 wherever it is.
        assert!(tracker.is_blocked(OpId::new(100), old_client, ObjectId::new(2), &t));
        // The new client's writes on Q servers are blocked by rule 2.
        assert!(tracker.is_blocked(OpId::new(0), ClientId::new(9), ObjectId::new(0), &t));
        // A write on a protected server by the new client is not blocked
        // (G_i is empty because |Q_i| ≥ |F_i|).
        assert!(!tracker.is_blocked(OpId::new(5), ClientId::new(9), ObjectId::new(3), &t));
        // Coverage counts both old and new covering writes.
        assert_eq!(covered(&tracker).len(), 3);
        assert_eq!(tracker.newly_covered().len(), 2);
    }

    #[test]
    fn responses_uncover_new_registers_but_checkpoint_registers_stay() {
        let t = topology(6);
        let f_set = protected(&[3, 4, 5]);
        let old_client = ClientId::new(0);
        let mut tracker = CoveringTracker::new(
            f_set,
            2,
            BTreeSet::new(),
            vec![(OpId::new(50), ObjectId::new(1), old_client)],
        );
        tracker.observe(&trigger(0, 3, 0), &t);
        assert_eq!(covered(&tracker).len(), 2);
        tracker.observe(&respond(0, 3, 0), &t);
        assert_eq!(tracker.newly_covered().len(), 0);
        assert_eq!(covered(&tracker).len(), 1);
        assert!(tracker.responded.contains(&ObjectId::new(0)));
        // The old write responds too (if the environment ever allows it).
        tracker.observe(&respond(50, 0, 1), &t);
        assert!(covered(&tracker).is_empty());
    }

    #[test]
    #[should_panic(expected = "exactly f + 1")]
    fn wrong_sized_protected_set_is_rejected() {
        CoveringTracker::new(protected(&[0]), 2, BTreeSet::new(), Vec::new());
    }
}
