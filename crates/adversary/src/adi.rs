//! The executable adversary `Ad_i` (Definitions 2–3) and single-iteration
//! extension step of Lemma 1.
//!
//! Given a simulation that already executed the runs `r_0 … r_{i-1}`, one
//! [`AdversaryIteration`] lets a *fresh* client invoke a high-level write and
//! then schedules the environment exactly as `Ad_i` prescribes:
//!
//! * no failures are injected;
//! * a pending low-level write is **never delivered** while it belongs to
//!   `BlockedWrites_i(t)` — it was either triggered by a previously completed
//!   writer, or it targets a register on a server of `Q_i(t) ∪ G_i(t)`;
//! * every other pending operation is eventually delivered (the run is fair
//!   for unblocked operations).
//!
//! Because the emulation is `f`-tolerant and obstruction-free, the write must
//! return even though the blocked responses never arrive (Lemma 3); the
//! registers whose writes stay blocked remain *covered*, which is what makes
//! the space consumption grow.

use crate::covering::CoveringTracker;
use regemu_fpsm::{ClientId, HighOp, ObjectId, OpId, Payload, ServerId, SimError, Simulation};
use std::collections::BTreeSet;

/// Outcome of one adversary-driven write extension.
#[derive(Clone, Debug)]
pub(crate) struct IterationOutcome {
    /// Registers covered when the iteration ended (`Cov(t_i)`).
    pub covered: BTreeSet<ObjectId>,
    /// Registers newly covered by this iteration (`Cov(t_i) \ Cov(t_{i-1})`).
    pub newly_covered: BTreeSet<ObjectId>,
    /// Servers of the covered registers (`δ(Cov(t_i))`).
    pub covered_servers: BTreeSet<ServerId>,
    /// Number of delivery steps the adversary performed.
    pub steps: u64,
    /// Pending low-level writes (op, register, client) left covering at the
    /// end of the iteration; they seed the next iteration's tracker.
    pub pending_covering: Vec<(OpId, ObjectId, ClientId)>,
}

/// One `Ad_i` iteration: a fresh writer extends the run with one complete
/// high-level write under adversarial scheduling.
#[derive(Debug)]
pub(crate) struct AdversaryIteration {
    protected: BTreeSet<ServerId>,
    f: usize,
    previous_writers: BTreeSet<ClientId>,
    old_pending: Vec<(OpId, ObjectId, ClientId)>,
    max_steps: u64,
}

impl AdversaryIteration {
    /// Creates an iteration for the protected set `F` (`|F| = f + 1`).
    ///
    /// `previous_writers` is `C(t_{i-1})` and `old_pending` the covering
    /// writes inherited from earlier iterations.
    pub(crate) fn new(
        protected: BTreeSet<ServerId>,
        f: usize,
        previous_writers: BTreeSet<ClientId>,
        old_pending: Vec<(OpId, ObjectId, ClientId)>,
    ) -> Self {
        AdversaryIteration {
            protected,
            f,
            previous_writers,
            old_pending,
            max_steps: 200_000,
        }
    }

    /// Overrides the step budget after which the iteration gives up.
    pub(crate) fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs the iteration: `client` invokes `write(value)` and the adversary
    /// schedules deliveries until the write returns and every unblocked
    /// post-checkpoint write on a protected server has responded (so that
    /// `δ(Cov(t_i)) ∩ F = ∅` whenever the emulation leaves at most the
    /// blocked writes covering).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stuck`] if the write does not return within the
    /// step budget — which would mean the emulation is not obstruction-free
    /// under the adversary, contradicting Lemma 3.
    pub(crate) fn run(
        &self,
        sim: &mut Simulation,
        client: ClientId,
        value: Payload,
    ) -> Result<IterationOutcome, SimError> {
        let mut tracker = CoveringTracker::new(
            self.protected.clone(),
            self.f,
            self.previous_writers.clone(),
            self.old_pending.iter().copied(),
        );
        let mut processed_events = sim.history().total_events();
        let high_op = sim.invoke(client, HighOp::Write(value))?;
        let mut steps = 0u64;

        // Phase 1: deliver unblocked operations until the write returns.
        while sim.result_of(high_op).is_none() {
            Self::feed_new_events(sim, &mut tracker, &mut processed_events);
            let Some(op) = self.pick_deliverable(sim, &tracker) else {
                return Err(SimError::Stuck {
                    steps,
                    waiting_for: format!("high-level write {high_op} under the Ad_i adversary"),
                });
            };
            sim.deliver(op)?;
            steps += 1;
            if steps > self.max_steps {
                return Err(SimError::Stuck {
                    steps,
                    waiting_for: format!("high-level write {high_op} under the Ad_i adversary"),
                });
            }
        }

        // Phase 2: drain the remaining unblocked operations (in particular the
        // writes on protected servers), so that the iteration ends with
        // coverage only on the servers the adversary chose to silence.
        loop {
            Self::feed_new_events(sim, &mut tracker, &mut processed_events);
            let Some(op) = self.pick_deliverable(sim, &tracker) else {
                break;
            };
            sim.deliver(op)?;
            steps += 1;
            if steps > self.max_steps {
                return Err(SimError::Stuck {
                    steps,
                    waiting_for: "drain of unblocked operations".to_string(),
                });
            }
        }
        Self::feed_new_events(sim, &mut tracker, &mut processed_events);

        let covered: BTreeSet<ObjectId> = sim
            .pending_ops()
            .filter(|p| p.is_covering_write())
            .map(|p| p.object)
            .collect();
        let newly_covered = tracker.newly_covered();
        let covered_servers = covered
            .iter()
            .map(|b| sim.topology().server_of(*b))
            .collect();
        let pending_covering = sim
            .pending_ops()
            .filter(|p| p.is_covering_write())
            .map(|p| (p.op_id, p.object, p.client))
            .collect();

        Ok(IterationOutcome {
            covered,
            newly_covered,
            covered_servers,
            steps,
            pending_covering,
        })
    }

    fn feed_new_events(sim: &Simulation, tracker: &mut CoveringTracker, processed: &mut u64) {
        let events = sim
            .history()
            .events_since(*processed)
            .expect("the Ad_i adversary requires full event recording");
        for event in events {
            tracker.observe(&event, sim.topology());
            *processed += 1;
            debug_assert_eq!(
                tracker.check_lemma2_invariants(sim.topology()),
                Ok(()),
                "Lemma 2 after event {processed}: {event:?}"
            );
        }
    }

    /// Picks the next deliverable pending operation that is not blocked by
    /// Definition 2 (lowest op-id first, for determinism).
    fn pick_deliverable(&self, sim: &Simulation, tracker: &CoveringTracker) -> Option<OpId> {
        sim.deliverable_ops()
            .filter(|p| {
                !(p.op.is_write()
                    && tracker.is_blocked(p.op_id, p.client, p.object, sim.topology()))
            })
            .map(|p| p.op_id)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_bounds::Params;
    use regemu_core::{Emulation, SpaceOptimalEmulation};

    fn protected_set(servers: &[usize]) -> BTreeSet<ServerId> {
        servers.iter().map(|s| ServerId::new(*s)).collect()
    }

    #[test]
    fn single_iteration_leaves_f_covered_registers_outside_f() {
        let params = Params::new(2, 2, 8).unwrap();
        let emulation = SpaceOptimalEmulation::new(params);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));

        let protected = protected_set(&[5, 6, 7]);
        let iteration =
            AdversaryIteration::new(protected.clone(), params.f, BTreeSet::new(), Vec::new());
        let outcome = iteration.run(&mut sim, writer, 1).unwrap();

        assert_eq!(sim.completed_high_count(), 1, "write must return (Lemma 3)");
        assert!(
            outcome.covered.len() >= params.f,
            "at least f registers must stay covered, got {}",
            outcome.covered.len()
        );
        assert!(
            outcome.covered_servers.is_disjoint(&protected),
            "coverage must avoid the protected set F"
        );
    }

    #[test]
    fn iteration_reports_pending_covering_writes_for_the_next_round() {
        let params = Params::new(3, 1, 4).unwrap();
        let emulation = SpaceOptimalEmulation::new(params);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let protected = protected_set(&[2, 3]);
        let iteration = AdversaryIteration::new(protected, params.f, BTreeSet::new(), Vec::new());
        let outcome = iteration.run(&mut sim, writer, 7).unwrap();
        assert_eq!(outcome.pending_covering.len(), outcome.covered.len());
        for (_, object, client) in &outcome.pending_covering {
            assert_eq!(*client, writer);
            assert!(outcome.covered.contains(object));
        }
        assert!(outcome.steps > 0);
    }
}
