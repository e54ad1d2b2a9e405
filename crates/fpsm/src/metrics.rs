//! Space-consumption and coverage metrics of a run.
//!
//! The paper's central quantity is the *resource consumption* of a run: the
//! number of base objects used (triggered on) by the emulation algorithm in
//! that run. This module computes it, together with the covering structure
//! ([`RunMetrics::covered`], `Cov(t)` in the paper's notation), the
//! per-server occupancy used by Theorem 6, and the point contention used by
//! Theorem 8.

use crate::ids::{ObjectId, ServerId};
use crate::sim::Simulation;
use std::collections::{BTreeMap, BTreeSet};

/// Snapshot of the space-related metrics of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMetrics {
    /// Base objects on which at least one low-level operation was triggered
    /// (the resource consumption of the run is the size of this set).
    pub touched: BTreeSet<ObjectId>,
    /// Base objects on which at least one write-class operation was
    /// triggered.
    pub written: BTreeSet<ObjectId>,
    /// Base objects currently covered by a pending write (`Cov(now)`).
    pub covered: BTreeSet<ObjectId>,
    /// Per-server count of touched objects.
    pub touched_per_server: BTreeMap<ServerId, usize>,
    /// Per-server count of currently covered objects.
    pub covered_per_server: BTreeMap<ServerId, usize>,
    /// Peak number of covered base objects over the whole run,
    /// `max_t |Cov(t)|` — unlike [`RunMetrics::covered`], which is the
    /// end-of-run snapshot, this captures coverage the schedule built up and
    /// later released. (Resource consumption needs no peak twin: `touched`
    /// only grows, so its peak *is* the final value.)
    pub peak_covered: usize,
    /// Peak number of covered objects on any single server over the run —
    /// the per-server occupancy pressure of Theorem 6.
    pub peak_covered_on_one_server: usize,
    /// Peak number of simultaneously pending low-level operations.
    pub peak_pending: usize,
    /// Maximum number of clients with an incomplete high-level operation at
    /// any point of the run (point contention).
    pub point_contention: usize,
    /// Number of low-level operations triggered in total.
    pub low_level_triggers: u64,
    /// Number of low-level operations that responded.
    pub low_level_responses: u64,
}

impl RunMetrics {
    /// Computes the metrics of the run executed by `sim` so far.
    ///
    /// All history-derived quantities come from [`crate::history::History`]'s
    /// incremental digests, so a capture costs O(objects + pending) — it never
    /// re-scans the event log.
    pub fn capture(sim: &Simulation) -> Self {
        let history = sim.history();
        let touched = history.touched_objects();
        let written = history.written_objects();
        let covered: BTreeSet<ObjectId> = sim
            .pending_ops()
            .filter(|p| p.is_covering_write())
            .map(|p| p.object)
            .collect();

        let mut touched_per_server: BTreeMap<ServerId, usize> = BTreeMap::new();
        for b in &touched {
            *touched_per_server
                .entry(sim.topology().server_of(*b))
                .or_default() += 1;
        }
        let mut covered_per_server: BTreeMap<ServerId, usize> = BTreeMap::new();
        for b in &covered {
            *covered_per_server
                .entry(sim.topology().server_of(*b))
                .or_default() += 1;
        }

        RunMetrics {
            touched,
            written,
            covered,
            touched_per_server,
            covered_per_server,
            peak_covered: sim.peak_covered_count(),
            peak_covered_on_one_server: sim.peak_covered_on_one_server(),
            peak_pending: sim.peak_pending_count(),
            point_contention: history.point_contention(),
            low_level_triggers: history.trigger_count(),
            low_level_responses: history.respond_count(),
        }
    }

    /// The resource consumption of the run: `|touched|`.
    pub fn resource_consumption(&self) -> usize {
        self.touched.len()
    }

    /// Number of currently covered base objects, `|Cov(now)|`.
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }

    /// Peak number of covered objects over the whole run, `max_t |Cov(t)|`.
    pub fn peak_covered_count(&self) -> usize {
        self.peak_covered
    }

    /// Maximum per-server occupancy of the run: the largest number of
    /// touched objects on any single server. `touched` is monotone, so this
    /// end-of-run value is also the peak over the run.
    pub fn max_occupancy(&self) -> usize {
        self.max_touched_per_server()
    }

    /// Maximum number of touched objects on any single server.
    pub(crate) fn max_touched_per_server(&self) -> usize {
        self.touched_per_server.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientProtocol, Context, Delivery};
    use crate::object::ObjectKind;
    use crate::op::{BaseOp, HighOp, HighResponse};
    use crate::sim::SimConfig;
    use crate::topology::Topology;
    use crate::value::Value;

    /// Writes to every object it was given and returns after the first ack,
    /// leaving the rest covered.
    struct SprayWriter {
        targets: Vec<ObjectId>,
        acks: usize,
    }

    impl ClientProtocol for SprayWriter {
        fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
            if let HighOp::Write(v) = op {
                for b in &self.targets {
                    ctx.trigger(*b, BaseOp::Write(Value::new(1, v)));
                }
            }
        }

        fn on_response(&mut self, _delivery: Delivery, ctx: &mut Context<'_>) {
            self.acks += 1;
            if self.acks == 1 {
                ctx.complete(HighResponse::WriteAck);
            }
        }
    }

    #[test]
    fn coverage_and_consumption_are_tracked() {
        let mut t = Topology::new(3);
        let objs = t.add_object_per_server(ObjectKind::Register);
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        let c = sim.register_client(Box::new(SprayWriter {
            targets: objs.clone(),
            acks: 0,
        }));
        sim.invoke(c, HighOp::Write(5)).unwrap();

        let before = RunMetrics::capture(&sim);
        assert_eq!(before.resource_consumption(), 3);
        assert_eq!(before.covered_count(), 3);
        assert_eq!(before.low_level_triggers, 3);
        assert_eq!(before.low_level_responses, 0);
        assert_eq!(before.point_contention, 1);

        // Deliver one write: the high-level op completes, two writes remain
        // covering their objects.
        let first = sim.pending_ops().next().unwrap().op_id;
        sim.deliver(first).unwrap();
        let after = RunMetrics::capture(&sim);
        assert_eq!(after.resource_consumption(), 3);
        assert_eq!(after.covered_count(), 2);
        assert_eq!(after.low_level_responses, 1);
        assert_eq!(after.max_touched_per_server(), 1);
    }

    #[test]
    fn peak_coverage_survives_delivery_and_drops() {
        let mut t = Topology::new(3);
        let objs = t.add_object_per_server(ObjectKind::Register);
        let mut sim = Simulation::new(t, SimConfig::unchecked());
        let c = sim.register_client(Box::new(SprayWriter {
            targets: objs.clone(),
            acks: 0,
        }));
        sim.invoke(c, HighOp::Write(5)).unwrap();
        assert_eq!(RunMetrics::capture(&sim).peak_covered_count(), 3);

        // Drain every pending write: the snapshot coverage collapses to 0
        // but the peak remembers the high-water mark.
        let ids: Vec<_> = sim.pending_ops().map(|p| p.op_id).collect();
        sim.deliver(ids[0]).unwrap();
        sim.drop_pending(ids[1]).unwrap();
        sim.deliver(ids[2]).unwrap();
        let m = RunMetrics::capture(&sim);
        assert_eq!(m.covered_count(), 0);
        assert_eq!(m.peak_covered_count(), 3);
        assert_eq!(m.peak_covered_on_one_server, 1);
        assert_eq!(m.peak_pending, 3);
        assert_eq!(m.max_occupancy(), 1);
    }

    #[test]
    fn empty_run_has_zero_metrics() {
        let t = Topology::new(2);
        let sim = Simulation::new(t, SimConfig::unchecked());
        let m = RunMetrics::capture(&sim);
        assert_eq!(m.resource_consumption(), 0);
        assert_eq!(m.covered_count(), 0);
        assert_eq!(m.point_contention, 0);
        assert_eq!(m.max_touched_per_server(), 0);
    }
}
