//! Executable partitioning argument for Theorem 5 (`n ≥ 2f + 1`).
//!
//! Theorem 5 states that no `f`-tolerant WS-Safe obstruction-free emulation
//! exists with `n ≤ 2f` servers. The classic proof is a partitioning
//! argument: any emulation that is live while `f` servers are silent can be
//! driven so that a write talks only to one half of the servers and a later
//! read only to the other half — the halves do not intersect when `n ≤ 2f`,
//! so the read misses the write and WS-Safety is violated.
//!
//! This module makes the argument executable. [`QuorumEmulation`] is the
//! natural `n - f` quorum protocol (one max-register per server); any
//! `f`-tolerant emulation must return after hearing from `n - f` servers, so
//! its behaviour under the partitioning schedule is representative.
//! [`demonstrate_partition`] builds the adversarial schedule and returns the
//! resulting high-level history:
//!
//! * with `n = 2f` the history **violates WS-Safety** — the impossibility;
//! * with `n = 2f + 1` (same schedule) the quorums intersect and the history
//!   is WS-Safe, matching the `2f + 1` upper bound.

use regemu_fpsm::{
    BaseOp, BaseResponse, ClientProtocol, Context, Delivery, HighOp, HighResponse, ObjectId,
    ObjectKind, OpId, ServerId, SimConfig, SimError, Simulation, Topology, Value,
};
use regemu_spec::HighHistory;
use std::collections::BTreeSet;

/// A minimal `n - f` quorum register emulation over one max-register per
/// server, used only to make the partitioning argument concrete. It is the
/// standard single-phase-write / single-phase-read construction: correct for
/// `n ≥ 2f + 1`, necessarily unsafe for `n ≤ 2f`.
#[derive(Debug)]
pub(crate) struct QuorumEmulation {
    /// Number of servers.
    pub n: usize,
    /// Failure threshold.
    pub f: usize,
    topology: Topology,
    objects: Vec<ObjectId>,
}

impl QuorumEmulation {
    /// Builds the emulation over `n` servers, one max-register each.
    pub(crate) fn new(n: usize, f: usize) -> Self {
        assert!(
            n > f,
            "need more servers than failures for the quorum to be nonempty"
        );
        let mut topology = Topology::new(n);
        let objects = topology.add_object_per_server(ObjectKind::MaxRegister);
        QuorumEmulation {
            n,
            f,
            topology,
            objects,
        }
    }

    /// A fresh simulation of the emulation (without a fault budget: the
    /// demonstration only delays messages, it never crashes servers).
    pub(crate) fn build_simulation(&self) -> Simulation {
        Simulation::new(self.topology.clone(), SimConfig::unchecked())
    }

    /// Client protocol: writes `write-max` to all servers and returns after
    /// `n - f` acks; reads `read-max` from all servers and returns the
    /// maximum after `n - f` replies.
    pub(crate) fn client(&self) -> QuorumClient {
        QuorumClient {
            objects: self.objects.clone(),
            quorum: self.n - self.f,
            acked: BTreeSet::new(),
            best: Value::INITIAL,
            pending_kind: None,
        }
    }
}

/// The client protocol of [`QuorumEmulation`].
#[derive(Debug)]
pub(crate) struct QuorumClient {
    objects: Vec<ObjectId>,
    quorum: usize,
    acked: BTreeSet<ObjectId>,
    best: Value,
    pending_kind: Option<HighOp>,
}

impl ClientProtocol for QuorumClient {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        self.acked.clear();
        self.best = Value::INITIAL;
        self.pending_kind = Some(op);
        for b in &self.objects {
            match op {
                HighOp::Write(v) => {
                    ctx.trigger(*b, BaseOp::WriteMax(Value::new(1, v)));
                }
                HighOp::Read => {
                    ctx.trigger(*b, BaseOp::ReadMax);
                }
            }
        }
    }

    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
        let Some(op) = self.pending_kind else { return };
        match delivery.response {
            BaseResponse::WriteMaxAck => {
                self.acked.insert(delivery.object);
            }
            BaseResponse::MaxValue(v) => {
                self.best = self.best.max(v);
                self.acked.insert(delivery.object);
            }
            _ => {}
        }
        if self.acked.len() >= self.quorum && !ctx.has_completed() {
            self.pending_kind = None;
            match op {
                HighOp::Write(_) => ctx.complete(HighResponse::WriteAck),
                HighOp::Read => ctx.complete(HighResponse::ReadValue(self.best.val)),
            }
        }
    }

    fn name(&self) -> &'static str {
        "quorum-register"
    }
}

/// The outcome of the partitioning schedule.
#[derive(Debug)]
pub struct PartitionOutcome {
    /// The high-level schedule produced by the run (a complete write followed
    /// by a non-concurrent complete read).
    pub history: HighHistory,
    /// The value returned by the read.
    pub read_value: u64,
    /// The value written by the write.
    pub written_value: u64,
}

impl PartitionOutcome {
    /// Whether the read missed the preceding write — the WS-Safety violation
    /// the partition argument is after.
    pub fn is_violation(&self) -> bool {
        self.read_value != self.written_value
    }
}

/// Runs the partitioning schedule against `QuorumEmulation` with the given
/// `n` and `f`: the write hears only from servers `0..n-f`, the subsequent
/// read hears only from servers `f..n`.
///
/// # Errors
///
/// Propagates simulation errors (none are expected for valid `n > f`).
pub fn demonstrate_partition(n: usize, f: usize) -> Result<PartitionOutcome, SimError> {
    let emulation = QuorumEmulation::new(n, f);
    let mut sim = emulation.build_simulation();
    let writer = sim.register_client(Box::new(emulation.client()));
    let reader = sim.register_client(Box::new(emulation.client()));

    let written_value = 42;
    let write = sim.invoke(writer, HighOp::Write(written_value))?;
    // Deliver the write's low-level operations only on the first n - f
    // servers; the environment delays the rest indefinitely.
    let write_side: BTreeSet<ServerId> = (0..(n - f)).map(ServerId::new).collect();
    deliver_only_on(&mut sim, writer, &write_side)?;
    assert!(
        sim.result_of(write).is_some(),
        "the write must return after n - f acks"
    );

    // The read starts strictly after the write returned, and hears only from
    // the *last* n - f servers. The writer's leftover low-level writes on
    // those servers stay delayed (the environment keeps withholding them).
    let read = sim.invoke(reader, HighOp::Read)?;
    let read_side: BTreeSet<ServerId> = (f..n).map(ServerId::new).collect();
    deliver_only_on(&mut sim, reader, &read_side)?;
    assert!(
        sim.result_of(read).is_some(),
        "the read must return after n - f replies"
    );

    let read_value = sim
        .result_of(read)
        .and_then(|r| r.payload())
        .expect("read returns a payload");
    Ok(PartitionOutcome {
        history: HighHistory::from_run(sim.history()),
        read_value,
        written_value,
    })
}

/// Delivers every deliverable pending operation of `client` whose server
/// belongs to `allowed`, until none remains. Operations of other clients are
/// withheld, modelling the asymmetric delays of the partition argument.
fn deliver_only_on(
    sim: &mut Simulation,
    client: regemu_fpsm::ClientId,
    allowed: &BTreeSet<ServerId>,
) -> Result<(), SimError> {
    loop {
        let next: Option<OpId> = sim
            .deliverable_ops()
            .filter(|p| p.client == client && allowed.contains(&p.server))
            .map(|p| p.op_id)
            .min();
        match next {
            Some(op) => {
                sim.deliver(op)?;
            }
            None => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::Scheduler;
    use regemu_spec::{check_ws_safe, SequentialSpec};

    #[test]
    fn with_2f_servers_the_partition_violates_ws_safety() {
        for f in 1..=3usize {
            let outcome = demonstrate_partition(2 * f, f).unwrap();
            assert!(
                outcome.is_violation(),
                "n = 2f must admit a violation (f = {f})"
            );
            let err = check_ws_safe(&outcome.history, &SequentialSpec::register());
            assert!(
                err.is_err(),
                "the produced schedule must fail the WS-Safety checker"
            );
        }
    }

    #[test]
    fn with_2f_plus_1_servers_the_same_schedule_is_safe() {
        for f in 1..=3usize {
            let outcome = demonstrate_partition(2 * f + 1, f).unwrap();
            assert!(
                !outcome.is_violation(),
                "n = 2f + 1 quorums intersect (f = {f})"
            );
            check_ws_safe(&outcome.history, &SequentialSpec::register()).unwrap();
        }
    }

    #[test]
    fn quorum_emulation_round_trips_under_fair_delivery() {
        let emulation = QuorumEmulation::new(3, 1);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(Box::new(emulation.client()));
        let reader = sim.register_client(Box::new(emulation.client()));
        let mut driver = regemu_fpsm::FairDriver::new(4);
        let w = sim.invoke(writer, HighOp::Write(9)).unwrap();
        driver.run_until_complete(&mut sim, w, 1000).unwrap();
        let r = sim.invoke(reader, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 1000).unwrap();
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(9)));
    }

    #[test]
    #[should_panic(expected = "more servers than failures")]
    fn degenerate_configurations_are_rejected() {
        QuorumEmulation::new(1, 1);
    }
}
