//! Intentionally broken emulations for fuzzer validation.
//!
//! A schedule fuzzer (`regemu::fuzz`) that has never been shown to catch a
//! known bug is untested machinery. This module seeds the bugs: each
//! [`FaultyKind`] builds an [`Emulation`] that is a correct construction with
//! one deliberate protocol fault injected, so the seeded-bug oracle suite can
//! assert that the fuzzer finds a failing schedule for every variant while
//! the clean counterparts survive the same budget.
//!
//! **Never use these outside tests, fuzzing or triage.** They violate the
//! paper's guarantees by construction:
//!
//! * [`FaultyKind::WeakQuorumWrite`] — Algorithm 2 with the write quorum
//!   reduced from `|R_j| - f` to `|R_j| - f - 1` (one missing
//!   acknowledgement, via
//!   [`SpaceOptimalClient::writer_with_quorum_slack`]). The construction
//!   stays live but is no longer `f`-tolerant WS-Safe: a crafted crash
//!   schedule can lose a completed write. Only an adversarial interleaving
//!   exposes it — fair schedules almost always pass.
//! * [`FaultyKind::SkippedUpdateRound`] — multi-writer ABD whose writers
//!   acknowledge right after the query phase, skipping the second
//!   (update) round, so written values never reach any server. Almost any
//!   schedule with a write followed by a read exposes it.
//! * [`FaultyKind::DroppedAcks`] — multi-writer ABD whose writers stop
//!   processing responses after a trigger threshold of `2(n - f)`
//!   deliveries (exactly the two quorums a write needs, via
//!   [`AbdClient::dropping_acks_after`]). A write completes only when no
//!   stray response is delivered before its second quorum fills; any other
//!   interleaving wedges the writer forever. This is a pure *liveness* bug —
//!   no consistency condition is ever violated — so only a stuck detector
//!   (the fuzzer's `FailureKind::Stuck` oracle) can catch it.
//!
//! The faulty kinds deliberately mirror [`crate::EmulationKind`]'s
//! `name`/`from_name` round-trip so fuzz traces that reference them can be
//! replayed from text.

use crate::abd::AbdClient;
use crate::emulation::{AbdMaxRegisterEmulation, Emulation, SpaceOptimalEmulation};
use crate::upper_bound::SpaceOptimalClient;
use regemu_bounds::Params;
use regemu_fpsm::{ClientProtocol, ObjectKind, Topology};

/// The catalogue of seeded bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultyKind {
    /// Algorithm 2 with one acknowledgement shaved off the write quorum.
    WeakQuorumWrite,
    /// ABD writers that never run the update round.
    SkippedUpdateRound,
    /// ABD writers that drop every response after a trigger threshold — a
    /// liveness bug that wedges writes instead of corrupting them.
    DroppedAcks,
}

impl FaultyKind {
    /// Every seeded bug, in definition order.
    pub const ALL: [FaultyKind; 3] = [
        FaultyKind::WeakQuorumWrite,
        FaultyKind::SkippedUpdateRound,
        FaultyKind::DroppedAcks,
    ];

    /// Stable short name used in fuzz traces and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FaultyKind::WeakQuorumWrite => "faulty-weak-quorum",
            FaultyKind::SkippedUpdateRound => "faulty-skipped-update",
            FaultyKind::DroppedAcks => "faulty-dropped-acks",
        }
    }

    /// Whether the seeded bug is a *liveness* bug: it wedges runs rather
    /// than violating a consistency condition, so it can only be caught by
    /// a stuck oracle, never by a checker.
    pub fn is_liveness_bug(self) -> bool {
        matches!(self, FaultyKind::DroppedAcks)
    }

    /// The inverse of [`FaultyKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        FaultyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the faulty emulation for the given parameters.
    pub fn build(self, params: Params) -> Box<dyn Emulation> {
        match self {
            FaultyKind::WeakQuorumWrite => Box::new(WeakQuorumEmulation::new(params)),
            FaultyKind::SkippedUpdateRound => Box::new(SkippedUpdateEmulation::new(params)),
            FaultyKind::DroppedAcks => Box::new(DroppedAcksEmulation::new(params)),
        }
    }
}

/// [`SpaceOptimalEmulation`] whose writers wait for one acknowledgement too
/// few (quorum slack 1). See [`FaultyKind::WeakQuorumWrite`].
#[derive(Debug)]
pub struct WeakQuorumEmulation {
    inner: SpaceOptimalEmulation,
}

impl WeakQuorumEmulation {
    /// Creates the faulty emulation.
    pub fn new(params: Params) -> Self {
        WeakQuorumEmulation {
            inner: SpaceOptimalEmulation::new(params),
        }
    }
}

impl Emulation for WeakQuorumEmulation {
    fn name(&self) -> &'static str {
        "faulty-weak-quorum"
    }

    fn base_object_kind(&self) -> ObjectKind {
        self.inner.base_object_kind()
    }

    fn params(&self) -> Params {
        self.inner.params()
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        Box::new(SpaceOptimalClient::writer_with_quorum_slack(
            self.inner.shared_layout(),
            writer_index,
            1,
        ))
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        self.inner.reader_protocol()
    }
}

/// [`AbdMaxRegisterEmulation`] whose writers acknowledge after the query
/// phase without ever writing. See [`FaultyKind::SkippedUpdateRound`].
#[derive(Debug)]
pub struct SkippedUpdateEmulation {
    inner: AbdMaxRegisterEmulation,
}

impl SkippedUpdateEmulation {
    /// Creates the faulty emulation.
    pub fn new(params: Params) -> Self {
        SkippedUpdateEmulation {
            inner: AbdMaxRegisterEmulation::new(params, false),
        }
    }
}

impl Emulation for SkippedUpdateEmulation {
    fn name(&self) -> &'static str {
        "faulty-skipped-update"
    }

    fn base_object_kind(&self) -> ObjectKind {
        self.inner.base_object_kind()
    }

    fn params(&self) -> Params {
        self.inner.params()
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        Box::new(
            AbdClient::new(
                self.inner.quorum_params(),
                Some(writer_index),
                self.inner.read_write_back(),
                self.inner.drivers(),
            )
            .skipping_update(),
        )
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        self.inner.reader_protocol()
    }
}

/// [`AbdMaxRegisterEmulation`] whose writers stop processing responses after
/// `2(n - f)` deliveries. See [`FaultyKind::DroppedAcks`].
#[derive(Debug)]
pub struct DroppedAcksEmulation {
    inner: AbdMaxRegisterEmulation,
}

impl DroppedAcksEmulation {
    /// Creates the faulty emulation.
    pub fn new(params: Params) -> Self {
        DroppedAcksEmulation {
            inner: AbdMaxRegisterEmulation::new(params, false),
        }
    }
}

impl Emulation for DroppedAcksEmulation {
    fn name(&self) -> &'static str {
        "faulty-dropped-acks"
    }

    fn base_object_kind(&self) -> ObjectKind {
        self.inner.base_object_kind()
    }

    fn params(&self) -> Params {
        self.inner.params()
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        let params = self.inner.params();
        // Exactly the two quorums a write needs: the writer survives only
        // the schedules where no stray response lands before its second
        // quorum fills. Anything else wedges it forever.
        let threshold = 2 * (params.n - params.f) as u64;
        Box::new(
            AbdClient::new(
                self.inner.quorum_params(),
                Some(writer_index),
                self.inner.read_write_back(),
                self.inner.drivers(),
            )
            .dropping_acks_after(threshold),
        )
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        self.inner.reader_protocol()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::EmulationKind;
    use regemu_fpsm::{FairDriver, HighOp, HighResponse, Scheduler};

    #[test]
    fn names_round_trip_and_avoid_the_clean_namespace() {
        for kind in FaultyKind::ALL {
            assert_eq!(FaultyKind::from_name(kind.name()), Some(kind));
            assert!(EmulationKind::from_name(kind.name()).is_none());
            let params = Params::new(1, 1, 3).unwrap();
            assert_eq!(kind.build(params).name(), kind.name());
        }
    }

    #[test]
    fn skipped_update_loses_the_write_even_under_a_fair_schedule() {
        let params = Params::new(1, 1, 3).unwrap();
        let emulation = FaultyKind::SkippedUpdateRound.build(params);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let reader = sim.register_client(emulation.reader_protocol());
        let mut driver = FairDriver::new(7);
        let w = sim.invoke(writer, HighOp::Write(9)).unwrap();
        driver.run_until_complete(&mut sim, w, 10_000).unwrap();
        let r = sim.invoke(reader, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 10_000).unwrap();
        // The update round never ran, so the completed write is invisible.
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(0)));
    }

    #[test]
    fn dropped_acks_wedges_the_writer_once_a_stray_response_lands() {
        // Threshold 2(n - f) = 4 at (1, 1, 3): the writer needs two query
        // responses and two update acks, but all three servers answer the
        // query. Under a fair schedule the stray third query response is
        // delivered before the second update ack, pushing the writer past
        // its threshold — the final ack is dropped and the write never
        // completes. Liveness, not safety: readers still work fine.
        let params = Params::new(1, 1, 3).unwrap();
        let emulation = FaultyKind::DroppedAcks.build(params);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let reader = sim.register_client(emulation.reader_protocol());
        let mut driver = FairDriver::new(7);
        let w = sim.invoke(writer, HighOp::Write(9)).unwrap();
        assert!(
            driver.run_until_complete(&mut sim, w, 10_000).is_err(),
            "the dropped-acks writer must wedge under a fair schedule"
        );
        // The reader protocol is untouched and still completes.
        let r = sim.invoke(reader, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 10_000).unwrap();
        assert!(matches!(sim.result_of(r), Some(HighResponse::ReadValue(_))));
    }

    #[test]
    fn weak_quorum_passes_once_the_leftover_writes_drain() {
        // The weak-quorum bug is schedule-dependent: the premature write-ack
        // races the undrained low-level writes. Once those drain, reads are
        // healthy again — which is exactly what makes it a fuzzing target
        // rather than a bug any run exposes.
        let params = Params::new(1, 1, 3).unwrap();
        let emulation = FaultyKind::WeakQuorumWrite.build(params);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let reader = sim.register_client(emulation.reader_protocol());
        let mut driver = FairDriver::new(7);
        let w = sim.invoke(writer, HighOp::Write(9)).unwrap();
        driver.run_until_complete(&mut sim, w, 10_000).unwrap();
        driver.run_until_quiescent(&mut sim, 10_000).unwrap();
        let r = sim.invoke(reader, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 10_000).unwrap();
        assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(9)));
    }
}
