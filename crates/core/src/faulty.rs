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
//!   [`crate::SpaceOptimalClient::writer_with_quorum_slack`]). The
//!   construction stays live but is no longer `f`-tolerant WS-Safe: a crafted crash
//!   schedule can lose a completed write. Only an adversarial interleaving
//!   exposes it — fair schedules almost always pass.
//! * [`FaultyKind::SkippedUpdateRound`] — multi-writer ABD whose writers
//!   acknowledge right after the query phase, skipping the second
//!   (update) round, so written values never reach any server. Almost any
//!   schedule with a write followed by a read exposes it.
//! * [`FaultyKind::DroppedAcks`] — multi-writer ABD whose writers stop
//!   processing responses after a trigger threshold of `2(f + 1)`
//!   deliveries (exactly the two quorums a write needs over the `2f + 1`
//!   servers the client talks to, whatever `n` is, via
//!   `AbdClient::dropping_acks_after`). A write completes only when no
//!   stray response is delivered before its second quorum fills; any other
//!   interleaving wedges the writer forever. This is a pure *liveness* bug —
//!   no consistency condition is ever violated — so only a stuck detector
//!   (the fuzzer's `FailureKind::Stuck` oracle) can catch it.
//!
//! The faulty kinds deliberately mirror [`crate::EmulationKind`]'s
//! `name`/`from_name` round-trip so fuzz traces that reference them can be
//! replayed from text.
//!
//! [`FaultyKind::build`] builds the clean construction with its `fault`
//! set; only the writer protocol reads it.

use crate::emulation::{AbdEmulation, Emulation, SpaceOptimalEmulation};
use regemu_bounds::Params;
use regemu_fpsm::ObjectKind;

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

    /// Builds the faulty emulation for the given parameters: Algorithm 2
    /// for the weak quorum, ABD over max-registers for the other two.
    pub fn build(self, params: Params) -> Box<dyn Emulation> {
        match self {
            FaultyKind::WeakQuorumWrite => {
                let mut emulation = SpaceOptimalEmulation::new(params);
                emulation.fault = Some(self);
                Box::new(emulation)
            }
            FaultyKind::SkippedUpdateRound | FaultyKind::DroppedAcks => {
                let mut emulation =
                    AbdEmulation::new(self.name(), ObjectKind::MaxRegister, false, params);
                emulation.fault = Some(self);
                Box::new(emulation)
            }
        }
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
        // Threshold 2(f + 1) = 4 at (1, 1, 3): the writer needs two query
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
    fn dropped_acks_threshold_does_not_depend_on_n() {
        // The writer talks only to the 2f + 1 servers that host its
        // max-registers, so its threshold counts those, not all n: extra
        // servers must not buy it more completed writes before it wedges.
        let writes_before_wedge = |n: usize| {
            let emulation = FaultyKind::DroppedAcks.build(Params::new(1, 1, n).unwrap());
            let mut sim = emulation.build_simulation();
            let writer = sim.register_client(emulation.writer_protocol(0));
            let mut driver = FairDriver::new(7);
            (0..10u64)
                .take_while(|&i| {
                    let w = sim.invoke(writer, HighOp::Write(i + 1)).unwrap();
                    driver.run_until_complete(&mut sim, w, 10_000).is_ok()
                })
                .count()
        };
        assert_eq!(
            [3, 4, 5, 7].map(writes_before_wedge),
            [0; 4],
            "writes completed at n = 3, 4, 5, 7"
        );
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
