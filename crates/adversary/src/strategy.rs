//! Reusable block/unblock scheduling strategies.
//!
//! The lower-bound adversary `Ad_i` works by *withholding responses*: a
//! pending low-level write whose response never arrives keeps its register
//! covered, which is what forces the space consumption to grow. This module
//! packages that proof device as [`regemu_fpsm::BlockStrategy`]
//! implementations, so the same adversarial behaviour that powers the Lemma 1
//! campaigns can drive ordinary experiment runs through an
//! [`regemu_fpsm::AdversarialScheduler`] — and therefore become a *sweepable
//! scheduler dimension* instead of a bespoke harness.
//!
//! Two strategies are provided:
//!
//! * [`SilenceServers`] — withholds **every** response from a chosen server
//!   set, the scheduling equivalent of those servers being crashed (but the
//!   operations stay pending and keep covering their registers);
//! * [`CoverWrites`] — withholds only **write-class** responses from the
//!   chosen servers, the exact move `Ad_i` makes in Definition 2: reads stay
//!   live, writes pile up as covering operations.
//!
//! Both are safe to run against any `f`-tolerant emulation as long as the
//! chosen set has at most `f` servers: safety (WS-Regularity) holds under
//! *any* environment behaviour, and liveness only needs `n - f` responsive
//! servers. Both are pure functions of the operation, which the scheduler
//! asks about once. Replaying a recorded schedule is a per-step choice, not
//! a verdict on an operation, so it lives in the scheduler:
//! [`regemu_fpsm::FairDriver::replaying`].

use regemu_fpsm::{BlockStrategy, PendingOp, ServerId, Simulation};
use std::collections::BTreeSet;

/// Withholds every response from a fixed server set.
///
/// Operations on the silenced servers stay pending forever (covering their
/// objects); everything else is scheduled fairly.
#[derive(Clone, Debug)]
pub struct SilenceServers {
    servers: BTreeSet<ServerId>,
}

impl SilenceServers {
    /// Silences exactly the given servers.
    pub fn new(servers: impl IntoIterator<Item = ServerId>) -> Self {
        SilenceServers {
            servers: servers.into_iter().collect(),
        }
    }

    /// Silences the `count` highest-numbered of `n` servers — the same set a
    /// crash-`f` plan targets, so combining both stays within one fault
    /// budget.
    pub fn highest(n: usize, count: usize) -> Self {
        Self::new((n.saturating_sub(count)..n).map(ServerId::new))
    }

    /// The silenced servers.
    pub fn servers(&self) -> &BTreeSet<ServerId> {
        &self.servers
    }
}

impl BlockStrategy for SilenceServers {
    fn blocks(&mut self, _sim: &Simulation, op: &PendingOp) -> bool {
        self.servers.contains(&op.server)
    }

    // Matches the `SchedulerSpec::SilenceAdversary` report name so runs
    // driven through `scenario::drive` group with Scenario-built runs.
    fn name(&self) -> &'static str {
        "adversary-silence"
    }
}

/// Withholds write-class responses from a fixed server set — the `Ad_i`
/// move: reads stay live, writes accumulate as covering operations.
#[derive(Clone, Debug)]
pub struct CoverWrites {
    servers: BTreeSet<ServerId>,
}

impl CoverWrites {
    /// Blocks write responses on exactly the given servers.
    pub fn new(servers: impl IntoIterator<Item = ServerId>) -> Self {
        CoverWrites {
            servers: servers.into_iter().collect(),
        }
    }

    /// Blocks write responses on the `count` highest-numbered of `n` servers.
    pub fn highest(n: usize, count: usize) -> Self {
        Self::new((n.saturating_sub(count)..n).map(ServerId::new))
    }

    /// The servers whose write responses are withheld.
    pub fn servers(&self) -> &BTreeSet<ServerId> {
        &self.servers
    }
}

impl BlockStrategy for CoverWrites {
    fn blocks(&mut self, _sim: &Simulation, op: &PendingOp) -> bool {
        op.op.is_write() && self.servers.contains(&op.server)
    }

    // Matches the `SchedulerSpec::CoverAdversary` report name so runs
    // driven through `scenario::drive` group with Scenario-built runs.
    fn name(&self) -> &'static str {
        "adversary-cover"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_bounds::Params;
    use regemu_core::EmulationKind;
    use regemu_fpsm::{AdversarialScheduler, HighOp, Scheduler};

    fn run_under<S: BlockStrategy + 'static>(kind: EmulationKind, strategy: S) -> usize {
        let params = Params::new(2, 1, 4).unwrap();
        let emulation = kind.build(params);
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let reader = sim.register_client(emulation.reader_protocol());
        let mut sched = AdversarialScheduler::new(5, Box::new(strategy));
        let w = sim.invoke(writer, HighOp::Write(9)).unwrap();
        sched.run_until_complete(&mut sim, w, 50_000).unwrap();
        let r = sim.invoke(reader, HighOp::Read).unwrap();
        sched.run_until_complete(&mut sim, r, 50_000).unwrap();
        sched.run_until_quiescent(&mut sim, 50_000).unwrap();
        sim.pending_count()
    }

    #[test]
    fn every_emulation_survives_f_silenced_servers() {
        for kind in EmulationKind::ALL {
            run_under(kind, SilenceServers::highest(4, 1));
        }
    }

    #[test]
    fn cover_writes_leaves_registers_covered_on_the_space_optimal_layout() {
        let pending = run_under(EmulationKind::SpaceOptimal, CoverWrites::highest(4, 1));
        assert!(
            pending > 0,
            "the blocked writes must still be pending (covering) at quiescence"
        );
    }

    #[test]
    fn silenced_set_construction() {
        let s = SilenceServers::highest(5, 2);
        let expect: BTreeSet<ServerId> = [ServerId::new(3), ServerId::new(4)].into();
        assert_eq!(s.servers(), &expect);
        let c = CoverWrites::highest(3, 0);
        assert!(c.servers().is_empty());
    }
}
