//! The full Lemma 1 construction: `k` adversary-driven sequential writes.
//!
//! A [`LowerBoundCampaign`] runs `k` high-level writes by `k` distinct fresh
//! clients against an emulation, each extension scheduled by the `Ad_i`
//! adversary of [`crate::adi`]. For emulations built from fault-prone
//! read/write registers the campaign reproduces the behaviour the lower bound
//! (Theorem 1) is built on:
//!
//! * after the `i`-th write, at least `i·f` registers are covered
//!   (Lemma 1(a)),
//! * none of the covered registers lives on a server of the protected set `F`
//!   (Lemma 1(b)),
//! * the point contention stays 1 throughout, yet the resource consumption
//!   grows linearly in `k` (Theorem 8),
//! * at `n = 2f + 1`, the per-server occupancy reaches `k` (Theorem 6).
//!
//! For max-register/CAS emulations the same campaign shows the *contrast*:
//! coverage stays bounded by `2f + 1` no matter how many writers run.

use crate::adi::{AdversaryIteration, IterationOutcome};
use regemu_core::Emulation;
use regemu_fpsm::{ClientId, RunMetrics, ServerId, SimError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Per-iteration summary recorded by the campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IterationReport {
    /// Iteration number `i` (1-based).
    pub iteration: usize,
    /// Total number of covered registers after the iteration, `|Cov(t_i)|`.
    pub covered: usize,
    /// Registers newly covered by this iteration.
    pub newly_covered: usize,
    /// Whether the coverage avoids the protected set `F`.
    pub coverage_avoids_protected: bool,
    /// Resource consumption so far (distinct base objects touched).
    pub resource_consumption: usize,
    /// Point contention observed so far (1 in a write-sequential campaign).
    pub point_contention: usize,
    /// Delivery steps the adversary spent on this iteration.
    pub steps: u64,
}

/// The result of a full campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Name of the emulation under test.
    pub emulation: String,
    /// `k`, `f`, `n` of the emulation.
    pub k: usize,
    /// Failure threshold `f`.
    pub f: usize,
    /// Number of servers `n`.
    pub n: usize,
    /// The protected set `F` used by the adversary.
    pub protected: Vec<usize>,
    /// Per-iteration summaries.
    pub iterations: Vec<IterationReport>,
    /// Final number of covered registers.
    pub final_covered: usize,
    /// Final resource consumption.
    pub final_resource_consumption: usize,
    /// Per-server count of touched base objects at the end of the campaign.
    pub touched_per_server: Vec<(usize, usize)>,
    /// Per-server count of covered base objects at the end of the campaign.
    pub covered_per_server: Vec<(usize, usize)>,
}

impl CampaignReport {
    /// Lemma 1(a): after the `i`-th iteration at least `i·f` registers are
    /// covered.
    pub fn satisfies_coverage_growth(&self) -> bool {
        self.iterations
            .iter()
            .all(|it| it.covered >= it.iteration * self.f)
    }

    /// Lemma 1(b): coverage never touches the protected set.
    pub fn coverage_always_avoids_protected(&self) -> bool {
        self.iterations
            .iter()
            .all(|it| it.coverage_avoids_protected)
    }

    /// Theorem 8: point contention stayed 1 while resources grew.
    pub fn is_write_sequential_evidence(&self) -> bool {
        self.iterations.iter().all(|it| it.point_contention <= 1)
    }

    /// The maximum number of covered registers hosted by a single server
    /// (used for the Theorem 6 audit at `n = 2f + 1`).
    pub fn max_covered_on_one_server(&self) -> usize {
        self.covered_per_server
            .iter()
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0)
    }
}

/// Runs the Lemma 1 construction against an emulation.
#[derive(Debug)]
pub struct LowerBoundCampaign {
    protected: BTreeSet<ServerId>,
    writes: usize,
    max_steps_per_iteration: u64,
}

impl LowerBoundCampaign {
    /// Creates a campaign issuing one write per writer (`k` writes total)
    /// with the default protected set: the `f + 1` highest-numbered servers.
    pub fn new(emulation: &dyn Emulation) -> Self {
        let params = emulation.params();
        let protected = ((params.n - (params.f + 1))..params.n)
            .map(ServerId::new)
            .collect();
        LowerBoundCampaign {
            protected,
            writes: params.k,
            max_steps_per_iteration: 500_000,
        }
    }

    /// Runs the campaign and returns the per-iteration report.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] if some write fails to return under the
    /// adversary (which would falsify the emulation's obstruction freedom) or
    /// the emulation rejects the workload.
    pub fn run(&self, emulation: &dyn Emulation) -> Result<CampaignReport, SimError> {
        let params = emulation.params();
        let mut sim = emulation.build_simulation();

        // One fresh client per iteration, exactly as in Lemma 1. Writers are
        // assigned round-robin over the k writer identities of the emulation.
        let clients: Vec<ClientId> = (0..self.writes)
            .map(|i| sim.register_client(emulation.writer_protocol(i % params.k)))
            .collect();

        let mut previous_writers: BTreeSet<ClientId> = BTreeSet::new();
        let mut old_pending = Vec::new();
        let mut iterations = Vec::with_capacity(self.writes);

        for (i, client) in clients.iter().enumerate() {
            let iteration = AdversaryIteration::new(
                self.protected.clone(),
                params.f,
                previous_writers.clone(),
                old_pending.clone(),
            )
            .with_max_steps(self.max_steps_per_iteration);
            let outcome: IterationOutcome = iteration.run(&mut sim, *client, (i as u64) + 1)?;

            let metrics = RunMetrics::capture(&sim);
            iterations.push(IterationReport {
                iteration: i + 1,
                covered: outcome.covered.len(),
                newly_covered: outcome.newly_covered.len(),
                coverage_avoids_protected: outcome.covered_servers.is_disjoint(&self.protected),
                resource_consumption: metrics.resource_consumption(),
                point_contention: metrics.point_contention,
                steps: outcome.steps,
            });

            previous_writers.insert(*client);
            old_pending = outcome.pending_covering;
        }

        let metrics = RunMetrics::capture(&sim);
        Ok(CampaignReport {
            emulation: emulation.name().to_string(),
            k: params.k,
            f: params.f,
            n: params.n,
            protected: self.protected.iter().map(|s| s.index()).collect(),
            final_covered: metrics.covered_count(),
            final_resource_consumption: metrics.resource_consumption(),
            touched_per_server: metrics
                .touched_per_server
                .iter()
                .map(|(s, c)| (s.index(), *c))
                .collect(),
            covered_per_server: metrics
                .covered_per_server
                .iter()
                .map(|(s, c)| (s.index(), *c))
                .collect(),
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_bounds::Params;
    use regemu_core::{EmulationKind, SpaceOptimalEmulation};

    #[test]
    fn space_optimal_coverage_grows_by_f_per_write() {
        let params = Params::new(4, 1, 4).unwrap();
        let emulation = SpaceOptimalEmulation::new(params);
        let report = LowerBoundCampaign::new(&emulation).run(&emulation).unwrap();
        assert_eq!(report.iterations.len(), 4);
        assert!(report.satisfies_coverage_growth(), "{report:?}");
        assert!(report.coverage_always_avoids_protected(), "{report:?}");
        assert!(report.is_write_sequential_evidence());
        assert!(report.final_covered >= params.k * params.f);
        assert!(report.final_resource_consumption >= regemu_bounds::register_lower_bound(params));
    }

    #[test]
    fn register_bank_coverage_also_grows() {
        let params = Params::new(3, 1, 3).unwrap();
        let emulation = EmulationKind::RegisterBank.build(params);
        let report = LowerBoundCampaign::new(emulation.as_ref())
            .run(emulation.as_ref())
            .unwrap();
        assert!(report.satisfies_coverage_growth(), "{report:?}");
        assert!(report.coverage_always_avoids_protected(), "{report:?}");
    }

    #[test]
    fn max_register_coverage_stays_bounded() {
        // The contrast of Table 1: with RMW base objects the adversary cannot
        // force the space consumption to grow with k.
        let params = Params::new(6, 1, 3).unwrap();
        let emulation = EmulationKind::AbdMaxRegister.build(params);
        let report = LowerBoundCampaign::new(emulation.as_ref())
            .run(emulation.as_ref())
            .unwrap();
        assert!(report.final_resource_consumption <= 2 * params.f + 1);
        assert!(report.final_covered <= 2 * params.f + 1);
    }

    #[test]
    fn minimal_n_campaign_reaches_k_registers_on_some_server() {
        // Theorem 6: at n = 2f + 1 every server must store at least k
        // registers; the campaign exhibits a run covering k registers on a
        // single non-protected server.
        let params = Params::new(3, 1, 3).unwrap();
        let emulation = SpaceOptimalEmulation::new(params);
        let report = LowerBoundCampaign::new(&emulation).run(&emulation).unwrap();
        assert!(report.satisfies_coverage_growth());
        assert_eq!(report.max_covered_on_one_server(), params.k);
    }
}
