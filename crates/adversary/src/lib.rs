//! # regemu-adversary — executable lower-bound machinery
//!
//! The lower bounds of Chockler & Spiegelman (PODC 2017) are proved with an
//! adversarial environment `Ad_i` that withholds the responses of selected
//! low-level writes, forcing every completed high-level write to leave at
//! least `f` freshly covered registers behind. This crate turns that proof
//! device into executable code that can be run against *any*
//! [`regemu_core::Emulation`]:
//!
//! * [`covering::CoveringTracker`] — the Definition 1 bookkeeping
//!   (`Cov`, `Tr_i`, `Rr_i`, `Q_i`, `F_i`, `M_i`, `G_i`), validated against
//!   the claims of Lemma 2;
//! * [`adi::AdversaryIteration`] — one adversary-driven high-level write
//!   (Definitions 2–3, Lemma 3);
//! * [`campaign::LowerBoundCampaign`] — the full Lemma 1 construction of `k`
//!   sequential writes, producing a [`campaign::CampaignReport`] with the
//!   coverage growth, per-server occupancy (Theorem 6), and point-contention
//!   evidence (Theorem 8);
//! * [`partition::demonstrate_partition`] — the executable partitioning
//!   argument behind Theorem 5 (`n ≥ 2f + 1`);
//! * [`strategy`] — the adversary's block/unblock moves packaged as
//!   [`regemu_fpsm::BlockStrategy`] implementations, pluggable into any
//!   [`regemu_fpsm::AdversarialScheduler`]-driven run or sweep.
//!
//! ## Example
//!
//! ```
//! use regemu_adversary::LowerBoundCampaign;
//! use regemu_core::{Emulation, SpaceOptimalEmulation};
//! use regemu_bounds::Params;
//!
//! let params = Params::new(3, 1, 4)?;
//! let emulation = SpaceOptimalEmulation::new(params);
//! let report = LowerBoundCampaign::new(&emulation).run(&emulation)?;
//! assert!(report.satisfies_coverage_growth());      // |Cov(t_i)| ≥ i·f
//! assert!(report.coverage_always_avoids_protected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod adi;
pub mod campaign;
pub mod covering;
pub mod partition;
pub mod strategy;

pub use ablation::{demonstrate_quorum_ablation, AblationOutcome};
pub use adi::{AdversaryIteration, IterationOutcome};
pub use campaign::{CampaignReport, IterationReport, LowerBoundCampaign};
pub use covering::CoveringTracker;
pub use partition::{demonstrate_partition, PartitionOutcome, QuorumEmulation};
pub use strategy::{CoverWrites, SilenceServers};

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::adi::AdversaryIteration;
    pub use crate::campaign::{CampaignReport, LowerBoundCampaign};
    pub use crate::covering::CoveringTracker;
    pub use crate::partition::demonstrate_partition;
    pub use crate::strategy::{CoverWrites, SilenceServers};
}
