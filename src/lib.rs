//! # regemu — fault-tolerant register emulations and their space complexity
//!
//! A full reproduction of Chockler & Spiegelman, *Space Complexity of
//! Fault-Tolerant Register Emulations* (PODC 2017), as a Rust workspace. This
//! facade crate re-exports the public API of every sub-crate:
//!
//! * [`fpsm`] — the asynchronous fault-prone shared-memory simulator
//!   (servers, base objects, crash faults, explicit environment control);
//! * [`spec`] — consistency-condition checkers (atomicity, WS-Regularity,
//!   WS-Safety);
//! * [`bounds`] — the paper's closed-form space bounds (Table 1 and the
//!   appendix theorems);
//! * [`core`] — the emulation algorithms (Algorithm 2, ABD over
//!   max-registers / CAS / register banks, shared-memory max-registers);
//! * [`adversary`] — the executable lower-bound adversary (`Ad_i`, Lemma 1
//!   campaigns, the partition argument);
//! * [`workloads`] — the [`Scenario`] pipeline, workload generators and
//!   sweeps;
//! * [`campaign`] — sharded multi-process sweep campaigns over a spool
//!   directory, with deterministic merge and resume;
//! * [`frontier`] — empirical space-complexity frontier campaigns: measured
//!   peak coverage and occupancy judged against the paper's Table 1 bounds
//!   ([`frontier::FrontierReport`]);
//! * [`fuzz`] — coverage-guided schedule fuzzing: record/replay traces
//!   ([`fuzz::RecordedSchedule`]), corpus exploration ([`fuzz::Fuzzer`]) and
//!   automatic failure shrinking ([`fuzz::shrink_failure`]);
//! * [`serve`] — the live replicated-register service: the same client and
//!   server state machines over in-process channels or TCP
//!   ([`serve::LiveClient`], [`serve::serve_tcp`]), with load generation and
//!   simulator-backed conformance checking of recorded histories;
//! * [`obs`] — the live service's metrics: the always-on per-node
//!   counters `serve stats` scrapes, and the latency histogram `serve load`
//!   reports. A simulated run's counters are fields of its own
//!   [`fpsm::RunMetrics`] and history, not entries in a global registry.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `regemu-bench` crate for the binaries that regenerate every table and
//! figure of the paper.
//!
//! ## Quick start
//!
//! A [`Scenario`] is one typed value that fully determines a run — the
//! construction, the workload, the scheduler, the crash plan, the
//! consistency check and the seed:
//!
//! ```
//! use regemu::prelude::*;
//!
//! // An f-tolerant 3-writer register from plain read/write registers,
//! // using the paper's space-optimal construction (Algorithm 2), under a
//! // fair scheduler with the full crash budget injected mid-run.
//! let params = Params::new(3, 1, 5)?;
//! let report = Scenario::new(params)
//!     .emulation(EmulationKind::SpaceOptimal)
//!     .workload(WorkloadSpec::WriteSequential { rounds: 1, read_after_each: true })
//!     .scheduler(SchedulerSpec::Fair)
//!     .crashes(CrashPlanSpec::CrashF)
//!     .check(ConsistencyCheck::WsRegular)
//!     .seed(1)
//!     .run()?;
//! assert!(report.is_consistent());
//! assert!(report.metrics.resource_consumption() <= register_upper_bound(params));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[doc = include_str!("../docs/MODEL.md")]
pub mod model {}

/// The project README, included verbatim so its Rust snippets (quickstart,
/// bounded-memory recording) are compiled and executed as doctests by
/// `cargo test --doc` and cannot drift from the code.
#[doc = include_str!("../README.md")]
pub mod readme {}

pub use regemu_adversary as adversary;
pub use regemu_bounds as bounds;
pub use regemu_core as core;
pub use regemu_fpsm as fpsm;
pub use regemu_obs as obs;
pub use regemu_serve as serve;
pub use regemu_spec as spec;
pub use regemu_workloads as workloads;

pub use regemu_workloads::campaign;
pub use regemu_workloads::frontier;
pub use regemu_workloads::fuzz;
pub use regemu_workloads::{Scenario, ScenarioRun};

/// One-stop import for applications and examples.
pub mod prelude {
    pub use regemu_adversary::prelude::*;
    pub use regemu_bounds::{
        cas_bound, max_register_bound, register_lower_bound, register_upper_bound, Params,
    };
    pub use regemu_core::prelude::*;
    pub use regemu_fpsm::prelude::*;
    pub use regemu_spec::prelude::*;
    pub use regemu_workloads::prelude::*;
}
