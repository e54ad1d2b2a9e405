//! # regemu-workloads — scenarios, workload generation and sweeps
//!
//! Glue between the emulation algorithms (`regemu-core`), the fault-prone
//! shared-memory simulator (`regemu-fpsm`), the consistency checkers
//! (`regemu-spec`) and the adversary (`regemu-adversary`):
//!
//! * [`scenario::Scenario`] — **the** entry point: one typed value that
//!   fully determines a run (emulation × workload × scheduler × crashes ×
//!   recording × check × seed), built into an incrementally drivable
//!   [`scenario::ScenarioRun`];
//! * [`generator::Workload`] — deterministic workload generators
//!   (write-sequential, read-heavy, random mixed, concurrent, explicit);
//! * [`sweep::run_sweep`] — fan a `(k, f, n) × emulation × workload ×
//!   scheduler × crash-plan × recording × seed` grid out across worker
//!   threads and aggregate the measurements into a deterministic
//!   [`sweep::SweepReport`] (JSON/CSV serializable);
//! * `table` — parameter sweeps and plain-text table rendering used by the
//!   experiment binaries in `regemu-bench`;
//! * [`fuzz`] — coverage-guided schedule fuzzing with record/replay traces
//!   ([`fuzz::RecordedSchedule`]) and automatic failure shrinking
//!   ([`fuzz::shrink_failure`]).
//!
//! ## The scenario contract
//!
//! [`scenario::Scenario`] is the single execution path every experiment,
//! sweep case and bench goes through. Given a scenario value, the run it
//! builds guarantees:
//!
//! 1. **Seeded scheduling** — all nondeterminism (delivery order, workload
//!    mix) flows from the scenario seed; the same scenario replays the same
//!    run, event for event, under any [`regemu_fpsm::Scheduler`].
//! 2. **Sequential clients** — each client's high-level operations are
//!    issued one at a time (waiting for the previous one when the workload
//!    marks an op `sequential`), as the model requires. In-flight operations
//!    are tracked through the simulation's per-client state, O(1) per query.
//! 3. **Crash injection** — a [`scenario::CrashPlanSpec`] (or explicit
//!    [`regemu_fpsm::CrashPlan`]) crashes servers at fixed logical times,
//!    within the emulation's fault budget; [`scenario::ScenarioRun`] also
//!    allows crashing mid-run.
//! 4. **Measurement** — the resulting [`runner::RunReport`] carries the
//!    [`regemu_fpsm::RunMetrics`] (resource consumption, coverage, point
//!    contention, trigger/response counts) and the high-level schedule.
//! 5. **Checking** — when a [`runner::ConsistencyCheck`] is selected, the
//!    schedule is verified and any violation is reported, not panicked on.
//!    Under a bounded [`scenario::RecordingModeSpec`] the verification runs
//!    *online* over the retained window; [`runner::CheckCoverage`] records
//!    how much of the run the verdict covers.
//! 6. **Bounded recording** — [`scenario::RecordingModeSpec`] selects how
//!    much of the event stream is retained (`Full`, `Digest`, `Ring(n)`);
//!    the metrics are byte-identical across modes for the same scenario.
//!
//! ## Example
//!
//! ```
//! use regemu_workloads::prelude::*;
//! use regemu_core::EmulationKind;
//! use regemu_bounds::Params;
//!
//! let report = Scenario::new(Params::new(2, 1, 4)?)
//!     .emulation(EmulationKind::SpaceOptimal)
//!     .workload(WorkloadSpec::WriteSequential { rounds: 1, read_after_each: true })
//!     .scheduler(SchedulerSpec::Fair)
//!     .seed(7)
//!     .run()?;
//! assert!(report.is_consistent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod conform;
pub(crate) mod engine;
pub mod frontier;
pub mod fuzz;
pub(crate) mod generator;
mod json;
pub mod runner;
pub mod scenario;
pub mod status;
pub mod sweep;
pub(crate) mod table;
mod text;

pub use fuzz::FuzzReport;
pub use prelude::*;
pub use sweep::SweepReport;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::frontier::{FrontierReport, FrontierRow};
    pub use crate::fuzz::{
        fuzz_and_shrink, merge_fuzz_campaign, replay, run_fuzz_campaign, FailureKind,
        FuzzCampaignConfig, FuzzCampaignOptions, FuzzCase, FuzzConfig, FuzzEmulation, Fuzzer,
        RecordedSchedule,
    };
    pub use crate::generator::{Issuer, Workload, WorkloadOp};
    pub use crate::runner::{CheckCoverage, ConsistencyCheck, RunReport};
    pub use crate::scenario::{
        drive, CrashPlanSpec, RecordingModeSpec, Scenario, ScenarioRun, SchedulerSpec,
    };
    pub use crate::status::{detect_spool_kind, SpoolKind};
    pub use crate::sweep::{run_sweep, EmulationKind, SweepConfig, WorkloadSpec};
    pub use crate::table::{small_sweep, standard_sweep, TextTable};
}
