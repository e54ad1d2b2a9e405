//! Run reports and consistency-check selection.
//!
//! The run pipeline lives in [`crate::scenario`] — a [`crate::Scenario`] is
//! the one typed value that fully determines a run (emulation, workload,
//! scheduler, crashes, recording, check, seed). This module keeps the pieces
//! shared across the pipeline: which condition to verify
//! ([`ConsistencyCheck`]), how much of the run the verdict is based on
//! ([`CheckCoverage`]) and the measured outcome ([`RunReport`]).
//!
//! The deprecated `run_workload`/`RunConfig` shims were removed after one
//! release, as scheduled: compose a [`crate::Scenario`] (or call
//! [`crate::scenario::drive`] with a custom emulation instance or scheduler)
//! instead. The scenario suite (`tests/scenario_api.rs`,
//! `tests/scenario_golden.rs`) is the single source of truth for the
//! engine's behaviour, including byte-identity with the pre-`Scenario`
//! runner.

use regemu_bounds::Params;
use regemu_fpsm::RunMetrics;
use regemu_spec::{
    check_linearizable, check_ws_regular, check_ws_safe, Condition, HighHistory, SequentialSpec,
    Violation,
};
use std::fmt;

/// Which consistency condition to verify after the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsistencyCheck {
    /// Do not check.
    None,
    /// Write-Sequential Safety.
    WsSafe,
    /// Write-Sequential Regularity (the guarantee of the paper's upper
    /// bounds).
    WsRegular,
    /// Atomicity (linearizability).
    Atomic,
}

impl ConsistencyCheck {
    /// Every check kind, in escalation order.
    pub(crate) const ALL: [ConsistencyCheck; 4] = [
        ConsistencyCheck::None,
        ConsistencyCheck::WsSafe,
        ConsistencyCheck::WsRegular,
        ConsistencyCheck::Atomic,
    ];

    /// Stable short name used in config files and CLI flags.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ConsistencyCheck::None => "none",
            ConsistencyCheck::WsSafe => "ws-safe",
            ConsistencyCheck::WsRegular => "ws-regular",
            ConsistencyCheck::Atomic => "atomic",
        }
    }

    /// The inverse of `ConsistencyCheck::name`.
    pub fn from_name(name: &str) -> Option<Self> {
        ConsistencyCheck::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The condition this check verifies (`None` for
    /// [`ConsistencyCheck::None`]), as the streaming checker takes it.
    pub(crate) fn condition(self) -> Option<Condition> {
        match self {
            ConsistencyCheck::None => None,
            ConsistencyCheck::WsSafe => Some(Condition::WsSafety),
            ConsistencyCheck::WsRegular => Some(Condition::WsRegularity),
            ConsistencyCheck::Atomic => Some(Condition::Atomicity),
        }
    }

    /// Runs this check's offline checker over `history` against the
    /// register specification: the first violation, or `None` when the
    /// condition holds (always, for [`ConsistencyCheck::None`]).
    pub(crate) fn check_offline(self, history: &HighHistory) -> Option<Violation> {
        let spec = SequentialSpec::register();
        match self {
            ConsistencyCheck::None => None,
            ConsistencyCheck::WsSafe => check_ws_safe(history, &spec).err(),
            ConsistencyCheck::WsRegular => check_ws_regular(history, &spec).err(),
            ConsistencyCheck::Atomic => check_linearizable(history, &spec).err(),
        }
    }
}

impl fmt::Display for ConsistencyCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How much of the run the consistency verdict is based on.
///
/// Bounded-memory recording modes ([`regemu_fpsm::RecordingMode`]) can limit
/// what a checker sees; a report is only a *proof* of consistency when the
/// coverage is [`CheckCoverage::Complete`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckCoverage {
    /// The checker saw the entire run (offline over a full recording, or
    /// online over a stream with no evictions before observation). Also
    /// reported when no check was requested — there was nothing to miss.
    Complete,
    /// The online checker lost events to ring-buffer eviction before it
    /// could observe them: a `None` violation is *inconclusive*, though any
    /// violation found before the gap is real.
    Truncated,
    /// The run recorded no events ([`regemu_fpsm::RecordingMode::Digest`]),
    /// so the requested check could not be performed at all: the run is
    /// metrics-only.
    NotRecorded,
}

impl CheckCoverage {
    /// Stable short name used in reports: `complete`, `truncated`,
    /// `unrecorded`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CheckCoverage::Complete => "complete",
            CheckCoverage::Truncated => "truncated",
            CheckCoverage::NotRecorded => "unrecorded",
        }
    }
}

impl fmt::Display for CheckCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The measured outcome of one experiment run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Name of the emulation that was exercised.
    pub emulation: String,
    /// Name of the scheduler that drove the run.
    pub scheduler: String,
    /// Its `(k, f, n)` parameters.
    pub params: Params,
    /// Number of base objects the emulation provisioned.
    pub provisioned_objects: usize,
    /// Space metrics of the run (resource consumption, coverage, …).
    /// Derived from incremental digests, so identical across recording
    /// modes for the same scenario.
    pub metrics: RunMetrics,
    /// Number of high-level operations that completed.
    pub completed_ops: usize,
    /// Verdict of the consistency check, if one was requested.
    pub check_violation: Option<Violation>,
    /// How much of the run the verdict is based on.
    pub check_coverage: CheckCoverage,
    /// The high-level schedule of the run (for further analysis). Extracted
    /// from the interval digest, which is maintained in every recording
    /// mode.
    pub history: HighHistory,
}

impl RunReport {
    /// Returns `true` when the requested consistency check found no
    /// violation (or none was requested). Note that under bounded-memory
    /// recording this is only conclusive when [`RunReport::is_fully_checked`]
    /// also holds.
    pub fn is_consistent(&self) -> bool {
        self.check_violation.is_none()
    }

    /// Returns `true` when the consistency verdict covers the whole run.
    pub fn is_fully_checked(&self) -> bool {
        self.check_coverage == CheckCoverage::Complete
    }
}
