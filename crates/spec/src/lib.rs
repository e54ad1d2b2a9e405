//! # regemu-spec — consistency-condition checkers
//!
//! Checkers for the consistency conditions used by Chockler & Spiegelman
//! (PODC 2017) to state their bounds:
//!
//! * **atomicity** (linearizability) — [`linearizability::check_linearizable`];
//! * **Write-Sequential Regularity** — [`regularity::check_ws_regular`], the
//!   condition satisfied by the paper's upper-bound constructions;
//! * **Write-Sequential Safety** — [`regularity::check_ws_safe`], the weaker
//!   condition under which the lower bounds are proven.
//!
//! The checkers operate on [`history::HighHistory`] schedules, which can be
//! extracted from any recorded `regemu-fpsm` run or constructed by hand.
//! For runs recorded under a bounded-memory
//! [`regemu_fpsm::RecordingMode`], the same conditions can be verified
//! *online* with [`streaming::StreamingChecker`], which consumes the event
//! stream as it is produced and keeps only a contention-bounded window of
//! operations alive.
//!
//! ## Example
//!
//! ```
//! use regemu_spec::prelude::*;
//! use regemu_fpsm::{HighOp, HighResponse};
//!
//! let mut schedule = HighHistory::default();
//! schedule.push_complete(0, HighOp::Write(7), HighResponse::WriteAck, 0, 1);
//! schedule.push_complete(1, HighOp::Read, HighResponse::ReadValue(7), 2, 3);
//!
//! check_ws_regular(&schedule, &SequentialSpec::register())?;
//! check_linearizable(&schedule, &SequentialSpec::register())?;
//! # Ok::<(), regemu_spec::Violation>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod history;
pub(crate) mod linearizability;
pub(crate) mod regularity;
pub(crate) mod report;
pub(crate) mod sequential;
pub(crate) mod streaming;

pub use prelude::*;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::history::HighHistory;
    pub use crate::linearizability::check_linearizable;
    pub use crate::regularity::{check_ws_regular, check_ws_safe};
    pub use crate::report::{CheckResult, Condition, Violation};
    pub use crate::sequential::{Semantics, SequentialSpec};
    pub use crate::streaming::StreamingChecker;
}
