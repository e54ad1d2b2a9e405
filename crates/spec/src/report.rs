//! Checker verdicts and violation reports.

use regemu_fpsm::history::HighInterval;
use std::fmt;

/// Which consistency condition a checker was verifying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    /// Atomicity (linearizability).
    Atomicity,
    /// Write-Sequential Regularity.
    WsRegularity,
    /// Write-Sequential Safety.
    WsSafety,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Atomicity => write!(f, "atomicity"),
            Condition::WsRegularity => write!(f, "WS-Regularity"),
            Condition::WsSafety => write!(f, "WS-Safety"),
        }
    }
}

/// A description of why a schedule violates a consistency condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The condition that failed.
    pub condition: Condition,
    /// The operation that could not be explained, when the checker can point
    /// at a single culprit (typically a read returning an impossible value).
    pub offending: Option<HighInterval>,
    /// Human-readable explanation.
    pub explanation: String,
}

impl Violation {
    /// Creates a violation report.
    pub fn new(
        condition: Condition,
        offending: Option<HighInterval>,
        explanation: impl Into<String>,
    ) -> Self {
        Violation {
            condition,
            offending,
            explanation: explanation.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.condition, self.explanation)?;
        if let Some(op) = &self.offending {
            write!(f, " (offending operation: {} by {})", op.op, op.client)?;
        }
        Ok(())
    }
}

impl std::error::Error for Violation {}

/// The outcome of running a checker on a schedule.
pub type CheckResult = Result<(), Violation>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HighHistory;

    #[test]
    fn violation_display_mentions_condition_and_culprit() {
        let read = HighHistory::read(2, 7, 0, 1);
        let v = Violation::new(
            Condition::WsSafety,
            Some(read),
            "read returned a stale value",
        );
        let msg = v.to_string();
        assert!(msg.contains("WS-Safety"));
        assert!(msg.contains("stale"));
        assert!(msg.contains("c2"));
    }

    #[test]
    fn condition_display() {
        assert_eq!(Condition::Atomicity.to_string(), "atomicity");
        assert_eq!(Condition::WsRegularity.to_string(), "WS-Regularity");
    }
}
