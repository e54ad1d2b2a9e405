//! High-level histories (schedules) extracted from simulation runs.
//!
//! The consistency conditions of the paper (atomicity, WS-Regularity,
//! WS-Safety) are predicates over *schedules*: sequences of invocations and
//! responses of the high-level read/write operations. [`HighHistory`] is that
//! schedule, in the interval representation convenient for checking.

use regemu_fpsm::history::HighInterval;
use regemu_fpsm::{ClientId, HighOp, HighOpId, HighResponse, History, Time};
use serde::{Deserialize, Serialize};

/// A schedule of high-level operations, represented as intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HighHistory {
    ops: Vec<HighInterval>,
}

impl HighHistory {
    /// Builds a high-level history from a recorded simulation run.
    pub fn from_run(history: &History) -> Self {
        HighHistory {
            ops: history.high_intervals(),
        }
    }

    /// Builds a history directly from intervals (mainly for tests).
    pub fn from_intervals(ops: Vec<HighInterval>) -> Self {
        HighHistory { ops }
    }

    /// All operations, in invocation order.
    pub fn ops(&self) -> &[HighInterval] {
        &self.ops
    }

    /// Number of operations in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// All write operations, in invocation order.
    pub fn writes(&self) -> Vec<HighInterval> {
        self.ops
            .iter()
            .filter(|o| o.op.is_write())
            .copied()
            .collect()
    }

    /// All *complete* read operations, in invocation order.
    pub fn complete_reads(&self) -> Vec<HighInterval> {
        self.ops
            .iter()
            .filter(|o| o.op.is_read() && o.is_complete())
            .copied()
            .collect()
    }

    /// Returns `true` if no two writes are concurrent (write-sequential
    /// schedule).
    pub fn is_write_sequential(&self) -> bool {
        self.write_sequence().is_some()
    }

    /// The writes in invocation order if no two are concurrent, else `None`.
    ///
    /// In invocation order it suffices that each write precedes the next:
    /// every later write is invoked no earlier than the next one, so it is
    /// preceded too. (This takes each write to return no earlier than it was
    /// invoked, as every recorded history does.)
    pub(crate) fn write_sequence(&self) -> Option<Vec<HighInterval>> {
        let mut writes = self.writes();
        writes.sort_by_key(|w| w.invoked_at);
        writes
            .windows(2)
            .all(|pair| pair[0].precedes(&pair[1]))
            .then_some(writes)
    }

    /// Builder helper used pervasively in tests: append a complete operation.
    pub fn push_complete(
        &mut self,
        client: usize,
        op: HighOp,
        response: HighResponse,
        invoked_at: Time,
        returned_at: Time,
    ) {
        let id = HighOpId::new(self.ops.len() as u64);
        self.ops.push(HighInterval {
            id,
            client: ClientId::new(client),
            op,
            invoked_at,
            returned: Some((returned_at, response)),
        });
    }

    /// Builder helper: append a pending (incomplete) operation.
    pub fn push_pending(&mut self, client: usize, op: HighOp, invoked_at: Time) {
        let id = HighOpId::new(self.ops.len() as u64);
        self.ops.push(HighInterval {
            id,
            client: ClientId::new(client),
            op,
            invoked_at,
            returned: None,
        });
    }
}

#[cfg(test)]
impl HighHistory {
    /// Convenience builder: a complete write interval.
    pub(crate) fn write(
        client: usize,
        value: regemu_fpsm::Payload,
        invoked_at: Time,
        returned_at: Time,
    ) -> HighInterval {
        HighInterval {
            id: HighOpId::new(0),
            client: ClientId::new(client),
            op: HighOp::Write(value),
            invoked_at,
            returned: Some((returned_at, HighResponse::WriteAck)),
        }
    }

    /// Convenience builder: a complete read interval returning `value`.
    pub(crate) fn read(
        client: usize,
        value: regemu_fpsm::Payload,
        invoked_at: Time,
        returned_at: Time,
    ) -> HighInterval {
        HighInterval {
            id: HighOpId::new(0),
            client: ClientId::new(client),
            op: HighOp::Read,
            invoked_at,
            returned: Some((returned_at, HighResponse::ReadValue(value))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HighHistory {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 2);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 3, 4);
        h.push_complete(2, HighOp::Write(2), HighResponse::WriteAck, 5, 6);
        h.push_pending(3, HighOp::Read, 7);
        h
    }

    #[test]
    fn extraction_and_filters() {
        let h = sample();
        assert_eq!(h.len(), 4);
        assert_eq!(h.writes().len(), 2);
        assert_eq!(h.complete_reads().len(), 1);
        assert!(h.is_write_sequential());
    }

    #[test]
    fn concurrent_writes_detected() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 5);
        h.push_complete(1, HighOp::Write(2), HighResponse::WriteAck, 2, 7);
        assert!(!h.is_write_sequential());
    }
}
