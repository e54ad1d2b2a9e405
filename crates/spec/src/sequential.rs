//! Sequential specifications of the emulated object types.
//!
//! The consistency conditions are all phrased relative to a *sequential
//! specification*: the set of sequential schedules the object admits. For the
//! objects in this repository the state is fully determined by the sequence
//! of writes applied so far, so a specification is captured by how writes
//! fold into a single [`Payload`] state.

use regemu_fpsm::{HighOp, HighResponse, Payload};

/// How a sequence of writes determines the value returned by a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Ordinary read/write register: a read returns the value of the last
    /// preceding write (or the initial value).
    LastWrite,
    /// Max-register: a read returns the maximum value written so far (or the
    /// initial value).
    Max,
}

/// A sequential specification with an initial value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SequentialSpec {
    /// The fold semantics of writes.
    pub semantics: Semantics,
    /// The initial value `v0` returned when no write precedes a read.
    pub initial: Payload,
}

impl SequentialSpec {
    /// The specification of a multi-writer read/write register with initial
    /// value 0.
    pub fn register() -> Self {
        SequentialSpec {
            semantics: Semantics::LastWrite,
            initial: 0,
        }
    }

    /// The specification of a multi-writer max-register with initial value 0.
    pub fn max_register() -> Self {
        SequentialSpec {
            semantics: Semantics::Max,
            initial: 0,
        }
    }

    /// Folds a write of `value` into the current state.
    pub fn apply_write(&self, state: Payload, value: Payload) -> Payload {
        match self.semantics {
            Semantics::LastWrite => value,
            Semantics::Max => state.max(value),
        }
    }

    /// The state after applying the given sequence of writes in order.
    pub fn state_after<I>(&self, writes: I) -> Payload
    where
        I: IntoIterator<Item = Payload>,
    {
        writes
            .into_iter()
            .fold(self.initial, |st, v| self.apply_write(st, v))
    }

    /// Applies a high-level operation to `state`, returning the next state
    /// and the response the sequential specification mandates.
    pub fn step(&self, state: Payload, op: HighOp) -> (Payload, HighResponse) {
        match op {
            HighOp::Write(v) => (self.apply_write(state, v), HighResponse::WriteAck),
            HighOp::Read => (state, HighResponse::ReadValue(state)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_write_semantics() {
        let spec = SequentialSpec::register();
        assert_eq!(spec.state_after([3, 1, 2]), 2);
        assert_eq!(spec.state_after([]), 0);
        let (st, resp) = spec.step(5, HighOp::Read);
        assert_eq!(st, 5);
        assert_eq!(resp, HighResponse::ReadValue(5));
        let (st, resp) = spec.step(5, HighOp::Write(9));
        assert_eq!(st, 9);
        assert_eq!(resp, HighResponse::WriteAck);
    }

    #[test]
    fn max_semantics() {
        let spec = SequentialSpec::max_register();
        assert_eq!(spec.state_after([3, 1, 2]), 3);
        assert_eq!(spec.state_after([0]), 0);
        assert_eq!(spec.apply_write(7, 5), 7);
        assert_eq!(spec.apply_write(5, 7), 7);
    }

    #[test]
    fn nonzero_initial_value() {
        let spec = SequentialSpec {
            semantics: Semantics::Max,
            initial: 10,
        };
        assert_eq!(spec.state_after([3, 4]), 10);
        assert_eq!(spec.state_after([11]), 11);
    }
}
