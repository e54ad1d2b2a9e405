//! Values stored in base objects.
//!
//! Every base object in the system stores a [`Value`]: a pair of a timestamp
//! and a payload, ordered lexicographically. This single representation is
//! rich enough for all three base-object types studied in the paper:
//!
//! * a **read/write register** simply stores and returns the last written
//!   [`Value`];
//! * a **max-register** needs a totally ordered domain — the lexicographic
//!   `(ts, val)` order provides one;
//! * a **CAS** object needs equality — derived structurally.
//!
//! Emulation algorithms use the timestamp component for version ordering
//! (e.g. Algorithm 2 stores `TSVal = N × V`), while plain payloads can be
//! stored with `Value::from_payload`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The payload type written by clients of the emulated register.
pub type Payload = u64;

/// A timestamped value, the universal content of every base object.
///
/// Ordered lexicographically by `(ts, val)` which makes it usable as the
/// ordered domain of a max-register.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Value {
    /// Version/timestamp component (most significant in the ordering).
    pub ts: u64,
    /// Payload component.
    pub val: Payload,
}

impl Value {
    /// The initial value `v0` every base object starts with.
    pub const INITIAL: Value = Value { ts: 0, val: 0 };

    /// Creates a value with an explicit timestamp and payload.
    pub const fn new(ts: u64, val: Payload) -> Self {
        Value { ts, val }
    }

    /// Creates an un-versioned value carrying just a payload (timestamp 0).
    pub(crate) const fn from_payload(val: Payload) -> Self {
        Value { ts: 0, val }
    }

    /// Returns `true` if this is the initial value `v0`.
    pub fn is_initial(&self) -> bool {
        *self == Self::INITIAL
    }

    /// Returns the maximum of `self` and `other` under the lexicographic order.
    pub(crate) fn max(self, other: Value) -> Value {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns a copy of this value with the timestamp incremented by one.
    ///
    /// Useful for ABD-style "read the maximum timestamp, then write a larger
    /// one" protocols.
    pub fn bump(self) -> Value {
        Value {
            ts: self.ts + 1,
            val: self.val,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨ts={},v={}⟩", self.ts, self.val)
    }
}

impl From<(u64, Payload)> for Value {
    fn from((ts, val): (u64, Payload)) -> Self {
        Value { ts, val }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic_on_ts_then_val() {
        assert!(Value::new(1, 0) > Value::new(0, 999));
        assert!(Value::new(2, 3) > Value::new(2, 2));
        assert!(Value::new(2, 2) == Value::new(2, 2));
    }

    #[test]
    fn initial_value_is_smallest_of_zero_ts() {
        assert!(Value::INITIAL.is_initial());
        assert!(Value::INITIAL <= Value::new(0, 1));
        assert!(!Value::new(0, 1).is_initial());
    }

    #[test]
    fn max_and_bump() {
        let a = Value::new(3, 7);
        let b = Value::new(4, 0);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
        assert_eq!(a.bump(), Value::new(4, 7));
    }

    #[test]
    fn from_tuple_and_payload() {
        assert_eq!(Value::from((5, 6)), Value::new(5, 6));
        assert_eq!(Value::from_payload(9), Value::new(0, 9));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Value::new(1, 2).to_string(), "⟨ts=1,v=2⟩");
    }
}
