//! Low-level and high-level operation types.
//!
//! *Low-level* operations ([`BaseOp`]/[`BaseResponse`]) are **triggered** on
//! base objects and eventually **respond**; *high-level* operations
//! ([`HighOp`]/[`HighResponse`]) are **invoked** on the emulated register and
//! eventually **return**. The vocabulary mirrors Section 2 of the paper.

use crate::value::{Payload, Value};
use std::fmt;

/// A low-level operation triggered on a base object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BaseOp {
    /// `read()` on a read/write register.
    Read,
    /// `write(v)` on a read/write register.
    Write(Value),
    /// `read-max()` on a max-register.
    ReadMax,
    /// `write-max(v)` on a max-register.
    WriteMax(Value),
    /// `CAS(expected, new)` on a compare-and-swap object; returns the old value.
    Cas {
        /// Value the object must currently hold for the swap to take effect.
        expected: Value,
        /// Value installed if the comparison succeeds.
        new: Value,
    },
}

impl BaseOp {
    /// Returns `true` if the operation can modify the state of the object.
    ///
    /// Note that a `CAS` is always counted as a (potential) writer, matching
    /// the treatment of RMW primitives in the paper: a pending `CAS` may take
    /// effect arbitrarily late and overwrite the object.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            BaseOp::Write(_) | BaseOp::WriteMax(_) | BaseOp::Cas { .. }
        )
    }

    /// Returns `true` if the operation only observes the object state.
    pub fn is_read(&self) -> bool {
        !self.is_write()
    }
}

impl fmt::Display for BaseOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseOp::Read => write!(f, "read()"),
            BaseOp::Write(v) => write!(f, "write({v})"),
            BaseOp::ReadMax => write!(f, "read-max()"),
            BaseOp::WriteMax(v) => write!(f, "write-max({v})"),
            BaseOp::Cas { expected, new } => write!(f, "CAS({expected},{new})"),
        }
    }
}

/// The response matching a [`BaseOp`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BaseResponse {
    /// Response to [`BaseOp::Read`]: the current value of the register.
    ReadValue(Value),
    /// Acknowledgement of [`BaseOp::Write`].
    WriteAck,
    /// Response to [`BaseOp::ReadMax`]: the maximum value written so far.
    MaxValue(Value),
    /// Acknowledgement of [`BaseOp::WriteMax`].
    WriteMaxAck,
    /// Response to [`BaseOp::Cas`]: the value held *before* the operation.
    CasOld(Value),
}

impl BaseResponse {}

impl fmt::Display for BaseResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseResponse::ReadValue(v) => write!(f, "value({v})"),
            BaseResponse::WriteAck => write!(f, "ack"),
            BaseResponse::MaxValue(v) => write!(f, "max({v})"),
            BaseResponse::WriteMaxAck => write!(f, "ack-max"),
            BaseResponse::CasOld(v) => write!(f, "old({v})"),
        }
    }
}

/// A high-level operation invoked on the emulated multi-writer register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HighOp {
    /// An emulated `write(v)`.
    Write(Payload),
    /// An emulated `read()`.
    Read,
}

impl HighOp {
    /// Returns `true` for emulated writes.
    pub fn is_write(&self) -> bool {
        matches!(self, HighOp::Write(_))
    }

    /// Returns `true` for emulated reads.
    pub fn is_read(&self) -> bool {
        matches!(self, HighOp::Read)
    }

    /// Returns the payload of an emulated write, if any.
    pub fn payload(&self) -> Option<Payload> {
        match self {
            HighOp::Write(v) => Some(*v),
            HighOp::Read => None,
        }
    }
}

impl fmt::Display for HighOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HighOp::Write(v) => write!(f, "WRITE({v})"),
            HighOp::Read => write!(f, "READ()"),
        }
    }
}

/// The return value of a high-level operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HighResponse {
    /// Acknowledgement of an emulated write.
    WriteAck,
    /// Value returned by an emulated read.
    ReadValue(Payload),
}

impl HighResponse {
    /// Returns the payload returned by an emulated read, if any.
    pub fn payload(&self) -> Option<Payload> {
        match self {
            HighResponse::ReadValue(v) => Some(*v),
            HighResponse::WriteAck => None,
        }
    }
}

impl fmt::Display for HighResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HighResponse::WriteAck => write!(f, "OK"),
            HighResponse::ReadValue(v) => write!(f, "VALUE({v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_op_classification() {
        assert!(BaseOp::Write(Value::new(1, 1)).is_write());
        assert!(BaseOp::WriteMax(Value::new(1, 1)).is_write());
        assert!(BaseOp::Cas {
            expected: Value::INITIAL,
            new: Value::new(1, 1)
        }
        .is_write());
        assert!(BaseOp::Read.is_read());
        assert!(BaseOp::ReadMax.is_read());
        assert!(!BaseOp::Read.is_write());
    }

    #[test]
    fn high_op_payloads() {
        assert!(HighOp::Write(4).is_write());
        assert!(HighOp::Read.is_read());
        assert_eq!(HighOp::Write(4).payload(), Some(4));
        assert_eq!(HighOp::Read.payload(), None);
        assert_eq!(HighResponse::ReadValue(4).payload(), Some(4));
        assert_eq!(HighResponse::WriteAck.payload(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BaseOp::Read.to_string(), "read()");
        assert_eq!(HighOp::Write(3).to_string(), "WRITE(3)");
        assert_eq!(HighResponse::ReadValue(3).to_string(), "VALUE(3)");
    }
}
