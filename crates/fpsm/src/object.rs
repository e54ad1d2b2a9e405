//! Base objects: atomic read/write registers, max-registers and CAS objects.
//!
//! Base objects are *atomic* ([Herlihy & Wing]); following Assumption 1 of the
//! paper (Write Linearization) the simulation applies an operation to the
//! object state exactly at the step where the operation *responds*, which is a
//! legal linearization point. A low-level write that has been triggered but
//! has not yet responded is *pending* and **covers** the object: it may take
//! effect at any later time and erase whatever was stored in between.
//!
//! [Herlihy & Wing]: https://doi.org/10.1145/78969.78972

use crate::ids::ObjectId;
use crate::op::{BaseOp, BaseResponse};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of primitive a base object supports (first column of Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ObjectKind {
    /// A multi-writer/multi-reader read/write register.
    Register,
    /// A max-register: `write-max(v)` / `read-max()` over an ordered domain.
    MaxRegister,
    /// A compare-and-swap object returning the previous value.
    Cas,
}

impl ObjectKind {
    /// Returns `true` if `op` is part of this object kind's interface.
    pub(crate) fn supports(&self, op: &BaseOp) -> bool {
        matches!(
            (self, op),
            (ObjectKind::Register, BaseOp::Read)
                | (ObjectKind::Register, BaseOp::Write(_))
                | (ObjectKind::MaxRegister, BaseOp::ReadMax)
                | (ObjectKind::MaxRegister, BaseOp::WriteMax(_))
                | (ObjectKind::Cas, BaseOp::Cas { .. })
        )
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Register => write!(f, "read/write register"),
            ObjectKind::MaxRegister => write!(f, "max-register"),
            ObjectKind::Cas => write!(f, "CAS"),
        }
    }
}

/// Errors raised when applying a low-level operation to a base object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObjectError {
    /// The operation does not belong to the object's interface
    /// (e.g. `write-max` on a plain register).
    UnsupportedOp {
        /// Kind of the object the operation was applied to.
        kind: ObjectKind,
        /// The offending operation.
        op: BaseOp,
    },
    /// The object has crashed (its hosting server crashed) and can no longer
    /// respond to operations.
    Crashed(ObjectId),
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::UnsupportedOp { kind, op } => {
                write!(f, "operation {op} is not supported by a {kind}")
            }
            ObjectError::Crashed(id) => write!(f, "base object {id} has crashed"),
        }
    }
}

impl std::error::Error for ObjectError {}

/// The state of a single base object hosted on a server.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaseObject {
    id: ObjectId,
    kind: ObjectKind,
    value: Value,
    crashed: bool,
    applied_writes: u64,
}

impl BaseObject {
    /// Creates a fresh base object holding the initial value `v0`.
    pub(crate) fn new(id: ObjectId, kind: ObjectKind) -> Self {
        BaseObject {
            id,
            kind,
            value: Value::INITIAL,
            crashed: false,
            applied_writes: 0,
        }
    }

    /// The value currently stored (meaningful only for introspection/tests;
    /// protocols must go through operations).
    pub fn value(&self) -> Value {
        self.value
    }

    /// Number of write-class operations that have taken effect.
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// Marks the object as crashed (invoked when its server crashes).
    pub(crate) fn crash(&mut self) {
        self.crashed = true;
    }

    /// Applies `op` atomically and returns the matching response.
    ///
    /// This is the linearization point of the operation (Assumption 1: a
    /// low-level write linearizes at its respond step).
    ///
    /// # Errors
    ///
    /// Returns [`ObjectError::Crashed`] if the object has crashed and
    /// [`ObjectError::UnsupportedOp`] if `op` is not part of the object's
    /// interface.
    pub(crate) fn apply(&mut self, op: &BaseOp) -> Result<BaseResponse, ObjectError> {
        if self.crashed {
            return Err(ObjectError::Crashed(self.id));
        }
        if !self.kind.supports(op) {
            return Err(ObjectError::UnsupportedOp {
                kind: self.kind,
                op: *op,
            });
        }
        let resp = match op {
            BaseOp::Read => BaseResponse::ReadValue(self.value),
            BaseOp::Write(v) => {
                self.applied_writes += 1;
                self.value = *v;
                BaseResponse::WriteAck
            }
            BaseOp::ReadMax => BaseResponse::MaxValue(self.value),
            BaseOp::WriteMax(v) => {
                self.applied_writes += 1;
                self.value = self.value.max(*v);
                BaseResponse::WriteMaxAck
            }
            BaseOp::Cas { expected, new } => {
                self.applied_writes += 1;
                let prev = self.value;
                if prev == *expected {
                    self.value = *new;
                }
                BaseResponse::CasOld(prev)
            }
        };
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(kind: ObjectKind) -> BaseObject {
        BaseObject::new(ObjectId::new(0), kind)
    }

    #[test]
    fn register_read_write_semantics() {
        let mut r = obj(ObjectKind::Register);
        assert_eq!(
            r.apply(&BaseOp::Read).unwrap(),
            BaseResponse::ReadValue(Value::INITIAL)
        );
        let v = Value::new(3, 7);
        assert_eq!(r.apply(&BaseOp::Write(v)).unwrap(), BaseResponse::WriteAck);
        assert_eq!(r.apply(&BaseOp::Read).unwrap(), BaseResponse::ReadValue(v));
        // A register is *not* a max-register: an older write overwrites.
        let older = Value::new(1, 1);
        r.apply(&BaseOp::Write(older)).unwrap();
        assert_eq!(
            r.apply(&BaseOp::Read).unwrap(),
            BaseResponse::ReadValue(older)
        );
        assert_eq!(r.applied_writes(), 2);
    }

    #[test]
    fn max_register_keeps_maximum() {
        let mut m = obj(ObjectKind::MaxRegister);
        m.apply(&BaseOp::WriteMax(Value::new(5, 1))).unwrap();
        m.apply(&BaseOp::WriteMax(Value::new(2, 9))).unwrap();
        assert_eq!(
            m.apply(&BaseOp::ReadMax).unwrap(),
            BaseResponse::MaxValue(Value::new(5, 1))
        );
        m.apply(&BaseOp::WriteMax(Value::new(5, 2))).unwrap();
        assert_eq!(
            m.apply(&BaseOp::ReadMax).unwrap(),
            BaseResponse::MaxValue(Value::new(5, 2))
        );
    }

    #[test]
    fn cas_swaps_only_on_match_and_returns_old() {
        let mut c = obj(ObjectKind::Cas);
        let v1 = Value::new(1, 1);
        let v2 = Value::new(2, 2);
        // Failed CAS: expected doesn't match.
        assert_eq!(
            c.apply(&BaseOp::Cas {
                expected: v1,
                new: v2
            })
            .unwrap(),
            BaseResponse::CasOld(Value::INITIAL)
        );
        assert_eq!(c.value(), Value::INITIAL);
        // Successful CAS.
        assert_eq!(
            c.apply(&BaseOp::Cas {
                expected: Value::INITIAL,
                new: v1
            })
            .unwrap(),
            BaseResponse::CasOld(Value::INITIAL)
        );
        assert_eq!(c.value(), v1);
        // Read-only CAS(v0, v0) idiom from Algorithm 1 returns current value.
        assert_eq!(
            c.apply(&BaseOp::Cas {
                expected: Value::INITIAL,
                new: Value::INITIAL
            })
            .unwrap(),
            BaseResponse::CasOld(v1)
        );
        assert_eq!(c.value(), v1);
    }

    #[test]
    fn interface_mismatch_is_rejected() {
        let mut r = obj(ObjectKind::Register);
        let err = r.apply(&BaseOp::ReadMax).unwrap_err();
        assert!(matches!(err, ObjectError::UnsupportedOp { .. }));
        let mut m = obj(ObjectKind::MaxRegister);
        assert!(m.apply(&BaseOp::Read).is_err());
        let mut c = obj(ObjectKind::Cas);
        assert!(c.apply(&BaseOp::Write(Value::INITIAL)).is_err());
    }

    #[test]
    fn crashed_objects_reject_everything() {
        let mut r = obj(ObjectKind::Register);
        r.crash();
        assert_eq!(
            r.apply(&BaseOp::Read).unwrap_err(),
            ObjectError::Crashed(ObjectId::new(0))
        );
    }

    #[test]
    fn kind_supports_table() {
        use BaseOp::*;
        let w = Write(Value::INITIAL);
        let wm = WriteMax(Value::INITIAL);
        let cas = Cas {
            expected: Value::INITIAL,
            new: Value::INITIAL,
        };
        assert!(ObjectKind::Register.supports(&Read));
        assert!(ObjectKind::Register.supports(&w));
        assert!(!ObjectKind::Register.supports(&ReadMax));
        assert!(ObjectKind::MaxRegister.supports(&ReadMax));
        assert!(ObjectKind::MaxRegister.supports(&wm));
        assert!(!ObjectKind::MaxRegister.supports(&cas));
        assert!(ObjectKind::Cas.supports(&cas));
        assert!(!ObjectKind::Cas.supports(&Read));
    }

    #[test]
    fn display_names() {
        assert_eq!(ObjectKind::Register.to_string(), "read/write register");
        assert_eq!(ObjectKind::MaxRegister.to_string(), "max-register");
        assert_eq!(ObjectKind::Cas.to_string(), "CAS");
    }
}
