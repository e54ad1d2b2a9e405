//! Strongly typed identifiers for the components of a fault-prone shared
//! memory system: clients, servers, base objects, low-level operations and
//! high-level (emulated) operations.
//!
//! All identifiers are small newtypes over integers so they are `Copy`,
//! hashable and cheap to move around, while still being statically
//! distinguishable from one another (a [`ServerId`] can never be confused
//! with an [`ObjectId`]).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr, $inner:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Creates a new identifier from its raw index.
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// Returns the raw index wrapped by this identifier.
            pub const fn index(self) -> $inner {
                self.0
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            fn from(id: $name) -> $inner {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a client process (a reader or writer of the emulated register).
    ClientId,
    "c",
    usize
);

id_type!(
    /// Identifier of a fault-prone server. Crashing a server crashes every
    /// base object mapped to it by the placement function `δ`.
    ServerId,
    "s",
    usize
);

id_type!(
    /// Identifier of a base object (read/write register, max-register or CAS)
    /// hosted by some server.
    ObjectId,
    "b",
    usize
);

id_type!(
    /// Identifier of a *low-level* operation: a single `trigger`/`respond`
    /// pair on a base object.
    OpId,
    "op",
    u64
);

id_type!(
    /// Identifier of a *high-level* operation: an emulated `read` or `write`
    /// invoked on the emulated register.
    HighOpId,
    "hop",
    u64
);

/// Logical time inside a simulation run. A run is a sequence of steps
/// (actions); the time `t` refers to the configuration reached after `t`
/// steps, exactly as in the paper's model.
pub type Time = u64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_through_raw_values() {
        let c = ClientId::new(7);
        assert_eq!(c.index(), 7);
        assert_eq!(ClientId::from(7usize), c);
        assert_eq!(usize::from(c), 7);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ClientId::new(3).to_string(), "c3");
        assert_eq!(ServerId::new(0).to_string(), "s0");
        assert_eq!(ObjectId::new(12).to_string(), "b12");
        assert_eq!(OpId::new(4).to_string(), "op4");
        assert_eq!(HighOpId::new(9).to_string(), "hop9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(ObjectId::new(1));
        set.insert(ObjectId::new(2));
        set.insert(ObjectId::new(1));
        assert_eq!(set.len(), 2);
        assert!(ObjectId::new(1) < ObjectId::new(2));
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(ClientId::default(), ClientId::new(0));
        assert_eq!(OpId::default(), OpId::new(0));
    }
}
