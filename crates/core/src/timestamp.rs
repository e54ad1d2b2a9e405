//! Timestamp helpers.
//!
//! Emulated writes are ordered by the timestamp component of [`Value`]. The
//! paper's algorithms only need timestamps that grow across sequential writes
//! (safety is only claimed for write-sequential runs, so no tie-breaking is
//! required); we nevertheless embed the writer index in the low bits so that
//! timestamps are *globally unique*, which lets the same protocols be used in
//! the concurrent stress tests and in the atomic (write-back) ABD variant.
//!
//! [`Value`]: regemu_fpsm::Value

/// Number of low bits reserved for the writer index.
pub(crate) const WRITER_BITS: u32 = 16;

/// Maximum number of writers distinguishable by a timestamp.
pub(crate) const MAX_WRITERS: usize = (1 << WRITER_BITS) - 1;

/// Composes a timestamp from a round number and a 0-based writer index.
///
/// # Panics
///
/// Panics if `writer >= MAX_WRITERS`.
pub(crate) fn compose(round: u64, writer: usize) -> u64 {
    assert!(
        writer < MAX_WRITERS,
        "writer index {writer} exceeds the timestamp capacity"
    );
    (round << WRITER_BITS) | (writer as u64 + 1)
}

/// The round number encoded in a timestamp.
pub(crate) fn round_of(ts: u64) -> u64 {
    ts >> WRITER_BITS
}

/// The timestamp a writer should use after observing `current`: one round
/// higher, tagged with the writer's own index.
pub fn next(current: u64, writer: usize) -> u64 {
    compose(round_of(current) + 1, writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_and_decompose_roundtrip() {
        let ts = compose(7, 3);
        assert_eq!(round_of(ts), 7);
        assert_eq!(round_of(0), 0);
    }

    #[test]
    fn next_is_strictly_larger_regardless_of_writer() {
        let a = next(0, 5);
        let b = next(a, 0);
        let c = next(b, 9);
        assert!(a > 0 && b > a && c > b);
    }

    #[test]
    fn timestamps_of_distinct_writers_in_the_same_round_differ() {
        assert_ne!(compose(4, 0), compose(4, 1));
        assert!(compose(5, 0) > compose(4, MAX_WRITERS - 1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn too_many_writers_panics() {
        compose(1, MAX_WRITERS);
    }
}
