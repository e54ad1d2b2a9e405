//! Workload generation.
//!
//! A [`Workload`] is a sequence of high-level operations attributed to
//! clients: writers issue `write`s, readers issue `read`s. Generators are
//! seeded and deterministic so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regemu_fpsm::{HighOp, Payload};
use serde::{Deserialize, Serialize};

/// Who issues an operation of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Issuer {
    /// The `i`-th writer client (0-based, `< k`).
    Writer(usize),
    /// The `i`-th reader client (0-based).
    Reader(usize),
}

/// One step of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadOp {
    /// The issuing client.
    pub issuer: Issuer,
    /// The high-level operation to invoke.
    pub op: HighOp,
    /// When `true`, the runner waits for this operation to complete before
    /// issuing the next one; when `false`, the next operation may be invoked
    /// concurrently (by a different client).
    pub sequential: bool,
}

/// A deterministic sequence of high-level operations.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    ops: Vec<WorkloadOp>,
}

impl Workload {
    /// A workload from explicit operation steps (used verbatim by the
    /// runner).
    pub fn from_steps(ops: Vec<WorkloadOp>) -> Self {
        Workload { ops }
    }

    /// The operations, in issue order.
    pub fn ops(&self) -> &[WorkloadOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The write-sequential workload of the paper's lower-bound runs: each of
    /// the `k` writers issues `rounds` writes of distinct values, one at a
    /// time, interleaved with a read after every write (issued by one
    /// reader).
    pub fn write_sequential(k: usize, rounds: usize, read_after_each: bool) -> Self {
        let mut ops = Vec::new();
        let mut value: Payload = 0;
        for round in 0..rounds {
            for w in 0..k {
                value += 1;
                ops.push(WorkloadOp {
                    issuer: Issuer::Writer(w),
                    op: HighOp::Write(value),
                    sequential: true,
                });
                if read_after_each {
                    ops.push(WorkloadOp {
                        issuer: Issuer::Reader(0),
                        op: HighOp::Read,
                        sequential: true,
                    });
                }
                let _ = round;
            }
        }
        Workload { ops }
    }

    /// A read-heavy workload: one writer update followed by `reads_per_write`
    /// reads spread over `readers` reader clients.
    pub fn read_heavy(k: usize, writes: usize, reads_per_write: usize, readers: usize) -> Self {
        assert!(
            readers > 0,
            "a read-heavy workload needs at least one reader"
        );
        let mut ops = Vec::new();
        let mut value = 0;
        for i in 0..writes {
            value += 1;
            ops.push(WorkloadOp {
                issuer: Issuer::Writer(i % k),
                op: HighOp::Write(value),
                sequential: true,
            });
            for r in 0..reads_per_write {
                ops.push(WorkloadOp {
                    issuer: Issuer::Reader(r % readers),
                    op: HighOp::Read,
                    sequential: true,
                });
            }
        }
        Workload { ops }
    }

    /// A randomized mixed workload: `total` operations, each a write with
    /// probability `write_ratio` (issued by a uniformly random writer) or a
    /// read otherwise; operations are issued sequentially.
    pub fn random_mixed(
        k: usize,
        readers: usize,
        total: usize,
        write_ratio: f64,
        seed: u64,
    ) -> Self {
        assert!(readers > 0, "a mixed workload needs at least one reader");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        let mut value = 0;
        for _ in 0..total {
            if rng.gen_bool(write_ratio) {
                value += 1;
                ops.push(WorkloadOp {
                    issuer: Issuer::Writer(rng.gen_range(0..k)),
                    op: HighOp::Write(value),
                    sequential: true,
                });
            } else {
                ops.push(WorkloadOp {
                    issuer: Issuer::Reader(rng.gen_range(0..readers)),
                    op: HighOp::Read,
                    sequential: true,
                });
            }
        }
        Workload { ops }
    }

    /// A concurrent workload in which reads overlap writes: every write is
    /// issued concurrently with a read by a dedicated reader (the runner does
    /// not wait for the write before invoking the read).
    pub fn concurrent_read_write(k: usize, rounds: usize) -> Self {
        let mut ops = Vec::new();
        let mut value = 0;
        for _ in 0..rounds {
            for w in 0..k {
                value += 1;
                ops.push(WorkloadOp {
                    issuer: Issuer::Writer(w),
                    op: HighOp::Write(value),
                    sequential: false,
                });
                ops.push(WorkloadOp {
                    issuer: Issuer::Reader(0),
                    op: HighOp::Read,
                    sequential: true,
                });
            }
        }
        Workload { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writes(w: &Workload) -> usize {
        w.ops().iter().filter(|o| o.op.is_write()).count()
    }

    /// Distinct reader clients the workload issues from.
    fn readers(w: &Workload) -> usize {
        let mut readers: Vec<usize> = w
            .ops()
            .iter()
            .filter_map(|o| match o.issuer {
                Issuer::Reader(r) => Some(r),
                Issuer::Writer(_) => None,
            })
            .collect();
        readers.sort_unstable();
        readers.dedup();
        readers.len()
    }

    #[test]
    fn write_sequential_workload_shape() {
        let w = Workload::write_sequential(3, 2, true);
        assert_eq!(w.len(), 12);
        assert_eq!(writes(&w), 6);
        assert_eq!(readers(&w), 1);
        assert!(w.ops().iter().all(|o| o.sequential));
        // Values are distinct and increasing.
        let values: Vec<_> = w.ops().iter().filter_map(|o| o.op.payload()).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(values.len(), sorted.len());

        let no_reads = Workload::write_sequential(2, 1, false);
        assert_eq!(readers(&no_reads), 0);
        assert_eq!(writes(&no_reads), no_reads.len());
    }

    #[test]
    fn read_heavy_workload_shape() {
        let w = Workload::read_heavy(2, 4, 3, 2);
        assert_eq!(writes(&w), 4);
        assert_eq!(w.len(), 4 * 4);
        assert_eq!(readers(&w), 2);
    }

    #[test]
    fn random_mixed_is_deterministic_per_seed() {
        let a = Workload::random_mixed(3, 2, 50, 0.5, 7);
        let b = Workload::random_mixed(3, 2, 50, 0.5, 7);
        let c = Workload::random_mixed(3, 2, 50, 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn concurrent_workload_marks_overlapping_ops() {
        let w = Workload::concurrent_read_write(2, 1);
        assert_eq!(w.len(), 4);
        assert!(w.ops().iter().any(|o| !o.sequential));
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn read_heavy_requires_readers() {
        Workload::read_heavy(1, 1, 1, 0);
    }
}
