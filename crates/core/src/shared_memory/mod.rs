//! Real-threaded shared-memory max-register implementations.
//!
//! The paper's classification also says something about the *standard* shared
//! memory model (no object failures): Theorem 2 shows a `k`-writer
//! max-register cannot be built from fewer than `k` read/write registers,
//! while Appendix B shows a single CAS suffices — at a time-complexity cost
//! that grows with contention (Section 5's discussion).
//!
//! This module provides executable counterparts of those constructions as
//! ordinary concurrent Rust types, exercised by multi-threaded tests and by
//! the `paper cas_time_complexity` artifact:
//!
//! * [`CasMaxRegister`] — Algorithm 1 verbatim over a single
//!   compare-and-swap word;
//! * [`CollectMaxRegister`] — the `k`-slot collect-based construction that
//!   matches Theorem 2's lower bound;
//! * [`FetchMaxRegister`] — a `fetch_max`-based baseline representing a
//!   "native" max-register.

mod cas_max;
mod collect_max;
mod fetch_max;

pub use cas_max::CasMaxRegister;
pub use collect_max::{CollectMaxRegister, CollectWriter};
pub use fetch_max::FetchMaxRegister;

/// The common interface of the shared-memory max-register implementations.
///
/// Note that [`CollectMaxRegister`]'s implementation of this trait routes all
/// writes through slot 0 and therefore assumes a *single* writer uses the
/// trait entry point; concurrent writers must use per-writer
/// [`CollectWriter`] handles, which is how the construction is defined.
pub trait SharedMaxRegister: Send + Sync {
    /// Writes `value` into the max-register (no effect if the current
    /// maximum is already at least `value`).
    fn write_max(&self, value: u64);

    /// Returns the largest value written so far (or 0).
    fn read_max(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(reg: Arc<dyn SharedMaxRegister>) {
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        reg.write_max(t * 1000 + i);
                        let seen = reg.read_max();
                        assert!(seen >= t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.read_max(), 3 * 1000 + 199);
    }

    #[test]
    fn multi_writer_implementations_converge_to_the_global_maximum() {
        exercise(Arc::new(CasMaxRegister::new(0)));
        exercise(Arc::new(FetchMaxRegister::new(0)));
    }

    #[test]
    fn collect_max_register_converges_with_per_writer_handles() {
        let reg = Arc::new(CollectMaxRegister::new(4, 0));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let writer = reg.writer(t);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        writer.write_max(t as u64 * 1000 + i);
                        assert!(writer.read_max() >= t as u64 * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.read_max(), 3 * 1000 + 199);
    }
}
