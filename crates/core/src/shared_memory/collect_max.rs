//! A `k`-writer max-register from `k` single-writer registers.

use super::SharedMaxRegister;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The collect-based `k`-writer max-register: one register slot per writer.
///
/// Writer `i` only ever writes its own slot (keeping it monotone), and a read
/// collects all `k` slots and returns the maximum. This uses exactly `k` base
/// registers — matching the lower bound of Theorem 2, which shows no
/// construction can use fewer.
///
/// [`CollectMaxRegister::writer`] hands out per-writer handles; writes
/// through the shared [`SharedMaxRegister::write_max`] entry point are
/// attributed to slot 0 (useful for single-writer benchmarks).
#[derive(Debug)]
pub struct CollectMaxRegister {
    slots: Vec<AtomicU64>,
    initial: u64,
}

impl CollectMaxRegister {
    /// Creates a max-register for `k` writers with initial value `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, initial: u64) -> Self {
        assert!(k > 0, "a max-register needs at least one writer slot");
        CollectMaxRegister {
            slots: (0..k).map(|_| AtomicU64::new(initial)).collect(),
            initial,
        }
    }

    /// Number of base registers used (equals the number of writers `k`).
    pub fn register_count(&self) -> usize {
        self.slots.len()
    }

    /// A handle for writer `index` (`< k`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn writer(self: &Arc<Self>, index: usize) -> CollectWriter {
        assert!(
            index < self.slots.len(),
            "writer index {index} out of range"
        );
        CollectWriter {
            shared: self.clone(),
            index,
        }
    }

    fn write_slot(&self, slot: usize, value: u64) {
        // The slot is single-writer, so a monotone update needs no CAS: read
        // our own last value and store the maximum.
        let current = self.slots[slot].load(Ordering::SeqCst);
        if value > current {
            self.slots[slot].store(value, Ordering::SeqCst);
        }
    }

    fn collect(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .max()
            .unwrap_or(self.initial)
    }
}

impl SharedMaxRegister for CollectMaxRegister {
    fn write_max(&self, value: u64) {
        self.write_slot(0, value);
    }

    fn read_max(&self) -> u64 {
        self.collect()
    }
}

/// A per-writer handle of a [`CollectMaxRegister`].
#[derive(Debug, Clone)]
pub struct CollectWriter {
    shared: Arc<CollectMaxRegister>,
    index: usize,
}

impl CollectWriter {
    /// Writes `value` through this writer's own slot.
    pub fn write_max(&self, value: u64) {
        self.shared.write_slot(self.index, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_exactly_k_registers() {
        let m = CollectMaxRegister::new(5, 0);
        assert_eq!(m.register_count(), 5);
        assert_eq!(
            m.register_count(),
            regemu_bounds::max_register_from_registers_lower_bound(5)
        );
    }

    #[test]
    fn per_writer_handles_keep_the_global_maximum() {
        let m = Arc::new(CollectMaxRegister::new(3, 0));
        let w0 = m.writer(0);
        let w1 = m.writer(1);
        let w2 = m.writer(2);
        w0.write_max(10);
        w1.write_max(4);
        w2.write_max(7);
        assert_eq!(m.read_max(), 10);
        w1.write_max(12);
        assert_eq!(m.read_max(), 12);
        assert_eq!(w2.index, 2);
    }

    #[test]
    fn own_slot_is_monotone_even_with_smaller_writes() {
        let m = Arc::new(CollectMaxRegister::new(2, 0));
        let w = m.writer(0);
        w.write_max(9);
        w.write_max(3);
        assert_eq!(m.read_max(), 9);
    }

    #[test]
    fn concurrent_writers_each_in_their_own_slot() {
        let m = Arc::new(CollectMaxRegister::new(4, 0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let w = m.writer(i);
                std::thread::spawn(move || {
                    for v in 0..300u64 {
                        w.write_max(i as u64 * 1000 + v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.read_max(), 3 * 1000 + 299);
    }

    #[test]
    #[should_panic(expected = "at least one writer")]
    fn zero_writers_is_rejected() {
        CollectMaxRegister::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_writer_is_rejected() {
        let m = Arc::new(CollectMaxRegister::new(2, 0));
        let _ = m.writer(2);
    }
}
