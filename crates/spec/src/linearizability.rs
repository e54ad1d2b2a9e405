//! Linearizability (atomicity) checking.
//!
//! A schedule is linearizable with respect to a sequential specification iff
//! there is a total order of its operations that (1) respects the real-time
//! precedence relation `≺` and (2) belongs to the specification. Complete
//! operations must all appear in the linearization; pending write operations
//! *may* be included (they may have taken effect), pending reads are ignored.
//!
//! ## Algorithm
//!
//! The search is Wing & Gong's in the form Lowe gives it ("Testing for
//! linearizability", 2017):
//!
//! * Every operation's invocation and return are entries of one
//!   doubly-linked list in time order, invocations before returns at equal
//!   times (`≺` is strict, so an operation invoked at the instant another
//!   returns is concurrent with it). The operations that may be linearized
//!   next are exactly the invocations before the first return still in the
//!   list: nothing un-linearized returned before they were invoked.
//!   Linearizing an operation unlinks its entries in O(1); backtracking
//!   relinks them. A pending write has no return entry, so it never forces
//!   anything: the search succeeds once every complete operation is
//!   linearized.
//! * Visited `(linearized set, abstract state)` pairs are memoized under an
//!   exact key of O(w) size, where w is the concurrency window: the first
//!   un-linearized complete operation `f` in invocation order, the pending
//!   operations invoked before it that are still un-linearized, and the
//!   linearized operations invoked after it — all of which were invoked
//!   before `f` returned.
//! * The search runs on an explicit stack, so its depth (one frame per
//!   linearized operation) costs heap, not thread stack.
//!
//! A forward step costs O(w) for the key plus a hash insert, so a history
//! that the search linearizes without backtracking — every run of a correct
//! construction so far — is checked in O(n log n + n·w) for n operations
//! (the log factor is the sort into time order). Backtracking is bounded by
//! the memo but remains exponential in the worst case, as it must be for any
//! exact checker.

use crate::history::HighHistory;
use crate::report::{CheckResult, Condition, Violation};
use crate::sequential::SequentialSpec;
use regemu_fpsm::history::HighInterval;
use regemu_fpsm::Payload;
use std::collections::HashSet;

/// Checks that `history` is linearizable (atomic) w.r.t. `spec`.
///
/// # Errors
///
/// Returns a [`Violation`] with condition [`Condition::Atomicity`] when no
/// linearization exists.
pub fn check_linearizable(history: &HighHistory, spec: &SequentialSpec) -> CheckResult {
    let ops: Vec<HighInterval> = history
        .ops()
        .iter()
        // Pending reads impose no constraint and can be dropped outright.
        .filter(|o| o.is_complete() || o.op.is_write())
        .copied()
        .collect();

    if linearizable_from(&ops, spec, spec.initial) {
        Ok(())
    } else {
        Err(Violation::new(
            Condition::Atomicity,
            None,
            format!(
                "no linearization of the {} operations exists for the {:?} specification",
                ops.len(),
                spec.semantics
            ),
        ))
    }
}

/// Returns `true` when `ops` (complete operations mandatory, pending writes
/// optional, pending reads must have been filtered out by the caller) can be
/// linearized starting from the abstract state `initial` instead of the
/// specification's own initial value. Used by the streaming checker, which
/// folds a committed prefix of the history into a running state.
pub(crate) fn linearizable_from(
    ops: &[HighInterval],
    spec: &SequentialSpec,
    initial: Payload,
) -> bool {
    Searcher::new(ops, *spec).linearizable_from(initial)
}

/// List position of the head sentinel; the tail sentinel is the last one.
const HEAD: usize = 0;

/// One position of the call/return list.
#[derive(Clone, Copy)]
enum Entry {
    /// The invocation of operation `i` (an index into `Searcher::ops`).
    Call(usize),
    /// The return of an operation.
    Return,
    /// The head or tail sentinel.
    End,
}

/// The call/return list over a set of operations, and which of them are
/// currently linearized.
struct Searcher {
    spec: SequentialSpec,
    /// The operations in invocation order.
    ops: Vec<HighInterval>,
    entries: Vec<Entry>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// List position of each operation's invocation and, if it completed,
    /// its return.
    call_at: Vec<usize>,
    return_at: Vec<Option<usize>>,
    linearized: Vec<bool>,
}

impl Searcher {
    fn new(ops: &[HighInterval], spec: SequentialSpec) -> Self {
        let mut ops = ops.to_vec();
        ops.sort_by_key(|o| o.invoked_at);
        // `false` sorts first: invocations before returns at equal times.
        let mut points: Vec<_> = ops
            .iter()
            .enumerate()
            .flat_map(|(i, o)| {
                let returned = o.returned.map(|(t, _)| (t, true, i));
                std::iter::once((o.invoked_at, false, i)).chain(returned)
            })
            .collect();
        points.sort_unstable();

        let mut entries = Vec::with_capacity(points.len() + 2);
        let mut call_at = vec![HEAD; ops.len()];
        let mut return_at = vec![None; ops.len()];
        entries.push(Entry::End);
        for (_, is_return, i) in points {
            if is_return {
                return_at[i] = Some(entries.len());
                entries.push(Entry::Return);
            } else {
                call_at[i] = entries.len();
                entries.push(Entry::Call(i));
            }
        }
        entries.push(Entry::End);
        let len = entries.len();
        Searcher {
            spec,
            linearized: vec![false; ops.len()],
            ops,
            entries,
            next: (1..=len).collect(),
            prev: (0..len).map(|p| p.saturating_sub(1)).collect(),
            call_at,
            return_at,
        }
    }

    /// Returns `true` if every complete operation can be linearized, pending
    /// writes optionally, starting from the abstract state `initial`.
    fn linearizable_from(mut self, initial: Payload) -> bool {
        let mut remaining = self.ops.iter().filter(|o| o.is_complete()).count();
        let mut state = initial;
        // The linearized operations in order, each with the state it was
        // applied to.
        let mut stack: Vec<(usize, Payload)> = Vec::new();
        let mut visited: HashSet<(Payload, Box<[usize]>)> = HashSet::new();
        let mut at = self.next[HEAD];
        while remaining > 0 {
            match self.entries[at] {
                Entry::Call(i) => {
                    let op = self.ops[i];
                    let (after, expected) = self.spec.step(state, op.op);
                    // A complete operation must have returned exactly the
                    // response the specification mandates at this point; a
                    // pending write is unconstrained (it never returned).
                    let consistent = op.returned.map_or(true, |(_, actual)| actual == expected);
                    if consistent {
                        self.lift(i);
                        let left = remaining - usize::from(op.is_complete());
                        if left == 0 {
                            return true;
                        }
                        if visited.insert((after, self.key())) {
                            stack.push((i, state));
                            state = after;
                            remaining = left;
                            at = self.next[HEAD];
                            continue;
                        }
                        self.unlift(i);
                    }
                    at = self.next[at];
                }
                Entry::Return | Entry::End => {
                    // The first remaining return belongs to an operation no
                    // candidate before it could be linearized ahead of:
                    // undo the last choice and try the next candidate.
                    let Some((i, before)) = stack.pop() else {
                        return false;
                    };
                    self.unlift(i);
                    state = before;
                    remaining += usize::from(self.ops[i].is_complete());
                    at = self.next[self.call_at[i]];
                }
            }
        }
        true
    }

    /// The exact memo key of the linearized set: `[f, pending…, after…]`
    /// where `f` is the first un-linearized complete operation, `pending`
    /// the un-linearized (necessarily pending) operations before it and
    /// `after` the linearized operations after it. Everything before `f`
    /// not listed is linearized and everything after it not listed is not,
    /// so the key determines the set; the linearized operations after `f`
    /// were invoked before `f` returned, so the key is O(w).
    fn key(&self) -> Box<[usize]> {
        let mut key = vec![0]; // `f`, once found
        let mut at = self.next[HEAD];
        let f = loop {
            match self.entries[at] {
                Entry::Call(i) if self.ops[i].is_complete() => break i,
                Entry::Call(i) => key.push(i),
                // Only an operation recorded as returning before it was
                // invoked puts a return ahead of `f`; it can never be
                // linearized, so the verdict no longer depends on the key.
                Entry::Return => {}
                Entry::End => unreachable!("a complete operation is still un-linearized"),
            }
            at = self.next[at];
        };
        key[0] = f;
        let (returned_at, _) = self.ops[f].returned.expect("f is complete");
        key.extend(
            (f + 1..self.ops.len())
                .take_while(|&j| self.ops[j].invoked_at <= returned_at)
                .filter(|&j| self.linearized[j]),
        );
        key.into_boxed_slice()
    }

    /// Linearizes operation `i`: unlinks its invocation and return.
    fn lift(&mut self, i: usize) {
        self.linearized[i] = true;
        self.unlink(self.call_at[i]);
        if let Some(r) = self.return_at[i] {
            self.unlink(r);
        }
    }

    /// Undoes [`Searcher::lift`], relinking in the reverse order.
    fn unlift(&mut self, i: usize) {
        self.linearized[i] = false;
        if let Some(r) = self.return_at[i] {
            self.relink(r);
        }
        self.relink(self.call_at[i]);
    }

    fn unlink(&mut self, p: usize) {
        let (before, after) = (self.prev[p], self.next[p]);
        self.next[before] = after;
        self.prev[after] = before;
    }

    /// Puts `p` back between the neighbours it had when it was unlinked.
    fn relink(&mut self, p: usize) {
        let (before, after) = (self.prev[p], self.next[p]);
        self.next[before] = p;
        self.prev[after] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::HighOp;
    use regemu_fpsm::HighResponse;

    fn register() -> SequentialSpec {
        SequentialSpec::register()
    }

    fn max_register() -> SequentialSpec {
        SequentialSpec::max_register()
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 2, 3);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 4, 5);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(2), 6, 7);
        assert!(check_linearizable(&h, &register()).is_ok());
    }

    #[test]
    fn stale_read_is_not_linearizable() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 3);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 4, 5);
        let err = check_linearizable(&h, &register()).unwrap_err();
        assert_eq!(err.condition, Condition::Atomicity);
    }

    #[test]
    fn concurrent_read_may_return_either_value() {
        // Read overlaps the write of 2: both 1 and 2 are legal.
        let mut ok1 = HighHistory::default();
        ok1.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        ok1.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 6);
        ok1.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 3, 4);
        assert!(check_linearizable(&ok1, &register()).is_ok());

        let mut ok2 = HighHistory::default();
        ok2.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        ok2.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 6);
        ok2.push_complete(1, HighOp::Read, HighResponse::ReadValue(2), 3, 4);
        assert!(check_linearizable(&ok2, &register()).is_ok());
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Two sequential reads around a concurrent write: the first sees the
        // new value, the second the old one — classic atomicity violation.
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 20);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(2), 3, 4);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 5, 6);
        assert!(check_linearizable(&h, &register()).is_err());
    }

    #[test]
    fn pending_write_may_or_may_not_take_effect() {
        // A pending write of 5 explains the read of 5.
        let mut h = HighHistory::default();
        h.push_pending(0, HighOp::Write(5), 0);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(5), 1, 2);
        assert!(check_linearizable(&h, &register()).is_ok());

        // ... and a read of the initial value is fine too (the pending write
        // simply never took effect).
        let mut h2 = HighHistory::default();
        h2.push_pending(0, HighOp::Write(5), 0);
        h2.push_complete(1, HighOp::Read, HighResponse::ReadValue(0), 1, 2);
        assert!(check_linearizable(&h2, &register()).is_ok());

        // ... or late: the search first linearizes the pending write of 0
        // early (leaving the state 0), fails, and must still find it after
        // the read of 1 — so the memo must tell "state 1, pending write
        // done" from "state 1, pending write still open".
        let mut h3 = HighHistory::default();
        h3.push_pending(0, HighOp::Write(0), 0);
        h3.push_complete(1, HighOp::Write(1), HighResponse::WriteAck, 1, 2);
        h3.push_complete(2, HighOp::Read, HighResponse::ReadValue(1), 3, 4);
        h3.push_complete(2, HighOp::Read, HighResponse::ReadValue(0), 5, 6);
        assert!(check_linearizable(&h3, &register()).is_ok());
    }

    #[test]
    fn max_register_semantics_differ_from_register() {
        // write 5, then write 3, then read. A max-register must return 5; a
        // plain register must return 3.
        let mut read5 = HighHistory::default();
        read5.push_complete(0, HighOp::Write(5), HighResponse::WriteAck, 0, 1);
        read5.push_complete(0, HighOp::Write(3), HighResponse::WriteAck, 2, 3);
        read5.push_complete(1, HighOp::Read, HighResponse::ReadValue(5), 4, 5);
        assert!(check_linearizable(&read5, &max_register()).is_ok());
        assert!(check_linearizable(&read5, &register()).is_err());

        let mut read3 = HighHistory::default();
        read3.push_complete(0, HighOp::Write(5), HighResponse::WriteAck, 0, 1);
        read3.push_complete(0, HighOp::Write(3), HighResponse::WriteAck, 2, 3);
        read3.push_complete(1, HighOp::Read, HighResponse::ReadValue(3), 4, 5);
        assert!(check_linearizable(&read3, &max_register()).is_err());
        assert!(check_linearizable(&read3, &register()).is_ok());
    }

    #[test]
    fn long_histories_fit_a_default_thread_stack() {
        // The search is one level deeper per linearized operation; it must
        // not use the 2 MiB stack a spawned thread (e.g. a sweep worker)
        // gets by default. Both verdicts walk all 200,000 levels: the
        // violation is the very last read.
        let history = |last_read: u64| {
            let mut h = HighHistory::default();
            for i in 0..100_000u64 {
                let value = if i == 99_999 { last_read } else { i + 1 };
                h.push_complete(
                    0,
                    HighOp::Write(i + 1),
                    HighResponse::WriteAck,
                    4 * i,
                    4 * i + 1,
                );
                h.push_complete(
                    1,
                    HighOp::Read,
                    HighResponse::ReadValue(value),
                    4 * i + 2,
                    4 * i + 3,
                );
            }
            h
        };
        let (good, bad) = (history(100_000), history(7));
        let verdicts = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                (
                    check_linearizable(&good, &register()).is_ok(),
                    check_linearizable(&bad, &register()).is_ok(),
                )
            })
            .expect("spawn the checker thread")
            .join()
            .expect("the checker thread finishes");
        assert_eq!(verdicts, (true, false));
    }

    #[test]
    fn empty_and_read_only_histories_are_trivially_linearizable() {
        let h = HighHistory::default();
        assert!(check_linearizable(&h, &register()).is_ok());
        let mut r = HighHistory::default();
        r.push_complete(0, HighOp::Read, HighResponse::ReadValue(0), 0, 1);
        assert!(check_linearizable(&r, &register()).is_ok());
        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Read, HighResponse::ReadValue(3), 0, 1);
        assert!(check_linearizable(&bad, &register()).is_err());
    }
}
