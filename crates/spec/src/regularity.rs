//! Write-Sequential Regularity and Write-Sequential Safety checkers.
//!
//! The paper defines (Section 2 / Appendix A.3):
//!
//! * **WS-Regularity** — for every *write-sequential* schedule `σ` and every
//!   complete read `rd`, there is a linearization of `σ|writes(σ) ∪ {rd}`.
//! * **WS-Safety** — as WS-Regularity, but only required for complete reads
//!   that are not concurrent with any write.
//!
//! Because the writes of a write-sequential schedule are totally ordered by
//! real time, checking reduces to interval arithmetic: a read may be
//! linearized after any write it does not precede and after every write that
//! precedes it, so the set of legal return values is determined by that
//! window. Schedules that are not write-sequential satisfy both conditions
//! vacuously (and the checkers report success).
//!
//! ## Cost
//!
//! Sorting the W writes by invocation time decides write-sequentiality
//! (each write must precede the next) and yields their total order. The
//! state after each prefix of that order is folded once. In that order both
//! the writes' returns and their invocations increase, so a read's window
//! `[p, q)` — after the `p` writes that precede it, before the first write
//! it precedes — is two binary searches, and its legal values are
//! `states[p..q]`. A schedule with W writes and R reads costs
//! O(W log W + R (log W + w)), where w is the most writes one read is
//! concurrent with.

use crate::history::HighHistory;
use crate::report::{CheckResult, Condition, Violation};
use crate::sequential::SequentialSpec;
use regemu_fpsm::history::HighInterval;
use regemu_fpsm::Payload;
use std::ops::Range;

/// Checks Write-Sequential Regularity of `history` against `spec`.
///
/// # Errors
///
/// Returns a [`Violation`] identifying the offending read when some complete
/// read cannot be explained by any placement among the (sequential) writes.
pub fn check_ws_regular(history: &HighHistory, spec: &SequentialSpec) -> CheckResult {
    check(history, spec, Condition::WsRegularity)
}

/// Checks Write-Sequential Safety of `history` against `spec`.
///
/// # Errors
///
/// Returns a [`Violation`] identifying the offending read when some complete
/// read that is not concurrent with any write returns a value other than the
/// one mandated by the last preceding write.
pub fn check_ws_safe(history: &HighHistory, spec: &SequentialSpec) -> CheckResult {
    check(history, spec, Condition::WsSafety)
}

fn check(history: &HighHistory, spec: &SequentialSpec, condition: Condition) -> CheckResult {
    let Some(writes) = history.write_sequence() else {
        // Both conditions only constrain write-sequential schedules.
        return Ok(());
    };
    let states = prefix_states(&writes, spec);
    for read in history.complete_reads() {
        let window = read_window(&writes, &read);
        if condition == Condition::WsSafety && window.len() > 1 {
            // WS-Safety says nothing about reads concurrent with writes, and
            // the window spans one position per concurrent write.
            continue;
        }
        let returned = read
            .returned
            .and_then(|(_, r)| r.payload())
            .expect("complete read carries a payload");
        if !states[window].contains(&returned) {
            let legal = legal_read_values(&writes, &read, spec);
            return Err(Violation::new(
                condition,
                Some(read),
                format!(
                    "read returned {returned} but only {legal:?} are allowed by the \
                     write-sequential order"
                ),
            ));
        }
    }
    Ok(())
}

/// The set of values a read may legally return given the totally ordered
/// `writes` of a write-sequential schedule.
///
/// The read may be linearized immediately after the `j`-th write for any
/// `j ∈ [p, q-1]`, where `p` is the number of writes that precede the read and
/// `q-1` is the index of the last write the read does not precede. The value
/// observed at position `j` is the sequential-specification state after the
/// first `j` writes.
pub(crate) fn legal_read_values(
    writes: &[HighInterval],
    read: &HighInterval,
    spec: &SequentialSpec,
) -> Vec<Payload> {
    let mut values = prefix_states(writes, spec)[read_window(writes, read)].to_vec();
    values.sort_unstable();
    values.dedup();
    values
}

/// `states[j]` is the specification state after the first `j` writes.
fn prefix_states(writes: &[HighInterval], spec: &SequentialSpec) -> Vec<Payload> {
    let mut states = Vec::with_capacity(writes.len() + 1);
    states.push(spec.initial);
    for w in writes {
        let value = w.op.payload().expect("write carries a payload");
        states.push(spec.apply_write(states[states.len() - 1], value));
    }
    states
}

/// The positions `[p, q)` of the write order the read may be linearized
/// at. Both bounds are binary searches: in a write-sequential order the
/// writes that precede the read form a prefix (returns increase, and a
/// pending write can only be last) and so do the writes the read does not
/// precede (invocations increase).
fn read_window(writes: &[HighInterval], read: &HighInterval) -> Range<usize> {
    let p = writes.partition_point(|w| w.precedes(read));
    let q = writes.partition_point(|w| !read.precedes(w)) + 1;
    p..q.max(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::{HighOp, HighResponse};

    fn register() -> SequentialSpec {
        SequentialSpec::register()
    }

    #[test]
    fn read_after_write_must_return_it() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 2, 3);
        assert!(check_ws_regular(&h, &register()).is_ok());
        assert!(check_ws_safe(&h, &register()).is_ok());

        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        bad.push_complete(1, HighOp::Read, HighResponse::ReadValue(0), 2, 3);
        assert!(check_ws_regular(&bad, &register()).is_err());
        assert!(check_ws_safe(&bad, &register()).is_err());
    }

    #[test]
    fn read_concurrent_with_a_write_may_return_old_or_new() {
        let mk = |ret: u64| {
            let mut h = HighHistory::default();
            h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
            h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 10);
            h.push_complete(1, HighOp::Read, HighResponse::ReadValue(ret), 3, 4);
            h
        };
        assert!(check_ws_regular(&mk(1), &register()).is_ok());
        assert!(check_ws_regular(&mk(2), &register()).is_ok());
        assert!(check_ws_regular(&mk(7), &register()).is_err());
        // WS-Safety does not constrain reads concurrent with writes at all.
        assert!(check_ws_safe(&mk(7), &register()).is_ok());
    }

    #[test]
    fn regularity_forbids_reading_values_older_than_a_preceding_write() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Write(2), HighResponse::WriteAck, 2, 3);
        // Read invoked after both writes returned: must return 2, not 1.
        h.push_complete(2, HighOp::Read, HighResponse::ReadValue(1), 4, 5);
        assert!(check_ws_regular(&h, &register()).is_err());
    }

    #[test]
    fn unlike_atomicity_regularity_allows_new_old_inversion() {
        // Two sequential reads both concurrent with the write of 2: the first
        // returns the new value, the second the old one. Regular but not
        // atomic.
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 20);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(2), 3, 4);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 5, 6);
        assert!(check_ws_regular(&h, &register()).is_ok());
        let lin = crate::linearizability::check_linearizable(&h, &register());
        assert!(lin.is_err());
    }

    #[test]
    fn non_write_sequential_schedules_are_vacuously_ok() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 5);
        h.push_complete(1, HighOp::Write(2), HighResponse::WriteAck, 2, 7);
        h.push_complete(2, HighOp::Read, HighResponse::ReadValue(99), 3, 4);
        assert!(check_ws_regular(&h, &register()).is_ok());
        assert!(check_ws_safe(&h, &register()).is_ok());
    }

    #[test]
    fn pending_write_value_is_legal_but_not_required() {
        let mk = |ret: u64| {
            let mut h = HighHistory::default();
            h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
            h.push_pending(1, HighOp::Write(2), 2);
            h.push_complete(2, HighOp::Read, HighResponse::ReadValue(ret), 3, 4);
            h
        };
        assert!(check_ws_regular(&mk(1), &register()).is_ok());
        assert!(check_ws_regular(&mk(2), &register()).is_ok());
        assert!(check_ws_regular(&mk(0), &register()).is_err());
    }

    #[test]
    fn reads_with_no_writes_must_return_initial() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Read, HighResponse::ReadValue(0), 0, 1);
        assert!(check_ws_safe(&h, &register()).is_ok());
        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Read, HighResponse::ReadValue(4), 0, 1);
        assert!(check_ws_safe(&bad, &register()).is_err());
    }

    #[test]
    fn legal_values_window_is_computed_correctly() {
        let w1 = HighHistory::write(0, 1, 0, 1);
        let w2 = HighHistory::write(0, 2, 2, 3);
        let w3 = HighHistory::write(0, 3, 10, 11);
        // Read invoked after w2 returns, returns before w3 is invoked.
        let rd = HighHistory::read(1, 0, 4, 5);
        let legal = legal_read_values(&[w1, w2, w3], &rd, &register());
        assert_eq!(legal, vec![2]);
        // Read concurrent with w2 and w3 but after w1.
        let rd2 = HighHistory::read(1, 0, 2, 12);
        let legal2 = legal_read_values(&[w1, w2, w3], &rd2, &register());
        assert_eq!(legal2, vec![1, 2, 3]);
    }

    #[test]
    fn max_register_regularity_uses_prefix_maximum() {
        let spec = SequentialSpec::max_register();
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(5), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Write(3), HighResponse::WriteAck, 2, 3);
        h.push_complete(2, HighOp::Read, HighResponse::ReadValue(5), 4, 5);
        assert!(check_ws_regular(&h, &spec).is_ok());
        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Write(5), HighResponse::WriteAck, 0, 1);
        bad.push_complete(1, HighOp::Write(3), HighResponse::WriteAck, 2, 3);
        bad.push_complete(2, HighOp::Read, HighResponse::ReadValue(3), 4, 5);
        assert!(check_ws_regular(&bad, &spec).is_err());
    }
}
