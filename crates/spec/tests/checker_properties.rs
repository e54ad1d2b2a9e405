//! Property-based tests of the consistency checkers: the strength hierarchy
//! atomicity ⇒ WS-Regularity ⇒ WS-Safety holds on arbitrary schedules,
//! schedules generated from a sequential oracle always pass every checker,
//! and every checker agrees with an independent reference —
//! `check_linearizable` with a brute-force search over every
//! real-time-respecting order, the WS checkers with the quadratic
//! implementation they replaced.

use proptest::prelude::*;
use regemu_fpsm::history::HighInterval;
use regemu_fpsm::{HighOp, HighResponse};
use regemu_spec::prelude::*;
use regemu_spec::Semantics;

/// A random schedule and specification: operations with random intervals
/// and random (possibly wrong) read return values, about one in four of them
/// pending. Times come from a small range, so equal stamps and zero-length
/// operations are common, and operations are inserted in the order they are
/// drawn, which is unrelated to their invocation order. The specification
/// has either semantics and an initial value in `0..3`.
fn arbitrary_history(max_ops: usize) -> impl Strategy<Value = (HighHistory, SequentialSpec)> {
    (
        proptest::collection::vec(
            (
                0usize..4,           // client
                proptest::bool::ANY, // is write
                0u64..4,             // value written / returned
                0u64..12,            // invocation time
                0u64..8,             // duration
                0u8..4,              // 0: the operation is pending
            ),
            1..max_ops,
        ),
        proptest::bool::ANY, // max-register semantics
        0u64..3,             // initial value
    )
        .prop_map(|(ops, max, initial)| {
            let mut h = HighHistory::default();
            for (client, is_write, value, start, len, pending) in ops {
                let (op, response) = if is_write {
                    (HighOp::Write(value), HighResponse::WriteAck)
                } else {
                    (HighOp::Read, HighResponse::ReadValue(value))
                };
                if pending == 0 {
                    h.push_pending(client, op, start);
                } else {
                    h.push_complete(client, op, response, start, start + len);
                }
            }
            let semantics = if max {
                Semantics::Max
            } else {
                Semantics::LastWrite
            };
            (h, SequentialSpec { semantics, initial })
        })
}

/// A schedule produced by executing sequential operations against the actual
/// sequential specification — correct by construction.
fn sequential_history(semantics: Semantics) -> impl Strategy<Value = HighHistory> {
    proptest::collection::vec((0usize..3, proptest::bool::ANY, 1u64..6), 1..12).prop_map(
        move |ops| {
            let spec = SequentialSpec {
                semantics,
                initial: 0,
            };
            let mut h = HighHistory::default();
            let mut state = 0;
            let mut time = 0;
            for (client, is_write, value) in ops {
                time += 2;
                if is_write {
                    state = spec.apply_write(state, value);
                    h.push_complete(
                        client,
                        HighOp::Write(value),
                        HighResponse::WriteAck,
                        time,
                        time + 1,
                    );
                } else {
                    h.push_complete(
                        client,
                        HighOp::Read,
                        HighResponse::ReadValue(state),
                        time,
                        time + 1,
                    );
                }
            }
            h
        },
    )
}

/// Linearizability by definition: some subset of the operations that holds
/// every complete one (pending writes may or may not take effect, pending
/// reads constrain nothing), in some order that respects real time, replays
/// against `spec` with every complete operation returning what it returned.
fn brute_force_linearizable(history: &HighHistory, spec: &SequentialSpec) -> bool {
    let ops: Vec<HighInterval> = history
        .ops()
        .iter()
        .filter(|o| o.is_complete() || o.op.is_write())
        .copied()
        .collect();
    let legal = |order: &[usize]| {
        let respects_real_time = order
            .iter()
            .enumerate()
            .all(|(a, &x)| order[a + 1..].iter().all(|&y| !ops[y].precedes(&ops[x])));
        let mut state = spec.initial;
        respects_real_time
            && order.iter().all(|&i| {
                let (next, expected) = spec.step(state, ops[i].op);
                state = next;
                ops[i]
                    .returned
                    .map_or(true, |(_, actual)| actual == expected)
            })
    };
    (0u32..1 << ops.len()).any(|mask| {
        let mut chosen: Vec<usize> = (0..ops.len()).filter(|&i| mask & (1 << i) != 0).collect();
        let holds_every_complete_op = (0..ops.len())
            .filter(|&i| ops[i].is_complete())
            .all(|i| chosen.contains(&i));
        holds_every_complete_op && any_permutation(&mut chosen, 0, &legal)
    })
}

/// Whether some permutation of `items[k..]` (after the fixed `items[..k]`)
/// satisfies `accept`.
fn any_permutation(items: &mut [usize], k: usize, accept: &impl Fn(&[usize]) -> bool) -> bool {
    if k == items.len() {
        return accept(items);
    }
    (k..items.len()).any(|i| {
        items.swap(k, i);
        let found = any_permutation(items, k + 1, accept);
        items.swap(k, i);
        found
    })
}

/// The quadratic WS checkers as they stood before the near-linear rewrite,
/// verbatim, with the `HighHistory` methods `is_write_sequential` and
/// `sequential_writes` inlined as they were so that the reference shares no
/// code with what it checks: the fast checkers must match it verdict for
/// verdict and message for message.
mod reference {
    use regemu_fpsm::history::HighInterval;
    use regemu_fpsm::Payload;
    use regemu_spec::{CheckResult, Condition, HighHistory, SequentialSpec, Violation};

    pub fn is_write_sequential(history: &HighHistory) -> bool {
        let writes = history.writes();
        for (i, a) in writes.iter().enumerate() {
            for b in writes.iter().skip(i + 1) {
                if a.concurrent_with(b) {
                    return false;
                }
            }
        }
        true
    }

    fn sequential_writes(history: &HighHistory) -> Vec<HighInterval> {
        let mut writes = history.writes();
        writes.sort_by_key(|w| match w.returned {
            Some((t, _)) => (0u8, t),
            None => (1u8, w.invoked_at),
        });
        writes
    }

    pub fn check(
        history: &HighHistory,
        spec: &SequentialSpec,
        condition: Condition,
    ) -> CheckResult {
        if !is_write_sequential(history) {
            // Both conditions only constrain write-sequential schedules.
            return Ok(());
        }
        let writes = sequential_writes(history);
        for read in history.complete_reads() {
            if condition == Condition::WsSafety && writes.iter().any(|w| w.concurrent_with(&read)) {
                // WS-Safety says nothing about reads concurrent with writes.
                continue;
            }
            let legal = legal_read_values(&writes, &read, spec);
            let returned = read
                .returned
                .and_then(|(_, r)| r.payload())
                .expect("complete read carries a payload");
            if !legal.contains(&returned) {
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

    pub fn legal_read_values(
        writes: &[HighInterval],
        read: &HighInterval,
        spec: &SequentialSpec,
    ) -> Vec<Payload> {
        let m = writes.len();
        // p: largest index (1-based) of a write that precedes the read.
        let p = writes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.precedes(read))
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0);
        // q: smallest index (1-based) of a write the read precedes.
        let q = writes
            .iter()
            .enumerate()
            .filter(|(_, w)| read.precedes(w))
            .map(|(i, _)| i + 1)
            .min()
            .unwrap_or(m + 1);

        let mut values = Vec::new();
        let payloads: Vec<Payload> = writes
            .iter()
            .map(|w| w.op.payload().expect("write carries a payload"))
            .collect();
        for j in p..q {
            values.push(spec.state_after(payloads.iter().take(j).copied()));
        }
        values.sort_unstable();
        values.dedup();
        values
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Atomicity implies WS-Regularity implies WS-Safety, on any schedule.
    #[test]
    fn condition_hierarchy_holds((history, spec) in arbitrary_history(8)) {
        let atomic = check_linearizable(&history, &spec).is_ok();
        let regular = check_ws_regular(&history, &spec).is_ok();
        let safe = check_ws_safe(&history, &spec).is_ok();
        if atomic {
            prop_assert!(regular, "atomic but not WS-Regular: {history:?} {spec:?}");
        }
        if regular {
            prop_assert!(safe, "WS-Regular but not WS-Safe: {history:?} {spec:?}");
        }
    }

    /// The linearizability search finds a linearization exactly when one
    /// exists.
    #[test]
    fn linearizability_matches_brute_force((history, spec) in arbitrary_history(8)) {
        prop_assert_eq!(
            check_linearizable(&history, &spec).is_ok(),
            brute_force_linearizable(&history, &spec),
            "{:?} {:?}",
            history,
            spec
        );
    }

    /// The WS checkers return the quadratic reference's result, violation
    /// message included.
    #[test]
    fn ws_checkers_match_the_quadratic_reference((history, spec) in arbitrary_history(8)) {
        prop_assert_eq!(history.is_write_sequential(), reference::is_write_sequential(&history));
        prop_assert_eq!(
            check_ws_regular(&history, &spec),
            reference::check(&history, &spec, Condition::WsRegularity)
        );
        prop_assert_eq!(
            check_ws_safe(&history, &spec),
            reference::check(&history, &spec, Condition::WsSafety)
        );
    }

    /// Sequential executions of the register specification pass every checker.
    #[test]
    fn sequential_register_histories_pass_everything(
        history in sequential_history(Semantics::LastWrite)
    ) {
        let spec = SequentialSpec::register();
        prop_assert!(check_linearizable(&history, &spec).is_ok());
        prop_assert!(check_ws_regular(&history, &spec).is_ok());
        prop_assert!(check_ws_safe(&history, &spec).is_ok());
    }

    /// Sequential executions of the max-register specification pass every
    /// checker under the max-register semantics (and are generally *not*
    /// linearizable under plain register semantics once a smaller value is
    /// written over a larger one — the two specifications are distinct).
    #[test]
    fn sequential_max_register_histories_pass_their_spec(
        history in sequential_history(Semantics::Max)
    ) {
        let spec = SequentialSpec::max_register();
        prop_assert!(check_linearizable(&history, &spec).is_ok());
        prop_assert!(check_ws_regular(&history, &spec).is_ok());
    }

    /// Corrupting the return value of a read in an otherwise sequential
    /// schedule is caught by the WS-Safety checker (and therefore by the
    /// stronger ones too) whenever the corrupted value is not legitimately
    /// readable.
    #[test]
    fn corrupted_reads_are_detected(
        history in sequential_history(Semantics::LastWrite),
        bogus in 100u64..200,
    ) {
        // Only meaningful if there is at least one complete read.
        let spec = SequentialSpec::register();
        let mut intervals = history.ops().to_vec();
        let Some(pos) = intervals.iter().position(|iv| iv.op.is_read()) else {
            return Ok(());
        };
        intervals[pos].returned = Some((
            intervals[pos].returned.unwrap().0,
            HighResponse::ReadValue(bogus),
        ));
        let corrupted = HighHistory::from_intervals(intervals);
        // `bogus` is far outside the written value domain (1..6), so no
        // linearization can explain it.
        prop_assert!(check_ws_safe(&corrupted, &spec).is_err());
        prop_assert!(check_ws_regular(&corrupted, &spec).is_err());
        prop_assert!(check_linearizable(&corrupted, &spec).is_err());
    }

    /// The WS checkers never reject a schedule with no reads: writes alone
    /// are always explainable.
    #[test]
    fn write_only_histories_are_always_accepted((history, spec) in arbitrary_history(8)) {
        let writes_only = HighHistory::from_intervals(
            history.ops().iter().copied().filter(|iv| iv.op.is_write()).collect(),
        );
        prop_assert!(check_ws_regular(&writes_only, &spec).is_ok());
        prop_assert!(check_ws_safe(&writes_only, &spec).is_ok());
        prop_assert!(check_linearizable(&writes_only, &spec).is_ok());
    }
}
