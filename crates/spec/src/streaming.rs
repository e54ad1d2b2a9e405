//! Online (streaming) consistency checking.
//!
//! The offline checkers in [`crate::regularity`] and
//! [`crate::linearizability`] need the complete high-level schedule of a run.
//! [`StreamingChecker`] verifies the same conditions while *consuming the
//! event stream as it is produced*, keeping only a bounded window of
//! operations alive — which is what makes checking possible under the
//! bounded-memory recording modes of `regemu-fpsm`
//! ([`regemu_fpsm::RecordingMode::Ring`]), where the full event log is never
//! retained.
//!
//! ## How the window stays bounded
//!
//! The checker maintains the set of *open* (invoked, not yet returned)
//! operations plus a window of completed operations that are still
//! concurrent with something open. As soon as a completed operation
//! precedes every operation still alive, it is **folded** into a committed
//! prefix:
//!
//! * for WS-Regularity / WS-Safety, folding a write advances the running
//!   sequential-specification state (reads are checked the moment they
//!   return, against the committed state plus the unfolded write window,
//!   and are then discarded);
//! * for atomicity, folding advances the *set* of abstract states reachable
//!   by a consistent linearization of the committed prefix — an op `x` that
//!   precedes every live operation must linearize before all of them, so
//!   the fold is forced and sound; an empty state set is a violation.
//!
//! The retained window is therefore proportional to the run's point
//! contention (plus operations of crashed clients, which stay pending
//! forever), not to the run length.
//!
//! ## Gaps
//!
//! Feeding the checker from a ring buffer can miss events when the window
//! is smaller than one burst of the simulation. The feeder reports this
//! with [`StreamingChecker::note_gap`]; the checker then stops (its state
//! can no longer be trusted) and the final [`StreamingOutcome`] is marked
//! incomplete. A violation detected *before* the gap is kept, but — like
//! everything under truncation — it is inconclusive: atomicity violations
//! are final, while a WS violation could still have been vacated by
//! concurrent writes in the unseen suffix (the WS conditions are vacuous
//! for schedules that are not write-sequential).
//!
//! ## Example
//!
//! ```
//! use regemu_spec::{Condition, SequentialSpec, StreamingChecker};
//! use regemu_fpsm::{ClientId, Event, HighOp, HighOpId, HighResponse};
//!
//! let mut checker = StreamingChecker::new(Condition::WsRegularity, SequentialSpec::register());
//! let events = [
//!     Event::Invoke { time: 1, client: ClientId::new(0), high_op: HighOpId::new(0),
//!                     op: HighOp::Write(7) },
//!     Event::Return { time: 2, client: ClientId::new(0), high_op: HighOpId::new(0),
//!                     response: HighResponse::WriteAck },
//!     Event::Invoke { time: 3, client: ClientId::new(1), high_op: HighOpId::new(1),
//!                     op: HighOp::Read },
//!     Event::Return { time: 4, client: ClientId::new(1), high_op: HighOpId::new(1),
//!                     response: HighResponse::ReadValue(7) },
//! ];
//! for event in &events {
//!     checker.observe(event);
//! }
//! let outcome = checker.into_outcome();
//! assert!(outcome.complete && outcome.violation.is_none());
//! ```

use crate::linearizability::linearizable_from;
use crate::report::{Condition, Violation};
use crate::sequential::SequentialSpec;
use regemu_fpsm::history::HighInterval;
use regemu_fpsm::{Event, HighOpId, Payload};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

/// The final verdict of a [`StreamingChecker`].
#[derive(Clone, Debug)]
pub struct StreamingOutcome {
    /// The first violation detected, if any.
    pub violation: Option<Violation>,
    /// `true` when the checker saw the whole stream (no gap was reported):
    /// only then is a `violation: None` outcome a real "consistent" verdict.
    pub complete: bool,
    /// High-water mark of live operations retained at once — the checker's
    /// peak memory, in operations.
    pub peak_window: usize,
    /// Number of completed operations checked and/or folded.
    pub checked_ops: u64,
}

impl StreamingOutcome {
    /// `true` when the whole stream was seen and no violation found.
    pub fn is_consistent(&self) -> bool {
        self.complete && self.violation.is_none()
    }
}

/// Per-condition incremental state.
enum Mode {
    /// WS-Safety / WS-Regularity: committed write-prefix state plus the
    /// unfolded completed writes (in return order).
    Ws {
        condition: Condition,
        folded_state: Payload,
        folded_writes: u64,
        /// Completed, unfolded writes in return-time order.
        writes: Vec<HighInterval>,
        /// Forever-pending writes of crashed clients
        /// ([`StreamingChecker::abandon`]): they stay in every read's legal
        /// window (the write may still take effect) and keep counting for
        /// write-concurrency, but no longer gate folding. Bounded by the
        /// number of crashed clients.
        abandoned_writes: Vec<HighInterval>,
        /// Set once two writes were observed concurrent: the schedule is not
        /// write-sequential and both conditions hold vacuously.
        broken: bool,
    },
    /// Atomicity: the set of abstract states reachable by a consistent
    /// linearization of the folded prefix, plus the unfolded window.
    ///
    /// Each state is paired with a bitmask over `abandoned` recording which
    /// of the forever-pending abandoned writes the linearization behind it
    /// has already consumed — an abandoned write may take effect at any
    /// point (or never), so folds explore every placement and the mask
    /// prevents a write from taking effect twice on the same branch.
    Atomic {
        states: BTreeSet<(u64, Payload)>,
        /// Unfolded live operations (open and completed), keyed by id.
        window: BTreeMap<HighOpId, HighInterval>,
        /// Forever-pending writes of crashed clients, in abandonment order
        /// (index = mask bit). Bounded by the number of crashed clients.
        abandoned: Vec<HighInterval>,
    },
}

/// An open high-level operation, with the bookkeeping WS-Safety needs.
struct OpenOp {
    interval: HighInterval,
    /// `true` when a write was open at any point of this operation's
    /// lifetime so far (only meaningful for reads).
    write_concurrent: bool,
}

/// An incremental checker consuming [`Event`]s as a run produces them.
///
/// Feed it every event in order (low-level and crash events are ignored, so
/// feeding a full mixed stream is fine); call
/// [`StreamingChecker::note_gap`] when events were lost; finish with
/// [`StreamingChecker::into_outcome`]. Verdicts agree with the offline
/// checkers ([`crate::check_ws_safe`], [`crate::check_ws_regular`],
/// [`crate::check_linearizable`]) whenever the stream was seen in full.
pub struct StreamingChecker {
    spec: SequentialSpec,
    mode: Mode,
    /// Open operations, keyed by id.
    open: BTreeMap<HighOpId, OpenOp>,
    /// Number of writes currently open (to detect write concurrency and to
    /// extend the legal-read window with pending writes).
    open_writes: usize,
    violation: Option<Violation>,
    truncated: bool,
    peak_window: usize,
    checked_ops: u64,
    /// Operation ids the verdict no longer depends on (folded writes,
    /// checked-and-discarded reads), collected only when
    /// [`StreamingChecker::set_track_retired`] enabled it.
    retired: Vec<HighOpId>,
    track_retired: bool,
}

impl StreamingChecker {
    /// Creates a checker for `condition` against `spec`.
    pub fn new(condition: Condition, spec: SequentialSpec) -> Self {
        let mode = match condition {
            Condition::WsSafety | Condition::WsRegularity => Mode::Ws {
                condition,
                folded_state: spec.initial,
                folded_writes: 0,
                writes: Vec::new(),
                abandoned_writes: Vec::new(),
                broken: false,
            },
            Condition::Atomicity => Mode::Atomic {
                states: BTreeSet::from([(0, spec.initial)]),
                window: BTreeMap::new(),
                abandoned: Vec::new(),
            },
        };
        StreamingChecker {
            spec,
            mode,
            open: BTreeMap::new(),
            open_writes: 0,
            violation: None,
            truncated: false,
            peak_window: 0,
            checked_ops: 0,
            retired: Vec::new(),
            track_retired: false,
        }
    }

    /// Records that part of the stream was lost (e.g. evicted from a ring
    /// buffer before it could be observed). Checking stops; the outcome
    /// will be marked incomplete.
    pub fn note_gap(&mut self) {
        self.truncated = true;
        // The window can no longer be interpreted; free it.
        self.open.clear();
        self.open_writes = 0;
        if let Mode::Atomic {
            window, abandoned, ..
        } = &mut self.mode
        {
            window.clear();
            abandoned.clear();
        }
        if let Mode::Ws {
            writes,
            abandoned_writes,
            ..
        } = &mut self.mode
        {
            writes.clear();
            abandoned_writes.clear();
        }
    }

    /// Number of operations currently retained (open + unfolded window +
    /// abandoned writes).
    pub(crate) fn window_len(&self) -> usize {
        match &self.mode {
            // Open ops are stored inside the atomic window itself.
            Mode::Atomic {
                window, abandoned, ..
            } => window.len() + abandoned.len(),
            Mode::Ws {
                writes,
                abandoned_writes,
                ..
            } => self.open.len() + writes.len() + abandoned_writes.len(),
        }
    }

    /// Enables (or disables) collection of *retired* operation ids —
    /// operations the verdict no longer depends on. Run engines drain them
    /// with [`StreamingChecker::take_retired`] to evict the matching
    /// intervals from the recording's digest, bounding its memory the same
    /// way the checker bounds its own window. Off by default so standalone
    /// checkers do not accumulate an unread list.
    pub fn set_track_retired(&mut self, on: bool) {
        self.track_retired = on;
        if !on {
            self.retired.clear();
        }
    }

    /// Drains the operation ids retired since the last call (empty unless
    /// [`StreamingChecker::set_track_retired`] enabled tracking).
    pub fn take_retired(&mut self) -> Vec<HighOpId> {
        std::mem::take(&mut self.retired)
    }

    fn retire(&mut self, id: HighOpId) {
        if self.track_retired {
            self.retired.push(id);
        }
    }

    /// Marks an open operation as *abandoned*: its client is known to have
    /// crashed, so the operation will never return. Abandoned operations
    /// stop gating the fold (they no longer pin later-overlapping
    /// operations in the window, which would otherwise grow with the run),
    /// while the verdict still accounts for them exactly as the offline
    /// checkers treat forever-pending operations: an abandoned *write* may
    /// take effect at any later point — it stays in every read's legal
    /// window (WS conditions), keeps counting for write concurrency, and
    /// may linearize anywhere (atomicity) — and an abandoned *read*
    /// constrains nothing and is dropped.
    ///
    /// Fed automatically from [`regemu_fpsm::Event::ClientCrash`] events;
    /// callers driving the checker directly may also signal it explicitly.
    /// Unknown or already-completed operations are ignored.
    pub(crate) fn abandon(&mut self, op: HighOpId) {
        let Some(open) = self.open.remove(&op) else {
            return;
        };
        let interval = open.interval;
        if interval.op.is_write() {
            self.open_writes = self.open_writes.saturating_sub(1);
        }
        match &mut self.mode {
            Mode::Ws {
                abandoned_writes,
                broken,
                ..
            } => {
                if interval.op.is_write() && !*broken {
                    abandoned_writes.push(interval);
                    abandoned_writes.sort_by_key(|iv| iv.invoked_at);
                }
            }
            Mode::Atomic {
                window, abandoned, ..
            } => {
                window.remove(&op);
                if interval.op.is_write() {
                    if abandoned.len() >= 64 {
                        // The mask tracking abandoned-write placements is 64
                        // bits wide; past that the checker degrades honestly
                        // instead of guessing.
                        self.note_gap();
                        return;
                    }
                    abandoned.push(interval);
                }
            }
        }
        // Releasing the gate may allow pending folds to complete now.
        if matches!(self.mode, Mode::Atomic { .. }) {
            self.fold_atomic();
        } else {
            self.fold_ws();
        }
    }

    /// Consumes one event. Only high-level events (`Invoke` / `Return`)
    /// affect the verdict; the rest are ignored, so the caller can feed the
    /// raw mixed stream of a simulation run unchanged, by reference or as
    /// the owned values `History::events` yields.
    pub fn observe(&mut self, event: impl Borrow<Event>) {
        // A linearizability violation is final (the failed fold is forced in
        // every linearization of any extension), but a WS violation is not:
        // a later pair of concurrent writes makes the whole schedule
        // non-write-sequential and the conditions vacuous, so WS mode must
        // keep observing to be able to vacate its verdict (see the
        // `broken` handling below).
        let verdict_is_final = matches!(self.mode, Mode::Atomic { .. });
        if self.truncated || (self.violation.is_some() && verdict_is_final) {
            return;
        }
        match *event.borrow() {
            Event::Invoke {
                time,
                client,
                high_op,
                op,
            } => {
                let interval = HighInterval {
                    id: high_op,
                    client,
                    op,
                    invoked_at: time,
                    returned: None,
                };
                // Abandoned writes are forever pending, so they stay
                // concurrent with everything that comes later — they count
                // as "a write is open" for concurrency purposes even though
                // they left the open map.
                let abandoned_write_open = match &self.mode {
                    Mode::Ws {
                        abandoned_writes, ..
                    } => !abandoned_writes.is_empty(),
                    Mode::Atomic { abandoned, .. } => !abandoned.is_empty(),
                };
                if op.is_write() {
                    if self.open_writes > 0 || abandoned_write_open {
                        // Two writes are concurrent: the schedule is not
                        // write-sequential, so the WS conditions hold
                        // vacuously — including for any read violation
                        // recorded earlier, which is hereby vacated
                        // (matching the offline checkers, which look at the
                        // final schedule).
                        let mut vacated = Vec::new();
                        if let Mode::Ws {
                            broken,
                            writes,
                            abandoned_writes,
                            ..
                        } = &mut self.mode
                        {
                            *broken = true;
                            vacated.extend(writes.drain(..).map(|w| w.id));
                            abandoned_writes.clear();
                            self.violation = None;
                        }
                        for id in vacated {
                            self.retire(id);
                        }
                    }
                    // Every open read is now concurrent with a write.
                    for o in self.open.values_mut() {
                        o.write_concurrent = true;
                    }
                    self.open_writes += 1;
                }
                let write_concurrent =
                    op.is_read() && (self.open_writes > 0 || abandoned_write_open);
                self.open.insert(
                    high_op,
                    OpenOp {
                        interval,
                        write_concurrent,
                    },
                );
                if let Mode::Atomic { window, .. } = &mut self.mode {
                    window.insert(high_op, interval);
                }
                self.bump_peak();
            }
            Event::Return {
                time,
                high_op,
                response,
                ..
            } => {
                let Some(open) = self.open.remove(&high_op) else {
                    return;
                };
                let mut interval = open.interval;
                interval.returned = Some((time, response));
                if interval.op.is_write() {
                    self.open_writes -= 1;
                }
                self.checked_ops += 1;
                match &mut self.mode {
                    Mode::Ws { .. } => {
                        self.complete_ws(interval, open.write_concurrent);
                    }
                    Mode::Atomic { window, .. } => {
                        if let Some(slot) = window.get_mut(&high_op) {
                            *slot = interval;
                        }
                        self.fold_atomic();
                    }
                }
            }
            Event::ClientCrash { client, .. } => {
                // The engine knows this client is dead: none of its open
                // operations will ever return, so stop letting them pin the
                // window (see [`StreamingChecker::abandon`]).
                let dead: Vec<HighOpId> = self
                    .open
                    .values()
                    .filter(|o| o.interval.client == client)
                    .map(|o| o.interval.id)
                    .collect();
                for op in dead {
                    self.abandon(op);
                }
            }
            Event::Trigger { .. } | Event::Respond { .. } | Event::ServerCrash { .. } => {}
        }
    }

    /// Finishes the stream and produces the verdict. For atomicity this runs
    /// one final linearization search over the remaining window (pending
    /// reads are dropped, pending writes may or may not have taken effect —
    /// exactly as [`crate::check_linearizable`] treats them).
    pub fn into_outcome(mut self) -> StreamingOutcome {
        if self.violation.is_none() && !self.truncated {
            if let Mode::Atomic {
                states,
                window,
                abandoned,
            } = &self.mode
            {
                let base: Vec<HighInterval> = window
                    .values()
                    .filter(|o| o.is_complete() || o.op.is_write())
                    .copied()
                    .collect();
                // Per branch, the abandoned writes that branch has not
                // consumed yet are still free to linearize anywhere in the
                // remaining window (or never) — hand them to the search as
                // ordinary pending writes.
                let ok = states.iter().any(|&(mask, s)| {
                    let mut ops = base.clone();
                    ops.extend(
                        abandoned
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) == 0)
                            .map(|(_, a)| *a),
                    );
                    linearizable_from(&ops, &self.spec, s)
                });
                if !ok {
                    self.violation = Some(Violation::new(
                        Condition::Atomicity,
                        None,
                        format!(
                            "no linearization of the {} windowed operations extends the \
                             committed prefix for the {:?} specification",
                            base.len() + abandoned.len(),
                            self.spec.semantics
                        ),
                    ));
                }
            }
        }
        StreamingOutcome {
            violation: self.violation,
            complete: !self.truncated,
            peak_window: self.peak_window,
            checked_ops: self.checked_ops,
        }
    }

    fn bump_peak(&mut self) {
        let len = self.window_len();
        if len > self.peak_window {
            self.peak_window = len;
        }
    }

    /// Handles a completed operation under the WS conditions: reads are
    /// checked immediately and discarded; writes join the window and the
    /// committed prefix is folded forward.
    fn complete_ws(&mut self, interval: HighInterval, write_concurrent: bool) {
        let spec = self.spec;
        let Mode::Ws {
            condition,
            folded_state,
            folded_writes,
            writes,
            abandoned_writes,
            broken,
        } = &mut self.mode
        else {
            unreachable!("complete_ws is only called in WS mode");
        };
        if *broken {
            // Not write-sequential: both conditions hold vacuously; nothing
            // about this operation is ever needed again.
            self.retire(interval.id);
            return;
        }
        if interval.op.is_write() {
            // Completions arrive in return-time order, so pushing keeps the
            // window sorted by return time — the write-sequential order.
            writes.push(interval);
        } else {
            // A read is checked the moment it returns and never retained.
            let checked = if self.violation.is_some() {
                // A violation is already recorded (first wins); the
                // bookkeeping still runs so a later concurrent write pair
                // can vacate it.
                false
            } else if *condition == Condition::WsSafety && write_concurrent {
                // WS-Safety says nothing about reads concurrent with writes.
                false
            } else {
                true
            };
            if checked {
                // The legal window: committed prefix (all folded writes
                // precede this read), then the unfolded completed writes in
                // return order, then the pending writes — the open ones
                // (at most one, or the schedule would be broken) and the
                // abandoned ones of crashed clients, which may still take
                // effect — ordered by invocation.
                let mut window: Vec<HighInterval> = writes.clone();
                let mut pending: Vec<HighInterval> = self
                    .open
                    .values()
                    .map(|o| o.interval)
                    .filter(|iv| iv.op.is_write())
                    .chain(abandoned_writes.iter().copied())
                    .collect();
                pending.sort_by_key(|iv| iv.invoked_at);
                window.extend(pending);
                // Writes preceding the read form a prefix of the window (the
                // window is in return order and precedence compares return to
                // invocation times).
                let p = window.iter().filter(|w| w.precedes(&interval)).count();
                let returned = interval
                    .returned
                    .and_then(|(_, r)| r.payload())
                    .expect("complete read carries a payload");
                let mut legal: Vec<Payload> = Vec::new();
                let mut state = *folded_state;
                if p == 0 {
                    legal.push(state);
                }
                for (j, w) in window.iter().enumerate() {
                    state =
                        spec.apply_write(state, w.op.payload().expect("write carries a payload"));
                    if j + 1 >= p {
                        legal.push(state);
                    }
                }
                legal.sort_unstable();
                legal.dedup();
                if !legal.contains(&returned) {
                    self.violation = Some(Violation::new(
                        *condition,
                        Some(interval),
                        format!(
                            "read returned {returned} but only {legal:?} are allowed by the \
                             write-sequential order (online, {folded_writes} writes folded)"
                        ),
                    ));
                    self.retire(interval.id);
                    return;
                }
            }
            self.retire(interval.id);
        }
        self.fold_ws();
    }

    /// Folds every window write that precedes all still-open operations: it
    /// precedes every future operation too, so its position in the
    /// write-sequential order is settled. Abandoned operations do not gate
    /// the fold — they never return, so without [`StreamingChecker::abandon`]
    /// they would pin every later-overlapping write in the window forever.
    fn fold_ws(&mut self) {
        let spec = self.spec;
        let Mode::Ws {
            folded_state,
            folded_writes,
            writes,
            broken,
            ..
        } = &mut self.mode
        else {
            return;
        };
        let mut retired = Vec::new();
        if !*broken {
            let mut folded = 0;
            for w in writes.iter() {
                let settled = self.open.values().all(|o| w.precedes(&o.interval));
                if !settled {
                    break;
                }
                *folded_state = spec.apply_write(
                    *folded_state,
                    w.op.payload().expect("write carries a payload"),
                );
                *folded_writes += 1;
                folded += 1;
            }
            retired.extend(writes.drain(..folded).map(|w| w.id));
        }
        for id in retired {
            self.retire(id);
        }
        self.bump_peak();
    }

    /// Folds every atomic-window operation that precedes all other live
    /// operations. The fold order is forced (only the earliest-returning
    /// completed operation can qualify), so the state set evolves
    /// deterministically; an empty set is a violation.
    ///
    /// Abandoned writes may linearize at any point after their invocation,
    /// so before a candidate is applied the state set is closed under
    /// "some not-yet-consumed abandoned writes take effect first"; the mask
    /// paired with each state records which ones a branch consumed.
    fn fold_atomic(&mut self) {
        let spec = self.spec;
        let Mode::Atomic {
            states,
            window,
            abandoned,
        } = &mut self.mode
        else {
            unreachable!("fold_atomic is only called in atomic mode");
        };
        let mut retired = Vec::new();
        loop {
            // Only the completed op with the earliest return time can
            // precede every other op in the window. Abandoned operations
            // left the window, so they no longer block the fold.
            let Some(candidate) = window
                .values()
                .filter(|o| o.is_complete())
                .min_by_key(|o| o.returned.expect("filtered to complete ops").0)
                .copied()
            else {
                break;
            };
            let settled = window
                .values()
                .all(|o| o.id == candidate.id || candidate.precedes(o));
            if !settled {
                break;
            }
            let (returned_at, actual) = candidate.returned.expect("candidate is complete");
            // Close the state set under abandoned writes that may take
            // effect before the candidate (anything invoked before the
            // candidate's return); the mask consumes a write per branch.
            let mut closed = states.clone();
            let mut frontier: Vec<(u64, Payload)> = closed.iter().copied().collect();
            while let Some((mask, s)) = frontier.pop() {
                for (i, a) in abandoned.iter().enumerate() {
                    if mask & (1 << i) != 0 || a.invoked_at >= returned_at {
                        continue;
                    }
                    let s2 = spec.apply_write(s, a.op.payload().expect("write carries a payload"));
                    let entry = (mask | (1 << i), s2);
                    if closed.insert(entry) {
                        frontier.push(entry);
                    }
                }
            }
            let next: BTreeSet<(u64, Payload)> = closed
                .iter()
                .filter_map(|&(mask, s)| {
                    let (s2, expected) = spec.step(s, candidate.op);
                    (expected == actual).then_some((mask, s2))
                })
                .collect();
            if next.is_empty() {
                self.violation = Some(Violation::new(
                    Condition::Atomicity,
                    Some(candidate),
                    format!(
                        "operation {} returned {actual} but no reachable state of the \
                         committed prefix allows it",
                        candidate.op
                    ),
                ));
                return;
            }
            *states = next;
            window.remove(&candidate.id);
            retired.push(candidate.id);
        }
        for id in retired {
            self.retire(id);
        }
        self.bump_peak();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HighHistory;
    use crate::{check_linearizable, check_ws_regular, check_ws_safe};
    use regemu_fpsm::{ClientId, HighOp, HighResponse, Time};

    /// Renders a schedule of intervals as the equivalent time-ordered event
    /// stream and feeds it to a fresh checker.
    fn stream(condition: Condition, spec: SequentialSpec, h: &HighHistory) -> StreamingChecker {
        #[derive(Clone, Copy)]
        enum Point {
            Invoke(usize),
            Return(usize),
        }
        let mut points: Vec<(Time, u8, Point)> = Vec::new();
        for (i, iv) in h.ops().iter().enumerate() {
            // At equal times, invokes sort before returns: `precedes` is
            // strict, so a return at t and an invoke at t are concurrent.
            points.push((iv.invoked_at, 0, Point::Invoke(i)));
            if let Some((t, _)) = iv.returned {
                points.push((t, 1, Point::Return(i)));
            }
        }
        points.sort_by_key(|&(t, kind, _)| (t, kind));
        let mut checker = StreamingChecker::new(condition, spec);
        for (_, _, p) in points {
            match p {
                Point::Invoke(i) => {
                    let iv = h.ops()[i];
                    checker.observe(Event::Invoke {
                        time: iv.invoked_at,
                        client: iv.client,
                        high_op: HighOpId::new(i as u64),
                        op: iv.op,
                    });
                }
                Point::Return(i) => {
                    let iv = h.ops()[i];
                    let (t, response) = iv.returned.unwrap();
                    checker.observe(Event::Return {
                        time: t,
                        client: iv.client,
                        high_op: HighOpId::new(i as u64),
                        response,
                    });
                }
            }
        }
        checker
    }

    fn agree(condition: Condition, spec: SequentialSpec, h: &HighHistory) {
        let offline = match condition {
            Condition::WsSafety => check_ws_safe(h, &spec).is_ok(),
            Condition::WsRegularity => check_ws_regular(h, &spec).is_ok(),
            Condition::Atomicity => check_linearizable(h, &spec).is_ok(),
        };
        let outcome = stream(condition, spec, h).into_outcome();
        assert!(outcome.complete);
        assert_eq!(
            outcome.violation.is_none(),
            offline,
            "{condition} disagreed online vs offline: {:?}",
            outcome.violation
        );
    }

    fn register() -> SequentialSpec {
        SequentialSpec::register()
    }

    #[test]
    fn agrees_with_offline_on_sequential_histories() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 2, 3);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 4, 5);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(2), 6, 7);
        for c in [
            Condition::WsSafety,
            Condition::WsRegularity,
            Condition::Atomicity,
        ] {
            agree(c, register(), &h);
        }

        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        bad.push_complete(1, HighOp::Read, HighResponse::ReadValue(0), 2, 3);
        for c in [
            Condition::WsSafety,
            Condition::WsRegularity,
            Condition::Atomicity,
        ] {
            agree(c, register(), &bad);
        }
    }

    #[test]
    fn concurrent_read_window_matches_offline() {
        // Read overlapping the write of 2 may return 1 or 2, nothing else.
        for ret in [1u64, 2, 7] {
            let mut h = HighHistory::default();
            h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
            h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 10);
            h.push_complete(1, HighOp::Read, HighResponse::ReadValue(ret), 3, 4);
            agree(Condition::WsRegularity, register(), &h);
            agree(Condition::WsSafety, register(), &h);
        }
    }

    #[test]
    fn new_old_inversion_is_regular_but_not_atomic_online() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 20);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(2), 3, 4);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 5, 6);
        agree(Condition::WsRegularity, register(), &h);
        agree(Condition::Atomicity, register(), &h);
        let outcome = stream(Condition::Atomicity, register(), &h).into_outcome();
        assert!(outcome.violation.is_some());
    }

    #[test]
    fn non_write_sequential_schedules_are_vacuously_ok_online() {
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 5);
        h.push_complete(1, HighOp::Write(2), HighResponse::WriteAck, 2, 7);
        h.push_complete(2, HighOp::Read, HighResponse::ReadValue(99), 3, 4);
        agree(Condition::WsRegularity, register(), &h);
        agree(Condition::WsSafety, register(), &h);
    }

    #[test]
    fn pending_writes_extend_the_legal_window_online() {
        for (ret, ok) in [(1u64, true), (2, true), (0, false)] {
            let mut h = HighHistory::default();
            h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
            h.push_pending(1, HighOp::Write(2), 2);
            h.push_complete(2, HighOp::Read, HighResponse::ReadValue(ret), 3, 4);
            agree(Condition::WsRegularity, register(), &h);
            let outcome = stream(Condition::WsRegularity, register(), &h).into_outcome();
            assert_eq!(outcome.violation.is_none(), ok, "read of {ret}");
        }
    }

    #[test]
    fn pending_writes_may_or_may_not_take_effect_atomically() {
        let mut h = HighHistory::default();
        h.push_pending(0, HighOp::Write(5), 0);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(5), 1, 2);
        agree(Condition::Atomicity, register(), &h);
        let mut h2 = HighHistory::default();
        h2.push_pending(0, HighOp::Write(5), 0);
        h2.push_complete(1, HighOp::Read, HighResponse::ReadValue(0), 1, 2);
        agree(Condition::Atomicity, register(), &h2);
    }

    #[test]
    fn max_register_semantics_fold_correctly() {
        let spec = SequentialSpec::max_register();
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(5), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Write(3), HighResponse::WriteAck, 2, 3);
        h.push_complete(2, HighOp::Read, HighResponse::ReadValue(5), 4, 5);
        agree(Condition::WsRegularity, spec, &h);
        agree(Condition::Atomicity, spec, &h);
        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Write(5), HighResponse::WriteAck, 0, 1);
        bad.push_complete(1, HighOp::Write(3), HighResponse::WriteAck, 2, 3);
        bad.push_complete(2, HighOp::Read, HighResponse::ReadValue(3), 4, 5);
        agree(Condition::WsRegularity, spec, &bad);
        agree(Condition::Atomicity, spec, &bad);
    }

    #[test]
    fn folding_keeps_the_window_bounded_on_long_sequential_streams() {
        let spec = register();
        let mut checker = StreamingChecker::new(Condition::WsRegularity, spec);
        let mut atomic = StreamingChecker::new(Condition::Atomicity, spec);
        let mut t = 0u64;
        for i in 0..10_000u64 {
            let invoke = Event::Invoke {
                time: t,
                client: ClientId::new(0),
                high_op: HighOpId::new(i),
                op: HighOp::Write(i + 1),
            };
            let ret = Event::Return {
                time: t + 1,
                client: ClientId::new(0),
                high_op: HighOpId::new(i),
                response: HighResponse::WriteAck,
            };
            t += 2;
            checker.observe(invoke);
            checker.observe(ret);
            atomic.observe(invoke);
            atomic.observe(ret);
        }
        // Sequential stream: everything folds as it completes.
        assert!(checker.window_len() <= 1);
        assert!(atomic.window_len() <= 1);
        let o = checker.into_outcome();
        assert!(o.is_consistent());
        assert!(o.peak_window <= 2, "peak window was {}", o.peak_window);
        assert_eq!(o.checked_ops, 10_000);
        let o = atomic.into_outcome();
        assert!(o.is_consistent());
        assert!(o.peak_window <= 2);
    }

    #[test]
    fn later_concurrent_writes_vacate_an_earlier_ws_read_violation() {
        // The read of 9 is illegal against the write-sequential order seen
        // at its return — but the two concurrent writes afterwards make the
        // final schedule non-write-sequential, so the offline checkers are
        // vacuously satisfied and the online verdict must agree.
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(9), 2, 3);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 4, 10);
        h.push_complete(2, HighOp::Write(3), HighResponse::WriteAck, 5, 6);
        assert!(check_ws_regular(&h, &register()).is_ok());
        assert!(check_ws_safe(&h, &register()).is_ok());
        for c in [Condition::WsRegularity, Condition::WsSafety] {
            agree(c, register(), &h);
            let outcome = stream(c, register(), &h).into_outcome();
            assert!(outcome.is_consistent(), "{c}: {:?}", outcome.violation);
        }
        // Without the trailing writes the violation stands, and a second bad
        // read does not displace the first recorded one.
        let mut bad = HighHistory::default();
        bad.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        bad.push_complete(1, HighOp::Read, HighResponse::ReadValue(9), 2, 3);
        bad.push_complete(1, HighOp::Read, HighResponse::ReadValue(8), 4, 5);
        agree(Condition::WsRegularity, register(), &bad);
        let outcome = stream(Condition::WsRegularity, register(), &bad).into_outcome();
        let violation = outcome.violation.expect("first bad read is reported");
        assert!(violation.explanation.contains("read returned 9"));
    }

    #[test]
    fn abandoned_reads_stop_pinning_the_fold_window() {
        // A crashed reader's pending read would otherwise pin every
        // later-overlapping write in the window forever.
        let spec = register();
        for condition in [Condition::WsRegularity, Condition::Atomicity] {
            let mut checker = StreamingChecker::new(condition, spec);
            checker.observe(Event::Invoke {
                time: 1,
                client: ClientId::new(9),
                high_op: HighOpId::new(0),
                op: HighOp::Read,
            });
            let mut t = 2;
            let feed_writes = |checker: &mut StreamingChecker, t: &mut Time, base: u64| {
                for i in 0..100u64 {
                    checker.observe(Event::Invoke {
                        time: *t,
                        client: ClientId::new(0),
                        high_op: HighOpId::new(base + i),
                        op: HighOp::Write(base + i),
                    });
                    checker.observe(Event::Return {
                        time: *t + 1,
                        client: ClientId::new(0),
                        high_op: HighOpId::new(base + i),
                        response: HighResponse::WriteAck,
                    });
                    *t += 2;
                }
            };
            feed_writes(&mut checker, &mut t, 1);
            assert!(
                checker.window_len() > 100,
                "{condition}: the pending read pins the window"
            );
            // The engine learns the client crashed: the window drains.
            checker.observe(Event::ClientCrash {
                time: t,
                client: ClientId::new(9),
            });
            assert!(
                checker.window_len() <= 2,
                "{condition}: window still {} after abandon",
                checker.window_len()
            );
            feed_writes(&mut checker, &mut t, 1000);
            assert!(
                checker.window_len() <= 2,
                "{condition}: abandoned read pins the window again"
            );
            let outcome = checker.into_outcome();
            assert!(
                outcome.is_consistent(),
                "{condition}: {:?}",
                outcome.violation
            );
        }
    }

    #[test]
    fn abandoned_writes_keep_extending_the_legal_window() {
        // Crashed writer with a pending write of 2: a later read may return
        // 1 (write never took effect) or 2 (it did) but nothing else —
        // exactly the offline verdict on the final schedule.
        for (ret, ok) in [(1u64, true), (2, true), (7, false)] {
            let mut h = HighHistory::default();
            h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
            h.push_pending(1, HighOp::Write(2), 2);
            h.push_complete(2, HighOp::Read, HighResponse::ReadValue(ret), 4, 5);
            let offline = check_ws_regular(&h, &register()).is_ok();
            assert_eq!(offline, ok);

            let mut checker = StreamingChecker::new(Condition::WsRegularity, register());
            let events = [
                Event::Invoke {
                    time: 0,
                    client: ClientId::new(0),
                    high_op: HighOpId::new(0),
                    op: HighOp::Write(1),
                },
                Event::Return {
                    time: 1,
                    client: ClientId::new(0),
                    high_op: HighOpId::new(0),
                    response: HighResponse::WriteAck,
                },
                Event::Invoke {
                    time: 2,
                    client: ClientId::new(1),
                    high_op: HighOpId::new(1),
                    op: HighOp::Write(2),
                },
                // The writer crashes; its write is abandoned but may still
                // take effect.
                Event::ClientCrash {
                    time: 3,
                    client: ClientId::new(1),
                },
                Event::Invoke {
                    time: 4,
                    client: ClientId::new(2),
                    high_op: HighOpId::new(2),
                    op: HighOp::Read,
                },
                Event::Return {
                    time: 5,
                    client: ClientId::new(2),
                    high_op: HighOpId::new(2),
                    response: HighResponse::ReadValue(ret),
                },
            ];
            for e in &events {
                checker.observe(e);
            }
            let outcome = checker.into_outcome();
            assert!(outcome.complete);
            assert_eq!(outcome.violation.is_none(), ok, "read of {ret}");
        }
    }

    #[test]
    fn writes_after_an_abandoned_write_break_write_sequentiality() {
        // Offline, a forever-pending write is concurrent with every later
        // write, so the WS conditions hold vacuously from then on — the
        // online verdict must agree even though the abandoned write left
        // the open map.
        let mut checker = StreamingChecker::new(Condition::WsRegularity, register());
        checker.observe(Event::Invoke {
            time: 0,
            client: ClientId::new(0),
            high_op: HighOpId::new(0),
            op: HighOp::Write(1),
        });
        checker.observe(Event::ClientCrash {
            time: 1,
            client: ClientId::new(0),
        });
        checker.observe(Event::Invoke {
            time: 2,
            client: ClientId::new(1),
            high_op: HighOpId::new(1),
            op: HighOp::Write(2),
        });
        checker.observe(Event::Return {
            time: 3,
            client: ClientId::new(1),
            high_op: HighOpId::new(1),
            response: HighResponse::WriteAck,
        });
        // Any read value is fine now: not write-sequential.
        checker.observe(Event::Invoke {
            time: 4,
            client: ClientId::new(2),
            high_op: HighOpId::new(2),
            op: HighOp::Read,
        });
        checker.observe(Event::Return {
            time: 5,
            client: ClientId::new(2),
            high_op: HighOpId::new(2),
            response: HighResponse::ReadValue(42),
        });
        let outcome = checker.into_outcome();
        assert!(outcome.is_consistent(), "{:?}", outcome.violation);
    }

    #[test]
    fn abandoned_writes_may_linearize_anywhere_atomically() {
        let spec = register();
        // Committed prefix is 0; the crashed writer's write of 5 may take
        // effect between the two reads — read 0 then read 5 is atomic.
        let feed = |values: [u64; 2]| {
            let mut checker = StreamingChecker::new(Condition::Atomicity, spec);
            checker.observe(Event::Invoke {
                time: 0,
                client: ClientId::new(0),
                high_op: HighOpId::new(0),
                op: HighOp::Write(5),
            });
            checker.observe(Event::ClientCrash {
                time: 1,
                client: ClientId::new(0),
            });
            for (i, v) in values.into_iter().enumerate() {
                let id = HighOpId::new(1 + i as u64);
                checker.observe(Event::Invoke {
                    time: 2 + 2 * i as Time,
                    client: ClientId::new(1),
                    high_op: id,
                    op: HighOp::Read,
                });
                checker.observe(Event::Return {
                    time: 3 + 2 * i as Time,
                    client: ClientId::new(1),
                    high_op: id,
                    response: HighResponse::ReadValue(v),
                });
            }
            checker.into_outcome()
        };
        assert!(feed([0, 5]).is_consistent());
        assert!(feed([5, 5]).is_consistent());
        assert!(feed([0, 0]).is_consistent());
        // New-old inversion against the abandoned write is still caught.
        let inverted = feed([5, 0]);
        assert!(inverted.complete);
        assert!(inverted.violation.is_some());
        // A value nobody wrote is still caught.
        let wild = feed([0, 7]);
        assert!(wild.violation.is_some());
    }

    #[test]
    fn retired_ops_are_tracked_only_on_request() {
        let spec = register();
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(1), 2, 3);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 4, 5);
        // Untracked by default.
        let mut untracked = stream(Condition::WsRegularity, spec, &h);
        assert!(untracked.take_retired().is_empty());
        // Tracked: the first write folds once the read invoked after it
        // returns, and every checked read retires immediately.
        let mut checker = StreamingChecker::new(Condition::WsRegularity, spec);
        checker.set_track_retired(true);
        let events = [
            Event::Invoke {
                time: 0,
                client: ClientId::new(0),
                high_op: HighOpId::new(0),
                op: HighOp::Write(1),
            },
            Event::Return {
                time: 1,
                client: ClientId::new(0),
                high_op: HighOpId::new(0),
                response: HighResponse::WriteAck,
            },
            Event::Invoke {
                time: 2,
                client: ClientId::new(1),
                high_op: HighOpId::new(1),
                op: HighOp::Read,
            },
            Event::Return {
                time: 3,
                client: ClientId::new(1),
                high_op: HighOpId::new(1),
                response: HighResponse::ReadValue(1),
            },
        ];
        for e in &events {
            checker.observe(e);
        }
        let retired = checker.take_retired();
        assert!(retired.contains(&HighOpId::new(0)), "{retired:?}");
        assert!(retired.contains(&HighOpId::new(1)), "{retired:?}");
        assert!(checker.take_retired().is_empty(), "drained");
        assert!(checker.into_outcome().is_consistent());
    }

    #[test]
    fn gaps_make_the_outcome_incomplete_but_keep_prior_violations() {
        let spec = register();
        let mut checker = StreamingChecker::new(Condition::WsRegularity, spec);
        checker.note_gap();
        assert!(checker.truncated);
        let outcome = checker.into_outcome();
        assert!(!outcome.complete);
        assert!(!outcome.is_consistent());
        assert!(outcome.violation.is_none());

        // A violation observed before the gap survives it.
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(9), 2, 3);
        let mut checker = stream(Condition::WsRegularity, spec, &h);
        assert!(checker.violation.is_some());
        checker.note_gap();
        let outcome = checker.into_outcome();
        assert!(outcome.violation.is_some());
        assert!(!outcome.complete);
    }

    #[test]
    fn ws_safety_skips_reads_concurrent_with_writes_online() {
        // Offline reference case from the regularity tests: a wild read
        // concurrent with a write violates regularity but not safety.
        let mut h = HighHistory::default();
        h.push_complete(0, HighOp::Write(1), HighResponse::WriteAck, 0, 1);
        h.push_complete(0, HighOp::Write(2), HighResponse::WriteAck, 2, 10);
        h.push_complete(1, HighOp::Read, HighResponse::ReadValue(7), 3, 4);
        agree(Condition::WsRegularity, register(), &h);
        agree(Condition::WsSafety, register(), &h);
        let ws = stream(Condition::WsSafety, register(), &h).into_outcome();
        assert!(ws.violation.is_none());
        let reg = stream(Condition::WsRegularity, register(), &h).into_outcome();
        assert!(reg.violation.is_some());
    }
}
