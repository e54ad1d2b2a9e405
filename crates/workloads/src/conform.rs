//! Conformance logs: live-run histories the simulator's checkers can replay.
//!
//! A live `regemu-serve` deployment records what the simulator records: each
//! client process appends an `invoke`/`return` record per high-level
//! operation, each server node appends a `respond` record per applied
//! low-level operation. The records carry *stamps* drawn from a process-wide
//! Lamport clock ([`ConformRecorder`]): within a process the stamps are exact
//! real-time order; across processes they are made comparable by folding
//! server clocks into the client clock and by seeding a later invocation's
//! clock from an earlier log (`serve client --clock-from`).
//!
//! [`merge_logs`] orders the client records of any number of logs into one
//! [`HighHistory`], and [`check_history`] replays it through both the offline
//! checkers and the [`StreamingChecker`], asserting that the two agree — the
//! same verdict surface a simulated run gets.
//!
//! The on-disk format is a line-oriented text file (`regemu-conform v1`),
//! parsed with line-numbered errors and never a panic, exactly like the
//! `regemu-trace v1` format.

use crate::campaign::CampaignError;
use crate::runner::ConsistencyCheck;
use crate::text::Reader;
use regemu_fpsm::event::Event;
use regemu_fpsm::{HighOp, HighResponse, Time};
use regemu_spec::{HighHistory, SequentialSpec, StreamingChecker, Violation};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Header line of the conformance-log text format.
pub const CONFORM_HEADER: &str = "regemu-conform v1";

/// The class of a low-level operation, as recorded by server nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LowOpKind {
    /// A register read.
    Read,
    /// A register write.
    Write,
    /// A max-register read.
    ReadMax,
    /// A max-register write.
    WriteMax,
    /// A compare-and-swap.
    Cas,
}

impl LowOpKind {
    /// Stable name used in log files.
    pub(crate) fn name(self) -> &'static str {
        match self {
            LowOpKind::Read => "read",
            LowOpKind::Write => "write",
            LowOpKind::ReadMax => "read-max",
            LowOpKind::WriteMax => "write-max",
            LowOpKind::Cas => "cas",
        }
    }

    /// The inverse of [`LowOpKind::name`].
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        match name {
            "read" => Some(LowOpKind::Read),
            "write" => Some(LowOpKind::Write),
            "read-max" => Some(LowOpKind::ReadMax),
            "write-max" => Some(LowOpKind::WriteMax),
            "cas" => Some(LowOpKind::Cas),
            _ => None,
        }
    }

    /// Classifies a low-level operation.
    pub fn of(op: &regemu_fpsm::BaseOp) -> Self {
        match op {
            regemu_fpsm::BaseOp::Read => LowOpKind::Read,
            regemu_fpsm::BaseOp::Write(_) => LowOpKind::Write,
            regemu_fpsm::BaseOp::ReadMax => LowOpKind::ReadMax,
            regemu_fpsm::BaseOp::WriteMax(_) => LowOpKind::WriteMax,
            regemu_fpsm::BaseOp::Cas { .. } => LowOpKind::Cas,
        }
    }
}

/// One record of a conformance log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConformRecord {
    /// A client invoked high-level operation `high` at Lamport stamp `stamp`.
    Invoke {
        /// Lamport stamp of the invocation.
        stamp: u64,
        /// Process-local client index.
        client: usize,
        /// Process-local high-level operation id.
        high: u64,
        /// The operation.
        op: HighOp,
    },
    /// A client's high-level operation `high` returned at stamp `stamp`.
    Return {
        /// Lamport stamp of the return.
        stamp: u64,
        /// Process-local client index.
        client: usize,
        /// Process-local high-level operation id.
        high: u64,
        /// The response.
        response: HighResponse,
    },
    /// A server applied (linearized) a low-level operation.
    Respond {
        /// The server's logical clock after applying it.
        clock: u64,
        /// The server's index.
        server: usize,
        /// Global id of the base object.
        object: usize,
        /// The class of the applied operation.
        kind: LowOpKind,
    },
}

impl ConformRecord {
    /// Renders the record as one log line (no trailing newline).
    ///
    /// Live servers append records to their log file one line at a time so a
    /// killed process still leaves a parseable (incomplete) log.
    pub fn to_line(self) -> String {
        match self {
            ConformRecord::Invoke {
                stamp,
                client,
                high,
                op,
            } => match op {
                HighOp::Write(v) => format!("invoke {stamp} {client} {high} write {v}"),
                HighOp::Read => format!("invoke {stamp} {client} {high} read"),
            },
            ConformRecord::Return {
                stamp,
                client,
                high,
                response,
            } => match response {
                HighResponse::WriteAck => format!("return {stamp} {client} {high} ack"),
                HighResponse::ReadValue(v) => format!("return {stamp} {client} {high} value {v}"),
            },
            ConformRecord::Respond {
                clock,
                server,
                object,
                kind,
            } => format!("respond {clock} {server} {object} {}", kind.name()),
        }
    }
}

/// A parsed conformance log: the records of one process, in append order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConformLog {
    /// The records, in file order.
    pub records: Vec<ConformRecord>,
    /// The recording process's final Lamport clock (`clock` line), when the
    /// log was closed cleanly.
    pub final_clock: u64,
    /// `true` when the terminating `end` line was present. A killed process
    /// leaves a truncated-but-parseable log with `complete == false`.
    pub complete: bool,
}

impl ConformLog {
    /// Parses the text format. Errors are line-numbered; parsing never
    /// panics. A log without a trailing `end` parses with
    /// [`ConformLog::complete`]` == false`.
    pub(crate) fn from_text(text: &str) -> Result<ConformLog, String> {
        let mut r = Reader::new(text, "log");
        r.header(&[CONFORM_HEADER])?;
        let mut log = ConformLog::default();
        while let Some(mut line) = r.next_nonblank() {
            if log.complete {
                return Err(line.err("content after `end`"));
            }
            match line.key {
                "end" => log.complete = true,
                "clock" => log.final_clock = line.parse("clock value")?,
                "invoke" => log.records.push(ConformRecord::Invoke {
                    stamp: line.parse("stamp")?,
                    client: line.parse("client")?,
                    high: line.parse("high-op id")?,
                    op: match line.word("operation")? {
                        "write" => HighOp::Write(line.parse("write payload")?),
                        "read" => HighOp::Read,
                        other => return Err(line.err(format_args!("unknown operation `{other}`"))),
                    },
                }),
                "return" => log.records.push(ConformRecord::Return {
                    stamp: line.parse("stamp")?,
                    client: line.parse("client")?,
                    high: line.parse("high-op id")?,
                    response: match line.word("response")? {
                        "ack" => HighResponse::WriteAck,
                        "value" => HighResponse::ReadValue(line.parse("read payload")?),
                        other => return Err(line.err(format_args!("unknown response `{other}`"))),
                    },
                }),
                "respond" => log.records.push(ConformRecord::Respond {
                    clock: line.parse("clock")?,
                    server: line.parse("server")?,
                    object: line.parse("object")?,
                    kind: line.named("op kind", LowOpKind::from_name)?,
                }),
                other => return Err(line.err(format_args!("unknown record `{other}`"))),
            }
            line.done()?;
        }
        // A log without an explicit clock line still has a usable clock: the
        // largest stamp it contains.
        let max_stamp = log
            .records
            .iter()
            .map(|r| match r {
                ConformRecord::Invoke { stamp, .. } | ConformRecord::Return { stamp, .. } => *stamp,
                ConformRecord::Respond { clock, .. } => *clock,
            })
            .max()
            .unwrap_or(0);
        log.final_clock = log.final_clock.max(max_stamp);
        Ok(log)
    }

    /// Reads and parses a log file.
    pub fn load(path: &Path) -> Result<ConformLog, CampaignError> {
        let text = std::fs::read_to_string(path)?;
        ConformLog::from_text(&text).map_err(|reason| crate::engine::malformed(path, reason))
    }

    /// Renders the log in the text format.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CONFORM_HEADER);
        out.push('\n');
        out.push_str(&format!("clock {}\n", self.final_clock));
        for record in &self.records {
            out.push_str(&record.to_line());
            out.push('\n');
        }
        if self.complete {
            out.push_str("end\n");
        }
        out
    }
}

/// Thread-safe Lamport clock plus record sink shared by every client thread
/// of one live process.
///
/// Stamps are unique and monotone within the process; [`ConformRecorder::observe`]
/// folds clocks received from servers in, so a stamp taken after a response
/// is greater than the server's clock at the respond step.
#[derive(Debug, Default)]
pub struct ConformRecorder {
    clock: AtomicU64,
    records: Mutex<Vec<ConformRecord>>,
}

impl ConformRecorder {
    /// A recorder whose clock starts at 0.
    pub fn new() -> Self {
        ConformRecorder::default()
    }

    /// A recorder whose clock starts above `clock` — typically the
    /// `final_clock` of an earlier invocation's log, so this process's stamps
    /// order after that log's.
    pub fn starting_at(clock: u64) -> Self {
        ConformRecorder {
            clock: AtomicU64::new(clock),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Draws the next stamp (strictly increasing).
    pub(crate) fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Folds a clock value observed from another process into this clock.
    pub fn observe(&self, clock: u64) {
        self.clock.fetch_max(clock, Ordering::SeqCst);
    }

    /// The current clock value.
    pub(crate) fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Records an invocation and returns its stamp.
    pub fn record_invoke(&self, client: usize, high: u64, op: HighOp) -> u64 {
        let stamp = self.stamp();
        self.records
            .lock()
            .expect("conform recorder poisoned")
            .push(ConformRecord::Invoke {
                stamp,
                client,
                high,
                op,
            });
        stamp
    }

    /// Records a return and returns its stamp.
    pub fn record_return(&self, client: usize, high: u64, response: HighResponse) -> u64 {
        let stamp = self.stamp();
        self.records
            .lock()
            .expect("conform recorder poisoned")
            .push(ConformRecord::Return {
                stamp,
                client,
                high,
                response,
            });
        stamp
    }

    /// Snapshots the recorder into a complete [`ConformLog`].
    pub fn to_log(&self) -> ConformLog {
        ConformLog {
            records: self
                .records
                .lock()
                .expect("conform recorder poisoned")
                .clone(),
            final_clock: self.clock(),
            complete: true,
        }
    }

    /// Writes the log file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_log().to_text())
    }
}

/// Merges the client records of `logs` into one [`HighHistory`].
///
/// Records are ordered by stamp (ties broken by log order, then file order),
/// client indices are re-mapped to be globally unique across logs, and
/// invocations that never returned become pending intervals — exactly what
/// the checkers expect of a crashed or timed-out client.
pub fn merge_logs(logs: &[ConformLog]) -> HighHistory {
    // (stamp, log index, position) keyed records, clients remapped densely.
    let mut timeline: Vec<(u64, usize, usize, ConformRecord)> = Vec::new();
    for (log_idx, log) in logs.iter().enumerate() {
        for (pos, record) in log.records.iter().enumerate() {
            match record {
                ConformRecord::Invoke { stamp, .. } | ConformRecord::Return { stamp, .. } => {
                    timeline.push((*stamp, log_idx, pos, *record));
                }
                ConformRecord::Respond { .. } => {}
            }
        }
    }
    timeline.sort_by_key(|(stamp, log_idx, pos, _)| (*stamp, *log_idx, *pos));

    let mut global_clients: HashMap<(usize, usize), usize> = HashMap::new();
    let mut returns: HashMap<(usize, usize, u64), (u64, HighResponse)> = HashMap::new();
    for (stamp, log_idx, _, record) in &timeline {
        if let ConformRecord::Return {
            client,
            high,
            response,
            ..
        } = record
        {
            returns.insert((*log_idx, *client, *high), (*stamp, *response));
        }
    }

    let mut history = HighHistory::default();
    for (stamp, log_idx, _, record) in &timeline {
        if let ConformRecord::Invoke {
            client, high, op, ..
        } = record
        {
            let next_id = global_clients.len();
            let global = *global_clients.entry((*log_idx, *client)).or_insert(next_id);
            match returns.get(&(*log_idx, *client, *high)) {
                Some((returned_at, response)) => {
                    history.push_complete(global, *op, *response, *stamp, *returned_at);
                }
                None => history.push_pending(global, *op, *stamp),
            }
        }
    }
    history
}

/// The verdict of replaying a live history through the simulator's checkers.
#[derive(Clone, Debug)]
pub struct ConformVerdict {
    /// The condition that was checked.
    pub check: ConsistencyCheck,
    /// Total high-level operations in the merged history.
    pub ops: usize,
    /// How many of them completed.
    pub complete_ops: usize,
    /// The offline checker's violation, if any.
    pub offline: Option<Violation>,
    /// The streaming checker's violation, if any.
    pub streaming: Option<Violation>,
    /// Peak window size the streaming checker retained.
    pub peak_window: usize,
}

impl ConformVerdict {
    /// `true` when neither checker found a violation.
    pub fn is_consistent(&self) -> bool {
        self.offline.is_none() && self.streaming.is_none()
    }

    /// `true` when the offline and streaming verdict *classes* agree
    /// (both consistent, or both violated).
    pub fn agrees(&self) -> bool {
        self.offline.is_some() == self.streaming.is_some()
    }
}

impl std::fmt::Display for ConformVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "check={} ops={} complete={} offline={} streaming={} window={}",
            self.check,
            self.ops,
            self.complete_ops,
            self.offline
                .as_ref()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "ok".into()),
            self.streaming
                .as_ref()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "ok".into()),
            self.peak_window,
        )
    }
}

/// Replays `history` through the offline checker *and* the
/// [`StreamingChecker`] for `check`, returning both verdicts.
///
/// The streaming checker is fed the same synthesized event stream a
/// simulated run would produce: invokes and returns ordered by stamp, with
/// invokes first at equal stamps.
pub fn check_history(history: &HighHistory, check: ConsistencyCheck) -> ConformVerdict {
    let complete_ops = history.ops().iter().filter(|o| o.is_complete()).count();
    let Some(condition) = check.condition() else {
        return ConformVerdict {
            check,
            ops: history.len(),
            complete_ops,
            offline: None,
            streaming: None,
            peak_window: 0,
        };
    };

    let offline = check.check_offline(history);
    let mut checker = StreamingChecker::new(condition, SequentialSpec::register());
    for event in event_stream(history) {
        checker.observe(event);
    }
    let outcome = checker.into_outcome();
    ConformVerdict {
        check,
        ops: history.len(),
        complete_ops,
        offline,
        streaming: outcome.violation,
        peak_window: outcome.peak_window,
    }
}

/// Renders a history as the event stream the streaming checker consumes:
/// sorted by time, invokes before returns at equal times. Precedence is
/// strict (`a ≺ b` iff `a` returned *before* `b` was invoked), so an
/// operation invoked at the stamp another returns at is concurrent with it;
/// the streaming checker sees exactly that only if the invoke arrives while
/// the other operation is still open. (Merged logs of separate processes
/// can share a stamp; a single simulated run never does.)
fn event_stream(history: &HighHistory) -> Vec<Event> {
    let mut events: Vec<(Time, u8, Event)> = Vec::new();
    for interval in history.ops() {
        events.push((
            interval.invoked_at,
            0,
            Event::Invoke {
                time: interval.invoked_at,
                client: interval.client,
                high_op: interval.id,
                op: interval.op,
            },
        ));
        if let Some((returned_at, response)) = interval.returned {
            events.push((
                returned_at,
                1,
                Event::Return {
                    time: returned_at,
                    client: interval.client,
                    high_op: interval.id,
                    response,
                },
            ));
        }
    }
    events.sort_by_key(|(time, kind, _)| (*time, *kind));
    events.into_iter().map(|(_, _, e)| e).collect()
}

/// Loads `paths`, merges them and checks the merged history: the complete
/// `serve conform` pipeline as one call.
pub fn conform_verdict(
    paths: &[std::path::PathBuf],
    check: ConsistencyCheck,
) -> Result<ConformVerdict, CampaignError> {
    let logs = paths
        .iter()
        .map(|p| ConformLog::load(p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(check_history(&merge_logs(&logs), check))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::ClientId;

    fn sample_log() -> ConformLog {
        let rec = ConformRecorder::new();
        let s1 = rec.record_invoke(0, 0, HighOp::Write(7));
        assert_eq!(s1, 1);
        rec.record_return(0, 0, HighResponse::WriteAck);
        rec.record_invoke(1, 0, HighOp::Read);
        rec.record_return(1, 0, HighResponse::ReadValue(7));
        rec.to_log()
    }

    #[test]
    fn logs_roundtrip_through_text() {
        let log = sample_log();
        let text = log.to_text();
        let parsed = ConformLog::from_text(&text).unwrap();
        assert_eq!(parsed, log);
        assert!(parsed.complete);
        assert_eq!(parsed.final_clock, 4);
    }

    #[test]
    fn respond_records_roundtrip() {
        let log = ConformLog {
            records: vec![ConformRecord::Respond {
                clock: 9,
                server: 1,
                object: 4,
                kind: LowOpKind::WriteMax,
            }],
            final_clock: 9,
            complete: true,
        };
        assert_eq!(ConformLog::from_text(&log.to_text()).unwrap(), log);
    }

    #[test]
    fn truncated_log_parses_as_incomplete() {
        let mut text = sample_log().to_text();
        // Drop the `end` line, as a killed process would.
        text.truncate(text.rfind("end").unwrap());
        let parsed = ConformLog::from_text(&text).unwrap();
        assert!(!parsed.complete);
        assert_eq!(parsed.records.len(), 4);
    }

    #[test]
    fn malformed_logs_fail_with_line_numbered_errors_and_never_panic() {
        for (text, needle) in [
            ("", "line 1: empty log"),
            ("regemu-trace v1\n", "line 1: expected"),
            ("regemu-conform v1\nbogus 1 2 3\n", "line 2: unknown record"),
        ] {
            let err = ConformLog::from_text(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should contain `{needle}`");
        }
        let table = vec![
            ("regemu-conform v1\ninvoke 1 0\n", "missing high-op id"),
            ("regemu-conform v1\ninvoke 1 0 0\n", "missing operation"),
            (
                "regemu-conform v1\ninvoke 1 0 0 jump\n",
                "unknown operation",
            ),
            ("regemu-conform v1\ninvoke x 0 0 read\n", "malformed stamp"),
            (
                "regemu-conform v1\nreturn 1 0 0 maybe\n",
                "unknown response",
            ),
            (
                "regemu-conform v1\nreturn 1 0 0 value\n",
                "missing read payload",
            ),
            (
                "regemu-conform v1\nrespond 1 0 0 swizzle\n",
                "unknown op kind",
            ),
            ("regemu-conform v1\nrespond 1 0 0\n", "missing op kind"),
            (
                "regemu-conform v1\ninvoke 1 0 0 read extra\n",
                "trailing fields",
            ),
            ("regemu-conform v1\nclock\n", "missing clock value"),
            (
                "regemu-conform v1\nend\ninvoke 1 0 0 read\n",
                "content after `end`",
            ),
        ];
        for (text, needle) in table {
            let err = ConformLog::from_text(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should contain `{needle}`");
            assert!(err.starts_with("line "), "`{err}` should be line-numbered");
        }
    }

    #[test]
    fn merge_orders_by_stamp_and_remaps_clients() {
        // Writer process: client 0 writes 7 at stamps 1..2.
        let writer = ConformLog::from_text(
            "regemu-conform v1\nclock 2\ninvoke 1 0 0 write 7\nreturn 2 0 0 ack\nend\n",
        )
        .unwrap();
        // Reader process (clock seeded from the writer's log): its local
        // client 0 must become a distinct global client.
        let reader = ConformLog::from_text(
            "regemu-conform v1\nclock 4\ninvoke 3 0 0 read\nreturn 4 0 0 value 7\nend\n",
        )
        .unwrap();
        let history = merge_logs(&[writer, reader]);
        assert_eq!(history.len(), 2);
        let ops = history.ops();
        assert_eq!(ops[0].client, ClientId::new(0));
        assert_eq!(ops[1].client, ClientId::new(1));
        assert!(ops[0].invoked_at < ops[1].invoked_at);
        assert!(history.is_write_sequential());

        let verdict = check_history(&history, ConsistencyCheck::WsSafe);
        assert!(verdict.is_consistent());
        assert!(verdict.agrees());
        assert_eq!(verdict.ops, 2);
        assert_eq!(verdict.complete_ops, 2);
    }

    #[test]
    fn never_returned_invokes_become_pending_ops() {
        let log = ConformLog::from_text(
            "regemu-conform v1\ninvoke 1 0 0 write 9\ninvoke 2 1 0 read\nreturn 3 1 0 value 0\n",
        )
        .unwrap();
        let history = merge_logs(&[log]);
        assert_eq!(history.len(), 2);
        assert!(!history.ops()[0].is_complete());
        // A pending write permits the read of 0 under WS-Safety.
        let verdict = check_history(&history, ConsistencyCheck::WsSafe);
        assert!(verdict.is_consistent(), "{verdict}");
    }

    #[test]
    fn stale_read_is_caught_by_both_checkers() {
        // Write(9) completes at stamp 2; a later read returns 0.
        let log = ConformLog::from_text(
            "regemu-conform v1\n\
             invoke 1 0 0 write 9\nreturn 2 0 0 ack\n\
             invoke 3 1 0 read\nreturn 4 1 0 value 0\n",
        )
        .unwrap();
        let verdict = check_history(&merge_logs(&[log]), ConsistencyCheck::WsSafe);
        assert!(!verdict.is_consistent());
        assert!(
            verdict.agrees(),
            "offline and streaming must agree: {verdict}"
        );
    }

    #[test]
    fn an_invoke_at_a_return_stamp_is_concurrent_for_both_checkers() {
        // Two processes stamp the write's return and the read's invoke alike
        // (5): the operations are concurrent, so the read may return the
        // initial value under every condition.
        let writer = ConformLog::from_text(
            "regemu-conform v1\ninvoke 1 0 0 write 1\nreturn 5 0 0 ack\nend\n",
        )
        .unwrap();
        let reader = ConformLog::from_text(
            "regemu-conform v1\ninvoke 5 0 0 read\nreturn 6 0 0 value 0\nend\n",
        )
        .unwrap();
        let history = merge_logs(&[writer, reader]);
        for check in [
            ConsistencyCheck::WsSafe,
            ConsistencyCheck::WsRegular,
            ConsistencyCheck::Atomic,
        ] {
            let verdict = check_history(&history, check);
            assert!(verdict.is_consistent(), "{verdict}");
            assert!(verdict.agrees(), "{verdict}");
        }
    }

    #[test]
    fn recorder_clock_folds_observed_clocks() {
        let rec = ConformRecorder::starting_at(10);
        assert_eq!(rec.stamp(), 11);
        rec.observe(100);
        assert_eq!(rec.stamp(), 101);
        rec.observe(5); // never goes backwards
        assert_eq!(rec.clock(), 101);
    }

    #[test]
    fn check_none_is_vacuously_consistent() {
        let verdict = check_history(&merge_logs(&[sample_log()]), ConsistencyCheck::None);
        assert!(verdict.is_consistent());
        assert!(verdict.agrees());
    }
}
