//! The recorded history of a run.
//!
//! [`History`] is an event log plus convenience queries used by the metrics
//! module, the consistency checkers and the lower-bound adversary. Alongside
//! the raw [`Event`] stream it maintains *incremental digests* (high-level
//! intervals, touched/written object sets, trigger/respond counters, point
//! contention), so metrics never re-scan the log.
//!
//! ## Recording modes
//!
//! How much of the raw event stream is *retained* is controlled by a
//! [`RecordingMode`]:
//!
//! * [`RecordingMode::Full`] — every event is kept forever (the default, and
//!   the only mode in which offline checkers and trace renderers see the
//!   whole run);
//! * [`RecordingMode::Digest`] — events update the digests and are dropped
//!   immediately: the run is metrics-only, with zero retained events;
//! * [`RecordingMode::Ring`] — a sliding window of the last `capacity`
//!   events, for consumers (such as the online checkers in `regemu-spec`)
//!   that drain the stream incrementally via [`History::events_since`].
//!
//! The digests are maintained identically in every mode, so
//! [`crate::metrics::RunMetrics`] is a pure function of the run — byte
//! identical across modes for the same seed. Peak memory is accounted in
//! O(1) per push ([`History::peak_retained_events`]).
//!
//! ## Segmented retention
//!
//! The retained events live in fixed-size segments of 1024 *records* held
//! in a deque. A record packs one event into 48 bytes, where an [`Event`]
//! takes 88: the time, one 64-bit id (the low-level op of a trigger or
//! response, the high-level op of an invocation or return), one [`Value`],
//! the client, object and trigger's high-level op as 32-bit indices, and a
//! one-byte tag for the variant and its operation or response kind. An
//! event that does not fit — a CAS trigger, which carries two values, or
//! one whose index needs more than 32 bits — is kept whole in one log-wide
//! out-of-line deque, and its record holds only its position there; each
//! segment counts its out-of-line events and pops them when it is
//! released. Reading the log decodes every record back into the exact
//! event, so [`History::events`] yields owned values.
//!
//! Growing the log allocates one segment at a time and never moves a
//! record already written (a single growable buffer would copy the whole
//! log on every doubling, holding old and new buffer at once). Eviction
//! advances a cursor into the oldest segment and releases a segment once
//! all of its records are gone; one released segment is kept as a spare,
//! so a ring that evicts as fast as it records allocates nothing per
//! event. A mode that retains nothing (`Digest`, `Ring(0)`) counts each
//! event and packs none.

use crate::event::Event;
use crate::ids::{ClientId, HighOpId, ObjectId, OpId, ServerId, Time};
use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Records per segment of the retained log.
const SEGMENT: usize = 1024;

/// [`Record::high_op`] of a trigger issued outside any high-level operation.
const NO_HIGH_OP: u32 = u32::MAX;

/// Which [`Event`] variant a [`Record`] holds, with its operation or
/// response kind.
#[derive(Clone, Copy, Debug)]
#[repr(u8)]
enum Tag {
    InvokeWrite,
    InvokeRead,
    ReturnWriteAck,
    ReturnReadValue,
    TriggerRead,
    TriggerWrite,
    TriggerReadMax,
    TriggerWriteMax,
    RespondReadValue,
    RespondWriteAck,
    RespondMaxValue,
    RespondWriteMaxAck,
    RespondCasOld,
    ServerCrash,
    ClientCrash,
    /// The event is the `id`-th ever stored in [`EventLog::out_of_line`].
    OutOfLine,
}

/// One retained event, packed into 48 bytes (an [`Event`] takes 88). The
/// fields a variant does not use are zero.
#[derive(Clone, Copy, Debug)]
struct Record {
    time: Time,
    /// The op id of a trigger or response, the high-op id of an invocation
    /// or return, or the serial of an out-of-line event.
    id: u64,
    /// The value a trigger writes or a response carries, or the payload of
    /// a high-level write or read (in `val`).
    value: Value,
    /// The client, or the server of a server crash.
    client: u32,
    object: u32,
    /// A trigger's high-level operation, or [`NO_HIGH_OP`].
    high_op: u32,
    tag: Tag,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 48);

impl Record {
    /// A record with no object and no high-level operation.
    fn new(time: Time, tag: Tag, id: u64, value: Value, client: u32) -> Record {
        Record {
            time,
            id,
            value,
            client,
            object: 0,
            high_op: 0,
            tag,
        }
    }

    /// Packs `event`, or returns `None` if it does not fit: a CAS trigger
    /// (two values), or an index that needs more than 32 bits.
    fn pack(event: &Event) -> Option<Record> {
        let narrow = |index: usize| u32::try_from(index).ok();
        Some(match *event {
            Event::Invoke {
                time,
                client,
                high_op,
                op,
            } => {
                let (tag, payload) = match op {
                    HighOp::Write(payload) => (Tag::InvokeWrite, payload),
                    HighOp::Read => (Tag::InvokeRead, 0),
                };
                let value = Value::from_payload(payload);
                Record::new(time, tag, high_op.0, value, narrow(client.0)?)
            }
            Event::Return {
                time,
                client,
                high_op,
                response,
            } => {
                let (tag, payload) = match response {
                    HighResponse::WriteAck => (Tag::ReturnWriteAck, 0),
                    HighResponse::ReadValue(payload) => (Tag::ReturnReadValue, payload),
                };
                let value = Value::from_payload(payload);
                Record::new(time, tag, high_op.0, value, narrow(client.0)?)
            }
            Event::Trigger {
                time,
                client,
                high_op,
                op_id,
                object,
                op,
            } => {
                let (tag, value) = match op {
                    BaseOp::Read => (Tag::TriggerRead, Value::INITIAL),
                    BaseOp::Write(value) => (Tag::TriggerWrite, value),
                    BaseOp::ReadMax => (Tag::TriggerReadMax, Value::INITIAL),
                    BaseOp::WriteMax(value) => (Tag::TriggerWriteMax, value),
                    BaseOp::Cas { .. } => return None,
                };
                let high_op = match high_op {
                    Some(id) => u32::try_from(id.0).ok().filter(|&id| id != NO_HIGH_OP)?,
                    None => NO_HIGH_OP,
                };
                Record {
                    object: narrow(object.0)?,
                    high_op,
                    ..Record::new(time, tag, op_id.0, value, narrow(client.0)?)
                }
            }
            Event::Respond {
                time,
                client,
                op_id,
                object,
                response,
            } => {
                let (tag, value) = match response {
                    BaseResponse::ReadValue(value) => (Tag::RespondReadValue, value),
                    BaseResponse::WriteAck => (Tag::RespondWriteAck, Value::INITIAL),
                    BaseResponse::MaxValue(value) => (Tag::RespondMaxValue, value),
                    BaseResponse::WriteMaxAck => (Tag::RespondWriteMaxAck, Value::INITIAL),
                    BaseResponse::CasOld(value) => (Tag::RespondCasOld, value),
                };
                Record {
                    object: narrow(object.0)?,
                    ..Record::new(time, tag, op_id.0, value, narrow(client.0)?)
                }
            }
            Event::ServerCrash { time, server } => {
                Record::new(time, Tag::ServerCrash, 0, Value::INITIAL, narrow(server.0)?)
            }
            Event::ClientCrash { time, client } => {
                Record::new(time, Tag::ClientCrash, 0, Value::INITIAL, narrow(client.0)?)
            }
        })
    }
}

/// One segment of the log: up to [`SEGMENT`] records, and how many of them
/// stand for out-of-line events.
#[derive(Clone, Debug)]
struct Segment {
    records: Vec<Record>,
    out_of_line: usize,
}

/// The retained suffix of the event stream, in segments of [`SEGMENT`]
/// records (see the module docs). Every segment but the last is full; the
/// first `head` records of the front segment are evicted.
#[derive(Clone, Debug, Default)]
struct EventLog {
    segments: VecDeque<Segment>,
    head: usize,
    len: usize,
    /// The events that do not pack into a [`Record`], in recording order;
    /// a released segment pops its own from the front.
    out_of_line: VecDeque<Event>,
    /// Out-of-line events popped so far: the serial of the front one.
    released_out_of_line: u64,
    /// An emptied segment's records, reused by the next push that needs one.
    spare: Vec<Record>,
}

impl EventLog {
    fn push(&mut self, event: Event) {
        if self
            .segments
            .back()
            .map_or(true, |last| last.records.len() == SEGMENT)
        {
            let mut records = std::mem::take(&mut self.spare);
            records.reserve_exact(SEGMENT);
            self.segments.push_back(Segment {
                records,
                out_of_line: 0,
            });
        }
        let last = self.segments.back_mut().expect("a segment with room");
        let record = Record::pack(&event).unwrap_or_else(|| {
            let serial = self.released_out_of_line + self.out_of_line.len() as u64;
            self.out_of_line.push_back(event);
            last.out_of_line += 1;
            Record::new(event.time(), Tag::OutOfLine, serial, Value::INITIAL, 0)
        });
        last.records.push(record);
        self.len += 1;
    }

    /// Evicts the oldest events until at most `keep` remain, releasing the
    /// segments they emptied (with their out-of-line events); returns how
    /// many were evicted.
    fn evict_to(&mut self, keep: usize) -> usize {
        let evicted = self.len.saturating_sub(keep);
        self.len -= evicted;
        self.head += evicted;
        while let Some(front) = self.segments.front() {
            if self.head < front.records.len() {
                break;
            }
            self.head -= front.records.len();
            let mut segment = self.segments.pop_front().expect("front exists");
            self.out_of_line.drain(..segment.out_of_line);
            self.released_out_of_line += segment.out_of_line as u64;
            if self.spare.capacity() == 0 {
                segment.records.clear();
                self.spare = segment.records;
            }
        }
        evicted
    }

    /// The retained events from the `start`-th on (`start <= len`).
    fn iter_from(&self, start: usize) -> impl Iterator<Item = Event> + '_ {
        let at = self.head + start;
        let offset = at % SEGMENT;
        self.segments
            .range(at / SEGMENT..)
            .enumerate()
            .flat_map(move |(i, segment)| {
                segment.records[if i == 0 { offset } else { 0 }..]
                    .iter()
                    .map(move |record| self.decode(record))
            })
    }

    /// The event `record` stands for. Forced inline into the iteration:
    /// called out of line, returning the event through memory made feeding
    /// a run to the online WS-Regularity checker about 60 % dearer per
    /// event.
    #[inline(always)]
    fn decode(&self, record: &Record) -> Event {
        let Record {
            time,
            id,
            value,
            client,
            object,
            high_op,
            tag,
        } = *record;
        let client = ClientId::new(client as usize);
        let object = ObjectId::new(object as usize);
        let op_id = OpId::new(id);
        let high_op = (high_op != NO_HIGH_OP).then(|| HighOpId::new(u64::from(high_op)));
        let trigger = |op| Event::Trigger {
            time,
            client,
            high_op,
            op_id,
            object,
            op,
        };
        let respond = |response| Event::Respond {
            time,
            client,
            op_id,
            object,
            response,
        };
        let invoke = |op| Event::Invoke {
            time,
            client,
            high_op: HighOpId::new(id),
            op,
        };
        let ret = |response| Event::Return {
            time,
            client,
            high_op: HighOpId::new(id),
            response,
        };
        match tag {
            Tag::InvokeWrite => invoke(HighOp::Write(value.val)),
            Tag::InvokeRead => invoke(HighOp::Read),
            Tag::ReturnWriteAck => ret(HighResponse::WriteAck),
            Tag::ReturnReadValue => ret(HighResponse::ReadValue(value.val)),
            Tag::TriggerRead => trigger(BaseOp::Read),
            Tag::TriggerWrite => trigger(BaseOp::Write(value)),
            Tag::TriggerReadMax => trigger(BaseOp::ReadMax),
            Tag::TriggerWriteMax => trigger(BaseOp::WriteMax(value)),
            Tag::RespondReadValue => respond(BaseResponse::ReadValue(value)),
            Tag::RespondWriteAck => respond(BaseResponse::WriteAck),
            Tag::RespondMaxValue => respond(BaseResponse::MaxValue(value)),
            Tag::RespondWriteMaxAck => respond(BaseResponse::WriteMaxAck),
            Tag::RespondCasOld => respond(BaseResponse::CasOld(value)),
            Tag::ServerCrash => Event::ServerCrash {
                time,
                server: ServerId::new(client.0),
            },
            Tag::ClientCrash => Event::ClientCrash { time, client },
            Tag::OutOfLine => self.out_of_line[(id - self.released_out_of_line) as usize],
        }
    }
}

/// How much of the raw event stream a [`History`] retains.
///
/// Only *retention* varies: every mode updates the incremental digests the
/// same way, so metrics and run behaviour are mode-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordingMode {
    /// Keep every event (unbounded memory, full offline checkability).
    #[default]
    Full,
    /// Keep no events: digests/metrics only.
    Digest,
    /// Keep a sliding window of the last `capacity` events.
    Ring(
        /// Maximum number of events retained at any moment.
        usize,
    ),
}

impl RecordingMode {
    /// Stable label used in reports and CLI flags: `full`, `digest`,
    /// `ring:N`.
    pub fn label(self) -> String {
        match self {
            RecordingMode::Full => "full".to_string(),
            RecordingMode::Digest => "digest".to_string(),
            RecordingMode::Ring(cap) => format!("ring:{cap}"),
        }
    }

    /// The inverse of [`RecordingMode::label`], for CLI flags.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "full" => Some(RecordingMode::Full),
            "digest" => Some(RecordingMode::Digest),
            other => {
                let cap = other.strip_prefix("ring:")?;
                cap.parse().ok().map(RecordingMode::Ring)
            }
        }
    }

    /// Returns `true` when this mode keeps the complete event log.
    pub fn is_full(self) -> bool {
        matches!(self, RecordingMode::Full)
    }
}

impl fmt::Display for RecordingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A completed or pending high-level operation extracted from a history.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HighInterval {
    /// Identifier of the high-level operation.
    pub id: HighOpId,
    /// The invoking client.
    pub client: ClientId,
    /// The operation.
    pub op: HighOp,
    /// Invocation time.
    pub invoked_at: Time,
    /// Return time and response, or `None` if the operation is pending.
    pub returned: Option<(Time, HighResponse)>,
}

impl HighInterval {
    /// Returns `true` if the operation completed.
    pub fn is_complete(&self) -> bool {
        self.returned.is_some()
    }

    /// Returns `true` if `self` precedes `other` (returned before the other
    /// was invoked), i.e. `self ≺ other` in the schedule's real-time order.
    pub fn precedes(&self, other: &HighInterval) -> bool {
        match self.returned {
            Some((t, _)) => t < other.invoked_at,
            None => false,
        }
    }

    /// Returns `true` if the two operations are concurrent (neither precedes
    /// the other).
    pub fn concurrent_with(&self, other: &HighInterval) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// A growable bitset over dense indices (object ids are indices), used for
/// the touched/written digests: marking is a word-indexed store — no tree
/// rebalancing or node allocation on the simulator's per-trigger hot path.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct IndexBitSet {
    words: Vec<u64>,
}

impl IndexBitSet {
    fn insert(&mut self, index: usize) {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (index % 64);
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, bits)| {
            let mut bits = *bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

/// Record of every action taken in a run.
///
/// Alongside the (mode-bounded) raw event log, `History` maintains
/// *incremental digests* — the high-level intervals, the touched/written
/// object sets, running trigger/respond counters and the point contention —
/// updated in O(1) amortized time per [`History::push`]. The query methods
/// below therefore never re-scan the event log, which keeps
/// [`crate::metrics::RunMetrics::capture`] cheap even at the end of
/// million-step runs, *in every [`RecordingMode`]*. (The exception is
/// [`History::pending_low_level`], a debugging aid that still scans the
/// retained window on demand so the hot path does not pay for a churning id
/// set.)
///
/// Events carry implicit sequence numbers `0..total_events()`; the retained
/// window is always a contiguous suffix of that sequence, drained
/// incrementally with [`History::events_since`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct History {
    mode: RecordingMode,
    /// The retained suffix of the event stream; its first event has
    /// sequence number `dropped`.
    events: EventLog,
    /// Events recorded but no longer retained (evicted from the ring, or
    /// never stored in `Digest` mode).
    dropped: u64,
    /// High-water mark of `events.len()`.
    peak_retained: usize,
    /// Retained high-level intervals, keyed by operation id. Ids are
    /// assigned in invocation order, so iteration order *is* invocation
    /// order (first wins when an id is invoked twice, matching the previous
    /// scan-based extraction). Intervals evicted with
    /// [`History::evict_interval`] are gone; the scalar digests below keep
    /// the whole-run answers exact regardless.
    intervals: BTreeMap<HighOpId, HighInterval>,
    /// Intervals recorded over the run, evicted or not.
    total_intervals: u64,
    /// High-water mark of `intervals.len()`.
    peak_retained_intervals: usize,
    touched: IndexBitSet,
    written: IndexBitSet,
    trigger_count: u64,
    respond_count: u64,
    /// Flags, by client index, of clients with a high-level operation
    /// currently in progress, and how many are set.
    open_clients: Vec<bool>,
    open_count: usize,
    max_contention: usize,
}

impl History {
    /// Creates an empty history recording in [`RecordingMode::Full`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty history recording in the given mode.
    pub fn with_mode(mode: RecordingMode) -> Self {
        History {
            mode,
            ..Self::default()
        }
    }

    /// The active recording mode.
    pub(crate) fn recording_mode(&self) -> RecordingMode {
        self.mode
    }

    /// Switches the recording mode, immediately applying the new retention
    /// policy to the already-retained events (switching to `Digest` drops
    /// them all; switching to `Ring` evicts down to the capacity; switching
    /// to `Full` keeps whatever is still retained — evicted events do not
    /// come back). Digests are unaffected.
    pub fn set_recording_mode(&mut self, mode: RecordingMode) {
        self.mode = mode;
        self.apply_retention();
    }

    /// How many events the recording mode retains.
    fn keep(&self) -> usize {
        match self.mode {
            RecordingMode::Full => usize::MAX,
            RecordingMode::Digest => 0,
            RecordingMode::Ring(cap) => cap,
        }
    }

    fn apply_retention(&mut self) {
        self.dropped += self.events.evict_to(self.keep()) as u64;
    }

    /// Appends an event: updates the digests (in every mode), then retains
    /// the event according to the recording mode.
    ///
    /// The digests are indexed by raw client and object index, so the
    /// indices must be dense, as [`Simulation`](crate::Simulation) hands
    /// them out (`0, 1, 2, ..`). The open-operation table grows to
    /// `client.index() + 1` entries and the touched/written sets to
    /// `object.index() / 64 + 1` words: a single sparse index such as
    /// `ObjectId::new(usize::MAX)` makes this call attempt an allocation
    /// that large.
    pub fn push(&mut self, event: Event) {
        match event {
            Event::Invoke {
                time,
                client,
                high_op,
                op,
            } => {
                if let std::collections::btree_map::Entry::Vacant(slot) =
                    self.intervals.entry(high_op)
                {
                    slot.insert(HighInterval {
                        id: high_op,
                        client,
                        op,
                        invoked_at: time,
                        returned: None,
                    });
                    self.total_intervals += 1;
                    self.peak_retained_intervals =
                        self.peak_retained_intervals.max(self.intervals.len());
                }
                if self.open_clients.len() <= client.index() {
                    self.open_clients.resize(client.index() + 1, false);
                }
                if !std::mem::replace(&mut self.open_clients[client.index()], true) {
                    self.open_count += 1;
                }
                self.max_contention = self.max_contention.max(self.open_count);
            }
            Event::Return {
                time,
                client,
                high_op,
                response,
            } => {
                if let Some(interval) = self.intervals.get_mut(&high_op) {
                    interval.returned = Some((time, response));
                }
                if let Some(open) = self.open_clients.get_mut(client.index()) {
                    self.open_count -= usize::from(std::mem::take(open));
                }
            }
            Event::Trigger { object, op, .. } => {
                self.trigger_count += 1;
                self.touched.insert(object.index());
                if op.is_write() {
                    self.written.insert(object.index());
                }
            }
            Event::Respond { .. } => {
                self.respond_count += 1;
            }
            Event::ServerCrash { .. } | Event::ClientCrash { .. } => {}
        }
        // The retention policy lives in `keep` alone; pushing then evicting
        // keeps the two call sites (per-event and mode-switch) impossible
        // to desynchronize. A mode that retains nothing has emptied the log
        // already, so its events are counted and never packed.
        if self.keep() == 0 {
            self.dropped += 1;
        } else {
            self.events.push(event);
            self.apply_retention();
        }
        self.peak_retained = self.peak_retained.max(self.events.len);
    }

    /// The retained events, in the order they occurred. In
    /// [`RecordingMode::Full`] this is the complete run; in the bounded
    /// modes it is the current window (empty under `Digest`).
    ///
    /// The events come back as owned values, decoded from the packed log
    /// (see the module docs): iterate again rather than hold references.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.events.iter_from(0)
    }

    /// The events with sequence numbers `seq..total_events()`, as owned
    /// values like [`History::events`], or `None` if part of that range has
    /// already been evicted — the caller missed events and any incremental
    /// consumer (e.g. an online checker) should treat its state as
    /// incomplete.
    ///
    /// Draining `events_since(cursor)` after every simulation transition and
    /// advancing `cursor` to [`History::total_events`] never misses an event
    /// as long as the window capacity covers the events of one transition.
    pub fn events_since(&self, seq: u64) -> Option<impl Iterator<Item = Event> + '_> {
        if seq < self.dropped {
            return None;
        }
        let start = usize::try_from(seq - self.dropped)
            .ok()?
            .min(self.events.len);
        Some(self.events.iter_from(start))
    }

    /// Total number of events recorded over the run so far, retained or not.
    pub fn total_events(&self) -> u64 {
        self.dropped + self.events.len as u64
    }

    /// Number of events currently retained.
    pub fn retained_events(&self) -> usize {
        self.events.len
    }

    /// Number of events recorded but no longer retained.
    pub fn evicted_events(&self) -> u64 {
        self.dropped
    }

    /// High-water mark of [`History::retained_events`] over the run — the
    /// O(1) peak-memory accounting of the event log.
    pub fn peak_retained_events(&self) -> usize {
        self.peak_retained
    }

    /// All *retained* high-level operation intervals, in invocation order,
    /// borrowed from the incrementally-maintained digest. Available in every
    /// recording mode: intervals are part of the digests, sized by the
    /// number of high-level operations rather than by the run length — and
    /// further boundable with `History::evict_interval` once a consumer
    /// (such as an online checker) is done with an operation.
    pub fn intervals(&self) -> impl Iterator<Item = &HighInterval> + '_ {
        self.intervals.values()
    }

    /// Extracts the retained high-level operation intervals, in invocation
    /// order.
    ///
    /// Prefer [`History::intervals`] when a borrow suffices; this method is
    /// kept for callers that need an owned copy.
    pub fn high_intervals(&self) -> Vec<HighInterval> {
        self.intervals.values().copied().collect()
    }

    /// Evicts a *completed* interval from the digest, freeing its memory.
    ///
    /// Callers that verify a run online (the `StreamingChecker` in
    /// `regemu-spec`) fold operations out of their own window as soon as the
    /// verdict no longer depends on them; evicting the matching interval
    /// here bounds the interval digest the same way — the retained interval
    /// set then tracks the checker's window instead of growing with every
    /// high-level operation of the run. Only do this when the report surface
    /// does not need the full schedule ([`History::high_intervals`] and the
    /// extracted `HighHistory` only contain what is still retained).
    ///
    /// The scalar digests ([`History::point_contention`],
    /// [`History::total_intervals`]) are maintained incrementally and stay
    /// exact for the whole run regardless of eviction.
    ///
    /// Returns `false` (and evicts nothing) when the operation is unknown,
    /// already evicted, or still open — an evicted open interval could not
    /// record its return.
    pub(crate) fn evict_interval(&mut self, high_op: HighOpId) -> bool {
        match self.intervals.get(&high_op) {
            Some(interval) if interval.is_complete() => {
                self.intervals.remove(&high_op);
                true
            }
            _ => false,
        }
    }

    /// Number of intervals currently retained in the digest.
    pub fn retained_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// High-water mark of [`History::retained_intervals`] over the run — the
    /// O(1) peak-memory accounting of the interval digest.
    pub fn peak_retained_intervals(&self) -> usize {
        self.peak_retained_intervals
    }

    /// Total number of high-level operations invoked over the run, retained
    /// or evicted.
    pub fn total_intervals(&self) -> u64 {
        self.total_intervals
    }

    /// The set of base objects on which at least one low-level operation was
    /// triggered — the *resource consumption* of the run (Section 2).
    pub(crate) fn touched_objects(&self) -> BTreeSet<ObjectId> {
        self.touched.iter().map(ObjectId::new).collect()
    }

    /// The set of base objects on which at least one low-level *write-class*
    /// operation was triggered.
    pub(crate) fn written_objects(&self) -> BTreeSet<ObjectId> {
        self.written.iter().map(ObjectId::new).collect()
    }

    /// Number of low-level operations triggered so far.
    pub fn trigger_count(&self) -> u64 {
        self.trigger_count
    }

    /// Number of low-level operations that responded so far.
    pub(crate) fn respond_count(&self) -> u64 {
        self.respond_count
    }

    /// Identifiers of low-level operations that were triggered but have not
    /// responded *within the retained window* (pending operations).
    ///
    /// Computed on demand by scanning the retained events (O(retained)): the
    /// live pending set is tracked by [`crate::sim::Simulation`] itself, so
    /// the recording hot path does not maintain a second, churning id set
    /// just for this query. Only complete in [`RecordingMode::Full`]; in the
    /// bounded modes use [`crate::sim::Simulation::pending_snapshot`].
    pub fn pending_low_level(&self) -> BTreeSet<OpId> {
        let mut pending = BTreeSet::new();
        for e in self.events() {
            match e {
                Event::Trigger { op_id, .. } => {
                    pending.insert(op_id);
                }
                Event::Respond { op_id, .. } => {
                    pending.remove(&op_id);
                }
                _ => {}
            }
        }
        pending
    }

    /// Maximum number of clients with an incomplete high-level operation at
    /// any single point of the run — the *point contention* (Appendix C).
    pub(crate) fn point_contention(&self) -> usize {
        self.max_contention
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_events() -> Vec<Event> {
        vec![
            // c0: WRITE(1) [t1..t4] touching b0 (write, responds) and b1
            // (write, pending)
            Event::Invoke {
                time: 1,
                client: ClientId::new(0),
                high_op: HighOpId::new(0),
                op: HighOp::Write(1),
            },
            Event::Trigger {
                time: 2,
                client: ClientId::new(0),
                high_op: Some(HighOpId::new(0)),
                op_id: OpId::new(0),
                object: ObjectId::new(0),
                op: BaseOp::Write(Value::new(1, 1)),
            },
            Event::Trigger {
                time: 2,
                client: ClientId::new(0),
                high_op: Some(HighOpId::new(0)),
                op_id: OpId::new(1),
                object: ObjectId::new(1),
                op: BaseOp::Write(Value::new(1, 1)),
            },
            Event::Respond {
                time: 3,
                client: ClientId::new(0),
                op_id: OpId::new(0),
                object: ObjectId::new(0),
                response: BaseResponse::WriteAck,
            },
            Event::Return {
                time: 4,
                client: ClientId::new(0),
                high_op: HighOpId::new(0),
                response: HighResponse::WriteAck,
            },
            // c1: READ() [t5..] pending, triggers read on b0
            Event::Invoke {
                time: 5,
                client: ClientId::new(1),
                high_op: HighOpId::new(1),
                op: HighOp::Read,
            },
            Event::Trigger {
                time: 6,
                client: ClientId::new(1),
                high_op: Some(HighOpId::new(1)),
                op_id: OpId::new(2),
                object: ObjectId::new(0),
                op: BaseOp::Read,
            },
        ]
    }

    fn mk_history() -> History {
        let mut h = History::new();
        for e in mk_events() {
            h.push(e);
        }
        h
    }

    fn mk_history_in(mode: RecordingMode) -> History {
        let mut h = History::with_mode(mode);
        for e in mk_events() {
            h.push(e);
        }
        h
    }

    #[test]
    fn high_intervals_and_precedence() {
        let h = mk_history();
        let ivs = h.high_intervals();
        assert_eq!(ivs.len(), 2);
        assert!(ivs[0].is_complete());
        assert!(!ivs[1].is_complete());
        assert!(ivs[0].precedes(&ivs[1]));
        assert!(!ivs[1].precedes(&ivs[0]));
        assert!(!ivs[0].concurrent_with(&ivs[1]));
    }

    #[test]
    fn touched_and_pending_sets() {
        let h = mk_history();
        let touched = h.touched_objects();
        assert!(touched.contains(&ObjectId::new(0)));
        assert!(touched.contains(&ObjectId::new(1)));
        assert_eq!(touched.len(), 2);
        assert_eq!(h.written_objects().len(), 2);
        let pending = h.pending_low_level();
        assert!(pending.contains(&OpId::new(1)));
        assert!(pending.contains(&OpId::new(2)));
        assert!(!pending.contains(&OpId::new(0)));
    }

    #[test]
    fn point_contention_counts_concurrent_high_ops() {
        let h = mk_history();
        assert_eq!(h.point_contention(), 1);
        let mut h2 = History::new();
        for i in 0..3u64 {
            h2.push(Event::Invoke {
                time: i,
                client: ClientId::new(i as usize),
                high_op: HighOpId::new(i),
                op: HighOp::Write(i),
            });
        }
        h2.push(Event::Return {
            time: 4,
            client: ClientId::new(0),
            high_op: HighOpId::new(0),
            response: HighResponse::WriteAck,
        });
        assert_eq!(h2.point_contention(), 3);
    }

    #[test]
    fn total_and_retained_event_counts() {
        let h = mk_history();
        assert_eq!(h.total_events(), 7);
        assert_eq!(h.retained_events(), 7);
    }

    #[test]
    fn digest_mode_retains_nothing_but_keeps_all_digests() {
        let full = mk_history();
        let digest = mk_history_in(RecordingMode::Digest);
        assert_eq!(digest.retained_events(), 0);
        assert_eq!(digest.peak_retained_events(), 0);
        assert_eq!(digest.total_events(), 7);
        assert_eq!(digest.evicted_events(), 7);
        assert_eq!(digest.total_events(), full.total_events());
        assert_eq!(digest.high_intervals(), full.high_intervals());
        assert_eq!(digest.touched_objects(), full.touched_objects());
        assert_eq!(digest.written_objects(), full.written_objects());
        assert_eq!(digest.trigger_count(), full.trigger_count());
        assert_eq!(digest.respond_count(), full.respond_count());
        assert_eq!(digest.point_contention(), full.point_contention());
        assert_eq!(digest.events().count(), 0);
    }

    #[test]
    fn ring_mode_keeps_a_bounded_suffix() {
        let h = mk_history_in(RecordingMode::Ring(3));
        assert_eq!(h.retained_events(), 3);
        assert_eq!(h.peak_retained_events(), 3);
        assert_eq!(h.total_events(), 7);
        assert_eq!(h.evicted_events(), 4);
        // The window is the last three events, in order.
        let times: Vec<Time> = h.events().map(|e| e.time()).collect();
        assert_eq!(times, vec![4, 5, 6]);
        // Digests are unaffected by the eviction.
        assert_eq!(h.high_intervals().len(), 2);
        assert_eq!(h.trigger_count(), 3);
        // A zero-capacity ring degenerates to digest-only retention.
        let zero = mk_history_in(RecordingMode::Ring(0));
        assert_eq!(zero.retained_events(), 0);
        assert_eq!(zero.peak_retained_events(), 0);
        assert_eq!(zero.total_events(), 7);
    }

    #[test]
    fn events_since_drains_incrementally_and_reports_gaps() {
        let h = mk_history_in(RecordingMode::Ring(3));
        // Sequence numbers 0..4 were evicted.
        assert!(h.events_since(0).is_none());
        assert!(h.events_since(3).is_none());
        // The retained suffix starts at sequence number 4.
        let tail: Vec<Time> = h.events_since(4).unwrap().map(|e| e.time()).collect();
        assert_eq!(tail, vec![4, 5, 6]);
        let tail: Vec<Time> = h.events_since(6).unwrap().map(|e| e.time()).collect();
        assert_eq!(tail, vec![6]);
        // At (or past) the end the drain is empty but not a gap.
        assert_eq!(h.events_since(7).unwrap().count(), 0);
        assert_eq!(h.events_since(99).unwrap().count(), 0);

        // In full mode a cursor-driven drain sees every event exactly once.
        let full = mk_history();
        let mut cursor = 0u64;
        let mut seen = 0;
        while cursor < full.total_events() {
            for _ in full.events_since(cursor).unwrap() {
                seen += 1;
            }
            cursor = full.total_events();
        }
        assert_eq!(seen, 7);
    }

    #[test]
    fn switching_modes_applies_retention_immediately() {
        let mut h = mk_history();
        assert_eq!(h.retained_events(), 7);
        h.set_recording_mode(RecordingMode::Ring(2));
        assert_eq!(h.retained_events(), 2);
        assert_eq!(h.evicted_events(), 5);
        h.set_recording_mode(RecordingMode::Digest);
        assert_eq!(h.retained_events(), 0);
        assert_eq!(h.evicted_events(), 7);
        // Switching back to full does not resurrect evicted events.
        h.set_recording_mode(RecordingMode::Full);
        assert_eq!(h.retained_events(), 0);
        assert_eq!(h.total_events(), 7);
        // Peak reflects the maximum ever retained.
        assert_eq!(h.peak_retained_events(), 7);
    }

    #[test]
    fn interval_eviction_bounds_the_digest_but_keeps_scalar_answers() {
        let mut h = mk_history();
        assert_eq!(h.total_intervals(), 2);
        assert_eq!(h.retained_intervals(), 2);
        assert_eq!(h.peak_retained_intervals(), 2);
        // The completed write can be evicted; the pending read cannot.
        assert!(h.evict_interval(HighOpId::new(0)));
        assert!(!h.evict_interval(HighOpId::new(0)), "already evicted");
        assert!(!h.evict_interval(HighOpId::new(1)), "still open");
        assert!(!h.evict_interval(HighOpId::new(9)), "unknown");
        assert_eq!(h.retained_intervals(), 1);
        assert_eq!(h.total_intervals(), 2);
        assert_eq!(h.peak_retained_intervals(), 2);
        assert_eq!(h.high_intervals().len(), 1);
        // Scalar digests still answer for the whole run.
        assert_eq!(h.point_contention(), 1);
        // A write invoked after the eviction still sees the earlier pending
        // read for contention.
        h.push(Event::Invoke {
            time: 7,
            client: ClientId::new(2),
            high_op: HighOpId::new(2),
            op: HighOp::Write(9),
        });
        assert_eq!(h.point_contention(), 2);
    }

    #[test]
    fn recording_mode_labels_round_trip() {
        for mode in [
            RecordingMode::Full,
            RecordingMode::Digest,
            RecordingMode::Ring(1),
            RecordingMode::Ring(1024),
        ] {
            assert_eq!(RecordingMode::from_label(&mode.label()), Some(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(RecordingMode::from_label("ring:"), None);
        assert_eq!(RecordingMode::from_label("ring:x"), None);
        assert_eq!(RecordingMode::from_label("nope"), None);
        assert!(RecordingMode::Full.is_full());
        assert!(!RecordingMode::Digest.is_full());
        assert_eq!(RecordingMode::default(), RecordingMode::Full);
    }
}
