//! Differential test of `History`'s segmented event log against a plain
//! `VecDeque<Event>` model of the retention rules: random pushes
//! interleaved with recording-mode switches, over ring capacities on both
//! sides of the log's 1024-event segments. After every action the retained
//! events, every `events_since` cursor and the `total`, `retained`,
//! `evicted` and `peak` counts must match the model.
//!
//! The pushed events cover every `Event` variant and every operation and
//! response kind, with ids on both sides of the packed records' 32-bit
//! fields, so the out-of-line events (CAS triggers, wide ids) are recorded,
//! decoded and evicted with their segments along with the packed ones.

use proptest::prelude::*;
use regemu_fpsm::history::{History, RecordingMode};
use regemu_fpsm::{
    BaseOp, BaseResponse, ClientId, Event, HighOp, HighOpId, HighResponse, ObjectId, OpId,
    ServerId, Value,
};
use std::collections::VecDeque;

const MODES: [RecordingMode; 8] = [
    RecordingMode::Full,
    RecordingMode::Digest,
    RecordingMode::Ring(0),
    RecordingMode::Ring(1),
    RecordingMode::Ring(1023),
    RecordingMode::Ring(1024),
    RecordingMode::Ring(1025),
    RecordingMode::Ring(3000),
];

/// The retention rules, stated directly: keep the newest `capacity`
/// events of everything recorded.
#[derive(Default)]
struct Model {
    events: VecDeque<Event>,
    evicted: u64,
    peak: usize,
    capacity: Option<usize>,
}

impl Model {
    fn set_mode(&mut self, mode: RecordingMode) {
        self.capacity = match mode {
            RecordingMode::Full => None,
            RecordingMode::Digest => Some(0),
            RecordingMode::Ring(cap) => Some(cap),
        };
        self.retain();
    }

    fn push(&mut self, event: Event) {
        self.events.push_back(event);
        self.retain();
        self.peak = self.peak.max(self.events.len());
    }

    fn retain(&mut self) {
        while self.events.len() > self.capacity.unwrap_or(usize::MAX) {
            self.events.pop_front();
            self.evicted += 1;
        }
    }

    fn total(&self) -> u64 {
        self.evicted + self.events.len() as u64
    }
}

/// Ids around the edge of a record's 32-bit fields, and small ones.
const IDS: [u64; 6] = [
    0,
    5,
    u32::MAX as u64 - 1,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    u64::MAX,
];

/// Draws bounded choices from the bits of one random word.
struct Draw(u64);

impl Draw {
    fn new(seed: u64) -> Self {
        // SplitMix64's finaliser, so neighbouring seeds draw unrelated words.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Draw(z ^ (z >> 31))
    }

    fn pick(&mut self, n: u64) -> u64 {
        let choice = self.0 % n;
        self.0 /= n;
        choice
    }

    /// A small id most of the time, one of [`IDS`] otherwise.
    fn id(&mut self) -> u64 {
        if self.pick(4) == 0 {
            IDS[self.pick(6) as usize]
        } else {
            self.pick(8)
        }
    }

    fn index(&mut self) -> usize {
        usize::try_from(self.id()).expect("a 64-bit target")
    }

    fn value(&mut self) -> Value {
        Value::new(IDS[self.pick(6) as usize], IDS[self.pick(6) as usize])
    }

    fn high_op(&mut self) -> Option<HighOpId> {
        (self.pick(3) != 0).then(|| HighOpId::new(self.id()))
    }
}

/// The `seed`-th event of a run at `time`: any of the six variants with any
/// operation or response kind, CAS triggers included. The history's
/// digests index by an invoking client and by a triggered object, so those
/// two stay small; every other id may be wide.
fn event(time: u64, seed: u64) -> Event {
    let mut draw = Draw::new(seed);
    let client = ClientId::new(draw.index());
    let object = ObjectId::new(draw.index());
    let op_id = OpId::new(draw.id());
    let trigger = |draw: &mut Draw, op| Event::Trigger {
        time,
        client,
        high_op: draw.high_op(),
        op_id,
        object: ObjectId::new(draw.pick(8) as usize),
        op,
    };
    let respond = |response| Event::Respond {
        time,
        client,
        op_id,
        object,
        response,
    };
    match draw.pick(16) {
        0 => Event::Invoke {
            time,
            client: ClientId::new(draw.pick(8) as usize),
            high_op: HighOpId::new(draw.id()),
            op: HighOp::Write(draw.value().val),
        },
        1 => Event::Invoke {
            time,
            client: ClientId::new(draw.pick(8) as usize),
            high_op: HighOpId::new(draw.id()),
            op: HighOp::Read,
        },
        2 => Event::Return {
            time,
            client,
            high_op: HighOpId::new(draw.id()),
            response: HighResponse::WriteAck,
        },
        3 => Event::Return {
            time,
            client,
            high_op: HighOpId::new(draw.id()),
            response: HighResponse::ReadValue(draw.value().val),
        },
        4 => trigger(&mut draw, BaseOp::Read),
        5 => {
            let value = draw.value();
            trigger(&mut draw, BaseOp::Write(value))
        }
        6 => trigger(&mut draw, BaseOp::ReadMax),
        7 => {
            let value = draw.value();
            trigger(&mut draw, BaseOp::WriteMax(value))
        }
        8 => {
            let (expected, new) = (draw.value(), draw.value());
            trigger(&mut draw, BaseOp::Cas { expected, new })
        }
        9 => respond(BaseResponse::ReadValue(draw.value())),
        10 => respond(BaseResponse::WriteAck),
        11 => respond(BaseResponse::MaxValue(draw.value())),
        12 => respond(BaseResponse::WriteMaxAck),
        13 => respond(BaseResponse::CasOld(draw.value())),
        14 => Event::ServerCrash {
            time,
            server: ServerId::new(draw.index()),
        },
        _ => Event::ClientCrash { time, client },
    }
}

/// Asserts that `history` and `model` retain the same events and report the
/// same counts; with `every_cursor`, also compares `events_since(s)` for
/// every `s` in `0..=total + 1`, otherwise for the cursors next to the
/// eviction point and the end.
fn assert_same(history: &History, model: &Model, every_cursor: bool) {
    assert_eq!(history.total_events(), model.total());
    assert_eq!(history.retained_events(), model.events.len());
    assert_eq!(history.evicted_events(), model.evicted);
    assert_eq!(history.peak_retained_events(), model.peak);
    assert!(history.events().eq(model.events.iter().copied()));
    let total = model.total();
    let cursors: Vec<u64> = if every_cursor {
        (0..=total + 1).collect()
    } else {
        let evicted = model.evicted;
        vec![
            0,
            evicted.saturating_sub(1),
            evicted,
            evicted + 1,
            total.saturating_sub(1),
            total,
            total + 1,
        ]
    };
    for seq in cursors {
        match history.events_since(seq) {
            None => assert!(seq < model.evicted, "cursor {seq} refused"),
            Some(tail) => {
                assert!(seq >= model.evicted, "cursor {seq} served after eviction");
                let skip = usize::try_from(seq - model.evicted).unwrap();
                assert!(
                    tail.eq(model.events.iter().skip(skip).copied()),
                    "events_since({seq}) differs"
                );
            }
        }
    }
}

/// One action of a random run: push `count` events drawn from `seed` on,
/// or switch to `MODES[i]`.
#[derive(Clone, Copy, Debug)]
enum Action {
    Push(usize, u64),
    SetMode(usize),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0usize..1_500, 0u64..u64::MAX).prop_map(|(count, seed)| Action::Push(count, seed)),
        1 => (0usize..MODES.len()).prop_map(Action::SetMode),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn segmented_log_matches_a_deque(
        initial in 0usize..MODES.len(),
        actions in proptest::collection::vec(action(), 1..8),
    ) {
        let mut history = History::with_mode(MODES[initial]);
        let mut model = Model::default();
        model.set_mode(MODES[initial]);
        let mut time = 0;
        for action in actions {
            match action {
                Action::Push(count, seed) => {
                    for _ in 0..count {
                        time += 1;
                        let event = event(time, seed.wrapping_add(time));
                        history.push(event);
                        model.push(event);
                    }
                }
                Action::SetMode(i) => {
                    history.set_recording_mode(MODES[i]);
                    model.set_mode(MODES[i]);
                }
            }
            assert_same(&history, &model, false);
        }
        assert_same(&history, &model, true);
    }
}

/// Cursor arithmetic across every segment boundary of a long ring, where
/// the oldest retained event sits at every offset of its segment in turn.
#[test]
fn ring_cursors_stay_exact_across_segment_boundaries() {
    for capacity in [1023, 1024, 1025] {
        let mut history = History::with_mode(RecordingMode::Ring(capacity));
        let mut model = Model::default();
        model.set_mode(RecordingMode::Ring(capacity));
        for time in 1..=2_600 {
            let event = event(time, time);
            history.push(event);
            model.push(event);
            assert_same(&history, &model, false);
        }
    }
}

/// Every kind of event, at every boundary id, comes back exactly as it was
/// pushed, whether it packs into a record or lives out of line. (An
/// invoking client and a triggered object stay small, as in [`event`].)
#[test]
fn every_event_kind_round_trips_at_the_id_boundaries() {
    let mut pushed = Vec::new();
    for (i, &id) in IDS.iter().enumerate() {
        let index = usize::try_from(id).expect("a 64-bit target");
        let value = Value::new(id, IDS[(i + 1) % IDS.len()]);
        let ops = [
            BaseOp::Read,
            BaseOp::Write(value),
            BaseOp::ReadMax,
            BaseOp::WriteMax(value),
            BaseOp::Cas {
                expected: Value::INITIAL,
                new: value,
            },
        ];
        let responses = [
            BaseResponse::ReadValue(value),
            BaseResponse::WriteAck,
            BaseResponse::MaxValue(value),
            BaseResponse::WriteMaxAck,
            BaseResponse::CasOld(value),
        ];
        let time = pushed.len() as u64;
        for op in [HighOp::Write(id), HighOp::Read] {
            pushed.push(Event::Invoke {
                time,
                client: ClientId::new(i),
                high_op: HighOpId::new(id),
                op,
            });
        }
        for response in [HighResponse::WriteAck, HighResponse::ReadValue(id)] {
            pushed.push(Event::Return {
                time,
                client: ClientId::new(index),
                high_op: HighOpId::new(id),
                response,
            });
        }
        for op in ops {
            for high_op in [None, Some(HighOpId::new(id))] {
                pushed.push(Event::Trigger {
                    time,
                    client: ClientId::new(index),
                    high_op,
                    op_id: OpId::new(id),
                    object: ObjectId::new(i),
                    op,
                });
                // The ids around it packed, only the high-level one wide.
                pushed.push(Event::Trigger {
                    time,
                    client: ClientId::new(1),
                    high_op,
                    op_id: OpId::new(2),
                    object: ObjectId::new(3),
                    op,
                });
            }
        }
        for response in responses {
            pushed.push(Event::Respond {
                time,
                client: ClientId::new(index),
                op_id: OpId::new(id),
                object: ObjectId::new(index),
                response,
            });
        }
        pushed.push(Event::ServerCrash {
            time,
            server: ServerId::new(index),
        });
        pushed.push(Event::ClientCrash {
            time,
            client: ClientId::new(index),
        });
    }
    let mut history = History::new();
    for &event in &pushed {
        history.push(event);
    }
    assert!(history.events().eq(pushed.iter().copied()));
}
