//! Differential test of `History`'s segmented event log against a plain
//! `VecDeque<Event>` model of the retention rules: random pushes
//! interleaved with recording-mode switches, over ring capacities on both
//! sides of the log's 1024-event segments. After every action the retained
//! events, every `events_since` cursor and the `total`, `retained`,
//! `evicted` and `peak` counts must match the model.

use proptest::prelude::*;
use regemu_fpsm::history::{History, RecordingMode};
use regemu_fpsm::{ClientId, Event};
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

/// Asserts that `history` and `model` retain the same events and report the
/// same counts; with `every_cursor`, also compares `events_since(s)` for
/// every `s` in `0..=total + 1`, otherwise for the cursors next to the
/// eviction point and the end.
fn assert_same(history: &History, model: &Model, every_cursor: bool) {
    assert_eq!(history.total_events(), model.total());
    assert_eq!(history.retained_events(), model.events.len());
    assert_eq!(history.evicted_events(), model.evicted);
    assert_eq!(history.peak_retained_events(), model.peak);
    assert!(history.events().eq(model.events.iter()));
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
                    tail.eq(model.events.iter().skip(skip)),
                    "events_since({seq}) differs"
                );
            }
        }
    }
}

/// One action of a random run: push `count` events, or switch to `MODES[i]`.
#[derive(Clone, Copy, Debug)]
enum Action {
    Push(usize),
    SetMode(usize),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0usize..1_500).prop_map(Action::Push),
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
                Action::Push(count) => {
                    for _ in 0..count {
                        time += 1;
                        let event = Event::ClientCrash {
                            time,
                            client: ClientId::new(time as usize % 3),
                        };
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
            let event = Event::ClientCrash {
                time,
                client: ClientId::new(0),
            };
            history.push(event);
            model.push(event);
            assert_same(&history, &model, false);
        }
    }
}
