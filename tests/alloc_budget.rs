//! Heap allocations per triggered low-level operation on the simulator's
//! step path, measured with a counting global allocator.
//!
//! The step path (protocol callback, trigger buffer, pending slab, event
//! log) reuses its buffers, so after a warm-up a fair run allocates almost
//! nothing per low-level operation. What remains is the interval digest
//! (one tree node per high-level operation) and, in `Full` mode, one event
//! segment per few hundred triggers. This binary holds its own
//! `#[global_allocator]`, so it is a test target of its own.

use regemu::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell` with no
// destructor, so updating it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// High-level operations per run; the first quarter is the warm-up.
const OPS: usize = 2_000;
/// Allowed heap allocations per triggered low-level operation.
const BUDGET: f64 = 0.05;

/// Allocations per trigger of a fair `(4,1,5)` run of `kind` recording
/// under `mode`, counted after the first quarter of the operations.
fn allocations_per_trigger(kind: EmulationKind, mode: RecordingMode) -> f64 {
    let mut run = Scenario::new(Params::new(4, 1, 5).expect("valid parameters"))
        .emulation(kind)
        .workload(WorkloadSpec::RandomMixed {
            readers: 2,
            total: OPS,
            write_percent: 50,
        })
        .scheduler(SchedulerSpec::Fair)
        .recording(mode)
        .check(ConsistencyCheck::None)
        .seed(7)
        .build();
    while run.completed_ops() < OPS / 4 {
        assert!(
            run.step().expect("the warm-up completes"),
            "run ended early"
        );
    }
    let (allocs_before, triggers_before) = (allocations(), run.history().trigger_count());
    while run.step().expect("the run completes") {}
    let allocs = allocations() - allocs_before;
    let triggers = run.history().trigger_count() - triggers_before;
    assert_eq!(run.completed_ops(), OPS);
    allocs as f64 / triggers as f64
}

/// Allocations per trigger of a fair `(4,1,5)` run of `kind` driven through
/// [`drive`] by a fair driver whose crash plan holds one crash scheduled past
/// the run's end, so the plan stays non-empty and is consulted on every
/// step. `drive` cannot be paused after a warm-up, so the warm-up is a
/// second run of the first quarter of the operations, and the reading is
/// what the full run allocated beyond it.
fn allocations_per_trigger_with_a_pending_crash(kind: EmulationKind) -> f64 {
    let params = Params::new(4, 1, 5).expect("valid parameters");
    let run = |total: usize| {
        let emulation = kind.build(params);
        let workload = WorkloadSpec::RandomMixed {
            readers: 2,
            total,
            write_percent: 50,
        }
        .instantiate(params.k, 7);
        let plan = CrashPlan::none().crash_at(Time::MAX, ServerId::new(0));
        let mut driver = FairDriver::new(7).with_crash_plan(plan);
        let allocs_before = allocations();
        let report = drive(
            emulation.as_ref(),
            &workload,
            &mut driver,
            ConsistencyCheck::None,
            100_000,
            false,
        )
        .expect("the run completes");
        assert_eq!(report.completed_ops, total);
        (
            allocations() - allocs_before,
            report.metrics.low_level_triggers,
        )
    };
    let (warm_up_allocs, warm_up_triggers) = run(OPS / 4);
    let (allocs, triggers) = run(OPS);
    (allocs - warm_up_allocs) as f64 / (triggers - warm_up_triggers) as f64
}

#[test]
fn steady_state_step_path_stays_within_the_allocation_budget() {
    // One thread per construction: the counter is per thread, so the runs
    // do not see each other's allocations.
    let readings: Vec<(EmulationKind, String, f64)> = std::thread::scope(|scope| {
        let runs: Vec<_> = EmulationKind::ALL
            .into_iter()
            .map(|kind| {
                scope.spawn(move || {
                    [
                        RecordingMode::Full,
                        RecordingMode::Digest,
                        RecordingMode::Ring(64),
                    ]
                    .map(|mode| (kind, mode.to_string(), allocations_per_trigger(kind, mode)))
                    .into_iter()
                    .chain([(
                        kind,
                        "full, crash pending".to_string(),
                        allocations_per_trigger_with_a_pending_crash(kind),
                    )])
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        runs.into_iter()
            .flat_map(|run| run.join().expect("a measuring thread panicked"))
            .collect()
    });
    let mut over = Vec::new();
    for (kind, mode, per_trigger) in readings {
        println!("{kind} {mode}: {per_trigger:.4} allocations per trigger");
        if per_trigger > BUDGET {
            over.push(format!("{kind} {mode}: {per_trigger:.4}"));
        }
    }
    assert!(
        over.is_empty(),
        "above {BUDGET} allocations per trigger: {over:?}"
    );
}
