//! Golden-trace replay of the PR-1 smoke-test scenario.
//!
//! The full event trace (every invoke / trigger / respond / return, with
//! logical times and ids) of one write/read round-trip through each Table 1
//! emulation under `FairDriver::new(7)` was recorded before the simulator's
//! interior moved from `BTreeMap`s to dense arenas. Re-running the scenario
//! must reproduce that trace byte-for-byte: the arena representation is an
//! implementation detail and must not change scheduling, id assignment or
//! event ordering.
//!
//! Regenerate with `REGEMU_REGEN_GOLDEN=1 cargo test --test history_replay`
//! after an *intentional* semantic change (and say so in the PR).

use regemu::prelude::*;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/smoke_history.txt";

fn render_smoke_trace() -> String {
    let params = Params::new(2, 1, 4).expect("k=2, f=1, n=4 is a valid parameter point");
    let mut out = String::new();
    for emulation in EmulationKind::ALL.map(|kind| kind.build(params)) {
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let reader = sim.register_client(emulation.reader_protocol());
        let mut driver = FairDriver::new(7);

        let write = sim.invoke(writer, HighOp::Write(41)).expect("invoke write");
        driver
            .run_until_complete(&mut sim, write, 50_000)
            .expect("write completes");
        let read = sim.invoke(reader, HighOp::Read).expect("invoke read");
        driver
            .run_until_complete(&mut sim, read, 50_000)
            .expect("read completes");

        writeln!(out, "== {} ({params}) ==", emulation.name()).unwrap();
        for event in sim.history().events() {
            writeln!(out, "{event}").unwrap();
        }
        let metrics = RunMetrics::capture(&sim);
        writeln!(
            out,
            "metrics: consumption={} covered={} contention={} triggers={} responses={}",
            metrics.resource_consumption(),
            metrics.covered_count(),
            metrics.point_contention,
            metrics.low_level_triggers,
            metrics.low_level_responses,
        )
        .unwrap();
    }
    out
}

#[test]
fn smoke_scenario_replays_the_recorded_history_byte_identically() {
    let trace = render_smoke_trace();
    if std::env::var_os("REGEMU_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden trace missing; regenerate with REGEMU_REGEN_GOLDEN=1 cargo test --test history_replay",
    );
    assert!(
        trace == golden,
        "replayed smoke-test history diverged from the recorded golden trace\n\
         (first difference at byte {})",
        trace
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.len().min(golden.len())),
    );
}
