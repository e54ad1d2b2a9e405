//! Workspace smoke test: one write/read round-trip through each of the four
//! emulations of Table 1 (`EmulationKind::ALL`) under a seeded [`FairDriver`],
//! exercising the whole stack — `bounds` (parameters), `core` (algorithms),
//! `fpsm` (simulator) — in a few milliseconds.

use regemu::prelude::*;

#[test]
fn quick_sweep_through_the_facade_is_deterministic_and_consistent() {
    let mut config = SweepConfig::quick();
    config.threads = 2;
    let parallel = run_sweep(&config);
    config.threads = 1;
    let serial = run_sweep(&config);
    assert_eq!(parallel.len(), config.case_count());
    assert!(parallel.all_consistent());
    assert_eq!(parallel.to_json(), serial.to_json());
    assert_eq!(parallel.to_csv(), serial.to_csv());
}

#[test]
fn every_emulation_round_trips_under_a_fair_driver() {
    let params = Params::new(2, 1, 4).expect("k=2, f=1, n=4 is a valid parameter point");

    for emulation in EmulationKind::ALL.map(|kind| kind.build(params)) {
        let mut sim = emulation.build_simulation();
        let writer = sim.register_client(emulation.writer_protocol(0));
        let reader = sim.register_client(emulation.reader_protocol());
        let mut driver = FairDriver::new(7);

        let write = sim
            .invoke(writer, HighOp::Write(41))
            .unwrap_or_else(|e| panic!("{}: write invocation failed: {e}", emulation.name()));
        driver
            .run_until_complete(&mut sim, write, 50_000)
            .unwrap_or_else(|e| panic!("{}: write did not complete: {e}", emulation.name()));
        assert_eq!(
            sim.result_of(write),
            Some(HighResponse::WriteAck),
            "{}: write must acknowledge",
            emulation.name()
        );

        let read = sim
            .invoke(reader, HighOp::Read)
            .unwrap_or_else(|e| panic!("{}: read invocation failed: {e}", emulation.name()));
        driver
            .run_until_complete(&mut sim, read, 50_000)
            .unwrap_or_else(|e| panic!("{}: read did not complete: {e}", emulation.name()));
        assert_eq!(
            sim.result_of(read),
            Some(HighResponse::ReadValue(41)),
            "{}: read must observe the completed write",
            emulation.name()
        );
    }
}
