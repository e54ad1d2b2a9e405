//! Recorded ranks replay a run, whichever scheduler made it.
//!
//! A [`DecisionRecord`]'s rank indexes the deliverable operations in
//! ascending id order, which is nobody's choice but the run's: a stream
//! recorded with `enable_decision_trace()` under any scheduler replays
//! through [`FairDriver::replaying`] under any seed and the same crash plan,
//! event for event and record for record. Cut short, a stream hands over to
//! a deterministic seeded tail; and any `u32` stream is a valid schedule.

use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{
    CrashPlan, DecisionRecord, Event, FairDriver, HighOp, Scheduler, ServerId, Simulation,
};
use regemu_workloads::SchedulerSpec;

fn params() -> Params {
    Params::new(2, 1, 4).unwrap()
}

/// SplitMix64: the environment's own stream, independent of any scheduler.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const ROUNDS: usize = 200;

/// `ROUNDS` steps of `scheduler` while two writers and two readers start
/// operations whenever the environment's stream says so and they are idle.
/// Identical picks give identical environments.
fn run(kind: EmulationKind, mut scheduler: Box<dyn Scheduler>, env_seed: u64) -> Simulation {
    let emulation = kind.build(params());
    let mut sim = emulation.build_simulation();
    sim.enable_decision_trace();
    let clients = [
        sim.register_client(emulation.writer_protocol(0)),
        sim.register_client(emulation.writer_protocol(1)),
        sim.register_client(emulation.reader_protocol()),
        sim.register_client(emulation.reader_protocol()),
    ];
    let (mut env, mut value) = (env_seed, 0);
    for _ in 0..ROUNDS {
        for (slot, &client) in clients.iter().enumerate() {
            if sim.is_client_idle(client) && next(&mut env) % 3 == 0 {
                let op = if slot < 2 {
                    value += 1;
                    HighOp::Write(value)
                } else {
                    HighOp::Read
                };
                sim.invoke(client, op).unwrap();
            }
        }
        scheduler.step(&mut sim).unwrap();
    }
    sim
}

fn observed(sim: &Simulation) -> (Vec<Event>, Vec<DecisionRecord>) {
    (
        sim.history().events().collect(),
        sim.decision_trace().to_vec(),
    )
}

fn ranks(sim: &Simulation) -> Vec<u32> {
    sim.decision_trace().iter().map(|d| d.choice).collect()
}

#[test]
fn every_scheduler_replays_through_a_fair_driver_with_another_seed() {
    let params = params();
    let crash_f = CrashPlan::none().crash_at(40, ServerId::new(params.n - 1));
    for spec in SchedulerSpec::ALL {
        for kind in EmulationKind::ALL {
            for plan in [CrashPlan::none(), crash_f.clone()] {
                for seed in 0..6 {
                    let recorded = run(kind, spec.build(seed, plan.clone(), params), seed);
                    let replayer = FairDriver::replaying(seed ^ 0xFFFF, ranks(&recorded))
                        .with_crash_plan(plan.clone());
                    let replayed = run(kind, Box::new(replayer), seed);
                    assert_eq!(
                        observed(&replayed),
                        observed(&recorded),
                        "{spec} {kind} crashes {} seed {seed}",
                        plan.remaining()
                    );
                }
            }
        }
    }
}

/// One write then one read on the space-optimal construction under a fair
/// driver replaying `decisions` before its tail seeded with `tail_seed`.
fn write_then_read(decisions: Vec<u32>, tail_seed: u64) -> Simulation {
    let emulation = EmulationKind::SpaceOptimal.build(params());
    let mut sim = emulation.build_simulation();
    sim.enable_decision_trace();
    let writer = sim.register_client(emulation.writer_protocol(0));
    let reader = sim.register_client(emulation.reader_protocol());
    let mut driver = FairDriver::replaying(tail_seed, decisions);
    let w = sim.invoke(writer, HighOp::Write(3)).unwrap();
    driver.run_until_complete(&mut sim, w, 50_000).unwrap();
    let r = sim.invoke(reader, HighOp::Read).unwrap();
    driver.run_until_complete(&mut sim, r, 50_000).unwrap();
    sim
}

#[test]
fn a_truncated_stream_falls_back_to_a_deterministic_seeded_tail() {
    let recorded = write_then_read(Vec::new(), 99);
    let decisions = ranks(&recorded);
    assert!(decisions.len() >= 4, "need a non-trivial stream");

    // At every truncation point, (prefix, tail seed) is a pure function —
    // two runs are byte-identical — the prefix is replayed as recorded, and
    // a different tail seed still completes (the fallback is fair, not
    // wedged).
    for cut in 0..=decisions.len() {
        let prefix = decisions[..cut].to_vec();
        let a = write_then_read(prefix.clone(), 7);
        assert_eq!(observed(&a), observed(&write_then_read(prefix.clone(), 7)));
        assert_eq!(ranks(&a)[..cut], prefix[..]);
        write_then_read(prefix, 8);
    }
    // The whole stream needs no tail: any seed replays the recorded run.
    assert_eq!(
        observed(&write_then_read(decisions, 7)),
        observed(&recorded)
    );
}

#[test]
fn arbitrary_rank_streams_never_index_out_of_bounds() {
    // Ranks are reduced modulo the candidate count, so ANY u32 stream is a
    // valid schedule — including the boundary ranks a mutator loves.
    let hostile: Vec<Vec<u32>> = vec![
        vec![u32::MAX; 64],
        vec![0; 64],
        (0..64)
            .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
            .collect(),
        (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
        vec![1, 2, 3, u32::MAX - 1, u32::MAX, 0, 7, 11],
    ];
    for stream in hostile {
        // Completes without panicking; determinism still holds.
        let a = write_then_read(stream.clone(), 5);
        let b = write_then_read(stream, 5);
        assert_eq!(observed(&a), observed(&b));
    }
}
