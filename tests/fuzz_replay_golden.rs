//! Golden replays: what the fuzzer executes for a case is pinned
//! byte-for-byte.
//!
//! A `FuzzCase` replays its decision ranks while they last and lets its
//! seeded tail finish the run, so the tail's seeded stream must advance on
//! replayed steps exactly as it always has — otherwise every stored repro and
//! paused fuzz spool would replay into a different run. Two sections:
//!
//! 1. *Replayed cases.* A stream recorded under one tail seed, cut at several
//!    points, and hostile rank streams (`u32::MAX`, `0`, alternating), each
//!    replayed with two tail seeds, with and without a server crash, on
//!    space-optimal, register-bank and `faulty-weak-quorum`. Every event, the
//!    whole `DecisionRecord` stream and the fuzzer's own verdict are pinned;
//!    the fuzzer's closed form of each passing case must equal the ranks the
//!    pinned run recorded.
//! 2. *One seeded-bug campaign.* `FuzzReport::to_text()`, the admitted
//!    corpus, and the shrunk failure report.
//!
//! Regenerate with `REGEMU_REGEN_GOLDEN=1 cargo test --test fuzz_replay_golden`
//! only after an *intentional* semantic change (and say so in the PR).

use regemu::fpsm::Event;
use regemu::fuzz::shrink_failure;
use regemu::prelude::*;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = "tests/golden/fuzz_replay.txt";

/// The scheduler the fuzzer runs a case under.
fn replayer(case: &FuzzCase, plan: CrashPlan) -> Box<dyn Scheduler> {
    Box::new(FairDriver::replaying(case.seed, case.decisions.clone()).with_crash_plan(plan))
}

/// What a run did, copied out of the simulation `drive` owns.
#[derive(Default)]
struct Seen {
    events: Vec<Event>,
    decisions: Vec<DecisionRecord>,
}

/// Traces decisions from the first step and copies out what happened after
/// every step.
struct Recording {
    inner: Box<dyn Scheduler>,
    seen: Rc<RefCell<Seen>>,
}

impl Scheduler for Recording {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        sim.enable_decision_trace();
        let result = self.inner.step(sim);
        let mut seen = self.seen.borrow_mut();
        let known = seen.events.len();
        seen.events.extend(sim.history().events().skip(known));
        seen.decisions = sim.decision_trace().to_vec();
        result
    }
}

/// The crash plan a case's `crashes` stand for (as the fuzzer builds it).
fn plan_of(case: &FuzzCase) -> CrashPlan {
    case.crashes
        .iter()
        .fold(CrashPlan::none(), |plan, &(at, server)| {
            plan.crash_at(at, ServerId::new(server))
        })
}

/// Runs `case` the way the fuzzer does — the full configured workload,
/// the case's crash plan, the replay scheduler — and renders it.
fn render_case(config: &FuzzConfig, case: &FuzzCase, header: &str, out: &mut String) {
    let emulation = config.emulation.build(config.params);
    let workload = config.workload.instantiate(config.params.k, config.seed);
    assert_eq!(case.workload_len, workload.len());
    let seen = Rc::new(RefCell::new(Seen::default()));
    let mut scheduler = Recording {
        inner: replayer(case, plan_of(case)),
        seen: Rc::clone(&seen),
    };
    let driven = drive(
        emulation.as_ref(),
        &workload,
        &mut scheduler,
        config.check,
        config.max_steps_per_op,
        false,
    );
    let seen = seen.borrow();

    writeln!(out, "== {header} ==").unwrap();
    for event in &seen.events {
        writeln!(out, "{event}").unwrap();
    }
    write!(out, "decisions:").unwrap();
    for d in &seen.decisions {
        write!(out, " {}:{}/{}", d.time, d.choice, d.candidates).unwrap();
    }
    writeln!(out).unwrap();
    if let Err(e) = driven {
        writeln!(out, "drive: {e}").unwrap();
    }

    // The fuzzer's own execution of the same case.
    let mut fuzzer = Fuzzer::new(config.clone());
    fuzzer.ingest(case.clone());
    match (fuzzer.failures(), fuzzer.corpus()) {
        ([failure], []) => writeln!(out, "fuzz: {}", failure.verdict).unwrap(),
        ([], [closed]) => {
            let ranks: Vec<u32> = seen.decisions.iter().map(|d| d.choice).collect();
            assert_eq!(
                closed.decisions, ranks,
                "{header}: fuzzer ran another schedule"
            );
            writeln!(out, "fuzz: pass").unwrap();
        }
        _ => panic!("{header}: one ingest must yield one corpus entry or one failure"),
    }
}

fn replayed_cases() -> String {
    let params = Params::new(2, 1, 4).unwrap();
    let emulations = [
        FuzzEmulation::Kind(EmulationKind::SpaceOptimal),
        FuzzEmulation::Kind(EmulationKind::RegisterBank),
        FuzzEmulation::Faulty(FaultyKind::WeakQuorumWrite),
    ];
    let mut out = String::new();
    for emulation in emulations {
        let config =
            FuzzConfig::new(params)
                .emulation(emulation)
                .workload(WorkloadSpec::RandomMixed {
                    readers: 2,
                    total: 8,
                    write_percent: 50,
                });
        let len = config.workload.instantiate(params.k, config.seed).len();
        for crashes in [vec![], vec![(40, params.n - 1)]] {
            // The stream to cut: the fuzzer's closed form of the seed case
            // under tail seed 3.
            let recorded = FuzzCase {
                crashes: crashes.clone(),
                ..FuzzCase::seed_case(len, 3)
            };
            let mut fuzzer = Fuzzer::new(config.clone());
            fuzzer.ingest(recorded);
            let stream = fuzzer.corpus()[0].decisions.clone();
            assert!(stream.len() >= 12, "{emulation}: a short recorded stream");

            // Hostile streams run out halfway, so a seeded tail follows them.
            let (third, half) = (stream.len() / 3, stream.len() / 2);
            let alternating: Vec<u32> = (0..half)
                .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
                .collect();
            let streams = [
                ("cut-0", Vec::new()),
                ("cut-third", stream[..third].to_vec()),
                ("cut-two-thirds", stream[..2 * third].to_vec()),
                ("full", stream.clone()),
                ("max", vec![u32::MAX; half]),
                ("zero", vec![0; half]),
                ("alternating", alternating),
            ];
            for (name, decisions) in streams {
                for tail_seed in [7, 8] {
                    let case = FuzzCase {
                        decisions: decisions.clone(),
                        crashes: crashes.clone(),
                        ..FuzzCase::seed_case(len, tail_seed)
                    };
                    let header = format!(
                        "{emulation} {params} crashes={crashes:?} stream={name} tail-seed={tail_seed}"
                    );
                    render_case(&config, &case, &header, &mut out);
                }
            }
        }
    }
    out
}

fn seeded_bug_campaign() -> String {
    let config = FuzzConfig::new(Params::new(1, 1, 3).unwrap())
        .emulation(FuzzEmulation::Faulty(FaultyKind::WeakQuorumWrite))
        .seed(61525)
        .budget(60);
    let mut fuzzer = Fuzzer::new(config.clone());
    let report = fuzzer.run();
    assert!(report.found(), "the seeded bug must be found");
    let mut out = report.to_text();
    for case in fuzzer.corpus() {
        writeln!(
            out,
            "corpus seed={} crashes={:?} decisions={:?}",
            case.seed, case.crashes, case.decisions
        )
        .unwrap();
    }
    let shrunk = shrink_failure(&config, &report.failures[0]);
    out.push_str(&shrunk.to_text());
    out
}

#[test]
fn replayed_fuzz_cases_match_the_recorded_golden_file() {
    let trace = replayed_cases() + &seeded_bug_campaign();
    if std::env::var_os("REGEMU_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect(
        "golden trace missing; regenerate with REGEMU_REGEN_GOLDEN=1 cargo test --test fuzz_replay_golden",
    );
    assert!(
        trace == golden,
        "a replayed fuzz case no longer reproduces {GOLDEN} (first difference at byte {})",
        trace
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.len().min(golden.len())),
    );
}
