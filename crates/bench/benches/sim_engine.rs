//! Criterion bench: raw throughput of the fault-prone shared-memory
//! simulation engine (trigger + deliver cycles), so regressions in the
//! substrate are visible independently of the emulation algorithms.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::prelude::*;
use regemu_workloads::{
    ConsistencyCheck, CrashPlanSpec, Issuer, Scenario, SchedulerSpec, Workload, WorkloadOp,
    WorkloadSpec,
};

/// A client that keeps one read outstanding against each register and
/// completes once every acknowledgement arrived. `remaining` is reset from
/// `targets` on each invocation; initialize it to 0.
struct FanoutClient {
    targets: Vec<ObjectId>,
    remaining: usize,
}

impl ClientProtocol for FanoutClient {
    fn on_invoke(&mut self, _op: HighOp, ctx: &mut Context<'_>) {
        self.remaining = self.targets.len();
        for b in &self.targets {
            ctx.trigger(*b, BaseOp::Read);
        }
    }

    fn on_response(&mut self, _delivery: Delivery, ctx: &mut Context<'_>) {
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 && !ctx.has_completed() {
            ctx.complete(HighResponse::ReadValue(0));
        }
    }
}

fn build(servers: usize) -> Simulation {
    let mut topology = Topology::new(servers);
    topology.add_object_per_server(ObjectKind::Register);
    Simulation::new(topology, SimConfig::unchecked())
}

fn bench_invoke_deliver_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/invoke_deliver_cycle");
    for servers in [3usize, 9, 27] {
        group.bench_with_input(
            BenchmarkId::from_parameter(servers),
            &servers,
            |b, &servers| {
                b.iter_batched(
                    || {
                        let mut sim = build(servers);
                        let targets: Vec<ObjectId> = sim.topology().objects().collect();
                        let client = sim.register_client(Box::new(FanoutClient {
                            targets,
                            remaining: 0,
                        }));
                        (sim, client)
                    },
                    |(mut sim, client)| {
                        let op = sim.invoke(client, HighOp::Read).unwrap();
                        let pending: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
                        for op_id in pending {
                            sim.deliver(op_id).unwrap();
                        }
                        assert!(sim.result_of(op).is_some());
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_fair_driver_quiescence(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/fair_driver_quiescence");
    for servers in [5usize, 25] {
        group.bench_with_input(
            BenchmarkId::from_parameter(servers),
            &servers,
            |b, &servers| {
                b.iter_batched(
                    || {
                        let mut sim = build(servers);
                        let targets: Vec<ObjectId> = sim.topology().objects().collect();
                        let client = sim.register_client(Box::new(FanoutClient {
                            targets,
                            remaining: 0,
                        }));
                        sim.invoke(client, HighOp::Read).unwrap();
                        (sim, FairDriver::new(7))
                    },
                    |(mut sim, mut driver)| {
                        driver.run_until_quiescent(&mut sim, 10_000).unwrap();
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Many rounds of trigger + deliver through the same simulation: stresses the
/// pending-operation store (insert/remove/iterate) and `result_of` with an
/// ever-growing number of completed operations.
fn bench_pending_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/pending_churn");
    for rounds in [64usize, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(rounds),
            &rounds,
            |b, &rounds| {
                b.iter_batched(
                    || {
                        let mut sim = build(9);
                        let targets: Vec<ObjectId> = sim.topology().objects().collect();
                        let client = sim.register_client(Box::new(FanoutClient {
                            targets,
                            remaining: 0,
                        }));
                        (sim, client)
                    },
                    |(mut sim, client)| {
                        for _ in 0..rounds {
                            let op = sim.invoke(client, HighOp::Read).unwrap();
                            let pending: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
                            for op_id in pending {
                                sim.deliver(op_id).unwrap();
                            }
                            assert!(sim.result_of(op).is_some());
                        }
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Capturing `RunMetrics` at the end of a long run: stresses the history
/// digests (touched/written sets, point contention, trigger/respond counts).
fn bench_metrics_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/metrics_capture");
    for rounds in [64usize, 256] {
        let mut sim = build(9);
        let targets: Vec<ObjectId> = sim.topology().objects().collect();
        let client = sim.register_client(Box::new(FanoutClient {
            targets,
            remaining: 0,
        }));
        for _ in 0..rounds {
            sim.invoke(client, HighOp::Read).unwrap();
            let pending: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
            for op_id in pending {
                sim.deliver(op_id).unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &sim, |b, sim| {
            b.iter(|| RunMetrics::capture(sim));
        });
    }
    group.finish();
}

/// End-to-end scenario run against the space-optimal emulation: the
/// composite path every experiment binary and the sweep harness go through.
fn bench_end_to_end_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/end_to_end_workload");
    for ops in [50usize, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(ops), &ops, |b, &ops| {
            let params = Params::new(3, 1, 5).unwrap();
            let scenario = Scenario::new(params)
                .emulation(EmulationKind::SpaceOptimal)
                .workload(WorkloadSpec::RandomMixed {
                    readers: 2,
                    total: ops,
                    write_percent: 50,
                })
                .check(ConsistencyCheck::None)
                .seed(7);
            b.iter(|| scenario.run().unwrap());
        });
    }
    group.finish();
}

/// Many clients with overlapping (non-sequential) operations: stresses the
/// runner's in-flight bookkeeping. Before the `Scenario` engine this was a
/// linear `retain` over a `Vec` of outstanding ops per issued operation
/// (O(clients²) per round); the engine now goes through the simulation's
/// per-client state, O(1) per issue.
fn bench_outstanding_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/outstanding_ops");
    for writers in [16usize, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(writers),
            &writers,
            |b, &writers| {
                let params = Params::new(writers, 1, 3).unwrap();
                // Rounds of one concurrent write per writer, with a
                // sequential read as a round barrier.
                let mut steps = Vec::new();
                for _ in 0..4 {
                    for w in 0..writers {
                        steps.push(WorkloadOp {
                            issuer: Issuer::Writer(w),
                            op: HighOp::Write(w as u64 + 1),
                            sequential: false,
                        });
                    }
                    steps.push(WorkloadOp {
                        issuer: Issuer::Reader(0),
                        op: HighOp::Read,
                        sequential: true,
                    });
                }
                let scenario = Scenario::new(params)
                    .emulation(EmulationKind::AbdMaxRegister)
                    .workload_steps(Workload::from_steps(steps))
                    .check(ConsistencyCheck::None)
                    .seed(11);
                b.iter(|| scenario.run().unwrap());
            },
        );
    }
    group.finish();
}

/// Long runs that leave a pile of operations pending for good. Read the rows
/// as time per operation: 4× the operations should take about 4× as long, and
/// a row that grows faster has something walking the pile.
///
/// * `adversary-cover` — register bank, the construction whose pile grows
///   with the run: `CoverWrites` withholds the writes of one server. Like
///   every strategy, it is asked once per operation.
/// * `fair+crash-f`, `round-robin+crash-f`, `delayed+crash-f` — the same pile
///   made by a crash: operations stranded on the crashed server stay pending,
///   so the pending window spans every id allocated since the first of them.
///   A pick that walks `deliverable_ops()` instead of the step loop's kept
///   candidates turns these rows quadratic.
/// * `space-optimal/adversary-cover` — only 16 or so operations pending, but
///   one of them old: the window is as long as above and almost all of it
///   drained. A pending store that gives drained slots back at the tail, only
///   to pad them in again on the next insert, turns this row quadratic.
fn bench_withheld_pile(c: &mut Criterion) {
    use SchedulerSpec::{CoverAdversary, Delayed, Fair, RoundRobin};
    let mut group = c.benchmark_group("sim_engine/withheld_pile");
    let params = Params::new(4, 1, 5).unwrap();
    let (bank, optimal) = (EmulationKind::RegisterBank, EmulationKind::SpaceOptimal);
    let (none, crash_f) = (CrashPlanSpec::None, CrashPlanSpec::CrashF);
    let rows = [
        ("adversary-cover", bank, CoverAdversary, none),
        ("fair+crash-f", bank, Fair, crash_f),
        ("round-robin+crash-f", bank, RoundRobin, crash_f),
        ("delayed+crash-f", bank, Delayed, crash_f),
        (
            "space-optimal/adversary-cover",
            optimal,
            CoverAdversary,
            none,
        ),
    ];
    for (label, emulation, scheduler, crashes) in rows {
        for ops in [1_000, 4_000, 16_000] {
            let scenario = Scenario::new(params)
                .emulation(emulation)
                .workload(WorkloadSpec::RandomMixed {
                    readers: 2,
                    total: ops,
                    write_percent: 50,
                })
                .scheduler(scheduler)
                .crashes(crashes)
                .check(ConsistencyCheck::None)
                .seed(7);
            group.bench_with_input(BenchmarkId::new(label, ops), &scenario, |b, scenario| {
                b.iter(|| scenario.run().unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_invoke_deliver_cycle,
    bench_fair_driver_quiescence,
    bench_pending_churn,
    bench_metrics_capture,
    bench_end_to_end_workload,
    bench_outstanding_ops,
    bench_withheld_pile
);
criterion_main!(benches);
