//! Criterion bench: cost of one high-level write+read pair for every
//! emulation of Table 1, at a common parameter point. This is the
//! "operation cost" companion of the space comparison — the space-optimal
//! register construction pays for its frugality with larger quorum scans.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use regemu_bounds::Params;
use regemu_core::{all_emulations, Emulation};
use regemu_fpsm::{FairDriver, HighOp, Scheduler};

fn bench_write_read_pair(c: &mut Criterion) {
    let params = Params::new(4, 1, 5).unwrap();
    let mut group = c.benchmark_group("emulation_ops/write_read_pair");
    for emulation in all_emulations(params) {
        group.bench_with_input(
            BenchmarkId::from_parameter(emulation.name()),
            &emulation,
            |b, emulation| {
                b.iter_batched(
                    || {
                        let mut sim = emulation.build_simulation();
                        let writer = sim.register_client(emulation.writer_protocol(0));
                        let reader = sim.register_client(emulation.reader_protocol());
                        (sim, writer, reader, FairDriver::new(11))
                    },
                    |(mut sim, writer, reader, mut driver)| {
                        let w = sim.invoke(writer, HighOp::Write(7)).unwrap();
                        driver.run_until_complete(&mut sim, w, 100_000).unwrap();
                        let r = sim.invoke(reader, HighOp::Read).unwrap();
                        driver.run_until_complete(&mut sim, r, 100_000).unwrap();
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_space_optimal_scaling_in_k(c: &mut Criterion) {
    // How the per-operation cost of Algorithm 2 grows with k (the collect
    // reads every register of the layout, whose size grows with k).
    let mut group = c.benchmark_group("emulation_ops/space_optimal_write_vs_k");
    for k in [1usize, 4, 8, 16] {
        let params = Params::new(k, 1, 5).unwrap();
        let emulation = regemu_core::SpaceOptimalEmulation::new(params);
        group.bench_with_input(
            BenchmarkId::from_parameter(k),
            &emulation,
            |b, emulation| {
                b.iter_batched(
                    || {
                        let mut sim = emulation.build_simulation();
                        let writer = sim.register_client(emulation.writer_protocol(0));
                        (sim, writer, FairDriver::new(3))
                    },
                    |(mut sim, writer, mut driver)| {
                        let w = sim.invoke(writer, HighOp::Write(1)).unwrap();
                        driver.run_until_complete(&mut sim, w, 200_000).unwrap();
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_write_read_pair,
    bench_space_optimal_scaling_in_k
);
criterion_main!(benches);
