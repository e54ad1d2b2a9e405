//! `campaign`: thousands of tiny cases through the sharded in-process
//! campaign, then a coverage-guided fuzz budget.
//!
//! Each case is ~35 high-level operations, so the simulator's hot loop does
//! little and the per-case fixed cost dominates: building the emulation and
//! the scenario, capturing metrics, writing and parsing report JSON, the
//! spool protocol, mutation and coverage bookkeeping.
//!
//! On this workload the unit of work behind `ops_per_s` is one *case* (a
//! sweep case or a fuzz iteration): it is the figure ISSUE 11 calls
//! `cases_per_s`.

use crate::harness::{Ctx, Layers, Repeat, Verified, Workload};
use crate::trace::Tracer;
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{RecordingMode, RunMetrics};
use regemu_workloads::campaign::{
    init_spool, merge_shards, report_cases_from_json, run_campaign, run_shard, CampaignOptions,
};
use regemu_workloads::{
    run_sweep, standard_sweep, ConsistencyCheck, CrashPlanSpec, FuzzConfig, FuzzEmulation, Fuzzer,
    Scenario, SchedulerSpec, SweepConfig, SweepReport, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
/// Sized for the 2-core reference box.
const SWEEP_THREADS: usize = 2;
/// Fuzz mutants per repeat at divisor 1, split over [`FUZZ_STREAMS`]
/// independent fuzzers with master seeds `S`, `S + 1`, …: how fast one
/// fuzzer's corpus grows depends on its seed (±20 % in iterations per
/// second), and averaging over streams keeps the workload's speed a
/// property of the code, not of the seed.
const FUZZ_BUDGET: usize = 4_000;
const FUZZ_STREAMS: u64 = 4;

/// The documented violation, kept *outside* the timed sweep (see
/// [`sweep_config`]) and re-checked by every traced run so it is recorded,
/// not masked: `register-bank` at `(2,1,3)`, `mixed/60ops-50pct-c2`, fair
/// scheduler, no crashes, seed 2.
const KNOWN_VIOLATION_SEED: u64 = 2;

fn known_violation() -> Scenario {
    Scenario::new(Params::new(2, 1, 3).expect("(2,1,3) is feasible"))
        .emulation(EmulationKind::RegisterBank)
        .workload(MIXED)
        .scheduler(SchedulerSpec::Fair)
        .crashes(CrashPlanSpec::None)
        .check(ConsistencyCheck::WsRegular)
        .seed(KNOWN_VIOLATION_SEED)
}

const MIXED: WorkloadSpec = WorkloadSpec::RandomMixed {
    readers: 2,
    total: 60,
    write_percent: 50,
};

/// The sweep of one repeat: `standard_sweep()` points × all four
/// constructions × three workload shapes × {fair, delayed} × {no crash,
/// crash-f} × seeds `{S, S+1}`, checked for WS-Regularity.
///
/// Two cuts against the ISSUE's sizing. The grid keeps only points with
/// `n > 2f + 1`: at `n = 2f + 1` `register-bank` violates WS-Regularity for
/// roughly one seed in twenty (a correctness bug of its own, see
/// [`known_violation`]), and a benchmark workload must be one on which no
/// operation fails for *any* seed. And it keeps `k <= 6`, `f <= 2` so a
/// repeat takes about a second and a 10 s run holds several.
fn sweep_config(seed: u64, div: usize) -> SweepConfig {
    let mut grid: Vec<Params> = standard_sweep()
        .into_iter()
        .filter(|p| p.n > 2 * p.f + 1 && p.k <= 6 && p.f <= 2)
        .collect();
    grid.truncate((grid.len() / div).max(1));
    SweepConfig {
        grid,
        emulations: EmulationKind::ALL.to_vec(),
        workloads: vec![
            WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true,
            },
            MIXED,
            WorkloadSpec::ConcurrentReadWrite { rounds: 3 },
        ],
        schedulers: vec![SchedulerSpec::Fair, SchedulerSpec::Delayed],
        crash_plans: vec![CrashPlanSpec::None, CrashPlanSpec::CrashF],
        recordings: vec![RecordingMode::Full],
        seeds: vec![seed, seed + 1],
        check: ConsistencyCheck::WsRegular,
        max_steps_per_op: 100_000,
        threads: SWEEP_THREADS,
    }
}

/// What the fuzz streams of one repeat did, summed.
#[derive(Default)]
struct FuzzOutcome {
    iterations: usize,
    corpus_size: usize,
    failures: Vec<regemu_workloads::fuzz::FuzzFailure>,
}

impl FuzzOutcome {
    fn add(&mut self, report: regemu_workloads::FuzzReport) {
        self.iterations += report.iterations;
        self.corpus_size += report.corpus_size;
        self.failures.extend(report.failures);
    }
}

/// The config of fuzz stream `stream` (`0..FUZZ_STREAMS`).
fn fuzz_config(seed: u64, stream: u64, div: usize) -> FuzzConfig {
    FuzzConfig::new(Params::new(4, 1, 5).expect("(4,1,5) is feasible"))
        .emulation(FuzzEmulation::Kind(EmulationKind::SpaceOptimal))
        .workload(WorkloadSpec::WriteSequential {
            rounds: 3,
            read_after_each: true,
        })
        .check(ConsistencyCheck::WsRegular)
        .seed(seed + stream)
        .budget((FUZZ_BUDGET / FUZZ_STREAMS as usize / div).max(5))
}

pub struct Campaign {
    seed: u64,
    /// Fresh spool directories are minted under here, inside the checkout.
    spool_root: PathBuf,
    spools_minted: usize,
    /// The merged report and sweep wall clock of the latest repeat, for the
    /// untimed byte-identity check and the spool-overhead ratio.
    last_report: Option<SweepReport>,
    last_sweep_wall: Duration,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}

impl Campaign {
    /// A spool directory no earlier repeat used: `run_campaign` *resumes* an
    /// existing spool, which would turn the repeat into a no-op.
    fn fresh_spool(&mut self) -> Result<PathBuf, String> {
        self.spools_minted += 1;
        let spool = self
            .spool_root
            .join(format!("spool-{}", self.spools_minted));
        if spool.exists() {
            std::fs::remove_dir_all(&spool).map_err(|e| io_err(&spool, e))?;
        }
        Ok(spool)
    }

    fn remove_spool(spool: &Path) -> Result<(), String> {
        std::fs::remove_dir_all(spool).map_err(|e| io_err(spool, e))
    }

    /// Folds the sweep report and the fuzz outcome into the repeat.
    fn account(repeat: &mut Repeat, report: &SweepReport, fuzz: &FuzzOutcome) {
        let cases = (report.len() + fuzz.iterations) as u64;
        repeat.ops = cases;
        repeat.attempted = cases;
        let mut completed = 0u64;
        for result in report.results() {
            repeat.events += result.low_level_triggers + result.low_level_responses;
            completed += result.completed_ops as u64;
        }
        for failure in report.failures() {
            let case = &failure.case;
            repeat.failed += 1;
            repeat.failures.push(format!(
                "sweep case {} {} ({},{},{}) {} {} {} seed {}: {}",
                case.index,
                case.emulation,
                case.params.k,
                case.params.f,
                case.params.n,
                case.workload,
                case.scheduler,
                case.crashes,
                case.seed,
                failure
                    .violation
                    .as_deref()
                    .or(failure.error.as_deref())
                    .unwrap_or("inconsistent")
            ));
        }
        for failure in &fuzz.failures {
            repeat.failed += 1;
            repeat.failures.push(format!(
                "fuzz iteration {}: {} ({})",
                failure.iteration, failure.kind, failure.verdict
            ));
        }
        repeat.exact = vec![
            ("sweep.cases".to_string(), report.len() as u64),
            ("sweep.completed_ops".to_string(), completed),
            ("sweep.events".to_string(), repeat.events),
            ("fuzz.iterations".to_string(), fuzz.iterations as u64),
            ("fuzz.corpus_size".to_string(), fuzz.corpus_size as u64),
        ];
    }
}

impl Workload for Campaign {
    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        let spool_root = ctx
            .scratch
            .join("tmp")
            .join(format!("campaign-{}", std::process::id()));
        if spool_root.exists() {
            std::fs::remove_dir_all(&spool_root).map_err(|e| io_err(&spool_root, e))?;
        }
        std::fs::create_dir_all(&spool_root).map_err(|e| io_err(&spool_root, e))?;
        Ok(Campaign {
            seed: ctx.seed,
            spool_root,
            spools_minted: 0,
            last_report: None,
            last_sweep_wall: Duration::ZERO,
        })
    }

    fn repeat(&mut self, div: usize) -> Result<Repeat, String> {
        let config = sweep_config(self.seed, div);
        let spool = self.fresh_spool()?;
        let mut options = CampaignOptions::new(&spool);
        options.shards = SHARDS;
        options.worker_threads = SWEEP_THREADS;
        options.quiet = true;

        let started = Instant::now();
        let outcome = run_campaign(&config, &options).map_err(|e| format!("run_campaign: {e}"))?;
        let sweep_wall = started.elapsed();
        let report = outcome
            .report
            .ok_or("run_campaign stopped before merging")?;

        let started = Instant::now();
        let mut fuzz = FuzzOutcome::default();
        for stream in 0..FUZZ_STREAMS {
            fuzz.add(Fuzzer::new(fuzz_config(self.seed, stream, div)).run());
        }
        let fuzz_wall = started.elapsed();
        Self::remove_spool(&spool)?;

        let mut repeat = Repeat {
            wall: sweep_wall + fuzz_wall,
            ..Repeat::default()
        };
        Self::account(&mut repeat, &report, &fuzz);
        repeat.splits = vec![
            (
                "workloads.cases_per_s",
                repeat.ops as f64 / repeat.wall.as_secs_f64(),
            ),
            (
                "workloads.fuzz_iters_per_s",
                fuzz.iterations as f64 / fuzz_wall.as_secs_f64(),
            ),
            ("workloads.fuzz_corpus_size", fuzz.corpus_size as f64),
        ];
        self.last_report = Some(report);
        self.last_sweep_wall = sweep_wall;
        Ok(repeat)
    }

    /// The merged campaign report must serialize to the very bytes a direct
    /// `run_sweep` of the same config produces.
    fn verify(&mut self, div: usize) -> Result<Verified, String> {
        let merged = self
            .last_report
            .as_ref()
            .ok_or("verify ran before any repeat")?;
        let direct = run_sweep(&sweep_config(self.seed, div));
        let mut verified = Verified {
            attempted: 1,
            ..Verified::default()
        };
        if merged.to_json() != direct.to_json() {
            verified.failed = 1;
            verified
                .failures
                .push("merged campaign JSON differs from direct run_sweep JSON".to_string());
        }
        Ok(verified)
    }

    fn traced(
        &mut self,
        div: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Repeat, String> {
        let config = sweep_config(self.seed, div);
        let spool = self.fresh_spool()?;

        // The campaign by hand, through the three public functions
        // `run_campaign` is made of.
        let (manifest, init) = tracer.span("workloads.init_spool", "", |_| {
            init_spool(&spool, &config, SHARDS)
        });
        let manifest = manifest.map_err(|e| format!("init_spool: {e}"))?;
        let mut shards_wall = Duration::ZERO;
        for shard in 0..manifest.shards.len() {
            let (ran, wall) = tracer.span("workloads.run_shard", &format!("shard {shard}"), |_| {
                run_shard(&spool, shard, SWEEP_THREADS)
            });
            ran.map_err(|e| format!("run_shard {shard}: {e}"))?;
            shards_wall += wall;
        }
        let (report, merge) = tracer.span("workloads.merge_shards", "", |_| merge_shards(&spool));
        let report = report.map_err(|e| format!("merge_shards: {e}"))?;
        let mut fuzz = FuzzOutcome::default();
        let mut fuzz_wall = Duration::ZERO;
        for stream in 0..FUZZ_STREAMS {
            let (report, wall) =
                tracer.span("workloads.fuzz_run", &format!("stream {stream}"), |_| {
                    Fuzzer::new(fuzz_config(self.seed, stream, div)).run()
                });
            fuzz.add(report);
            fuzz_wall += wall;
        }
        Self::remove_spool(&spool)?;

        let mut repeat = Repeat {
            wall: init + shards_wall + merge + fuzz_wall,
            ..Repeat::default()
        };
        Self::account(&mut repeat, &report, &fuzz);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        layers.set("workloads.init_spool_ms", ms(init));
        layers.set("workloads.run_shard_ms", ms(shards_wall));
        layers.set("workloads.merge_shards_ms", ms(merge));

        // Probes, outside the traced repeat: the same cases without a spool.
        let started = Instant::now();
        let direct = run_sweep(&config);
        let direct_wall = started.elapsed();
        let mut single = config.clone();
        single.threads = 1;
        let started = Instant::now();
        std::hint::black_box(run_sweep(&single));
        let single_wall = started.elapsed();
        let cases = direct.len() as f64;
        layers.set(
            "workloads.sweep_cases_per_s",
            cases / direct_wall.as_secs_f64(),
        );
        layers.set(
            "workloads.sweep_cases_per_s_t1",
            cases / single_wall.as_secs_f64(),
        );
        layers.set(
            "workloads.sweep_thread_scaling",
            single_wall.as_secs_f64() / direct_wall.as_secs_f64(),
        );
        layers.set(
            "workloads.spool_overhead_ratio",
            self.last_sweep_wall.as_secs_f64() / direct_wall.as_secs_f64(),
        );
        let started = Instant::now();
        let json = direct.to_json();
        layers.set("workloads.sweep_to_json_ms", ms(started.elapsed()));
        let started = Instant::now();
        let parsed = report_cases_from_json(&json, Path::new("benchmark-probe"))
            .map_err(|e| format!("report_cases_from_json: {e}"))?;
        layers.set("workloads.json_parse_ms", ms(started.elapsed()));
        if parsed.len() != direct.len() {
            return Err("report JSON did not round-trip its case count".to_string());
        }

        // Per-case fixed costs, on a typical case of the sweep.
        const CALLS: u32 = 1_000;
        let typical =
            config.cases()[config.case_count() / 2].scenario(config.check, config.max_steps_per_op);
        let started = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(typical.build());
        }
        layers.set(
            "workloads.scenario_build_us",
            started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS),
        );
        let mut run = typical.build();
        run.run().map_err(|e| format!("typical case: {e}"))?;
        let started = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(RunMetrics::capture(run.sim()));
        }
        layers.set(
            "fpsm.metrics_capture_us",
            started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS),
        );

        // Record, do not mask, the violation the sweep grid steers around.
        let known = known_violation()
            .run()
            .map_err(|e| format!("known-violation case: {e}"))?;
        match &known.check_violation {
            Some(violation) => {
                layers.set("workloads.known_violation_repro", 1.0);
                eprintln!(
                    "  KNOWN VIOLATION still reproduces (outside the timed sweep): register-bank \
                     (2,1,3) {MIXED} fair none seed {KNOWN_VIOLATION_SEED}: {violation}"
                );
            }
            None => eprintln!(
                "  known violation no longer reproduces: register-bank (2,1,3) {MIXED} fair none \
                 seed {KNOWN_VIOLATION_SEED} is now WS-Regular"
            ),
        }
        Ok(repeat)
    }

    fn teardown(self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.spool_root).map_err(|e| io_err(&self.spool_root, e))
    }
}
