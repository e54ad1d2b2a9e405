//! `campaign` — every campaign behind one binary: coordinate a sweep,
//! frontier or fuzz campaign over a spool directory, run one unit of it as
//! a worker, watch it, or replay a shrunk fuzz trace. Without a spool,
//! `sweep` and `frontier` run in this process on one thread pool, and
//! `fuzz` runs one fuzzer and shrinks its first failure.
//!
//! ```text
//! cargo run --release -p regemu-bench --bin campaign -- <SUBCOMMAND> [OPTIONS]
//!
//! SUBCOMMANDS:
//!   sweep     run/resume a sharded parameter sweep          (--spool optional)
//!   frontier  map measured space against the paper's bounds (--spool optional)
//!   fuzz      fuzz schedules, or run/resume a sharded fuzz campaign
//!                                                          (--spool optional)
//!   worker    run one (shard, round) unit of whatever campaign the spool holds
//!   status    dashboard over any spool
//!   replay    re-execute a recorded trace and print its verdict
//!
//! POOL OPTIONS (sweep, frontier, fuzz; all but --quiet need --spool):
//!   --spool DIR         spool directory (manifest, config, unit reports)
//!   --shards N          shard count for a fresh campaign (default 4;
//!                       resuming keeps the existing manifest's plan)
//!   --workers M         concurrent worker processes (default 2)
//!   --retries R         attempt budget per unit (default 3)
//!   --worker-bin PATH   binary spawned as `PATH worker ..` (default: this one)
//!   --in-process        run units inside this process instead of spawning
//!   --exit-after N      stop after completing N units (kill simulation;
//!                       rerun the same command to resume)
//!   --merge-only        only merge what the spool already holds, run nothing
//!   --quiet             no progress lines
//!
//! sweep OPTIONS:
//!   --worker-threads N  sweep threads per worker (default 1; needs --spool)
//!   --json PATH         merged report as JSON (- for stdout)
//!   --csv PATH          merged report as CSV (- for stdout)
//!   --quick             24-case grid (CI smoke) instead of the 96-case default
//!   --threads N         sweep threads (default: one per CPU core without a
//!                       spool; the per-worker count with one)
//!   --seeds a,b,..      scheduler seeds
//!   --grid k/f/n,..     parameter points
//!   --workload a,b      workload labels
//!   --schedulers a,b    scheduler axis (fair, round-robin, delayed,
//!                       adversary-cover, adversary-silence; or "all")
//!   --crash-plans a,b   crash-plan axis (none, crash-f; or "all")
//!   --crash-f           shorthand for --crash-plans crash-f
//!   --recording a,b     recording-mode axis (full, digest, ring:N)
//!   Without a spool and without --json/--csv, one summary line per
//!   emulation goes to stdout.
//!
//! frontier OPTIONS:
//!   --grid k/f/n,..     parameter points (an infeasible point, e.g.
//!                       n < 2f+1, is rejected with the bound-level reason;
//!                       default: the quick grid)
//!   --emulations a,b    constructions (or "all"; default all four)
//!   --seeds a,b,..      seeds (default 1,2)
//!   --schedulers a,b    schedulers (or "all"; default fair,adversary-cover)
//!   --crash-plans a,b   crash plans (or "all"; default none,crash-f)
//!   --rounds N          writes per writer in the workload (default 2)
//!   --threads N         sweep threads (per worker when sharded)
//!   --text PATH         rendered frontier table (- for stdout; default -)
//!   --json PATH / --csv PATH   frontier table as JSON / CSV
//!
//! fuzz OPTIONS:
//!   --out FILE          campaign report (- for stdout, default)
//!   --params k,f,n      parameter point (default 1,1,3)
//!   --emulation NAME    construction or seeded bug (default space-optimal)
//!   --workload LABEL    workload shape (default write-seq/r1+read)
//!   --check NAME        consistency condition (default ws-regular)
//!   --seed S            campaign master seed
//!   --budget B          TOTAL iteration budget across all streams
//!   with --spool only:
//!   --seed-corpus DIR   import DIR's *.trace files (e.g. a previous
//!                       campaign's corpus-*.trace) as generation-0 seeds
//!   --failures FILE     merged failure artifact (- for stdout)
//!   --streams N         fuzzing streams (default 8; the determinism unit)
//!   --generations G     corpus-exchange generations per stream (default 2)
//!   without --spool only:
//!   --stop-on-failure   stop at the first failure
//!   --trace FILE        the shrunk repro of the first failure, as a
//!                       `regemu-trace v1` file (its report goes to stderr)
//!
//! worker OPTIONS:   --spool DIR --shard I [--gen G] [--threads N]
//! status OPTIONS:   --spool DIR [--watch] [--interval-ms MS] [--stall-ms MS]
//! replay OPTIONS:   TRACE
//! ```
//!
//! Merged artifacts are **byte-identical** for any shard count, worker
//! count or completion order, and to the single-process run of the same
//! config. Interrupting a campaign (Ctrl-C, kill, `--exit-after`) loses at
//! most the units in flight: rerunning the same command resumes from the
//! manifest. A resumed spool dictates the config; config flags that
//! contradict it are an error, not a silent re-run.
//!
//! A worker never writes the manifest — a unit is finished when its report
//! file validates — so workers may be spawned by a coordinator *or*
//! launched by hand, including on other machines sharing the spool. Set
//! `REGEMU_WORKER_FAIL_ONCE=MARKER` to make the first worker that finds
//! `MARKER` absent create it and die (the retry-path test hook). `status`
//! degrades torn or garbage heartbeats to `unknown` and never fails.
//!
//! ## Exit codes
//!
//! | subcommand | 0 | 1 | 2 | 3 |
//! |---|---|---|---|---|
//! | `sweep` | merged, all cases consistent | run/merge failed or inconsistent case | usage | paused (`--exit-after`) |
//! | `frontier` | table within every upper bound | bound exceeded or run failed | usage, infeasible grid point | paused |
//! | `fuzz` | completed clean | usage or I/O error | a failure found (merged set non-empty) | paused |
//! | `worker` | unit published | unit failed (coordinator retries) | usage | — |
//! | `status` | always, torn and missing files included | — | usage | — |
//! | `replay` | the trace passes | usage, unreadable or malformed trace | the trace fails | — |
//!
//! The same seed always produces the same fuzz report, the same shrunk
//! trace and the same exit status.

use regemu_bench::cli::{
    accept_fuzz_flag, die, dispatch, fail, list, number, parsed, required, running, set_quiet,
    unknown, value, write_output, Args, ConfigFlags, CONFIG_USAGE, FUZZ_USAGE,
};
use regemu_bench::info;
use regemu_bounds::{checked_register_bounds, parse_point, Params};
use regemu_core::EmulationKind;
use regemu_workloads::campaign::{
    config_fingerprint, load_config, merge_shards, run_campaign, run_shard, CampaignOptions,
    WorkerMode,
};
use regemu_workloads::frontier::{self, FrontierReport};
use regemu_workloads::fuzz::campaign::{
    fuzz_config_fingerprint, import_seed_corpus, load_fuzz_config, merge_fuzz_campaign,
    run_fuzz_campaign, run_fuzz_shard_gen, FuzzCampaignConfig, FuzzCampaignReport,
};
use regemu_workloads::fuzz::{fuzz_and_shrink, replay, FuzzConfig, RecordedSchedule};
use regemu_workloads::status::{campaign_status, now_unix_ms, render_status};
use regemu_workloads::{
    detect_spool_kind, run_sweep, CrashPlanSpec, SchedulerSpec, SpoolKind, SweepConfig,
    SweepReport, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKER_USAGE: &str = "--spool DIR --shard I [--gen G] [--threads N]";
const STATUS_USAGE: &str = "--spool DIR [--watch] [--interval-ms MS] [--stall-ms MS]";

/// The usage fragment of the flags [`PoolFlags`] accepts.
const POOL_USAGE: &str = "[--shards N] [--workers M] [--retries R] [--worker-bin PATH] \
     [--in-process] [--exit-after N] [--merge-only] [--quiet]";

/// The pool flags every coordinator subcommand shares, collected straight
/// into the [`CampaignOptions`] they describe.
struct PoolFlags {
    options: CampaignOptions,
    spool: Option<PathBuf>,
    worker_bin: Option<PathBuf>,
    in_process: bool,
    merge_only: bool,
    /// The first flag seen that only means something with `--spool`.
    spool_flag: Option<String>,
}

impl PoolFlags {
    fn new() -> Self {
        PoolFlags {
            options: CampaignOptions::new(PathBuf::new()),
            spool: None,
            worker_bin: None,
            in_process: false,
            merge_only: false,
            spool_flag: None,
        }
    }

    /// Tries to consume `arg`; `false` means it is not a pool flag.
    fn accept(&mut self, arg: &str, args: &mut Args) -> bool {
        match arg {
            "--spool" => self.spool = Some(PathBuf::from(value(args, arg))),
            "--shards" => self.options.shards = number::<usize>(args, arg).max(1),
            "--workers" => self.options.workers = number::<usize>(args, arg).max(1),
            "--retries" => self.options.max_attempts = number::<u32>(args, arg).max(1),
            "--worker-bin" => self.worker_bin = Some(PathBuf::from(value(args, arg))),
            "--in-process" => self.in_process = true,
            "--exit-after" => self.options.exit_after = Some(number(args, arg)),
            "--merge-only" => self.merge_only = true,
            "--quiet" => {
                self.options.quiet = true;
                set_quiet();
            }
            _ => return false,
        }
        if !matches!(arg, "--spool" | "--quiet") {
            self.spool_flag.get_or_insert_with(|| arg.to_string());
        }
        true
    }

    /// The `--spool` directory. Without one there is no pool to shape, so a
    /// pool flag is a usage error rather than silently ignored.
    fn spool(&mut self) -> Option<PathBuf> {
        if let (None, Some(flag)) = (&self.spool, &self.spool_flag) {
            fail(&format!("{flag} needs --spool"));
        }
        self.spool.take()
    }

    /// The options for a run over `spool`; spawned workers are this very
    /// binary unless `--worker-bin` names another.
    fn into_options(self, spool: PathBuf, worker_threads: usize) -> CampaignOptions {
        let worker = if self.in_process {
            WorkerMode::InProcess
        } else {
            let bin = self.worker_bin.unwrap_or_else(|| {
                std::env::current_exe()
                    .unwrap_or_else(|e| fail(&format!("cannot locate this binary: {e}")))
            });
            if !bin.exists() {
                fail(&format!(
                    "worker binary {} not found; build it (cargo build -p regemu-bench) or \
                     pass --worker-bin / --in-process",
                    bin.display()
                ));
            }
            WorkerMode::Spawn(bin)
        };
        CampaignOptions {
            spool,
            worker_threads,
            worker,
            ..self.options
        }
    }
}

/// Config flags that contradict an existing spool are an error, not a
/// silent re-run of the old campaign.
fn contradicts(spool: &Path, kind: &str) -> ! {
    fail(&format!(
        "spool {} was created for a different {kind} config than the flags passed; \
         drop the config flags to resume it, or use a fresh --spool",
        spool.display(),
    ))
}

/// One line on what this invocation did to the campaign's units.
fn summary(complete: bool, total: usize, (run, reused, retried): (usize, usize, u32), t: Instant) {
    let done = if complete { total } else { run + reused };
    info!(
        "{}: {done}/{total} units done in {:.2?} ({run} run now, {reused} reused, \
         {retried} retried)",
        running(),
        t.elapsed()
    );
}

fn paused() -> ! {
    info!(
        "{}: stopped early (--exit-after); rerun the same command to resume",
        running()
    );
    // Distinguish "paused" from success so scripts notice.
    std::process::exit(3);
}

/// How [`sweep_campaign`] came by its report.
enum Ran {
    /// On one thread pool in this process, without a spool.
    InProcess,
    /// Merged from the shard reports a spool holds (`--merge-only`).
    Merged,
    /// By a spooled campaign, run or resumed to completion.
    Campaign,
}

/// The run behind `sweep` and `frontier` (`kind`): without `--spool`,
/// `config` on one thread pool in this process; with one, the merge of the
/// shard reports it holds (`--merge-only`), or the campaign run or resumed
/// with `worker_threads` sweep threads per worker. A resumed spool dictates
/// the config; when `config_flags` were passed, `config` must match it.
/// Exits 3 when `--exit-after` paused the campaign.
fn sweep_campaign(
    kind: &str,
    mut pool: PoolFlags,
    config: &SweepConfig,
    config_flags: bool,
    worker_threads: usize,
) -> (SweepReport, Ran) {
    let Some(spool) = pool.spool() else {
        return (run_sweep(config), Ran::InProcess);
    };
    if pool.merge_only {
        let report = merge_shards(&spool).unwrap_or_else(|e| die(format!("merge failed: {e}")));
        return (report, Ran::Merged);
    }
    let config = match load_config(&spool) {
        Ok(spooled) => {
            if config_flags && config_fingerprint(config) != config_fingerprint(&spooled) {
                contradicts(&spool, kind);
            }
            info!(
                "campaign {kind}: resuming spool {} ({} cases)",
                spool.display(),
                spooled.case_count()
            );
            spooled
        }
        Err(_) => config.clone(),
    };
    let options = pool.into_options(spool, worker_threads);
    let started = Instant::now();
    let outcome = run_campaign(&config, &options).unwrap_or_else(|e| die(e));
    summary(
        outcome.report.is_some(),
        outcome.shards_total,
        (outcome.shards_run, outcome.shards_reused, outcome.retries),
        started,
    );
    let Some(report) = outcome.report else {
        paused()
    };
    (report, Ran::Campaign)
}

fn sweep(args: &mut Args) {
    let mut flags = ConfigFlags::default();
    let mut any_config_flag = false;
    let mut pool = PoolFlags::new();
    let mut worker_threads: Option<usize> = None;
    let (mut json_out, mut csv_out) = (None, None);
    while let Some(arg) = args.next() {
        if flags.accept(&arg, args).unwrap_or_else(|e| fail(&e)) {
            any_config_flag = true;
            continue;
        }
        if pool.accept(&arg, args) {
            continue;
        }
        match arg.as_str() {
            // The one pool flag only sweep takes.
            "--worker-threads" => {
                worker_threads = Some(number(args, &arg));
                pool.spool_flag.get_or_insert(arg.clone());
            }
            "--json" => json_out = Some(value(args, &arg)),
            "--csv" => csv_out = Some(value(args, &arg)),
            other => unknown(other),
        }
    }
    // --worker-threads wins; a plain --threads (the pool size of a
    // spool-less sweep) becomes the per-worker thread count rather than
    // being dropped.
    let worker_threads = worker_threads.or(flags.threads()).unwrap_or(1);
    let config = flags.into_config().unwrap_or_else(|e| fail(&e));

    let started = Instant::now();
    let (report, ran) = sweep_campaign("sweep", pool, &config, any_config_flag, worker_threads);
    let consistent = report.results().iter().filter(|r| r.consistent).count();
    match ran {
        Ran::InProcess => {
            let cases = config.case_count();
            info!(
                "swept {cases} cases in {:.2?} ({} grid points x {} emulations x {} workloads x \
                 {} schedulers x {} crash plans x {} recordings x {} seeds): {consistent}/{cases} \
                 consistent",
                started.elapsed(),
                config.grid.len(),
                config.emulations.len(),
                config.workloads.len(),
                config.schedulers.len(),
                config.crash_plans.len(),
                config.recordings.len(),
                config.seeds.len(),
            );
            for failure in report.failures() {
                let case = &failure.case;
                let why = failure.error.as_ref().or(failure.violation.as_ref());
                eprintln!(
                    "  FAIL case {} {} {} {} {} {} seed {}: {}",
                    case.index,
                    case.emulation,
                    case.params,
                    case.workload,
                    case.scheduler,
                    case.crashes,
                    case.seed,
                    why.map_or("inconsistent", String::as_str),
                );
            }
            if json_out.is_none() && csv_out.is_none() {
                // No sink: one summary line per emulation on stdout.
                for kind in &config.emulations {
                    let rows = report
                        .results()
                        .iter()
                        .filter(|r| r.case.emulation == *kind);
                    let ops: usize = rows.clone().map(|r| r.completed_ops).sum();
                    let max = rows.clone().map(|r| r.resource_consumption).max();
                    let (name, n) = (kind.name(), rows.count());
                    println!(
                        "{name:>18}: {n} cases, {ops} ops completed, max consumption {}",
                        max.unwrap_or(0)
                    );
                }
            }
        }
        Ran::Merged => info!("merged {} cases from existing shard reports", report.len()),
        Ran::Campaign => info!(
            "merged {} cases: {consistent}/{} consistent",
            report.len(),
            report.len()
        ),
    }

    if let Some(path) = &json_out {
        write_output(path, &report.to_json(), "JSON");
    }
    if let Some(path) = &csv_out {
        write_output(path, &report.to_csv(), "CSV");
    }
    if !report.all_consistent() {
        std::process::exit(1);
    }
}

fn frontier(args: &mut Args) {
    let mut config = frontier::quick();
    let mut any_config_flag = false;
    let mut pool = PoolFlags::new();
    let (mut text_out, mut json_out, mut csv_out) = (None, None, None);
    while let Some(arg) = args.next() {
        if pool.accept(&arg, args) {
            continue;
        }
        match arg.as_str() {
            // Infeasible points (k = 0, f = 0, n < 2f+1 ⇒ z = 0) are a
            // rejection with the bound-level reason up front, never a
            // silent skip.
            "--grid" => {
                let points: Vec<_> = value(args, &arg)
                    .split(',')
                    .map(parse_point)
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|e| fail(&e));
                config.grid = points
                    .into_iter()
                    .map(|(k, f, n)| {
                        if let Err(e) = checked_register_bounds(k, f, n) {
                            fail(&format!(
                                "infeasible frontier grid point k={k}, f={f}, n={n}: {e}"
                            ));
                        }
                        Params::new(k, f, n).expect("checked_register_bounds validated the point")
                    })
                    .collect();
            }
            "--emulations" => {
                config.emulations = list(args, &arg, &EmulationKind::ALL, EmulationKind::from_name);
            }
            "--seeds" => config.seeds = list(args, &arg, &[], |s| s.parse().ok()),
            "--schedulers" => {
                config.schedulers = list(args, &arg, &SchedulerSpec::ALL, SchedulerSpec::from_name);
            }
            "--crash-plans" => {
                config.crash_plans =
                    list(args, &arg, &CrashPlanSpec::ALL, CrashPlanSpec::from_name);
            }
            "--rounds" => {
                config.workloads = vec![WorkloadSpec::WriteSequential {
                    rounds: number::<usize>(args, &arg).max(1),
                    read_after_each: true,
                }];
            }
            "--threads" => config.threads = number(args, &arg),
            "--text" => text_out = Some(value(args, &arg)),
            "--json" => json_out = Some(value(args, &arg)),
            "--csv" => csv_out = Some(value(args, &arg)),
            other => unknown(other),
        }
        any_config_flag |= !matches!(arg.as_str(), "--threads" | "--text" | "--json" | "--csv");
    }

    let started = Instant::now();
    let worker_threads = config.threads.max(1);
    let (sweep, ran) = sweep_campaign("frontier", pool, &config, any_config_flag, worker_threads);
    let report = FrontierReport::from_sweep(&sweep);
    let (cases, rows) = (sweep.len(), report.len());
    match ran {
        Ran::InProcess => info!(
            "frontier: {cases} cases -> {rows} rows in {:.2?}",
            started.elapsed()
        ),
        Ran::Merged => {
            info!("merged {cases} cases into {rows} frontier rows from existing shard reports")
        }
        Ran::Campaign => info!(
            "frontier campaign: {cases} cases -> {rows} rows in {:.2?}",
            started.elapsed()
        ),
    }

    let text = text_out.as_deref().unwrap_or("-");
    write_output(text, &report.to_text(), "frontier table");
    if let Some(path) = &json_out {
        write_output(path, &report.to_json(), "frontier JSON");
    }
    if let Some(path) = &csv_out {
        write_output(path, &report.to_csv(), "frontier CSV");
    }
    for row in report.violations() {
        eprintln!(
            "bound exceeded: k={} f={} n={} {}: measured {} > upper {}",
            row.params.k,
            row.params.f,
            row.params.n,
            row.emulation.name(),
            row.verdict.measured,
            row.verdict.upper,
        );
    }
    if !report.all_within_upper() {
        std::process::exit(1);
    }
}

fn fuzz(args: &mut Args) {
    let mut pool = PoolFlags::new();
    let mut seed_corpus_dir: Option<PathBuf> = None;
    let mut out = "-".to_string();
    let mut failures_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let default_params = Params::new(1, 1, 3).expect("default parameters");
    let mut cli = FuzzCampaignConfig::new(FuzzConfig::new(default_params));
    let mut any_config_flag = false;
    // The first flag seen that only means something without `--spool`.
    let mut solo_flag: Option<String> = None;
    while let Some(arg) = args.next() {
        if pool.accept(&arg, args) {
            continue;
        }
        if accept_fuzz_flag(&mut cli.fuzz, &arg, args) {
            any_config_flag = true;
            continue;
        }
        match arg.as_str() {
            "--seed-corpus" => seed_corpus_dir = Some(PathBuf::from(value(args, &arg))),
            "--out" => out = value(args, &arg),
            "--failures" => failures_out = Some(value(args, &arg)),
            "--streams" => cli = cli.streams(number(args, &arg)),
            "--generations" => cli = cli.generations(number(args, &arg)),
            "--stop-on-failure" => cli.fuzz.stop_on_failure = true,
            "--trace" => trace_out = Some(value(args, &arg)),
            other => unknown(other),
        }
        match arg.as_str() {
            "--out" => {}
            "--stop-on-failure" | "--trace" => {
                solo_flag.get_or_insert(arg);
            }
            _ => {
                any_config_flag |= matches!(arg.as_str(), "--streams" | "--generations");
                pool.spool_flag.get_or_insert(arg);
            }
        }
    }
    let Some(spool) = pool.spool() else {
        return fuzz_in_process(cli.fuzz, &out, trace_out);
    };
    if let Some(flag) = solo_flag {
        fail(&format!("{flag} does not combine with --spool"));
    }

    let emit = |report: &FuzzCampaignReport| {
        write_output(&out, &report.to_text(), "fuzz campaign report");
        if let Some(path) = &failures_out {
            write_output(path, &report.failures_text(), "merged failures");
        }
        if report.found() {
            eprintln!(
                "campaign fuzz: {} distinct failure(s) in the merged set",
                report.failures.len()
            );
            std::process::exit(2);
        }
        info!(
            "campaign fuzz: clean — {} iterations, {} corpus entries published",
            report.iterations, report.corpus_published
        );
    };

    if pool.merge_only {
        let report =
            merge_fuzz_campaign(&spool).unwrap_or_else(|e| die(format!("merge failed: {e}")));
        return emit(&report);
    }

    // A resumed spool dictates the config; a fresh one takes it from the
    // CLI flags.
    let config = match load_fuzz_config(&spool) {
        Ok(config) => {
            if any_config_flag && fuzz_config_fingerprint(&cli) != fuzz_config_fingerprint(&config)
            {
                contradicts(&spool, "fuzz");
            }
            info!(
                "campaign fuzz: resuming spool {} ({} streams x {} generations)",
                spool.display(),
                config.streams,
                config.generations
            );
            config
        }
        Err(_) => cli,
    };

    // Seeds must land before the manifest freezes them into generation 0.
    if let Some(dir) = &seed_corpus_dir {
        let count = import_seed_corpus(&spool, dir).unwrap_or_else(|e| die(e));
        info!(
            "campaign fuzz: seeded {count} generation-0 case(s) from {}",
            dir.display()
        );
    }

    let options = pool.into_options(spool, 0);
    let started = Instant::now();
    let outcome = run_fuzz_campaign(&config, &options).unwrap_or_else(|e| die(e));
    summary(
        outcome.report.is_some(),
        outcome.units_total,
        (outcome.units_run, outcome.units_reused, outcome.retries),
        started,
    );
    match outcome.report {
        Some(report) => emit(&report),
        None => paused(),
    }
}

/// The spool-less fuzz run: one fuzzer in this process; the first failure
/// is shrunk, its report goes to stderr and its trace to `trace_out`.
fn fuzz_in_process(config: FuzzConfig, out: &str, trace_out: Option<String>) {
    let (report, shrunk) = fuzz_and_shrink(config);
    write_output(out, &report.to_text(), "fuzz report");
    let Some(failure) = shrunk else {
        info!(
            "campaign fuzz: clean — {} iterations, corpus {}",
            report.iterations, report.corpus_size
        );
        return;
    };
    eprint!("{}", failure.to_text());
    if let Some(path) = trace_out {
        write_output(&path, &failure.trace.to_text(), "shrunk trace");
        eprintln!("replay with: {}", failure.replay_command(&path));
    }
    std::process::exit(2);
}

/// Re-executes a recorded trace and prints its verdict: exit 0 when it
/// passes, 2 when it fails.
fn replay_trace(args: &mut Args) {
    let path = args
        .next()
        .unwrap_or_else(|| fail("replay needs a trace file"));
    if args.next().is_some() {
        fail("replay takes exactly one trace file");
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(format!("cannot read trace {path}: {e}")));
    let schedule = RecordedSchedule::from_text(&text)
        .unwrap_or_else(|e| die(format!("malformed trace {path}: {e}")));
    let outcome = replay(&schedule).unwrap_or_else(|e| die(format!("cannot replay: {e}")));
    println!("verdict {}", outcome.verdict);
    std::process::exit(if outcome.kind.is_some() { 2 } else { 0 });
}

fn worker(args: &mut Args) {
    let mut spool: Option<PathBuf> = None;
    let mut shard: Option<usize> = None;
    let (mut gen, mut threads) = (0usize, 0usize);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spool" => spool = Some(PathBuf::from(value(args, &arg))),
            "--shard" => shard = Some(number(args, &arg)),
            "--gen" => gen = number(args, &arg),
            "--threads" => threads = number(args, &arg),
            other => unknown(other),
        }
    }
    let spool = spool.unwrap_or_else(|| required("--spool"));
    let shard = shard.unwrap_or_else(|| required("--shard"));

    // Test hook for the coordinator's retry path: when the named marker
    // file does not exist yet, create it and die once.
    if let Ok(marker) = std::env::var("REGEMU_WORKER_FAIL_ONCE") {
        let marker = PathBuf::from(marker);
        if !marker.exists() {
            let _ = std::fs::write(&marker, b"failed once\n");
            die("injected one-shot failure (REGEMU_WORKER_FAIL_ONCE)");
        }
    }

    // The spool says which kind of unit this is.
    let ran = match detect_spool_kind(&spool) {
        Some(SpoolKind::Fuzz) => run_fuzz_shard_gen(&spool, shard, gen),
        Some(SpoolKind::Sweep) => run_shard(&spool, shard, threads).map(drop),
        None => die(format!("{}: not a campaign spool", spool.display())),
    };
    match ran {
        Ok(()) => info!("campaign worker: shard {shard} round {gen} done"),
        Err(e) => die(format!("shard {shard} round {gen} failed: {e}")),
    }
}

fn status(args: &mut Args) {
    let mut spool: Option<PathBuf> = None;
    let mut watch = false;
    let (mut interval_ms, mut stall_ms) = (1_000u64, 30_000u64);
    let positive =
        |args: &mut Args, flag: &str| parsed(args, flag, |v| v.parse().ok().filter(|ms| *ms > 0));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spool" => spool = Some(PathBuf::from(value(args, &arg))),
            "--watch" => watch = true,
            "--interval-ms" => interval_ms = positive(args, &arg),
            "--stall-ms" => stall_ms = positive(args, &arg),
            other => unknown(other),
        }
    }
    let spool = spool.unwrap_or_else(|| required("--spool"));

    loop {
        // The fold never panics on spool contents; an unreadable spool is
        // reported and — like every other outcome — exits 0: this tool
        // observes campaigns, it must not fail them.
        let complete = match campaign_status(&spool, now_unix_ms(), stall_ms) {
            Ok(report) => {
                print!("{}", render_status(&spool, &report));
                report.complete
            }
            Err(reason) => {
                println!("campaign status: {reason}");
                false
            }
        };
        if !watch || complete {
            break;
        }
        println!();
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

fn main() {
    dispatch(
        "campaign",
        &[
            (
                "sweep",
                2,
                format!(
                    "[--spool DIR] {POOL_USAGE} [--worker-threads N] [--json PATH] \
                     [--csv PATH] {CONFIG_USAGE}"
                ),
                sweep,
            ),
            (
                "frontier",
                2,
                format!(
                    "[--spool DIR] {POOL_USAGE} [--grid k/f/n,..] [--emulations a,b|all] \
                     [--seeds a,b,..] [--schedulers a,b|all] [--crash-plans a,b|all] \
                     [--rounds N] [--threads N] [--text PATH] [--json PATH] [--csv PATH]"
                ),
                frontier,
            ),
            // 2 means "failures found" (for replay: "the trace fails").
            (
                "fuzz",
                1,
                format!(
                    "[--spool DIR] {POOL_USAGE} [--seed-corpus DIR] [--out FILE] \
                     [--failures FILE] {FUZZ_USAGE} [--streams N] [--generations G] \
                     [--stop-on-failure] [--trace FILE]"
                ),
                fuzz,
            ),
            ("replay", 1, "TRACE".into(), replay_trace),
            ("worker", 2, WORKER_USAGE.into(), worker),
            ("status", 2, STATUS_USAGE.into(), status),
        ],
    );
}
