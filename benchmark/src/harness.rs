//! One run of one workload: set up, warm up, timed repeats, gates, result.
//!
//! The method, shared by every workload:
//!
//! * work per repeat is a **fixed count** derived from the workload and the
//!   seed, never a fixed time, so exact counts repeat; `--seconds` only
//!   decides how many repeats `R` fit (never fewer than [`MIN_REPEATS`]);
//! * set-up (input generation, cluster boot, connect, a warm-up pass at a
//!   quarter of the counts) is done [`SETUPS`] times and `setup_s` is the
//!   median; the last set-up's state runs the repeats;
//! * every end-to-end metric is the **median of the R repeats**;
//! * every count marked exact must be identical across repeats, or the run
//!   exits non-zero (the determinism self-check);
//! * protocol failures are counted into `failed`, never fatal; a broken
//!   harness invariant is an `Err` and a non-zero exit.

use crate::defs::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::{json, stats, sys};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest timed repeats a normal run reports a median of.
pub const MIN_REPEATS: usize = 3;
/// Set-ups per normal run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The warm-up pass runs the repeat's counts divided by this.
pub const WARMUP_DIV: usize = 4;
/// `--smoke` divides every count by this and runs one repeat.
pub const SMOKE_DIV: usize = 50;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// `benchmark/out`: trace files, result files and the campaign spool.
    pub out_dir: PathBuf,
}

impl RunArgs {
    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            seed: self.seed,
            div: if self.smoke { SMOKE_DIV } else { 1 },
            scratch: &self.out_dir,
        }
    }
}

/// What a workload's set-up needs to know.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Count divisor: 1 normally, [`SMOKE_DIV`] under `--smoke`.
    pub div: usize,
    /// A directory inside the checkout the workload may write under.
    pub scratch: &'a Path,
}

/// The outcome of one fixed-count repeat.
#[derive(Debug, Default)]
pub struct Repeat {
    pub wall: Duration,
    /// Units of work completed (and verified): high-level register
    /// operations; on `campaign`, cases.
    pub ops: u64,
    /// Low-level events observed (triggers + responses).
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Coordinates of what failed, for the printed report.
    pub failures: Vec<String>,
    /// Per-operation latencies in ascending order, where single operations
    /// can be timed from outside (the live workloads); empty elsewhere.
    pub lat_ns: Vec<u64>,
    /// Counts that must repeat exactly for a given seed and divisor.
    pub exact: Vec<(String, u64)>,
    /// Per-layer figures that come from an *untraced* repeat.
    pub splits: Vec<(&'static str, f64)>,
}

/// The outcome of the untimed cross-checks.
#[derive(Debug, Default)]
pub struct Verified {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Per-layer metric values of a traced run; names must be in [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// Panics on a name `defs::PER_LAYER` does not define — a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not defined in defs::PER_LAYER"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A workload: how to set it up, repeat it, check it and trace it.
pub trait Workload: Sized {
    /// Generates inputs from the seed and boots whatever the repeats need.
    fn setup(ctx: &Ctx<'_>) -> Result<Self, String>;
    /// One fixed-count repeat with every count divided by `div`.
    fn repeat(&mut self, div: usize) -> Result<Repeat, String>;
    /// Untimed cross-checks run once after the repeats.
    fn verify(&mut self, div: usize) -> Result<Verified, String>;
    /// One repeat with the timing wrappers in place, plus the layer probes
    /// this workload hosts.
    fn traced(
        &mut self,
        div: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Repeat, String>;
    /// Stops every thread the workload started and waits for it.
    fn teardown(self) -> Result<(), String>;
}

/// The result line of one run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The one-line JSON object the contract asks for.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn set_up<W: Workload>(ctx: &Ctx<'_>) -> Result<(W, Duration), String> {
    let started = Instant::now();
    let mut workload = W::setup(ctx)?;
    let warm = workload.repeat(ctx.div * WARMUP_DIV)?;
    let elapsed = started.elapsed();
    if warm.ops == 0 {
        return Err("warm-up completed no operations".to_string());
    }
    Ok((workload, elapsed))
}

fn check_exact(reference: &Repeat, other: &Repeat, what: &str) -> Result<(), String> {
    if reference.exact == other.exact && reference.failures == other.failures {
        return Ok(());
    }
    let differing: Vec<String> = reference
        .exact
        .iter()
        .zip(&other.exact)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{} {} vs {}", a.0, a.1, b.1))
        .collect();
    Err(format!(
        "determinism self-check failed: exact counts differ between {what}: {}",
        if differing.is_empty() {
            "failed-case lists differ".to_string()
        } else {
            differing.join(", ")
        }
    ))
}

fn per_second(count: u64, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64()
}

/// Median latency of one repeat in microseconds: the exact sample median
/// where operations were timed one by one, the mean time per unit of work
/// elsewhere (single operations of a batch workload cannot be timed from
/// outside).
fn p50_us(repeat: &Repeat) -> f64 {
    if repeat.lat_ns.is_empty() {
        return repeat.wall.as_secs_f64() * 1e6 / repeat.ops as f64;
    }
    stats::quantile_sorted(&repeat.lat_ns, 0.50) as f64 / 1e3
}

fn report_failures(failures: &[String]) {
    const SHOWN: usize = 20;
    for failure in failures.iter().take(SHOWN) {
        eprintln!("  FAILED {failure}");
    }
    if failures.len() > SHOWN {
        eprintln!("  … and {} more", failures.len() - SHOWN);
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let ctx = args.ctx();
    let div = ctx.div;
    let setups = if args.smoke { 1 } else { SETUPS };
    let min_repeats = if args.smoke { 1 } else { MIN_REPEATS };

    let mut setup_s = Vec::with_capacity(setups);
    let mut current: Option<W> = None;
    for _ in 0..setups {
        if let Some(previous) = current.take() {
            previous.teardown()?;
        }
        let (workload, elapsed) = set_up::<W>(&ctx)?;
        setup_s.push(elapsed.as_secs_f64());
        current = Some(workload);
    }
    let mut workload = current.expect("at least one set-up ran");

    let mut repeats: Vec<Repeat> = Vec::new();
    let measuring = Instant::now();
    while repeats.len() < min_repeats
        || (!args.smoke && measuring.elapsed().as_secs_f64() < args.seconds)
    {
        let repeat = workload.repeat(div)?;
        if repeat.ops == 0 || repeat.events == 0 {
            return Err("a repeat completed no work".to_string());
        }
        if let Some(first) = repeats.first() {
            check_exact(first, &repeat, "repeats")?;
        }
        repeats.push(repeat);
    }
    let measuring = measuring.elapsed();
    let verify_started = Instant::now();
    let verified = workload.verify(div)?;
    let verify_s = verify_started.elapsed().as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mb()?;
    workload.teardown()?;

    let median_of =
        |f: &dyn Fn(&Repeat) -> f64| stats::median(&repeats.iter().map(f).collect::<Vec<_>>());
    let value_of = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median(&setup_s),
            "ops_per_s" => median_of(&|r| per_second(r.ops, r.wall)),
            "events_per_s" => median_of(&|r| per_second(r.events, r.wall)),
            "op_p50_us" => median_of(&p50_us),
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, value_of(m.name), m.unit))
        .collect();

    let attempted = repeats.iter().map(|r| r.attempted).sum::<u64>() + verified.attempted;
    let failed = repeats.iter().map(|r| r.failed).sum::<u64>() + verified.failed;
    eprintln!(
        "== {} · seed {} · untraced · {} set-ups · R = {} repeats of {} units ==",
        args.workload,
        args.seed,
        setups,
        repeats.len(),
        repeats[0].ops
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<14} {value:>16.4} {unit}");
    }
    if !repeats[0].lat_ns.is_empty() {
        eprintln!("  latency samples per repeat: {}", repeats[0].lat_ns.len());
    }
    eprintln!(
        "  timed regions: {:.2} s of the {:.2} s the repeats took; per repeat: {}",
        repeats.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>(),
        measuring.as_secs_f64(),
        repeats
            .iter()
            .map(|r| format!("{:.3}", r.wall.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "  gates: attempted {attempted}, failed {failed} (failed_ratio {:.3e}); \
         exact counts identical across {} repeats; verify {verify_s:.3} s",
        failed as f64 / attempted as f64,
        repeats.len()
    );
    report_failures(&repeats[0].failures);
    report_failures(&verified.failures);

    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Cost of one `Instant::now()` / `elapsed()` pair, in nanoseconds.
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let started = Instant::now();
    let mut sink = Duration::ZERO;
    for _ in 0..PAIRS {
        let t = Instant::now();
        sink += std::hint::black_box(t).elapsed();
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// The traced run: per-layer metrics and `out/trace-<workload>.json`.
pub fn run_traced<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let ctx = args.ctx();
    let div = ctx.div;
    let (mut workload, _) = set_up::<W>(&ctx)?;
    // The untraced reference: what the traced repeat is compared against.
    let reference = workload.repeat(div)?;

    let mut layers = Layers::default();
    layers.set("bench.timer_ns", timer_ns());
    let mut tracer = Tracer::new();
    let traced = workload.traced(div, &mut tracer, &mut layers)?;
    check_exact(&reference, &traced, "the untraced and the traced repeat")?;
    for (name, value) in &reference.splits {
        layers.set(name, *value);
    }
    layers.set(
        "bench.trace_overhead_pct",
        (traced.wall.as_secs_f64() / reference.wall.as_secs_f64() - 1.0) * 100.0,
    );
    let verify_started = Instant::now();
    let verified = workload.verify(div)?;
    layers.set("bench.verify_s", verify_started.elapsed().as_secs_f64());
    workload.teardown()?;

    // The trace must account for the traced repeat: the root nodes' totals
    // (self + children, by construction) against the repeat's wall clock.
    let accounted = tracer.root_total_ns() as f64 / traced.wall.as_nanos() as f64;
    if !(0.95..=1.05).contains(&accounted) {
        return Err(format!(
            "trace accounts for {:.1}% of the traced repeat (must be within 5%)",
            accounted * 100.0
        ));
    }
    let mut header = vec![
        format!("\"workload\": {}", json::quote(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"traced_repeat_ns\": {}", traced.wall.as_nanos()),
        format!("\"untraced_repeat_ns\": {}", reference.wall.as_nanos()),
        format!("\"accounted_share\": {}", json::number(accounted)),
    ];
    header.extend(sys::fingerprint());
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&trace_path, tracer.to_json(&header))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name), m.unit))
        .collect();
    let attempted = reference.attempted + traced.attempted + verified.attempted;
    let failed = reference.failed + traced.failed + verified.failed;
    eprintln!(
        "== {} · seed {} · traced · trace accounts for {:.1}% of the repeat → {} ==",
        args.workload,
        args.seed,
        accounted * 100.0,
        trace_path.display()
    );
    for (name, value, unit) in &metrics {
        // A layer this workload bypasses reads 0; only print what ran.
        if *value != 0.0 {
            eprintln!("  {name:<46} {value:>16.4} {unit}");
        }
    }
    eprintln!("  gates: attempted {attempted}, failed {failed}; exact counts identical traced vs untraced");
    report_failures(&traced.failures);
    report_failures(&verified.failures);

    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_workloads_report_mean_time_per_unit_as_latency() {
        let repeat = Repeat {
            wall: Duration::from_millis(500),
            ops: 1000,
            ..Repeat::default()
        };
        assert_eq!(p50_us(&repeat), 500.0);
    }

    #[test]
    fn live_workloads_report_exact_sample_quantiles() {
        let repeat = Repeat {
            wall: Duration::from_secs(1),
            ops: 100,
            lat_ns: (1..=100).map(|i| i * 1000).collect(),
            ..Repeat::default()
        };
        assert_eq!(p50_us(&repeat), 50.0);
    }

    #[test]
    fn exact_counts_must_repeat() {
        let a = Repeat {
            exact: vec![("fpsm.steps".to_string(), 10)],
            ..Repeat::default()
        };
        let b = Repeat {
            exact: vec![("fpsm.steps".to_string(), 11)],
            ..Repeat::default()
        };
        assert!(check_exact(&a, &a, "repeats").is_ok());
        let err = check_exact(&a, &b, "repeats").unwrap_err();
        assert!(err.contains("fpsm.steps 10 vs 11"), "{err}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = RunResult {
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s")],
        }
        .to_json_line();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}
