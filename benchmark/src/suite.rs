//! The suite: every workload as a child process of its own, untraced then
//! traced, rendered as one report; and the A/A mode that runs it twice.

use crate::defs::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{json, stats, sys};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// The parsed result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// The line as printed, embedded verbatim in `results.json`.
    line: String,
}

fn run_child(options: &SuiteOptions, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("the {workload} run printed no result"))?
        .to_string();
    let parsed = json::parse(&line).map_err(|e| format!("{workload} result line: {e}"))?;
    let field = |key: &str| {
        parsed
            .get(key)
            .ok_or_else(|| format!("{workload} result line has no {key:?}"))
    };
    let mut metrics = BTreeMap::new();
    for (name, metric) in field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
    {
        let value = metric
            .get("value")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{workload}: metric {name} has no numeric value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        line,
    })
}

/// One pass over the suite: per workload, its untraced and traced results.
struct Pass {
    runs: Vec<(&'static str, ChildResult, ChildResult)>,
}

fn collect(options: &SuiteOptions, only: Option<&str>) -> Result<Pass, String> {
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        if only.is_some_and(|name| name != workload.name) {
            continue;
        }
        let untraced = run_child(options, workload.name, false)?;
        let traced = run_child(options, workload.name, true)?;
        runs.push((workload.name, untraced, traced));
    }
    Ok(Pass { runs })
}

fn print_table(
    pass: &Pass,
    rows: impl Iterator<Item = (&'static str, &'static str)>,
    traced: bool,
) {
    print!("{:<46} {:>6}", "metric", "unit");
    for (name, _, _) in &pass.runs {
        print!(" {name:>15}");
    }
    println!();
    for (metric, unit) in rows {
        print!("{metric:<46} {unit:>6}");
        for (_, untraced_run, traced_run) in &pass.runs {
            let run = if traced { traced_run } else { untraced_run };
            let value = run.metrics.get(metric).copied().unwrap_or(f64::NAN);
            // A per-layer 0 means the workload bypasses that layer.
            if traced && value == 0.0 {
                print!(" {:>15}", "-");
            } else {
                print!(" {value:>15.4}");
            }
        }
        println!();
    }
}

fn report(options: &SuiteOptions, pass: &Pass) -> Result<bool, String> {
    println!(
        "regemu benchmark · seed {} · {} · fingerprint {{{}}}",
        options.seed,
        if options.smoke {
            "smoke (counts / 50, one repeat)".to_string()
        } else {
            format!("{} s per run", options.seconds)
        },
        sys::fingerprint().join(", ")
    );
    println!("\n== end-to-end (untraced run; median of the R repeats) ==");
    print_table(pass, END_TO_END.iter().map(|m| (m.name, m.unit)), false);
    println!("\n== per-layer (traced run, one repeat; - = the workload bypasses that layer) ==");
    print_table(pass, PER_LAYER.iter().map(|m| (m.name, m.unit)), true);
    println!("\n== gates ==");
    let mut all_correct = true;
    for (name, untraced, traced) in &pass.runs {
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        println!(
            "{name:<16} attempted {attempted:>10}  failed {failed:>6}  failed_ratio {:.3e}  {}",
            failed as f64 / attempted as f64,
            if untraced.correct && traced.correct {
                "correct"
            } else {
                "INCORRECT (failing coordinates are listed above, on standard error)"
            }
        );
        all_correct &= untraced.correct && traced.correct;
    }

    let mut members = sys::fingerprint();
    members.push(format!("\"seed\": {}", options.seed));
    members.push(format!("\"seconds\": {}", json::number(options.seconds)));
    members.push(format!("\"smoke\": {}", options.smoke));
    let runs: Vec<String> = pass
        .runs
        .iter()
        .map(|(name, untraced, traced)| {
            format!(
                "    {}: {{\"untraced\": {}, \"traced\": {}}}",
                json::quote(name),
                untraced.line,
                traced.line
            )
        })
        .collect();
    members.push(format!("\"workloads\": {{\n{}\n  }}", runs.join(",\n")));
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let path = options.out_dir.join("results.json");
    std::fs::write(&path, format!("{{\n  {}\n}}\n", members.join(",\n  ")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nresults: {}; traces: {}/trace-<workload>.json",
        path.display(),
        options.out_dir.display()
    );
    Ok(all_correct)
}

/// Runs the suite (or one workload of it) once and prints the report.
pub fn run_all(options: &SuiteOptions, only: Option<&str>) -> Result<bool, String> {
    let pass = collect(options, only)?;
    report(options, &pass)
}

/// By how much of `a` the value `b` is worse, given which way is better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs the suite twice on the same code. Per end-to-end metric × workload:
/// both medians, their ratio, and whether the second is worse than the first
/// by more than the metric's bound. Every exact per-layer count must be
/// identical between the two sets.
pub fn run_aa(options: &SuiteOptions) -> Result<bool, String> {
    let first = collect(options, None)?;
    let second = collect(options, None)?;
    let mut ok = report(options, &second)?;
    println!("\n== A/A: two sets of runs of the same code ==");
    println!(
        "{:<16} {:<14} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for ((name, a, _), (_, b, _)) in first.runs.iter().zip(&second.runs) {
        for metric in END_TO_END {
            let (a, b) = (a.metrics[metric.name], b.metrics[metric.name]);
            // Symmetric: neither set is "the change", so neither may be worse.
            let worse = worse_by(metric.better, a, b).max(worse_by(metric.better, b, a));
            let pass = worse <= metric.bound;
            ok &= pass;
            println!(
                "{name:<16} {:<14} {a:>16.4} {b:>16.4} {:>8.4} {:>7.2}  {}",
                metric.name,
                b / a,
                metric.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    for ((name, _, a), (_, _, b)) in first.runs.iter().zip(&second.runs) {
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (a.metrics[metric.name], b.metrics[metric.name]);
            if a != b {
                ok = false;
                println!(
                    "{name:<16} exact count {} differs: {a} vs {b}  FAIL",
                    metric.name
                );
            }
        }
    }
    println!(
        "exact per-layer counts: {}",
        if ok {
            "identical between the two sets"
        } else {
            "see FAIL lines"
        }
    );
    Ok(ok)
}

/// Runs in a spread measurement: as many as the acceptance rule uses.
const SPREAD_RUNS: u64 = 10;

/// The steadiness check: ten untraced runs per workload, each with another
/// seed (`seed`, `seed + 1`, …), and per end-to-end metric the distance
/// between the first and third quartile as a share of the median. A metric
/// is steady while that spread stays below a third of its bound.
pub fn run_spread(options: &SuiteOptions, only: Option<&str>) -> Result<bool, String> {
    println!(
        "{:<16} {:<14} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut ok = true;
    for workload in WORKLOADS {
        if only.is_some_and(|name| name != workload.name) {
            continue;
        }
        let mut runs = Vec::new();
        for offset in 0..SPREAD_RUNS {
            let options = SuiteOptions {
                seed: options.seed + offset,
                seconds: options.seconds,
                smoke: options.smoke,
                out_dir: options.out_dir.clone(),
            };
            runs.push(run_child(&options, workload.name, false)?);
        }
        for metric in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[metric.name]).collect();
            let spread = stats::quartile_spread(&values)
                .ok_or_else(|| format!("{} has a zero median", metric.name))?;
            // The set-up time's spread is reported but not gated.
            let verdict = if spread <= metric.bound / 3.0 {
                "steady"
            } else if spread <= metric.bound || metric.name == "setup_s" {
                "within bound, above a third of it"
            } else {
                ok = false;
                "NOISY"
            };
            println!(
                "{:<16} {:<14} {:>16.4} {:>8.2}% {:>6.0}%  {verdict}",
                workload.name,
                metric.name,
                stats::median(&values),
                spread * 100.0,
                metric.bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
    }
}
