//! The `regemu` benchmark: six workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See `README.md`.
//!
//! Two ways in, both through `run.sh`:
//!
//! * **one run** — `--workload W --seed N --seconds S --trace 0|1`: runs one
//!   workload in this process and prints the result as the last line of
//!   standard output (everything readable goes to standard error);
//! * **the suite** — `all | aa | <workload>`, optionally `--smoke`: runs the
//!   workloads as child processes (one each, so `VmHWM` is the workload's
//!   own), untraced then traced, and prints every metric by name and unit.

mod defs;
mod harness;
mod json;
mod probes;
mod stats;
mod suite;
mod sys;
mod trace;
mod wl_campaign;
mod wl_check;
mod wl_live;
mod wl_sim;
mod wrappers;

use harness::{run_traced, run_untraced, RunArgs, RunResult, Workload};
use std::path::PathBuf;

const USAGE: &str = "\
usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
       run.sh [all | aa | spread [<name>] | <name>] [--smoke] [--seed <n>] [--seconds <s>] [--out <dir>]
       run.sh --emit-benchmark-json

  one run     prints one JSON object as the last line of standard output
  all         every workload, untraced then traced, one child process each
  aa          the suite twice; per end-to-end metric x workload both medians,
              their ratio and pass/fail against the metric's bound
  spread      ten untraced runs per workload, each with another seed; per metric
              the quartile spread as a share of the median, against its bound
  <name>      the suite for one workload
  --smoke     counts / 50, one repeat: same code paths and gates in seconds
  --seed      the only input to workload generation (default 1)
  --out       where trace and result files go (default benchmark/out)";

fn fail(message: &str) -> ! {
    eprintln!("regemu-benchmark: {message}\n{USAGE}");
    std::process::exit(2);
}

fn run_one<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

/// Runs the workload `args` names in this process.
fn run(args: &RunArgs) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "sim_fair" => run_one::<wl_sim::Sim<false>>(args),
        "sim_adversary" => run_one::<wl_sim::Sim<true>>(args),
        "check_heavy" => run_one::<wl_check::CheckHeavy>(args),
        "campaign" => run_one::<wl_campaign::Campaign>(args),
        "live_tcp_write" => run_one::<wl_live::Live<true>>(args),
        "live_chan_mixed" => run_one::<wl_live::Live<false>>(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let mut workload: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut seed = 1u64;
    let mut seconds = defs::RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from(
        std::env::var("REGEMU_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string()),
    );

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => {
                let v = value("--seed");
                seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("invalid seed {v:?}")));
            }
            "--seconds" => {
                let v = value("--seconds");
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| fail(&format!("invalid seconds {v:?}")));
            }
            "--trace" => {
                trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    other => fail(&format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(value("--out")),
            "--emit-benchmark-json" => {
                print!("{}", defs::benchmark_json());
                return;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            word if !word.starts_with('-') => positional.push(word.to_string()),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(workload) = workload {
        if !positional.is_empty() {
            fail("--workload runs one workload; drop the positional mode");
        }
        if !defs::WORKLOADS.iter().any(|w| w.name == workload) {
            fail(&format!("unknown workload {workload:?}"));
        }
        let args = RunArgs {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            out_dir,
        };
        match run(&args) {
            Ok(result) => println!("{}", result.to_json_line()),
            Err(error) => {
                // A broken harness invariant: no result line, non-zero exit.
                eprintln!("regemu-benchmark: {}: {error}", args.workload);
                std::process::exit(1);
            }
        }
        return;
    }

    let options = suite::SuiteOptions {
        seed,
        seconds,
        smoke,
        out_dir,
    };
    let is_workload = |name: &str| defs::WORKLOADS.iter().any(|w| w.name == name);
    let words: Vec<&str> = positional.iter().map(String::as_str).collect();
    let ok = match words[..] {
        [] | ["all"] => suite::run_all(&options, None),
        ["aa"] => suite::run_aa(&options),
        ["spread"] => suite::run_spread(&options, None),
        ["spread", name] if is_workload(name) => suite::run_spread(&options, Some(name)),
        [name] if is_workload(name) => suite::run_all(&options, Some(name)),
        _ => fail(&format!("unknown mode or workload {positional:?}")),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("regemu-benchmark: {error}");
            std::process::exit(1);
        }
    }
}
