//! `fuzz_campaign` — coverage-guided schedule fuzzing and trace replay.
//!
//! ```text
//! # Fuzz: explore schedules, shrink the first failure to a trace file.
//! cargo run --release -p regemu-bench --bin fuzz_campaign -- \
//!     [--params k,f,n] [--emulation NAME] [--workload LABEL] [--check NAME] \
//!     [--seed S] [--budget B] [--stop-on-failure] [--out FILE] [--trace FILE]
//!
//! # Replay: re-execute a recorded trace and re-derive its verdict.
//! cargo run --release -p regemu-bench --bin fuzz_campaign -- replay TRACE
//! ```
//!
//! Fuzz mode writes the deterministic campaign report to `--out` (`-` =
//! stdout, the default) and, when a failure is found, the shrunk repro to
//! `--trace` as a `regemu-trace v1` file plus the failure report to stderr.
//! Replay mode prints the verdict of the replayed schedule.
//!
//! Exit status: `0` when the campaign is clean (or the replay passes), `2`
//! when a failure is found (or the replay fails), `1` on usage or I/O
//! errors. The same seed always produces the same report, the same shrunk
//! trace and the same exit status.

use regemu_bench::cli::{accept_fuzz_flag, enter, fail, unknown, value, write_output, FUZZ_USAGE};
use regemu_bench::info;
use regemu_workloads::fuzz::{fuzz_and_shrink, replay, FuzzConfig, RecordedSchedule};

fn run_replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read trace {path}: {e}")));
    let schedule = RecordedSchedule::from_text(&text)
        .unwrap_or_else(|e| fail(&format!("malformed trace {path}: {e}")));
    let outcome = replay(&schedule).unwrap_or_else(|e| fail(&format!("cannot replay: {e}")));
    println!("verdict {}", outcome.verdict);
    std::process::exit(if outcome.kind.is_some() { 2 } else { 0 });
}

fn main() {
    enter(
        "fuzz_campaign".into(),
        format!(
            "{FUZZ_USAGE} [--stop-on-failure] [--out FILE] [--trace FILE]\n       \
             fuzz_campaign replay TRACE"
        ),
        1,
    );
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("replay") {
        args.next();
        let path = args
            .next()
            .unwrap_or_else(|| fail("replay needs a trace file"));
        if args.next().is_some() {
            fail("replay takes exactly one trace file");
        }
        run_replay(&path);
    }

    let default_params = regemu_bounds::Params::new(1, 1, 3).expect("default parameters");
    let mut config = FuzzConfig::new(default_params);
    let mut out = "-".to_string();
    let mut trace_path: Option<String> = None;

    while let Some(arg) = args.next() {
        if accept_fuzz_flag(&mut config, &arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--stop-on-failure" => config.stop_on_failure = true,
            "--out" => out = value(&mut args, &arg),
            "--trace" => trace_path = Some(value(&mut args, &arg)),
            other => unknown(other),
        }
    }

    let (report, shrunk) = fuzz_and_shrink(config);
    write_output(&out, &report.to_text(), "fuzz report");
    match shrunk {
        Some(failure) => {
            eprint!("{}", failure.to_text());
            if let Some(path) = trace_path {
                write_output(&path, &failure.trace.to_text(), "shrunk trace");
                eprintln!("replay with: {}", failure.replay_command(&path));
            }
            std::process::exit(2);
        }
        None => {
            info!(
                "fuzz_campaign: clean — {} iterations, corpus {}",
                report.iterations, report.corpus_size
            );
        }
    }
}
