//! `sweep_grid` — run a `(k, f, n) × emulation × workload × scheduler ×
//! crash-plan × recording × seed` sweep in parallel and serialize the
//! aggregated report.
//!
//! ```text
//! cargo run --release -p regemu-bench --bin sweep_grid -- [OPTIONS]
//!
//! OPTIONS:
//!   --quick             24-case grid (CI smoke) instead of the 96-case default
//!   --threads N         worker threads (default: one per CPU core)
//!   --seeds a,b,...     override the scheduler seeds
//!   --schedulers a,b    scheduler axis (fair, round-robin, delayed,
//!                       adversary-cover, adversary-silence; or `all`)
//!   --crash-plans a,b   crash-plan axis (none, crash-f; or `all`)
//!   --crash-f           shorthand for `--crash-plans crash-f`
//!   --recording a,b     recording-mode axis (full, digest, ring:N)
//!   --shards N          split the case space into N shards and run them
//!                       through the campaign shard/merge path (in-process;
//!                       see `campaign sweep` for multi-process runs)
//!   --json PATH         write the report as JSON (- for stdout)
//!   --csv PATH          write the report as CSV (- for stdout)
//! ```
//!
//! The report is deterministic: identical options produce byte-identical
//! JSON/CSV for any `--threads` value — and, through the campaign layer,
//! for any `--shards` value.

use regemu_bench::cli::{write_output, ConfigFlags, CONFIG_USAGE};
use regemu_bench::info;
use regemu_workloads::campaign::{run_campaign, CampaignOptions, WorkerMode};
use regemu_workloads::run_sweep;
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("sweep_grid: {msg}");
    eprintln!("usage: sweep_grid {CONFIG_USAGE} [--shards N] [--json PATH] [--csv PATH]");
    std::process::exit(2);
}

fn main() {
    // Collect flags first, then build the config, so option meaning does not
    // depend on argument order (e.g. `--seeds 1,2 --quick` keeps the seeds).
    let mut flags = ConfigFlags::default();
    let mut shards: usize = 1;
    let mut json_out: Option<String> = None;
    let mut csv_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match flags.accept(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => fail(&e),
        }
        match arg.as_str() {
            "--shards" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--shards needs a value"));
                shards = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("invalid shard count {v:?}")));
                if shards == 0 {
                    fail("--shards needs at least one shard");
                }
            }
            "--json" => json_out = Some(args.next().unwrap_or_else(|| fail("--json needs a path"))),
            "--csv" => csv_out = Some(args.next().unwrap_or_else(|| fail("--csv needs a path"))),
            other => fail(&format!("unknown option {other:?}")),
        }
    }

    let config = flags.into_config().unwrap_or_else(|e| fail(&e));

    let cases = config.case_count();
    let started = Instant::now();
    let report = if shards > 1 {
        // Convenience path through the campaign layer: a throwaway spool,
        // in-process workers, full shard/merge round trip.
        let spool = std::env::temp_dir().join(format!("regemu-sweep-grid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let mut options = CampaignOptions::new(&spool);
        options.shards = shards;
        options.worker_threads = config.threads;
        options.worker = WorkerMode::InProcess;
        options.quiet = true;
        let outcome = run_campaign(&config, &options).unwrap_or_else(|e| {
            eprintln!("sweep_grid: campaign failed: {e}");
            std::process::exit(1);
        });
        let _ = std::fs::remove_dir_all(&spool);
        outcome.report.expect("in-process campaign ran every shard")
    } else {
        run_sweep(&config)
    };
    let elapsed = started.elapsed();

    let consistent = report.results().iter().filter(|r| r.consistent).count();
    info!(
        "swept {cases} cases in {elapsed:.2?} ({} grid points x {} emulations x {} workloads x {} schedulers x {} crash plans x {} recordings x {} seeds{}): {consistent}/{cases} consistent",
        config.grid.len(),
        config.emulations.len(),
        config.workloads.len(),
        config.schedulers.len(),
        config.crash_plans.len(),
        config.recordings.len(),
        config.seeds.len(),
        if shards > 1 {
            format!(", {shards} shards")
        } else {
            String::new()
        },
    );
    for failure in report.failures() {
        eprintln!(
            "  FAIL case {} {} {} {} {} {} seed {}: {}",
            failure.case.index,
            failure.case.emulation,
            failure.case.params,
            failure.case.workload,
            failure.case.scheduler,
            failure.case.crashes,
            failure.case.seed,
            failure
                .error
                .as_deref()
                .or(failure.violation.as_deref())
                .unwrap_or("inconsistent"),
        );
    }

    if let Some(path) = &json_out {
        write_output(path, &report.to_json(), "JSON");
    }
    if let Some(path) = &csv_out {
        write_output(path, &report.to_csv(), "CSV");
    }
    if json_out.is_none() && csv_out.is_none() {
        // No sink requested: summarize per emulation on stdout.
        for kind in &config.emulations {
            let rows: Vec<_> = report
                .results()
                .iter()
                .filter(|r| r.case.emulation == *kind)
                .collect();
            let max_consumption = rows
                .iter()
                .map(|r| r.resource_consumption)
                .max()
                .unwrap_or(0);
            let completed: usize = rows.iter().map(|r| r.completed_ops).sum();
            println!(
                "{:>18}: {} cases, {} ops completed, max consumption {}",
                kind.name(),
                rows.len(),
                completed,
                max_consumption,
            );
        }
    }

    if !report.all_consistent() {
        std::process::exit(1);
    }
}
