//! What the benchmark reads from the machine: peak memory and a fingerprint.

use crate::json;

/// Peak resident set of this process (`VmHWM`) in MB. Each workload runs in
/// its own process, so the high-water mark is that workload's alone.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_prefix(prefix)
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
}

/// The machine fingerprint every result file carries, as rendered
/// `"key": value` JSON members. `rustc -V` and the git commit come from
/// `run.sh` through the environment: the benchmark itself starts no tools.
pub fn fingerprint() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = first_line_with("/proc/cpuinfo", "model name").unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    vec![
        format!("\"nproc\": {nproc}"),
        format!("\"cpu\": {}", json::quote(&cpu)),
        format!("\"kernel\": {}", json::quote(kernel.trim())),
        format!("\"rustc\": {}", json::quote(&env("REGEMU_BENCH_RUSTC"))),
        format!("\"commit\": {}", json::quote(&env("REGEMU_BENCH_COMMIT"))),
    ]
}
