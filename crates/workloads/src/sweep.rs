//! Parallel, deterministic parameter sweeps.
//!
//! A sweep fans a `(k, f, n) × emulation × workload × scheduler ×
//! crash-plan × recording × seed` grid out across `std::thread` workers and
//! aggregates
//! the per-case measurements into a [`SweepReport`]. Every case is one
//! [`crate::Scenario`] — *fully independent*: the worker builds its own
//! emulation instance, workload and seeded scheduler, so the report is a
//! pure function of the [`SweepConfig`] — running with 1 worker or 64
//! produces byte-identical [`SweepReport::to_json`] / [`SweepReport::to_csv`]
//! output. Workers pull cases from a shared atomic cursor (work stealing),
//! and results land in a slot vector indexed by case number, so scheduling
//! order never leaks into the output.
//!
//! ```
//! use regemu_workloads::sweep::{run_sweep, SweepConfig};
//!
//! let mut config = SweepConfig::quick();
//! config.threads = 2;
//! let report = run_sweep(&config);
//! assert_eq!(report.len(), config.case_count());
//! assert!(report.all_consistent());
//! ```

use crate::generator::Workload;
use crate::runner::ConsistencyCheck;
use crate::scenario::{CrashPlanSpec, RecordingModeSpec, Scenario, SchedulerSpec};
use crate::table::small_sweep;
use regemu_bounds::Params;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use regemu_core::EmulationKind;

/// A workload shape, instantiated per case with the case's `k` and seed.
///
/// Specs avoid floats so labels and JSON stay byte-stable across platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// [`Workload::write_sequential`]: `rounds` writes per writer, one at a
    /// time, optionally followed by a read each.
    WriteSequential {
        /// Writes per writer.
        rounds: usize,
        /// Issue a read after every write.
        read_after_each: bool,
    },
    /// [`Workload::read_heavy`]: each write followed by a burst of reads.
    ReadHeavy {
        /// Number of writes.
        writes: usize,
        /// Reads issued after each write.
        reads_per_write: usize,
        /// Distinct reader clients the reads rotate over.
        readers: usize,
    },
    /// [`Workload::random_mixed`]: `total` operations, each a write with
    /// probability `write_percent`/100. The generator is seeded with the
    /// case seed, so different seeds give different (but reproducible)
    /// operation sequences.
    RandomMixed {
        /// Distinct reader clients.
        readers: usize,
        /// Total operations.
        total: usize,
        /// Probability of a write, in percent (0–100).
        write_percent: u8,
    },
    /// [`Workload::concurrent_read_write`]: every write overlaps a read.
    ConcurrentReadWrite {
        /// Rounds of one write per writer.
        rounds: usize,
    },
}

impl WorkloadSpec {
    /// Builds the concrete workload for a case with `k` writers and `seed`.
    pub fn instantiate(&self, k: usize, seed: u64) -> Workload {
        match *self {
            WorkloadSpec::WriteSequential {
                rounds,
                read_after_each,
            } => Workload::write_sequential(k, rounds, read_after_each),
            WorkloadSpec::ReadHeavy {
                writes,
                reads_per_write,
                readers,
            } => Workload::read_heavy(k, writes, reads_per_write, readers),
            WorkloadSpec::RandomMixed {
                readers,
                total,
                write_percent,
            } => Workload::random_mixed(k, readers, total, f64::from(write_percent) / 100.0, seed),
            WorkloadSpec::ConcurrentReadWrite { rounds } => {
                Workload::concurrent_read_write(k, rounds)
            }
        }
    }

    /// The inverse of [`WorkloadSpec::label`], for CLI flags and the
    /// campaign config format: `label` round-trips through `from_label`
    /// exactly for every spec.
    pub fn from_label(label: &str) -> Option<Self> {
        if let Some(rest) = label.strip_prefix("write-seq/r") {
            let (rounds, read_after_each) = match rest.strip_suffix("+read") {
                Some(r) => (r, true),
                None => (rest, false),
            };
            return Some(WorkloadSpec::WriteSequential {
                rounds: rounds.parse().ok()?,
                read_after_each,
            });
        }
        if let Some(rest) = label.strip_prefix("read-heavy/w") {
            let (writes, rest) = rest.split_once('x')?;
            let (reads_per_write, readers) = rest.split_once('c')?;
            return Some(WorkloadSpec::ReadHeavy {
                writes: writes.parse().ok()?,
                reads_per_write: reads_per_write.parse().ok()?,
                readers: readers.parse().ok()?,
            });
        }
        if let Some(rest) = label.strip_prefix("mixed/") {
            let (total, rest) = rest.split_once("ops-")?;
            let (write_percent, readers) = rest.split_once("pct-c")?;
            return Some(WorkloadSpec::RandomMixed {
                readers: readers.parse().ok()?,
                total: total.parse().ok()?,
                write_percent: write_percent.parse().ok()?,
            });
        }
        if let Some(rounds) = label.strip_prefix("concurrent/r") {
            return Some(WorkloadSpec::ConcurrentReadWrite {
                rounds: rounds.parse().ok()?,
            });
        }
        None
    }

    /// Stable short label used in reports.
    pub fn label(&self) -> String {
        match *self {
            WorkloadSpec::WriteSequential {
                rounds,
                read_after_each,
            } => format!(
                "write-seq/r{rounds}{}",
                if read_after_each { "+read" } else { "" }
            ),
            WorkloadSpec::ReadHeavy {
                writes,
                reads_per_write,
                readers,
            } => format!("read-heavy/w{writes}x{reads_per_write}c{readers}"),
            WorkloadSpec::RandomMixed {
                readers,
                total,
                write_percent,
            } => format!("mixed/{total}ops-{write_percent}pct-c{readers}"),
            WorkloadSpec::ConcurrentReadWrite { rounds } => format!("concurrent/r{rounds}"),
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Declarative description of a sweep: the full cross product of
/// `grid × emulations × workloads × schedulers × crash_plans × recordings ×
/// seeds` is run, each point as one independent, deterministic
/// [`Scenario`].
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Parameter points `(k, f, n)` to sweep.
    pub grid: Vec<Params>,
    /// Constructions to run at each point.
    pub emulations: Vec<EmulationKind>,
    /// Workload shapes to run for each construction.
    pub workloads: Vec<WorkloadSpec>,
    /// Schedulers driving the runs; each is a separate case.
    pub schedulers: Vec<SchedulerSpec>,
    /// Crash plans injected into the runs; each is a separate case.
    pub crash_plans: Vec<CrashPlanSpec>,
    /// Recording modes the runs retain their event streams under; each is a
    /// separate case. Metrics are identical across modes, so this axis is
    /// used to bound sweep memory (and to prove the equivalence).
    pub recordings: Vec<RecordingModeSpec>,
    /// Scheduler seeds; each seed is a separate case.
    pub seeds: Vec<u64>,
    /// Consistency condition verified after every run.
    pub check: ConsistencyCheck,
    /// Per-operation step budget before a case is reported as stuck.
    pub max_steps_per_op: u64,
    /// Worker threads; `0` means one per available CPU core.
    pub threads: usize,
}

impl SweepConfig {
    /// A small but representative default: the CI-sized `(k, f, n)` grid ×
    /// all four constructions × a write-sequential and a mixed workload ×
    /// two seeds under the fair scheduler, failure-free (96 cases).
    pub fn standard() -> Self {
        SweepConfig {
            grid: small_sweep(),
            emulations: EmulationKind::ALL.to_vec(),
            workloads: vec![
                WorkloadSpec::WriteSequential {
                    rounds: 2,
                    read_after_each: true,
                },
                WorkloadSpec::RandomMixed {
                    readers: 2,
                    total: 12,
                    write_percent: 50,
                },
            ],
            schedulers: vec![SchedulerSpec::Fair],
            crash_plans: vec![CrashPlanSpec::None],
            recordings: vec![RecordingModeSpec::Full],
            seeds: vec![1, 2],
            check: ConsistencyCheck::WsRegular,
            max_steps_per_op: 100_000,
            threads: 0,
        }
    }

    /// A tiny grid (24 cases) that still crosses every construction with
    /// every workload shape — used by tests and the CI smoke run.
    pub fn quick() -> Self {
        SweepConfig {
            grid: [(1, 1, 3), (2, 1, 4), (2, 2, 5)]
                .into_iter()
                .map(|(k, f, n)| Params::new(k, f, n).expect("valid quick-grid point"))
                .collect(),
            emulations: EmulationKind::ALL.to_vec(),
            workloads: vec![
                WorkloadSpec::WriteSequential {
                    rounds: 1,
                    read_after_each: true,
                },
                WorkloadSpec::RandomMixed {
                    readers: 1,
                    total: 6,
                    write_percent: 50,
                },
            ],
            schedulers: vec![SchedulerSpec::Fair],
            crash_plans: vec![CrashPlanSpec::None],
            recordings: vec![RecordingModeSpec::Full],
            seeds: vec![7],
            check: ConsistencyCheck::WsRegular,
            max_steps_per_op: 100_000,
            threads: 0,
        }
    }

    /// Number of cases the cross product expands to.
    pub fn case_count(&self) -> usize {
        self.grid.len()
            * self.emulations.len()
            * self.workloads.len()
            * self.schedulers.len()
            * self.crash_plans.len()
            * self.recordings.len()
            * self.seeds.len()
    }

    /// Expands the cross product into concrete cases, in a stable order
    /// (grid-major, then emulation, workload, scheduler, crash plan,
    /// recording, seed).
    pub fn cases(&self) -> Vec<SweepCase> {
        let mut cases = Vec::with_capacity(self.case_count());
        for &params in &self.grid {
            for &emulation in &self.emulations {
                for workload in &self.workloads {
                    for &scheduler in &self.schedulers {
                        for &crashes in &self.crash_plans {
                            for &recording in &self.recordings {
                                for &seed in &self.seeds {
                                    cases.push(SweepCase {
                                        index: cases.len(),
                                        params,
                                        emulation,
                                        workload: *workload,
                                        scheduler,
                                        crashes,
                                        recording,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    fn worker_count(&self, cases: usize) -> usize {
        let available = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        available.min(cases).max(1)
    }
}

/// One point of the expanded sweep grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepCase {
    /// Position in [`SweepConfig::cases`] order; results are reported in
    /// this order regardless of which worker ran the case.
    pub index: usize,
    /// Parameter point.
    pub params: Params,
    /// Construction under test.
    pub emulation: EmulationKind,
    /// Workload shape.
    pub workload: WorkloadSpec,
    /// Scheduler driving the run.
    pub scheduler: SchedulerSpec,
    /// Crash plan injected into the run.
    pub crashes: CrashPlanSpec,
    /// Recording mode the run retains its event stream under.
    pub recording: RecordingModeSpec,
    /// Scheduler (and workload-generator) seed.
    pub seed: u64,
}

impl SweepCase {
    /// The [`Scenario`] this case describes; running it is the case.
    pub fn scenario(&self, check: ConsistencyCheck, max_steps_per_op: u64) -> Scenario {
        Scenario::new(self.params)
            .emulation(self.emulation)
            .workload(self.workload)
            .scheduler(self.scheduler)
            .crashes(self.crashes)
            .recording(self.recording)
            .check(check)
            .seed(self.seed)
            .max_steps_per_op(max_steps_per_op)
    }
}

/// The measured outcome of one sweep case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// The case that was run.
    pub case: SweepCase,
    /// Base objects the construction provisioned.
    pub provisioned_objects: usize,
    /// Resource consumption of the run (`|touched|`).
    pub resource_consumption: usize,
    /// Base objects left covered by a pending write at the end of the run.
    pub covered: usize,
    /// Peak number of covered objects over the whole run, `max_t |Cov(t)|` —
    /// the schedule-dependent coverage pressure the frontier campaign
    /// ([`crate::frontier`]) judges against the paper's bounds.
    pub peak_covered: usize,
    /// Peak number of covered objects on any single server over the run
    /// (Theorem 6's per-server quantity).
    pub peak_covered_server: usize,
    /// Maximum per-server occupancy: the largest number of touched objects
    /// on any single server (monotone, so the end-of-run value is the peak).
    pub max_occupancy: usize,
    /// Point contention of the run.
    pub point_contention: usize,
    /// Low-level operations triggered.
    pub low_level_triggers: u64,
    /// Low-level operations that responded.
    pub low_level_responses: u64,
    /// High-level operations that completed.
    pub completed_ops: usize,
    /// `true` when the configured consistency check passed.
    pub consistent: bool,
    /// How much of the run the verdict is based on (`complete`,
    /// `truncated`, `unrecorded`; empty when the run errored).
    pub coverage: String,
    /// Violation description when the check failed.
    pub violation: Option<String>,
    /// Engine error when the run itself failed (e.g. stuck past the step
    /// budget); the rest of the row is zeroed in that case.
    pub error: Option<String>,
}

fn run_case(case: &SweepCase, config: &SweepConfig) -> CaseResult {
    let scenario = case.scenario(config.check, config.max_steps_per_op);
    match scenario.run() {
        Ok(report) => CaseResult {
            case: *case,
            provisioned_objects: report.provisioned_objects,
            resource_consumption: report.metrics.resource_consumption(),
            covered: report.metrics.covered_count(),
            peak_covered: report.metrics.peak_covered_count(),
            peak_covered_server: report.metrics.peak_covered_on_one_server,
            max_occupancy: report.metrics.max_occupancy(),
            point_contention: report.metrics.point_contention,
            low_level_triggers: report.metrics.low_level_triggers,
            low_level_responses: report.metrics.low_level_responses,
            completed_ops: report.completed_ops,
            consistent: report.is_consistent(),
            coverage: report.check_coverage.name().to_string(),
            violation: report.check_violation.as_ref().map(ToString::to_string),
            error: None,
        },
        Err(e) => CaseResult {
            case: *case,
            provisioned_objects: case.emulation.build(case.params).base_object_count(),
            resource_consumption: 0,
            covered: 0,
            peak_covered: 0,
            peak_covered_server: 0,
            max_occupancy: 0,
            point_contention: 0,
            low_level_triggers: 0,
            low_level_responses: 0,
            completed_ops: 0,
            consistent: false,
            coverage: String::new(),
            violation: None,
            error: Some(e.to_string()),
        },
    }
}

/// Aggregated results of a sweep, in case order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReport {
    results: Vec<CaseResult>,
}

impl SweepReport {
    /// Assembles a report from already-measured results.
    ///
    /// The caller is responsible for supplying the results in
    /// [`SweepConfig::cases`] order — this is how the campaign layer
    /// reassembles a report from per-shard files, after slotting every
    /// parsed result by its case index.
    pub(crate) fn from_results(results: Vec<CaseResult>) -> Self {
        SweepReport { results }
    }

    /// The per-case results, in [`SweepConfig::cases`] order.
    pub fn results(&self) -> &[CaseResult] {
        &self.results
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Returns `true` when every case ran to completion and passed its
    /// consistency check.
    pub fn all_consistent(&self) -> bool {
        self.results.iter().all(|r| r.consistent)
    }

    /// Cases whose consistency check failed or whose run errored.
    pub fn failures(&self) -> impl Iterator<Item = &CaseResult> {
        self.results.iter().filter(|r| !r.consistent)
    }

    /// Serializes the report as a deterministic JSON document: an object
    /// with a `cases` array (one object per case, fields in a fixed order)
    /// and summary counts. Hand-rolled so the offline serde shim suffices;
    /// byte-identical for identical configs regardless of worker count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cases\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let c = &r.case;
            out.push_str(&format!(
                "    {{\"index\": {}, \"emulation\": \"{}\", \"k\": {}, \"f\": {}, \"n\": {}, \
                 \"workload\": \"{}\", \"scheduler\": \"{}\", \"crashes\": \"{}\", \
                 \"recording\": \"{}\", \"seed\": {}, \
                 \"provisioned\": {}, \"consumption\": {}, \
                 \"covered\": {}, \"peak_covered\": {}, \"peak_covered_server\": {}, \
                 \"occupancy\": {}, \"contention\": {}, \"triggers\": {}, \"responses\": {}, \
                 \"completed\": {}, \"consistent\": {}, \"coverage\": \"{}\", \
                 \"violation\": {}, \"error\": {}}}{}\n",
                c.index,
                c.emulation.name(),
                c.params.k,
                c.params.f,
                c.params.n,
                json_escape(&c.workload.label()),
                c.scheduler.name(),
                c.crashes.name(),
                json_escape(&c.recording.label()),
                c.seed,
                r.provisioned_objects,
                r.resource_consumption,
                r.covered,
                r.peak_covered,
                r.peak_covered_server,
                r.max_occupancy,
                r.point_contention,
                r.low_level_triggers,
                r.low_level_responses,
                r.completed_ops,
                r.consistent,
                json_escape(&r.coverage),
                json_opt_string(r.violation.as_deref()),
                json_opt_string(r.error.as_deref()),
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        let consistent = self.results.iter().filter(|r| r.consistent).count();
        out.push_str(&format!(
            "  ],\n  \"case_count\": {},\n  \"consistent_count\": {}\n}}\n",
            self.results.len(),
            consistent,
        ));
        out
    }

    /// Serializes the report as CSV with a fixed header, one row per case.
    /// Deterministic for identical configs regardless of worker count.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,emulation,k,f,n,workload,scheduler,crashes,recording,seed,provisioned,\
             consumption,covered,peak_covered,peak_covered_server,occupancy,contention,\
             triggers,responses,completed,consistent,coverage,violation,error\n",
        );
        for r in &self.results {
            let c = &r.case;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                c.index,
                c.emulation.name(),
                c.params.k,
                c.params.f,
                c.params.n,
                csv_field(&c.workload.label()),
                c.scheduler.name(),
                c.crashes.name(),
                csv_field(&c.recording.label()),
                c.seed,
                r.provisioned_objects,
                r.resource_consumption,
                r.covered,
                r.peak_covered,
                r.peak_covered_server,
                r.max_occupancy,
                r.point_contention,
                r.low_level_triggers,
                r.low_level_responses,
                r.completed_ops,
                r.consistent,
                csv_field(&r.coverage),
                csv_field(r.violation.as_deref().unwrap_or("")),
                csv_field(r.error.as_deref().unwrap_or("")),
            ));
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt_string(s: Option<&str>) -> String {
    match s {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Runs every case of `config` across a pool of worker threads and collects
/// the results in case order.
///
/// Workers claim cases from a shared atomic cursor; each case is hermetic
/// (its own emulation instance, workload and seeded driver), so the returned
/// report — and its JSON/CSV serializations — are identical for any worker
/// count, including 1.
pub fn run_sweep(config: &SweepConfig) -> SweepReport {
    let cases = config.cases();
    run_cases(config, &cases, |_| {})
}

/// Work-stealing pool behind [`run_sweep`] and the campaign's shard worker
/// ([`crate::campaign::run_shard`]): each case is hermetic, results land in
/// slots indexed by position, so the output is identical for any worker
/// count. The returned report holds `cases` with their global indices
/// intact. After each case, the worker that ran it calls `on_done` with the
/// number of cases finished so far.
pub(crate) fn run_cases(
    config: &SweepConfig,
    cases: &[SweepCase],
    on_done: impl Fn(usize) + Sync,
) -> SweepReport {
    let workers = config.worker_count(cases.len());
    let slots: Mutex<Vec<Option<CaseResult>>> = Mutex::new(vec![None; cases.len()]);
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(i) else {
                    break;
                };
                let result = run_case(case, config);
                slots.lock().expect("sweep result lock")[i] = Some(result);
                on_done(done.fetch_add(1, Ordering::Relaxed) + 1);
            });
        }
    });

    let results: Vec<CaseResult> = slots
        .into_inner()
        .expect("sweep result lock")
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("sweep case {i} produced no result")))
        .collect();
    SweepReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_consistent_and_fully_reported() {
        let mut config = SweepConfig::quick();
        config.threads = 1;
        let report = run_sweep(&config);
        assert_eq!(report.len(), config.case_count());
        assert_eq!(report.len(), 24);
        assert!(report.all_consistent(), "{:?}", report.failures().next());
        for (i, r) in report.results().iter().enumerate() {
            assert_eq!(r.case.index, i);
            assert!(r.error.is_none());
            assert!(r.resource_consumption <= r.provisioned_objects);
            assert!(r.completed_ops > 0);
        }
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let mut config = SweepConfig::quick();
        config.threads = 1;
        let single = run_sweep(&config);
        config.threads = 4;
        let multi = run_sweep(&config);
        assert_eq!(single, multi);
        assert_eq!(single.to_json(), multi.to_json());
        assert_eq!(single.to_csv(), multi.to_csv());
    }

    #[test]
    fn scheduler_axis_sweeps_deterministically_across_worker_counts() {
        let mut config = SweepConfig::quick();
        config.grid.truncate(2);
        config.workloads.truncate(1);
        config.schedulers = SchedulerSpec::ALL.to_vec();
        config.threads = 1;
        let single = run_sweep(&config);
        assert_eq!(single.len(), config.case_count());
        assert_eq!(single.len(), 2 * 4 * SchedulerSpec::ALL.len());
        assert!(single.all_consistent(), "{:?}", single.failures().next());
        config.threads = 4;
        let multi = run_sweep(&config);
        assert_eq!(single.to_json(), multi.to_json());
        assert_eq!(single.to_csv(), multi.to_csv());
        // Every scheduler actually appears in the serialized report.
        for s in SchedulerSpec::ALL {
            assert!(single.to_csv().contains(s.name()), "{} missing", s.name());
        }
    }

    #[test]
    fn crash_plan_axis_cases_survive_and_stay_consistent() {
        let mut config = SweepConfig::quick();
        config.crash_plans = CrashPlanSpec::ALL.to_vec();
        config.threads = 2;
        let report = run_sweep(&config);
        assert_eq!(report.len(), 24 * CrashPlanSpec::ALL.len());
        assert!(report.all_consistent(), "{:?}", report.failures().next());
    }

    #[test]
    fn recording_axis_reports_identical_metrics_columns() {
        let mut config = SweepConfig::quick();
        config.grid.truncate(2);
        config.recordings = vec![
            RecordingModeSpec::Full,
            RecordingModeSpec::Digest,
            RecordingModeSpec::Ring(1024),
        ];
        config.threads = 2;
        let report = run_sweep(&config);
        assert_eq!(report.len(), config.case_count());
        assert_eq!(report.len(), 2 * 4 * 2 * 3);
        // Cases come in (full, digest, ring) triples that differ only in the
        // recording axis: their measured columns must be identical, and the
        // coverage column tells the three modes apart.
        for triple in report.results().chunks(3) {
            let [full, digest, ring] = triple else {
                panic!("recording axis must expand to triples");
            };
            assert_eq!(full.case.recording, RecordingModeSpec::Full);
            assert_eq!(digest.case.recording, RecordingModeSpec::Digest);
            assert_eq!(ring.case.recording, RecordingModeSpec::Ring(1024));
            for bounded in [digest, ring] {
                assert_eq!(bounded.resource_consumption, full.resource_consumption);
                assert_eq!(bounded.covered, full.covered);
                assert_eq!(bounded.peak_covered, full.peak_covered);
                assert_eq!(bounded.peak_covered_server, full.peak_covered_server);
                assert_eq!(bounded.max_occupancy, full.max_occupancy);
                assert_eq!(bounded.point_contention, full.point_contention);
                assert_eq!(bounded.low_level_triggers, full.low_level_triggers);
                assert_eq!(bounded.low_level_responses, full.low_level_responses);
                assert_eq!(bounded.completed_ops, full.completed_ops);
            }
            assert_eq!(full.coverage, "complete");
            assert_eq!(digest.coverage, "unrecorded");
            assert_eq!(ring.coverage, "complete");
            assert_eq!(ring.consistent, full.consistent);
        }
        let csv = report.to_csv();
        assert!(csv.contains(",digest,"));
        assert!(csv.contains(",ring:1024,"));
    }

    #[test]
    fn json_and_csv_have_one_record_per_case() {
        let mut config = SweepConfig::quick();
        config.threads = 2;
        let report = run_sweep(&config);
        let json = report.to_json();
        assert_eq!(json.matches("\"index\":").count(), report.len());
        assert!(json.contains("\"case_count\": 24"));
        assert!(json.contains("\"scheduler\": \"fair\""));
        assert!(json.contains("\"crashes\": \"none\""));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), report.len() + 1);
        assert!(csv.starts_with("index,emulation,k,f,n,workload,scheduler,crashes,recording,seed"));
    }

    #[test]
    fn escaping_helpers_handle_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_opt_string(None), "null");
        assert_eq!(json_opt_string(Some("x")), "\"x\"");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn workload_specs_instantiate_with_case_parameters() {
        let spec = WorkloadSpec::RandomMixed {
            readers: 2,
            total: 10,
            write_percent: 50,
        };
        let a = spec.instantiate(3, 7);
        let b = spec.instantiate(3, 7);
        let c = spec.instantiate(3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different mixes");
        assert_eq!(a.len(), 10);
        assert_eq!(spec.label(), "mixed/10ops-50pct-c2");
        assert_eq!(
            WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true
            }
            .label(),
            "write-seq/r2+read"
        );
    }
}
