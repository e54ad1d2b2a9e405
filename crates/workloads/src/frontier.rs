//! Frontier campaigns: measured peak space versus the paper's bounds.
//!
//! The paper's central result is a *gap*: any `f`-tolerant `k`-writer
//! register emulation from read/write base registers needs at least
//! `kf + ⌈kf/(n-f-1)⌉·(f+1)` of them (Theorem 1), the wait-free
//! construction uses `kf + ⌈k/z⌉·(f+1)` (Theorem 3), and max-register/CAS
//! base objects collapse both to `2f + 1`. This module turns those closed
//! forms into executable oracles over real runs: a frontier campaign is a
//! plain [`SweepConfig`] ([`over_grid`], [`quick`]) over a `(k, f, n) ×
//! emulation × scheduler × crash-plan` grid whose cases sample **peak**
//! space metrics per run (peak `|Cov(t)|`, per-server occupancy, resource
//! consumption — tracked incrementally by the engine, not snapshotted at
//! the end). [`FrontierReport::from_sweep`] judges every `(point,
//! construction)` pair of the report with [`regemu_bounds::BoundVerdict`].
//! The result is a Figure-1-style [`FrontierReport`]: measured peaks next
//! to the lower bound, the upper bound and the `2f + 1` max-register/CAS
//! row, with slack columns.
//!
//! The table is a pure fold over the [`SweepReport`] alone, and the sweep
//! is deterministic at any thread count — so sharding the campaign over
//! worker processes with [`crate::campaign`] (kill/resume included) merges
//! to a byte-identical frontier table.
//!
//! ```
//! use regemu_workloads::frontier::{self, FrontierReport};
//! use regemu_workloads::run_sweep;
//!
//! let mut config = frontier::quick();
//! config.threads = 2;
//! let report = FrontierReport::from_sweep(&run_sweep(&config));
//! assert!(report.all_within_upper());
//! ```

use crate::runner::ConsistencyCheck;
use crate::scenario::{CrashPlanSpec, RecordingModeSpec, SchedulerSpec};
use crate::sweep::{SweepConfig, SweepReport, WorkloadSpec};
use crate::table::TextTable;
use regemu_bounds::{max_register_bound, BoundClass, BoundVerdict, Params};
use regemu_core::EmulationKind;
use std::collections::BTreeMap;

/// The Table-1 row a construction's measurements are judged against.
pub(crate) fn bound_class_of(kind: EmulationKind) -> BoundClass {
    match kind {
        EmulationKind::AbdMaxRegister | EmulationKind::AbdMaxRegisterAtomic => {
            BoundClass::MaxRegister
        }
        EmulationKind::AbdCas | EmulationKind::AbdCasAtomic => BoundClass::Cas,
        EmulationKind::SpaceOptimal => BoundClass::Register,
        EmulationKind::RegisterBank | EmulationKind::RegisterBankAtomic => BoundClass::RegisterBank,
    }
}

/// The default frontier instrument over `grid`: all four constructions, a
/// concurrent write-sequential workload, fair scheduling next to the
/// covering adversary ([`SchedulerSpec::CoverAdversary`], which drives
/// coverage toward the lower-bound frontier), failure-free and `CrashF`
/// plans, three seeds. The recording axis is `[Full]`: the metrics (and
/// therefore the frontier table) are byte-identical in every recording
/// mode, so sweeping that axis would only duplicate cases.
pub fn over_grid(grid: Vec<Params>) -> SweepConfig {
    SweepConfig {
        grid,
        emulations: EmulationKind::ALL.to_vec(),
        workloads: vec![WorkloadSpec::WriteSequential {
            rounds: 2,
            read_after_each: true,
        }],
        schedulers: vec![SchedulerSpec::Fair, SchedulerSpec::CoverAdversary],
        crash_plans: vec![CrashPlanSpec::None, CrashPlanSpec::CrashF],
        recordings: vec![RecordingModeSpec::Full],
        seeds: vec![1, 2, 3],
        check: ConsistencyCheck::WsRegular,
        max_steps_per_op: 100_000,
        threads: 0,
    }
}

/// [`over_grid`] over a small fixed grid (9 points spanning `f ∈ {1, 2}`
/// from minimal to saturated `n`) with two seeds — the golden-table and
/// smoke-test configuration.
pub fn quick() -> SweepConfig {
    let grid = [
        (1, 1, 3),
        (2, 1, 3),
        (4, 1, 3),
        (2, 1, 4),
        (4, 1, 5),
        (4, 1, 6),
        (2, 2, 5),
        (3, 2, 6),
        (5, 2, 6),
    ]
    .into_iter()
    .map(|(k, f, n)| Params::new(k, f, n).expect("valid quick frontier point"))
    .collect();
    SweepConfig {
        seeds: vec![1, 2],
        ..over_grid(grid)
    }
}

/// One `(k, f, n) × construction` row of the frontier table: the measured
/// peaks, aggregated over every workload, scheduler, crash plan and seed of
/// the sweep, judged against the paper's bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierRow {
    /// The parameter point.
    pub params: Params,
    /// The construction measured.
    pub emulation: EmulationKind,
    /// Base objects the construction provisioned.
    pub provisioned: usize,
    /// Peak resource consumption over all runs of this row (`touched` is
    /// monotone, so this is also the per-run peak).
    pub peak_used: usize,
    /// Peak `|Cov(t)|` over all runs of this row.
    pub peak_covered: usize,
    /// Peak `|Cov(t)|` restricted to [`SchedulerSpec::Fair`] runs, when the
    /// sweep has any — the clean-schedule baseline.
    pub fair_peak_covered: Option<usize>,
    /// Peak `|Cov(t)|` restricted to [`SchedulerSpec::CoverAdversary`]
    /// runs, when the sweep has any — the `Ad_i`-style pressure reading.
    pub adversary_peak_covered: Option<usize>,
    /// Peak per-server occupancy over all runs of this row.
    pub max_occupancy: usize,
    /// `peak_used` judged against this construction's Table-1 row.
    pub verdict: BoundVerdict,
    /// Sweep cases aggregated into this row.
    pub cases: usize,
    /// Cases whose consistency check failed.
    pub inconsistent: usize,
    /// Cases whose run errored (e.g. stuck past the step budget).
    pub errors: usize,
}

impl FrontierRow {
    /// The `2f + 1` max-register/CAS bound at this row's parameters — the
    /// separation column of Table 1.
    pub(crate) fn rmw_bound(&self) -> usize {
        max_register_bound(self.params.f)
    }
}

/// The frontier table: one [`FrontierRow`] per `(k, f, n) × construction`,
/// in the order the pair first appears in the sweep report — grid-major,
/// then emulation, as [`SweepConfig::cases`] expands them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierReport {
    rows: Vec<FrontierRow>,
}

impl FrontierReport {
    /// Folds a sweep report into the frontier table — a pure function of
    /// the report, so a report merged from campaign shards yields a
    /// byte-identical table to a single-process [`crate::sweep::run_sweep`].
    pub fn from_sweep(report: &SweepReport) -> Self {
        let mut rows: Vec<FrontierRow> = Vec::new();
        let mut slot_of: BTreeMap<(usize, usize, usize, &'static str), usize> = BTreeMap::new();
        for r in report.results() {
            let c = &r.case;
            let key = (c.params.k, c.params.f, c.params.n, c.emulation.name());
            let slot = *slot_of.entry(key).or_insert_with(|| {
                rows.push(FrontierRow {
                    params: c.params,
                    emulation: c.emulation,
                    provisioned: 0,
                    peak_used: 0,
                    peak_covered: 0,
                    fair_peak_covered: None,
                    adversary_peak_covered: None,
                    max_occupancy: 0,
                    verdict: BoundVerdict::judge(bound_class_of(c.emulation), c.params, 0),
                    cases: 0,
                    inconsistent: 0,
                    errors: 0,
                });
                rows.len() - 1
            });
            let row = &mut rows[slot];
            row.provisioned = row.provisioned.max(r.provisioned_objects);
            row.peak_used = row.peak_used.max(r.resource_consumption);
            row.peak_covered = row.peak_covered.max(r.peak_covered);
            row.max_occupancy = row.max_occupancy.max(r.max_occupancy);
            match c.scheduler {
                SchedulerSpec::Fair => {
                    row.fair_peak_covered =
                        Some(row.fair_peak_covered.unwrap_or(0).max(r.peak_covered));
                }
                SchedulerSpec::CoverAdversary => {
                    row.adversary_peak_covered =
                        Some(row.adversary_peak_covered.unwrap_or(0).max(r.peak_covered));
                }
                _ => {}
            }
            row.cases += 1;
            if !r.consistent {
                row.inconsistent += 1;
            }
            if r.error.is_some() {
                row.errors += 1;
            }
        }

        for row in &mut rows {
            row.verdict =
                BoundVerdict::judge(bound_class_of(row.emulation), row.params, row.peak_used);
        }
        FrontierReport { rows }
    }

    /// The rows, in report order.
    pub fn rows(&self) -> &[FrontierRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when every row's measured peak respects its upper bound — the
    /// headline property of the campaign.
    pub fn all_within_upper(&self) -> bool {
        self.rows.iter().all(|r| r.verdict.within_upper())
    }

    /// Rows whose measured peak exceeds the construction's upper bound.
    pub fn violations(&self) -> impl Iterator<Item = &FrontierRow> {
        self.rows.iter().filter(|r| !r.verdict.within_upper())
    }

    /// Renders the Figure-1-style frontier table.
    pub fn to_text(&self) -> String {
        let mut table = TextTable::new(
            format!(
                "Space-complexity frontier — measured peaks vs the paper's bounds ({} rows)",
                self.rows.len()
            ),
            &[
                "k",
                "f",
                "n",
                "emulation",
                "class",
                "prov",
                "peak-used",
                "occ",
                "cov-peak",
                "cov-fair",
                "cov-adv",
                "lower",
                "upper",
                "2f+1",
                "slack",
                "verdict",
            ],
        );
        let opt = |v: Option<usize>| v.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string());
        for r in &self.rows {
            table.push_row([
                r.params.k.to_string(),
                r.params.f.to_string(),
                r.params.n.to_string(),
                r.emulation.name().to_string(),
                r.verdict.class.name().to_string(),
                r.provisioned.to_string(),
                r.peak_used.to_string(),
                r.max_occupancy.to_string(),
                r.peak_covered.to_string(),
                opt(r.fair_peak_covered),
                opt(r.adversary_peak_covered),
                r.verdict.lower.to_string(),
                r.verdict.upper.to_string(),
                r.rmw_bound().to_string(),
                r.verdict.slack().to_string(),
                r.verdict.label().to_string(),
            ]);
        }
        table.to_string()
    }

    /// Serializes the table as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| {
            v.map(|v| v.to_string())
                .unwrap_or_else(|| "null".to_string())
        };
        let mut out = String::from("{\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"k\": {}, \"f\": {}, \"n\": {}, \"emulation\": \"{}\", \
                 \"class\": \"{}\", \"provisioned\": {}, \"peak_used\": {}, \
                 \"max_occupancy\": {}, \"peak_covered\": {}, \"fair_peak_covered\": {}, \
                 \"adversary_peak_covered\": {}, \"lower\": {}, \"upper\": {}, \
                 \"rmw_bound\": {}, \"slack\": {}, \"verdict\": \"{}\", \
                 \"cases\": {}, \"inconsistent\": {}, \"errors\": {}}}{}\n",
                r.params.k,
                r.params.f,
                r.params.n,
                r.emulation.name(),
                r.verdict.class.name(),
                r.provisioned,
                r.peak_used,
                r.max_occupancy,
                r.peak_covered,
                opt(r.fair_peak_covered),
                opt(r.adversary_peak_covered),
                r.verdict.lower,
                r.verdict.upper,
                r.rmw_bound(),
                r.verdict.slack(),
                r.verdict.label(),
                r.cases,
                r.inconsistent,
                r.errors,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        let within = self
            .rows
            .iter()
            .filter(|r| r.verdict.within_upper())
            .count();
        out.push_str(&format!(
            "  ],\n  \"row_count\": {},\n  \"within_upper_count\": {}\n}}\n",
            self.rows.len(),
            within,
        ));
        out
    }

    /// Serializes the table as CSV with a fixed header. Optional columns
    /// render empty when the sweep has no matching scheduler.
    pub fn to_csv(&self) -> String {
        let opt = |v: Option<usize>| v.map(|v| v.to_string()).unwrap_or_default();
        let mut out = String::from(
            "k,f,n,emulation,class,provisioned,peak_used,max_occupancy,peak_covered,\
             fair_peak_covered,adversary_peak_covered,lower,upper,rmw_bound,slack,verdict,\
             cases,inconsistent,errors\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.params.k,
                r.params.f,
                r.params.n,
                r.emulation.name(),
                r.verdict.class.name(),
                r.provisioned,
                r.peak_used,
                r.max_occupancy,
                r.peak_covered,
                opt(r.fair_peak_covered),
                opt(r.adversary_peak_covered),
                r.verdict.lower,
                r.verdict.upper,
                r.rmw_bound(),
                r.verdict.slack(),
                r.verdict.label(),
                r.cases,
                r.inconsistent,
                r.errors,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;

    #[test]
    fn quick_frontier_stays_within_every_upper_bound() {
        let mut config = quick();
        config.threads = 2;
        let report = FrontierReport::from_sweep(&run_sweep(&config));
        assert_eq!(report.len(), config.grid.len() * config.emulations.len());
        assert!(
            report.all_within_upper(),
            "{:?}",
            report.violations().next()
        );
        for row in report.rows() {
            assert_eq!(
                row.cases,
                2 * 2 * 2,
                "workloads × schedulers × plans × seeds"
            );
            assert_eq!(row.errors, 0);
            assert_eq!(row.inconsistent, 0);
            assert!(row.peak_used <= row.provisioned);
            assert!(row.peak_covered >= row.fair_peak_covered.unwrap_or(0));
            assert!(row.peak_covered >= row.adversary_peak_covered.unwrap_or(0));
        }
    }

    #[test]
    fn frontier_table_is_a_pure_fold_of_the_sweep() {
        let mut config = quick();
        config.grid.truncate(3);
        config.seeds = vec![1];
        config.threads = 1;
        let sweep = run_sweep(&config);
        let a = FrontierReport::from_sweep(&sweep);
        let b = FrontierReport::from_sweep(&sweep);
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        config.threads = 4;
        let c = FrontierReport::from_sweep(&run_sweep(&config));
        assert_eq!(a.to_json(), c.to_json());
        assert_eq!(a.to_csv(), c.to_csv());
    }

    #[test]
    fn rendered_table_carries_the_bound_columns() {
        let mut config = quick();
        config.grid = vec![Params::new(5, 2, 6).unwrap()]; // Figure 1 point
        config.seeds = vec![1];
        config.threads = 2;
        let report = FrontierReport::from_sweep(&run_sweep(&config));
        let text = report.to_text();
        assert!(text.contains("lower"), "{text}");
        assert!(text.contains("upper"));
        assert!(text.contains("2f+1"));
        // Figure 1: lower 22, upper 25, rmw bound 5.
        let space_optimal = report
            .rows()
            .iter()
            .find(|r| r.emulation == EmulationKind::SpaceOptimal)
            .unwrap();
        assert_eq!(space_optimal.verdict.lower, 22);
        assert_eq!(space_optimal.verdict.upper, 25);
        assert_eq!(space_optimal.rmw_bound(), 5);
        let json = report.to_json();
        assert!(json.contains("\"lower\": 22"));
        assert!(json.contains("\"upper\": 25"));
        let csv = report.to_csv();
        assert!(csv.starts_with("k,f,n,emulation,class,provisioned,peak_used"));
        assert_eq!(csv.lines().count(), report.len() + 1);
    }
}
