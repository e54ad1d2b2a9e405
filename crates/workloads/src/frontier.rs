//! Frontier campaigns: measured peak space versus the paper's bounds.
//!
//! The paper's central result is a *gap*: any `f`-tolerant `k`-writer
//! register emulation from read/write base registers needs at least
//! `kf + ⌈kf/(n-f-1)⌉·(f+1)` of them (Theorem 1), the wait-free
//! construction uses `kf + ⌈k/z⌉·(f+1)` (Theorem 3), and max-register/CAS
//! base objects collapse both to `2f + 1`. This module turns those closed
//! forms into executable oracles over real runs: a [`FrontierConfig`]
//! sweeps a `(k, f, n) × emulation × scheduler × crash-plan` grid, samples
//! **peak** space metrics per run (peak `|Cov(t)|`, per-server occupancy,
//! resource consumption — tracked incrementally by the engine, not
//! snapshotted at the end), and judges every `(point, construction)` pair
//! with [`regemu_bounds::BoundVerdict`]. The result is a Figure-1-style
//! [`FrontierReport`]: measured peaks next to the lower bound, the upper
//! bound and the `2f + 1` max-register/CAS row, with slack columns.
//!
//! A frontier run is a pure function of its [`FrontierConfig`]: the
//! underlying sweep is deterministic at any thread count, and
//! [`FrontierReport::from_sweep`] is a pure fold over the
//! [`SweepReport`] — so sharding the campaign over worker processes with
//! [`crate::campaign`] (kill/resume included) merges to a byte-identical
//! frontier table.
//!
//! ```
//! use regemu_workloads::frontier::{run_frontier, FrontierConfig};
//!
//! let mut config = FrontierConfig::quick();
//! config.threads = 2;
//! let report = run_frontier(&config)?;
//! assert!(report.all_within_upper());
//! # Ok::<(), regemu_workloads::frontier::FrontierError>(())
//! ```

use crate::campaign::{run_campaign, CampaignError, CampaignOptions};
use crate::runner::ConsistencyCheck;
use crate::scenario::{CrashPlanSpec, RecordingModeSpec, SchedulerSpec};
use crate::sweep::{run_sweep, SweepConfig, SweepReport, WorkloadSpec};
use crate::table::TextTable;
use regemu_bounds::{
    checked_register_bounds, max_register_bound, parse_point, BoundClass, BoundError, BoundVerdict,
    Params,
};
use regemu_core::EmulationKind;
use std::collections::BTreeMap;
use std::fmt;

/// Errors of the frontier layer.
#[derive(Debug)]
pub enum FrontierError {
    /// A grid point is infeasible for an `f`-tolerant emulation — rejected
    /// up front with the bound-level reason instead of silently skipped.
    InfeasiblePoint {
        /// Number of writers requested.
        k: usize,
        /// Failure threshold requested.
        f: usize,
        /// Number of servers requested.
        n: usize,
        /// Why the bounds are undefined at this point.
        source: BoundError,
    },
    /// A config axis (grid, emulations, workloads, schedulers, crash plans
    /// or seeds) is empty, so the sweep would measure nothing.
    EmptyAxis(&'static str),
    /// The sweep report does not cover the config's case space (e.g. a
    /// report merged from a different config).
    CaseCountMismatch {
        /// Cases the config expands to.
        expected: usize,
        /// Cases the report holds.
        got: usize,
    },
    /// A report case references a `(params, emulation)` pair outside the
    /// config's grid.
    UnknownCase {
        /// Index of the offending case.
        index: usize,
    },
    /// A spooled sweep config was not produced by a frontier campaign (its
    /// recording axis differs from the frontier's fixed `[Full]`).
    ForeignSweepConfig,
    /// The underlying sharded campaign failed.
    Campaign(CampaignError),
}

impl fmt::Display for FrontierError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontierError::InfeasiblePoint { k, f, n, source } => write!(
                out,
                "infeasible frontier grid point k={k}, f={f}, n={n}: {source}"
            ),
            FrontierError::EmptyAxis(axis) => {
                write!(out, "frontier config has an empty {axis} axis")
            }
            FrontierError::CaseCountMismatch { expected, got } => write!(
                out,
                "sweep report does not match the frontier config: expected {expected} cases, \
                 got {got}"
            ),
            FrontierError::UnknownCase { index } => write!(
                out,
                "sweep report case {index} is outside the frontier config's grid"
            ),
            FrontierError::ForeignSweepConfig => write!(
                out,
                "spool holds a sweep config that is not a frontier campaign \
                 (recording axis is not [full])"
            ),
            FrontierError::Campaign(e) => write!(out, "frontier campaign failed: {e}"),
        }
    }
}

impl std::error::Error for FrontierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontierError::InfeasiblePoint { source, .. } => Some(source),
            FrontierError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CampaignError> for FrontierError {
    fn from(e: CampaignError) -> Self {
        FrontierError::Campaign(e)
    }
}

/// The Table-1 row a construction's measurements are judged against.
pub fn bound_class_of(kind: EmulationKind) -> BoundClass {
    match kind {
        EmulationKind::AbdMaxRegister | EmulationKind::AbdMaxRegisterAtomic => {
            BoundClass::MaxRegister
        }
        EmulationKind::AbdCas | EmulationKind::AbdCasAtomic => BoundClass::Cas,
        EmulationKind::SpaceOptimal => BoundClass::Register,
        EmulationKind::RegisterBank | EmulationKind::RegisterBankAtomic => BoundClass::RegisterBank,
    }
}

/// Declarative description of a frontier campaign: which `(k, f, n)` points
/// and constructions to measure, and which schedules to measure them under.
///
/// Expands to one [`SweepConfig`] ([`FrontierConfig::to_sweep_config`])
/// whose deterministic report the frontier table is folded from.
#[derive(Clone, Debug)]
pub struct FrontierConfig {
    /// Parameter points `(k, f, n)` to map.
    pub grid: Vec<Params>,
    /// Constructions to measure at each point.
    pub emulations: Vec<EmulationKind>,
    /// Workload shapes driving the runs.
    pub workloads: Vec<WorkloadSpec>,
    /// Schedulers: the fair ones establish the clean baseline, the
    /// adversarial ones ([`SchedulerSpec::CoverAdversary`]) drive coverage
    /// toward the lower-bound frontier.
    pub schedulers: Vec<SchedulerSpec>,
    /// Crash plans injected into the runs.
    pub crash_plans: Vec<CrashPlanSpec>,
    /// Scheduler/workload seeds; each seed is a separate case.
    pub seeds: Vec<u64>,
    /// Consistency condition verified after every run.
    pub check: ConsistencyCheck,
    /// Per-operation step budget before a case is reported as stuck.
    pub max_steps_per_op: u64,
    /// Sweep worker threads; `0` means one per available CPU core.
    pub threads: usize,
}

impl FrontierConfig {
    /// The default frontier instrument over `grid`: all four constructions,
    /// a concurrent write-sequential workload, fair scheduling next to the
    /// covering adversary, failure-free and `CrashF` plans, three seeds.
    pub fn over_grid(grid: Vec<Params>) -> Self {
        FrontierConfig {
            grid,
            emulations: EmulationKind::ALL.to_vec(),
            workloads: vec![WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true,
            }],
            schedulers: vec![SchedulerSpec::Fair, SchedulerSpec::CoverAdversary],
            crash_plans: vec![CrashPlanSpec::None, CrashPlanSpec::CrashF],
            seeds: vec![1, 2, 3],
            check: ConsistencyCheck::WsRegular,
            max_steps_per_op: 100_000,
            threads: 0,
        }
    }

    /// A small fixed grid (9 points spanning `f ∈ {1, 2}` from minimal to
    /// saturated `n`) — the golden-table and smoke-test configuration.
    pub fn quick() -> Self {
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
        let mut config = Self::over_grid(grid);
        config.seeds = vec![1, 2];
        config
    }

    /// Builds a grid from raw `(k, f, n)` triples, rejecting every
    /// infeasible point with a typed [`FrontierError::InfeasiblePoint`]
    /// (never silently skipping it).
    pub fn grid_from_raw(points: &[(usize, usize, usize)]) -> Result<Vec<Params>, FrontierError> {
        points
            .iter()
            .map(|&(k, f, n)| {
                checked_register_bounds(k, f, n)
                    .map_err(|source| FrontierError::InfeasiblePoint { k, f, n, source })?;
                Ok(Params::new(k, f, n).expect("checked_register_bounds validated the point"))
            })
            .collect()
    }

    /// Parses a CLI-style grid spec (`k/f/n,k/f/n,..`), rejecting malformed
    /// syntax and infeasible points with typed errors.
    pub fn grid_from_spec(spec: &str) -> Result<Vec<Params>, String> {
        let raw: Vec<_> = spec.split(',').map(parse_point).collect::<Result<_, _>>()?;
        Self::grid_from_raw(&raw).map_err(|e| e.to_string())
    }

    /// Validates the config: every axis non-empty, every grid point
    /// feasible.
    pub fn validate(&self) -> Result<(), FrontierError> {
        for (axis, empty) in [
            ("grid", self.grid.is_empty()),
            ("emulations", self.emulations.is_empty()),
            ("workloads", self.workloads.is_empty()),
            ("schedulers", self.schedulers.is_empty()),
            ("crash plans", self.crash_plans.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(FrontierError::EmptyAxis(axis));
            }
        }
        for p in &self.grid {
            checked_register_bounds(p.k, p.f, p.n).map_err(|source| {
                FrontierError::InfeasiblePoint {
                    k: p.k,
                    f: p.f,
                    n: p.n,
                    source,
                }
            })?;
        }
        Ok(())
    }

    /// Reconstructs the frontier config a spooled [`SweepConfig`] was
    /// expanded from ([`FrontierConfig::to_sweep_config`] inverted), so a
    /// frontier campaign can resume or merge from its spool directory alone.
    pub fn from_sweep_config(config: &SweepConfig) -> Result<Self, FrontierError> {
        if config.recordings != vec![RecordingModeSpec::Full] {
            return Err(FrontierError::ForeignSweepConfig);
        }
        let frontier = FrontierConfig {
            grid: config.grid.clone(),
            emulations: config.emulations.clone(),
            workloads: config.workloads.clone(),
            schedulers: config.schedulers.clone(),
            crash_plans: config.crash_plans.clone(),
            seeds: config.seeds.clone(),
            check: config.check,
            max_steps_per_op: config.max_steps_per_op,
            threads: config.threads,
        };
        frontier.validate()?;
        Ok(frontier)
    }

    /// The sweep this frontier config expands to. The recording axis is
    /// pinned to `[Full]`: the metrics (and therefore the frontier table)
    /// are byte-identical in every recording mode, so sweeping that axis
    /// would only duplicate rows.
    pub fn to_sweep_config(&self) -> SweepConfig {
        SweepConfig {
            grid: self.grid.clone(),
            emulations: self.emulations.clone(),
            workloads: self.workloads.clone(),
            schedulers: self.schedulers.clone(),
            crash_plans: self.crash_plans.clone(),
            recordings: vec![RecordingModeSpec::Full],
            seeds: self.seeds.clone(),
            check: self.check,
            max_steps_per_op: self.max_steps_per_op,
            threads: self.threads,
        }
    }

    /// Number of sweep cases the config expands to.
    pub fn case_count(&self) -> usize {
        self.to_sweep_config().case_count()
    }
}

/// One `(k, f, n) × construction` row of the frontier table: the measured
/// peaks, aggregated over every workload, scheduler, crash plan and seed of
/// the config, judged against the paper's bounds.
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
    /// config has any — the clean-schedule baseline.
    pub fair_peak_covered: Option<usize>,
    /// Peak `|Cov(t)|` restricted to [`SchedulerSpec::CoverAdversary`]
    /// runs, when the config has any — the `Ad_i`-style pressure reading.
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
    pub fn rmw_bound(&self) -> usize {
        max_register_bound(self.params.f)
    }
}

/// The frontier table: one [`FrontierRow`] per `(k, f, n) × construction`,
/// in config order (grid-major, then emulation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierReport {
    rows: Vec<FrontierRow>,
}

impl FrontierReport {
    /// Folds a sweep report into the frontier table — a pure function of
    /// `(config, report)`, so a report merged from campaign shards yields a
    /// byte-identical table to a single-process [`run_sweep`].
    ///
    /// # Errors
    ///
    /// Fails when the report does not cover exactly the config's case space.
    pub fn from_sweep(
        config: &FrontierConfig,
        report: &SweepReport,
    ) -> Result<Self, FrontierError> {
        config.validate()?;
        if report.len() != config.case_count() {
            return Err(FrontierError::CaseCountMismatch {
                expected: config.case_count(),
                got: report.len(),
            });
        }

        // Row slots in config order; cases are folded in by group lookup.
        let mut rows = Vec::with_capacity(config.grid.len() * config.emulations.len());
        let mut slot_of: BTreeMap<(usize, usize, usize, &'static str), usize> = BTreeMap::new();
        for &params in &config.grid {
            for &emulation in &config.emulations {
                slot_of
                    .entry((params.k, params.f, params.n, emulation.name()))
                    .or_insert_with(|| {
                        rows.push(FrontierRow {
                            params,
                            emulation,
                            provisioned: 0,
                            peak_used: 0,
                            peak_covered: 0,
                            fair_peak_covered: None,
                            adversary_peak_covered: None,
                            max_occupancy: 0,
                            verdict: BoundVerdict::judge(bound_class_of(emulation), params, 0),
                            cases: 0,
                            inconsistent: 0,
                            errors: 0,
                        });
                        rows.len() - 1
                    });
            }
        }

        for r in report.results() {
            let c = &r.case;
            let key = (c.params.k, c.params.f, c.params.n, c.emulation.name());
            let &slot = slot_of
                .get(&key)
                .ok_or(FrontierError::UnknownCase { index: c.index })?;
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
        Ok(FrontierReport { rows })
    }

    /// The rows, in config order.
    pub fn rows(&self) -> &[FrontierRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
    /// render empty when the config has no matching scheduler.
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

/// Runs the frontier campaign single-process: expands the config to its
/// sweep, runs it over the local thread pool, folds the frontier table.
pub fn run_frontier(config: &FrontierConfig) -> Result<FrontierReport, FrontierError> {
    config.validate()?;
    let report = run_sweep(&config.to_sweep_config());
    FrontierReport::from_sweep(config, &report)
}

/// Runs (or resumes) the frontier campaign sharded over a spool directory
/// (the PR 5 protocol: kill/resume, multi-process workers, deterministic
/// merge). Returns `None` when the invocation stopped early
/// ([`CampaignOptions::exit_after`]) with the campaign resumable on disk.
pub fn run_frontier_campaign(
    config: &FrontierConfig,
    options: &CampaignOptions,
) -> Result<Option<FrontierReport>, FrontierError> {
    config.validate()?;
    let outcome = run_campaign(&config.to_sweep_config(), options)?;
    match outcome.report {
        Some(report) => Ok(Some(FrontierReport::from_sweep(config, &report)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_bounds::ParamError;

    #[test]
    fn quick_frontier_stays_within_every_upper_bound() {
        let mut config = FrontierConfig::quick();
        config.threads = 2;
        let report = run_frontier(&config).unwrap();
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
        let mut config = FrontierConfig::quick();
        config.grid.truncate(3);
        config.seeds = vec![1];
        config.threads = 1;
        let sweep = run_sweep(&config.to_sweep_config());
        let a = FrontierReport::from_sweep(&config, &sweep).unwrap();
        let b = FrontierReport::from_sweep(&config, &sweep).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        config.threads = 4;
        let c = run_frontier(&config).unwrap();
        assert_eq!(a.to_json(), c.to_json());
        assert_eq!(a.to_csv(), c.to_csv());
    }

    #[test]
    fn infeasible_grid_points_are_rejected_with_typed_errors() {
        let err = FrontierConfig::grid_from_raw(&[(2, 1, 4), (3, 2, 4)]).unwrap_err();
        match err {
            FrontierError::InfeasiblePoint {
                k: 3,
                f: 2,
                n: 4,
                source,
            } => {
                assert_eq!(source, BoundError::ZeroSetCapacity { k: 3, f: 2, n: 4 });
            }
            other => panic!("expected InfeasiblePoint, got {other:?}"),
        }
        let err = FrontierConfig::grid_from_raw(&[(0, 1, 3)]).unwrap_err();
        assert!(matches!(
            err,
            FrontierError::InfeasiblePoint {
                source: BoundError::InvalidParams(ParamError::NoWriters),
                ..
            }
        ));
        // The CLI-spec form surfaces the same rejection as a message.
        let msg = FrontierConfig::grid_from_spec("2/1/4,1/1/2").unwrap_err();
        assert!(msg.contains("infeasible"), "{msg}");
        assert!(FrontierConfig::grid_from_spec("2/1").is_err());
        assert!(FrontierConfig::grid_from_spec("a/b/c").is_err());
        let ok = FrontierConfig::grid_from_spec("2/1/4, 5/2/6").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1], Params::new(5, 2, 6).unwrap());
    }

    #[test]
    fn empty_axes_and_mismatched_reports_are_rejected() {
        let mut config = FrontierConfig::quick();
        config.seeds.clear();
        assert!(matches!(
            run_frontier(&config),
            Err(FrontierError::EmptyAxis("seeds"))
        ));

        let config = {
            let mut c = FrontierConfig::quick();
            c.grid.truncate(1);
            c.seeds = vec![1];
            c.threads = 1;
            c
        };
        let sweep = run_sweep(&config.to_sweep_config());
        let mut smaller = config.clone();
        smaller.emulations.truncate(1);
        assert!(matches!(
            FrontierReport::from_sweep(&smaller, &sweep),
            Err(FrontierError::CaseCountMismatch { .. })
        ));
    }

    #[test]
    fn rendered_table_carries_the_bound_columns() {
        let mut config = FrontierConfig::quick();
        config.grid = vec![Params::new(5, 2, 6).unwrap()]; // Figure 1 point
        config.seeds = vec![1];
        config.threads = 2;
        let report = run_frontier(&config).unwrap();
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
