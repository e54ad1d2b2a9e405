//! Property suite for the empirical space-complexity frontier
//! (`regemu::frontier`): measured peak usage of every *clean* construction
//! stays within the paper's upper bounds across the whole
//! `(k, f, n) × scheduler × crash-plan × seed` grid, adversarial covering
//! schedules provably build more coverage pressure than fair ones, the
//! rendered frontier table is pinned to a golden file, and sharded /
//! interrupted campaigns merge to the byte-identical table.
//!
//! Regenerate the golden table with
//! `REGEMU_REGEN_GOLDEN=1 cargo test --test frontier_bounds` after an
//! *intentional* semantic change (and say so in the PR).

use regemu::campaign::{run_campaign, CampaignOptions, WorkerMode};
use regemu::frontier::{self, FrontierReport};
use regemu::prelude::*;
use regemu_bounds::BoundClass;
use std::fs;
use std::path::PathBuf;

const GOLDEN_PATH: &str = "tests/golden/frontier_table.txt";

/// The property grid: every feasible point with `k ∈ 1..=8`, `f ∈ 1..=3`,
/// `n ∈ 2f+1..=2f+5` (120 points).
fn property_grid() -> Vec<Params> {
    let mut grid = Vec::new();
    for f in 1..=3usize {
        for n in (2 * f + 1)..=(2 * f + 5) {
            for k in 1..=8usize {
                grid.push(Params::new(k, f, n).unwrap());
            }
        }
    }
    grid
}

/// Tentpole property: across the full grid, under **all** schedulers ×
/// **all** crash plans × 3 seeds, every clean construction's measured peak
/// register usage respects its Table 1 upper bound — and the max-register /
/// CAS constructions never exceed `2f + 1`.
#[test]
fn clean_constructions_stay_within_their_upper_bounds_across_the_grid() {
    let mut config = frontier::over_grid(property_grid());
    config.workloads = vec![WorkloadSpec::WriteSequential {
        rounds: 1,
        read_after_each: true,
    }];
    config.schedulers = SchedulerSpec::ALL.to_vec();
    config.crash_plans = CrashPlanSpec::ALL.to_vec();
    config.seeds = vec![1, 2, 3];
    assert_eq!(config.grid.len(), 120);

    let report = FrontierReport::from_sweep(&run_sweep(&config));
    assert_eq!(report.len(), 120 * EmulationKind::ALL.len());
    assert!(
        report.all_within_upper(),
        "a clean construction exceeded its upper bound: {:?}",
        report.violations().next()
    );
    for row in report.rows() {
        assert_eq!(
            row.cases,
            SchedulerSpec::ALL.len() * CrashPlanSpec::ALL.len() * 3,
            "row must aggregate the full scheduler × crash-plan × seed cross"
        );
        assert_eq!(row.errors, 0, "{:?}", row);
        assert_eq!(row.inconsistent, 0, "{:?}", row);
        assert!(row.peak_used <= row.provisioned, "{:?}", row);
        // Table 1 separation rows: 2f + 1 max-registers / CAS objects
        // suffice regardless of k.
        if matches!(row.verdict.class, BoundClass::MaxRegister | BoundClass::Cas) {
            assert!(
                row.peak_used <= 2 * row.params.f + 1,
                "rmw construction used {} > 2f+1 at {:?}",
                row.peak_used,
                row.params
            );
        }
        // The lower-bound column never crosses the upper-bound column.
        assert!(row.verdict.lower <= row.verdict.upper, "{:?}", row);
    }
}

/// Adversarial pressure: on every `(f, n)` row there is a grid point where
/// the covering adversary (`CoverWrites` on `f` servers, the executable
/// `Ad_i` schedule) drives the space-optimal construction's peak
/// `|Cov(t)|` strictly above the fair-schedule peak.
#[test]
fn adversarial_coverage_pressure_exceeds_the_fair_peak_on_every_row() {
    for f in 1..=3usize {
        for n in (2 * f + 1)..=(2 * f + 3) {
            let grid: Vec<Params> = (1..=8usize)
                .map(|k| Params::new(k, f, n).unwrap())
                .collect();
            let mut config = frontier::over_grid(grid);
            config.emulations = vec![EmulationKind::SpaceOptimal];
            config.workloads = vec![WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true,
            }];
            config.schedulers = vec![SchedulerSpec::Fair, SchedulerSpec::CoverAdversary];
            config.crash_plans = vec![CrashPlanSpec::None];
            config.seeds = vec![1, 2, 3];

            let report = FrontierReport::from_sweep(&run_sweep(&config));
            let separated = report
                .rows()
                .iter()
                .any(|row| row.adversary_peak_covered.unwrap() > row.fair_peak_covered.unwrap());
            assert!(
                separated,
                "no k in 1..=8 separates adversary from fair coverage at f={f}, n={n}: {:?}",
                report
                    .rows()
                    .iter()
                    .map(|r| (r.params.k, r.fair_peak_covered, r.adversary_peak_covered))
                    .collect::<Vec<_>>()
            );
        }
    }
}

/// The seeded-bug constructions ([`FaultyKind`]) are *exempt* from the
/// clean-bound property — they cannot enter a frontier config at all — and
/// are asserted separately: they provision the same base-object budget as
/// their clean counterparts (the seeded fault is protocol-level, not
/// space-level), yet violate the paper's guarantees under fuzzing, which is
/// exactly why the frontier property quantifies over clean kinds only.
#[test]
fn faulty_constructions_are_exempt_and_asserted_separately() {
    let params = Params::new(2, 1, 4).unwrap();
    for kind in FaultyKind::ALL {
        // Type-level exemption: faulty names are not EmulationKind names,
        // so no frontier sweep (whose emulation axis is EmulationKind) can
        // sweep them.
        assert!(
            EmulationKind::from_name(kind.name()).is_none(),
            "{} must not resolve to a frontier emulation",
            kind.name()
        );
        assert!(!EmulationKind::ALL.iter().any(|e| e.name() == kind.name()));

        // Space parity with the clean counterpart: the fault never changes
        // what is provisioned, only how the protocol uses it.
        let counterpart = match kind {
            FaultyKind::WeakQuorumWrite => EmulationKind::SpaceOptimal,
            FaultyKind::SkippedUpdateRound | FaultyKind::DroppedAcks => {
                EmulationKind::AbdMaxRegister
            }
        };
        assert_eq!(
            kind.build(params).base_object_count(),
            counterpart.build(params).base_object_count(),
            "{} provisions a different budget than {}",
            kind.name(),
            counterpart.name()
        );
    }

    // Behavioural exemption: the weakened-quorum variant of Algorithm 2
    // still runs and measures, but is not a correct f-tolerant emulation —
    // the fuzzer finds a violating schedule, so its measurements cannot be
    // judged against the clean-construction bounds.
    let config = FuzzConfig::new(Params::new(1, 1, 3).unwrap())
        .emulation(FuzzEmulation::Faulty(FaultyKind::WeakQuorumWrite))
        .seed(61525)
        .budget(200)
        .stop_on_failure();
    let report = Fuzzer::new(config).run();
    assert!(
        report.found(),
        "the seeded weak-quorum bug must be catchable — otherwise exempting \
         faulty kinds from the bound property would be vacuous"
    );
}

/// The rendered quick-grid frontier table is pinned to a golden file
/// (regenerate with `REGEMU_REGEN_GOLDEN=1`).
#[test]
fn frontier_table_matches_the_recorded_golden_file() {
    let config = frontier::quick();
    let report = FrontierReport::from_sweep(&run_sweep(&config));
    let table = report.to_text();
    if std::env::var_os("REGEMU_REGEN_GOLDEN").is_some() {
        fs::create_dir_all("tests/golden").expect("create golden dir");
        fs::write(GOLDEN_PATH, &table).expect("write golden frontier table");
        return;
    }
    let golden = fs::read_to_string(GOLDEN_PATH).expect(
        "golden frontier table missing; regenerate with \
         REGEMU_REGEN_GOLDEN=1 cargo test --test frontier_bounds",
    );
    assert!(
        table == golden,
        "frontier table diverged from the recorded golden file\n\
         (first difference at byte {})\n--- rendered ---\n{table}",
        table
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| table.len().min(golden.len())),
    );
}

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regemu-frontier-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Sharding and interruption transparency: a frontier campaign run as 1
/// shard, as 4 shards, and as 4 shards killed after one shard then resumed
/// all produce text/JSON/CSV byte-identical to the single-process
/// `run_sweep`.
#[test]
fn sharded_and_killed_campaigns_merge_to_the_byte_identical_table() {
    let mut config = frontier::quick();
    config.grid.truncate(4);
    config.seeds = vec![1];
    config.threads = 1;

    let single = FrontierReport::from_sweep(&run_sweep(&config));

    for shards in [1usize, 4] {
        let dir = spool_dir(&format!("shards-{shards}"));
        let mut options = CampaignOptions::new(&dir);
        options.shards = shards;
        options.worker_threads = 1;
        options.worker = WorkerMode::InProcess;
        options.quiet = true;
        let sweep = run_campaign(&config, &options)
            .unwrap()
            .report
            .expect("campaign completed");
        let report = FrontierReport::from_sweep(&sweep);
        assert_eq!(report.to_text(), single.to_text(), "{shards} shards");
        assert_eq!(report.to_json(), single.to_json(), "{shards} shards");
        assert_eq!(report.to_csv(), single.to_csv(), "{shards} shards");
        let _ = fs::remove_dir_all(&dir);
    }

    // Kill after one shard, then resume from the same spool.
    let dir = spool_dir("resume");
    let mut options = CampaignOptions::new(&dir);
    options.shards = 4;
    options.worker_threads = 1;
    options.worker = WorkerMode::InProcess;
    options.quiet = true;
    options.exit_after = Some(1);
    let paused = run_campaign(&config, &options).unwrap().report;
    assert!(paused.is_none(), "exit-after must pause, not complete");
    options.exit_after = None;
    let resumed = run_campaign(&config, &options)
        .unwrap()
        .report
        .expect("campaign completed after resume");
    let resumed = FrontierReport::from_sweep(&resumed);
    assert_eq!(resumed.to_text(), single.to_text());
    assert_eq!(resumed.to_json(), single.to_json());
    let _ = fs::remove_dir_all(&dir);
}
