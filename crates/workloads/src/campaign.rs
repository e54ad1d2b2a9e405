//! Sharded multi-process sweep campaigns with deterministic merge and
//! resume.
//!
//! [`crate::sweep::run_sweep`] scales across threads in one process; a
//! *campaign* scales the same case space across OS processes. The case
//! space of a [`SweepConfig`] is split into contiguous case-index *shards*;
//! each shard is run by a worker that writes an index-keyed JSON report
//! into the spool; the coordinator merges the shard reports back into one
//! [`crate::sweep::SweepReport`] that is **byte-identical** to a
//! single-process [`crate::sweep::run_sweep`] of the same config.
//!
//! The spool protocol, the manifest, the worker pool and the retry policy
//! are the shared campaign engine's (`crate::engine`, re-exported here).
//! This module is the sweep *kind*: the canonical config text
//! (`config_to_text`), the shard worker ([`run_shard`]), the shard-report
//! parser and the merge ([`merge_shards`]). A frontier campaign
//! ([`crate::frontier`]) is a sweep campaign whose merged report is folded
//! into the frontier table.
//!
//! A shard worker expands the case space once and runs its slice on one
//! work-stealing pool, the one [`crate::sweep::run_sweep`] uses. Its
//! heartbeat is published first at `0/total`, then at most once per
//! `crate::status::HEARTBEAT_PACE` (250 ms) by whichever worker thread
//! finishes a case after the deadline, and last at `total/total` before
//! the shard report is written.
//!
//! ## Determinism
//!
//! Every sweep case is a self-contained [`crate::Scenario`] value; a shard
//! is a pure function of `(config, range)`. The merge concatenates the shard
//! reports in manifest order, each checked to cover its case range, so shard
//! count, worker scheduling and completion order never leak into the merged
//! report — the property test suite checks
//! byte-identity of JSON and CSV against [`crate::sweep::run_sweep`] for arbitrary
//! partitions and shuffled completion orders.
//!
//! ## Quickstart
//!
//! ```text
//! # 96-case default grid, 4 shards, 2 worker processes, resumable spool:
//! cargo run --release -p regemu-bench --bin campaign -- sweep \
//!     --spool /tmp/campaign --shards 4 --workers 2 --json report.json
//! # Interrupted? Run the same command again: completed shards are reused.
//! ```
//!
//! Workers can also be pointed at the spool manually (e.g. from other
//! machines over a shared filesystem):
//!
//! ```text
//! cargo run --release -p regemu-bench --bin campaign -- worker \
//!     --spool /tmp/campaign --shard 2
//! ```

use crate::engine::{self, fingerprint, malformed, write_atomically, Campaign};
pub use crate::engine::{CampaignError, CampaignOptions, Dialect, ShardEntry, WorkerMode};
pub(crate) use crate::engine::{Manifest, ShardRange, FORMAT_VERSION};
use crate::json::{Json, JsonParser};
use crate::runner::ConsistencyCheck;
use crate::scenario::{CrashPlanSpec, RecordingModeSpec, SchedulerSpec};
use crate::sweep::{run_cases, CaseResult, EmulationKind, SweepConfig, WorkloadSpec};
use crate::text::Reader;
use regemu_bounds::{parse_point, Params};
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// A sweep campaign's manifest: the engine's `Manifest` in the
/// [`Dialect::Sweep`] dialect (`manifest.txt`).
pub type ShardManifest = Manifest;

// --------------------------------------------------------------------------
// Canonical config text and fingerprint
// --------------------------------------------------------------------------

/// Serializes a [`SweepConfig`] as canonical line-based text.
///
/// Every axis is rendered through its stable label/name, so the text (and
/// with it the [`config_fingerprint`]) identifies the *case space* of the
/// config. `threads` is deliberately excluded: worker-pool size never
/// affects results, so resuming a campaign with a different thread count is
/// legal.
pub(crate) fn config_to_text(config: &SweepConfig) -> String {
    let mut out = format!("regemu-sweep-config v{FORMAT_VERSION}\n");
    let join = |items: Vec<String>| items.join(" ");
    out.push_str(&format!(
        "grid {}\n",
        join(
            config
                .grid
                .iter()
                .map(|p| format!("{}/{}/{}", p.k, p.f, p.n))
                .collect()
        )
    ));
    out.push_str(&format!(
        "emulations {}\n",
        join(
            config
                .emulations
                .iter()
                .map(|e| e.name().to_string())
                .collect()
        )
    ));
    out.push_str(&format!(
        "workloads {}\n",
        join(config.workloads.iter().map(WorkloadSpec::label).collect())
    ));
    out.push_str(&format!(
        "schedulers {}\n",
        join(
            config
                .schedulers
                .iter()
                .map(|s| s.name().to_string())
                .collect()
        )
    ));
    out.push_str(&format!(
        "crash-plans {}\n",
        join(
            config
                .crash_plans
                .iter()
                .map(|c| c.name().to_string())
                .collect()
        )
    ));
    out.push_str(&format!(
        "recordings {}\n",
        join(config.recordings.iter().map(|r| r.label()).collect())
    ));
    out.push_str(&format!(
        "seeds {}\n",
        join(config.seeds.iter().map(u64::to_string).collect())
    ));
    out.push_str(&format!("check {}\n", config.check.name()));
    out.push_str(&format!("max-steps-per-op {}\n", config.max_steps_per_op));
    out
}

/// Parses the canonical text produced by [`config_to_text`]: keyed lines
/// in any order, a repeated key extending its list, blank lines skipped.
///
/// The returned config has `threads = 0` (one worker thread per core);
/// campaign workers override it from their own CLI.
pub(crate) fn config_from_text(text: &str) -> Result<SweepConfig, String> {
    let mut r = Reader::new(text, "config");
    r.header(&[format!("regemu-sweep-config v{FORMAT_VERSION}")])?;
    let mut config = SweepConfig {
        grid: Vec::new(),
        emulations: Vec::new(),
        workloads: Vec::new(),
        schedulers: Vec::new(),
        crash_plans: Vec::new(),
        recordings: Vec::new(),
        seeds: Vec::new(),
        check: ConsistencyCheck::None,
        max_steps_per_op: 100_000,
        threads: 0,
    };
    while let Some(mut line) = r.next_nonblank() {
        match line.key {
            "grid" => config.grid.extend(line.all(|l| {
                l.named("grid point", |v| {
                    let (k, f, n) = parse_point(v).ok()?;
                    Params::new(k, f, n).ok()
                })
            })?),
            "emulations" => config
                .emulations
                .extend(line.all(|l| l.named("emulation", EmulationKind::from_name))?),
            "workloads" => config
                .workloads
                .extend(line.all(|l| l.named("workload", WorkloadSpec::from_label))?),
            "schedulers" => config
                .schedulers
                .extend(line.all(|l| l.named("scheduler", SchedulerSpec::from_name))?),
            "crash-plans" => config
                .crash_plans
                .extend(line.all(|l| l.named("crash plan", CrashPlanSpec::from_name))?),
            "recordings" => config
                .recordings
                .extend(line.all(|l| l.named("recording mode", RecordingModeSpec::from_label))?),
            "seeds" => config.seeds.extend(line.all(|l| l.parse::<u64>("seed"))?),
            "check" => config.check = line.named("check", ConsistencyCheck::from_name)?,
            "max-steps-per-op" => config.max_steps_per_op = line.parse("step budget")?,
            other => return Err(line.err(format_args!("unknown config key {other:?}"))),
        }
    }
    Ok(config)
}

/// A stable 64-bit fingerprint of the config's case space, as 16 hex
/// digits. Two configs with the same fingerprint expand to the same cases,
/// so their shards and reports are interchangeable.
pub fn config_fingerprint(config: &SweepConfig) -> String {
    fingerprint(&config_to_text(config))
}

// --------------------------------------------------------------------------
// Spool layout and the engine hook
// --------------------------------------------------------------------------

/// Path of a shard's JSON report inside a spool directory.
pub fn shard_report_path(spool: &Path, shard: usize) -> PathBuf {
    Dialect::Sweep.unit_report_path(spool, shard, 0)
}

/// The sweep kind, as the engine sees it: one round per shard, a unit is
/// done when its shard report covers the shard's range.
struct SweepCampaign<'a>(&'a SweepConfig);

impl Campaign for SweepCampaign<'_> {
    type Report = crate::sweep::SweepReport;

    fn dialect(&self) -> Dialect {
        Dialect::Sweep
    }

    fn config_text(&self) -> String {
        config_to_text(self.0)
    }

    fn units(&self) -> usize {
        self.0.case_count()
    }

    fn rounds(&self) -> usize {
        1
    }

    fn run_unit(
        &self,
        spool: &Path,
        shard: usize,
        _round: usize,
        threads: usize,
    ) -> Result<(), CampaignError> {
        run_shard(spool, shard, threads).map(|_| ())
    }

    fn unit_is_done(&self, spool: &Path, range: ShardRange, _round: usize) -> bool {
        load_shard_report(spool, range).is_ok()
    }

    fn merge(&self, spool: &Path) -> Result<Self::Report, CampaignError> {
        merge_shards(spool)
    }
}

/// Initializes (or resumes) a spool directory for `config` split into
/// `shards` shards: a fresh directory gets a `config.txt` and a pending
/// manifest; an existing spool must belong to the same config
/// ([`CampaignError::ConfigMismatch`] otherwise) and keeps its shard plan.
pub fn init_spool(
    spool: &Path,
    config: &SweepConfig,
    shards: usize,
) -> Result<ShardManifest, CampaignError> {
    engine::init(spool, &SweepCampaign(config), shards)
}

/// Loads the campaign's [`SweepConfig`] from a spool directory.
pub fn load_config(spool: &Path) -> Result<SweepConfig, CampaignError> {
    let path = Dialect::Sweep.config_path(spool);
    let text = fs::read_to_string(&path)?;
    config_from_text(&text).map_err(|reason| malformed(&path, reason))
}

// --------------------------------------------------------------------------
// Worker
// --------------------------------------------------------------------------

/// Runs one shard of the campaign in `spool`: what `campaign worker` does
/// on a sweep spool, also called in-process by [`run_campaign`] when no
/// worker binary is configured.
///
/// Reads the config and manifest from the spool, runs the shard's case
/// range on one pool of `threads` sweep threads (`0` = one per core),
/// publishes `done total` counts into the shard's heartbeat (`0` first,
/// then at most one per `crate::status::HEARTBEAT_PACE`, `total` last),
/// and atomically publishes the shard report. Re-running a shard simply
/// overwrites its report with identical bytes — shards are pure functions
/// of `(config, range)`.
///
/// # Errors
///
/// Fails if the spool is missing or malformed, or the shard index is not
/// in the manifest.
pub fn run_shard(spool: &Path, shard: usize, threads: usize) -> Result<ShardRange, CampaignError> {
    let mut config = load_config(spool)?;
    config.threads = threads;
    let manifest = Manifest::require(spool, Dialect::Sweep)?;
    if manifest.fingerprint != config_fingerprint(&config) {
        return Err(CampaignError::ConfigMismatch {
            manifest: manifest.fingerprint,
            config: config_fingerprint(&config),
        });
    }
    let entry = manifest
        .shards
        .get(shard)
        .ok_or(CampaignError::UnknownShard(shard))?;
    let range = entry.range;
    let cases = config.cases();
    let cases = cases.get(range.start..range.end).ok_or_else(|| {
        malformed(
            &Dialect::Sweep.manifest_path(spool),
            format!("shard {shard} lies outside the case space"),
        )
    })?;

    // Heartbeats are advisory: a failed write must not fail the shard. The
    // writer warns once per shard and counts failures into the heartbeat
    // so the dashboard can surface a sick spool disk.
    // A worker that finds the writer busy skips its paced publish rather
    // than wait on another worker's file write.
    let total = range.len() as u64;
    let mut beat =
        crate::status::HeartbeatWriter::new(spool, shard, Dialect::Sweep, entry.attempts);
    beat.publish(0, total);
    let beat = Mutex::new(beat);
    let report = run_cases(&config, cases, |done| {
        if let Ok(mut beat) = beat.try_lock() {
            beat.publish_paced(done as u64, total);
        }
    });
    beat.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .publish(total, total);
    write_atomically(&shard_report_path(spool, shard), &report.to_json())?;
    Ok(range)
}

// --------------------------------------------------------------------------
// Shard-report parsing (the merge's input)
// --------------------------------------------------------------------------

fn case_from_json(case: &Json, file: &Path) -> Result<CaseResult, CampaignError> {
    let field = |key: &str| {
        case.get(key)
            .ok_or_else(|| malformed(file, format!("case missing field {key:?}")))
    };
    let num = |key: &str| -> Result<u64, CampaignError> {
        field(key)?
            .as_u64()
            .ok_or_else(|| malformed(file, format!("field {key:?} is not a number")))
    };
    let text = |key: &str| -> Result<String, CampaignError> {
        Ok(field(key)?
            .as_str()
            .ok_or_else(|| malformed(file, format!("field {key:?} is not a string")))?
            .to_string())
    };
    let opt_text = |key: &str| -> Result<Option<String>, CampaignError> {
        field(key)?
            .as_opt_string()
            .ok_or_else(|| malformed(file, format!("field {key:?} is not a string or null")))
    };

    let emulation_name = text("emulation")?;
    let emulation = EmulationKind::from_name(&emulation_name)
        .ok_or_else(|| malformed(file, format!("unknown emulation {emulation_name:?}")))?;
    let workload_label = text("workload")?;
    let workload = WorkloadSpec::from_label(&workload_label)
        .ok_or_else(|| malformed(file, format!("unknown workload {workload_label:?}")))?;
    let scheduler_name = text("scheduler")?;
    let scheduler = SchedulerSpec::from_name(&scheduler_name)
        .ok_or_else(|| malformed(file, format!("unknown scheduler {scheduler_name:?}")))?;
    let crashes_name = text("crashes")?;
    let crashes = CrashPlanSpec::from_name(&crashes_name)
        .ok_or_else(|| malformed(file, format!("unknown crash plan {crashes_name:?}")))?;
    let recording_label = text("recording")?;
    let recording = RecordingModeSpec::from_label(&recording_label)
        .ok_or_else(|| malformed(file, format!("unknown recording mode {recording_label:?}")))?;
    let params = Params::new(num("k")? as usize, num("f")? as usize, num("n")? as usize)
        .map_err(|e| malformed(file, format!("invalid case parameters: {e}")))?;
    let consistent = match field("consistent")? {
        Json::Bool(b) => *b,
        _ => return Err(malformed(file, "field \"consistent\" is not a boolean")),
    };

    Ok(CaseResult {
        case: crate::sweep::SweepCase {
            index: num("index")? as usize,
            params,
            emulation,
            workload,
            scheduler,
            crashes,
            recording,
            seed: num("seed")?,
        },
        provisioned_objects: num("provisioned")? as usize,
        resource_consumption: num("consumption")? as usize,
        covered: num("covered")? as usize,
        peak_covered: num("peak_covered")? as usize,
        peak_covered_server: num("peak_covered_server")? as usize,
        max_occupancy: num("occupancy")? as usize,
        point_contention: num("contention")? as usize,
        low_level_triggers: num("triggers")?,
        low_level_responses: num("responses")?,
        completed_ops: num("completed")? as usize,
        consistent,
        coverage: text("coverage")?,
        violation: opt_text("violation")?,
        error: opt_text("error")?,
    })
}

/// Parses the case results out of a report's [`crate::sweep::SweepReport::to_json`] text.
///
/// Round-trips exactly: `parse(report.to_json())` rebuilds results whose
/// re-serialization is byte-identical — the property the deterministic
/// merge rests on.
pub fn report_cases_from_json(json: &str, file: &Path) -> Result<Vec<CaseResult>, CampaignError> {
    let mut parser = JsonParser::new(json);
    let doc = parser.value().map_err(|reason| malformed(file, reason))?;
    let cases = doc
        .get("cases")
        .ok_or_else(|| malformed(file, "missing \"cases\" array"))?;
    let Json::Arr(items) = cases else {
        return Err(malformed(file, "\"cases\" is not an array"));
    };
    items.iter().map(|c| case_from_json(c, file)).collect()
}

/// Reads and validates one shard's report file: it must parse and must
/// cover exactly the shard's case range, in order.
pub(crate) fn load_shard_report(
    spool: &Path,
    range: ShardRange,
) -> Result<Vec<CaseResult>, CampaignError> {
    let path = shard_report_path(spool, range.index);
    let mut text = String::new();
    fs::File::open(&path)?.read_to_string(&mut text)?;
    let cases = report_cases_from_json(&text, &path)?;
    if cases.len() != range.len() {
        return Err(malformed(
            &path,
            format!(
                "shard holds {} cases, range needs {}",
                cases.len(),
                range.len()
            ),
        ));
    }
    for (offset, case) in cases.iter().enumerate() {
        if case.case.index != range.start + offset {
            return Err(malformed(
                &path,
                format!(
                    "case at position {offset} has index {}, expected {}",
                    case.case.index,
                    range.start + offset
                ),
            ));
        }
    }
    Ok(cases)
}

/// Deterministically merges every shard report in `spool` into the full
/// [`crate::sweep::SweepReport`], in case-index order.
///
/// The merge is a pure reassembly: the manifest's ranges partition the case
/// space in order and each shard report is checked to cover its range, so
/// concatenating the reports in manifest order yields a report
/// byte-identical ([`crate::sweep::SweepReport::to_json`] /
/// [`crate::sweep::SweepReport::to_csv`]) to a single-process
/// [`crate::sweep::run_sweep`] of the same config, regardless of shard count
/// or completion order. Nothing is sized from the manifest before the
/// reports are read.
///
/// # Errors
///
/// Fails if the spool is malformed or any shard has no valid report yet.
pub fn merge_shards(spool: &Path) -> Result<crate::sweep::SweepReport, CampaignError> {
    let manifest = Manifest::require(spool, Dialect::Sweep)?;
    let mut results = Vec::new();
    for entry in &manifest.shards {
        results.extend(load_shard_report(spool, entry.range)?);
    }
    Ok(crate::sweep::SweepReport::from_results(results))
}

// --------------------------------------------------------------------------
// The coordinator
// --------------------------------------------------------------------------

/// Runs (or resumes) a sharded campaign of `config` to completion:
/// initializes the spool, revalidates and reuses completed shards, executes
/// the incomplete ones under the engine's pool policy (`crate::engine`),
/// and merges the shard reports into the final [`crate::sweep::SweepReport`].
/// Each shard counts as one unit in the returned outcome, whose `report`
/// is `None` when the invocation stopped early
/// ([`CampaignOptions::exit_after`]).
///
/// # Errors
///
/// Fails on spool I/O or format errors, on a config mismatch with an
/// existing spool, or when a shard exhausts its attempt budget.
pub fn run_campaign(
    config: &SweepConfig,
    options: &CampaignOptions,
) -> Result<engine::Outcome<crate::sweep::SweepReport>, CampaignError> {
    engine::run(&SweepCampaign(config), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("regemu-campaign-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn config_text_round_trips_and_fingerprints_ignore_threads() {
        let mut config = SweepConfig::standard();
        config.schedulers = SchedulerSpec::ALL.to_vec();
        config.crash_plans = CrashPlanSpec::ALL.to_vec();
        config.recordings = vec![
            RecordingModeSpec::Full,
            RecordingModeSpec::Digest,
            RecordingModeSpec::Ring(256),
        ];
        config.workloads.push(WorkloadSpec::ReadHeavy {
            writes: 3,
            reads_per_write: 2,
            readers: 2,
        });
        config
            .workloads
            .push(WorkloadSpec::ConcurrentReadWrite { rounds: 2 });
        let text = config_to_text(&config);
        let parsed = config_from_text(&text).unwrap();
        assert_eq!(config_to_text(&parsed), text);
        assert_eq!(parsed.case_count(), config.case_count());
        assert_eq!(parsed.cases(), config.cases());

        let mut threaded = config.clone();
        threaded.threads = 7;
        assert_eq!(config_fingerprint(&threaded), config_fingerprint(&config));
        let mut other = config;
        other.seeds.push(99);
        assert_ne!(config_fingerprint(&other), config_fingerprint(&threaded));
    }

    #[test]
    fn workload_labels_round_trip() {
        let specs = [
            WorkloadSpec::WriteSequential {
                rounds: 2,
                read_after_each: true,
            },
            WorkloadSpec::WriteSequential {
                rounds: 10,
                read_after_each: false,
            },
            WorkloadSpec::ReadHeavy {
                writes: 3,
                reads_per_write: 4,
                readers: 2,
            },
            WorkloadSpec::RandomMixed {
                readers: 2,
                total: 12,
                write_percent: 50,
            },
            WorkloadSpec::ConcurrentReadWrite { rounds: 3 },
        ];
        for spec in specs {
            assert_eq!(WorkloadSpec::from_label(&spec.label()), Some(spec));
        }
        assert_eq!(WorkloadSpec::from_label("nope"), None);
        assert_eq!(WorkloadSpec::from_label("write-seq/rX"), None);
    }

    #[test]
    fn shard_reports_round_trip_through_json() {
        let mut config = SweepConfig::quick();
        config.grid.truncate(1);
        config.threads = 1;
        let report = run_sweep(&config);
        let json = report.to_json();
        let parsed = report_cases_from_json(&json, Path::new("test")).unwrap();
        let rebuilt = crate::sweep::SweepReport::from_results(parsed);
        assert_eq!(rebuilt, report);
        assert_eq!(rebuilt.to_json(), json);
        assert_eq!(rebuilt.to_csv(), report.to_csv());
    }

    #[test]
    fn multi_threaded_shards_end_on_a_full_heartbeat() {
        let dir = tmp_dir("heartbeat");
        let manifest = init_spool(&dir, &SweepConfig::quick(), 2).unwrap();
        for entry in &manifest.shards {
            let n = entry.range.len();
            assert_eq!(run_shard(&dir, entry.range.index, 3).unwrap(), entry.range);
            let beat = crate::status::ShardHeartbeat::load(&dir, entry.range.index)
                .unwrap()
                .expect("the shard published a heartbeat");
            assert_eq!((beat.done, beat.total), (n as u64, n as u64));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_process_campaign_matches_run_sweep_byte_for_byte() {
        let dir = tmp_dir("inproc");
        let mut config = SweepConfig::quick();
        config.threads = 2;
        let mut options = CampaignOptions::new(&dir);
        options.shards = 4;
        options.worker_threads = 2;
        options.quiet = true;
        let outcome = run_campaign(&config, &options).unwrap();
        assert_eq!(outcome.units_run, 4);
        assert_eq!(outcome.units_reused, 0);
        let merged = outcome.report.expect("campaign completed");
        let single = run_sweep(&config);
        assert_eq!(merged.to_json(), single.to_json());
        assert_eq!(merged.to_csv(), single.to_csv());

        // Running again is a pure resume: nothing re-runs.
        let again = run_campaign(&config, &options).unwrap();
        assert_eq!(again.units_run, 0);
        assert_eq!(again.units_reused, 4);
        assert_eq!(again.report.unwrap().to_json(), single.to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_campaigns_resume_from_the_manifest() {
        let dir = tmp_dir("resume");
        let mut config = SweepConfig::quick();
        config.threads = 1;
        let mut options = CampaignOptions::new(&dir);
        options.shards = 4;
        options.worker_threads = 1;
        options.quiet = true;
        options.exit_after = Some(2);
        let first = run_campaign(&config, &options).unwrap();
        assert!(first.report.is_none());
        assert_eq!(first.units_run, 2);
        let manifest = ShardManifest::load(&dir).unwrap().unwrap();
        assert_eq!(manifest.incomplete().count(), 2);
        // A torn shard report (killed mid-write) must not count as done.
        fs::write(shard_report_path(&dir, 0), "{\"cases\": [").unwrap();
        options.exit_after = None;
        let second = run_campaign(&config, &options).unwrap();
        assert_eq!(second.units_reused, 1, "shard 1 reused, shard 0 torn");
        assert_eq!(second.units_run, 3, "two pending plus the torn one");
        let merged = second.report.expect("campaign completed");
        assert_eq!(merged.to_json(), run_sweep(&config).to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hostile_case_count_is_malformed_not_a_crash() {
        let dir = tmp_dir("hostile-cases");
        fs::create_dir_all(&dir).unwrap();
        // One shard line covers all 2^60 cases, so the manifest parses.
        let cases = 1usize << 60;
        let manifest = format!(
            "regemu-campaign-manifest v1\nfingerprint 00ff\ncases {cases}\nshards 1\n\
             shard 0 0 {cases} done 1\n"
        );
        fs::write(Dialect::Sweep.manifest_path(&dir), manifest).unwrap();
        fs::write(shard_report_path(&dir, 0), "{\"cases\": []}").unwrap();
        match merge_shards(&dir) {
            Err(CampaignError::Malformed { reason, .. }) => {
                assert!(reason.contains("range needs"), "{reason}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spools_reject_foreign_configs() {
        let dir = tmp_dir("mismatch");
        let config = SweepConfig::quick();
        init_spool(&dir, &config, 2).unwrap();
        let mut other = config;
        other.seeds = vec![1234];
        match init_spool(&dir, &other, 2) {
            Err(CampaignError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
