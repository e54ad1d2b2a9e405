//! Spool telemetry: worker heartbeats and the `campaign status` dashboard
//! model.
//!
//! Campaign workers (sweep, frontier, fuzz) publish a small, versioned
//! `stats-NNNN.json` *heartbeat* per shard: case throughput, retries
//! consumed, fuzz corpus growth, and a wallclock last-update stamp. A sweep
//! shard publishes it first at `0/total`, then at most once per
//! `HEARTBEAT_PACE` (250 ms) while its cases run, and last at
//! `total/total` before its report; a fuzz shard publishes once per
//! stream. Heartbeats are **advisory** artifacts for humans and
//! dashboards — they are written with the same temp-file-plus-rename
//! discipline as reports, but they are *never* read by the deterministic
//! merge, so the wallclock stamps inside them cannot perturb campaign
//! results (see the non-perturbation contract in `MODEL.md`).
//!
//! [`campaign_status`] folds a spool directory — any of the three kinds —
//! into a [`CampaignStatusReport`]: per-shard health (done / running /
//! stalled / pending / unknown), aggregate progress, an ETA, and a
//! stalled-worker count. Every read path is tolerant: a torn, truncated,
//! stale or byte-garbage heartbeat degrades that shard to
//! [`ShardHealth::Unknown`]; it never panics and never fails the fold.

use crate::engine::{write_atomically, Dialect, Manifest};
use crate::json::{Json, JsonParser};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Version tag of the on-disk heartbeat format.
pub(crate) const HEARTBEAT_VERSION: u32 = 1;

/// Least time between two paced heartbeats
/// ([`HeartbeatWriter::publish_paced`]): a quarter of the dashboard's
/// default 1 s poll.
pub(crate) const HEARTBEAT_PACE: Duration = Duration::from_millis(250);

/// Path of a shard's heartbeat file inside a spool directory.
pub fn stats_path(spool: &Path, shard: usize) -> PathBuf {
    spool.join(format!("stats-{shard:04}.json"))
}

/// Milliseconds since the Unix epoch, for heartbeat stamps. Wallclock is
/// allowed here: heartbeats sit at the process edge and are excluded from
/// every deterministic artifact.
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One shard's heartbeat, as persisted in `stats-NNNN.json`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ShardHeartbeat {
    /// Heartbeat format version ([`HEARTBEAT_VERSION`]).
    pub version: u32,
    /// Spool kind the writer was running: `"sweep"` (also used by frontier
    /// campaigns, which shard through the sweep machinery) or `"fuzz"`.
    pub kind: String,
    /// Shard index.
    pub shard: u64,
    /// Work units finished in the current pass: cases for sweep shards,
    /// streams of the current generation for fuzz shards.
    pub done: u64,
    /// Total work units in the current pass.
    pub total: u64,
    /// Units per second since the pass started (same unit as `done`).
    pub cases_per_sec: f64,
    /// Failed worker attempts before this one, per the manifest.
    pub retries: u64,
    /// Advisory heartbeat writes that failed so far in this pass — a
    /// nonzero count flags a sick spool disk.
    pub progress_write_failures: u64,
    /// Fuzz only: the generation being run.
    pub generation: Option<u64>,
    /// Fuzz only: iterations executed so far in this pass.
    pub iterations: Option<u64>,
    /// Fuzz only: corpus entries (new coverage signatures) published so
    /// far in this pass.
    pub corpus_entries: Option<u64>,
    /// Wallclock stamp of this heartbeat, in milliseconds since the epoch.
    pub updated_unix_ms: u64,
}

fn opt_json(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn opt_u64(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a number")),
    }
}

fn req_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

impl ShardHeartbeat {
    /// Serializes the heartbeat as its on-disk JSON.
    pub(crate) fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"version\":{},\"kind\":{:?},\"shard\":{},\"done\":{},\"total\":{},",
                "\"cases_per_sec\":{:.3},\"retries\":{},\"progress_write_failures\":{},",
                "\"generation\":{},\"iterations\":{},\"corpus_entries\":{},",
                "\"updated_unix_ms\":{}}}\n"
            ),
            self.version,
            self.kind,
            self.shard,
            self.done,
            self.total,
            self.cases_per_sec,
            self.retries,
            self.progress_write_failures,
            opt_json(self.generation),
            opt_json(self.iterations),
            opt_json(self.corpus_entries),
            self.updated_unix_ms,
        )
    }

    /// Parses an on-disk heartbeat.
    ///
    /// # Errors
    ///
    /// Returns a message naming what is malformed; callers degrade the
    /// shard to [`ShardHealth::Unknown`] rather than failing.
    pub(crate) fn from_json(text: &str) -> Result<Self, String> {
        let json = JsonParser::new(text).value()?;
        let version = u32::try_from(req_u64(&json, "version")?)
            .map_err(|_| "oversized version".to_string())?;
        if version != HEARTBEAT_VERSION {
            return Err(format!(
                "unsupported heartbeat version {version} (expected {HEARTBEAT_VERSION})"
            ));
        }
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing string field \"kind\"")?
            .to_string();
        let cases_per_sec = json
            .get("cases_per_sec")
            .and_then(Json::as_f64)
            .ok_or("missing numeric field \"cases_per_sec\"")?;
        Ok(ShardHeartbeat {
            version,
            kind,
            shard: req_u64(&json, "shard")?,
            done: req_u64(&json, "done")?,
            total: req_u64(&json, "total")?,
            cases_per_sec,
            retries: req_u64(&json, "retries")?,
            progress_write_failures: req_u64(&json, "progress_write_failures")?,
            generation: opt_u64(&json, "generation")?,
            iterations: opt_u64(&json, "iterations")?,
            corpus_entries: opt_u64(&json, "corpus_entries")?,
            updated_unix_ms: req_u64(&json, "updated_unix_ms")?,
        })
    }

    /// Loads a shard's heartbeat from a spool directory.
    ///
    /// Returns `Ok(None)` when no heartbeat has been published yet.
    ///
    /// # Errors
    ///
    /// Returns a message when a file exists but is torn or malformed.
    pub(crate) fn load(spool: &Path, shard: usize) -> Result<Option<Self>, String> {
        let path = stats_path(spool, shard);
        match fs::read_to_string(&path) {
            Ok(text) => Self::from_json(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }
}

/// Publishes heartbeats for one worker pass over a shard, absorbing
/// advisory-write failures: the first failure is warned about on stderr,
/// every failure is counted, and the count rides along in subsequent
/// heartbeats.
pub(crate) struct HeartbeatWriter {
    spool: PathBuf,
    shard: usize,
    dialect: Dialect,
    retries: u64,
    started: Instant,
    last_publish: Instant,
    published: u64,
    write_failures: u64,
    warned: bool,
    generation: Option<u64>,
    iterations: Option<u64>,
    corpus_entries: Option<u64>,
}

impl HeartbeatWriter {
    /// Starts a pass over `shard` of the spool; `attempts` is the
    /// manifest's attempt counter at launch, which counts this try.
    pub(crate) fn new(spool: &Path, shard: usize, dialect: Dialect, attempts: u32) -> Self {
        HeartbeatWriter {
            spool: spool.to_path_buf(),
            shard,
            dialect,
            retries: u64::from(attempts.saturating_sub(1)),
            started: Instant::now(),
            last_publish: Instant::now(),
            published: 0,
            write_failures: 0,
            warned: false,
            generation: None,
            iterations: None,
            corpus_entries: None,
        }
    }

    /// Sets the fuzz-only heartbeat fields for subsequent publishes.
    pub(crate) fn set_fuzz_progress(
        &mut self,
        generation: u64,
        iterations: u64,
        corpus_entries: u64,
    ) {
        self.generation = Some(generation);
        self.iterations = Some(iterations);
        self.corpus_entries = Some(corpus_entries);
    }

    fn note_failure(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.write_failures += 1;
        if !self.warned {
            self.warned = true;
            eprintln!(
                "warning: shard {}: cannot write {what}: {err} \
                 (progress reporting degraded; further failures counted, not repeated)",
                self.shard
            );
        }
    }

    /// Publishes the current pass state as the shard's heartbeat.
    pub(crate) fn publish(&mut self, done: u64, total: u64) {
        self.published = done;
        self.last_publish = Instant::now();
        let elapsed = self.started.elapsed().as_secs_f64();
        let heartbeat = ShardHeartbeat {
            version: HEARTBEAT_VERSION,
            kind: self.dialect.name().to_string(),
            shard: self.shard as u64,
            done,
            total,
            cases_per_sec: if elapsed > 0.0 {
                done as f64 / elapsed
            } else {
                0.0
            },
            retries: self.retries,
            progress_write_failures: self.write_failures,
            generation: self.generation,
            iterations: self.iterations,
            corpus_entries: self.corpus_entries,
            updated_unix_ms: now_unix_ms(),
        };
        let path = stats_path(&self.spool, self.shard);
        if let Err(e) = write_atomically(&path, &heartbeat.to_json()) {
            self.note_failure("heartbeat", &e);
        }
    }

    /// Publishes like [`Self::publish`], but only when [`HEARTBEAT_PACE`]
    /// has passed since the last publish and `done` exceeds the count it
    /// published.
    pub(crate) fn publish_paced(&mut self, done: u64, total: u64) {
        if done > self.published && self.last_publish.elapsed() >= HEARTBEAT_PACE {
            self.publish(done, total);
        }
    }
}

// --------------------------------------------------------------------------
// The dashboard fold
// --------------------------------------------------------------------------

/// The kind of campaign a spool directory holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpoolKind {
    /// A parameter-sweep campaign (`manifest.txt`), frontier campaigns
    /// included: a frontier campaign is a sweep campaign on disk.
    Sweep,
    /// A fuzz campaign (`fuzz-manifest.txt`).
    Fuzz,
}

impl SpoolKind {
    /// Lower-case display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpoolKind::Sweep => "sweep",
            SpoolKind::Fuzz => "fuzz",
        }
    }
}

/// Detects what kind of campaign lives in `spool`, or `None` when the
/// directory holds neither manifest.
pub fn detect_spool_kind(spool: &Path) -> Option<SpoolKind> {
    if Dialect::Fuzz.manifest_path(spool).exists() {
        return Some(SpoolKind::Fuzz);
    }
    if Dialect::Sweep.manifest_path(spool).exists() && Dialect::Sweep.config_path(spool).exists() {
        return Some(SpoolKind::Sweep);
    }
    None
}

/// Health of one shard, as judged from the spool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard's report (last generation's, for fuzz) is published.
    Done,
    /// A fresh heartbeat exists.
    Running,
    /// A heartbeat exists but is older than the stall threshold.
    Stalled,
    /// No heartbeat yet.
    Pending,
    /// The heartbeat exists but is torn, truncated or malformed.
    Unknown,
}

impl ShardHealth {
    /// Lower-case display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ShardHealth::Done => "done",
            ShardHealth::Running => "running",
            ShardHealth::Stalled => "stalled",
            ShardHealth::Pending => "pending",
            ShardHealth::Unknown => "unknown",
        }
    }
}

/// One dashboard row: a shard's judged state.
#[derive(Clone, Debug)]
pub struct ShardStatusView {
    /// Shard index.
    pub shard: usize,
    /// Judged health.
    pub health: ShardHealth,
    /// Work units finished in the shard's current pass (heartbeat scale).
    pub done: u64,
    /// Total work units in the current pass.
    pub total: u64,
    /// Units per second reported by the newest heartbeat.
    pub cases_per_sec: f64,
    /// Heartbeat age in milliseconds, when one parsed.
    pub age_ms: Option<u64>,
    /// Failed worker attempts before the current one.
    pub retries: u64,
    /// Advisory-write failures reported by the worker.
    pub progress_write_failures: u64,
    /// Kind-specific annotation (fuzz generation, torn-file reason, ...).
    pub note: String,
}

impl ShardStatusView {
    /// A shard nobody has reported on yet.
    fn pending(shard: usize, total: u64) -> Self {
        ShardStatusView {
            shard,
            health: ShardHealth::Pending,
            done: 0,
            total,
            cases_per_sec: 0.0,
            age_ms: None,
            retries: 0,
            progress_write_failures: 0,
            note: String::new(),
        }
    }
}

/// The folded status of a whole campaign spool.
#[derive(Clone, Debug)]
pub struct CampaignStatusReport {
    /// What kind of campaign the spool holds.
    pub kind: SpoolKind,
    /// Per-shard rows, in shard order.
    pub shards: Vec<ShardStatusView>,
    /// Finished work units, summed in the campaign's own unit (cases for
    /// sweep, `(shard, generation)` stream units for fuzz).
    pub done_units: u64,
    /// Total work units.
    pub total_units: u64,
    /// Estimated seconds to completion, from the running shards' rates.
    pub eta_secs: Option<u64>,
    /// Number of stalled shards.
    pub stalled: usize,
    /// True when every shard is done.
    pub complete: bool,
}

fn heartbeat_age_ms(heartbeat: &ShardHeartbeat, now_unix_ms: u64) -> u64 {
    now_unix_ms.saturating_sub(heartbeat.updated_unix_ms)
}

/// Folds one non-done shard's heartbeat into a dashboard row.
fn judge_live_shard(
    spool: &Path,
    shard: usize,
    total: u64,
    expected_kind: &str,
    now_ms: u64,
    stall_after_ms: u64,
) -> ShardStatusView {
    let mut view = ShardStatusView::pending(shard, total);
    match ShardHeartbeat::load(spool, shard) {
        Ok(None) => {}
        Ok(Some(heartbeat)) => {
            if heartbeat.kind != expected_kind {
                view.health = ShardHealth::Unknown;
                view.note = format!("heartbeat kind {:?} does not match spool", heartbeat.kind);
                return view;
            }
            let age = heartbeat_age_ms(&heartbeat, now_ms);
            view.health = if age <= stall_after_ms {
                ShardHealth::Running
            } else {
                ShardHealth::Stalled
            };
            view.done = heartbeat.done.min(total);
            view.cases_per_sec = heartbeat.cases_per_sec;
            view.age_ms = Some(age);
            view.retries = heartbeat.retries;
            view.progress_write_failures = heartbeat.progress_write_failures;
            if let Some(generation) = heartbeat.generation {
                view.note = format!(
                    "gen {generation}, {} iters, {} corpus",
                    heartbeat.iterations.unwrap_or(0),
                    heartbeat.corpus_entries.unwrap_or(0)
                );
            }
        }
        Err(reason) => {
            view.health = ShardHealth::Unknown;
            view.note = reason;
        }
    }
    view
}

fn finish_report(kind: SpoolKind, shards: Vec<ShardStatusView>) -> CampaignStatusReport {
    let done_units: u64 = shards.iter().map(|s| s.done).sum();
    let total_units: u64 = shards.iter().map(|s| s.total).sum();
    let rate: f64 = shards
        .iter()
        .filter(|s| s.health == ShardHealth::Running)
        .map(|s| s.cases_per_sec)
        .sum();
    let remaining = total_units.saturating_sub(done_units);
    let eta_secs = (remaining > 0 && rate > 0.0).then(|| (remaining as f64 / rate).ceil() as u64);
    let stalled = shards
        .iter()
        .filter(|s| s.health == ShardHealth::Stalled)
        .count();
    let complete = shards.iter().all(|s| s.health == ShardHealth::Done);
    CampaignStatusReport {
        kind,
        shards,
        done_units,
        total_units,
        eta_secs,
        stalled,
        complete,
    }
}

/// Folds a spool directory into a [`CampaignStatusReport`].
///
/// `now_ms` is the caller's wallclock (milliseconds since the epoch,
/// [`now_unix_ms`]); `stall_after_ms` is the heartbeat age beyond which a
/// shard counts as stalled. Torn or garbage per-shard files degrade that
/// shard to [`ShardHealth::Unknown`]; only a missing or unreadable
/// *manifest* fails the whole fold.
///
/// # Errors
///
/// Returns a display-ready message when the spool holds no recognizable
/// campaign.
pub fn campaign_status(
    spool: &Path,
    now_ms: u64,
    stall_after_ms: u64,
) -> Result<CampaignStatusReport, String> {
    let kind = detect_spool_kind(spool).ok_or_else(|| {
        format!(
            "{}: not a campaign spool (no manifest.txt or fuzz-manifest.txt)",
            spool.display()
        )
    })?;
    let manifest = Manifest::load(spool)
        .map_err(|e| format!("cannot load manifest: {e}"))?
        .ok_or("manifest disappeared mid-read")?;
    let dialect = manifest.dialect;
    let rounds = manifest.rounds.max(1);
    let shards = manifest
        .shards
        .iter()
        .enumerate()
        .map(|(shard, entry)| {
            // A shard's units are its range, once per round.
            let per_round = entry.range.len() as u64;
            let total = per_round * rounds as u64;
            let published = (0..rounds)
                .take_while(|round| dialect.unit_report_path(spool, shard, *round).exists())
                .count();
            if published == rounds {
                let mut view = ShardStatusView::pending(shard, total);
                view.health = ShardHealth::Done;
                view.done = total;
                view.retries = u64::from(entry.attempts.saturating_sub(1));
                if dialect == Dialect::Fuzz {
                    view.note = format!("gen {rounds}/{rounds}");
                }
                return view;
            }
            let mut view = judge_live_shard(
                spool,
                shard,
                per_round,
                dialect.name(),
                now_ms,
                stall_after_ms,
            );
            // Rebase the in-round count onto the whole shard's scale.
            view.done = (published as u64 * per_round + view.done).min(total);
            view.total = total;
            view
        })
        .collect();
    Ok(finish_report(kind, shards))
}

// --------------------------------------------------------------------------
// Rendering
// --------------------------------------------------------------------------

fn fmt_age(age_ms: Option<u64>) -> String {
    match age_ms {
        Some(ms) if ms < 1_000 => format!("{ms}ms ago"),
        Some(ms) if ms < 120_000 => format!("{:.1}s ago", ms as f64 / 1_000.0),
        Some(ms) => format!("{}m ago", ms / 60_000),
        None => "-".to_string(),
    }
}

fn fmt_eta(eta_secs: Option<u64>) -> String {
    match eta_secs {
        Some(s) if s < 120 => format!("~{s}s"),
        Some(s) if s < 7_200 => format!("~{}m", s / 60),
        Some(s) => format!("~{}h", s / 3_600),
        None => "-".to_string(),
    }
}

/// Renders a status report as the aligned text dashboard the
/// `campaign status` subcommand prints.
pub fn render_status(spool: &Path, report: &CampaignStatusReport) -> String {
    let mut out = format!(
        "{} [{}]  {}/{} units  eta {}  stalled {}{}\n",
        spool.display(),
        report.kind.name(),
        report.done_units,
        report.total_units,
        fmt_eta(report.eta_secs),
        report.stalled,
        if report.complete { "  COMPLETE" } else { "" },
    );
    let mut rows: Vec<[String; 7]> = vec![[
        "shard".into(),
        "state".into(),
        "progress".into(),
        "rate".into(),
        "beat".into(),
        "retries".into(),
        "note".into(),
    ]];
    for s in &report.shards {
        let pct = if s.total > 0 {
            format!(" ({}%)", s.done * 100 / s.total)
        } else {
            String::new()
        };
        let mut note = s.note.clone();
        if s.progress_write_failures > 0 {
            if !note.is_empty() {
                note.push_str("; ");
            }
            note.push_str(&format!("{} failed writes", s.progress_write_failures));
        }
        rows.push([
            format!("{:04}", s.shard),
            s.health.name().to_string(),
            format!("{}/{}{pct}", s.done, s.total),
            if s.cases_per_sec > 0.0 {
                format!("{:.1}/s", s.cases_per_sec)
            } else {
                "-".to_string()
            },
            fmt_age(s.age_ms),
            s.retries.to_string(),
            note,
        ]);
    }
    let mut widths = [0usize; 7];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    for row in &rows {
        let mut line = String::new();
        for (i, (cell, width)) in row.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            if i + 1 < row.len() {
                for _ in cell.len()..*width {
                    line.push(' ');
                }
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{init_spool, run_shard};
    use crate::sweep::SweepConfig;
    use proptest::prelude::*;

    fn temp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "regemu-status-{tag}-{}-{}",
            std::process::id(),
            now_unix_ms()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_config() -> SweepConfig {
        let mut config = SweepConfig::quick();
        config.seeds = vec![7];
        config.threads = 1;
        config
    }

    #[test]
    fn heartbeat_round_trips_through_its_json() {
        let heartbeat = ShardHeartbeat {
            version: HEARTBEAT_VERSION,
            kind: "fuzz".to_string(),
            shard: 3,
            done: 5,
            total: 8,
            cases_per_sec: 12.5,
            retries: 2,
            progress_write_failures: 1,
            generation: Some(1),
            iterations: Some(4_000),
            corpus_entries: Some(9),
            updated_unix_ms: 1_700_000_000_000,
        };
        let parsed = ShardHeartbeat::from_json(&heartbeat.to_json()).unwrap();
        assert_eq!(parsed, heartbeat);

        let sweep = ShardHeartbeat {
            kind: "sweep".to_string(),
            generation: None,
            iterations: None,
            corpus_entries: None,
            ..heartbeat
        };
        assert_eq!(ShardHeartbeat::from_json(&sweep.to_json()).unwrap(), sweep);
    }

    #[test]
    fn unsupported_versions_and_missing_fields_are_rejected() {
        let good = ShardHeartbeat {
            version: HEARTBEAT_VERSION,
            kind: "sweep".to_string(),
            shard: 0,
            done: 1,
            total: 2,
            cases_per_sec: 1.0,
            retries: 0,
            progress_write_failures: 0,
            generation: None,
            iterations: None,
            corpus_entries: None,
            updated_unix_ms: 1,
        }
        .to_json();
        let future = good.replace("\"version\":1", "\"version\":99");
        assert!(ShardHeartbeat::from_json(&future)
            .unwrap_err()
            .contains("version"));
        let hollow = good.replace("\"done\":1,", "");
        assert!(ShardHeartbeat::from_json(&hollow)
            .unwrap_err()
            .contains("done"));
        assert!(ShardHeartbeat::from_json("{}").is_err());
        assert!(ShardHeartbeat::from_json("").is_err());
    }

    #[test]
    fn run_shard_publishes_heartbeats_and_the_dashboard_reads_them() {
        let spool = temp_spool("sweep");
        let config = tiny_config();
        init_spool(&spool, &config, 2).unwrap();
        run_shard(&spool, 0, 1).unwrap();

        let heartbeat = ShardHeartbeat::load(&spool, 0).unwrap().unwrap();
        assert_eq!(heartbeat.kind, "sweep");
        assert_eq!(heartbeat.done, heartbeat.total);
        assert_eq!(heartbeat.progress_write_failures, 0);

        let now = now_unix_ms();
        let report = campaign_status(&spool, now, 60_000).unwrap();
        assert_eq!(report.kind, SpoolKind::Sweep);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.shards[0].health, ShardHealth::Done);
        assert_eq!(report.shards[1].health, ShardHealth::Pending);
        assert!(!report.complete);

        // A heartbeat far older than the stall threshold flags the shard.
        let mut stale = heartbeat.clone();
        stale.shard = 1;
        stale.done = 1;
        write_atomically(&stats_path(&spool, 1), &stale.to_json()).unwrap();
        let later = campaign_status(&spool, now + 120_000, 60_000).unwrap();
        assert_eq!(later.shards[1].health, ShardHealth::Stalled);
        assert_eq!(later.stalled, 1);

        run_shard(&spool, 1, 1).unwrap();
        let done = campaign_status(&spool, now_unix_ms(), 60_000).unwrap();
        assert!(done.complete);
        assert_eq!(done.done_units, done.total_units);
        let text = render_status(&spool, &done);
        assert!(text.contains("COMPLETE"), "{text}");
        fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn paced_heartbeats_wait_for_the_pace_and_for_new_progress() {
        let spool = temp_spool("paced");
        let stats = stats_path(&spool, 0);
        let mut beat = HeartbeatWriter::new(&spool, 0, Dialect::Sweep, 1);
        let started = Instant::now();
        beat.publish(0, 10);
        fs::remove_file(&stats).unwrap();
        beat.publish_paced(1, 10);
        if started.elapsed() < HEARTBEAT_PACE {
            assert!(!stats.exists(), "published before the pace elapsed");
        }
        std::thread::sleep(HEARTBEAT_PACE);
        beat.publish_paced(0, 10);
        assert!(!stats.exists(), "published without new progress");
        beat.publish_paced(2, 10);
        let heartbeat = ShardHeartbeat::load(&spool, 0).unwrap().unwrap();
        assert_eq!((heartbeat.done, heartbeat.total), (2, 10));
        assert!(!spool.join("shard-0000.progress").exists());
        fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn retries_count_failed_attempts_not_the_current_one() {
        let spool = temp_spool("retries");
        init_spool(&spool, &tiny_config(), 2).unwrap();
        // As the coordinator does: store the attempt, then run it. Shard 0
        // finishes on its first try; shard 1 failed once, then finished.
        let mut manifest = Manifest::load(&spool).unwrap().unwrap();
        manifest.shards[0].attempts = 1;
        manifest.shards[1].attempts = 2;
        manifest.store(&spool).unwrap();
        run_shard(&spool, 0, 1).unwrap();
        assert_eq!(ShardHeartbeat::load(&spool, 0).unwrap().unwrap().retries, 0);
        run_shard(&spool, 1, 1).unwrap();
        assert_eq!(ShardHeartbeat::load(&spool, 1).unwrap().unwrap().retries, 1);

        let report = campaign_status(&spool, now_unix_ms(), 60_000).unwrap();
        assert!(report.complete);
        let retries: Vec<_> = report.shards.iter().map(|s| s.retries).collect();
        assert_eq!(retries, [0, 1]);
        fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn torn_stale_and_garbage_heartbeats_degrade_to_unknown_not_panic() {
        let spool = temp_spool("torn");
        let config = tiny_config();
        init_spool(&spool, &config, 2).unwrap();

        // Torn: a prefix of a real heartbeat, as a crash mid-write (without
        // the rename discipline) would leave.
        let full = ShardHeartbeat {
            version: HEARTBEAT_VERSION,
            kind: "sweep".to_string(),
            shard: 0,
            done: 3,
            total: 8,
            cases_per_sec: 2.0,
            retries: 0,
            progress_write_failures: 0,
            generation: None,
            iterations: None,
            corpus_entries: None,
            updated_unix_ms: now_unix_ms(),
        }
        .to_json();
        fs::write(stats_path(&spool, 0), &full[..full.len() / 2]).unwrap();
        // Garbage bytes in the other shard's heartbeat.
        fs::write(stats_path(&spool, 1), b"\xff\xfe{{{nonsense").unwrap();
        // A mid-rename leftover must be ignored entirely.
        fs::write(spool.join("stats-0000.tmp"), "{\"version\":").unwrap();

        let report = campaign_status(&spool, now_unix_ms(), 60_000).unwrap();
        assert_eq!(report.shards[0].health, ShardHealth::Unknown);
        assert_eq!(report.shards[1].health, ShardHealth::Unknown);
        assert!(!report.complete);
        // Rendering a report full of unknowns must not panic either.
        let _ = render_status(&spool, &report);
        fs::remove_dir_all(&spool).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Satellite contract: arbitrary bytes in a heartbeat file never
        /// panic the parser and never parse as a *valid* future version.
        #[test]
        fn arbitrary_bytes_never_panic_the_heartbeat_parser(bytes in proptest::collection::vec(0u8..=255u8, 0..256)) {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(heartbeat) = ShardHeartbeat::from_json(&text) {
                prop_assert_eq!(heartbeat.version, HEARTBEAT_VERSION);
            }
        }

        /// Every truncation of a valid heartbeat is rejected cleanly (the
        /// full text round-trips; any strict prefix errors, not panics).
        #[test]
        fn truncated_heartbeats_are_rejected_not_panicked(cut in 0usize..160, done in 0u64..1_000) {
            let full = ShardHeartbeat {
                version: HEARTBEAT_VERSION,
                kind: "sweep".to_string(),
                shard: 1,
                done,
                total: 1_000,
                cases_per_sec: done as f64 / 3.0,
                retries: 0,
                progress_write_failures: 0,
                generation: None,
                iterations: None,
                corpus_entries: None,
                updated_unix_ms: 123,
            }.to_json();
            let cut = cut.min(full.len());
            let result = ShardHeartbeat::from_json(&full[..cut]);
            if cut < full.trim_end().len() {
                prop_assert!(result.is_err());
            }
        }

        /// The dashboard fold itself survives any heartbeat bytes: shards
        /// degrade to `unknown`, the fold never errors on per-shard files.
        #[test]
        fn the_dashboard_fold_survives_arbitrary_heartbeat_bytes(bytes in proptest::collection::vec(0u8..=255u8, 0..128)) {
            let spool = temp_spool("prop");
            init_spool(&spool, &tiny_config(), 1).unwrap();
            fs::write(stats_path(&spool, 0), &bytes).unwrap();
            let report = campaign_status(&spool, now_unix_ms(), 60_000).unwrap();
            prop_assert_eq!(report.shards.len(), 1);
            let health = report.shards[0].health;
            prop_assert!(
                matches!(health, ShardHealth::Unknown | ShardHealth::Running | ShardHealth::Stalled),
                "unexpected health {:?}", health
            );
            fs::remove_dir_all(&spool).ok();
        }
    }
}
