//! The campaign engine: one spool, manifest, worker pool and retry policy
//! behind sweep, frontier and fuzz campaigns.
//!
//! A *campaign* spreads a deterministic piece of work over OS processes
//! (and, since the on-disk format is the whole protocol, over machines
//! sharing a directory). The work is cut into contiguous *shards*; every
//! shard runs the same number of *rounds*, and `(shard, round)` is the
//! *unit* a worker executes. A round starts only once every shard has
//! finished the previous one — the barrier fuzz campaigns exchange corpus
//! entries at. A sweep shard is a shard with exactly one round.
//!
//! The engine owns everything the kinds share: the [`Manifest`] and its
//! text codec, `init`/resume, and the revalidate → run → settle → merge loop of
//! `run` with its worker pool. A kind (the `Campaign` trait) supplies only what
//! differs: its config text, how to run one unit, how to recognise a
//! finished unit, the merge, and its [`Dialect`] — the file names and
//! manifest header frozen on disk.
//!
//! ## The spool directory
//!
//! | file | written by | contents |
//! |---|---|---|
//! | config | coordinator, once | the kind's canonical config text; its FNV-1a hash is the manifest fingerprint |
//! | manifest | coordinator | versioned [`Manifest`]: fingerprint, shard ranges, per-shard rounds done and attempts |
//! | unit report | worker, last | proof that one `(shard, round)` unit finished |
//! | `stats-NNNN.json` | worker | advisory heartbeat ([`crate::status`]), never read by a merge |
//!
//! | kind | config | manifest | unit report | other worker files |
//! |---|---|---|---|---|
//! | sweep, frontier | `config.txt` | `manifest.txt` | `shard-NNNN.json` | `shard-NNNN.progress` |
//! | fuzz | `fuzz-config.txt` | `fuzz-manifest.txt` | `fuzz-shard-NNNN-GG.txt` | `corpus-*.trace`, `failures-*.txt`, `seed-*.trace` |
//!
//! A spool holds one campaign. Workers never write the manifest; every
//! report is written to a temporary file and renamed into place, and the
//! coordinator rewrites the manifest the same way, so no reader ever sees
//! a torn file it would mistake for a finished one. A campaign killed at
//! *any* point therefore resumes: `run` re-checks every unit the manifest
//! calls done, keeps the valid ones and re-runs the rest. Units are pure
//! functions of the spool state at their round barrier, so a re-run
//! republishes identical bytes.
//!
//! ## Pool policy
//!
//! These rules hold for every kind, in-process and spawned alike:
//!
//! * **Attempts are per unit.** [`ShardEntry::attempts`] counts the tries
//!   of the shard's current unit and restarts when the shard advances a
//!   round; it is stored *before* each try, so a coordinator killed
//!   mid-unit resumes with the consumed attempt on record. A unit that
//!   fails with the budget ([`CampaignOptions::max_attempts`]) spent fails
//!   the campaign with [`CampaignError::ShardFailed`].
//! * **A worker that cannot be spawned** consumed an attempt like any
//!   other failure and is retried within the budget.
//! * **A spawned worker's exit status is a claim, not proof**: the unit
//!   counts only if its report validates.
//! * **`exit_after` pauses exactly.** Workers in flight are capped by what
//!   is left of the pause budget, so no unit beyond it can finish in the
//!   same poll window.
//! * **No orphans.** Every live worker is killed *and* reaped before
//!   `run` returns, on success, pause and every error path alike, so no
//!   worker writes into a spool its coordinator has given up on.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Version tag of the on-disk manifest and config formats.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Errors raised by the campaign layer.
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O error on the spool directory.
    Io(std::io::Error),
    /// A spool file exists but cannot be parsed.
    Malformed {
        /// Which file is broken.
        file: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The spool was initialized for a different config.
    ConfigMismatch {
        /// Fingerprint recorded in the manifest.
        manifest: String,
        /// Fingerprint of the config handed to the campaign.
        config: String,
    },
    /// A shard index outside the manifest's shard count.
    UnknownShard(usize),
    /// A shard kept failing past the attempt budget.
    ShardFailed {
        /// The failing shard.
        shard: usize,
        /// Attempts consumed.
        attempts: u32,
        /// Last observed failure.
        reason: String,
    },
    /// The merge is missing part of the campaign's work.
    IncompleteMerge {
        /// First case index (sweep) or shard index (fuzz) with no result.
        missing_index: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "spool I/O error: {e}"),
            CampaignError::Malformed { file, reason } => {
                write!(f, "malformed spool file {file}: {reason}")
            }
            CampaignError::ConfigMismatch { manifest, config } => write!(
                f,
                "spool belongs to a different campaign config \
                 (manifest fingerprint {manifest}, config fingerprint {config}); \
                 use a fresh spool directory"
            ),
            CampaignError::UnknownShard(i) => write!(f, "shard {i} is not in the manifest"),
            CampaignError::ShardFailed {
                shard,
                attempts,
                reason,
            } => write!(f, "shard {shard} failed {attempts} attempt(s): {reason}"),
            CampaignError::IncompleteMerge { missing_index } => {
                write!(f, "merge incomplete: no result for index {missing_index}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

pub(crate) fn malformed(file: &Path, reason: impl Into<String>) -> CampaignError {
    CampaignError::Malformed {
        file: file.display().to_string(),
        reason: reason.into(),
    }
}

/// FNV-1a 64-bit — dependency-free, stable across platforms.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint of a canonical config text, as 16 hex digits.
pub(crate) fn fingerprint(config_text: &str) -> String {
    format!("{:016x}", fnv64(config_text.as_bytes()))
}

pub(crate) fn write_atomically(path: &Path, contents: &str) -> Result<(), CampaignError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

// --------------------------------------------------------------------------
// Shard planning and the manifest
// --------------------------------------------------------------------------

/// A contiguous index range `start..end` forming one shard: case indices
/// in a sweep, stream indices in a fuzz campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// Shard number (position in the manifest).
    pub index: usize,
    /// First index of the shard (inclusive).
    pub start: usize,
    /// One past the last index of the shard.
    pub end: usize,
}

impl ShardRange {
    /// Number of indices in the shard.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Splits `count` indices into `shards` contiguous, balanced ranges (the
/// first `count % shards` ranges hold one extra). A shard count larger than
/// `count` is clamped, so no shard is empty unless the space itself is.
pub(crate) fn plan_shards(count: usize, shards: usize) -> Vec<ShardRange> {
    let shards = shards.max(1).min(count.max(1));
    let base = count / shards;
    let extra = count % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for index in 0..shards {
        let len = base + usize::from(index < extra);
        ranges.push(ShardRange {
            index,
            start,
            end: start + len,
        });
        start += len;
    }
    ranges
}

/// The two on-disk dialects of the spool: which file names a campaign kind
/// uses and how its manifest text reads. Both are frozen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dialect {
    /// Sweep and frontier campaigns: one round per shard, rendered as
    /// `pending`/`done`.
    Sweep,
    /// Fuzz campaigns: a `generations` line and a numeric rounds-done
    /// column.
    Fuzz,
}

impl Dialect {
    /// Lower-case name, also the `kind` worker heartbeats carry.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Dialect::Sweep => "sweep",
            Dialect::Fuzz => "fuzz",
        }
    }

    fn header(self) -> String {
        match self {
            Dialect::Sweep => format!("regemu-campaign-manifest v{FORMAT_VERSION}"),
            Dialect::Fuzz => format!("regemu-fuzz-campaign-manifest v{FORMAT_VERSION}"),
        }
    }

    /// Key of the manifest line that sizes the sharded space.
    fn units_key(self) -> &'static str {
        match self {
            Dialect::Sweep => "cases",
            Dialect::Fuzz => "streams",
        }
    }

    /// Path of the manifest inside a spool directory.
    pub(crate) fn manifest_path(self, spool: &Path) -> PathBuf {
        spool.join(match self {
            Dialect::Sweep => "manifest.txt",
            Dialect::Fuzz => "fuzz-manifest.txt",
        })
    }

    /// Path of the canonical config text inside a spool directory.
    pub(crate) fn config_path(self, spool: &Path) -> PathBuf {
        spool.join(match self {
            Dialect::Sweep => "config.txt",
            Dialect::Fuzz => "fuzz-config.txt",
        })
    }

    /// Path of the report that proves unit `(shard, round)` finished.
    pub(crate) fn unit_report_path(self, spool: &Path, shard: usize, round: usize) -> PathBuf {
        spool.join(match self {
            Dialect::Sweep => format!("shard-{shard:04}.json"),
            Dialect::Fuzz => format!("fuzz-shard-{shard:04}-{round:02}.txt"),
        })
    }
}

/// One shard's entry in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// The shard's index range.
    pub range: ShardRange,
    /// Rounds completed so far (`Manifest::rounds` = shard finished).
    pub rounds_done: usize,
    /// Worker attempts consumed by the shard's current unit (its last one,
    /// once the shard has finished).
    pub attempts: u32,
}

/// The versioned, on-disk state of a campaign: which config it runs (by
/// fingerprint), how the space is sharded, and how far each shard got.
///
/// The manifest is the resume point *and* the wire protocol: any process
/// that can read the spool directory can pick up an unfinished unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Which on-disk dialect the manifest is written in.
    pub dialect: Dialect,
    /// Fingerprint of the campaign's canonical config text.
    pub fingerprint: String,
    /// Size of the sharded space: cases (sweep) or streams (fuzz).
    pub units: usize,
    /// Rounds every shard runs: 1 (sweep) or the generation count (fuzz).
    pub rounds: usize,
    /// Per-shard ranges and progress, in shard order.
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    /// Plans a fresh manifest: `units` indices split into `shards` shards
    /// of `rounds` rounds each.
    pub(crate) fn plan(
        dialect: Dialect,
        fingerprint: String,
        units: usize,
        rounds: usize,
        shards: usize,
    ) -> Self {
        Manifest {
            dialect,
            fingerprint,
            units,
            rounds,
            shards: plan_shards(units, shards)
                .into_iter()
                .map(|range| ShardEntry {
                    range,
                    rounds_done: 0,
                    attempts: 0,
                })
                .collect(),
        }
    }

    /// Serializes the manifest as its on-disk text.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{}\nfingerprint {}\n{} {}\n",
            self.dialect.header(),
            self.fingerprint,
            self.dialect.units_key(),
            self.units
        );
        if self.dialect == Dialect::Fuzz {
            out.push_str(&format!("generations {}\n", self.rounds));
        }
        out.push_str(&format!("shards {}\n", self.shards.len()));
        for s in &self.shards {
            let progress = match self.dialect {
                Dialect::Sweep if s.rounds_done == 0 => "pending".to_string(),
                Dialect::Sweep => "done".to_string(),
                Dialect::Fuzz => s.rounds_done.to_string(),
            };
            out.push_str(&format!(
                "shard {} {} {} {progress} {}\n",
                s.range.index, s.range.start, s.range.end, s.attempts
            ));
        }
        out
    }

    /// Parses the on-disk manifest text; the header line names the dialect.
    ///
    /// # Errors
    ///
    /// Returns a message naming what is malformed.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty manifest")?;
        let dialect = [Dialect::Sweep, Dialect::Fuzz]
            .into_iter()
            .find(|d| d.header() == header)
            .ok_or(format!("unsupported manifest header {header:?}"))?;
        let mut field = |name: &str| -> Result<String, String> {
            let line = lines.next().ok_or(format!("missing {name} line"))?;
            line.strip_prefix(&format!("{name} "))
                .map(str::to_string)
                .ok_or(format!("expected {name} line, got {line:?}"))
        };
        let number = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number {s:?}"));
        let fingerprint = field("fingerprint")?;
        let units = number(&field(dialect.units_key())?)?;
        let rounds = match dialect {
            Dialect::Sweep => 1,
            Dialect::Fuzz => number(&field("generations")?)?,
        };
        let shard_count = number(&field("shards")?)?;
        let mut shards = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let ["shard", index, start, end, progress, attempts] = parts.as_slice() else {
                return Err(format!("bad shard line {line:?}"));
            };
            let rounds_done = match (dialect, *progress) {
                (Dialect::Sweep, "pending") => 0,
                (Dialect::Sweep, "done") => 1,
                (Dialect::Sweep, other) => return Err(format!("unknown status {other:?}")),
                (Dialect::Fuzz, n) => number(n)?,
            };
            shards.push(ShardEntry {
                range: ShardRange {
                    index: number(index)?,
                    start: number(start)?,
                    end: number(end)?,
                },
                rounds_done,
                attempts: attempts
                    .parse()
                    .map_err(|_| format!("bad attempt count {attempts:?}"))?,
            });
        }
        if shards.len() != shard_count {
            return Err(format!(
                "manifest declares {shard_count} shards but lists {}",
                shards.len()
            ));
        }
        // The ranges must partition 0..units in order.
        let mut expected_start = 0;
        for (i, s) in shards.iter().enumerate() {
            if s.range.index != i || s.range.start != expected_start || s.range.end < s.range.start
            {
                return Err(format!("shard {i} range is not a partition: {:?}", s.range));
            }
            if s.rounds_done > rounds {
                return Err(format!("shard {i} claims {} rounds", s.rounds_done));
            }
            expected_start = s.range.end;
        }
        if expected_start != units {
            return Err(format!(
                "shards cover {expected_start} {}, manifest declares {units}",
                dialect.units_key()
            ));
        }
        Ok(Manifest {
            dialect,
            fingerprint,
            units,
            rounds,
            shards,
        })
    }

    /// Loads whichever manifest the spool directory holds, or `None` if it
    /// holds neither.
    pub fn load(spool: &Path) -> Result<Option<Self>, CampaignError> {
        for dialect in [Dialect::Fuzz, Dialect::Sweep] {
            let path = dialect.manifest_path(spool);
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            let manifest = Manifest::from_text(&text).map_err(|reason| malformed(&path, reason))?;
            if manifest.dialect != dialect {
                return Err(malformed(&path, "header belongs to the other dialect"));
            }
            return Ok(Some(manifest));
        }
        Ok(None)
    }

    /// Loads the spool's manifest, treating an absent one as malformed —
    /// what a worker or a merge needs.
    pub(crate) fn require(spool: &Path, dialect: Dialect) -> Result<Self, CampaignError> {
        Manifest::load(spool)?
            .filter(|m| m.dialect == dialect)
            .ok_or_else(|| malformed(&dialect.manifest_path(spool), "missing"))
    }

    /// Atomically writes the manifest into the spool (temp file + rename),
    /// so a coordinator killed mid-write never leaves a torn manifest.
    pub(crate) fn store(&self, spool: &Path) -> Result<(), CampaignError> {
        write_atomically(&self.dialect.manifest_path(spool), &self.to_text())
    }

    /// Returns `true` once every shard has run all its rounds.
    pub fn is_complete(&self) -> bool {
        self.incomplete().next().is_none()
    }

    /// Shards with rounds left to run, in shard order.
    pub fn incomplete(&self) -> impl Iterator<Item = &ShardEntry> {
        self.shards.iter().filter(|s| s.rounds_done < self.rounds)
    }

    /// The barrier round: the earliest round some shard still has to run.
    /// Every shard at that round runs it before any shard starts the next.
    pub fn current_round(&self) -> Option<usize> {
        self.incomplete().map(|s| s.rounds_done).min()
    }

    /// Units finished so far, summed over shards.
    pub(crate) fn units_done(&self) -> usize {
        self.shards.iter().map(|s| s.rounds_done).sum()
    }
}

// --------------------------------------------------------------------------
// The coordinator
// --------------------------------------------------------------------------

/// How the coordinator executes units.
#[derive(Clone, Debug)]
pub enum WorkerMode {
    /// Run units inside the coordinator process, one at a time (a sweep
    /// shard still uses the config's sweep thread pool). The zero-setup
    /// path used by `campaign sweep --in-process`.
    InProcess,
    /// Spawn `<binary> worker --spool .. --shard .. --gen .. --threads ..`
    /// (the `campaign` binary of `regemu-bench`) as a separate OS process
    /// per unit.
    Spawn(PathBuf),
}

/// Options of a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Spool directory holding the manifest, config and unit reports.
    pub spool: PathBuf,
    /// Number of shards to split the space into (ignored when resuming:
    /// the existing manifest's plan wins).
    pub shards: usize,
    /// Maximum number of concurrently running worker processes.
    pub workers: usize,
    /// Attempt budget per unit before the campaign fails.
    pub max_attempts: u32,
    /// Sweep threads per worker (`0` = one per core).
    pub worker_threads: usize,
    /// How units are executed.
    pub worker: WorkerMode,
    /// Stop after completing this many units in *this* invocation, leaving
    /// the campaign resumable — deterministic stand-in for a mid-campaign
    /// kill, used by the resume tests and the CI smoke jobs.
    pub exit_after: Option<usize>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

impl CampaignOptions {
    /// Reasonable defaults: in-process workers, 4 shards, 2 at a time,
    /// 3 attempts.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            spool: spool.into(),
            shards: 4,
            workers: 2,
            max_attempts: 3,
            worker_threads: 0,
            worker: WorkerMode::InProcess,
            exit_after: None,
            quiet: false,
        }
    }
}

/// What a campaign kind supplies to the engine; everything else is shared.
pub(crate) trait Campaign {
    /// What merging the finished campaign yields.
    type Report;
    /// The kind's on-disk dialect.
    fn dialect(&self) -> Dialect;
    /// The canonical config text stored in the spool and fingerprinted.
    fn config_text(&self) -> String;
    /// Size of the space to shard (cases or streams).
    fn units(&self) -> usize;
    /// Rounds every shard runs.
    fn rounds(&self) -> usize;
    /// Runs unit `(shard, round)` against the spool, publishing its report
    /// last. `threads` is [`CampaignOptions::worker_threads`].
    fn run_unit(
        &self,
        spool: &Path,
        shard: usize,
        round: usize,
        threads: usize,
    ) -> Result<(), CampaignError>;
    /// Whether the unit's report exists, parses and covers `range`.
    fn unit_is_done(&self, spool: &Path, range: ShardRange, round: usize) -> bool;
    /// Deterministically merges the unit reports of a finished campaign.
    fn merge(&self, spool: &Path) -> Result<Self::Report, CampaignError>;
}

/// Initializes (or resumes) a spool directory for `campaign` split into
/// `shards` shards.
///
/// A fresh directory gets the config text and an all-pending manifest. An
/// existing spool is *resumed*: its manifest is returned as-is after
/// verifying that it belongs to the same config
/// ([`CampaignError::ConfigMismatch`] otherwise). The shard count of an
/// existing manifest wins over `shards`: ranges are frozen at creation.
pub(crate) fn init(
    spool: &Path,
    campaign: &impl Campaign,
    shards: usize,
) -> Result<Manifest, CampaignError> {
    fs::create_dir_all(spool)?;
    let text = campaign.config_text();
    let fingerprint = fingerprint(&text);
    if let Some(manifest) = Manifest::load(spool)? {
        if manifest.fingerprint != fingerprint {
            return Err(CampaignError::ConfigMismatch {
                manifest: manifest.fingerprint,
                config: fingerprint,
            });
        }
        return Ok(manifest);
    }
    let dialect = campaign.dialect();
    write_atomically(&dialect.config_path(spool), &text)?;
    let manifest = Manifest::plan(
        dialect,
        fingerprint,
        campaign.units(),
        campaign.rounds(),
        shards,
    );
    manifest.store(spool)?;
    Ok(manifest)
}

/// What one campaign invocation did.
#[derive(Debug)]
pub struct Outcome<R> {
    /// The merged report — `Some` once every unit is done, `None` when the
    /// invocation stopped early ([`CampaignOptions::exit_after`]).
    pub report: Option<R>,
    /// Total `(shard, round)` units in the campaign.
    pub units_total: usize,
    /// Units executed by this invocation.
    pub units_run: usize,
    /// Units whose existing report was reused (resume).
    pub units_reused: usize,
    /// Worker attempts that failed and were retried.
    pub retries: u32,
}

/// The live worker processes. Dropping the pool kills and reaps every one,
/// which is what makes each early return of [`run`] orphan-free.
struct Pool(Vec<(usize, Child)>);

impl Drop for Pool {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The one place a worker process is launched.
fn spawn_worker(
    bin: &Path,
    options: &CampaignOptions,
    shard: usize,
    round: usize,
) -> std::io::Result<Child> {
    let mut command = Command::new(bin);
    command
        .arg("worker")
        .arg("--spool")
        .arg(&options.spool)
        .args(["--shard", &shard.to_string()])
        .args(["--gen", &round.to_string()])
        .args(["--threads", &options.worker_threads.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if options.quiet {
        // Quiet coordinators silence their workers' progress chatter too
        // (errors still reach stderr).
        command.env("REGEMU_LOG", "off");
    }
    command.spawn()
}

/// Coordinator state shared by the launch and reap halves of [`run`].
struct Coordinator<'a> {
    options: &'a CampaignOptions,
    manifest: Manifest,
    /// Shards waiting to run the current round.
    queue: VecDeque<usize>,
    units_run: usize,
    retries: u32,
}

impl Coordinator<'_> {
    fn say(&self, line: String) {
        if !self.options.quiet {
            eprintln!("{line}");
        }
    }

    /// Books the outcome of one attempt at unit `(shard, round)`: advance
    /// the shard, requeue it, or fail the campaign.
    fn settle(
        &mut self,
        shard: usize,
        round: usize,
        outcome: Result<(), String>,
    ) -> Result<(), CampaignError> {
        let budget = self.options.max_attempts.max(1);
        let rounds = self.manifest.rounds;
        let total = self.manifest.shards.len() * rounds;
        let entry = &mut self.manifest.shards[shard];
        match outcome {
            Ok(()) => {
                entry.rounds_done = round + 1;
                if entry.rounds_done < rounds {
                    entry.attempts = 0;
                }
                self.manifest.store(&self.options.spool)?;
                self.units_run += 1;
                let done = self.manifest.units_done();
                self.say(format!(
                    "campaign: shard {shard} round {round} done; {done}/{total} units"
                ));
            }
            Err(reason) => {
                self.retries += 1;
                let attempts = entry.attempts;
                if attempts >= budget {
                    return Err(CampaignError::ShardFailed {
                        shard,
                        attempts,
                        reason,
                    });
                }
                self.say(format!(
                    "campaign: shard {shard} round {round} failed ({reason}); retrying \
                     (attempt {} of {budget})",
                    attempts + 1
                ));
                self.queue.push_back(shard);
            }
        }
        Ok(())
    }
}

/// Runs (or resumes) `campaign` until every unit is done or
/// [`CampaignOptions::exit_after`] pauses it: initializes the spool,
/// revalidates and reuses finished units, executes the rest round by round
/// under the pool policy in the module docs, and merges once all are done.
///
/// # Errors
///
/// Fails on spool I/O or format errors, on a config mismatch with an
/// existing spool, or when a unit exhausts its attempt budget.
pub(crate) fn run<C: Campaign>(
    campaign: &C,
    options: &CampaignOptions,
) -> Result<Outcome<C::Report>, CampaignError> {
    let spool = options.spool.as_path();
    let mut manifest = init(spool, campaign, options.shards)?;

    // Revalidate units marked done: a report that is missing or torn (the
    // worker was killed mid-campaign) sends its shard back to that round.
    let mut units_reused = 0;
    for entry in &mut manifest.shards {
        entry.rounds_done = (0..entry.rounds_done)
            .take_while(|&round| campaign.unit_is_done(spool, entry.range, round))
            .count();
        units_reused += entry.rounds_done;
    }
    manifest.store(spool)?;

    let units_total = manifest.shards.len() * manifest.rounds;
    let exit_after = options.exit_after.unwrap_or(usize::MAX);
    let width = match options.worker {
        WorkerMode::InProcess => 1,
        WorkerMode::Spawn(_) => options.workers.max(1),
    };
    let mut co = Coordinator {
        options,
        manifest,
        queue: VecDeque::new(),
        units_run: 0,
        retries: 0,
    };
    let mut pool = Pool(Vec::new());

    while let Some(round) = co.manifest.current_round() {
        if co.units_run >= exit_after {
            break;
        }
        co.queue = co
            .manifest
            .shards
            .iter()
            .filter(|s| s.rounds_done == round)
            .map(|s| s.range.index)
            .collect();
        loop {
            // Top up the pool, never past what `exit_after` still allows.
            while pool.0.len() < width && co.units_run + pool.0.len() < exit_after {
                let Some(shard) = co.queue.pop_front() else {
                    break;
                };
                co.manifest.shards[shard].attempts += 1;
                co.manifest.store(spool)?;
                let outcome = match &options.worker {
                    WorkerMode::InProcess => campaign
                        .run_unit(spool, shard, round, options.worker_threads)
                        .map_err(|e| e.to_string()),
                    WorkerMode::Spawn(bin) => match spawn_worker(bin, options, shard, round) {
                        Ok(child) => {
                            pool.0.push((shard, child));
                            continue;
                        }
                        Err(e) => Err(format!("cannot spawn worker {}: {e}", bin.display())),
                    },
                };
                co.settle(shard, round, outcome)?;
            }
            if pool.0.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(30));

            let mut at = 0;
            while at < pool.0.len() {
                let (shard, child) = &mut pool.0[at];
                let range = co.manifest.shards[*shard].range;
                let outcome = match child.try_wait() {
                    Ok(None) => {
                        at += 1;
                        continue;
                    }
                    Ok(Some(status)) if !status.success() => {
                        Err(format!("worker exited with {status}"))
                    }
                    Ok(Some(_)) if campaign.unit_is_done(spool, range, round) => Ok(()),
                    Ok(Some(_)) => Err("unit report missing or torn".to_string()),
                    Err(e) => {
                        // Unknown child state: kill it so a requeued unit
                        // can never have two concurrent writers.
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(format!("cannot poll worker: {e}"))
                    }
                };
                let (shard, _) = pool.0.swap_remove(at);
                co.settle(shard, round, outcome)?;
            }
        }
    }

    let complete = co.manifest.is_complete();
    Ok(Outcome {
        report: complete.then(|| campaign.merge(spool)).transpose()?,
        units_total,
        units_run: co.units_run,
        units_reused,
        retries: co.retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("regemu-engine-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A campaign that runs no simulator: a unit's report is a one-line
    /// file naming the unit.
    struct Fake {
        units: usize,
        rounds: usize,
        /// In-process attempts that must fail before a unit succeeds.
        failures: RefCell<HashMap<(usize, usize), u32>>,
        /// Every in-process attempt, in launch order.
        launched: RefCell<Vec<(usize, usize)>>,
    }

    impl Fake {
        fn new(units: usize, rounds: usize) -> Self {
            Fake {
                units,
                rounds,
                failures: RefCell::default(),
                launched: RefCell::default(),
            }
        }

        fn failing(self, unit: (usize, usize), times: u32) -> Self {
            self.failures.borrow_mut().insert(unit, times);
            self
        }
    }

    fn report_text(shard: usize, round: usize) -> String {
        format!("done {shard} {round}\n")
    }

    impl Campaign for Fake {
        type Report = ();

        fn dialect(&self) -> Dialect {
            Dialect::Fuzz
        }

        fn config_text(&self) -> String {
            format!("fake-campaign {} {}\n", self.units, self.rounds)
        }

        fn units(&self) -> usize {
            self.units
        }

        fn rounds(&self) -> usize {
            self.rounds
        }

        fn run_unit(
            &self,
            spool: &Path,
            shard: usize,
            round: usize,
            _threads: usize,
        ) -> Result<(), CampaignError> {
            self.launched.borrow_mut().push((shard, round));
            if let Some(left) = self.failures.borrow_mut().get_mut(&(shard, round)) {
                if *left > 0 {
                    *left -= 1;
                    return Err(malformed(spool, "injected failure"));
                }
            }
            let path = Dialect::Fuzz.unit_report_path(spool, shard, round);
            write_atomically(&path, &report_text(shard, round))
        }

        fn unit_is_done(&self, spool: &Path, range: ShardRange, round: usize) -> bool {
            let path = Dialect::Fuzz.unit_report_path(spool, range.index, round);
            fs::read_to_string(path).is_ok_and(|text| text == report_text(range.index, round))
        }

        fn merge(&self, _spool: &Path) -> Result<(), CampaignError> {
            Ok(())
        }
    }

    fn options(spool: &Path, shards: usize) -> CampaignOptions {
        CampaignOptions {
            shards,
            quiet: true,
            ..CampaignOptions::new(spool)
        }
    }

    #[test]
    fn shard_plans_partition_the_space() {
        for (count, shards) in [(24, 4), (7, 3), (5, 9), (1, 1), (0, 4), (100, 7)] {
            let plan = plan_shards(count, shards);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, count);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let lens: Vec<usize> = plan.iter().map(ShardRange::len).collect();
            let max = lens.iter().max().unwrap();
            let min = lens.iter().min().unwrap();
            assert!(max - min <= 1, "unbalanced plan {lens:?}");
            if count > 0 {
                assert!(plan.iter().all(|r| r.len() > 0));
            }
        }
    }

    #[test]
    fn manifests_round_trip_in_both_dialects_and_track_the_barrier() {
        let mut sweep = Manifest::plan(Dialect::Sweep, "00ff".to_string(), 24, 1, 4);
        sweep.shards[1].rounds_done = 1;
        sweep.shards[1].attempts = 2;
        let text = sweep.to_text();
        assert!(text.contains("shard 1 6 12 done 2\n"), "{text}");
        assert!(text.contains("shard 0 0 6 pending 0\n"), "{text}");
        assert_eq!(Manifest::from_text(&text).unwrap(), sweep);
        assert_eq!(sweep.incomplete().count(), 3);

        let mut fuzz = Manifest::plan(Dialect::Fuzz, "abcd".to_string(), 4, 2, 3);
        assert_eq!(Manifest::from_text(&fuzz.to_text()).unwrap(), fuzz);
        assert_eq!(fuzz.current_round(), Some(0));
        fuzz.shards[0].rounds_done = 1;
        assert_eq!(
            fuzz.current_round(),
            Some(0),
            "a straggler holds the barrier"
        );
        for s in &mut fuzz.shards {
            s.rounds_done = 1;
        }
        assert_eq!(fuzz.current_round(), Some(1));
        for s in &mut fuzz.shards {
            s.rounds_done = 2;
        }
        assert_eq!(fuzz.current_round(), None);
        assert!(fuzz.is_complete());
        assert_eq!(Manifest::from_text(&fuzz.to_text()).unwrap(), fuzz);
    }

    #[test]
    fn malformed_manifests_are_rejected_by_the_one_parser() {
        let sweep = Manifest::plan(Dialect::Sweep, "00ff".to_string(), 8, 1, 2).to_text();
        let fuzz = Manifest::plan(Dialect::Fuzz, "abcd".to_string(), 4, 2, 2).to_text();
        for good in [&sweep, &fuzz] {
            assert!(Manifest::from_text(good).is_ok());
            // Truncations: every strict line prefix is missing something.
            let lines: Vec<&str> = good.lines().collect();
            for keep in 0..lines.len() {
                let cut = lines[..keep].join("\n");
                assert!(Manifest::from_text(&cut).is_err(), "accepted {cut:?}");
            }
        }
        let broken = [
            ("garbage", "garbage".to_string()),
            ("empty", String::new()),
            (
                "future version",
                sweep.replace("manifest v1", "manifest v2"),
            ),
            (
                "missing fingerprint",
                sweep.replace("fingerprint 00ff\n", ""),
            ),
            (
                "units key of the other dialect",
                sweep.replace("cases 8", "streams 8"),
            ),
            ("bad unit count", sweep.replace("cases 8", "cases eight")),
            ("bad shard count", sweep.replace("shards 2", "shards two")),
            (
                "shard count mismatch",
                sweep.replace("shards 2", "shards 3"),
            ),
            ("unknown status", sweep.replace("pending", "running")),
            (
                "numeric status in the sweep dialect",
                sweep.replace("pending", "0"),
            ),
            (
                "word status in the fuzz dialect",
                fuzz.replace("shard 0 0 2 0 0", "shard 0 0 2 done 0"),
            ),
            (
                "bad attempt count",
                sweep.replace("pending 0", "pending -1"),
            ),
            (
                "short shard line",
                sweep.replace("shard 1 4 8 pending 0", "shard 1 4 8 pending"),
            ),
            (
                "long shard line",
                sweep.replace("shard 1 4 8 pending 0", "shard 1 4 8 pending 0 0"),
            ),
            ("not a shard line", sweep.replace("shard 1", "shred 1")),
            ("bad number", sweep.replace("shard 1 4 8", "shard 1 x 8")),
            (
                "gap in the partition",
                sweep.replace("shard 1 4 8", "shard 1 5 8"),
            ),
            (
                "misnumbered shard",
                sweep.replace("shard 1 4 8", "shard 3 4 8"),
            ),
            (
                "inverted range",
                sweep.replace("shard 1 4 8", "shard 1 4 3"),
            ),
            (
                "ranges short of the total",
                sweep.replace("cases 8", "cases 9"),
            ),
            ("missing generations", fuzz.replace("generations 2\n", "")),
            (
                "more rounds done than exist",
                fuzz.replace("shard 0 0 2 0 0", "shard 0 0 2 3 0"),
            ),
        ];
        for (what, text) in broken {
            assert!(Manifest::from_text(&text).is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn spools_reject_foreign_configs_and_keep_their_shard_plan() {
        let spool = tmp_spool("init");
        let first = init(&spool, &Fake::new(8, 2), 4).unwrap();
        assert_eq!(first.shards.len(), 4);
        let resumed = init(&spool, &Fake::new(8, 2), 2).unwrap();
        assert_eq!(resumed, first, "an existing plan wins over the argument");
        match init(&spool, &Fake::new(9, 2), 4) {
            Err(CampaignError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn a_failing_unit_is_retried_then_exhausts_the_budget() {
        let spool = tmp_spool("retry");
        let mut opts = options(&spool, 2);
        opts.max_attempts = 2;
        let run = run(&Fake::new(4, 1).failing((1, 0), 1), &opts).unwrap();
        assert!(run.report.is_some());
        assert_eq!((run.units_run, run.retries), (2, 1));
        let _ = fs::remove_dir_all(&spool);

        match super::run(&Fake::new(4, 1).failing((1, 0), 2), &opts) {
            Err(CampaignError::ShardFailed {
                shard: 1,
                attempts: 2,
                ..
            }) => {}
            other => panic!("expected ShardFailed for shard 1, got {other:?}"),
        }
        // The consumed attempts are on record for the resume.
        let manifest = Manifest::load(&spool).unwrap().unwrap();
        assert_eq!(manifest.shards[1].attempts, 2);
        assert_eq!(manifest.units_done(), 1);
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn attempts_restart_when_a_shard_advances_a_round() {
        let spool = tmp_spool("reset");
        let mut opts = options(&spool, 1);
        opts.max_attempts = 2;
        // One failure in *every* round: each unit has its own budget of 2.
        let fake = (0..4).fold(Fake::new(2, 4), |f, round| f.failing((0, round), 1));
        let run = run(&fake, &opts).unwrap();
        assert!(run.report.is_some());
        assert_eq!((run.units_run, run.retries), (4, 4));
        let manifest = Manifest::load(&spool).unwrap().unwrap();
        assert_eq!(manifest.shards[0].attempts, 2, "the last unit's own count");
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn in_process_rounds_keep_the_barrier() {
        let spool = tmp_spool("barrier");
        let fake = Fake::new(6, 3);
        let run = run(&fake, &options(&spool, 3)).unwrap();
        assert!(run.report.is_some());
        assert_eq!(run.units_total, 9);
        let rounds: Vec<usize> = fake.launched.borrow().iter().map(|u| u.1).collect();
        assert_eq!(rounds, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn resume_sends_torn_and_missing_reports_back_to_pending() {
        let spool = tmp_spool("resume");
        let opts = options(&spool, 2);
        assert!(run(&Fake::new(4, 2), &opts).unwrap().report.is_some());
        // Shard 0 loses its last report to a torn write; shard 1 loses its
        // first one outright, which also invalidates the round after it.
        fs::write(Dialect::Fuzz.unit_report_path(&spool, 0, 1), "done 0").unwrap();
        fs::remove_file(Dialect::Fuzz.unit_report_path(&spool, 1, 0)).unwrap();
        let fake = Fake::new(4, 2);
        let resumed = run(&fake, &opts).unwrap();
        assert!(resumed.report.is_some());
        assert_eq!((resumed.units_reused, resumed.units_run), (1, 3));
        assert_eq!(*fake.launched.borrow(), [(1, 0), (0, 1), (1, 1)]);

        let again = run(&Fake::new(4, 2), &opts).unwrap();
        assert_eq!((again.units_reused, again.units_run), (4, 0));
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn exit_after_pauses_in_process_runs_exactly() {
        let spool = tmp_spool("pause");
        let mut opts = options(&spool, 2);
        opts.exit_after = Some(3);
        let first = run(&Fake::new(4, 2), &opts).unwrap();
        assert!(first.report.is_none());
        assert_eq!(first.units_run, 3);
        opts.exit_after = None;
        let second = run(&Fake::new(4, 2), &opts).unwrap();
        assert!(second.report.is_some());
        assert_eq!((second.units_reused, second.units_run), (3, 1));
        let _ = fs::remove_dir_all(&spool);
    }

    /// Spawn-mode tests against a fake worker: a shell script standing in
    /// for `campaign worker`. They run one at a time: a script file still
    /// open for writing in one thread while another forks is `ETXTBSY`.
    #[cfg(unix)]
    mod spawned {
        use super::*;
        use std::os::unix::fs::PermissionsExt;
        use std::sync::Mutex;

        static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

        /// Writes a worker script whose body sees `$spool`, `$shard`,
        /// `$gen` and `$report` (the unit's report path); `publish` writes
        /// the report the way [`Fake::unit_is_done`] expects it.
        fn worker_script(dir: &Path, body: &str) -> PathBuf {
            fs::create_dir_all(dir).unwrap();
            let path = dir.join("fake-worker.sh");
            let text = format!(
                "#!/bin/sh\n\
                 [ \"$1 $2 $4 $6 $8\" = 'worker --spool --shard --gen --threads' ] || exit 64\n\
                 spool=$3 shard=$5 gen=$7\n\
                 report=$(printf '%s/fuzz-shard-%04d-%02d.txt' \"$spool\" \"$shard\" \"$gen\")\n\
                 publish() {{ printf 'done %s %s\\n' \"$shard\" \"$gen\" > \"$report\"; }}\n\
                 {body}\n"
            );
            fs::write(&path, text).unwrap();
            fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
            path
        }

        fn spawn_options(spool: &Path, shards: usize, script: PathBuf) -> CampaignOptions {
            CampaignOptions {
                workers: shards,
                worker: WorkerMode::Spawn(script),
                ..options(spool, shards)
            }
        }

        #[test]
        fn rounds_keep_their_barrier_across_concurrent_workers() {
            let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let spool = tmp_spool("spawn-barrier");
            let script = worker_script(&spool, "echo \"$gen\" >> \"$spool/order.log\"; publish");
            let run = run(&Fake::new(6, 3), &spawn_options(&spool, 3, script)).unwrap();
            assert!(run.report.is_some());
            assert_eq!(run.units_run, 9);
            let order = fs::read_to_string(spool.join("order.log")).unwrap();
            let rounds: Vec<&str> = order.lines().collect();
            assert_eq!(rounds, ["0", "0", "0", "1", "1", "1", "2", "2", "2"]);
            let _ = fs::remove_dir_all(&spool);
        }

        #[test]
        fn exit_after_never_overshoots() {
            let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let spool = tmp_spool("spawn-pause");
            let script = worker_script(&spool, "publish");
            let mut opts = spawn_options(&spool, 4, script);
            opts.exit_after = Some(3);
            let first = run(&Fake::new(8, 2), &opts).unwrap();
            assert!(first.report.is_none());
            assert_eq!(first.units_run, 3, "the pause is exact");
            let published = fs::read_dir(&spool)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_string_lossy().starts_with("fuzz-shard-")
                })
                .count();
            assert_eq!(published, 3, "no fourth worker was ever launched");
            opts.exit_after = None;
            let second = run(&Fake::new(8, 2), &opts).unwrap();
            assert!(second.report.is_some());
            assert_eq!((second.units_reused, second.units_run), (3, 5));
            let _ = fs::remove_dir_all(&spool);
        }

        #[test]
        fn a_clean_exit_without_a_valid_report_is_a_failed_attempt() {
            let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let spool = tmp_spool("spawn-torn");
            // The first try of every unit leaves a torn report and exits 0.
            let script = worker_script(
                &spool,
                "if [ -e \"$report.tried\" ]; then publish; \
                 else : > \"$report.tried\"; printf 'done' > \"$report\"; fi",
            );
            let run = run(&Fake::new(2, 1), &spawn_options(&spool, 2, script)).unwrap();
            assert!(run.report.is_some());
            assert_eq!((run.units_run, run.retries), (2, 2));
            let _ = fs::remove_dir_all(&spool);
        }

        #[test]
        fn an_unspawnable_worker_consumes_attempts_and_then_fails_the_campaign() {
            let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let spool = tmp_spool("spawn-missing");
            let opts = spawn_options(&spool, 2, PathBuf::from("/nonexistent/campaign"));
            match run(&Fake::new(2, 1), &opts) {
                Err(CampaignError::ShardFailed {
                    shard: 0,
                    attempts: 3,
                    reason,
                }) => assert!(reason.contains("cannot spawn worker"), "{reason}"),
                other => panic!("expected ShardFailed after 3 spawn attempts, got {other:?}"),
            }
            let _ = fs::remove_dir_all(&spool);
        }

        #[test]
        fn a_fatal_failure_kills_the_slow_sibling_before_returning() {
            let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let spool = tmp_spool("spawn-fatal");
            // Shard 0 dies at once; shard 1 would publish 0.4 s later.
            let script = worker_script(
                &spool,
                "[ \"$shard\" = 0 ] && exit 1; sleep 0.4; publish; : > \"$spool/survived\"",
            );
            let mut opts = spawn_options(&spool, 2, script);
            opts.max_attempts = 1;
            match run(&Fake::new(2, 1), &opts) {
                Err(CampaignError::ShardFailed { shard: 0, .. }) => {}
                other => panic!("expected ShardFailed for shard 0, got {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(800));
            assert!(
                !spool.join("survived").exists()
                    && !Dialect::Fuzz.unit_report_path(&spool, 1, 0).exists(),
                "an orphaned worker published after the campaign had failed"
            );
            let _ = fs::remove_dir_all(&spool);
        }
    }
}
