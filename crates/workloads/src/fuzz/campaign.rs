//! Campaign-scale fuzzing: sharded corpus search with deterministic merge.
//!
//! A single [`Fuzzer`] explores in one process; a *fuzz campaign* shards a
//! total iteration budget over worker processes on the same spool-directory
//! protocol the sweep campaigns use (`crate::campaign`). The unit of
//! determinism is the **stream**: a campaign runs a fixed number of logical
//! fuzzing streams (frozen in the manifest at init, like a sweep campaign's
//! case shards), stream `s` seeded from the master seed and `s`, so every
//! stream's exploration is a pure function of the campaign config. Shards
//! are contiguous stream ranges; how streams are grouped into shards, which
//! worker runs them, and in what order never changes any stream's output —
//! which is what makes the merged failure set **byte-identical** across
//! shard counts, worker interleavings, and kill/resume cycles.
//!
//! ## Corpus exchange
//!
//! Streams run their budget in *generations*. At the end of each
//! generation, a worker publishes the corpus entries its streams admitted
//! during that generation as one `corpus-SSSS-GG-NNNN.trace` file each
//! (stream, generation, admission sequence — written temp-file+rename, so a
//! torn entry is never visible). The coordinator barriers between
//! generations: generation `g` starts only after *every* shard finished
//! generation `g - 1`. A stream opening generation `g` therefore ingests a
//! fixed, manifest-determined set — all published entries of generations
//! `< g`, in `(stream, generation, sequence)` order — so corpus admission
//! stays a pure function of the manifest state, and cross-pollination
//! between shards costs no determinism. A campaign can also start from a
//! *previous* campaign's published corpus: [`import_seed_corpus`] copies a
//! directory's `*.trace` files into the spool as `seed-NNNN.trace` entries,
//! the fixed ingest set of every stream's generation 0, frozen once the
//! manifest exists.
//!
//! ## The spool directory
//!
//! The spool protocol — manifest, worker pool, retry and resume — is the
//! shared campaign engine's (`crate::engine`, which lists every file of
//! both kinds). This module is the fuzz *kind*; its files are:
//!
//! | file | written by | contents |
//! |---|---|---|
//! | `fuzz-config.txt` | coordinator, once | canonical [`FuzzCampaignConfig`] text |
//! | `fuzz-manifest.txt` | coordinator | [`FuzzManifest`]: fingerprint, stream ranges, per-shard generation progress |
//! | `seed-NNNN.trace` | coordinator, at init | an imported generation-0 seed ([`import_seed_corpus`]) |
//! | `corpus-SSSS-GG-NNNN.trace` | workers | one published corpus entry (`regemu-trace v1`) |
//! | `failures-SSSS-GG.txt` | workers | the generation's shrunk failure reports for stream `SSSS` |
//! | `fuzz-shard-NNNN-GG.txt` | workers | per-`(shard, generation)` completion report |
//!
//! Because every `(shard, generation)` unit is a pure function of the spool
//! contents at its barrier, a killed worker is re-run idempotently: it
//! republishes byte-identical files.
//!
//! ## The merged failure set
//!
//! [`merge_fuzz_campaign`] collects every shrunk failure from every
//! `failures-*.txt`, deduplicates by the shrunk trace text (shrinking is a
//! deterministic fixed point, so equal repros are byte-equal), normalizes
//! `found-at` to the minimum across duplicates, and orders by
//! `(kind label, trace text)`. The resulting
//! [`FuzzCampaignReport::failures_text`] is the campaign's canonical
//! artifact: the CI determinism job diffs it across 1-shard and 4-shard
//! runs of the same config.

use super::shrink::{shrink_failure, FailureReport};
use super::trace::RecordedSchedule;
use super::{FuzzCase, FuzzConfig, FuzzEmulation, Fuzzer};
use crate::engine::{
    self, fingerprint, fnv64, malformed, plan_shards, write_atomically, Campaign, CampaignError,
    CampaignOptions, Dialect, Manifest, Outcome, ShardRange,
};
use crate::runner::ConsistencyCheck;
use crate::sweep::WorkloadSpec;
use crate::text::Reader;
use regemu_bounds::Params;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Version tag of the fuzz-campaign spool formats.
pub(crate) const FUZZ_FORMAT_VERSION: u32 = 1;

/// What a fuzz campaign explores and how the exploration is split.
///
/// [`FuzzCampaignConfig::fuzz`] holds the *total* iteration budget; streams
/// split it (first `budget % streams` streams get one extra iteration), and
/// each stream splits its slice across generations the same way.
#[derive(Clone, Debug)]
pub struct FuzzCampaignConfig {
    /// The underlying fuzz config. `budget` is the campaign-wide total;
    /// `stop_on_failure` is ignored (streams always spend their slice, so
    /// the merged artifact never depends on who found a failure first).
    pub fuzz: FuzzConfig,
    /// Number of independent fuzzing streams (the determinism unit).
    pub streams: usize,
    /// Number of corpus-exchange generations per stream.
    pub generations: usize,
}

impl FuzzCampaignConfig {
    /// A campaign over `fuzz` with the default split: 8 streams, 2
    /// generations.
    pub fn new(fuzz: FuzzConfig) -> Self {
        FuzzCampaignConfig {
            fuzz,
            streams: 8,
            generations: 2,
        }
    }

    /// Sets the stream count (at least 1).
    pub fn streams(mut self, streams: usize) -> Self {
        self.streams = streams.max(1);
        self
    }

    /// Sets the generation count (at least 1).
    pub fn generations(mut self, generations: usize) -> Self {
        self.generations = generations.max(1);
        self
    }

    /// The seed of stream `s`: the master seed and the stream index mixed
    /// through the SplitMix64 finalizer, so streams explore independently.
    pub(crate) fn stream_seed(&self, stream: usize) -> u64 {
        let mut x = self
            .fuzz
            .seed
            .wrapping_add((stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The iteration budget of stream `s` (its slice of the total).
    pub(crate) fn stream_budget(&self, stream: usize) -> usize {
        plan_shards(self.fuzz.budget, self.streams)
            .get(stream)
            .map(ShardRange::len)
            .unwrap_or(0)
    }

    /// The iteration budget of generation `g` within stream `s`.
    pub(crate) fn generation_budget(&self, stream: usize, generation: usize) -> usize {
        plan_shards(self.stream_budget(stream), self.generations)
            .get(generation)
            .map(ShardRange::len)
            .unwrap_or(0)
    }

    /// The [`FuzzConfig`] stream `s` runs: the campaign config with the
    /// stream's derived seed and slice of the budget.
    pub(crate) fn stream_config(&self, stream: usize) -> FuzzConfig {
        let mut config = self.fuzz.clone();
        config.seed = self.stream_seed(stream);
        config.budget = self.stream_budget(stream);
        config.stop_on_failure = false;
        config
    }
}

/// Serializes a [`FuzzCampaignConfig`] as canonical line-based text.
pub(crate) fn fuzz_config_to_text(config: &FuzzCampaignConfig) -> String {
    format!(
        "regemu-fuzz-campaign-config v{FUZZ_FORMAT_VERSION}\n\
         params {} {} {}\n\
         emulation {}\n\
         workload {}\n\
         check {}\n\
         seed {}\n\
         budget {}\n\
         max-steps {}\n\
         streams {}\n\
         generations {}\n",
        config.fuzz.params.k,
        config.fuzz.params.f,
        config.fuzz.params.n,
        config.fuzz.emulation,
        config.fuzz.workload.label(),
        config.fuzz.check.name(),
        config.fuzz.seed,
        config.fuzz.budget,
        config.fuzz.max_steps_per_op,
        config.streams,
        config.generations,
    )
}

/// Parses the canonical [`FuzzCampaignConfig`] text, its lines in fixed
/// order.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub(crate) fn fuzz_config_from_text(text: &str) -> Result<FuzzCampaignConfig, String> {
    let mut r = Reader::new(text, "config");
    r.header(&[format!(
        "regemu-fuzz-campaign-config v{FUZZ_FORMAT_VERSION}"
    )])?;
    let mut line = r.expect("params")?;
    line.needs("k f n")?;
    let (k, f, n) = (line.parse("k")?, line.parse("f")?, line.parse("n")?);
    let params = Params::new(k, f, n).map_err(|e| line.err(format_args!("invalid params: {e}")))?;
    let mut fuzz = FuzzConfig::new(params)
        .emulation(r.named("emulation", FuzzEmulation::from_name)?)
        .workload(r.named("workload", WorkloadSpec::from_label)?)
        .check(r.named("check", ConsistencyCheck::from_name)?)
        .seed(r.value("seed")?)
        .budget(r.value("budget")?);
    fuzz.max_steps_per_op = r.value("max-steps")?;
    Ok(FuzzCampaignConfig {
        fuzz,
        streams: r.value::<usize>("streams")?.max(1),
        generations: r.value::<usize>("generations")?.max(1),
    })
}

/// Fingerprint identifying the campaign's exploration space.
pub fn fuzz_config_fingerprint(config: &FuzzCampaignConfig) -> String {
    fingerprint(&fuzz_config_to_text(config))
}

// --------------------------------------------------------------------------
// Spool layout
// --------------------------------------------------------------------------

/// Path of a published corpus entry.
pub(crate) fn corpus_entry_path(spool: &Path, stream: usize, gen: usize, seq: usize) -> PathBuf {
    spool.join(format!("corpus-{stream:04}-{gen:02}-{seq:04}.trace"))
}

/// Path of a stream's per-generation failure file.
pub(crate) fn failures_path(spool: &Path, stream: usize, gen: usize) -> PathBuf {
    spool.join(format!("failures-{stream:04}-{gen:02}.txt"))
}

/// Path of a `(shard, generation)` completion report.
pub fn fuzz_shard_report_path(spool: &Path, shard: usize, gen: usize) -> PathBuf {
    Dialect::Fuzz.unit_report_path(spool, shard, gen)
}

/// Path of an imported generation-0 seed entry ([`import_seed_corpus`]).
pub(crate) fn seed_entry_path(spool: &Path, seq: usize) -> PathBuf {
    spool.join(format!("seed-{seq:04}.trace"))
}

// --------------------------------------------------------------------------
// The manifest and the engine hook
// --------------------------------------------------------------------------

/// A fuzz campaign's manifest: the engine's `Manifest` in the
/// [`Dialect::Fuzz`] dialect (`fuzz-manifest.txt`) — shards are stream
/// ranges, rounds are generations.
pub type FuzzManifest = Manifest;

/// The fuzz kind, as the engine sees it: one round per generation, a unit
/// is done when its completion report covers the shard's stream range.
struct FuzzCampaign<'a>(&'a FuzzCampaignConfig);

impl Campaign for FuzzCampaign<'_> {
    type Report = FuzzCampaignReport;

    fn dialect(&self) -> Dialect {
        Dialect::Fuzz
    }

    fn config_text(&self) -> String {
        fuzz_config_to_text(self.0)
    }

    fn units(&self) -> usize {
        self.0.streams
    }

    fn rounds(&self) -> usize {
        self.0.generations
    }

    fn run_unit(
        &self,
        spool: &Path,
        shard: usize,
        round: usize,
        _threads: usize,
    ) -> Result<(), CampaignError> {
        run_fuzz_shard_gen(spool, shard, round)
    }

    fn unit_is_done(&self, spool: &Path, range: ShardRange, round: usize) -> bool {
        shard_gen_is_done(spool, range, round)
    }

    fn merge(&self, spool: &Path) -> Result<Self::Report, CampaignError> {
        merge_fuzz_campaign(spool)
    }
}

/// Initializes (or resumes) a fuzz-campaign spool for `config` split into
/// `shards` shards. Mirrors `crate::campaign::init_spool`: an existing
/// manifest wins over the `shards` argument and must match the config's
/// fingerprint.
///
/// # Errors
///
/// Fails on spool I/O, a malformed manifest, or a fingerprint mismatch.
pub fn init_fuzz_spool(
    spool: &Path,
    config: &FuzzCampaignConfig,
    shards: usize,
) -> Result<FuzzManifest, CampaignError> {
    engine::init(spool, &FuzzCampaign(config), shards)
}

/// Imports every `*.trace` file in `dir` — typically the `corpus-*.trace`
/// entries published by a *previous* campaign's spool — as this campaign's
/// generation-0 seed corpus: `seed-NNNN.trace` entries, numbered in
/// file-name order, that every stream ingests before its first iteration.
/// Each file must parse as a `regemu-trace v1` recorded schedule.
///
/// Re-importing the same directory is idempotent (byte-identical seeds are
/// left in place). Once the campaign manifest exists the seed set is
/// frozen: resumed workers re-derive generation 0 from it, so importing a
/// different, larger or smaller set into a started campaign is an error,
/// not a silent determinism break.
///
/// Returns the number of seed entries in the spool after the import.
///
/// # Errors
///
/// Fails on I/O errors, on a seed file that does not parse as a recorded
/// trace, or on any change to a started campaign's frozen seed set.
pub fn import_seed_corpus(spool: &Path, dir: &Path) -> Result<usize, CampaignError> {
    let mut sources: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == "trace") {
            sources.push(path);
        }
    }
    sources.sort();
    fs::create_dir_all(spool)?;
    let frozen = FuzzManifest::load(spool)?.is_some();
    for (seq, source) in sources.iter().enumerate() {
        let text = fs::read_to_string(source)?;
        RecordedSchedule::from_text(&text).map_err(|reason| malformed(source, reason))?;
        let target = seed_entry_path(spool, seq);
        let changed = format!(
            "campaign already started with a different seed corpus \
             (seed {seq} != {}); use a fresh --spool to reseed",
            source.display()
        );
        match fs::read_to_string(&target) {
            Ok(existing) if existing == text => continue,
            Ok(_) if frozen => return Err(malformed(&target, changed)),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if frozen {
                    return Err(malformed(&target, changed));
                }
            }
            Err(e) => return Err(e.into()),
        }
        write_atomically(&target, &text)?;
    }
    let stale = seed_entry_path(spool, sources.len());
    if stale.exists() {
        if frozen {
            return Err(malformed(
                &stale,
                "campaign already started with a larger seed corpus; \
                 use a fresh --spool to reseed",
            ));
        }
        for seq in sources.len().. {
            let path = seed_entry_path(spool, seq);
            if !path.exists() {
                break;
            }
            fs::remove_file(&path)?;
        }
    }
    Ok(sources.len())
}

/// Reads the spool's imported generation-0 seeds in sequence order — the
/// fixed extra ingest set of every stream's generation 0. Empty when no
/// seed corpus was imported.
///
/// # Errors
///
/// Fails on I/O errors or a malformed seed entry.
pub(crate) fn seed_corpus(spool: &Path) -> Result<Vec<FuzzCase>, CampaignError> {
    let mut cases = Vec::new();
    read_cases(&mut cases, |seq| seed_entry_path(spool, seq))?;
    Ok(cases)
}

/// Appends the cases recorded in `path(0)`, `path(1)`, … up to the first
/// missing file.
fn read_cases(
    cases: &mut Vec<FuzzCase>,
    path: impl Fn(usize) -> PathBuf,
) -> Result<(), CampaignError> {
    for seq in 0.. {
        let path = path(seq);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(e) => return Err(e.into()),
        };
        let schedule =
            RecordedSchedule::from_text(&text).map_err(|reason| malformed(&path, reason))?;
        cases.push(schedule.case());
    }
    Ok(())
}

/// Loads the campaign's [`FuzzCampaignConfig`] from a spool directory.
///
/// # Errors
///
/// Fails when the config file is missing or malformed.
pub fn load_fuzz_config(spool: &Path) -> Result<FuzzCampaignConfig, CampaignError> {
    let path = Dialect::Fuzz.config_path(spool);
    let text = fs::read_to_string(&path)?;
    fuzz_config_from_text(&text).map_err(|reason| malformed(&path, reason))
}

// --------------------------------------------------------------------------
// The worker: one (shard, generation) unit
// --------------------------------------------------------------------------

/// Reads every corpus entry published for generations `< gen`, in
/// `(stream, generation, sequence)` order — the fixed ingest set of any
/// stream opening generation `gen`.
fn published_before(
    spool: &Path,
    streams: usize,
    gen: usize,
) -> Result<Vec<FuzzCase>, CampaignError> {
    let mut cases = Vec::new();
    for stream in 0..streams {
        for g in 0..gen {
            read_cases(&mut cases, |seq| corpus_entry_path(spool, stream, g, seq))?;
        }
    }
    Ok(cases)
}

/// The per-stream outcome of one generation.
struct StreamGenOutcome {
    iterations: usize,
    corpus_added: usize,
    failures: Vec<FailureReport>,
}

/// Runs one stream through generations `0..=gen`, re-deriving earlier
/// generations deterministically (each is a pure function of the spool
/// state at its barrier), and returns what generation `gen` produced. Also
/// publishes generation `gen`'s corpus entries and failure file.
fn run_stream_generation(
    spool: &Path,
    config: &FuzzCampaignConfig,
    stream: usize,
    gen: usize,
) -> Result<StreamGenOutcome, CampaignError> {
    let stream_config = config.stream_config(stream);
    let mut fuzzer = Fuzzer::new(stream_config.clone());
    let mut corpus_mark = 0;
    let mut failure_mark = 0;
    for g in 0..=gen {
        if g == 0 {
            // Imported seeds are generation 0's fixed ingest set; they are
            // admitted before the corpus mark, so they are never
            // republished and re-derivation stays deterministic.
            for case in seed_corpus(spool)? {
                fuzzer.ingest(case);
            }
        } else {
            for case in published_before(spool, config.streams, g)? {
                fuzzer.ingest(case);
            }
        }
        corpus_mark = fuzzer.corpus().len();
        failure_mark = fuzzer.failures().len();
        fuzzer.run_iterations(config.generation_budget(stream, g));
    }

    // Publish generation `gen`: the corpus entries admitted during it...
    let new_entries: Vec<FuzzCase> = fuzzer.corpus()[corpus_mark..].to_vec();
    for (seq, case) in new_entries.iter().enumerate() {
        let schedule = RecordedSchedule::from_parts(&stream_config, case);
        write_atomically(
            &corpus_entry_path(spool, stream, gen, seq),
            &schedule.to_text(),
        )?;
    }
    // ...and the generation's failures, shrunk.
    let failures: Vec<FailureReport> = fuzzer.failures()[failure_mark..]
        .iter()
        .map(|failure| shrink_failure(&stream_config, failure))
        .collect();
    write_atomically(
        &failures_path(spool, stream, gen),
        &failures_file_text(&failures),
    )?;

    let gen_start = {
        let mut start = 0;
        for g in 0..gen {
            start += config.generation_budget(stream, g);
        }
        start
    };
    Ok(StreamGenOutcome {
        iterations: fuzzer.iterations() - gen_start,
        corpus_added: new_entries.len(),
        failures,
    })
}

/// Runs one `(shard, generation)` unit: every stream in the shard's range
/// through generation `gen`, publishing corpus entries, failure files, and
/// finally the unit's completion report. Pure given the spool state at the
/// generation barrier, and idempotent — re-running republishes
/// byte-identical files.
///
/// # Errors
///
/// Fails on spool I/O or when the spool has no (or a malformed) config.
pub fn run_fuzz_shard_gen(spool: &Path, shard: usize, gen: usize) -> Result<(), CampaignError> {
    let config = load_fuzz_config(spool)?;
    let manifest = Manifest::require(spool, Dialect::Fuzz)?;
    let entry = manifest
        .shards
        .get(shard)
        .ok_or(CampaignError::UnknownShard(shard))?;
    let mut report = UnitReport {
        shard,
        gen,
        streams: (entry.range.start, entry.range.end),
        rows: Vec::new(),
    };
    // Heartbeats are advisory observer artifacts; the unit's report below
    // stays a pure function of the spool state at the generation barrier.
    let mut beat = crate::status::HeartbeatWriter::new(spool, shard, Dialect::Fuzz, entry.attempts);
    let (mut iterations, mut corpus_entries) = (0u64, 0u64);
    beat.set_fuzz_progress(gen as u64, iterations, corpus_entries);
    beat.publish(0, entry.range.len() as u64);
    for (streams_done, stream) in (entry.range.start..entry.range.end).enumerate() {
        let outcome = run_stream_generation(spool, &config, stream, gen)?;
        report.rows.push([
            stream,
            outcome.iterations,
            outcome.corpus_added,
            outcome.failures.len(),
        ]);
        iterations += outcome.iterations as u64;
        corpus_entries += outcome.corpus_added as u64;
        beat.set_fuzz_progress(gen as u64, iterations, corpus_entries);
        beat.publish(streams_done as u64 + 1, entry.range.len() as u64);
    }
    write_atomically(
        &fuzz_shard_report_path(spool, shard, gen),
        &report.to_text(),
    )
}

/// A `(shard, generation)` unit's completion report, `fuzz-shard-NNNN-GG.txt`.
pub(crate) struct UnitReport {
    pub(crate) shard: usize,
    pub(crate) gen: usize,
    /// The shard's stream range, `start..end`.
    pub(crate) streams: (usize, usize),
    /// Per stream: `[stream, iterations, corpus entries, failures]`.
    pub(crate) rows: Vec<[usize; 4]>,
}

impl UnitReport {
    pub(crate) fn to_text(&self) -> String {
        let mut out = format!(
            "regemu-fuzz-shard v{FUZZ_FORMAT_VERSION}\nshard {}\ngeneration {}\nstreams {} {}\n",
            self.shard, self.gen, self.streams.0, self.streams.1
        );
        for [stream, iterations, corpus, failures] in &self.rows {
            out.push_str(&format!(
                "stream {stream} iterations {iterations} corpus {corpus} failures {failures}\n"
            ));
        }
        out.push_str("end\n");
        out
    }

    pub(crate) fn from_text(text: &str) -> Result<Self, String> {
        let mut r = Reader::new(text, "unit report");
        r.header(&[format!("regemu-fuzz-shard v{FUZZ_FORMAT_VERSION}")])?;
        let (shard, gen) = (r.value("shard")?, r.value("generation")?);
        let mut line = r.expect("streams")?;
        let streams = (line.parse("start")?, line.parse("end")?);
        line.done()?;
        let mut rows = Vec::new();
        loop {
            let line = r.next().ok_or_else(|| r.missing("end"))?;
            if line.key == "end" {
                line.done()?;
                break;
            }
            let mut line = line.keyed("stream")?;
            let mut row = [line.parse("stream")?, 0, 0, 0];
            for (at, label) in ["iterations", "corpus", "failures"].into_iter().enumerate() {
                line.named(label, |word| (word == label).then_some(()))?;
                row[at + 1] = line.parse(label)?;
            }
            line.done()?;
            rows.push(row);
        }
        r.finish()?;
        Ok(UnitReport {
            shard,
            gen,
            streams,
            rows,
        })
    }
}

/// Validates a `(shard, generation)` completion report: it must exist,
/// parse, and cover exactly the shard's stream range.
fn shard_gen_is_done(spool: &Path, range: ShardRange, gen: usize) -> bool {
    let text = fs::read_to_string(fuzz_shard_report_path(spool, range.index, gen));
    text.is_ok_and(|text| {
        UnitReport::from_text(&text).is_ok_and(|report| {
            (report.shard, report.gen, report.streams)
                == (range.index, gen, (range.start, range.end))
                && report
                    .rows
                    .iter()
                    .map(|row| row[0])
                    .eq(range.start..range.end)
        })
    })
}

// --------------------------------------------------------------------------
// The merge
// --------------------------------------------------------------------------

/// One entry of the merged, deduplicated failure set.
#[derive(Clone, Debug)]
pub struct MergedFailure {
    /// The shrunk repro.
    pub report: FailureReport,
    /// How many streams found a failure shrinking to this repro.
    pub occurrences: usize,
}

/// The outcome of a whole fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzCampaignReport {
    /// The campaign config.
    pub config: FuzzCampaignConfig,
    /// Total iterations executed across all streams.
    pub iterations: usize,
    /// Total corpus entries published across all streams and generations.
    pub corpus_published: usize,
    /// The deduplicated failure set, ordered by `(kind, trace text)`.
    pub failures: Vec<MergedFailure>,
}

impl FuzzCampaignReport {
    /// Whether any failure survived the merge.
    pub fn found(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Deterministic summary text.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "regemu-fuzz-campaign-report v{FUZZ_FORMAT_VERSION}\n\
             params {} {} {}\nemulation {}\nworkload {}\ncheck {}\nseed {}\n\
             streams {}\ngenerations {}\nbudget {}\niterations {}\n\
             corpus-published {}\nfailures {}\n",
            self.config.fuzz.params.k,
            self.config.fuzz.params.f,
            self.config.fuzz.params.n,
            self.config.fuzz.emulation,
            self.config.fuzz.workload.label(),
            self.config.fuzz.check.name(),
            self.config.fuzz.seed,
            self.config.streams,
            self.config.generations,
            self.config.fuzz.budget,
            self.iterations,
            self.corpus_published,
            self.failures.len(),
        );
        for f in &self.failures {
            out.push_str(&format!(
                "failure kind={} occurrences={} trace-fnv={:016x} verdict={}\n",
                f.report.kind.label(),
                f.occurrences,
                fnv64(f.report.trace.to_text().as_bytes()),
                f.report.verdict,
            ));
        }
        out
    }

    /// The canonical merged failure artifact: every deduplicated shrunk
    /// repro as a full failure report, in merge order. This is the file the
    /// CI determinism job diffs across shard counts.
    pub fn failures_text(&self) -> String {
        let mut out = format!(
            "regemu-fuzz-campaign-failures v{FUZZ_FORMAT_VERSION}\ncount {}\n",
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&f.report.to_text());
        }
        out
    }
}

/// Renders a stream's per-generation failure file, `failures-SSSS-GG.txt`.
pub(crate) fn failures_file_text(reports: &[FailureReport]) -> String {
    let mut text = format!(
        "regemu-fuzz-failures v{FUZZ_FORMAT_VERSION}\ncount {}\n",
        reports.len()
    );
    for report in reports {
        text.push_str(&report.to_text());
    }
    text
}

/// Parses a failure file; its `count` must match the reports that follow.
pub(crate) fn failures_from_text(text: &str) -> Result<Vec<FailureReport>, String> {
    let mut r = Reader::new(text, "failures file");
    r.header(&[format!("regemu-fuzz-failures v{FUZZ_FORMAT_VERSION}")])?;
    let count: usize = r.value("count")?;
    let mut reports = Vec::new();
    while !r.at_end() {
        reports.push(FailureReport::read(&mut r)?);
    }
    if reports.len() != count {
        return Err(r.err(format_args!(
            "count {count} but {} reports follow",
            reports.len()
        )));
    }
    Ok(reports)
}

/// Merges a completed campaign's failure files into the deduplicated,
/// deterministically ordered failure set and the campaign totals.
///
/// # Errors
///
/// Fails on spool I/O, malformed files, or when some `(shard, generation)`
/// unit has not completed.
pub fn merge_fuzz_campaign(spool: &Path) -> Result<FuzzCampaignReport, CampaignError> {
    let config = load_fuzz_config(spool)?;
    let manifest = Manifest::require(spool, Dialect::Fuzz)?;
    for entry in &manifest.shards {
        for gen in 0..manifest.rounds {
            if !shard_gen_is_done(spool, entry.range, gen) {
                return Err(CampaignError::IncompleteMerge {
                    missing_index: entry.range.index,
                });
            }
        }
    }

    let mut iterations = 0;
    let mut corpus_published = 0;
    // Dedup by the shrunk trace text; order by (kind label, trace text).
    let mut merged: BTreeMap<(String, String), MergedFailure> = BTreeMap::new();
    for stream in 0..manifest.units {
        for gen in 0..manifest.rounds {
            for seq in 0.. {
                if corpus_entry_path(spool, stream, gen, seq).exists() {
                    corpus_published += 1;
                } else {
                    break;
                }
            }
            let path = failures_path(spool, stream, gen);
            let text = fs::read_to_string(&path)?;
            for report in failures_from_text(&text).map_err(|reason| malformed(&path, reason))? {
                let key = (report.kind.label(), report.trace.to_text());
                merged
                    .entry(key)
                    .and_modify(|m| {
                        m.occurrences += 1;
                        // Normalize to the earliest discovery, so merge
                        // order of duplicates cannot leak into the artifact.
                        if report.found_at < m.report.found_at {
                            m.report.found_at = report.found_at;
                        }
                    })
                    .or_insert(MergedFailure {
                        report,
                        occurrences: 1,
                    });
            }
        }
        iterations += config.stream_budget(stream);
    }

    Ok(FuzzCampaignReport {
        config,
        iterations,
        corpus_published,
        failures: merged.into_values().collect(),
    })
}

// --------------------------------------------------------------------------
// The coordinator
// --------------------------------------------------------------------------

/// Options of a fuzz-campaign run: the engine's [`CampaignOptions`]. A
/// fuzz unit is single-threaded, so `worker_threads` is ignored;
/// `max_attempts` and `exit_after` count `(shard, generation)` units.
pub type FuzzCampaignOptions = CampaignOptions;

/// Runs (or resumes) a sharded fuzz campaign to completion: initializes the
/// spool, revalidates completed `(shard, generation)` units, executes the
/// rest generation by generation (the corpus-exchange barrier) under the
/// engine's pool policy (`crate::engine`), and merges the failure files
/// into the final [`FuzzCampaignReport`].
///
/// Units of the *same* generation run concurrently up to
/// [`FuzzCampaignOptions::workers`]; the generation barrier is the only
/// synchronization, and it lives in the manifest, so a killed campaign
/// resumes exactly where it stopped.
///
/// # Errors
///
/// Fails on spool I/O or format errors, on a config mismatch with an
/// existing spool, or when a unit exhausts its attempt budget.
pub fn run_fuzz_campaign(
    config: &FuzzCampaignConfig,
    options: &FuzzCampaignOptions,
) -> Result<Outcome<FuzzCampaignReport>, CampaignError> {
    engine::run(&FuzzCampaign(config), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FailureKind;
    use regemu_core::FaultyKind;

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "regemu-fuzz-campaign-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> FuzzCampaignConfig {
        FuzzCampaignConfig::new(FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(48))
            .streams(4)
            .generations(2)
    }

    #[test]
    fn config_text_round_trips_and_fingerprints_pin_the_space() {
        let config = small_config();
        let text = fuzz_config_to_text(&config);
        let parsed = fuzz_config_from_text(&text).unwrap();
        assert_eq!(fuzz_config_to_text(&parsed), text);
        assert_eq!(
            fuzz_config_fingerprint(&parsed),
            fuzz_config_fingerprint(&config)
        );
        let mut other = config;
        other.streams = 5;
        assert_ne!(
            fuzz_config_fingerprint(&other),
            fuzz_config_fingerprint(&small_config())
        );
    }

    #[test]
    fn budget_splits_cover_the_total_exactly() {
        let config = small_config();
        let total: usize = (0..config.streams).map(|s| config.stream_budget(s)).sum();
        assert_eq!(total, config.fuzz.budget);
        for s in 0..config.streams {
            let per_gen: usize = (0..config.generations)
                .map(|g| config.generation_budget(s, g))
                .sum();
            assert_eq!(per_gen, config.stream_budget(s));
        }
        // Stream seeds are distinct.
        let seeds: std::collections::BTreeSet<u64> =
            (0..config.streams).map(|s| config.stream_seed(s)).collect();
        assert_eq!(seeds.len(), config.streams);
    }

    #[test]
    fn a_clean_campaign_completes_with_zero_failures_and_reruns_identically() {
        let spool = tmp_spool("clean");
        let config = small_config();
        let options = FuzzCampaignOptions {
            quiet: true,
            ..FuzzCampaignOptions::new(&spool)
        };
        let outcome = run_fuzz_campaign(&config, &options).unwrap();
        let report = outcome.report.expect("campaign must complete");
        assert!(!report.found(), "{}", report.to_text());
        assert_eq!(report.iterations, config.fuzz.budget);
        assert!(report.corpus_published > 0);
        let text = report.to_text();
        let failures = report.failures_text();

        // A second merge of the same spool is byte-identical.
        let again = merge_fuzz_campaign(&spool).unwrap();
        assert_eq!(again.to_text(), text);
        assert_eq!(again.failures_text(), failures);
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn the_stuck_oracle_is_caught_and_merges_identically_across_shard_counts() {
        let config = FuzzCampaignConfig::new(
            FuzzConfig::new(Params::new(1, 1, 3).unwrap())
                .emulation(FuzzEmulation::Faulty(FaultyKind::DroppedAcks))
                .budget(24),
        )
        .streams(4)
        .generations(2);

        let mut artifacts = Vec::new();
        for shards in [1, 4] {
            let spool = tmp_spool(&format!("stuck-{shards}"));
            let options = FuzzCampaignOptions {
                shards,
                quiet: true,
                ..FuzzCampaignOptions::new(&spool)
            };
            let outcome = run_fuzz_campaign(&config, &options).unwrap();
            let report = outcome.report.expect("campaign must complete");
            assert!(report.found(), "stuck oracle not caught");
            assert!(
                report
                    .failures
                    .iter()
                    .all(|f| f.report.kind == FailureKind::Stuck),
                "{}",
                report.to_text()
            );
            artifacts.push((report.to_text(), report.failures_text()));
            let _ = fs::remove_dir_all(&spool);
        }
        assert_eq!(artifacts[0], artifacts[1], "shard count leaked into merge");
    }

    #[test]
    fn seed_corpus_import_is_idempotent_and_frozen_once_started() {
        // A finished campaign donates its published corpus as seeds.
        let donor = tmp_spool("seed-donor");
        let config = small_config();
        let donor_options = FuzzCampaignOptions {
            quiet: true,
            ..FuzzCampaignOptions::new(&donor)
        };
        run_fuzz_campaign(&config, &donor_options).unwrap();

        let spool = tmp_spool("seed-import");
        let count = import_seed_corpus(&spool, &donor).unwrap();
        assert!(count > 0, "donor campaign published no corpus");
        assert!(seed_entry_path(&spool, 0).exists());
        assert!(!seed_entry_path(&spool, count).exists());
        assert_eq!(seed_corpus(&spool).unwrap().len(), count);
        // Re-importing the same directory changes nothing.
        assert_eq!(import_seed_corpus(&spool, &donor).unwrap(), count);

        // Run the seeded campaign to completion; the manifest now freezes
        // the seed set.
        let options = FuzzCampaignOptions {
            quiet: true,
            ..FuzzCampaignOptions::new(&spool)
        };
        let outcome = run_fuzz_campaign(&config, &options).unwrap();
        assert!(outcome.report.is_some());
        // The identical import is still fine on resume...
        assert_eq!(import_seed_corpus(&spool, &donor).unwrap(), count);
        // ...but a smaller or different set is rejected.
        let other = tmp_spool("seed-other");
        fs::create_dir_all(&other).unwrap();
        let donated = fs::read_to_string(corpus_entry_path(&donor, 0, 0, 0)).unwrap();
        fs::write(other.join("only.trace"), donated).unwrap();
        if count > 1 {
            assert!(import_seed_corpus(&spool, &other).is_err());
        }

        // A file that is not a recorded trace is a malformed-seed error.
        let bad = tmp_spool("seed-bad");
        fs::create_dir_all(&bad).unwrap();
        fs::write(bad.join("junk.trace"), "not a trace\n").unwrap();
        let bad_spool = tmp_spool("seed-bad-spool");
        assert!(matches!(
            import_seed_corpus(&bad_spool, &bad),
            Err(CampaignError::Malformed { .. })
        ));

        for dir in [&donor, &spool, &other, &bad, &bad_spool] {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_seeded_campaign_merges_identically_across_shard_counts() {
        let donor = tmp_spool("seed-shards-donor");
        let config = small_config();
        let donor_options = FuzzCampaignOptions {
            quiet: true,
            ..FuzzCampaignOptions::new(&donor)
        };
        run_fuzz_campaign(&config, &donor_options).unwrap();

        let mut artifacts = Vec::new();
        for shards in [1, 4] {
            let spool = tmp_spool(&format!("seed-shards-{shards}"));
            let seeded = import_seed_corpus(&spool, &donor).unwrap();
            assert!(seeded > 0);
            let options = FuzzCampaignOptions {
                shards,
                quiet: true,
                ..FuzzCampaignOptions::new(&spool)
            };
            let report = run_fuzz_campaign(&config, &options)
                .unwrap()
                .report
                .expect("campaign must complete");
            artifacts.push((report.to_text(), report.failures_text()));
            let _ = fs::remove_dir_all(&spool);
        }
        assert_eq!(
            artifacts[0], artifacts[1],
            "seed corpus broke shard-count invariance"
        );
        let _ = fs::remove_dir_all(&donor);
    }

    #[test]
    fn a_hostile_failure_count_is_malformed_not_a_crash() {
        let spool = tmp_spool("hostile-count");
        let config =
            FuzzCampaignConfig::new(FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(4))
                .streams(1)
                .generations(1);
        let options = FuzzCampaignOptions {
            quiet: true,
            ..FuzzCampaignOptions::new(&spool)
        };
        assert!(run_fuzz_campaign(&config, &options)
            .unwrap()
            .report
            .is_some());
        // Counts no allocation could hold, and one the file does not back.
        for count in [u64::MAX, 1 << 60, 1] {
            let text = format!("regemu-fuzz-failures v1\ncount {count}\n");
            fs::write(failures_path(&spool, 0, 0), text).unwrap();
            match merge_fuzz_campaign(&spool) {
                Err(CampaignError::Malformed { reason, .. }) => {
                    assert!(reason.contains("count"), "{reason}")
                }
                other => panic!("count {count}: expected Malformed, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn a_torn_unit_report_is_rerun_on_resume() {
        let spool = tmp_spool("torn");
        let config = small_config();
        let options = FuzzCampaignOptions {
            quiet: true,
            shards: 2,
            ..FuzzCampaignOptions::new(&spool)
        };
        let first = run_fuzz_campaign(&config, &options).unwrap();
        let report = first.report.unwrap();
        // Tear one completion report; resume must re-run exactly that unit
        // (and everything after it in that shard) and still merge
        // byte-identically.
        fs::write(
            fuzz_shard_report_path(&spool, 0, 1),
            "regemu-fuzz-shard v1\ntorn",
        )
        .unwrap();
        let second = run_fuzz_campaign(&config, &options).unwrap();
        assert!(second.units_run >= 1);
        assert!(second.units_reused < first.units_total);
        assert_eq!(second.report.unwrap().to_text(), report.to_text());
        let _ = fs::remove_dir_all(&spool);
    }
}
