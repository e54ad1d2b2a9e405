//! # regemu-bench — experiment harness
//!
//! Library backing the experiment binaries (`src/bin/*`) that regenerate
//! every table and figure of Chockler & Spiegelman (PODC 2017). Each public
//! function in [`experiments`] produces the data behind one artifact of the
//! paper; the `paper` binary only prints it, `paper NAME` one artifact and
//! plain `paper` all of them, in this order:
//!
//! | paper artifact | function | `paper` artifact |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | `table1` |
//! | Figure 1 | [`experiments::figure1`] | `figure1` |
//! | Figure 2 / Lemma 1 / Theorem 1 | [`experiments::figure2_coverage`] | `figure2_coverage` |
//! | Theorem 2 | [`experiments::theorem2_max_register`] | `theorem2_maxreg` |
//! | Theorem 5 | [`experiments::theorem5_partition`] | `theorem5_partition` |
//! | Theorem 6 | [`experiments::theorem6_per_server`] | `theorem6_per_server` |
//! | Theorem 7 | [`experiments::theorem7_bounded_storage`] | `theorem7_bounded_storage` |
//! | Theorem 8 | [`experiments::theorem8_contention`] | `theorem8_contention` |
//! | §5 time/space trade-off | [`experiments::cas_time_complexity`] | `cas_time_complexity` |
//! | Algorithm 2's write quorum (ablation) | [`experiments::ablation_write_quorum`] | `ablation_quorum` |
//!
//! Beside `paper`, the `campaign` binary runs the deterministic sweep
//! harness ([`regemu_workloads::sweep`]) over a whole
//! `(k, f, n) × emulation × workload × seed` grid — in this process
//! (`campaign sweep`) or sharded over a spool directory (`campaign sweep
//! --spool DIR`) — and serializes the aggregated report to JSON/CSV; see the
//! README's "Performance" section for the quickstart. `fuzz_campaign` and
//! `serve`, the live replicated-register service (`serve node | client |
//! load | stats | conform`), make up the rest. `campaign` and `serve` share
//! one subcommand skeleton ([`cli::dispatch`], [`cli::fail`], ..).
//! Performance is measured by the separate `benchmark/` package
//! (`bash benchmark/run.sh`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The command-line skeleton of the binaries: subcommand dispatch and the
/// usage/runtime error exits (`dispatch`, `fail`, `die`), flag-value
/// helpers (`value`, `parsed`, `list`, ..), the flags that shape a
/// [`regemu_workloads::SweepConfig`] or a fuzz config (identical across
/// `campaign` and `fuzz_campaign`), and the leveled progress logging every
/// binary routes through.
pub mod cli {
    use regemu_bounds::Params;
    use regemu_workloads::fuzz::{FuzzConfig, FuzzEmulation};
    use regemu_workloads::{
        ConsistencyCheck, CrashPlanSpec, RecordingModeSpec, SchedulerSpec, SweepConfig,
        WorkloadSpec,
    };
    use std::fmt::Display;
    use std::str::FromStr;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Mutex, MutexGuard, Once, PoisonError};

    /// The arguments after the program name (and, inside a subcommand,
    /// after its name).
    pub type Args = std::iter::Skip<std::env::Args>;

    /// One job of a multi-job binary (`campaign sweep`, `serve node`, ..):
    /// its name; the exit code of its usage errors, 2 or, where 2 reports a
    /// finding (fuzz failures, a consistency violation), 1; its usage line
    /// after `usage: PROGRAM NAME `; and the job, handed the arguments after
    /// the name.
    pub type Subcommand = (&'static str, i32, String, fn(&mut Args));

    /// What runs, for [`fail`] and [`die`]: their message prefix
    /// (`campaign sweep`), the usage line after it, and the usage exit code.
    static CURRENT: Mutex<(String, String, i32)> = Mutex::new((String::new(), String::new(), 2));

    fn current() -> MutexGuard<'static, (String, String, i32)> {
        CURRENT.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What runs: the prefix of its messages (`campaign sweep`).
    pub fn running() -> String {
        current().0.clone()
    }

    /// Names what runs from here on: the prefix of its messages, its usage
    /// line and the exit code of its usage errors (see [`Subcommand`]).
    pub fn enter(prefix: String, usage: String, usage_exit: i32) {
        *current() = (prefix, usage, usage_exit);
    }

    /// Runs the subcommand the first argument names. Before one is chosen,
    /// a usage error names `program` and lists every subcommand (exit 2).
    pub fn dispatch(program: &str, subcommands: &[Subcommand]) {
        let names: Vec<_> = subcommands.iter().map(|sub| sub.0).collect();
        let usage = format!("<{}> [OPTIONS]", names.join("|"));
        enter(program.into(), usage, 2);
        let mut args = std::env::args().skip(1);
        let name = args.next().unwrap_or_else(|| fail("missing subcommand"));
        let Some((_, usage_exit, usage, run)) = subcommands.iter().find(|sub| sub.0 == name) else {
            fail(&format!("unknown subcommand {name:?}"))
        };
        enter(format!("{program} {name}"), usage.clone(), *usage_exit);
        run(&mut args);
    }

    /// Usage error: message, usage line, then the usage exit code.
    pub fn fail(msg: &str) -> ! {
        let (prefix, usage, code) = &*current();
        eprintln!("{prefix}: {msg}");
        eprintln!("usage: {prefix} {usage}");
        std::process::exit(*code);
    }

    /// Runtime failure: exit 1.
    pub fn die(what: impl Display) -> ! {
        eprintln!("{}: {what}", current().0);
        std::process::exit(1);
    }

    /// `flag is required`, as a usage error.
    pub fn required(flag: &str) -> ! {
        fail(&format!("{flag} is required"))
    }

    /// `unknown option`, as a usage error.
    pub fn unknown(option: &str) -> ! {
        fail(&format!("unknown option {option:?}"))
    }

    /// The flag's value.
    pub fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    }

    /// The flag's value, run through `parse`; a rejected value fails with
    /// `what` and the value.
    pub fn checked<T>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> T {
        let v = value(args, flag);
        parse(&v).unwrap_or_else(|| fail(&format!("{what} {v:?}")))
    }

    /// The flag's value, run through `parse`.
    pub fn parsed<T>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> T {
        checked(args, flag, &format!("invalid {flag} value"), parse)
    }

    /// The flag's value as a number.
    pub fn number<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
        parsed(args, flag, |v| v.parse().ok())
    }

    /// The flag's value as an `a,b,..` list (see [`parse_list`]).
    pub fn list<T: Clone>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        every: &[T],
        parse: impl Fn(&str) -> Option<T>,
    ) -> Vec<T> {
        parse_list(flag, &value(args, flag), every, parse).unwrap_or_else(|e| fail(&e))
    }

    /// Parses a `K/F/N` parameter point (e.g. `4/1/3`).
    pub fn parse_params(value: &str) -> Result<Params, String> {
        let (k, f, n) = regemu_bounds::parse_point(value)?;
        Params::new(k, f, n).map_err(|e| format!("invalid parameter point {value:?}: {e}"))
    }

    /// Verbosity of the binaries' stderr progress lines, lowest first.
    ///
    /// Results (tables, JSON reports) always print: the level only gates
    /// *progress* chatter, which is what the [`crate::info!`] and
    /// [`crate::debug!`] macros emit. Errors and usage messages are printed
    /// unconditionally with plain `eprintln!`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub enum LogLevel {
        /// No progress lines at all (`--quiet`, `REGEMU_LOG=off`).
        Off = 0,
        /// The default: one-line progress notes.
        Info = 1,
        /// Extra per-step detail (`REGEMU_LOG=debug`).
        Debug = 2,
    }

    impl LogLevel {
        fn from_name(name: &str) -> Option<LogLevel> {
            match name.trim() {
                "off" => Some(LogLevel::Off),
                "info" => Some(LogLevel::Info),
                "debug" => Some(LogLevel::Debug),
                _ => None,
            }
        }
    }

    static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);
    static LEVEL_FROM_ENV: Once = Once::new();

    /// The current progress-log level. The first call reads `REGEMU_LOG`
    /// (`off`, `info` or `debug`); an unknown value is reported once and
    /// ignored.
    pub fn log_level() -> LogLevel {
        LEVEL_FROM_ENV.call_once(|| {
            if let Ok(value) = std::env::var("REGEMU_LOG") {
                match LogLevel::from_name(&value) {
                    Some(level) => LEVEL.store(level as u8, Ordering::Relaxed),
                    None => eprintln!(
                        "ignoring unknown REGEMU_LOG value {value:?} (expected off, info or debug)"
                    ),
                }
            }
        });
        match LEVEL.load(Ordering::Relaxed) {
            0 => LogLevel::Off,
            2 => LogLevel::Debug,
            _ => LogLevel::Info,
        }
    }

    /// Overrides the progress-log level (flags beat the environment).
    pub fn set_log_level(level: LogLevel) {
        log_level(); // settle the env default first so it cannot clobber this
        LEVEL.store(level as u8, Ordering::Relaxed);
    }

    /// What `--quiet` does: silences progress lines entirely.
    pub fn set_quiet() {
        set_log_level(LogLevel::Off);
    }

    /// Parses the `a,b,..` value of the list flag `flag`, each item trimmed
    /// and run through `parse`. `all` stands for `every`, unless `every` is
    /// empty: then the flag does not accept `all`. An empty value or an item
    /// `parse` rejects is an error naming the flag.
    pub fn parse_list<T: Clone>(
        flag: &str,
        value: &str,
        every: &[T],
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        match value.trim() {
            "" => Err(format!("{flag} needs at least one item")),
            "all" if !every.is_empty() => Ok(every.to_vec()),
            _ => value
                .split(',')
                .map(|s| parse(s.trim()).ok_or(format!("invalid {flag} item {s:?}")))
                .collect(),
        }
    }

    /// Incrementally collected sweep-config flags.
    ///
    /// Feed every CLI argument to [`ConfigFlags::accept`]; arguments it
    /// does not recognize belong to the binary. Finish with
    /// [`ConfigFlags::into_config`].
    #[derive(Default)]
    pub struct ConfigFlags {
        quick: bool,
        crash_f: bool,
        threads: Option<usize>,
        seeds: Option<Vec<u64>>,
        grid: Option<Vec<Params>>,
        workloads: Option<Vec<WorkloadSpec>>,
        schedulers: Option<Vec<SchedulerSpec>>,
        crash_plans: Option<Vec<CrashPlanSpec>>,
        recordings: Option<Vec<RecordingModeSpec>>,
    }

    /// The usage fragment documenting the flags [`ConfigFlags`] accepts.
    pub const CONFIG_USAGE: &str = "[--quick] [--threads N] [--seeds a,b,..] \
         [--grid k/f/n,k/f/n,..] [--workload label,label,..] \
         [--schedulers a,b,..] [--crash-plans a,b,..] [--crash-f] [--recording a,b,..]";

    impl ConfigFlags {
        /// Tries to consume `arg` (pulling values from `args` as needed).
        /// Returns `Ok(true)` when consumed, `Ok(false)` when the argument
        /// is not a config flag, and `Err` with a message on a malformed
        /// value.
        pub fn accept(
            &mut self,
            arg: &str,
            args: &mut impl Iterator<Item = String>,
        ) -> Result<bool, String> {
            // The value of a list flag, parsed (see [`parse_list`]).
            fn list<T: Clone>(
                flag: &str,
                args: &mut impl Iterator<Item = String>,
                every: &[T],
                parse: impl Fn(&str) -> Option<T>,
            ) -> Result<Option<Vec<T>>, String> {
                let value = args.next().ok_or(format!("{flag} needs a value"))?;
                parse_list(flag, &value, every, parse).map(Some)
            }
            match arg {
                "--quick" => self.quick = true,
                "--crash-f" => self.crash_f = true,
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    let threads = v
                        .parse()
                        .map_err(|_| format!("invalid thread count {v:?}"))?;
                    self.threads = Some(threads);
                }
                "--seeds" => self.seeds = list(arg, args, &[], |s| s.parse().ok())?,
                "--grid" => self.grid = list(arg, args, &[], |s| parse_params(s).ok())?,
                "--workload" => self.workloads = list(arg, args, &[], WorkloadSpec::from_label)?,
                "--schedulers" => {
                    self.schedulers =
                        list(arg, args, &SchedulerSpec::ALL, SchedulerSpec::from_name)?;
                }
                "--crash-plans" => {
                    self.crash_plans =
                        list(arg, args, &CrashPlanSpec::ALL, CrashPlanSpec::from_name)?;
                }
                "--recording" => {
                    self.recordings = list(arg, args, &[], RecordingModeSpec::from_label)?;
                }
                _ => return Ok(false),
            }
            Ok(true)
        }

        /// The `--threads` value, if one was passed — binaries whose worker
        /// model is not "one thread pool in this process" (the campaign
        /// coordinator) repurpose it rather than silently dropping it.
        pub fn threads(&self) -> Option<usize> {
            self.threads
        }

        /// Builds the sweep config the collected flags describe (the
        /// standard grid unless `--quick`, with every override applied).
        pub fn into_config(self) -> Result<SweepConfig, String> {
            let mut config = if self.quick {
                SweepConfig::quick()
            } else {
                SweepConfig::standard()
            };
            config.threads = self.threads.unwrap_or(config.threads);
            config.seeds = self.seeds.unwrap_or(config.seeds);
            config.grid = self.grid.unwrap_or(config.grid);
            config.workloads = self.workloads.unwrap_or(config.workloads);
            config.schedulers = self.schedulers.unwrap_or(config.schedulers);
            config.recordings = self.recordings.unwrap_or(config.recordings);
            match (self.crash_plans, self.crash_f) {
                (Some(_), true) => {
                    return Err("--crash-f conflicts with --crash-plans; pass one of them".into())
                }
                (Some(crash_plans), false) => config.crash_plans = crash_plans,
                (None, true) => config.crash_plans = vec![CrashPlanSpec::CrashF],
                (None, false) => {}
            }
            Ok(config)
        }
    }

    /// The usage fragment documenting the flags [`accept_fuzz_flag`] accepts.
    pub const FUZZ_USAGE: &str = "[--params k,f,n] [--emulation NAME] [--workload LABEL] \
         [--check NAME] [--seed S] [--budget B]";

    /// Tries to consume `arg` as one of the flags that shape a
    /// [`FuzzConfig`], shared by `fuzz_campaign` and `campaign fuzz`: `false`
    /// when the argument is not a fuzz-config flag; a malformed value is a
    /// usage error ([`fail`]).
    pub fn accept_fuzz_flag(
        config: &mut FuzzConfig,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> bool {
        fn trimmed<T>(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> T {
            parsed(args, flag, |v| parse(v.trim()))
        }
        match arg {
            "--params" => {
                let [k, f, n] = list(args, arg, &[], |s| s.parse().ok())[..] else {
                    fail("--params needs k,f,n")
                };
                config.params = Params::new(k, f, n)
                    .unwrap_or_else(|e| fail(&format!("invalid parameters: {e}")));
            }
            "--emulation" => config.emulation = trimmed(args, arg, FuzzEmulation::from_name),
            "--workload" => config.workload = trimmed(args, arg, WorkloadSpec::from_label),
            "--check" => config.check = trimmed(args, arg, ConsistencyCheck::from_name),
            "--seed" => config.seed = trimmed(args, arg, |s| s.parse().ok()),
            "--budget" => config.budget = trimmed(args, arg, |s| s.parse().ok()),
            _ => return false,
        }
        true
    }

    /// Writes `payload` to `target` (`-` for stdout), exiting the process
    /// with an error message on failure.
    pub fn write_output(target: &str, payload: &str, what: &str) {
        if target == "-" {
            print!("{payload}");
        } else if let Err(e) = std::fs::write(target, payload) {
            eprintln!("cannot write {what} to {target}: {e}");
            std::process::exit(1);
        } else {
            crate::info!("wrote {what} to {target}");
        }
    }
}

/// Logs a progress line to stderr unless the level ([`cli::log_level`]) is
/// [`cli::LogLevel::Off`]. Same syntax as `eprintln!`.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::cli::log_level() >= $crate::cli::LogLevel::Info {
            eprintln!($($arg)*);
        }
    };
}

/// Logs a detail line to stderr only at [`cli::LogLevel::Debug`]
/// (`REGEMU_LOG=debug`). Same syntax as `eprintln!`.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::cli::log_level() >= $crate::cli::LogLevel::Debug {
            eprintln!($($arg)*);
        }
    };
}

/// Experiment implementations, one per table/figure/theorem of the paper.
pub mod experiments {
    use regemu_adversary::{demonstrate_partition, LowerBoundCampaign};
    use regemu_bounds::{
        cas_bound, max_register_bound, max_register_from_registers_lower_bound,
        register_lower_bound, register_upper_bound, servers_needed_with_bounded_storage, Params,
    };
    use regemu_core::{
        AbdMaxRegisterEmulation, CasMaxRegister, CollectMaxRegister, EmulationKind, RegisterLayout,
        SharedMaxRegister, SpaceOptimalEmulation,
    };
    use regemu_workloads::{ConsistencyCheck, Scenario, TextTable, WorkloadSpec};

    /// Measures the resource consumption of the `kind` construction on a
    /// write-sequential workload (one write per writer, one read after
    /// each), verifying WS-Regularity along the way.
    pub fn measured_consumption(kind: EmulationKind, params: Params, seed: u64) -> usize {
        let report = Scenario::new(params)
            .emulation(kind)
            .workload(WorkloadSpec::WriteSequential {
                rounds: 1,
                read_after_each: true,
            })
            .check(ConsistencyCheck::WsRegular)
            .seed(seed)
            .run()
            .expect("experiment workload must complete");
        assert!(
            report.is_consistent(),
            "{} at {} violated WS-Regularity",
            kind,
            params
        );
        report.metrics.resource_consumption()
    }

    /// **Table 1.** For every parameter point of `sweep`: the paper's lower
    /// and upper bounds per base-object type, next to the *measured* resource
    /// consumption of the corresponding implementation.
    pub fn table1(sweep: &[Params]) -> TextTable {
        let mut table = TextTable::new(
            "Table 1 — base objects used by f-tolerant k-register emulations (paper bound vs measured)",
            &[
                "k", "f", "n",
                "max-reg bound", "max-reg measured",
                "CAS bound", "CAS measured",
                "reg lower", "reg upper", "reg measured (Alg.2)",
            ],
        );
        for p in sweep {
            let p = *p;
            table.push_row([
                p.k.to_string(),
                p.f.to_string(),
                p.n.to_string(),
                max_register_bound(p.f).to_string(),
                measured_consumption(EmulationKind::AbdMaxRegister, p, 1).to_string(),
                cas_bound(p.f).to_string(),
                measured_consumption(EmulationKind::AbdCas, p, 2).to_string(),
                register_lower_bound(p).to_string(),
                register_upper_bound(p).to_string(),
                measured_consumption(EmulationKind::SpaceOptimal, p, 3).to_string(),
            ]);
        }
        table
    }

    /// **Figure 1.** The register→server layout of the space-optimal
    /// construction (defaults to the paper's `n = 6, k = 5, f = 2`).
    pub fn figure1(params: Params) -> String {
        let (_, layout) = RegisterLayout::build(params);
        layout.render()
    }

    /// **Figure 2 / Lemma 1 / Theorem 1.** Coverage growth under the `Ad_i`
    /// adversary: per adversary-driven write, the number of covered registers
    /// for the register-based construction versus the max-register baseline.
    pub fn figure2_coverage(params: Params) -> TextTable {
        let space_optimal = SpaceOptimalEmulation::new(params);
        let abd = AbdMaxRegisterEmulation::new(params, false);
        let register_report = LowerBoundCampaign::new(&space_optimal)
            .run(&space_optimal)
            .expect("campaign against Algorithm 2");
        let rmw_report = LowerBoundCampaign::new(&abd)
            .run(&abd)
            .expect("campaign against ABD");

        let mut table = TextTable::new(
            format!(
                "Figure 2 / Lemma 1 — covered registers after the i-th adversarial write ({params}, F = {:?})",
                register_report.protected
            ),
            &["write #", "i*f (Lemma 1a)", "covered (Alg.2 / registers)", "covered (ABD / max-reg)"],
        );
        for (i, it) in register_report.iterations.iter().enumerate() {
            let rmw_covered = rmw_report
                .iterations
                .get(i)
                .map(|r| r.covered.to_string())
                .unwrap_or_else(|| "-".to_string());
            table.push_row([
                it.iteration.to_string(),
                (it.iteration * params.f).to_string(),
                it.covered.to_string(),
                rmw_covered,
            ]);
        }
        table
    }

    /// **Theorem 2.** Registers used by the collect-based `k`-writer
    /// max-register versus the `k` lower bound, for a range of `k`.
    pub fn theorem2_max_register(ks: &[usize]) -> TextTable {
        let mut table = TextTable::new(
            "Theorem 2 — registers needed by a k-writer max-register (ordinary shared memory)",
            &[
                "k",
                "lower bound",
                "collect construction",
                "CAS objects (Appendix B)",
            ],
        );
        for &k in ks {
            let collect = CollectMaxRegister::new(k, 0);
            table.push_row([
                k.to_string(),
                max_register_from_registers_lower_bound(k).to_string(),
                collect.register_count().to_string(),
                "1".to_string(),
            ]);
        }
        table
    }

    /// **Theorem 5.** The partitioning argument: outcome of the
    /// write-then-read schedule at `n = 2f` versus `n = 2f + 1`.
    pub fn theorem5_partition(fs: &[usize]) -> TextTable {
        let mut table = TextTable::new(
            "Theorem 5 — partition argument: value observed by a read after a write of 42",
            &[
                "f",
                "n = 2f (read sees)",
                "violation?",
                "n = 2f+1 (read sees)",
                "violation?",
            ],
        );
        for &f in fs {
            let bad = demonstrate_partition(2 * f, f).expect("partition run");
            let good = demonstrate_partition(2 * f + 1, f).expect("partition run");
            table.push_row([
                f.to_string(),
                bad.read_value.to_string(),
                bad.is_violation().to_string(),
                good.read_value.to_string(),
                good.is_violation().to_string(),
            ]);
        }
        table
    }

    /// **Theorem 6.** At `n = 2f + 1`: the per-server register occupancy of
    /// Algorithm 2's layout and the maximum number of registers the `Ad_i`
    /// campaign leaves covered on a single server (both must reach `k`).
    pub fn theorem6_per_server(ks: &[usize], f: usize) -> TextTable {
        let mut table = TextTable::new(
            format!("Theorem 6 — registers per server at n = 2f+1 (f = {f})"),
            &[
                "k",
                "bound (k)",
                "layout occupancy per server",
                "max covered on one server (Ad_i)",
            ],
        );
        for &k in ks {
            let params = Params::new(k, f, 2 * f + 1).expect("n = 2f+1 is valid");
            let emulation = SpaceOptimalEmulation::new(params);
            let occupancy = emulation
                .layout()
                .occupancy()
                .values()
                .copied()
                .max()
                .unwrap_or(0);
            let report = LowerBoundCampaign::new(&emulation)
                .run(&emulation)
                .expect("campaign");
            table.push_row([
                k.to_string(),
                k.to_string(),
                occupancy.to_string(),
                report.max_covered_on_one_server().to_string(),
            ]);
        }
        table
    }

    /// **Theorem 7.** Minimum number of servers when each stores at most `m`
    /// registers, next to the smallest `n` for which Algorithm 2's layout
    /// fits within that per-server budget.
    pub fn theorem7_bounded_storage(k: usize, f: usize, ms: &[usize]) -> TextTable {
        let mut table = TextTable::new(
            format!(
                "Theorem 7 — servers needed with at most m registers per server (k = {k}, f = {f})"
            ),
            &[
                "m",
                "lower bound ⌈kf/m⌉+f+1",
                "smallest n where Algorithm 2 fits",
            ],
        );
        for &m in ms {
            let bound = servers_needed_with_bounded_storage(k, f, m);
            // The smallest legal n whose layout respects the per-server
            // budget.
            let fitting = ((2 * f + 1)..=(k * f + f + 1 + 2 * f))
                .filter_map(|n| Params::new(k, f, n).ok())
                .find(|&params| {
                    let (_, layout) = RegisterLayout::build(params);
                    layout.occupancy().values().all(|c| *c <= m)
                })
                .map_or("-".to_string(), |params| params.n.to_string());
            table.push_row([m.to_string(), bound.to_string(), fitting]);
        }
        table
    }

    /// **Theorem 8.** Point contention versus resource consumption along an
    /// adversarial write-sequential run: contention stays 1 while resources
    /// grow with the number of writes.
    pub fn theorem8_contention(params: Params) -> TextTable {
        let emulation = SpaceOptimalEmulation::new(params);
        let report = LowerBoundCampaign::new(&emulation)
            .run(&emulation)
            .expect("campaign");
        let mut table = TextTable::new(
            format!("Theorem 8 — resource consumption vs point contention ({params})"),
            &[
                "write #",
                "point contention",
                "covered registers",
                "resource consumption",
            ],
        );
        for it in &report.iterations {
            table.push_row([
                it.iteration.to_string(),
                it.point_contention.to_string(),
                it.covered.to_string(),
                it.resource_consumption.to_string(),
            ]);
        }
        table
    }

    /// **Ablation.** Why Algorithm 2's write quorum cannot be reduced: the
    /// same crash/delay schedule is run against the paper's writer
    /// (slack 0) and against writers that return `slack` acknowledgements
    /// early; the table reports what a subsequent read observes.
    pub fn ablation_write_quorum(points: &[(usize, usize, usize)]) -> TextTable {
        use regemu_adversary::demonstrate_quorum_ablation;
        let mut table = TextTable::new(
            "Ablation — write-quorum size of Algorithm 2 (value 4242 written, then f crashes)",
            &["k", "f", "n", "slack", "read sees", "WS-Safety violated?"],
        );
        for &(k, f, n) in points {
            let params = Params::new(k, f, n).expect("valid parameters");
            let margin = (params.z() - 1) * params.f + 1;
            for slack in [0usize, margin] {
                let outcome = demonstrate_quorum_ablation(params, slack).expect("ablation run");
                table.push_row([
                    k.to_string(),
                    f.to_string(),
                    n.to_string(),
                    slack.to_string(),
                    outcome.read.to_string(),
                    outcome.violates_ws_safety.to_string(),
                ]);
            }
        }
        table
    }

    /// **Section 5 discussion.** Time/space trade-off of the CAS-based
    /// max-register: CAS attempts per `write-max` as the number of concurrent
    /// writers grows (space stays one object throughout).
    pub fn cas_time_complexity(thread_counts: &[usize], writes_per_thread: usize) -> TextTable {
        let mut table = TextTable::new(
            "CAS max-register (Algorithm 1) — retry cost vs concurrency",
            &[
                "writer threads",
                "writes",
                "CAS attempts",
                "avg attempts/write",
                "worst attempts/write",
            ],
        );
        for &threads in thread_counts {
            let reg = CasMaxRegister::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let reg = &reg;
                    scope.spawn(move || {
                        for i in 0..writes_per_thread {
                            reg.write_max((t * writes_per_thread + i) as u64);
                        }
                    });
                }
            });
            let total_writes = threads * writes_per_thread;
            let attempts = reg.total_attempts();
            table.push_row([
                threads.to_string(),
                total_writes.to_string(),
                attempts.to_string(),
                format!("{:.2}", attempts as f64 / total_writes as f64),
                reg.worst_case_attempts().to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::cli::ConfigFlags;
    use super::experiments::*;
    use regemu_bounds::Params;
    use regemu_workloads::small_sweep;

    /// Drives [`ConfigFlags`] the way the binaries do: every argument is
    /// offered to `accept`, the rest would belong to the binary.
    fn parse_flags(args: &[&str]) -> Result<regemu_workloads::SweepConfig, String> {
        let mut flags = ConfigFlags::default();
        let mut iter = args.iter().map(|s| s.to_string());
        while let Some(arg) = iter.next() {
            if !flags.accept(&arg, &mut iter)? {
                return Err(format!("unexpected non-config argument {arg:?}"));
            }
        }
        flags.into_config()
    }

    #[test]
    fn grid_flag_overrides_the_parameter_grid() {
        let config = parse_flags(&["--grid", "1/1/3,2/1/4"]).unwrap();
        assert_eq!(
            config.grid,
            vec![Params::new(1, 1, 3).unwrap(), Params::new(2, 1, 4).unwrap()]
        );
        // The rest of the standard config is untouched.
        assert_eq!(
            config.workloads,
            regemu_workloads::SweepConfig::standard().workloads
        );
    }

    #[test]
    fn workload_flag_overrides_the_workload_list() {
        let config = parse_flags(&["--workload", "write-seq/r2+read"]).unwrap();
        assert_eq!(config.workloads.len(), 1);
        assert_eq!(config.workloads[0].label(), "write-seq/r2+read");
        assert_eq!(config.grid, regemu_workloads::SweepConfig::standard().grid);
    }

    #[test]
    fn malformed_grid_and_workload_flags_are_rejected() {
        for args in [
            ["--grid", "2/4"].as_slice(),        // not k/f/n
            &["--grid", "1/x/3"],                // non-numeric
            &["--grid", "1/2/3"],                // violates n >= 2f + 1
            &["--grid", ""],                     // empty
            &["--workload", "no-such-workload"], // unknown label
            &["--workload", ""],                 // empty
            &["--schedulers", "no-such-scheduler"],
            &["--schedulers", ""],
            &["--crash-plans", "crash-all"],
            &["--crash-plans", ""],
            &["--recording", "ring:"],
            &["--recording", ""],
            &["--seeds", "1,x"],
            &["--seeds", ""],
        ] {
            assert!(parse_flags(args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn all_expands_only_where_the_flag_accepts_it() {
        let config = parse_flags(&["--schedulers", "all", "--crash-plans", "all"]).unwrap();
        assert_eq!(config.schedulers, regemu_workloads::SchedulerSpec::ALL);
        assert_eq!(config.crash_plans, regemu_workloads::CrashPlanSpec::ALL);
        for flag in ["--seeds", "--grid", "--workload", "--recording"] {
            assert!(parse_flags(&[flag, "all"]).is_err(), "{flag} all");
        }
    }

    #[test]
    fn log_level_overrides_beat_the_environment_default() {
        use super::cli::{log_level, set_log_level, set_quiet, LogLevel};
        let before = log_level();
        set_quiet();
        assert_eq!(log_level(), LogLevel::Off);
        set_log_level(LogLevel::Debug);
        assert_eq!(log_level(), LogLevel::Debug);
        // The macros compare levels, so the ordering is part of the contract.
        assert!(LogLevel::Off < LogLevel::Info && LogLevel::Info < LogLevel::Debug);
        set_log_level(before);
    }

    #[test]
    fn table1_has_one_row_per_sweep_point() {
        let sweep = small_sweep();
        let table = table1(&sweep);
        assert_eq!(table.row_count(), sweep.len());
        // Measured columns match the bound columns for the RMW rows.
        for row in table.rows() {
            assert_eq!(row[3], row[4], "max-register measured == bound");
            assert_eq!(row[5], row[6], "CAS measured == bound");
            assert_eq!(row[8], row[9], "Algorithm 2 measured == upper bound");
        }
    }

    #[test]
    fn figure1_renders_the_paper_example() {
        let s = figure1(Params::new(5, 2, 6).unwrap());
        assert!(s.contains("R_0"));
        assert!(s.contains("R_4"));
        assert!(s.contains("25 registers"));
    }

    #[test]
    fn figure2_coverage_shows_the_separation() {
        let table = figure2_coverage(Params::new(3, 1, 3).unwrap());
        assert_eq!(table.row_count(), 3);
        let last = table.rows().last().unwrap();
        // Register-based coverage reaches k·f = 3; the max-register baseline
        // stays at or below 2f + 1 = 3 but in practice far below k·f growth.
        assert_eq!(last[2], "3");
    }

    #[test]
    fn theorem_tables_have_expected_shapes() {
        assert_eq!(theorem2_max_register(&[1, 2, 4]).row_count(), 3);
        assert_eq!(theorem5_partition(&[1, 2]).row_count(), 2);
        assert_eq!(theorem6_per_server(&[1, 2], 1).row_count(), 2);
        assert_eq!(theorem7_bounded_storage(4, 1, &[1, 2, 4]).row_count(), 3);
        assert_eq!(
            theorem8_contention(Params::new(3, 1, 3).unwrap()).row_count(),
            3
        );
    }

    #[test]
    fn ablation_table_flags_only_the_reduced_quorum() {
        let table = ablation_write_quorum(&[(1, 1, 3), (2, 1, 4)]);
        assert_eq!(table.row_count(), 4);
        for row in table.rows() {
            let slack: usize = row[3].parse().unwrap();
            let violated: bool = row[5].parse().unwrap();
            assert_eq!(violated, slack > 0, "row {row:?}");
        }
    }

    #[test]
    fn cas_time_complexity_reports_at_least_one_attempt_per_write() {
        let table = cas_time_complexity(&[1, 2], 64);
        assert_eq!(table.row_count(), 2);
        for row in table.rows() {
            let per_write: f64 = row[3].parse().unwrap();
            assert!(per_write >= 1.0);
        }
    }
}
