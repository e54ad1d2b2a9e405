//! The `regemu-trace` text format: a self-contained, portable schedule.
//!
//! A [`RecordedSchedule`] captures everything needed to re-execute one run —
//! the parameter point, the emulation (clean or seeded-bug), the workload
//! shape and prefix length, the check, both seeds, the server crash plan and
//! the delivery-order decision stream. The line-based format mirrors the
//! campaign config spool: one `key value` pair per line, order fixed,
//! `end`-terminated, so files diff cleanly and external tools can emit them.
//!
//! ```text
//! regemu-trace v1
//! params 1 1 3
//! emulation space-optimal
//! workload write-seq/r1+read
//! workload-len 2
//! check ws-regular
//! workload-seed 61525
//! tail-seed 0
//! max-steps 50000
//! crash 4 2
//! decisions 0 2 1
//! end
//! ```
//!
//! `crash` lines repeat (zero or more, one per crashed server); `rewrite`
//! lines repeat likewise (one per rewritten workload value); `flips` and
//! `delays` are optional single lines (omitted when empty); `decisions` is a
//! single line holding the whole rank stream (possibly empty). Parse errors
//! name the 1-based line they occurred on and never panic. See
//! [`RecordedSchedule::to_text`] / [`RecordedSchedule::from_text`].

use super::{FuzzCase, FuzzConfig, FuzzEmulation};
use crate::runner::ConsistencyCheck;
use crate::sweep::WorkloadSpec;
use crate::text::Reader;
use regemu_bounds::Params;
use regemu_fpsm::Time;

/// Header line of the trace format.
const HEADER: &str = "regemu-trace v1";

/// A recorded adversary schedule, exportable and importable as text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedSchedule {
    /// The `(k, f, n)` parameter point.
    pub params: Params,
    /// Name of the emulation under test (clean or faulty).
    pub emulation: String,
    /// The workload shape.
    pub workload: WorkloadSpec,
    /// Number of workload operations the run issues.
    pub workload_len: usize,
    /// The consistency condition to verify.
    pub check: ConsistencyCheck,
    /// Seed the workload is instantiated with (the campaign master seed).
    pub workload_seed: u64,
    /// Seed of the scheduler's fair tail.
    pub tail_seed: u64,
    /// Per-operation delivery budget before the run is declared stuck.
    pub max_steps_per_op: u64,
    /// Server crashes as `(time, server index)` pairs.
    pub crashes: Vec<(Time, usize)>,
    /// Workload value rewrites as `(op index, value)` pairs.
    pub rewrites: Vec<(usize, u64)>,
    /// Workload kind flips (writer writes demoted to reads).
    pub flips: Vec<usize>,
    /// Delay-tick perturbation (non-empty switches the run to the delayed
    /// scheduler).
    pub delays: Vec<u32>,
    /// The delivery-order decision stream.
    pub decisions: Vec<u32>,
}

impl RecordedSchedule {
    /// Captures a case under its config.
    pub fn from_parts(config: &FuzzConfig, case: &FuzzCase) -> Self {
        RecordedSchedule {
            params: config.params,
            emulation: config.emulation.name().to_string(),
            workload: config.workload,
            workload_len: case.workload_len,
            check: config.check,
            workload_seed: config.seed,
            tail_seed: case.seed,
            max_steps_per_op: config.max_steps_per_op,
            crashes: case.crashes.clone(),
            rewrites: case.rewrites.clone(),
            flips: case.flips.clone(),
            delays: case.delays.clone(),
            decisions: case.decisions.clone(),
        }
    }

    /// The variable part of the schedule, ready for the executor.
    pub fn case(&self) -> FuzzCase {
        FuzzCase {
            decisions: self.decisions.clone(),
            crashes: self.crashes.clone(),
            workload_len: self.workload_len,
            rewrites: self.rewrites.clone(),
            flips: self.flips.clone(),
            delays: self.delays.clone(),
            seed: self.tail_seed,
        }
    }

    /// Rebuilds the invariant part of the schedule as a [`FuzzConfig`]
    /// (budget 0 — a trace describes one run, not a campaign).
    ///
    /// # Errors
    ///
    /// Returns a message when the emulation name is unknown.
    pub(crate) fn config(&self) -> Result<FuzzConfig, String> {
        let emulation = FuzzEmulation::from_name(&self.emulation)
            .ok_or_else(|| format!("unknown emulation {:?}", self.emulation))?;
        Ok(FuzzConfig {
            params: self.params,
            emulation,
            workload: self.workload,
            check: self.check,
            seed: self.workload_seed,
            budget: 0,
            max_steps_per_op: self.max_steps_per_op,
            stop_on_failure: false,
        })
    }

    /// Serializes the schedule to the `regemu-trace v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!(
            "params {} {} {}\n",
            self.params.k, self.params.f, self.params.n
        ));
        out.push_str(&format!("emulation {}\n", self.emulation));
        out.push_str(&format!("workload {}\n", self.workload.label()));
        out.push_str(&format!("workload-len {}\n", self.workload_len));
        out.push_str(&format!("check {}\n", self.check.name()));
        out.push_str(&format!("workload-seed {}\n", self.workload_seed));
        out.push_str(&format!("tail-seed {}\n", self.tail_seed));
        out.push_str(&format!("max-steps {}\n", self.max_steps_per_op));
        for &(time, server) in &self.crashes {
            out.push_str(&format!("crash {time} {server}\n"));
        }
        for &(idx, value) in &self.rewrites {
            out.push_str(&format!("rewrite {idx} {value}\n"));
        }
        if !self.flips.is_empty() {
            out.push_str("flips");
            for i in &self.flips {
                out.push_str(&format!(" {i}"));
            }
            out.push('\n');
        }
        if !self.delays.is_empty() {
            out.push_str("delays");
            for d in &self.delays {
                out.push_str(&format!(" {d}"));
            }
            out.push('\n');
        }
        out.push_str("decisions");
        for d in &self.decisions {
            out.push_str(&format!(" {d}"));
        }
        out.push_str("\nend\n");
        out
    }

    /// Parses the `regemu-trace v1` text format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the 1-based line the first problem occurred
    /// on. Malformed, truncated and version-bumped inputs all error; none
    /// panic.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut r = Reader::new(text, "trace");
        let schedule = Self::read(&mut r)?;
        r.finish()?;
        Ok(schedule)
    }

    /// Reads one trace, header through `end`, from `r`.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        r.header(&[HEADER])?;
        let mut line = r.expect("params")?;
        line.needs("k f n")?;
        let (k, f, n) = (
            line.parse("params k")?,
            line.parse("params f")?,
            line.parse("params n")?,
        );
        let params =
            Params::new(k, f, n).map_err(|e| line.err(format_args!("invalid params: {e}")))?;
        let emulation = r.value("emulation")?;
        let workload = r.named("workload", WorkloadSpec::from_label)?;
        let workload_len = r.value("workload-len")?;
        let check = r.named("check", ConsistencyCheck::from_name)?;
        let workload_seed = r.value("workload-seed")?;
        let tail_seed = r.value("tail-seed")?;
        let max_steps_per_op = r.value("max-steps")?;

        let (mut crashes, mut rewrites, mut flips, mut delays) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let decisions = loop {
            let mut line = r.next().ok_or_else(|| r.missing("decisions"))?;
            match line.key {
                "crash" => {
                    line.needs("time server")?;
                    crashes.push((line.parse("crash time")?, line.parse("crash server")?));
                }
                "rewrite" => {
                    line.needs("index value")?;
                    rewrites.push((line.parse("rewrite index")?, line.parse("rewrite value")?));
                }
                "flips" => flips.extend(line.all(|l| l.parse::<usize>("flips"))?),
                "delays" => delays.extend(line.all(|l| l.parse::<u32>("delays"))?),
                "decisions" => break line.all(|l| l.parse("decisions"))?,
                "end" => return Err(line.err("missing decisions line")),
                _ => return Err(line.err(format_args!("unexpected line {:?}", line.text))),
            }
        };
        r.expect("end")?.done()?;

        Ok(RecordedSchedule {
            params,
            emulation,
            workload,
            workload_len,
            check,
            workload_seed,
            tail_seed,
            max_steps_per_op,
            crashes,
            rewrites,
            flips,
            delays,
            decisions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordedSchedule {
        RecordedSchedule {
            params: Params::new(2, 1, 4).unwrap(),
            emulation: "space-optimal".to_string(),
            workload: WorkloadSpec::WriteSequential {
                rounds: 1,
                read_after_each: true,
            },
            workload_len: 3,
            check: ConsistencyCheck::WsRegular,
            workload_seed: 17,
            tail_seed: 4,
            max_steps_per_op: 50_000,
            crashes: vec![(5, 3), (9, 2)],
            rewrites: vec![(0, (1 << 32) | 99)],
            flips: vec![1],
            delays: vec![3, 0, 11],
            decisions: vec![0, 2, 1, 7],
        }
    }

    #[test]
    fn text_round_trips_byte_identically() {
        let schedule = sample();
        let text = schedule.to_text();
        let parsed = RecordedSchedule::from_text(&text).unwrap();
        assert_eq!(parsed, schedule);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn empty_schedules_round_trip_too() {
        let mut schedule = sample();
        schedule.crashes.clear();
        schedule.rewrites.clear();
        schedule.flips.clear();
        schedule.delays.clear();
        schedule.decisions.clear();
        let text = schedule.to_text();
        // Empty optional fields leave no trace lines at all.
        assert!(!text.contains("flips") && !text.contains("delays"));
        let parsed = RecordedSchedule::from_text(&text).unwrap();
        assert_eq!(parsed, schedule);
    }

    #[test]
    fn pr6_era_traces_without_the_optional_lines_still_parse() {
        let text = "regemu-trace v1\nparams 1 1 3\nemulation space-optimal\n\
                    workload write-seq/r1+read\nworkload-len 2\ncheck ws-regular\n\
                    workload-seed 61525\ntail-seed 0\nmax-steps 50000\n\
                    crash 4 2\ndecisions 0 2 1\nend\n";
        let parsed = RecordedSchedule::from_text(text).unwrap();
        assert!(parsed.rewrites.is_empty());
        assert!(parsed.flips.is_empty());
        assert!(parsed.delays.is_empty());
        assert_eq!(parsed.decisions, vec![0, 2, 1]);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn malformed_traces_fail_with_line_numbered_errors_and_never_panic() {
        // (mangle, expected error fragment) — one row per failure family.
        let table: &[(&dyn Fn(String) -> String, &str)] = &[
            (&|_| String::new(), "line 1: empty trace"),
            (
                &|t: String| t.replace("regemu-trace v1", "regemu-trace v2"),
                "line 1: unsupported trace header",
            ),
            (
                &|t: String| t.replace("params 2 1 4", "params 2 1"),
                "line 2: params needs k f n",
            ),
            (
                &|t: String| t.replace("params 2 1 4", "params 2 x 4"),
                "line 2: malformed params f",
            ),
            (
                &|t: String| t.replace("params 2 1 4", "params 4 4 4"),
                "line 2: invalid params",
            ),
            (
                &|t: String| t.replace("workload write-seq/r1+read", "workload nope"),
                "line 4: unknown workload",
            ),
            (
                &|t: String| t.replace("workload-len 3", "workload-len many"),
                "line 5: malformed workload-len",
            ),
            (
                &|t: String| t.replace("check ws-regular", "check bogus"),
                "line 6: unknown check \"bogus\"",
            ),
            (
                &|t: String| t.replace("tail-seed 4", "banana 4"),
                "line 8: expected tail-seed line",
            ),
            (
                &|t: String| t.replace("crash 5 3", "crash 5"),
                "line 10: crash needs time server",
            ),
            (
                &|t: String| t.replace("crash 5 3", "crash five 3"),
                "line 10: malformed crash time",
            ),
            (
                &|t: String| t.replace("rewrite 0", "rewrite zero"),
                "line 12: malformed rewrite index",
            ),
            (
                &|t: String| t.replace("flips 1", "flips one"),
                "line 13: malformed flips",
            ),
            (
                &|t: String| t.replace("delays 3 0 11", "delays 3 -1"),
                "line 14: malformed delays",
            ),
            (
                &|t: String| t.replace("decisions 0 2 1 7", "decisions 0 2 1 x"),
                "line 15: malformed decisions",
            ),
            (
                &|t: String| t.replace("decisions 0 2 1 7\n", ""),
                "missing decisions line",
            ),
            (&|t: String| t.replace("end\n", ""), "missing end line"),
            (
                &|t: String| t.replace("end\n", "fin\n"),
                "line 16: expected end",
            ),
            (
                &|t: String| t + "trailing\n",
                "line 17: unexpected content after end",
            ),
            (
                &|t: String| t.replace("crash 5 3", "garbage line"),
                "line 10: unexpected line",
            ),
            (
                &|t: String| {
                    // Truncate after the header block: every body line gone.
                    t.lines().take(3).collect::<Vec<_>>().join("\n")
                },
                "missing workload line (truncated trace)",
            ),
        ];
        let base = sample().to_text();
        for (i, (mangle, want)) in table.iter().enumerate() {
            let text = mangle(base.clone());
            let err = RecordedSchedule::from_text(&text)
                .expect_err(&format!("row {i} must fail: {text:?}"));
            assert!(err.contains(want), "row {i}: {err:?} missing {want:?}");
        }
    }

    #[test]
    fn faulty_emulations_resolve_through_config() {
        let mut schedule = sample();
        schedule.emulation = "faulty-skipped-update".to_string();
        let config = schedule.config().unwrap();
        assert_eq!(config.emulation.name(), "faulty-skipped-update");
        schedule.emulation = "no-such-thing".to_string();
        assert!(schedule.config().is_err());
    }
}
