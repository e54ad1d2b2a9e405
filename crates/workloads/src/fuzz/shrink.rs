//! Automatic failure shrinking (delta debugging).
//!
//! [`shrink_case`] reduces a failing [`FuzzCase`] to a minimal case that
//! still fails with the *same* [`FailureKind`]: it repeatedly runs a fixed
//! battery of reduction passes — minimal failing workload prefix, crash
//! removal, schedule-suffix truncation (largest chunk first), decision
//! zeroing, workload rewrite/flip removal, delay-perturbation clearing,
//! tail-seed zeroing — until one full round changes nothing. Every
//! pass is a deterministic function of the current case, so the result is a
//! fixed point: shrinking a shrunk case returns it unchanged, and the same
//! failure always shrinks to the same repro.
//!
//! [`shrink_failure`] wraps the shrunk case into a [`FailureReport`]: the
//! portable [`RecordedSchedule`] trace plus the replay command line.

use super::trace::RecordedSchedule;
use super::{execute, FailureKind, FuzzCase, FuzzConfig, FuzzFailure};

/// Re-executes `case` and reports its verdict when it fails with `kind`.
fn fails_same(config: &FuzzConfig, case: &FuzzCase, kind: &FailureKind) -> Option<String> {
    let outcome = execute(config, case);
    match outcome.kind {
        Some(ref k) if k == kind => Some(outcome.verdict),
        _ => None,
    }
}

/// Delta-debugs `case` to a minimal case still failing with `kind`.
///
/// Returns the shrunk case and the verdict of its failing run. The input
/// must actually fail with `kind` under `config` (which is what the fuzzer
/// recorded); if it does not — say the config was edited by hand — the case
/// is returned unshrunk with the verdict of the original failure re-derived.
pub fn shrink_case(config: &FuzzConfig, case: &FuzzCase, kind: &FailureKind) -> (FuzzCase, String) {
    let mut best = case.clone();
    let mut verdict = match fails_same(config, &best, kind) {
        Some(v) => v,
        None => {
            let verdict = execute(config, &best).verdict;
            return (best, verdict);
        }
    };

    // Pass 0, once: *close* the schedule. The executed decision ranks replay
    // the identical run without the fair tail or the delay perturbation, so
    // swapping them in (with a canonical zero seed) always preserves the
    // failure and makes the repro tail-independent. Applied only when the
    // case still depends on its seed, so re-shrinking a shrunk case (seed 0,
    // no delays) skips it and stays a fixed point.
    if best.seed != 0 || !best.delays.is_empty() {
        let outcome = execute(config, &best);
        let closed = FuzzCase {
            decisions: outcome.executed.iter().map(|&(c, _)| c).collect(),
            delays: Vec::new(),
            seed: 0,
            ..best.clone()
        };
        if let Some(v) = fails_same(config, &closed, kind) {
            best = closed;
            verdict = v;
        }
    }

    loop {
        let before = best.clone();

        // Pass 1: the shortest failing workload prefix, searched from 1 up.
        for len in 1..best.workload_len {
            let candidate = FuzzCase {
                workload_len: len,
                ..best.clone()
            };
            if let Some(v) = fails_same(config, &candidate, kind) {
                best = candidate;
                verdict = v;
                break;
            }
        }

        // Pass 2: drop crashes that the failure does not need.
        let mut idx = best.crashes.len();
        while idx > 0 {
            idx -= 1;
            let mut candidate = best.clone();
            candidate.crashes.remove(idx);
            if let Some(v) = fails_same(config, &candidate, kind) {
                best = candidate;
                verdict = v;
            }
        }

        // Pass 3: truncate the decision suffix, largest chunk first.
        let mut chunk = best.decisions.len();
        while chunk > 0 {
            while best.decisions.len() >= chunk {
                let mut candidate = best.clone();
                let keep = candidate.decisions.len() - chunk;
                candidate.decisions.truncate(keep);
                match fails_same(config, &candidate, kind) {
                    Some(v) => {
                        best = candidate;
                        verdict = v;
                    }
                    None => break,
                }
            }
            chunk /= 2;
        }

        // Pass 4: zero individual decisions (rank 0 = deliver the oldest op,
        // the least surprising choice). Bounded so pathological schedules do
        // not turn shrinking quadratic.
        if best.decisions.len() <= 128 {
            for idx in 0..best.decisions.len() {
                if best.decisions[idx] == 0 {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.decisions[idx] = 0;
                if let Some(v) = fails_same(config, &candidate, kind) {
                    best = candidate;
                    verdict = v;
                }
            }
        }

        // Pass 5: drop workload rewrites and flips the failure does not
        // need (back-to-front, like crashes).
        let mut idx = best.rewrites.len();
        while idx > 0 {
            idx -= 1;
            let mut candidate = best.clone();
            candidate.rewrites.remove(idx);
            if let Some(v) = fails_same(config, &candidate, kind) {
                best = candidate;
                verdict = v;
            }
        }
        let mut idx = best.flips.len();
        while idx > 0 {
            idx -= 1;
            let mut candidate = best.clone();
            candidate.flips.remove(idx);
            if let Some(v) = fails_same(config, &candidate, kind) {
                best = candidate;
                verdict = v;
            }
        }

        // Pass 6: clear the delay perturbation wholesale (the repro is
        // simplest as a pure decision replay), else zero individual buckets.
        if !best.delays.is_empty() {
            let candidate = FuzzCase {
                delays: Vec::new(),
                ..best.clone()
            };
            if let Some(v) = fails_same(config, &candidate, kind) {
                best = candidate;
                verdict = v;
            } else {
                for idx in 0..best.delays.len() {
                    if best.delays[idx] == 0 {
                        continue;
                    }
                    let mut candidate = best.clone();
                    candidate.delays[idx] = 0;
                    if let Some(v) = fails_same(config, &candidate, kind) {
                        best = candidate;
                        verdict = v;
                    }
                }
            }
        }

        // Pass 7: a canonical fair tail.
        if best.seed != 0 {
            let candidate = FuzzCase {
                seed: 0,
                ..best.clone()
            };
            if let Some(v) = fails_same(config, &candidate, kind) {
                best = candidate;
                verdict = v;
            }
        }

        if best == before {
            break;
        }
    }
    (best, verdict)
}

/// A triaged, minimized failure: everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The shrunk repro as a portable trace.
    pub trace: RecordedSchedule,
    /// Why the run fails.
    pub kind: FailureKind,
    /// Verdict of the shrunk failing run (what a replay must reproduce).
    pub verdict: String,
    /// Fuzzer iteration the original failure was found at.
    pub found_at: usize,
}

impl FailureReport {
    /// The command line that replays the repro from its trace file.
    pub fn replay_command(&self, trace_path: &str) -> String {
        format!("campaign replay {trace_path}")
    }

    /// Deterministic text rendering: header lines followed by the embedded
    /// trace, so the report file is itself replayable after stripping the
    /// header.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("regemu-failure-report v1\n");
        out.push_str(&format!("kind {}\n", self.kind.label()));
        out.push_str(&format!("verdict {}\n", self.verdict));
        out.push_str(&format!("found-at {}\n", self.found_at));
        out.push_str(&format!("replay {}\n", self.replay_command("<trace-file>")));
        out.push_str(&self.trace.to_text());
        out
    }
}

/// Shrinks a fuzzer-found failure and packages it as a `FailureReport`.
pub fn shrink_failure(config: &FuzzConfig, failure: &FuzzFailure) -> FailureReport {
    let (case, verdict) = shrink_case(config, &failure.case, &failure.kind);
    FailureReport {
        trace: RecordedSchedule::from_parts(config, &case),
        kind: failure.kind.clone(),
        verdict,
        found_at: failure.iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{replay, FuzzEmulation};
    use regemu_bounds::Params;
    use regemu_core::FaultyKind;

    /// A config whose seed case already fails: the skipped-update bug loses
    /// every write even under a fair schedule.
    fn failing_setup() -> (FuzzConfig, FuzzCase, FailureKind, String) {
        let config = FuzzConfig::new(Params::new(1, 1, 3).unwrap())
            .emulation(FuzzEmulation::Faulty(FaultyKind::SkippedUpdateRound));
        let case = FuzzCase {
            decisions: vec![3, 1, 4, 1, 5, 9, 2, 6],
            crashes: vec![(40, 0)],
            // Noise the shrinker must strip: an irrelevant value rewrite on
            // an out-of-prefix op and a flip that never matches a write.
            rewrites: vec![(1, (2 << 32) | 5)],
            flips: vec![1],
            ..FuzzCase::seed_case(config.full_workload().len(), 77)
        };
        let outcome = execute(&config, &case);
        let kind = outcome.kind.expect("the seeded bug must fail");
        (config, case, kind, outcome.verdict)
    }

    #[test]
    fn the_shrunk_case_still_fails_the_same_kind_and_is_smaller() {
        let (config, case, kind, _) = failing_setup();
        let (shrunk, verdict) = shrink_case(&config, &case, &kind);
        assert_eq!(fails_same(&config, &shrunk, &kind), Some(verdict));
        // The noise we injected is gone: the crash, rewrite and flip were
        // all irrelevant, the workload shrinks to a single write+read pair,
        // the tail is canonical.
        assert!(shrunk.crashes.is_empty(), "{:?}", shrunk.crashes);
        assert!(shrunk.rewrites.is_empty(), "{:?}", shrunk.rewrites);
        assert!(shrunk.flips.is_empty(), "{:?}", shrunk.flips);
        assert!(shrunk.delays.is_empty(), "{:?}", shrunk.delays);
        assert!(shrunk.workload_len <= 2, "{}", shrunk.workload_len);
        assert_eq!(shrunk.seed, 0);
        assert!(shrunk.decisions.len() <= case.decisions.len());
    }

    #[test]
    fn shrinking_is_deterministic_and_idempotent() {
        let (config, case, kind, _) = failing_setup();
        let (a, va) = shrink_case(&config, &case, &kind);
        let (b, vb) = shrink_case(&config, &case, &kind);
        assert_eq!(a, b);
        assert_eq!(va, vb);
        // A shrunk case is a fixed point.
        let (again, v_again) = shrink_case(&config, &a, &kind);
        assert_eq!(again, a);
        assert_eq!(v_again, va);
    }

    #[test]
    fn the_failure_report_trace_replays_to_the_identical_verdict() {
        let (config, case, kind, verdict) = failing_setup();
        let failure = FuzzFailure {
            case,
            kind: kind.clone(),
            verdict,
            iteration: 3,
        };
        let report = shrink_failure(&config, &failure);
        assert_eq!(report.found_at, 3);
        assert_eq!(report.kind, kind);
        // Round-trip through text, then replay: byte-identical verdict.
        let parsed = RecordedSchedule::from_text(&report.trace.to_text()).unwrap();
        let outcome = replay(&parsed).unwrap();
        assert_eq!(outcome.kind, Some(kind));
        assert_eq!(outcome.verdict, report.verdict);
        let text = report.to_text();
        assert!(text.contains("campaign replay"));
        assert!(text.contains("regemu-trace v1"));
    }

    #[test]
    fn a_case_that_does_not_fail_is_returned_unshrunk() {
        let (config, case, _, _) = failing_setup();
        // Ask for a kind the case does not exhibit.
        let (out, _) = shrink_case(&config, &case, &FailureKind::Stuck);
        assert_eq!(out, case);
    }
}
