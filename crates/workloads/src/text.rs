//! The one line-record reader behind the crate's saved text formats.
//!
//! Every format listed in `crate::engine` is a header line followed by
//! `key field …` lines. [`Reader`] hands the lines out one at a time as
//! [`Record`]s, their fields split on whitespace, and every error the two
//! raise names the 1-based line it is about. What differs between formats
//! (fixed order or keyed, blank lines skipped or not, an `end` line or
//! not) stays in each format's own reader, beside its writer.

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over the lines of one text.
pub(crate) struct Reader<'a> {
    lines: std::str::Lines<'a>,
    /// Number of the last line handed out (0 before the first).
    line: usize,
    /// What the text is, for the empty and truncated errors.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor before the first line of `text`, a `what` ("trace", "log").
    pub(crate) fn new(text: &'a str, what: &'static str) -> Self {
        Reader {
            lines: text.lines(),
            line: 0,
            what,
        }
    }

    /// Reads a header line, which must be one of `headers` (surrounding
    /// whitespace ignored), and returns which one it is.
    pub(crate) fn header(&mut self, headers: &[impl AsRef<str>]) -> Result<usize, String> {
        fn name(header: &str) -> &str {
            header
                .rsplit_once(' ')
                .map_or(header, |(name, _version)| name)
        }
        let expected = || {
            let quoted: Vec<String> = headers
                .iter()
                .map(|h| format!("{:?}", h.as_ref()))
                .collect();
            quoted.join(" or ")
        };
        let Some(got) = self.lines.next().map(str::trim) else {
            return Err(match self.line {
                0 => format!("line 1: empty {}", self.what),
                _ => self.missing(&expected()),
            });
        };
        self.line += 1;
        if let Some(at) = headers.iter().position(|h| h.as_ref() == got) {
            Ok(at)
        } else if headers.iter().any(|h| name(h.as_ref()) == name(got)) {
            // The same format at another version.
            Err(self.err(format_args!("unsupported {} header {got:?}", self.what)))
        } else {
            Err(self.err(format_args!("expected {}, got {got:?}", expected())))
        }
    }

    /// The next line, or `None` past the last one. A blank line is a
    /// record with an empty key.
    pub(crate) fn next(&mut self) -> Option<Record<'a>> {
        let text = self.lines.next()?;
        self.line += 1;
        let mut fields = text.split_whitespace();
        Some(Record {
            key: fields.next().unwrap_or(""),
            text,
            fields,
            line: self.line,
        })
    }

    /// The next line that is not blank.
    pub(crate) fn next_nonblank(&mut self) -> Option<Record<'a>> {
        std::iter::from_fn(|| self.next()).find(|record| !record.key.is_empty())
    }

    /// The next line, which must have key `key`.
    pub(crate) fn expect(&mut self, key: &str) -> Result<Record<'a>, String> {
        self.next().ok_or_else(|| self.missing(key))?.keyed(key)
    }

    /// The value of the next line, which must be `key` and one field.
    pub(crate) fn value<T: FromStr>(&mut self, key: &str) -> Result<T, String> {
        let mut record = self.expect(key)?;
        let value = record.parse(key)?;
        record.done().map(|()| value)
    }

    /// Like [`Reader::value`], with the field looked up by name.
    pub(crate) fn named<T>(
        &mut self,
        key: &str,
        lookup: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let mut record = self.expect(key)?;
        let value = record.named(key, lookup)?;
        record.done().map(|()| value)
    }

    /// `true` when only blank lines are left.
    pub(crate) fn at_end(&self) -> bool {
        self.lines.clone().all(|line| line.trim().is_empty())
    }

    /// Accepts the rest of the text only if it is blank.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.next_nonblank() {
            None => Ok(()),
            Some(extra) => Err(extra.err(format_args!(
                "unexpected content after end: {:?}",
                extra.text
            ))),
        }
    }

    /// An error about the last line handed out.
    pub(crate) fn err(&self, message: impl Display) -> String {
        format!("line {}: {message}", self.line)
    }

    /// The error for a text that stops before its `key` line.
    pub(crate) fn missing(&self, key: &str) -> String {
        format!(
            "line {}: missing {key} line (truncated {})",
            self.line + 1,
            self.what
        )
    }
}

/// One line, split on whitespace as `key field …`.
pub(crate) struct Record<'a> {
    /// The first field; empty on a blank line.
    pub(crate) key: &'a str,
    /// The whole line, as written.
    pub(crate) text: &'a str,
    fields: std::str::SplitWhitespace<'a>,
    /// The 1-based line number.
    line: usize,
}

impl<'a> Record<'a> {
    /// An error about this line.
    pub(crate) fn err(&self, message: impl Display) -> String {
        format!("line {}: {message}", self.line)
    }

    /// This record, if its key is `key`.
    pub(crate) fn keyed(self, key: &str) -> Result<Self, String> {
        if self.key == key {
            Ok(self)
        } else {
            Err(self.err(format_args!("expected {key} line, found {:?}", self.text)))
        }
    }

    /// The next field.
    pub(crate) fn word(&mut self, what: &str) -> Result<&'a str, String> {
        self.fields
            .next()
            .ok_or_else(|| self.err(format_args!("missing {what}")))
    }

    /// The next field, parsed.
    pub(crate) fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let word = self.word(what)?;
        word.parse()
            .map_err(|_| self.err(format_args!("malformed {what} {word:?}")))
    }

    /// The next field, looked up by name.
    pub(crate) fn named<T>(
        &mut self,
        what: &str,
        lookup: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let word = self.word(what)?;
        lookup(word).ok_or_else(|| self.err(format_args!("unknown {what} {word:?}")))
    }

    /// Checks that at least as many fields are left as `names` names,
    /// naming them all if not.
    pub(crate) fn needs(&self, names: &str) -> Result<(), String> {
        if self.fields.clone().count() < names.split(' ').count() {
            return Err(self.err(format_args!("{} needs {names}", self.key)));
        }
        Ok(())
    }

    /// Reads every field left with `field`.
    pub(crate) fn all<T>(
        &mut self,
        mut field: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        while self.fields.clone().next().is_some() {
            out.push(field(self)?);
        }
        Ok(out)
    }

    /// The text after the key, verbatim but for the one separator.
    pub(crate) fn rest(&self) -> &'a str {
        let after = &self.text.trim_start()[self.key.len()..];
        after.strip_prefix([' ', '\t']).unwrap_or(after)
    }

    /// Rejects fields left unread.
    pub(crate) fn done(mut self) -> Result<(), String> {
        match self.fields.next() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing fields")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::config_to_text;
    use crate::conform::{ConformLog, ConformRecord, LowOpKind};
    use crate::engine::{Dialect, Manifest};
    use crate::fuzz::campaign::{
        failures_file_text, failures_from_text, fuzz_config_from_text, fuzz_config_to_text,
        UnitReport,
    };
    use crate::fuzz::{
        FailureKind, FailureReport, FuzzCampaignConfig, FuzzConfig, MutationStream,
        RecordedSchedule,
    };
    use crate::runner::ConsistencyCheck;
    use crate::sweep::{SweepConfig, WorkloadSpec};
    use regemu_bounds::Params;
    use regemu_fpsm::{HighOp, HighResponse};
    use regemu_spec::Condition;

    /// Parses a text and writes it back.
    type Reparse = fn(&str) -> Result<String, String>;

    fn trace() -> RecordedSchedule {
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
            crashes: vec![(5, 3)],
            rewrites: vec![(0, (1 << 32) | 99)],
            flips: vec![1],
            delays: vec![3, 0],
            decisions: vec![0, 2, 1],
        }
    }

    /// A writer-made sample of every format, with its reader.
    fn samples() -> Vec<(&'static str, String, Reparse)> {
        let mut sweep = Manifest::plan(Dialect::Sweep, "00ff".to_string(), 8, 1, 2);
        sweep.shards[0] = crate::engine::ShardEntry {
            rounds_done: 1,
            attempts: 2,
            ..sweep.shards[0]
        };
        let mut fuzz = Manifest::plan(Dialect::Fuzz, "abcd".to_string(), 5, 3, 2);
        fuzz.shards[1].rounds_done = 2;
        let fuzz_config = FuzzCampaignConfig::new(FuzzConfig::new(Params::new(2, 1, 4).unwrap()))
            .streams(3)
            .generations(2);
        let unit = UnitReport {
            shard: 1,
            gen: 0,
            streams: (2, 4),
            rows: vec![[2, 12, 3, 0], [3, 12, 1, 2]],
        };
        let failures = [
            FailureReport {
                trace: trace(),
                kind: FailureKind::Stuck,
                verdict: "stuck after 40 steps".to_string(),
                found_at: 9,
            },
            FailureReport {
                trace: RecordedSchedule {
                    decisions: Vec::new(),
                    ..trace()
                },
                kind: FailureKind::Violation(Condition::WsRegularity),
                verdict: "read returned 10 but only [11] are allowed".to_string(),
                found_at: 31,
            },
        ];
        let conform = ConformLog {
            records: vec![
                ConformRecord::Invoke {
                    stamp: 1,
                    client: 0,
                    high: 0,
                    op: HighOp::Write(7),
                },
                ConformRecord::Respond {
                    clock: 2,
                    server: 1,
                    object: 4,
                    kind: LowOpKind::WriteMax,
                },
                ConformRecord::Return {
                    stamp: 3,
                    client: 0,
                    high: 0,
                    response: HighResponse::WriteAck,
                },
                ConformRecord::Invoke {
                    stamp: 4,
                    client: 1,
                    high: 0,
                    op: HighOp::Read,
                },
                ConformRecord::Return {
                    stamp: 5,
                    client: 1,
                    high: 0,
                    response: HighResponse::ReadValue(7),
                },
            ],
            final_clock: 5,
            complete: true,
        };
        vec![
            ("sweep manifest", sweep.to_text(), |t| {
                Manifest::from_text(t).map(|m| m.to_text())
            }),
            ("fuzz manifest", fuzz.to_text(), |t| {
                Manifest::from_text(t).map(|m| m.to_text())
            }),
            ("sweep config", config_to_text(&SweepConfig::quick()), |t| {
                crate::campaign::config_from_text(t).map(|c| config_to_text(&c))
            }),
            ("fuzz config", fuzz_config_to_text(&fuzz_config), |t| {
                fuzz_config_from_text(t).map(|c| fuzz_config_to_text(&c))
            }),
            ("unit report", unit.to_text(), |t| {
                UnitReport::from_text(t).map(|u| u.to_text())
            }),
            ("failures file", failures_file_text(&failures), |t| {
                failures_from_text(t).map(|f| failures_file_text(&f))
            }),
            ("trace", trace().to_text(), |t| {
                RecordedSchedule::from_text(t).map(|s| s.to_text())
            }),
            ("conform log", conform.to_text(), |t| {
                ConformLog::from_text(t).map(|l| l.to_text())
            }),
        ]
    }

    /// Every hostile variant of `text` the harness tries.
    fn mutants(text: &str, seed: u64) -> Vec<String> {
        let mut out: Vec<String> = (0..text.len()).map(|cut| text[..cut].to_string()).collect();
        let lines: Vec<&str> = text.lines().collect();
        let joined = |lines: Vec<&str>| lines.join("\n") + "\n";
        for at in 0..lines.len() {
            let mut deleted = lines.clone();
            deleted.remove(at);
            out.push(joined(deleted));
            let mut doubled = lines.clone();
            doubled.insert(at, lines[at]);
            out.push(joined(doubled));
            if at + 1 < lines.len() {
                let mut swapped = lines.clone();
                swapped.swap(at, at + 1);
                out.push(joined(swapped));
            }
        }
        let bytes = text.as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            let end = at
                + bytes[at..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            if end > at {
                for number in ["18446744073709551615", "1152921504606846976", "-1"] {
                    out.push(format!("{}{number}{}", &text[..at], &text[end..]));
                }
            }
            at = end.max(at + 1);
        }
        let mut stream = MutationStream::new(seed);
        for _ in 0..300 {
            let mut mutant = bytes.to_vec();
            mutant[stream.next_below(bytes.len())] = stream.next_below(128) as u8;
            out.push(String::from_utf8(mutant).expect("ASCII stays UTF-8"));
        }
        out
    }

    #[test]
    fn every_reader_survives_hostile_input_and_round_trips_its_writer() {
        for (seed, (format, sample, reparse)) in samples().into_iter().enumerate() {
            assert_eq!(
                reparse(&sample).as_ref(),
                Ok(&sample),
                "{format} round trip"
            );
            for mutant in mutants(&sample, seed as u64) {
                // Whatever a reader accepts, its writer's rendering reads
                // back to the same text.
                if let Ok(written) = reparse(&mutant) {
                    assert_eq!(
                        reparse(&written).as_ref(),
                        Ok(&written),
                        "{format}: {mutant:?}"
                    );
                }
            }
        }
    }
}
