//! A minimal JSON value and parser — just enough to read back the reports
//! and heartbeats this crate writes (the offline serde shim cannot
//! deserialize, so the crate parses its own output formats).

/// A parsed JSON value.
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_opt_string(&self) -> Option<Option<String>> {
        match self {
            Json::Null => Some(None),
            Json::Str(s) => Some(Some(s.clone())),
            _ => None,
        }
    }
}

pub(crate) struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> JsonParser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        JsonParser {
            text,
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.at)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected {:?} at byte {}", char::from(b), self.at));
        }
        self.at += 1;
        Ok(())
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b'0'..=b'9' => self.number(),
            _ => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(format!("unexpected token at byte {}", self.at))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. Both
            // are ASCII, so they never sit inside a multi-byte character and
            // every run is whole UTF-8 of the input `&str`.
            let run = self.bytes[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string".to_string())?;
            out.push_str(
                self.text
                    .get(self.at..self.at + run)
                    .ok_or("string splits a UTF-8 sequence".to_string())?,
            );
            self.at += run + 1;
            if self.bytes[self.at - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.at)
                .ok_or("unterminated escape".to_string())?;
            self.at += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.at..self.at + 4)
                        .ok_or("truncated \\u escape".to_string())?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    self.at += 4;
                    out.push(char::from_u32(code).ok_or(format!("invalid code point {code:#x}"))?);
                }
                other => return Err(format!("unknown escape \\{}", char::from(other))),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.at;
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        // Heartbeat files carry fractional rates; report files never do.
        let fractional = self.bytes.get(self.at) == Some(&b'.')
            && self.bytes.get(self.at + 1).is_some_and(u8::is_ascii_digit);
        if fractional {
            self.at += 1;
            while self.bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are ASCII");
        if fractional {
            text.parse()
                .map(Json::Float)
                .map_err(|_| format!("bad number {text:?}"))
        } else {
            text.parse()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::report_cases_from_json;
    use crate::sweep::{run_sweep, SweepConfig, SweepReport};
    use std::path::Path;

    /// Strings that break the parser's copied runs (quotes, backslashes,
    /// escaped control characters) or carry multi-byte UTF-8 of every
    /// width.
    const AWKWARD: [&str; 6] = [
        "say \"hi\"",
        "back\\slash",
        "line\nbreak\ttab",
        "bell \u{1} ring",
        "é → 🦀",
        "",
    ];

    fn one_row_report(violation: &str, error: &str) -> SweepReport {
        let mut config = SweepConfig::quick();
        config.grid.truncate(1);
        config.emulations.truncate(1);
        config.workloads.truncate(1);
        config.threads = 1;
        let mut results = run_sweep(&config).results().to_vec();
        assert_eq!(results.len(), 1);
        results[0].violation = Some(violation.to_string());
        results[0].error = Some(error.to_string());
        SweepReport::from_results(results)
    }

    #[test]
    fn awkward_strings_round_trip_byte_for_byte() {
        let all = AWKWARD.concat();
        for text in AWKWARD.iter().copied().chain([all.as_str()]) {
            let reversed: String = text.chars().rev().collect();
            let json = one_row_report(text, &reversed).to_json();
            let parsed = report_cases_from_json(&json, Path::new("test")).unwrap();
            assert_eq!(parsed[0].violation.as_deref(), Some(text));
            assert_eq!(parsed[0].error.as_deref(), Some(reversed.as_str()));
            assert_eq!(SweepReport::from_results(parsed).to_json(), json);
        }
    }

    #[test]
    fn every_truncation_of_a_report_is_an_error() {
        let all = AWKWARD.concat();
        let json = one_row_report(&all, &all).to_json();
        let end = json.trim_end().len();
        for cut in (0..end).filter(|&cut| json.is_char_boundary(cut)) {
            assert!(
                report_cases_from_json(&json[..cut], Path::new("test")).is_err(),
                "a report cut at byte {cut} of {end} parsed"
            );
        }
    }
}
