//! Point-in-time metric snapshots and their JSON rendering.

/// A point-in-time view of a `Registry`: every counter
/// and gauge name with its value, sorted by name within each kind.
#[derive(Debug)]
pub struct Snapshot {
    /// `(name, value)` per counter, sorted by name.
    pub(crate) counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub(crate) gauges: Vec<(String, i64)>,
}

impl Snapshot {
    /// Renders as a stable JSON object: `{"counters": {...}, "gauges": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, &self.gauges);
        out.push_str("}\n}\n");
        out
    }
}

/// Appends `"name": value` entries, one per line, to a JSON object body.
fn push_entries<V: std::fmt::Display>(out: &mut String, entries: &[(String, V)]) {
    for (i, (name, value)) in entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!("{sep}\n    \"{}\": {value}", escape(name)));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Escapes a metric name for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn json_rendering_has_all_sections() {
        let r = Registry::default();
        r.counter("serve.requests").add(1234);
        r.counter("serve.faults").add(2);
        r.gauge("serve.in_flight").add(17);
        let json = r.snapshot().to_json();
        assert_eq!(
            json,
            "{\n  \"counters\": {\n    \"serve.faults\": 2,\n    \"serve.requests\": 1234\n  },\n  \
             \"gauges\": {\n    \"serve.in_flight\": 17\n  }\n}\n"
        );
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let json = Registry::default().snapshot().to_json();
        assert_eq!(json, "{\n  \"counters\": {},\n  \"gauges\": {}\n}\n");
    }
}
