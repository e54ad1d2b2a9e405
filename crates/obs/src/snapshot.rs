//! Point-in-time metric snapshots and their renderers.

use crate::histogram::LatencyHistogram;

/// Summary statistics of one histogram at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest recorded sample (exact).
    pub max: u64,
    /// Mean (exact).
    pub mean: f64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub(crate) fn of(h: &LatencyHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
            p999: h.p999(),
            max: h.max(),
            mean: h.mean(),
        }
    }
}

/// A point-in-time view of a [`Registry`](crate::Registry): every metric
/// name with its value, sorted by name within each kind.
///
/// Renderable three ways: [`Snapshot::to_text`] for terminals,
/// [`Snapshot::to_json`] for files and pipes, [`Snapshot::to_prometheus`]
/// for scrape endpoints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders as aligned `name value` text, one metric per line, counters
    /// then gauges then histograms.
    pub fn to_text(&self) -> String {
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name:<width$}  count={} p50={} p99={} p999={} max={} mean={:.1}\n",
                h.count, h.p50, h.p99, h.p999, h.max, h.mean
            ));
        }
        out
    }

    /// Renders as a stable JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {value}", escape(name)));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {value}", escape(name)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    \"{}\": {{ \"count\": {}, \"p50\": {}, \"p99\": {}, \
                 \"p999\": {}, \"max\": {}, \"mean\": {:.1} }}",
                escape(name),
                h.count,
                h.p50,
                h.p99,
                h.p999,
                h.max,
                h.mean
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders as Prometheus-style exposition text. Metric names are
    /// normalized (`.` and `-` become `_`); histograms expose
    /// `<name>_count` and quantile gauges.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            out.push_str(&format!("{name}_count {}\n", h.count));
            for (q, v) in [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_max {}\n", h.max));
        }
        out
    }
}

/// Normalizes a dotted metric name into the Prometheus charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' => c,
            _ => '_',
        })
        .collect()
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
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("sim.steps").add(1234);
        r.counter("sim.drops").add(2);
        r.gauge("sim.pending").set(17);
        r.histogram("serve.latency_us").record(100);
        r.histogram("serve.latency_us").record(200);
        r.snapshot()
    }

    #[test]
    fn text_rendering_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Every value column starts right after the longest name + 2 spaces.
        let width = "serve.latency_us".len();
        for line in &lines {
            assert_eq!(&line[width..width + 2], "  ", "misaligned: {line:?}");
            assert_ne!(line.as_bytes()[width + 2], b' ', "misaligned: {line:?}");
        }
        assert!(text.contains("sim.steps"));
        assert!(text.contains("count=2"));
    }

    #[test]
    fn json_rendering_has_all_sections() {
        let json = sample().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"sim.steps\": 1234"));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"sim.pending\": 17"));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"count\": 2"));
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let json = Snapshot::default().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}\n}"));
    }

    #[test]
    fn prometheus_rendering_normalizes_names() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE sim_steps counter\nsim_steps 1234\n"));
        assert!(prom.contains("# TYPE sim_pending gauge\nsim_pending 17\n"));
        assert!(prom.contains("serve_latency_us_count 2"));
        assert!(prom.contains("serve_latency_us{quantile=\"0.5\"}"));
    }

    #[test]
    fn lookup_helpers_find_values() {
        let snap = sample();
        assert_eq!(snap.counter("sim.steps"), Some(1234));
        assert_eq!(snap.counter("absent"), None);
    }
}
