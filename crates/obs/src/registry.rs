//! The metric registry: named counters, gauges and histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`HistogramCell`]) are cheap `Arc`s;
//! hot paths clone a handle once and bump it lock-free ([`Counter::add`] is
//! a relaxed atomic add). The registry itself is only locked when a metric
//! is first named or a [`Snapshot`] is taken.

use crate::histogram::LatencyHistogram;
use crate::snapshot::{HistogramSummary, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, in-flight operations, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared, thread-safe [`LatencyHistogram`].
#[derive(Debug, Default)]
pub struct HistogramCell(Mutex<LatencyHistogram>);

impl HistogramCell {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.lock().record(value);
    }

    /// An owned copy of the current state.
    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LatencyHistogram> {
        // A poisoned histogram still holds valid counts.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Metric names are free-form dotted strings (`"sim.steps"`,
/// `"serve.requests"`); renderers normalize them per output format.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram cell named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<HistogramCell> {
        let mut map = lock(&self.histograms);
        map.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time `Snapshot` of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, cell)| (name.clone(), HistogramSummary::of(&cell.snapshot())))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// --------------------------------------------------------------------------
// The process-global registry and the enable flag
// --------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry every instrumented subsystem publishes to.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turns global telemetry collection on or off.
///
/// Off by default. Instrumented hot loops (the simulator) only attach their
/// sampled hooks when this is on at construction time; publication sites
/// check it before rendering. Toggling is safe at any point because
/// telemetry is observation-only — it never changes behaviour (see the
/// non-perturbation contract in the crate docs).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when global telemetry collection is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.events");
        c.incr();
        c.add(4);
        assert_eq!(r.counter("a.events").get(), 5);
        let g = r.gauge("a.depth");
        g.set(3);
        g.add(-1);
        g.raise_to(10);
        g.raise_to(7);
        assert_eq!(r.gauge("a.depth").get(), 10);
    }

    #[test]
    fn histogram_cells_share_state_across_handles() {
        let r = Registry::new();
        r.histogram("lat").record(5);
        r.histogram("lat").record(100);
        let snap = r.histogram("lat").snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), 100);
    }

    #[test]
    fn snapshot_lists_metrics_sorted_by_name() {
        let r = Registry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.gauge("m.mid").set(-4);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.gauges, vec![("m.mid".to_string(), -4)]);
    }

    #[test]
    fn enable_flag_round_trips() {
        // Serialize against other tests touching the global flag by using
        // only this test's own observations.
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
