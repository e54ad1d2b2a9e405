//! The metric registry: named counters and gauges.
//!
//! Handles ([`Counter`], [`Gauge`]) are cheap `Arc`s; hot paths clone a
//! handle once and bump it lock-free ([`Counter::add`] is a relaxed atomic
//! add). The registry itself is only locked when a metric is first named or
//! a `Snapshot` is taken.

use crate::snapshot::Snapshot;
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
    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named collection of counters and gauges.
///
/// Metric names are free-form dotted strings (`"serve.server0.requests"`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl Registry {
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
        Snapshot { counters, gauges }
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

/// The process-global registry the live service's node counters live in.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

/// Sets the process-global enable flag.
///
/// Nothing in the workspace reads the flag: the live service's node
/// counters are always on, and the simulator keeps its counts in
/// `RunMetrics`. The flag stays for the benchmark's telemetry probe, which
/// toggles it around a simulator run.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The value last given to [`set_enabled`] (`false` until then). It gates
/// nothing in the workspace.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::default();
        let c = r.counter("a.events");
        c.incr();
        c.add(4);
        assert_eq!(r.counter("a.events").get(), 5);
        let g = r.gauge("a.depth");
        g.add(3);
        g.add(-1);
        assert_eq!(r.gauge("a.depth").get(), 2);
    }

    #[test]
    fn snapshot_lists_metrics_sorted_by_name() {
        let r = Registry::default();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.gauge("m.mid").add(-4);
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
