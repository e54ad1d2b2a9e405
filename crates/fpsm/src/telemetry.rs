//! Sampled, non-perturbing telemetry for the simulation hot loop.
//!
//! [`SimTelemetry`] tallies the simulator's primitive transitions — invokes,
//! deliveries, drops, crashes — into plain local integers and flushes them
//! to the process-global `regemu-obs` registry once every
//! [`SimTelemetry::SAMPLE_EVERY`] events, so the hot loop pays one branch
//! and a couple of integer adds per event, and an atomic write only at
//! sample boundaries.
//!
//! ## The non-perturbation contract
//!
//! Telemetry is attached by [`crate::sim::Simulation::new`] only when
//! [`regemu_obs::enabled`] is on, and it is **observation-only**: nothing in
//! the simulator reads a metric back, so no behaviour can branch on it.
//! Inside the deterministic path the only clock it touches is the
//! simulation's *logical* time (the step counter published as `sim.steps`);
//! wallclock readings happen at process edges only. The
//! `telemetry_does_not_perturb_runs` test in `sim.rs` — and the campaign
//! byte-identity tests in `regemu-workloads` — prove histories and reports
//! are byte-identical with telemetry on and off.

use crate::ids::Time;
use regemu_obs::{Counter, Gauge};
use std::sync::Arc;

/// Shared handles into the global registry, resolved once at attach time.
#[derive(Debug)]
struct Shared {
    steps: Arc<Counter>,
    invokes: Arc<Counter>,
    deliveries: Arc<Counter>,
    drops: Arc<Counter>,
    crashes: Arc<Counter>,
    pending_depth: Arc<Gauge>,
    pending_peak: Arc<Gauge>,
}

/// The sampled telemetry hook a [`crate::sim::Simulation`] carries when
/// global telemetry is enabled.
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    invokes: u64,
    deliveries: u64,
    drops: u64,
    crashes: u64,
    peak_depth: u64,
    last_depth: u64,
    /// Logical time already flushed to the `sim.steps` counter.
    flushed_time: Time,
    /// Logical time observed by the most recent note.
    seen_time: Time,
    events_since_flush: u64,
    shared: Shared,
}

impl SimTelemetry {
    /// Events tallied locally between flushes to the shared registry.
    pub(crate) const SAMPLE_EVERY: u64 = 1024;

    /// Attaches to the process-global registry under the `sim.*` namespace.
    pub(crate) fn attached() -> Self {
        Self::for_registry(regemu_obs::global())
    }

    /// Attaches to a specific registry (tests use an isolated one).
    pub fn for_registry(registry: &regemu_obs::Registry) -> Self {
        SimTelemetry {
            invokes: 0,
            deliveries: 0,
            drops: 0,
            crashes: 0,
            peak_depth: 0,
            last_depth: 0,
            flushed_time: 0,
            seen_time: 0,
            events_since_flush: 0,
            shared: Shared {
                steps: registry.counter("sim.steps"),
                invokes: registry.counter("sim.invokes"),
                deliveries: registry.counter("sim.deliveries"),
                drops: registry.counter("sim.drops"),
                crashes: registry.counter("sim.crashes"),
                pending_depth: registry.gauge("sim.pending_depth"),
                pending_peak: registry.gauge("sim.pending_peak"),
            },
        }
    }

    /// Notes a high-level invocation. `time` is the simulation's logical
    /// clock after the transition; `depth` the pending-set size.
    pub(crate) fn note_invoke(&mut self, time: Time, depth: usize) {
        self.invokes += 1;
        self.note(time, depth);
    }

    /// Notes a delivery.
    pub(crate) fn note_delivery(&mut self, time: Time, depth: usize) {
        self.deliveries += 1;
        self.note(time, depth);
    }

    /// Notes a dropped pending operation.
    pub(crate) fn note_drop(&mut self, time: Time, depth: usize) {
        self.drops += 1;
        self.note(time, depth);
    }

    /// Notes a server or client crash.
    pub(crate) fn note_crash(&mut self, time: Time, depth: usize) {
        self.crashes += 1;
        self.note(time, depth);
    }

    fn note(&mut self, time: Time, depth: usize) {
        let depth = depth as u64;
        self.peak_depth = self.peak_depth.max(depth);
        self.last_depth = depth;
        self.seen_time = time;
        self.events_since_flush += 1;
        if self.events_since_flush >= Self::SAMPLE_EVERY {
            self.flush();
        }
    }

    /// Publishes the local tallies to the shared registry and resets them.
    /// Called automatically at sample boundaries and on drop.
    pub(crate) fn flush(&mut self) {
        if self.events_since_flush == 0 {
            return;
        }
        let s = &self.shared;
        s.steps
            .add(self.seen_time.saturating_sub(self.flushed_time));
        s.invokes.add(std::mem::take(&mut self.invokes));
        s.deliveries.add(std::mem::take(&mut self.deliveries));
        s.drops.add(std::mem::take(&mut self.drops));
        s.crashes.add(std::mem::take(&mut self.crashes));
        s.pending_depth.set(self.last_depth as i64);
        s.pending_peak
            .raise_to(std::mem::take(&mut self.peak_depth) as i64);
        self.flushed_time = self.seen_time;
        self.events_since_flush = 0;
    }
}

impl Drop for SimTelemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_flush_at_sample_boundaries_and_on_drop() {
        let registry = regemu_obs::Registry::new();
        {
            let mut t = SimTelemetry::for_registry(&registry);
            for i in 0..(SimTelemetry::SAMPLE_EVERY + 10) {
                t.note_delivery(i + 1, 3);
            }
            // One full sample window flushed, the 10-event remainder has not.
            assert_eq!(
                registry.counter("sim.deliveries").get(),
                SimTelemetry::SAMPLE_EVERY
            );
        }
        // Drop flushed the remainder.
        assert_eq!(
            registry.counter("sim.deliveries").get(),
            SimTelemetry::SAMPLE_EVERY + 10
        );
        assert_eq!(
            registry.counter("sim.steps").get(),
            SimTelemetry::SAMPLE_EVERY + 10
        );
        assert_eq!(registry.gauge("sim.pending_peak").get(), 3);
        assert_eq!(registry.gauge("sim.pending_depth").get(), 3);
    }
}
