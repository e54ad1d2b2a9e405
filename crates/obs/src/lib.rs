//! # regemu-obs — zero-dependency telemetry
//!
//! One registry for every subsystem's runtime metrics: named [`Counter`]s,
//! [`Gauge`]s and [`LatencyHistogram`]s behind cheap `Arc` handles, plus a
//! renderable `Snapshot` (aligned text, JSON, Prometheus-style
//! exposition).
//!
//! ## The non-perturbation contract
//!
//! The repo's backbone is determinism: the same seed must produce
//! byte-identical histories, reports and campaign merges, with telemetry on
//! or off. Instrumentation therefore obeys two rules:
//!
//! 1. **Observation only.** Telemetry handles are written to, never read
//!    from, inside deterministic paths — no behaviour may branch on a
//!    metric value.
//! 2. **Logical time inside, wallclock at the edge.** Deterministic code
//!    (the simulator, sweep/fuzz execution) may count events and sample
//!    logical clocks; wallclock readings (latency samples, heartbeat
//!    stamps, rates) happen only at process edges — request handling, report
//!    publication, dashboards — whose outputs are advisory, not part of any
//!    deterministic artifact.
//!
//! Collection is off by default: [`enabled`] gates the sampled hooks the
//! hot loops attach, and [`set_enabled`] switches it on. The golden-trace tests in
//! `regemu-fpsm` and `regemu-workloads` prove the contract by running the
//! same scenarios with telemetry on and off and diffing the artifacts
//! byte for byte.
//!
//! ## Example
//!
//! ```
//! use regemu_obs::Registry;
//!
//! let registry = Registry::new();
//! let steps = registry.counter("sim.steps");
//! steps.add(128);
//! registry.gauge("sim.pending").set(3);
//! registry.histogram("serve.latency_us").record(250);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("sim.steps"), Some(128));
//! assert!(snap.to_text().contains("sim.steps"));
//! assert!(snap.to_prometheus().contains("sim_steps 128"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod histogram;
pub(crate) mod registry;
pub(crate) mod snapshot;

pub use histogram::LatencyHistogram;
pub use registry::{enabled, global, set_enabled, Counter, Gauge, Registry};
