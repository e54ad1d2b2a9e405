//! # regemu-obs — zero-dependency metrics for the live service
//!
//! What is left of the workspace's runtime metrics:
//!
//! * [`LatencyHistogram`] — a fixed-memory HDR-style histogram; the live
//!   client fleet records each operation's latency into one and `serve
//!   load` reports its p50/p99/p999/max/mean;
//! * the process-[`global`] registry of named [`Counter`]s and [`Gauge`]s
//!   — each live server's always-on request, response, fault and
//!   in-flight tallies, which `serve stats` scrapes over the wire and
//!   `serve node --stats-every-ms` prints; `global().snapshot().to_json()`
//!   renders the whole registry;
//! * [`set_enabled`] / [`enabled`] — a process-global flag that gates
//!   nothing in the workspace; the benchmark's telemetry probe still
//!   toggles it.
//!
//! The simulator keeps no telemetry here: what a run needs — logical time,
//! peak `|Cov(t)|`, per-server occupancy, peak pending, low-level triggers
//! and responses — is a deterministic field of its `RunMetrics` and
//! `History`, and campaigns publish progress through their spool's
//! heartbeat files.
//!
//! ## Example
//!
//! ```
//! use regemu_obs::{global, LatencyHistogram};
//!
//! let requests = global().counter("example.requests");
//! requests.add(2);
//! requests.incr();
//! assert_eq!(requests.get(), 3);
//! assert!(global().snapshot().to_json().contains("\"example.requests\": 3"));
//!
//! let mut latency = LatencyHistogram::new();
//! for us in [120, 250, 900] {
//!     latency.record(us);
//! }
//! assert_eq!((latency.count(), latency.max()), (3, 900));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod histogram;
pub(crate) mod registry;
pub(crate) mod snapshot;

pub use histogram::LatencyHistogram;
pub use registry::{enabled, global, set_enabled, Counter, Gauge};
