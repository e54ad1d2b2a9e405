//! # regemu-fpsm — asynchronous fault-prone shared memory
//!
//! A deterministic, fully-instrumented simulator of the *asynchronous
//! fault-prone shared memory* model of Jayanti, Chandra & Toueg, extended —
//! exactly as in Chockler & Spiegelman, *Space Complexity of Fault-Tolerant
//! Register Emulations* (PODC 2017) — with a placement function `δ : B → S`
//! mapping base objects to crash-prone servers.
//!
//! The crate provides:
//!
//! * [`topology::Topology`] — servers, base objects and the placement `δ`;
//! * `object::BaseObject` — atomic read/write registers, max-registers and
//!   CAS objects;
//! * [`client::ClientProtocol`] — the event-driven state-machine interface an
//!   emulation algorithm implements at each client;
//! * [`sim::Simulation`] — the engine exposing the primitive transitions
//!   (invoke / deliver / drop / crash) so that *any* environment behaviour,
//!   including the paper's lower-bound adversary, can be expressed as a
//!   driver;
//! * [`scheduler::Scheduler`] — the pluggable run-driver interface, with
//!   [`driver::FairDriver`] (seeded fair scheduling),
//!   [`scheduler::RoundRobinScheduler`], [`scheduler::DelayedScheduler`] and
//!   the strategy-driven [`scheduler::AdversarialScheduler`] as
//!   implementations. The four share one step loop — [`driver::CrashPlan`]
//!   injection, a candidate list kept across steps, delivery — and differ
//!   only in which operations they admit and which candidate they choose;
//! * [`history::History`] and [`metrics::RunMetrics`] — the recorded run and
//!   its space-consumption metrics (resource consumption, covered registers,
//!   per-server occupancy, point contention). How much of the raw event
//!   stream is retained is selected by a [`history::RecordingMode`] (`Full`,
//!   `Digest`, `Ring`); the digests — and hence the metrics — are identical
//!   in every mode. These per-run counters are the simulator's only
//!   telemetry: they live in the run's own replayable state, not in a
//!   process-global registry.
//!
//! ## Example
//!
//! ```
//! use regemu_fpsm::prelude::*;
//!
//! // One register on each of three servers.
//! let mut topology = Topology::new(3);
//! let objects = topology.add_object_per_server(ObjectKind::Register);
//!
//! // A trivial protocol that completes immediately.
//! let mut sim = Simulation::new(topology, SimConfig::with_fault_threshold(1));
//! let client = sim.register_client(Box::new(NoopProtocol));
//! let op = sim.invoke(client, HighOp::Write(7))?;
//! assert_eq!(sim.result_of(op), Some(HighResponse::WriteAck));
//! assert_eq!(objects.len(), 3);
//! # Ok::<(), regemu_fpsm::SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod client;
pub(crate) mod driver;
pub(crate) mod error;
pub mod event;
pub mod history;
pub(crate) mod ids;
pub(crate) mod metrics;
pub(crate) mod node;
pub(crate) mod object;
pub mod op;
pub(crate) mod scheduler;
pub(crate) mod sim;
pub(crate) mod topology;
pub mod value;

pub use event::Event;
pub use object::ObjectError;
pub use prelude::*;
pub use sim::PendingOp;

/// Convenient glob import of the most frequently used types.
pub mod prelude {
    pub use crate::client::{ClientProtocol, Context, Delivery, NoopProtocol};
    pub use crate::driver::{CrashPlan, FairDriver};
    pub use crate::error::SimError;
    pub use crate::history::{History, RecordingMode};
    pub use crate::ids::{ClientId, HighOpId, ObjectId, OpId, ServerId, Time};
    pub use crate::metrics::RunMetrics;
    pub use crate::node::{ClientEffects, ClientNode, NodeError, ServerNode};
    pub use crate::object::ObjectKind;
    pub use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
    pub use crate::scheduler::{
        AdversarialScheduler, BlockStrategy, DelayedScheduler, RoundRobinScheduler, Scheduler,
    };
    pub use crate::sim::{DecisionRecord, SimConfig, Simulation};
    pub use crate::topology::Topology;
    pub use crate::value::{Payload, Value};
}
