//! # regemu-serve — a live replicated-register service
//!
//! Everything else in this workspace runs the paper's register emulations
//! inside a deterministic simulator. This crate runs the *same* state
//! machines — [`regemu_fpsm::ClientNode`] and [`regemu_fpsm::ServerNode`] —
//! over real transports, so a deployment-shaped run can be checked against
//! the paper's consistency conditions with the existing machinery:
//!
//! * [`transport`] — the [`transport::Transport`] trait with an in-process
//!   channel implementation and a length-prefixed `std::net` TCP
//!   implementation (thread-per-connection; no async runtime);
//! * [`server`] — [`server::serve_tcp`] / [`server::serve_channel`] host one
//!   paper server's base objects; applying a request under the state lock is
//!   the linearization point (Assumption 1), also for each request of a
//!   batch, which is applied in order under one lock acquisition;
//! * [`client`] — [`client::LiveClient`] drives one emulation client,
//!   sending one frame per server per protocol round (a
//!   [`regemu_core::wire::WireMsg::Batch`] when the round addresses several
//!   of that server's objects); [`client::run_fleet`] fans k writers plus
//!   readers out across threads.
//!
//! Latency is measured into [`regemu_obs::LatencyHistogram`] (re-exported
//! here as [`LatencyHistogram`] — it lived in this crate before the
//! telemetry registry existed), and every server keeps per-node
//! request/response/fault counters plus an in-flight gauge in the global
//! [`regemu_obs`] registry, scrapeable over the wire protocol's
//! version-gated `Stats` frame ([`server::node_stats`],
//! [`client::scrape_stats`]).
//!
//! ## Conformance checking
//!
//! With a [`regemu_workloads::conform::ConformRecorder`] attached, clients
//! append `invoke`/`return` records and servers append `respond` records to
//! per-process logs. `regemu_workloads::conform::merge_logs` orders them into
//! a [`regemu_spec`-checkable](regemu_workloads::conform::check_history)
//! history, so the **offline and streaming checkers give a live run the same
//! verdict class they give the simulator** — including catching the seeded
//! `faulty-weak-quorum` emulation on a real socket run (see this crate's
//! `loopback` integration test).
//!
//! ## Example
//!
//! ```
//! use regemu_serve::prelude::*;
//! use regemu_fpsm::prelude::*;
//! use regemu_workloads::fuzz::FuzzEmulation;
//! use regemu_bounds::Params;
//!
//! // One server of the space-optimal emulation at (k=1, f=1, n=3),
//! // served in-process; a writer and reader drive it over the wire codec.
//! let params = Params::new(1, 1, 3)?;
//! let emulation = FuzzEmulation::from_name("space-optimal").unwrap();
//! let topology = emulation.build(params).topology().clone();
//! let cluster: Vec<_> = (0..3)
//!     .map(|s| serve_channel(ServerNode::new(&topology, ServerId::new(s)), None))
//!     .collect::<Result<_, _>>()?;
//! let connect = |_| -> Result<_, ServeError> {
//!     Ok(cluster
//!         .iter()
//!         .map(|(_, connector)| {
//!             connector.connect().ok().map(|t| Box::new(t) as Box<dyn Transport>)
//!         })
//!         .collect())
//! };
//! let build = emulation.build(params);
//! let mut writer = LiveClient::new(
//!     topology.clone(),
//!     ClientId::new(0),
//!     build.writer_protocol(0),
//!     connect(0)?,
//!     ClientOptions::default(),
//! )?;
//! let mut reader = LiveClient::new(
//!     topology,
//!     ClientId::new(1),
//!     build.reader_protocol(),
//!     connect(1)?,
//!     ClientOptions::default(),
//! )?;
//! assert_eq!(writer.run_op(HighOp::Write(7))?, HighResponse::WriteAck);
//! assert_eq!(reader.run_op(HighOp::Read)?, HighResponse::ReadValue(7));
//! for (handle, _) in cluster {
//!     handle.join()?;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod server;
pub mod transport;

pub use client::{run_fleet, scrape_stats, ClientOptions, FleetOutcome, FleetSpec, LiveClient};
pub use regemu_obs::LatencyHistogram;
pub use server::{node_stats, serve_channel, serve_tcp, ChannelConnector, ServerHandle};
pub use transport::{ChannelTransport, ServeError, TcpTransport, Transport};

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::client::{
        run_fleet, scrape_stats, ClientOptions, FleetOutcome, FleetSpec, LiveClient,
    };
    pub use crate::server::{node_stats, serve_channel, serve_tcp, ChannelConnector, ServerHandle};
    pub use crate::transport::{ChannelTransport, ServeError, TcpTransport, Transport};
    pub use regemu_obs::LatencyHistogram;
}
