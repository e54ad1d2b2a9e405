//! # regemu-core — fault-tolerant register emulation algorithms
//!
//! Executable implementations of every construction in Chockler &
//! Spiegelman, *Space Complexity of Fault-Tolerant Register Emulations*
//! (PODC 2017):
//!
//! * [`SpaceOptimalEmulation`] — the paper's main upper bound
//!   (Algorithm 2): an `f`-tolerant, wait-free, WS-Regular `k`-writer
//!   register from `kf + ⌈k/z⌉(f+1)` plain read/write registers;
//! * multi-writer ABD, whose per-server code is only `write-max` and
//!   `read-max`, so one client yields three rows, built by [`EmulationKind`]:
//!   over one max-register per server (`AbdMaxRegister`, `2f + 1` base
//!   objects); over one CAS object per server, with Algorithm 1
//!   (Appendix B) providing each server's max-register interface (`AbdCas`);
//!   and over a `k`-slot register bank per server (`RegisterBank`, the
//!   `(2f+1)·k` construction for the `n = 2f+1` special case);
//! * `shared_memory` — real-threaded counterparts of the standard
//!   shared-memory corollaries (Algorithm 1 over an `AtomicU64`, the
//!   collect-based `k`-register max-register of Theorem 2, and a `fetch_max`
//!   baseline).
//!
//! All simulated protocols implement
//! [`regemu_fpsm::ClientProtocol`] and run inside the `regemu-fpsm`
//! fault-prone shared-memory simulator; their measured space consumption is
//! compared against the closed-form bounds of `regemu-bounds` by the test
//! suites and the experiment harness.
//!
//! ## Example: one write, one read over the space-optimal construction
//!
//! ```
//! use regemu_bounds::Params;
//! use regemu_core::prelude::*;
//! use regemu_fpsm::prelude::*;
//!
//! let params = Params::new(2, 1, 4)?; // k = 2 writers, f = 1, n = 4 servers
//! let emulation = SpaceOptimalEmulation::new(params);
//! let mut sim = emulation.build_simulation();
//! let writer = sim.register_client(emulation.writer_protocol(0));
//! let reader = sim.register_client(emulation.reader_protocol());
//!
//! let mut driver = FairDriver::new(42);
//! let w = sim.invoke(writer, HighOp::Write(7))?;
//! driver.run_until_complete(&mut sim, w, 10_000)?;
//! let r = sim.invoke(reader, HighOp::Read)?;
//! driver.run_until_complete(&mut sim, r, 10_000)?;
//! assert_eq!(sim.result_of(r), Some(HighResponse::ReadValue(7)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod abd;
pub mod drivers;
pub(crate) mod emulation;
pub(crate) mod faulty;
pub mod layout;
pub mod quorum;
pub(crate) mod shared_memory;
pub mod timestamp;
pub mod upper_bound;
pub mod wire;

pub use prelude::*;
pub use shared_memory::CollectWriter;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::emulation::{Emulation, EmulationKind, SpaceOptimalEmulation};
    pub use crate::faulty::FaultyKind;
    pub use crate::layout::RegisterLayout;
    pub use crate::shared_memory::{
        CasMaxRegister, CollectMaxRegister, FetchMaxRegister, SharedMaxRegister,
    };
    pub use crate::upper_bound::{SharedLayout, SpaceOptimalClient};
}
