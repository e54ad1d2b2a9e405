//! Timing wrappers handed *into* the crates through their public traits, so
//! the traced pass can see boundaries the crates cross internally: one
//! `Scheduler::step`, one `BlockStrategy::blocks`, one `Transport` call.

use crate::trace::{Agg, SharedAgg};
use regemu_core::wire::WireMsg;
use regemu_fpsm::{BlockStrategy, PendingOp, Scheduler, SimError, Simulation};
use regemu_serve::{ServeError, Transport};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times every `step` of the scheduler it wraps.
pub struct TimingScheduler {
    pub inner: Box<dyn Scheduler>,
    pub steps: Agg,
}

impl Scheduler for TimingScheduler {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        let started = Instant::now();
        let delivered = self.inner.step(sim);
        self.steps.add(started.elapsed());
        delivered
    }

    // Reports must group traced runs with untraced ones.
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Counts every `blocks` call of the strategy it wraps. It does not time
/// them: a call runs for a few nanoseconds, thousands of times per step, so
/// a timer around it would measure the timer. The cost of one call comes
/// from a probe (`wl_sim`), and the trace multiplies it by this count.
#[derive(Debug)]
pub struct CountingBlocks<S> {
    pub inner: S,
    /// Shared, because the strategy itself is boxed away inside the
    /// `AdversarialScheduler`.
    pub calls: Rc<Cell<u64>>,
}

impl<S: BlockStrategy> BlockStrategy for CountingBlocks<S> {
    fn blocks(&mut self, sim: &Simulation, op: &PendingOp) -> bool {
        self.calls.set(self.calls.get() + 1);
        self.inner.blocks(sim, op)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What the [`TimingTransport`]s of one client saw, summed over its servers.
#[derive(Debug, Default)]
pub struct TransportSeen {
    pub send: SharedAgg,
    pub recv: SharedAgg,
    /// `recv_timeout` calls that returned `Ok(None)`.
    pub empty_polls: AtomicU64,
}

impl TransportSeen {
    pub fn empty_polls(&self) -> u64 {
        self.empty_polls.load(Ordering::Relaxed)
    }
}

/// Times every `send` and `recv_timeout` of the transport it wraps.
pub struct TimingTransport {
    inner: Box<dyn Transport>,
    seen: Arc<TransportSeen>,
}

impl TimingTransport {
    pub fn boxed(inner: Box<dyn Transport>, seen: Arc<TransportSeen>) -> Box<dyn Transport> {
        Box::new(TimingTransport { inner, seen })
    }
}

impl Transport for TimingTransport {
    fn send(&mut self, msg: &WireMsg) -> Result<(), ServeError> {
        let started = Instant::now();
        let sent = self.inner.send(msg);
        self.seen.send.add(started.elapsed());
        sent
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMsg>, ServeError> {
        let started = Instant::now();
        let received = self.inner.recv_timeout(timeout);
        self.seen.recv.add(started.elapsed());
        if matches!(received, Ok(None)) {
            self.seen.empty_polls.fetch_add(1, Ordering::Relaxed);
        }
        received
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
