//! The live client: one emulation client state machine over real transports.
//!
//! [`LiveClient`] drives exactly the [`regemu_fpsm::ClientNode`] the
//! simulator drives, but dispatches its triggers as wire requests instead of
//! scheduler-pending operations. The asynchronous model's freedoms map
//! directly: a lost message is a trigger whose server link died; an
//! indefinitely delayed message is a trigger to a *held* server
//! ([`ClientOptions::hold_servers`]) that is simply never sent. Holding
//! servers is how a live run reproduces the adversarial schedules the
//! simulator's schedulers explore — and how the conformance tests catch the
//! seeded weak-quorum bug on real sockets.
//!
//! Each protocol callback's triggers leave as **one frame per destination
//! server**: a lone request as itself, several as one [`WireMsg::Batch`]. A
//! space-optimal write at `(8, 1, 3)` thus sends 6 frames (two rounds over
//! three servers) instead of 27 — the paper's channel model, where one
//! message to a server may touch several of its base objects.
//!
//! [`run_fleet`] fans k writer clients (plus readers) out across threads,
//! one emulation instance per thread (protocol state machines are not
//! `Send`), and aggregates latency into a [`LatencyHistogram`].

use crate::transport::{ServeError, TcpTransport, Transport};
use regemu_bounds::Params;
use regemu_core::wire::{NodeStats, WireMsg, MAX_BATCH};
use regemu_fpsm::{
    BaseOp, ClientId, ClientNode, ClientProtocol, Delivery, HighOp, HighOpId, HighResponse,
    ObjectId, OpId, Time, Topology,
};
use regemu_obs::LatencyHistogram;
use regemu_workloads::conform::ConformRecorder;
use regemu_workloads::fuzz::FuzzEmulation;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of a [`LiveClient`].
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// How long a high-level operation may take before the client gives up.
    pub op_timeout: Duration,
    /// Per-server receive poll while waiting for responses.
    pub poll_timeout: Duration,
    /// TCP connect timeout per server.
    pub connect_timeout: Duration,
    /// Servers whose requests are delayed forever (never sent). The live
    /// analogue of the simulator's adversarial delivery delay.
    pub hold_servers: Vec<usize>,
    /// Servers whose *write-class* requests (`write`, `write-max`, `cas`)
    /// are delayed forever while reads pass through — this delays exactly
    /// the messages whose loss a write quorum must tolerate, which is how
    /// the loopback tests reproduce the weak-quorum ablation schedule on a
    /// real socket.
    pub hold_writes: Vec<usize>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            op_timeout: Duration::from_secs(5),
            poll_timeout: Duration::from_millis(1),
            connect_timeout: Duration::from_secs(2),
            hold_servers: Vec::new(),
            hold_writes: Vec::new(),
        }
    }
}

/// One emulation client running against live servers.
pub struct LiveClient {
    topology: Topology,
    node: ClientNode,
    /// Indexed by server; `None` = unreachable or failed (the crash-prone
    /// model's dead server).
    transports: Vec<Option<Box<dyn Transport>>>,
    /// Sent-but-unanswered low-level operations, by raw op id.
    in_flight: HashMap<u64, (ObjectId, BaseOp)>,
    /// Replies that arrived in a batch, not yet handed to the protocol. They
    /// outlive the operation that read them and are never dropped: a lost
    /// write acknowledgement would leave its register covered forever.
    replies: VecDeque<WireMsg>,
    /// One server's requests of the round being dispatched; kept across
    /// rounds for its capacity.
    group: Vec<WireMsg>,
    /// The server `run_op` polls next. It persists across operations so
    /// every server is read in turn, not only the ones a quorum needed.
    next_poll: usize,
    next_op_id: u64,
    next_high_id: u64,
    time: Time,
    recorder: Option<(Arc<ConformRecorder>, usize)>,
    options: ClientOptions,
}

impl LiveClient {
    /// Creates a client over pre-built transports (one slot per server;
    /// `None` marks a server as unreachable from the start).
    pub fn new(
        topology: Topology,
        client: ClientId,
        protocol: Box<dyn ClientProtocol>,
        transports: Vec<Option<Box<dyn Transport>>>,
        options: ClientOptions,
    ) -> Result<Self, ServeError> {
        if transports.len() != topology.server_count() {
            return Err(ServeError::Config(format!(
                "{} transports for a topology with {} servers",
                transports.len(),
                topology.server_count()
            )));
        }
        if transports.iter().all(Option::is_none) {
            return Err(ServeError::Config("no reachable servers".to_string()));
        }
        Ok(LiveClient {
            topology,
            node: ClientNode::new(client, protocol),
            transports,
            in_flight: HashMap::new(),
            replies: VecDeque::new(),
            group: Vec::new(),
            next_poll: 0,
            next_op_id: 0,
            next_high_id: 0,
            time: 0,
            recorder: None,
            options,
        })
    }

    /// Connects to TCP servers at `addrs` (one per server, in server order).
    /// Unreachable servers are marked dead, not fatal — the emulations
    /// tolerate up to `f` of them; only *zero* reachable servers is an error.
    pub fn connect_tcp(
        topology: Topology,
        client: ClientId,
        protocol: Box<dyn ClientProtocol>,
        addrs: &[SocketAddr],
        options: ClientOptions,
    ) -> Result<Self, ServeError> {
        if addrs.len() != topology.server_count() {
            return Err(ServeError::Config(format!(
                "{} addresses for a topology with {} servers",
                addrs.len(),
                topology.server_count()
            )));
        }
        let transports = addrs
            .iter()
            .map(|&addr| {
                TcpTransport::connect(addr, options.connect_timeout)
                    .ok()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
            })
            .collect();
        LiveClient::new(topology, client, protocol, transports, options)
    }

    /// Attaches a conformance recorder; this client's invoke/return records
    /// are tagged with process-local client index `client_index`.
    pub fn with_recorder(mut self, recorder: Arc<ConformRecorder>, client_index: usize) -> Self {
        self.recorder = Some((recorder, client_index));
        self
    }

    /// Number of servers still reachable.
    pub fn live_servers(&self) -> usize {
        self.transports.iter().filter(|t| t.is_some()).count()
    }

    /// Runs one high-level operation to completion (or times out).
    ///
    /// A timeout leaves the operation pending — recorded as an open interval
    /// in the conformance log, exactly like a crashed simulator client — and
    /// poisons the client for further operations.
    pub fn run_op(&mut self, op: HighOp) -> Result<HighResponse, ServeError> {
        if self.node.current().is_some() {
            return Err(ServeError::Config(
                "client has a timed-out operation still pending".to_string(),
            ));
        }
        let high = HighOpId::new(self.next_high_id);
        self.next_high_id += 1;
        if let Some((recorder, client)) = &self.recorder {
            recorder.record_invoke(*client, high.index(), op);
        }
        self.time += 1;
        let effects = self
            .node
            .on_invoke(high, op, self.time, &mut self.next_op_id);
        if let Some(response) = self.dispatch(effects)? {
            return Ok(response);
        }
        let started = Instant::now();
        let deadline = started + self.options.op_timeout;
        while Instant::now() < deadline {
            let msg = match self.replies.pop_front() {
                Some(msg) => msg,
                None => {
                    if self.live_servers() == 0 {
                        return Err(ServeError::Disconnected {
                            peer: "all servers".to_string(),
                        });
                    }
                    let server = self.next_poll;
                    self.next_poll = (server + 1) % self.transports.len();
                    match self.poll_server(server) {
                        Some(WireMsg::Batch(items)) => {
                            self.replies.extend(items);
                            continue;
                        }
                        Some(msg) => msg,
                        None => continue,
                    }
                }
            };
            if let Some(effects) = self.handle_message(msg) {
                if let Some(response) = self.dispatch(effects)? {
                    return Ok(response);
                }
            }
        }
        Err(ServeError::Timeout {
            what: format!("high-level operation {op:?}"),
            waited: started.elapsed(),
        })
    }

    /// Polls one server's transport; marks it dead on error.
    fn poll_server(&mut self, server: usize) -> Option<WireMsg> {
        let transport = self.transports[server].as_mut()?;
        match transport.recv_timeout(self.options.poll_timeout) {
            Ok(found) => found,
            Err(_) => {
                self.transports[server] = None;
                None
            }
        }
    }

    /// Turns a wire message into protocol effects, if it answers an
    /// operation we have in flight.
    fn handle_message(&mut self, msg: WireMsg) -> Option<regemu_fpsm::ClientEffects> {
        match msg {
            WireMsg::Response {
                op_id,
                clock,
                response,
            } => {
                if let Some((recorder, _)) = &self.recorder {
                    recorder.observe(clock);
                }
                let (object, op) = self.in_flight.remove(&op_id)?;
                let delivery = Delivery {
                    op_id: OpId::new(op_id),
                    object,
                    server: self.topology.server_of(object),
                    op,
                    response,
                };
                self.time += 1;
                Some(
                    self.node
                        .on_delivery(delivery, self.time, &mut self.next_op_id),
                )
            }
            // A fault is a refusal: the low-level op will never complete,
            // which the asynchronous model treats as a lost message.
            WireMsg::Fault { op_id, .. } => {
                self.in_flight.remove(&op_id);
                None
            }
            // Servers never send requests, stats frames never answer an
            // operation, and batches are unpacked before they get here.
            WireMsg::Request { .. }
            | WireMsg::StatsQuery
            | WireMsg::StatsReply { .. }
            | WireMsg::Batch(_) => None,
        }
    }

    /// Sends triggered low-level operations, one frame per destination
    /// server, and retires a completion.
    fn dispatch(
        &mut self,
        effects: regemu_fpsm::ClientEffects,
    ) -> Result<Option<HighResponse>, ServeError> {
        let mut triggers = effects.triggers;
        // Held requests are in transit forever and requests to a dead server
        // are lost: neither is sent, so neither awaits a reply.
        triggers.retain(|(_, object, op)| {
            let server = self.topology.server_of(*object).index();
            let is_write_class = matches!(
                op,
                BaseOp::Write(_) | BaseOp::WriteMax(_) | BaseOp::Cas { .. }
            );
            self.transports[server].is_some()
                && !self.options.hold_servers.contains(&server)
                && !(is_write_class && self.options.hold_writes.contains(&server))
        });
        for (op_id, object, op) in &triggers {
            self.in_flight.insert(op_id.index(), (*object, *op));
        }
        for server in 0..self.transports.len() {
            // This server's requests, in trigger order.
            self.group.clear();
            self.group.extend(
                triggers
                    .iter()
                    .filter(|(_, object, _)| self.topology.server_of(*object).index() == server)
                    .map(|&(op_id, object, op)| WireMsg::Request {
                        op_id: op_id.index(),
                        object: object.index() as u64,
                        op,
                    }),
            );
            for chunk in self.group.chunks(MAX_BATCH) {
                // A lone request travels as itself, so one-object-per-server
                // rounds (ABD's) are unchanged on the wire.
                let frame = match chunk {
                    [request] => request.clone(),
                    requests => WireMsg::Batch(requests.to_vec()),
                };
                if let Some(transport) = &mut self.transports[server] {
                    if transport.send(&frame).is_err() {
                        self.transports[server] = None;
                    }
                }
            }
        }
        self.node.recycle(triggers);
        if let Some(response) = effects.completion {
            let (high, _op) = self.node.finish(response);
            if let Some((recorder, client)) = &self.recorder {
                recorder.record_return(*client, high.index(), response);
            }
            return Ok(Some(response));
        }
        Ok(None)
    }
}

/// Scrapes one server's [`NodeStats`] over TCP: connects, sends a
/// [`WireMsg::StatsQuery`] and waits up to `timeout` for the reply.
///
/// The exchange is read-only on the server side — it takes the state lock
/// once to pair the counters with the logical clock, never touching the
/// register state — so scraping a busy node is safe.
pub fn scrape_stats(addr: SocketAddr, timeout: Duration) -> Result<NodeStats, ServeError> {
    let mut transport = TcpTransport::connect(addr, timeout)?;
    transport.send(&WireMsg::StatsQuery)?;
    let started = Instant::now();
    while started.elapsed() < timeout {
        match transport.recv_timeout(Duration::from_millis(10))? {
            Some(WireMsg::StatsReply { stats }) => return Ok(stats),
            Some(other) => {
                return Err(ServeError::Config(format!(
                    "unexpected reply to a stats query: {other:?}"
                )))
            }
            None => {}
        }
    }
    Err(ServeError::Timeout {
        what: "stats reply".to_string(),
        waited: started.elapsed(),
    })
}

/// A fleet of writer/reader clients to fan out across threads.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Which emulation every client runs.
    pub emulation: FuzzEmulation,
    /// The emulation's `(k, f, n)` parameters.
    pub params: Params,
    /// Writer clients (at most `params.k` for the bounded-writer
    /// constructions).
    pub writers: usize,
    /// Reader clients.
    pub readers: usize,
    /// High-level write rounds per writer (and reads per reader).
    pub rounds: usize,
    /// Whether each writer reads back after every write.
    pub read_after_each: bool,
    /// Per-client operation rate cap in ops/sec (`None` = as fast as
    /// possible).
    pub rate: Option<f64>,
}

/// What a [`run_fleet`] campaign did.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Completed high-level operations across all clients.
    pub ops: u64,
    /// Operations that timed out (each poisons its client).
    pub timeouts: u64,
    /// Clients that failed for any other reason.
    pub errors: u64,
    /// Wall-clock time of the whole fleet.
    pub elapsed: Duration,
    /// Latency of completed operations, in microseconds.
    pub histogram: LatencyHistogram,
    /// Completed operations per [`FleetOutcome::TIMELINE_BUCKET_MS`]-wide
    /// wall-clock bucket since the fleet started: the throughput timeline
    /// `serve load` puts in its JSON report. Bucket 0 covers the first
    /// interval; trailing buckets may be absent if no op landed there.
    pub timeline: Vec<u64>,
}

impl FleetOutcome {
    /// Width of one [`FleetOutcome::timeline`] bucket, in milliseconds.
    pub const TIMELINE_BUCKET_MS: u64 = 250;

    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs `spec` against TCP servers at `addrs`, one thread per client.
///
/// Each thread builds its own emulation instance from the `Copy`able spec
/// (protocol state machines are not `Send`), connects, and runs its rounds.
/// Writer `c` writes the distinct values `c*rounds + r + 1`; conformance
/// client indices are writers first, then readers.
pub fn run_fleet(
    spec: FleetSpec,
    addrs: &[SocketAddr],
    options: &ClientOptions,
    recorder: Option<Arc<ConformRecorder>>,
) -> Result<FleetOutcome, ServeError> {
    if spec.writers > spec.params.k {
        return Err(ServeError::Config(format!(
            "{} writers but the emulation supports k = {}",
            spec.writers, spec.params.k
        )));
    }
    let started = Instant::now();
    let mut workers = Vec::new();
    for client in 0..spec.writers + spec.readers {
        let addrs = addrs.to_vec();
        let options = options.clone();
        let recorder = recorder.clone();
        workers.push(std::thread::spawn(move || {
            run_fleet_client(spec, client, &addrs, options, recorder, started)
        }));
    }
    let mut outcome = FleetOutcome {
        ops: 0,
        timeouts: 0,
        errors: 0,
        elapsed: Duration::ZERO,
        histogram: LatencyHistogram::new(),
        timeline: Vec::new(),
    };
    for worker in workers {
        let (hist, timeline, ops, timeouts, errors) = worker
            .join()
            .map_err(|_| ServeError::Config("fleet worker panicked".to_string()))?;
        outcome.histogram.merge(&hist);
        for (bucket, count) in timeline.into_iter().enumerate() {
            if outcome.timeline.len() <= bucket {
                outcome.timeline.resize(bucket + 1, 0);
            }
            outcome.timeline[bucket] += count;
        }
        outcome.ops += ops;
        outcome.timeouts += timeouts;
        outcome.errors += errors;
    }
    outcome.elapsed = started.elapsed();
    Ok(outcome)
}

/// One fleet worker: returns `(histogram, timeline, ops, timeouts, errors)`.
fn run_fleet_client(
    spec: FleetSpec,
    client: usize,
    addrs: &[SocketAddr],
    options: ClientOptions,
    recorder: Option<Arc<ConformRecorder>>,
    fleet_started: Instant,
) -> (LatencyHistogram, Vec<u64>, u64, u64, u64) {
    let mut hist = LatencyHistogram::new();
    let mut timeline: Vec<u64> = Vec::new();
    let emulation = spec.emulation.build(spec.params);
    let is_writer = client < spec.writers;
    let protocol = if is_writer {
        emulation.writer_protocol(client)
    } else {
        emulation.reader_protocol()
    };
    let mut live = match LiveClient::connect_tcp(
        emulation.topology().clone(),
        ClientId::new(client),
        protocol,
        addrs,
        options,
    ) {
        Ok(live) => live,
        Err(_) => return (hist, timeline, 0, 0, 1),
    };
    if let Some(recorder) = recorder {
        live = live.with_recorder(recorder, client);
    }
    let mut ops = Vec::new();
    for round in 0..spec.rounds {
        if is_writer {
            ops.push(HighOp::Write((client * spec.rounds + round + 1) as u64));
            if spec.read_after_each {
                ops.push(HighOp::Read);
            }
        } else {
            ops.push(HighOp::Read);
        }
    }
    let (mut done, mut timeouts, mut errors) = (0u64, 0u64, 0u64);
    let pace_start = Instant::now();
    for (index, op) in ops.into_iter().enumerate() {
        if let Some(rate) = spec.rate {
            let due = pace_start + Duration::from_secs_f64(index as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let op_started = Instant::now();
        match live.run_op(op) {
            Ok(_) => {
                hist.record(op_started.elapsed().as_micros() as u64);
                let bucket = (fleet_started.elapsed().as_millis() as u64
                    / FleetOutcome::TIMELINE_BUCKET_MS) as usize;
                if timeline.len() <= bucket {
                    timeline.resize(bucket + 1, 0);
                }
                timeline[bucket] += 1;
                done += 1;
            }
            Err(ServeError::Timeout { .. }) => {
                // The client is poisoned (the op is still pending); stop it.
                timeouts += 1;
                break;
            }
            Err(_) => {
                errors += 1;
                break;
            }
        }
    }
    (hist, timeline, done, timeouts, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve_channel, ServerHandle};
    use crate::transport::ChannelTransport;
    use regemu_core::EmulationKind;
    use regemu_fpsm::ServerNode;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts the frames and the requests inside them that a client sends.
    struct CountingTransport {
        inner: ChannelTransport,
        frames: Arc<AtomicUsize>,
        requests: Arc<AtomicUsize>,
    }

    impl Transport for CountingTransport {
        fn send(&mut self, msg: &WireMsg) -> Result<(), ServeError> {
            self.frames.fetch_add(1, Ordering::Relaxed);
            let requests = match msg {
                WireMsg::Batch(items) => items.len(),
                _ => 1,
            };
            self.requests.fetch_add(requests, Ordering::Relaxed);
            self.inner.send(msg)
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMsg>, ServeError> {
            self.inner.recv_timeout(timeout)
        }

        fn peer(&self) -> String {
            self.inner.peer()
        }
    }

    /// Serves every server of `kind` at `(k, 1, 3)` in-process and connects
    /// writer 0 to them, each transport wrapped by `wrap`.
    fn channel_client(
        kind: EmulationKind,
        k: usize,
        wrap: impl Fn(ChannelTransport) -> Box<dyn Transport>,
    ) -> (LiveClient, Vec<ServerHandle>) {
        let emulation = kind.build(Params::new(k, 1, 3).unwrap());
        let topology = emulation.topology().clone();
        let mut handles = Vec::new();
        let mut transports = Vec::new();
        for server in topology.servers() {
            let (handle, connector) =
                serve_channel(ServerNode::new(&topology, server), None).unwrap();
            transports.push(Some(wrap(connector.connect().unwrap())));
            handles.push(handle);
        }
        let client = LiveClient::new(
            topology,
            ClientId::new(0),
            emulation.writer_protocol(0),
            transports,
            ClientOptions::default(),
        )
        .unwrap();
        (client, handles)
    }

    /// Frames and requests writer 0 sends for one space-optimal write at
    /// `(k, 1, 3)`.
    fn count_one_write(k: usize) -> (usize, usize) {
        let frames = Arc::new(AtomicUsize::new(0));
        let requests = Arc::new(AtomicUsize::new(0));
        let (mut client, handles) = channel_client(EmulationKind::SpaceOptimal, k, |inner| {
            Box::new(CountingTransport {
                inner,
                frames: Arc::clone(&frames),
                requests: Arc::clone(&requests),
            })
        });
        assert_eq!(
            client.run_op(HighOp::Write(1)).unwrap(),
            HighResponse::WriteAck
        );
        drop(client);
        for handle in handles {
            handle.join().unwrap();
        }
        (
            frames.load(Ordering::Relaxed),
            requests.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn a_space_optimal_write_sends_one_frame_per_server_per_round() {
        // Two rounds over three servers: the collect reads all 24 registers
        // (8 per server), then the write phase writes R_0's 3 registers.
        assert_eq!(count_one_write(8), (2 * 3, 24 + 3));
        // At k = 100 each server hosts 100 registers: its collect requests
        // leave as two batches, 64 + 36.
        assert_eq!(count_one_write(100), (2 * 3 + 3, 300 + 3));
    }

    #[test]
    fn every_server_is_read_so_nothing_piles_up_in_flight() {
        let (mut client, handles) =
            channel_client(EmulationKind::AbdMaxRegister, 8, |inner| Box::new(inner));
        let mut peak = 0;
        let mut written = 0;
        for index in 0..2_000u64 {
            if index % 10 == 0 {
                written = index + 1;
                assert_eq!(
                    client.run_op(HighOp::Write(written)).unwrap(),
                    HighResponse::WriteAck
                );
            } else {
                assert_eq!(
                    client.run_op(HighOp::Read).unwrap(),
                    HighResponse::ReadValue(written)
                );
            }
            peak = peak.max(client.in_flight.len() + client.replies.len());
        }
        // A quorum needs two of the three servers; the third one's replies
        // must still be read rather than left queued. A server nobody reads
        // leaves about one more reply outstanding per operation, so well
        // over a thousand after 2,000 operations. A slow server on a busy
        // machine can leave a few rounds in flight when the quorum
        // completes, so the bound sits far above that and far below the
        // pile-up.
        assert!(peak <= 64, "{peak} replies outstanding after an operation");
        drop(client);
        for handle in handles {
            handle.join().unwrap();
        }
    }
}
