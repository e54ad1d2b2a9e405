//! The live server: one paper server's base objects behind a transport.
//!
//! A server hosts the slice `δ⁻¹(s)` of the topology's base objects
//! ([`regemu_fpsm::ServerNode`]) and answers [`WireMsg::Request`]s with
//! [`WireMsg::Response`]s. Applying a request while holding the state lock
//! *is* the operation's linearization point — exactly Assumption 1 of the
//! paper, which is what makes a live run checkable against the simulator.
//!
//! A [`WireMsg::Batch`] of requests is applied in order under one
//! acquisition of the state lock and answered with one batch of replies in
//! request order. Batching changes only the framing: each request is still
//! its own linearization point, with its own clock tick, its own `respond`
//! line in the conformance log and its own counters, and a request that
//! faults becomes a `Fault` item without stopping the rest.
//!
//! Two front-ends share the same connection handler: [`serve_tcp`] accepts
//! loopback/network clients thread-per-connection (no async runtime), and
//! [`serve_channel`] hands out in-process [`ChannelTransport`] endpoints for
//! tests and doc examples.

use crate::transport::{ChannelTransport, ServeError, Transport};
use regemu_core::wire::{FaultCode, NodeStats, WireMsg};
use regemu_fpsm::{BaseOp, NodeError, ObjectError, ObjectId, ServerNode};
use regemu_obs::{Counter, Gauge};
use regemu_workloads::conform::{ConformRecord, LowOpKind, CONFORM_HEADER};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection handler sleeps in `recv_timeout` before re-checking
/// the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Per-server telemetry handles into the global `regemu-obs` registry.
///
/// The counters live under `serve.server<N>.*` so a multi-node process (the
/// loopback tests boot several) keeps each server's tallies apart. Handles
/// are resolved once at boot and shared by every connection handler; the
/// wire-visible [`NodeStats`] frame is a plain read of these atomics plus
/// the state lock's clock, so scraping never perturbs request handling.
struct NodeMetrics {
    requests: Arc<Counter>,
    responses: Arc<Counter>,
    faults: Arc<Counter>,
    in_flight: Arc<Gauge>,
}

impl NodeMetrics {
    fn for_server(index: usize) -> Arc<NodeMetrics> {
        let registry = regemu_obs::global();
        Arc::new(NodeMetrics {
            requests: registry.counter(&format!("serve.server{index}.requests")),
            responses: registry.counter(&format!("serve.server{index}.responses")),
            faults: registry.counter(&format!("serve.server{index}.faults")),
            in_flight: registry.gauge(&format!("serve.server{index}.in_flight")),
        })
    }

    fn stats(&self, applied: u64) -> NodeStats {
        NodeStats {
            requests: self.requests.get(),
            responses: self.responses.get(),
            faults: self.faults.get(),
            in_flight: self.in_flight.get().max(0) as u64,
            applied,
        }
    }
}

/// Mutable server state shared by all connection handlers.
struct ServerState {
    node: ServerNode,
    /// Logical clock: incremented once per applied (linearized) operation.
    clock: u64,
    /// Conformance log sink; `respond` lines are flushed as they happen so a
    /// killed process still leaves a parseable log.
    log: Option<std::fs::File>,
    /// Telemetry handles shared with every connection handler.
    metrics: Arc<NodeMetrics>,
}

impl ServerState {
    fn apply_request(&mut self, op_id: u64, object: u64, op: &BaseOp) -> WireMsg {
        let oid = ObjectId::new(object as usize);
        match self.node.apply(oid, op) {
            Ok(response) => {
                self.clock += 1;
                if let Some(file) = &mut self.log {
                    let line = ConformRecord::Respond {
                        clock: self.clock,
                        server: self.node.server().index(),
                        object: object as usize,
                        kind: LowOpKind::of(op),
                    }
                    .to_line();
                    // Log failures must not take the server down mid-run;
                    // the conformance merge detects the truncated log.
                    let _ = writeln!(file, "{line}");
                    let _ = file.flush();
                }
                WireMsg::Response {
                    op_id,
                    clock: self.clock,
                    response,
                }
            }
            Err(NodeError::NotHosted { .. }) => WireMsg::Fault {
                op_id,
                code: FaultCode::NotHosted,
            },
            Err(NodeError::Object(ObjectError::UnsupportedOp { .. })) => WireMsg::Fault {
                op_id,
                code: FaultCode::UnsupportedOp,
            },
            Err(NodeError::Object(ObjectError::Crashed(_))) => WireMsg::Fault {
                op_id,
                code: FaultCode::Crashed,
            },
        }
    }
}

/// Handle to a running server (TCP or in-process).
///
/// Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    local_addr: Option<SocketAddr>,
    state: Arc<Mutex<ServerState>>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address ([`serve_tcp`] only).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Total low-level operations applied so far.
    pub fn applied(&self) -> u64 {
        self.state.lock().expect("server state poisoned").clock
    }

    /// A point-in-time [`NodeStats`] snapshot — the same frame the server
    /// sends on the wire for a [`WireMsg::StatsQuery`].
    pub fn stats(&self) -> NodeStats {
        let state = self.state.lock().expect("server state poisoned");
        state.metrics.stats(state.clock)
    }

    /// Asks the accept loop and every connection handler to stop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for all server threads to exit, then closes the conformance log
    /// cleanly (`clock`/`end` trailer). Implies [`ServerHandle::shutdown`].
    pub fn join(mut self) -> Result<(), ServeError> {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| ServeError::Config("server thread panicked".to_string()))?;
        }
        let mut state = self.state.lock().expect("server state poisoned");
        if let Some(mut file) = state.log.take() {
            writeln!(file, "clock {}", state.clock)?;
            writeln!(file, "end")?;
            file.flush()?;
        }
        Ok(())
    }
}

/// A point-in-time [`NodeStats`] snapshot of a running server — free-function
/// form of [`ServerHandle::stats`] for callers holding only a reference.
pub fn node_stats(handle: &ServerHandle) -> NodeStats {
    handle.stats()
}

fn open_log(path: &Path) -> Result<std::fs::File, ServeError> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{CONFORM_HEADER}")?;
    file.flush()?;
    Ok(file)
}

/// Applies `requests` in order under one acquisition of the state lock and
/// returns one reply per request, in request order. `None` — with nothing
/// applied — if any item is not a request.
fn apply_requests(
    state: &Mutex<ServerState>,
    metrics: &NodeMetrics,
    requests: &[WireMsg],
) -> Option<Vec<WireMsg>> {
    if !requests
        .iter()
        .all(|msg| matches!(msg, WireMsg::Request { .. }))
    {
        return None;
    }
    let count = requests.len() as u64;
    metrics.requests.add(count);
    // Raised before taking the state lock so the gauge counts requests
    // queued behind the linearization point too.
    metrics.in_flight.add(count as i64);
    let replies: Vec<WireMsg> = {
        let mut state = state.lock().expect("server state poisoned");
        requests
            .iter()
            .filter_map(|msg| match msg {
                WireMsg::Request { op_id, object, op } => {
                    Some(state.apply_request(*op_id, *object, op))
                }
                _ => None,
            })
            .collect()
    };
    metrics.in_flight.add(-(count as i64));
    for reply in &replies {
        match reply {
            WireMsg::Fault { .. } => metrics.faults.incr(),
            _ => metrics.responses.incr(),
        }
    }
    Some(replies)
}

fn handle_connection<T: Transport>(
    mut transport: T,
    state: &Arc<Mutex<ServerState>>,
    shutdown: &AtomicBool,
) {
    let metrics = Arc::clone(&state.lock().expect("server state poisoned").metrics);
    while !shutdown.load(Ordering::SeqCst) {
        let reply = match transport.recv_timeout(POLL) {
            Ok(Some(request @ WireMsg::Request { .. })) => {
                apply_requests(state, &metrics, std::slice::from_ref(&request))
                    .and_then(|mut replies| replies.pop())
            }
            Ok(Some(WireMsg::Batch(requests))) => {
                apply_requests(state, &metrics, &requests).map(WireMsg::Batch)
            }
            Ok(Some(WireMsg::StatsQuery)) => {
                let state = state.lock().expect("server state poisoned");
                Some(WireMsg::StatsReply {
                    stats: state.metrics.stats(state.clock),
                })
            }
            // Clients only send requests; anything else is a confused peer.
            Ok(Some(_)) => None,
            Ok(None) => continue,
            // Disconnect or garbage: drop the connection, keep the server.
            Err(_) => return,
        };
        match reply {
            Some(reply) if transport.send(&reply).is_ok() => {}
            _ => return,
        }
    }
}

fn make_state(node: ServerNode, log: Option<&Path>) -> Result<Arc<Mutex<ServerState>>, ServeError> {
    let log = match log {
        Some(path) => Some(open_log(path)?),
        None => None,
    };
    let metrics = NodeMetrics::for_server(node.server().index());
    Ok(Arc::new(Mutex::new(ServerState {
        node,
        clock: 0,
        log,
        metrics,
    })))
}

/// Boots `node` on a TCP listener bound to `listen` (use port 0 for an
/// ephemeral port; read it back from [`ServerHandle::local_addr`]).
///
/// When `log` is given, every applied operation appends a `respond` line to
/// the conformance log at that path.
pub fn serve_tcp(
    node: ServerNode,
    listen: SocketAddr,
    log: Option<&Path>,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(listen)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let state = make_state(node, log)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let Ok(transport) = crate::transport::TcpTransport::from_stream(stream)
                        else {
                            continue;
                        };
                        let state = Arc::clone(&state);
                        let shutdown = Arc::clone(&shutdown);
                        handlers.push(std::thread::spawn(move || {
                            handle_connection(transport, &state, &shutdown)
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for handler in handlers {
                let _ = handler.join();
            }
        })
    };
    Ok(ServerHandle {
        local_addr: Some(local_addr),
        state,
        shutdown,
        accept: Some(accept),
    })
}

/// Mints in-process connections to a [`serve_channel`] server.
#[derive(Clone)]
pub struct ChannelConnector {
    tx: mpsc::Sender<ChannelTransport>,
    name: String,
}

impl ChannelConnector {
    /// Opens a new connection, returning the client-side transport.
    pub fn connect(&self) -> Result<ChannelTransport, ServeError> {
        let (client_end, server_end) = ChannelTransport::pair("client", &self.name);
        self.tx
            .send(server_end)
            .map_err(|_| ServeError::Disconnected {
                peer: self.name.clone(),
            })?;
        Ok(client_end)
    }
}

/// Boots `node` in-process: clients connect through the returned
/// [`ChannelConnector`] instead of a socket. Same handler, same wire codec —
/// only the byte pipe differs.
pub fn serve_channel(
    node: ServerNode,
    log: Option<&Path>,
) -> Result<(ServerHandle, ChannelConnector), ServeError> {
    let name = format!("server-{}", node.server().index());
    let state = make_state(node, log)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<ChannelTransport>();
    let accept = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !shutdown.load(Ordering::SeqCst) {
                match rx.recv_timeout(POLL) {
                    Ok(transport) => {
                        let state = Arc::clone(&state);
                        let shutdown = Arc::clone(&shutdown);
                        handlers.push(std::thread::spawn(move || {
                            handle_connection(transport, &state, &shutdown)
                        }));
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            for handler in handlers {
                let _ = handler.join();
            }
        })
    };
    Ok((
        ServerHandle {
            local_addr: None,
            state,
            shutdown,
            accept: Some(accept),
        },
        ChannelConnector { tx, name },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::{BaseResponse, ObjectKind, ServerId, Topology, Value};
    use std::time::Instant;

    fn one_register_node() -> (Topology, ServerNode) {
        let mut t = Topology::new(1);
        t.add_object_per_server(ObjectKind::Register);
        let node = ServerNode::new(&t, ServerId::new(0));
        (t, node)
    }

    fn request(op_id: u64, object: u64, op: BaseOp) -> WireMsg {
        WireMsg::Request { op_id, object, op }
    }

    #[test]
    fn channel_server_applies_ops_and_stamps_clock() {
        let (_t, node) = one_register_node();
        let (handle, connector) = serve_channel(node, None).unwrap();
        let mut conn = connector.connect().unwrap();
        conn.send(&request(1, 0, BaseOp::Write(Value::new(1, 7))))
            .unwrap();
        let reply = recv(&mut conn);
        assert_eq!(
            reply,
            WireMsg::Response {
                op_id: 1,
                clock: 1,
                response: BaseResponse::WriteAck,
            }
        );
        conn.send(&request(2, 0, BaseOp::Read)).unwrap();
        assert_eq!(
            recv(&mut conn),
            WireMsg::Response {
                op_id: 2,
                clock: 2,
                response: BaseResponse::ReadValue(Value::new(1, 7)),
            }
        );
        assert_eq!(handle.applied(), 2);
        handle.join().unwrap();
    }

    #[test]
    fn faults_are_reported_not_panicked() {
        let (_t, node) = one_register_node();
        let (handle, connector) = serve_channel(node, None).unwrap();
        let mut conn = connector.connect().unwrap();
        // Object 7 does not exist on this server.
        conn.send(&request(1, 7, BaseOp::Read)).unwrap();
        assert_eq!(
            recv(&mut conn),
            WireMsg::Fault {
                op_id: 1,
                code: FaultCode::NotHosted,
            }
        );
        // write-max on a plain register is outside the interface.
        conn.send(&request(2, 0, BaseOp::WriteMax(Value::new(1, 1))))
            .unwrap();
        assert_eq!(
            recv(&mut conn),
            WireMsg::Fault {
                op_id: 2,
                code: FaultCode::UnsupportedOp,
            }
        );
        assert_eq!(handle.applied(), 0);
        handle.join().unwrap();
    }

    #[test]
    fn stats_query_reports_node_counters_without_dropping_the_connection() {
        let (_t, node) = one_register_node();
        let (handle, connector) = serve_channel(node, None).unwrap();
        let mut conn = connector.connect().unwrap();
        conn.send(&request(1, 0, BaseOp::Write(Value::new(1, 3))))
            .unwrap();
        assert!(matches!(recv(&mut conn), WireMsg::Response { .. }));
        // Object 9 is not hosted: a fault, counted separately.
        conn.send(&request(2, 9, BaseOp::Read)).unwrap();
        assert!(matches!(recv(&mut conn), WireMsg::Fault { .. }));
        conn.send(&WireMsg::StatsQuery).unwrap();
        let WireMsg::StatsReply { stats } = recv(&mut conn) else {
            panic!("expected a stats reply");
        };
        // Counter names are global per server index, so parallel tests may
        // also bump them; assert lower bounds plus the per-handle clock.
        assert_eq!(stats.applied, 1);
        assert!(stats.requests >= 2);
        assert!(stats.responses >= 1);
        assert!(stats.faults >= 1);
        assert_eq!(node_stats(&handle).applied, 1);
        // The connection is still usable after a stats exchange.
        conn.send(&request(3, 0, BaseOp::Read)).unwrap();
        assert!(matches!(recv(&mut conn), WireMsg::Response { .. }));
        handle.join().unwrap();
    }

    #[test]
    fn tcp_server_round_trips_and_writes_conform_log() {
        use regemu_workloads::conform::ConformLog;
        let dir = std::env::temp_dir().join(format!("regemu-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("node0.conform");
        let (_t, node) = one_register_node();
        let handle = serve_tcp(
            node,
            "127.0.0.1:0".parse().unwrap(),
            Some(log_path.as_path()),
        )
        .unwrap();
        let addr = handle.local_addr().unwrap();
        let mut conn =
            crate::transport::TcpTransport::connect(addr, Duration::from_secs(1)).unwrap();
        conn.send(&request(5, 0, BaseOp::Write(Value::new(2, 9))))
            .unwrap();
        assert!(matches!(
            recv(&mut conn),
            WireMsg::Response { clock: 1, .. }
        ));
        handle.join().unwrap();
        let log = ConformLog::load(&log_path).unwrap();
        assert!(log.complete);
        assert_eq!(log.final_clock, 1);
        assert_eq!(
            log.records,
            vec![ConformRecord::Respond {
                clock: 1,
                server: 0,
                object: 0,
                kind: LowOpKind::Write,
            }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_batch_is_applied_in_order_and_answered_with_one_frame() {
        use regemu_workloads::conform::ConformLog;
        let dir = std::env::temp_dir().join(format!("regemu-serve-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("node0.conform");
        let mut t = Topology::new(1);
        for _ in 0..4 {
            t.add_object_per_server(ObjectKind::Register);
        }
        let node = ServerNode::new(&t, ServerId::new(0));
        let (handle, connector) = serve_channel(node, Some(log_path.as_path())).unwrap();
        let mut conn = connector.connect().unwrap();

        // Four writes, then four reads of the same registers.
        let writes = (0..4).map(|i| request(i, i, BaseOp::Write(Value::new(1, 10 + i))));
        let reads = (0..4).map(|i| request(4 + i, i, BaseOp::Read));
        conn.send(&WireMsg::Batch(writes.chain(reads).collect()))
            .unwrap();
        let WireMsg::Batch(replies) = recv(&mut conn) else {
            panic!("a batch must be answered with a batch");
        };
        let expected: Vec<WireMsg> = (0..8)
            .map(|i| WireMsg::Response {
                op_id: i,
                clock: i + 1,
                response: if i < 4 {
                    BaseResponse::WriteAck
                } else {
                    BaseResponse::ReadValue(Value::new(1, 10 + i - 4))
                },
            })
            .collect();
        assert_eq!(replies, expected);
        // Exactly one reply frame.
        assert_eq!(conn.recv_timeout(Duration::from_millis(50)).unwrap(), None);

        // A request the server cannot apply becomes a fault item; the rest
        // of the batch is still applied.
        conn.send(&WireMsg::Batch(vec![
            request(8, 0, BaseOp::Read),
            request(9, 7, BaseOp::Read),
            request(10, 1, BaseOp::Read),
        ]))
        .unwrap();
        let WireMsg::Batch(replies) = recv(&mut conn) else {
            panic!("a batch must be answered with a batch");
        };
        assert_eq!(
            replies,
            vec![
                WireMsg::Response {
                    op_id: 8,
                    clock: 9,
                    response: BaseResponse::ReadValue(Value::new(1, 10)),
                },
                WireMsg::Fault {
                    op_id: 9,
                    code: FaultCode::NotHosted,
                },
                WireMsg::Response {
                    op_id: 10,
                    clock: 10,
                    response: BaseResponse::ReadValue(Value::new(1, 11)),
                },
            ]
        );

        // A batch carrying anything but requests is a confused peer: the
        // connection drops and nothing is applied.
        conn.send(&WireMsg::Batch(vec![
            request(11, 0, BaseOp::Read),
            WireMsg::Fault {
                op_id: 12,
                code: FaultCode::Crashed,
            },
        ]))
        .unwrap();
        assert!(conn.recv_timeout(Duration::from_secs(5)).is_err());
        assert_eq!(handle.applied(), 10);
        handle.join().unwrap();

        // Every applied request has its own `respond` line and clock tick.
        let log = ConformLog::load(&log_path).unwrap();
        assert!(log.complete);
        assert_eq!(log.final_clock, 10);
        let clocks: Vec<u64> = log
            .records
            .iter()
            .map(|record| match record {
                ConformRecord::Respond { clock, .. } => *clock,
                other => panic!("unexpected server record {other:?}"),
            })
            .collect();
        assert_eq!(clocks, (1..=10).collect::<Vec<u64>>());
        assert_eq!(
            log.records[..8]
                .iter()
                .filter(|r| matches!(
                    r,
                    ConformRecord::Respond {
                        kind: LowOpKind::Write,
                        ..
                    }
                ))
                .count(),
            4
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn recv(t: &mut dyn Transport) -> WireMsg {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(msg) = t.recv_timeout(Duration::from_millis(100)).unwrap() {
                return msg;
            }
        }
        panic!("server did not reply in time");
    }
}
