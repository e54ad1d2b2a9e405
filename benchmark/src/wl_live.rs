//! `live_tcp_write` and `live_chan_mixed`: the deployment face.
//!
//! Three in-process servers at `(k, f, n) = (8, 1, 3)` — `n = 3` is the
//! protocol floor for `f = 1` — and **one closed-loop client thread**:
//! callers of a register wait for their reply, so the next operation is
//! issued only when the previous one returned. One client needs one
//! connection per server.
//!
//! * `live_tcp_write` runs Algorithm 2 (space-optimal) over loopback TCP,
//!   writes only: the paper's expensive end, ~26 messages per write.
//! * `live_chan_mixed` runs ABD over max-registers through in-process
//!   channels with a seeded 90 % read / 10 % write mix: the same client and
//!   handler code with the socket removed and reads beside writes.

use crate::harness::{Ctx, Layers, Repeat, Verified, Workload};
use crate::trace::{Agg, Tracer};
use crate::wrappers::{TimingTransport, TransportSeen};
use crate::{probes, stats};
use regemu_bounds::Params;
use regemu_core::{Emulation, EmulationKind};
use regemu_fpsm::{ClientId, HighOp, HighResponse, ServerNode};
use regemu_serve::{
    node_stats, serve_channel, serve_tcp, ChannelConnector, ClientOptions, LiveClient,
    ServerHandle, TcpTransport, Transport,
};
use regemu_workloads::conform::{check_history, merge_logs, ConformRecorder};
use regemu_workloads::ConsistencyCheck;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Operations per repeat at divisor 1 (about 0.9 s on the reference box).
const TCP_WRITES: usize = 5_000;
const CHAN_OPS: usize = 20_000;
/// Share of writes in the `live_chan_mixed` mix, in percent.
const WRITE_PERCENT: u64 = 10;
/// Operations of the untimed conformance run.
const CONFORM_OPS: usize = 200;

fn point() -> Params {
    Params::new(8, 1, 3).expect("(8,1,3) is feasible")
}

/// The seeded read/write mix: SplitMix64, so the benchmark owns its inputs
/// and the programs under test receive only the generated operations.
fn mix(seed: u64, len: usize, write_percent: u64) -> Vec<bool> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 100 < write_percent
        })
        .collect()
}

/// Three served nodes and how to reach them.
struct Cluster {
    emulation: Box<dyn Emulation>,
    handles: Vec<ServerHandle>,
    addrs: Vec<SocketAddr>,
    connectors: Vec<ChannelConnector>,
}

impl Cluster {
    fn boot(kind: EmulationKind, tcp: bool) -> Result<Self, String> {
        let emulation = kind.build(point());
        let mut cluster = Cluster {
            emulation,
            handles: Vec::new(),
            addrs: Vec::new(),
            connectors: Vec::new(),
        };
        for server in cluster.emulation.topology().servers() {
            let node = ServerNode::new(cluster.emulation.topology(), server);
            if tcp {
                let listen: SocketAddr = "127.0.0.1:0".parse().expect("a literal address");
                let handle =
                    serve_tcp(node, listen, None).map_err(|e| format!("serve_tcp: {e}"))?;
                cluster
                    .addrs
                    .push(handle.local_addr().ok_or("serve_tcp bound no address")?);
                cluster.handles.push(handle);
            } else {
                let (handle, connector) =
                    serve_channel(node, None).map_err(|e| format!("serve_channel: {e}"))?;
                cluster.handles.push(handle);
                cluster.connectors.push(connector);
            }
        }
        Ok(cluster)
    }

    /// One connection per server; with `seen`, each wrapped in a
    /// [`TimingTransport`].
    fn transports(
        &self,
        seen: Option<&Arc<TransportSeen>>,
    ) -> Result<Vec<Option<Box<dyn Transport>>>, String> {
        let timeout = ClientOptions::default().connect_timeout;
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        for addr in &self.addrs {
            let transport = TcpTransport::connect(*addr, timeout)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            transports.push(Box::new(transport));
        }
        for connector in &self.connectors {
            let transport = connector
                .connect()
                .map_err(|e| format!("channel connect: {e}"))?;
            transports.push(Box::new(transport));
        }
        Ok(transports
            .into_iter()
            .map(|t| match seen {
                Some(seen) => Some(TimingTransport::boxed(t, Arc::clone(seen))),
                None => Some(t),
            })
            .collect())
    }

    /// The sole client: writer 0's protocol, which also serves its reads.
    fn client(&self, seen: Option<&Arc<TransportSeen>>) -> Result<LiveClient, String> {
        let topology = self.emulation.topology().clone();
        let protocol = self.emulation.writer_protocol(0);
        let options = ClientOptions::default();
        let client = if seen.is_none() && !self.addrs.is_empty() {
            // The public TCP entry point, as `load_gen` uses it.
            LiveClient::connect_tcp(topology, ClientId::new(0), protocol, &self.addrs, options)
        } else {
            LiveClient::new(
                topology,
                ClientId::new(0),
                protocol,
                self.transports(seen)?,
                options,
            )
        };
        client.map_err(|e| format!("live client: {e}"))
    }

    /// Low-level operations applied so far, over all servers.
    fn applied(&self) -> u64 {
        self.handles.iter().map(ServerHandle::applied).sum()
    }

    fn faults(&self) -> u64 {
        self.handles.iter().map(|h| node_stats(h).faults).sum()
    }

    fn shutdown(self) -> Result<(), String> {
        for handle in self.handles {
            handle.join().map_err(|e| format!("server join: {e}"))?;
        }
        Ok(())
    }
}

/// A client, the cluster it talks to, and the sole writer's last value.
struct Session {
    client: LiveClient,
    cluster: Cluster,
    last_written: u64,
}

/// What one pass over the mix did.
#[derive(Default)]
struct Pass {
    completed: u64,
    failed: u64,
    failures: Vec<String>,
    writes: u64,
    lat_ns: Vec<u64>,
    run_op: Agg,
}

impl Session {
    fn open(
        kind: EmulationKind,
        tcp: bool,
        seen: Option<&Arc<TransportSeen>>,
    ) -> Result<Self, String> {
        let cluster = Cluster::boot(kind, tcp)?;
        let client = cluster.client(seen)?;
        let mut session = Session {
            client,
            cluster,
            last_written: 0,
        };
        // A first write, so every later read has a written value to return.
        let first = session.run(&[true]);
        if first.failed > 0 {
            return Err(format!("first write failed: {:?}", first.failures));
        }
        Ok(session)
    }

    /// Runs `ops` (`true` = write) one at a time, timing each and checking
    /// each reply: a write returns `WriteAck`, a read the last value the
    /// sole writer wrote. An error poisons the client, so the rest of the
    /// pass counts as failed.
    fn run(&mut self, ops: &[bool]) -> Pass {
        let mut pass = Pass {
            lat_ns: Vec::with_capacity(ops.len()),
            ..Pass::default()
        };
        for (index, &write) in ops.iter().enumerate() {
            let (op, expected) = if write {
                pass.writes += 1;
                (HighOp::Write(self.last_written + 1), HighResponse::WriteAck)
            } else {
                (HighOp::Read, HighResponse::ReadValue(self.last_written))
            };
            let started = Instant::now();
            let outcome = self.client.run_op(op);
            let elapsed = started.elapsed();
            pass.run_op.add(elapsed);
            match outcome {
                Ok(response) if response == expected => {
                    pass.lat_ns.push(elapsed.as_nanos() as u64);
                    pass.completed += 1;
                }
                Ok(response) => {
                    pass.failed += 1;
                    pass.failures.push(format!(
                        "op {index} {op:?} returned {response:?}, expected {expected:?}"
                    ));
                }
                Err(error) => {
                    let rest = (ops.len() - index) as u64;
                    pass.failed += rest;
                    pass.failures.push(format!(
                        "op {index} {op:?}: {error}; {rest} operations not completed"
                    ));
                    break;
                }
            }
            if write {
                self.last_written += 1;
            }
        }
        pass
    }

    fn close(self) -> Result<(), String> {
        // Dropping the client closes its connections, which ends the
        // servers' connection handlers before the accept loops are joined.
        drop(self.client);
        self.cluster.shutdown()
    }
}

/// `live_tcp_write` (`TCP = true`) and `live_chan_mixed` (`false`).
pub struct Live<const TCP: bool> {
    session: Session,
    /// The full-size mix; a repeat at divisor `d` runs its first `len / d`.
    ops: Vec<bool>,
}

impl<const TCP: bool> Live<TCP> {
    fn kind() -> EmulationKind {
        if TCP {
            EmulationKind::SpaceOptimal
        } else {
            EmulationKind::AbdMaxRegister
        }
    }

    fn ops(&self, div: usize) -> &[bool] {
        &self.ops[..(self.ops.len() / div).max(8)]
    }
}

fn to_repeat(pass: Pass, wall: std::time::Duration, attempted: u64, applied: u64) -> Repeat {
    let mut sorted = pass.lat_ns;
    sorted.sort_unstable();
    let splits = match sorted.last() {
        Some(&max) => vec![
            (
                "serve.op_p99_us",
                stats::quantile_sorted(&sorted, 0.99) as f64 / 1e3,
            ),
            (
                "serve.op_p999_us",
                stats::quantile_sorted(&sorted, 0.999) as f64 / 1e3,
            ),
            ("serve.op_max_us", max as f64 / 1e3),
        ],
        None => Vec::new(),
    };
    Repeat {
        wall,
        ops: pass.completed,
        // Each applied request is one low-level trigger and one response.
        events: 2 * applied,
        attempted,
        failed: pass.failed,
        failures: pass.failures,
        lat_ns: sorted,
        exact: vec![
            ("live.completed".to_string(), pass.completed),
            ("live.writes".to_string(), pass.writes),
        ],
        splits,
    }
}

impl<const TCP: bool> Workload for Live<TCP> {
    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        let ops = if TCP {
            vec![true; TCP_WRITES]
        } else {
            mix(ctx.seed, CHAN_OPS, WRITE_PERCENT)
        };
        Ok(Live {
            session: Session::open(Self::kind(), TCP, None)?,
            ops,
        })
    }

    fn repeat(&mut self, div: usize) -> Result<Repeat, String> {
        let ops = self.ops(div).to_vec();
        let applied_before = self.session.cluster.applied();
        let started = Instant::now();
        let pass = self.session.run(&ops);
        let wall = started.elapsed();
        let applied = self.session.cluster.applied() - applied_before;
        Ok(to_repeat(pass, wall, ops.len() as u64, applied))
    }

    /// One short run with a `ConformRecorder` attached, judged WS-Regular by
    /// both checkers through `check_history`.
    fn verify(&mut self, div: usize) -> Result<Verified, String> {
        let ops: Vec<bool> = self.ops(div).iter().copied().take(CONFORM_OPS).collect();
        let recorder = Arc::new(ConformRecorder::new());
        let cluster = Cluster::boot(Self::kind(), TCP)?;
        let client = cluster
            .client(None)?
            .with_recorder(Arc::clone(&recorder), 0);
        let mut session = Session {
            client,
            cluster,
            last_written: 0,
        };
        let pass = session.run(&ops);
        session.close()?;
        let verdict = check_history(
            &merge_logs(&[recorder.to_log()]),
            ConsistencyCheck::WsRegular,
        );
        let mut verified = Verified {
            attempted: ops.len() as u64 + 1,
            failed: pass.failed,
            failures: pass.failures,
        };
        if !verdict.is_consistent() || !verdict.agrees() || verdict.complete_ops != ops.len() {
            verified.failed += 1;
            verified
                .failures
                .push(format!("conformance run: {verdict}"));
        }
        Ok(verified)
    }

    fn traced(
        &mut self,
        div: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Repeat, String> {
        // A fresh cluster: writer 0's protocol state cannot be handed from
        // the untraced client to one over wrapped transports.
        let seen = Arc::new(TransportSeen::default());
        let mut session = Session::open(Self::kind(), TCP, Some(&seen))?;
        let warm = self.ops(div * crate::harness::WARMUP_DIV).to_vec();
        session.run(&warm);
        let ops = self.ops(div).to_vec();
        let (send_before, recv_before, empty_before) =
            (seen.send.get(), seen.recv.get(), seen.empty_polls());
        let applied_before = session.cluster.applied();
        let started = Instant::now();
        let pass = session.run(&ops);
        let wall = started.elapsed();
        let applied = session.cluster.applied() - applied_before;
        let since = |now: Agg, before: Agg| Agg {
            count: now.count - before.count,
            total_ns: now.total_ns - before.total_ns,
            max_ns: now.max_ns,
        };
        let send = since(seen.send.get(), send_before);
        let recv = since(seen.recv.get(), recv_before);
        let empty_polls = seen.empty_polls() - empty_before;

        let run_op = tracer.aggregate("serve.run_op", "", None, pass.run_op);
        tracer.aggregate("serve.send", "", Some(run_op), send);
        tracer.aggregate("serve.recv", "", Some(run_op), recv);
        let per_op = |total_ns: u64| total_ns as f64 / 1e3 / ops.len() as f64;
        layers.set("serve.send_ns", send.mean_ns());
        layers.set("serve.recv_wait_us_per_op", per_op(recv.total_ns));
        layers.set(
            "serve.empty_polls_per_op",
            empty_polls as f64 / ops.len() as f64,
        );
        layers.set(
            "serve.client_self_us_per_op",
            per_op(tracer.self_ns(run_op)),
        );
        layers.set("serve.msgs_per_op", applied as f64 / ops.len() as f64);
        layers.set("serve.server_faults", session.cluster.faults() as f64);

        // Probes, outside the traced repeat.
        if TCP {
            let started = Instant::now();
            let extra = LiveClient::connect_tcp(
                session.cluster.emulation.topology().clone(),
                ClientId::new(1),
                session.cluster.emulation.reader_protocol(),
                &session.cluster.addrs,
                ClientOptions::default(),
            )
            .map_err(|e| format!("connect probe: {e}"))?;
            layers.set("serve.connect_ms", started.elapsed().as_secs_f64() * 1e3);
            drop(extra);
        }
        let repeat = to_repeat(pass, wall, ops.len() as u64, applied);
        session.close()?;

        layers.set("serve.rtt_tcp_us", probes::rtt_us(true)?);
        layers.set("serve.rtt_chan_us", probes::rtt_us(false)?);
        let (encode_ns, decode_ns) = probes::wire_codec_ns();
        layers.set("core.wire_encode_ns", encode_ns);
        layers.set("core.wire_decode_ns", decode_ns);
        let mix = self.ops(div * probes::PROTOCOL_DIV);
        layers.set(
            if TCP {
                "core.space_optimal.protocol_ns_per_op"
            } else {
                "core.abd_max_register.protocol_ns_per_op"
            },
            probes::protocol_ns_per_op(Self::kind(), point(), mix)?,
        );
        if !TCP {
            layers.set(
                "fpsm.server_apply_ns",
                probes::server_apply_ns(Self::kind(), point()),
            );
        }
        Ok(repeat)
    }

    fn teardown(self) -> Result<(), String> {
        self.session.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed_and_about_ten_percent_writes() {
        assert_eq!(mix(7, 1000, 10), mix(7, 1000, 10));
        assert_ne!(mix(7, 1000, 10), mix(8, 1000, 10));
        let writes = mix(1, 20_000, 10).iter().filter(|w| **w).count();
        assert!((1_700..2_300).contains(&writes), "{writes} writes");
    }
}
