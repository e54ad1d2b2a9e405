//! Layer probes of the live path: each isolates one cost a high-level
//! operation pays, by calling the layer's public functions in a bench-owned
//! loop with everything else removed.

use regemu_bounds::Params;
use regemu_core::wire::{decode_frame, WireMsg};
use regemu_core::EmulationKind;
use regemu_fpsm::{
    BaseOp, BaseResponse, ClientId, ClientNode, Delivery, HighOp, HighOpId, ObjectId, ObjectKind,
    OpId, ServerId, ServerNode, Topology, Value,
};
use regemu_serve::{serve_channel, serve_tcp, TcpTransport, Transport};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The protocol probe runs the workload's mix divided by this.
pub const PROTOCOL_DIV: usize = 4;

const RTT_ROUNDS: usize = 2_000;
const RTT_WARMUP: usize = 200;

/// Median round trip of one `Request` → `Response` against a single served
/// one-register node, over TCP or an in-process channel, in microseconds.
/// The difference between the two is the socket's cost.
pub fn rtt_us(tcp: bool) -> Result<f64, String> {
    let mut topology = Topology::new(1);
    let object = topology.add_object(ObjectKind::Register, ServerId::new(0));
    let node = ServerNode::new(&topology, ServerId::new(0));
    let (handle, mut transport): (_, Box<dyn Transport>) = if tcp {
        let listen: SocketAddr = "127.0.0.1:0".parse().expect("a literal address");
        let handle = serve_tcp(node, listen, None).map_err(|e| format!("rtt serve_tcp: {e}"))?;
        let addr = handle.local_addr().ok_or("rtt server bound no address")?;
        let transport = TcpTransport::connect(addr, Duration::from_secs(2))
            .map_err(|e| format!("rtt connect: {e}"))?;
        (handle, Box::new(transport))
    } else {
        let (handle, connector) =
            serve_channel(node, None).map_err(|e| format!("rtt serve_channel: {e}"))?;
        let transport = connector
            .connect()
            .map_err(|e| format!("rtt channel connect: {e}"))?;
        (handle, Box::new(transport))
    };
    let mut samples = Vec::with_capacity(RTT_ROUNDS);
    for round in 0..RTT_WARMUP + RTT_ROUNDS {
        let request = WireMsg::Request {
            op_id: round as u64,
            object: object.index() as u64,
            op: BaseOp::Read,
        };
        let started = Instant::now();
        transport
            .send(&request)
            .map_err(|e| format!("rtt send: {e}"))?;
        let reply = transport
            .recv_timeout(Duration::from_secs(1))
            .map_err(|e| format!("rtt recv: {e}"))?
            .ok_or("rtt probe: no reply within a second")?;
        let elapsed = started.elapsed();
        if !matches!(reply, WireMsg::Response { op_id, .. } if op_id == round as u64) {
            return Err(format!("rtt probe: unexpected reply {reply:?}"));
        }
        if round >= RTT_WARMUP {
            samples.push(elapsed.as_nanos() as u64);
        }
    }
    drop(transport);
    handle.join().map_err(|e| format!("rtt server join: {e}"))?;
    samples.sort_unstable();
    Ok(crate::stats::quantile_sorted(&samples, 0.5) as f64 / 1e3)
}

/// Mean nanoseconds to encode and to decode one frame, over a fixed corpus
/// of the requests and responses the emulations exchange.
pub fn wire_codec_ns() -> (f64, f64) {
    const PASSES: usize = 2_000;
    let value = Value::new(41, 7);
    let ops = [
        BaseOp::Read,
        BaseOp::Write(value),
        BaseOp::ReadMax,
        BaseOp::WriteMax(value),
        BaseOp::Cas {
            expected: value,
            new: value.bump(),
        },
    ];
    let responses = [
        BaseResponse::ReadValue(value),
        BaseResponse::WriteAck,
        BaseResponse::MaxValue(value),
        BaseResponse::WriteMaxAck,
        BaseResponse::CasOld(value),
    ];
    let mut corpus: Vec<WireMsg> = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        corpus.push(WireMsg::Request {
            op_id: 1_000 + i as u64,
            object: i as u64,
            op,
        });
    }
    for (i, response) in responses.into_iter().enumerate() {
        corpus.push(WireMsg::Response {
            op_id: 1_000 + i as u64,
            clock: 5_000 + i as u64,
            response,
        });
    }
    let started = Instant::now();
    for _ in 0..PASSES {
        for msg in &corpus {
            std::hint::black_box(std::hint::black_box(msg).encode_frame());
        }
    }
    let encode = started.elapsed();
    let frames: Vec<Vec<u8>> = corpus.iter().map(WireMsg::encode_frame).collect();
    let started = Instant::now();
    for _ in 0..PASSES {
        for frame in &frames {
            let decoded = decode_frame(std::hint::black_box(frame));
            assert!(
                matches!(decoded, Ok(Some((_, consumed))) if consumed == frame.len()),
                "the codec corpus must decode"
            );
        }
    }
    let decode = started.elapsed();
    let frames_timed = (PASSES * corpus.len()) as f64;
    (
        encode.as_nanos() as f64 / frames_timed,
        decode.as_nanos() as f64 / frames_timed,
    )
}

/// Mean nanoseconds per high-level operation of the protocol alone: writer
/// 0's `ClientNode` driven against in-memory `ServerNode`s, first come
/// first served, with no codec, transport, lock or thread in between.
/// Responses that arrive after their operation completed are delivered
/// during the next one, as they are on the live path.
pub fn protocol_ns_per_op(
    kind: EmulationKind,
    params: Params,
    mix: &[bool],
) -> Result<f64, String> {
    let emulation = kind.build(params);
    let topology = emulation.topology();
    let mut servers: Vec<ServerNode> = topology
        .servers()
        .map(|s| ServerNode::new(topology, s))
        .collect();
    let mut client = ClientNode::new(ClientId::new(0), emulation.writer_protocol(0));
    let mut next_op_id = 0u64;
    let mut time = 0u64;
    let mut in_flight: VecDeque<(OpId, ObjectId, BaseOp)> = VecDeque::new();
    let started = Instant::now();
    for (index, &write) in mix.iter().enumerate() {
        let op = if write {
            HighOp::Write(index as u64 + 1)
        } else {
            HighOp::Read
        };
        time += 1;
        let mut effects = client.on_invoke(HighOpId::new(index as u64), op, time, &mut next_op_id);
        loop {
            in_flight.extend(effects.triggers);
            if let Some(response) = effects.completion {
                client.finish(response);
                break;
            }
            let (op_id, object, base_op) = in_flight
                .pop_front()
                .ok_or_else(|| format!("protocol probe: {kind} stuck on operation {index}"))?;
            let server = topology.server_of(object);
            let response = servers[server.index()]
                .apply(object, &base_op)
                .map_err(|e| format!("protocol probe: {e}"))?;
            time += 1;
            effects = client.on_delivery(
                Delivery {
                    op_id,
                    object,
                    server,
                    op: base_op,
                    response,
                },
                time,
                &mut next_op_id,
            );
        }
    }
    Ok(started.elapsed().as_nanos() as f64 / mix.len() as f64)
}

/// Mean nanoseconds of one `ServerNode::apply`, alternating a write-class
/// and a read-class operation over every object of server 0.
pub fn server_apply_ns(kind: EmulationKind, params: Params) -> f64 {
    const ROUNDS: usize = 100_000;
    let emulation = kind.build(params);
    let topology = emulation.topology();
    let server = ServerId::new(0);
    let mut node = ServerNode::new(topology, server);
    let objects = topology.objects_on(server);
    let (write, read): (fn(Value) -> BaseOp, BaseOp) = match emulation.base_object_kind() {
        ObjectKind::MaxRegister => (BaseOp::WriteMax, BaseOp::ReadMax),
        _ => (BaseOp::Write, BaseOp::Read),
    };
    let started = Instant::now();
    let mut applied = 0usize;
    for round in 0..ROUNDS {
        let object = objects[round % objects.len()];
        let op = if round % 2 == 0 {
            write(Value::new(round as u64, round as u64))
        } else {
            read
        };
        if std::hint::black_box(node.apply(object, &op)).is_ok() {
            applied += 1;
        }
    }
    assert_eq!(applied, ROUNDS, "server_apply probe ops must all apply");
    started.elapsed().as_nanos() as f64 / ROUNDS as f64
}
