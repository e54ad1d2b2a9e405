//! End-to-end loopback TCP runs checked against the simulator's machinery.
//!
//! The acceptance bar for the live service: a clean n = 3 / k = 4 run's
//! recorded history gets the same verdict class the simulator gives (OK from
//! both the offline and streaming checkers), and the seeded
//! `faulty-weak-quorum` emulation is *caught* on a live run under the
//! ablation schedule (writes to two servers delayed, the acknowledging
//! server crashed, a fresh reader misses the completed write).

use regemu_bounds::Params;
use regemu_fpsm::{ClientId, HighOp, HighResponse, ServerId, ServerNode, Topology};
use regemu_serve::prelude::*;
use regemu_workloads::conform::{conform_verdict, ConformRecorder};
use regemu_workloads::fuzz::FuzzEmulation;
use regemu_workloads::runner::ConsistencyCheck;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Scratch directory for one test's conformance logs.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("regemu-loopback-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Boots one TCP server per topology server, logging to `dir`, and returns
/// the handles plus their addresses and log paths.
fn boot_cluster(
    topology: &Topology,
    scratch: &Scratch,
) -> (Vec<ServerHandle>, Vec<SocketAddr>, Vec<PathBuf>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    let mut logs = Vec::new();
    for s in 0..topology.server_count() {
        let log = scratch.path(&format!("node{s}.conform"));
        let handle = serve_tcp(
            ServerNode::new(topology, ServerId::new(s)),
            "127.0.0.1:0".parse().unwrap(),
            Some(log.as_path()),
        )
        .unwrap();
        addrs.push(handle.local_addr().unwrap());
        handles.push(handle);
        logs.push(log);
    }
    (handles, addrs, logs)
}

#[test]
fn clean_k4_fleet_run_agrees_with_the_simulator_verdict() {
    let scratch = Scratch::new("clean");
    let params = Params::new(4, 1, 3).unwrap();
    let emulation = FuzzEmulation::from_name("space-optimal").unwrap();
    let topology = emulation.build(params).topology().clone();
    let (handles, addrs, mut logs) = boot_cluster(&topology, &scratch);

    let recorder = Arc::new(ConformRecorder::new());
    let spec = FleetSpec {
        emulation,
        params,
        writers: 4,
        readers: 2,
        rounds: 3,
        read_after_each: true,
        rate: None,
    };
    let outcome = run_fleet(
        spec,
        &addrs,
        &ClientOptions::default(),
        Some(Arc::clone(&recorder)),
    )
    .unwrap();
    // 4 writers × 3 (write + read-back) + 2 readers × 3 reads.
    assert_eq!(outcome.ops, 4 * 3 * 2 + 2 * 3);
    assert_eq!(outcome.timeouts, 0);
    assert_eq!(outcome.errors, 0);
    assert_eq!(outcome.histogram.count(), outcome.ops);
    assert!(outcome.histogram.p50() <= outcome.histogram.p999());

    let client_log = scratch.path("clients.conform");
    recorder.save(&client_log).unwrap();
    logs.push(client_log);
    for handle in handles {
        handle.join().unwrap();
    }

    for check in [ConsistencyCheck::WsSafe, ConsistencyCheck::WsRegular] {
        let verdict = conform_verdict(&logs, check).unwrap();
        assert_eq!(verdict.complete_ops, outcome.ops as usize);
        assert!(
            verdict.is_consistent(),
            "clean run flagged by {check}: {verdict}"
        );
        assert!(verdict.agrees(), "checkers disagree: {verdict}");
    }
}

/// The ablation schedule, shared by the faulty run and its control: the
/// writer's low-level *writes* to servers 1 and 2 are delayed forever (reads
/// pass), then server 0 — the only server that could acknowledge — crashes,
/// then a fresh reader (no delays) reads from the surviving majority.
///
fn ablation_run(tag: &str, emulation: FuzzEmulation, expect_write_ack: bool) {
    let scratch = Scratch::new(tag);
    let params = Params::new(1, 1, 3).unwrap();
    let built = emulation.build(params);
    let topology = built.topology().clone();
    let (mut handles, addrs, mut logs) = boot_cluster(&topology, &scratch);
    let recorder = Arc::new(ConformRecorder::new());

    let writer_options = ClientOptions {
        // The control writer blocks forever on its 2-ack quorum; keep the
        // test fast.
        op_timeout: Duration::from_millis(500),
        hold_writes: vec![1, 2],
        ..ClientOptions::default()
    };
    let mut writer = LiveClient::connect_tcp(
        topology.clone(),
        ClientId::new(0),
        built.writer_protocol(0),
        &addrs,
        writer_options,
    )
    .unwrap()
    .with_recorder(Arc::clone(&recorder), 0);
    let write = writer.run_op(HighOp::Write(9));
    if expect_write_ack {
        // The weak-quorum writer is satisfied by server 0 alone.
        assert_eq!(write.unwrap(), HighResponse::WriteAck);
    } else {
        // The paper's writer needs |R_0| - f = 2 acknowledgements and only
        // server 0 can answer: the write must still be pending.
        assert!(
            matches!(write, Err(ServeError::Timeout { .. })),
            "correct writer completed under the ablation schedule"
        );
    }
    drop(writer);

    // Crash the one server that acknowledged (within the f = 1 budget).
    let node0 = handles.remove(0);
    node0.join().unwrap();

    // A fresh reader sees only the surviving majority {1, 2}.
    let mut reader = LiveClient::connect_tcp(
        topology,
        ClientId::new(1),
        built.reader_protocol(),
        &addrs,
        ClientOptions::default(),
    )
    .unwrap()
    .with_recorder(Arc::clone(&recorder), 1);
    assert_eq!(reader.live_servers(), 2);
    assert_eq!(
        reader.run_op(HighOp::Read).unwrap(),
        HighResponse::ReadValue(0)
    );
    drop(reader);

    let client_log = scratch.path("clients.conform");
    recorder.save(&client_log).unwrap();
    logs.push(client_log);
    for handle in handles {
        handle.join().unwrap();
    }

    let verdict = conform_verdict(&logs, ConsistencyCheck::WsSafe).unwrap();
    assert!(verdict.agrees(), "checkers disagree: {verdict}");
    if expect_write_ack {
        assert!(
            !verdict.is_consistent(),
            "live weak-quorum run escaped the checkers: {verdict}"
        );
    } else {
        assert!(
            verdict.is_consistent(),
            "correct emulation flagged under the ablation schedule: {verdict}"
        );
    }
}

#[test]
fn live_weak_quorum_node_is_caught_by_the_conformance_checkers() {
    ablation_run(
        "faulty",
        FuzzEmulation::from_name("faulty-weak-quorum").unwrap(),
        true,
    );
}

#[test]
fn correct_emulation_survives_the_same_ablation_schedule() {
    ablation_run(
        "control",
        FuzzEmulation::from_name("space-optimal").unwrap(),
        false,
    );
}

/// `serve client --hold-servers` is the live adversary of docs/MODEL.md:
/// requests to a held server are never sent. Holding one server of three
/// stays within the f = 1 budget, so every operation still completes, the
/// held server applies nothing, and the recorded run is WS-Regular.
#[test]
fn a_held_server_sees_no_request_and_the_run_stays_ws_regular() {
    let scratch = Scratch::new("hold");
    let params = Params::new(1, 1, 3).unwrap();
    let built = FuzzEmulation::from_name("space-optimal")
        .unwrap()
        .build(params);
    let topology = built.topology().clone();
    let (handles, addrs, mut logs) = boot_cluster(&topology, &scratch);
    let recorder = Arc::new(ConformRecorder::new());
    let held = || ClientOptions {
        hold_servers: vec![2],
        ..ClientOptions::default()
    };
    let mut writer = LiveClient::connect_tcp(
        topology.clone(),
        ClientId::new(0),
        built.writer_protocol(0),
        &addrs,
        held(),
    )
    .unwrap()
    .with_recorder(Arc::clone(&recorder), 0);
    let mut reader = LiveClient::connect_tcp(
        topology,
        ClientId::new(1),
        built.reader_protocol(),
        &addrs,
        held(),
    )
    .unwrap()
    .with_recorder(Arc::clone(&recorder), 1);
    for value in 1..=3 {
        assert_eq!(
            writer.run_op(HighOp::Write(value)).unwrap(),
            HighResponse::WriteAck
        );
        for client in [&mut writer, &mut reader] {
            assert_eq!(
                client.run_op(HighOp::Read).unwrap(),
                HighResponse::ReadValue(value)
            );
        }
    }
    drop((writer, reader));
    assert_eq!(handles[2].applied(), 0, "the held server applied a request");

    let client_log = scratch.path("clients.conform");
    recorder.save(&client_log).unwrap();
    logs.push(client_log);
    for handle in handles {
        handle.join().unwrap();
    }
    let verdict = conform_verdict(&logs, ConsistencyCheck::WsRegular).unwrap();
    assert_eq!(verdict.complete_ops, 9);
    assert!(verdict.is_consistent(), "held run flagged: {verdict}");
    assert!(verdict.agrees(), "checkers disagree: {verdict}");
}

#[test]
fn clients_degrade_gracefully_when_a_node_dies_mid_run() {
    let scratch = Scratch::new("degrade");
    let params = Params::new(2, 1, 3).unwrap();
    let emulation = FuzzEmulation::from_name("space-optimal").unwrap();
    let topology = emulation.build(params).topology().clone();
    let (mut handles, addrs, _logs) = boot_cluster(&topology, &scratch);

    let built = emulation.build(params);
    let mut writer = LiveClient::connect_tcp(
        topology,
        ClientId::new(0),
        built.writer_protocol(0),
        &addrs,
        ClientOptions::default(),
    )
    .unwrap();
    assert_eq!(
        writer.run_op(HighOp::Write(1)).unwrap(),
        HighResponse::WriteAck
    );

    // Kill server 2 mid-run: f = 1 crash, the emulation must keep going.
    let node2 = handles.remove(2);
    node2.join().unwrap();

    for round in 2..6 {
        assert_eq!(
            writer.run_op(HighOp::Write(round)).unwrap(),
            HighResponse::WriteAck,
            "write {round} did not survive the crash"
        );
        assert_eq!(
            writer.run_op(HighOp::Read).unwrap(),
            HighResponse::ReadValue(round)
        );
    }
    assert!(writer.live_servers() >= 2);
    for handle in handles {
        handle.join().unwrap();
    }
}
