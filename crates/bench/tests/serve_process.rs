//! The live-service binaries end to end on a 3-node loopback cluster:
//! nodes publish their ephemeral addresses through `--addr-file` and stop
//! on `--stop-file`; clients, the load generator and the stats scrape find
//! them through `@FILE` addresses; the conformance checker judges the
//! merged logs — clean runs pass both checkers, the seeded weak-quorum
//! drill is caught — and malformed invocations are usage errors.

use std::fs;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

fn serve(subcommand: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_serve"));
    command.arg(subcommand);
    command
}

fn node() -> Command {
    serve("node")
}

fn client() -> Command {
    serve("client")
}

fn stats() -> Command {
    serve("stats")
}

fn load() -> Command {
    serve("load")
}

fn conform() -> Command {
    serve("conform")
}

fn run(command: &mut Command) -> Output {
    command.output().expect("spawn live-service binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// Three `node` processes at one parameter point, each with its own
/// address file, conformance log and stop file in a fresh directory.
struct Cluster {
    dir: PathBuf,
    params: &'static str,
    nodes: Vec<Option<Child>>,
}

impl Cluster {
    fn boot(tag: &str, params: &'static str, extra: &[&str]) -> Cluster {
        let dir =
            std::env::temp_dir().join(format!("regemu-serve-process-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create cluster dir");
        let nodes = (0..3)
            .map(|i| {
                let child = node()
                    .args(["--server", &i.to_string(), "--params", params])
                    .args(extra)
                    .arg("--addr-file")
                    .arg(dir.join(format!("node{i}.addr")))
                    .arg("--conform-log")
                    .arg(dir.join(format!("node{i}.conform")))
                    .arg("--stop-file")
                    .arg(dir.join(format!("stop{i}")))
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn node");
                Some(child)
            })
            .collect();
        Cluster { dir, params, nodes }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `--params P --addr @node0.addr --addr @node1.addr --addr @node2.addr`.
    fn fleet(&self) -> Vec<String> {
        let mut args = vec!["--params".to_string(), self.params.to_string()];
        for i in 0..3 {
            args.push("--addr".into());
            args.push(format!(
                "@{}",
                self.path(&format!("node{i}.addr")).display()
            ));
        }
        args
    }

    /// Stops node `i` through its stop file; returns its stdout.
    fn stop(&mut self, i: usize) -> String {
        fs::write(self.path(&format!("stop{i}")), b"").expect("touch stop file");
        let out = self.nodes[i]
            .take()
            .expect("node still running")
            .wait_with_output()
            .expect("wait for node");
        assert_eq!(out.status.code(), Some(0), "node {i} clean stop: {out:?}");
        stdout(&out)
    }

    /// `--log F` for each of `names`, then the three node logs.
    fn logs(&self, names: &[&str]) -> Vec<String> {
        let mut args = Vec::new();
        let nodes = (0..3).map(|i| format!("node{i}.conform"));
        for name in names.iter().map(|s| s.to_string()).chain(nodes) {
            args.push("--log".into());
            args.push(self.path(&name).display().to_string());
        }
        args
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in self.nodes.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn clean_cluster_passes_load_stats_and_both_checkers() {
    let mut cluster = Cluster::boot("clean", "4/1/3", &["--stats-every-ms", "200"]);
    let clients = cluster.path("clients.conform");
    let out = run(client()
        .args(cluster.fleet())
        .args(["--writers", "4", "--readers", "2", "--rounds", "3"])
        .arg("--read-after-each")
        .arg("--conform-log")
        .arg(&clients));
    assert_eq!(out.status.code(), Some(0), "client: {out:?}");

    let out =
        run(load()
            .args(cluster.fleet())
            .args(["--writers", "4", "--rounds", "50", "--out", "-"]));
    assert_eq!(out.status.code(), Some(0), "load: {out:?}");
    let report = stdout(&out);
    assert!(report.contains("\"timeouts\": 0"), "{report}");
    assert!(report.contains("\"ops\": 200"), "{report}");

    let out = run(stats().args(cluster.fleet()));
    assert_eq!(out.status.code(), Some(0), "stats: {out:?}");
    let scrape = stdout(&out);
    assert_eq!(scrape.lines().count(), 3, "{scrape}");
    for line in scrape.lines() {
        assert!(line.contains("\"requests\":"), "{line}");
        assert!(!line.contains("\"requests\":0,"), "{line}");
    }

    // Outlive one `--stats-every-ms` period before stopping.
    std::thread::sleep(Duration::from_millis(300));
    for i in 0..3 {
        let dumps = cluster.stop(i);
        assert!(dumps.contains(&format!("\"server\":{i}")), "{dumps}");
    }

    for check in ["ws-safe", "ws-regular"] {
        let out = run(conform()
            .args(["--check", check])
            .args(cluster.logs(&["clients.conform"])));
        assert_eq!(out.status.code(), Some(0), "conform {check}: {out:?}");
        let verdict = stdout(&out);
        assert!(verdict.contains("offline=ok streaming=ok"), "{verdict}");
    }
}

#[test]
fn weak_quorum_drill_is_caught_by_conform() {
    let mut cluster = Cluster::boot("weak", "1/1/3", &["--emulation", "faulty-weak-quorum"]);
    // The faulty writer's too-small quorum fits on server 0 alone, so
    // holding its writes to servers 1 and 2 still lets the write ack.
    let writer = cluster.path("writer.conform");
    let out = run(client()
        .args(cluster.fleet())
        .args(["--emulation", "faulty-weak-quorum"])
        .args(["--writers", "1", "--rounds", "1", "--hold-writes", "1,2"])
        .args(["--op-timeout-ms", "5000", "--conform-log"])
        .arg(&writer));
    assert_eq!(out.status.code(), Some(0), "writer: {out:?}");

    // Stop the only node that saw the write; a fresh reader over the
    // surviving majority reads the initial value.
    cluster.stop(0);
    let out = run(client()
        .args(cluster.fleet())
        .args(["--emulation", "faulty-weak-quorum"])
        .args(["--writers", "0", "--readers", "1", "--rounds", "1"])
        .arg("--clock-from")
        .arg(&writer)
        .arg("--conform-log")
        .arg(cluster.path("reader.conform")));
    assert_eq!(out.status.code(), Some(0), "reader: {out:?}");
    cluster.stop(1);
    cluster.stop(2);

    let out = run(conform()
        .args(["--check", "ws-safe"])
        .args(cluster.logs(&["writer.conform", "reader.conform"])));
    assert_eq!(out.status.code(), Some(2), "conform: {out:?}");
    let verdict = stdout(&out);
    assert!(verdict.contains("offline="), "{verdict}");
    assert!(!verdict.contains("offline=ok"), "{verdict}");
}

/// Asserts a usage error: exit 2 with `message` on stderr.
fn usage_error(mut command: Command, args: &[&str], message: &str) {
    let out = run(command.args(args));
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn malformed_invocations_are_usage_errors() {
    let one_addr = ["--params", "4/1/3", "--addr", "127.0.0.1:1"];
    for command in [node, client, stats, load] {
        usage_error(
            command(),
            &["--params", "4/1/3", "--bogus"],
            "unknown option \"--bogus\"",
        );
    }
    usage_error(node(), &["--server", "0"], "--params is required");
    for command in [client, stats, load] {
        usage_error(
            command(),
            &["--addr", "127.0.0.1:1"],
            "--params is required",
        );
        usage_error(command(), &one_addr, "1 --addr values for n = 3 servers");
    }
    usage_error(
        node(),
        &[
            "--server",
            "0",
            "--params",
            "4/1/3",
            "--stats-every-ms",
            "0",
        ],
        "--stats-every-ms must be positive",
    );
}

#[test]
fn conform_usage_errors_exit_1_not_the_violation_code() {
    // Exit 2 means "violation found": a mistyped flag must not pass for one.
    let out = run(conform().args(["--chek", "ws-safe", "--log", "x"]));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option \"--chek\""), "{stderr}");
}

/// `--params 4/1/3` and three literal addresses: flags are validated
/// before anything is dialled.
const FLEET: [&str; 8] = [
    "--params",
    "4/1/3",
    "--addr",
    "127.0.0.1:1",
    "--addr",
    "127.0.0.1:2",
    "--addr",
    "127.0.0.1:3",
];

#[test]
fn hold_lists_beyond_n_are_usage_errors() {
    for flag in ["--hold-servers", "--hold-writes"] {
        let mut command = client();
        command.args(FLEET);
        usage_error(
            command,
            &[flag, "1,3"],
            "server index 3 out of range for n = 3",
        );
    }
}

#[test]
fn more_writers_than_k_is_a_usage_error() {
    for subcommand in [client, load] {
        let mut command = subcommand();
        command.args(FLEET);
        usage_error(
            command,
            &["--writers", "5"],
            "5 writers but the emulation supports k = 4",
        );
    }
}

#[test]
fn a_missing_or_unknown_subcommand_is_a_usage_error() {
    for (args, message) in [
        (&[][..], "serve: missing subcommand"),
        (&["nope"], "serve: unknown subcommand \"nope\""),
        // The scrape is its own subcommand now, not a client mode.
        (
            &["client", "--stats"],
            "serve client: unknown option \"--stats\"",
        ),
    ] {
        let out = run(Command::new(env!("CARGO_BIN_EXE_serve")).args(args));
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let out = run(&mut Command::new(env!("CARGO_BIN_EXE_serve")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: serve <node|client|load|stats|conform> [OPTIONS]"),
        "{stderr}"
    );
}
