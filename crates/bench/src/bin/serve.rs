//! `serve` — the live replicated-register service behind one binary: host
//! one paper server per process, drive a fleet of them with emulation
//! clients or a load generator, scrape their counters, and judge the
//! recorded run with the simulator's checkers.
//!
//! ```text
//! cargo run --release -p regemu-bench --bin serve -- <SUBCOMMAND> [OPTIONS]
//!
//! SUBCOMMANDS:
//!   node      host one paper server of an emulation on a TCP listener
//!   client    run emulation clients against live nodes
//!   load      drive live nodes closed-loop or rate-limited; JSON latency report
//!   stats     scrape every node's counters over the wire
//!   conform   merge conformance logs and run both checkers
//!
//! FLEET OPTIONS (client, load; stats takes --params and --addr only):
//!   --params K/F/N      parameter point (required)
//!   --addr ADDR|@FILE   one per server, in server order; @FILE reads (and
//!                       waits for) the address a node wrote to --addr-file
//!   --emulation NAME    construction or seeded bug (default space-optimal)
//!   --writers K         writer clients (default and at most k)
//!   --readers R         reader clients (default 0)
//!   --rounds N          writes per writer and reads per reader
//!                       (default 1 for client, 50 for load)
//!   --read-after-each   each writer reads back after every write
//!
//! node OPTIONS:
//!   --server IDX        which server to host (required, below n)
//!   --params K/F/N      parameter point (required)
//!   --emulation NAME    construction or seeded bug (default space-optimal)
//!   --listen ADDR       listen address (default 127.0.0.1:0, an ephemeral port)
//!   --addr-file PATH    write the bound address here
//!   --conform-log PATH  append a `respond` record per applied operation
//!   --stop-file PATH    stop once PATH exists (polled every 50 ms)
//!   --run-for-ms MS     stop after MS milliseconds
//!   --stats-every-ms MS print the node's counters as one JSON line every MS
//!
//! client OPTIONS:
//!   --conform-log PATH  write client invoke/return records for `conform`
//!   --clock-from LOG    start the Lamport clock above LOG's (repeatable)
//!   --hold-servers LIST never send anything to these servers (e.g. 1,2)
//!   --hold-writes LIST  never send write-class requests to these servers
//!   --op-timeout-ms MS  per-operation timeout (default 5000)
//!
//! load OPTIONS:
//!   --rate OPS_PER_SEC  per-client issue rate cap (default closed-loop)
//!   --out FILE|-        JSON report (default - for stdout)
//!
//! conform OPTIONS:
//!   --log FILE          a client or node conformance log (repeatable, required)
//!   --check NAME        none, ws-safe (default), ws-regular or atomic
//! ```
//!
//! A node builds the emulation's topology, hosts the base objects the
//! placement `δ` maps to `--server`, and answers wire requests until
//! `--stop-file` appears, `--run-for-ms` elapses, or forever. A clean stop
//! closes its conformance log with the `clock`/`end` trailer.
//!
//! `client` records `invoke`/`return` records for `conform`'s merge step;
//! `--clock-from` seeds its Lamport clock above a previous invocation's log
//! so stamps across processes order correctly. `--hold-servers` and
//! `--hold-writes` delay messages to the listed servers forever — the
//! simulator's adversarial schedules, on sockets.
//!
//! `load` measures each completed high-level operation into an HDR-style
//! histogram (exact below 16 µs, ≤ ~6.25 % relative error above) and
//! reports completed ops, wall-clock ops/sec, p50/p99/p999/max/mean
//! microsecond latencies and a throughput timeline (completed ops per
//! 250 ms bucket since the fleet started).
//!
//! `stats` sends each node a version-gated `Stats` wire query and prints one
//! JSON line per node — the same line `node --stats-every-ms` prints.
//!
//! `conform` merges client and node logs into one history ordered by
//! Lamport stamp — operations of timed-out or killed clients stay pending,
//! exactly like crashed simulator clients — and replays it through both the
//! offline and the streaming checker for the chosen condition.
//!
//! ## Exit codes
//!
//! | subcommand | 0 | 1 | 2 | 3 | 4 |
//! |---|---|---|---|---|---|
//! | `node` | clean stop | runtime error | usage | — | — |
//! | `client` | every operation completed | runtime error | usage | — | operations timed out or clients degraded (the log keeps them pending) |
//! | `load` | ran (timeouts are in the JSON) | runtime error | usage | — | — |
//! | `stats` | every node answered | a node did not | usage | — | — |
//! | `conform` | both checkers accept | usage or I/O error | violation | the checkers disagree | — |

use regemu_bench::cli::{
    checked, die, dispatch, fail, number, parse_params, required, unknown, value, write_output,
    Args,
};
use regemu_bench::info;
use regemu_bounds::Params;
use regemu_core::wire::NodeStats;
use regemu_core::EmulationKind;
use regemu_fpsm::{ServerId, ServerNode};
use regemu_serve::{run_fleet, scrape_stats, serve_tcp, ClientOptions, FleetOutcome, FleetSpec};
use regemu_workloads::conform::{conform_verdict, ConformLog, ConformRecorder};
use regemu_workloads::fuzz::FuzzEmulation;
use regemu_workloads::runner::ConsistencyCheck;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODE_USAGE: &str = "--server IDX --params K/F/N [--emulation NAME] [--listen ADDR] \
     [--addr-file PATH] [--conform-log PATH] [--stop-file PATH] [--run-for-ms MS] \
     [--stats-every-ms MS]";
const CLIENT_USAGE: &str = "[--conform-log PATH] [--clock-from LOG]... [--hold-servers LIST] \
     [--hold-writes LIST] [--op-timeout-ms MS]";
const LOAD_USAGE: &str = "[--rate OPS_PER_SEC] [--out FILE|-]";
const CONFORM_USAGE: &str = "--log FILE... [--check none|ws-safe|ws-regular|atomic]";

/// The usage fragment of the flags [`FleetFlags`] accepts.
const FLEET_USAGE: &str = "--params K/F/N --addr ADDR... [--emulation NAME] [--writers K] \
     [--readers R] [--rounds N] [--read-after-each]";

/// The default `--emulation`: Algorithm 2.
const SPACE_OPTIMAL: FuzzEmulation = FuzzEmulation::Kind(EmulationKind::SpaceOptimal);

fn params_arg(args: &mut Args, flag: &str) -> Params {
    parse_params(&value(args, flag)).unwrap_or_else(|e| fail(&e))
}

fn emulation_arg(args: &mut Args, flag: &str) -> FuzzEmulation {
    checked(args, flag, "unknown emulation", FuzzEmulation::from_name)
}

/// The flag's value parsed as a `T`; a bad one fails with `what`.
fn typed<T: FromStr>(args: &mut Args, flag: &str, what: &str) -> T {
    checked(args, flag, what, |v| v.parse().ok())
}

/// A comma-separated list of server indices (e.g. `1,2`).
fn servers(args: &mut Args, flag: &str) -> Vec<usize> {
    let index = |s: &str| {
        s.trim()
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid server index {s:?}")))
    };
    let list = value(args, flag);
    list.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(index)
        .collect()
}

/// One node's counters as a single-line JSON object.
fn stats_json(server: usize, stats: &NodeStats) -> String {
    format!(
        "{{\"server\":{server},\"requests\":{},\"responses\":{},\"faults\":{},\
         \"in_flight\":{},\"applied\":{}}}",
        stats.requests, stats.responses, stats.faults, stats.in_flight, stats.applied
    )
}

/// The flags every fleet-driving subcommand shares, collected into the
/// [`FleetSpec`] and server addresses they describe.
#[derive(Default)]
struct FleetFlags {
    params: Option<Params>,
    emulation: Option<FuzzEmulation>,
    addrs: Vec<String>,
    writers: Option<usize>,
    readers: usize,
    rounds: Option<usize>,
    read_after_each: bool,
}

impl FleetFlags {
    /// Tries to consume `arg`; `false` means it is not a fleet flag.
    fn accept(&mut self, arg: &str, args: &mut Args) -> bool {
        match arg {
            "--params" => self.params = Some(params_arg(args, arg)),
            "--emulation" => self.emulation = Some(emulation_arg(args, arg)),
            "--addr" => self.addrs.push(value(args, arg)),
            "--writers" => self.writers = Some(number(args, arg)),
            "--readers" => self.readers = number(args, arg),
            "--rounds" => self.rounds = Some(number(args, arg)),
            "--read-after-each" => self.read_after_each = true,
            _ => return false,
        }
        true
    }

    /// The `--params` point, which is required, with one `--addr` per server.
    fn params(&self) -> Params {
        let params = self.params.unwrap_or_else(|| required("--params"));
        if self.addrs.len() != params.n {
            fail(&format!(
                "{} --addr values for n = {} servers",
                self.addrs.len(),
                params.n
            ));
        }
        params
    }

    /// The fleet the flags describe: at most k writers (default k), and
    /// `rounds` unless `--rounds` says otherwise.
    fn spec(&self, rounds: usize, rate: Option<f64>) -> FleetSpec {
        let params = self.params();
        let writers = self.writers.unwrap_or(params.k);
        if writers > params.k {
            fail(&format!(
                "{writers} writers but the emulation supports k = {}",
                params.k
            ));
        }
        FleetSpec {
            emulation: self.emulation.unwrap_or(SPACE_OPTIMAL),
            params,
            writers,
            readers: self.readers,
            rounds: self.rounds.unwrap_or(rounds),
            read_after_each: self.read_after_each,
            rate,
        }
    }

    /// The `--addr` values as socket addresses. An `@FILE` one is read from
    /// the file a node's `--addr-file` names, polled for up to 10 s while
    /// the node boots.
    fn addrs(&self) -> Vec<SocketAddr> {
        let timeout = Duration::from_secs(10);
        let resolve = |spec: &String| {
            let Some(file) = spec.strip_prefix('@') else {
                let addr = spec.parse();
                return addr.unwrap_or_else(|_| die(format!("invalid server address {spec:?}")));
            };
            let deadline = Instant::now() + timeout;
            loop {
                let text = std::fs::read_to_string(file).unwrap_or_default();
                if let Ok(addr) = text.trim().parse() {
                    return addr;
                }
                if Instant::now() >= deadline {
                    die(format!(
                        "no server address appeared in {file} within {timeout:?}"
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        };
        self.addrs.iter().map(resolve).collect()
    }
}

fn node(args: &mut Args) {
    let mut server: Option<usize> = None;
    let mut params: Option<Params> = None;
    let mut emulation = SPACE_OPTIMAL;
    let mut listen = SocketAddr::from(([127, 0, 0, 1], 0));
    let mut addr_file: Option<PathBuf> = None;
    let mut conform_log: Option<PathBuf> = None;
    let mut stop_file: Option<PathBuf> = None;
    let mut run_for: Option<Duration> = None;
    let mut stats_every: Option<Duration> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--server" => server = Some(typed(args, &arg, "invalid server index")),
            "--params" => params = Some(params_arg(args, &arg)),
            "--emulation" => emulation = emulation_arg(args, &arg),
            "--listen" => listen = typed(args, &arg, "invalid listen address"),
            "--addr-file" => addr_file = Some(value(args, &arg).into()),
            "--conform-log" => conform_log = Some(value(args, &arg).into()),
            "--stop-file" => stop_file = Some(value(args, &arg).into()),
            "--run-for-ms" => {
                run_for = Some(Duration::from_millis(typed(args, &arg, "invalid duration")))
            }
            "--stats-every-ms" => {
                let every = Duration::from_millis(typed(args, &arg, "invalid duration"));
                if every.is_zero() {
                    fail("--stats-every-ms must be positive");
                }
                stats_every = Some(every);
            }
            other => unknown(other),
        }
    }
    let server = server.unwrap_or_else(|| required("--server"));
    let params = params.unwrap_or_else(|| required("--params"));
    if stop_file.is_none() && run_for.is_none() {
        info!("serve node: no --stop-file or --run-for-ms; serving until killed");
    }

    let topology = emulation.build(params).topology().clone();
    if server >= topology.server_count() {
        fail(&format!(
            "server index {server} out of range for n = {}",
            topology.server_count()
        ));
    }
    let node = ServerNode::new(&topology, ServerId::new(server));
    let handle = serve_tcp(node, listen, conform_log.as_deref())
        .unwrap_or_else(|e| die(format!("cannot serve on {listen}: {e}")));
    let addr = handle.local_addr().expect("tcp server has a bound address");
    info!(
        "serve node: server {server} ({}) on {addr}",
        emulation.name()
    );
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            die(format!("cannot write {}: {e}", path.display()));
        }
    }

    let started = Instant::now();
    let mut next_stats = stats_every.map(|every| started + every);
    loop {
        if let Some(stop) = stop_file.as_ref().filter(|stop| stop.exists()) {
            info!("serve node: stop file {} appeared", stop.display());
            break;
        }
        if run_for.is_some_and(|limit| started.elapsed() >= limit) {
            info!("serve node: --run-for-ms elapsed");
            break;
        }
        if let (Some(due), Some(every)) = (next_stats, stats_every) {
            if Instant::now() >= due {
                println!("{}", stats_json(server, &handle.stats()));
                next_stats = Some(due + every);
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let applied = handle.applied();
    handle
        .join()
        .unwrap_or_else(|e| die(format!("shutdown failed: {e}")));
    info!("serve node: server {server} stopped after {applied} applied ops");
}

fn client(args: &mut Args) {
    let mut fleet = FleetFlags::default();
    let mut conform_log: Option<PathBuf> = None;
    let mut clock_from: Vec<PathBuf> = Vec::new();
    let mut options = ClientOptions::default();
    while let Some(arg) = args.next() {
        if fleet.accept(&arg, args) {
            continue;
        }
        match arg.as_str() {
            "--conform-log" => conform_log = Some(value(args, &arg).into()),
            "--clock-from" => clock_from.push(value(args, &arg).into()),
            "--hold-servers" => options.hold_servers = servers(args, &arg),
            "--hold-writes" => options.hold_writes = servers(args, &arg),
            "--op-timeout-ms" => options.op_timeout = Duration::from_millis(number(args, &arg)),
            other => unknown(other),
        }
    }
    let spec = fleet.spec(1, None);
    let n = spec.params.n;
    let mut held = options.hold_servers.iter().chain(&options.hold_writes);
    if let Some(server) = held.find(|&&s| s >= n) {
        fail(&format!("server index {server} out of range for n = {n}"));
    }
    let addrs = fleet.addrs();

    // Seed this process's Lamport clock above every predecessor log's.
    let start_clock = clock_from
        .iter()
        .map(|log| ConformLog::load(log).unwrap_or_else(|e| die(e)).final_clock)
        .max()
        .unwrap_or(0);
    let recorder = conform_log
        .as_ref()
        .map(|_| Arc::new(ConformRecorder::starting_at(start_clock)));
    let outcome = run_fleet(spec, &addrs, &options, recorder.clone()).unwrap_or_else(|e| die(e));
    if let (Some(path), Some(recorder)) = (&conform_log, &recorder) {
        if let Err(e) = recorder.save(path) {
            die(format!("cannot write {}: {e}", path.display()));
        }
    }

    info!(
        "serve client: {} ops in {:?} ({:.0} ops/s), {} timeouts, {} errors",
        outcome.ops,
        outcome.elapsed,
        outcome.ops_per_sec(),
        outcome.timeouts,
        outcome.errors
    );
    if outcome.timeouts > 0 || outcome.errors > 0 {
        std::process::exit(4);
    }
}

fn load(args: &mut Args) {
    let mut fleet = FleetFlags::default();
    let mut rate: Option<f64> = None;
    let mut out = "-".to_string();
    while let Some(arg) = args.next() {
        if fleet.accept(&arg, args) {
            continue;
        }
        match arg.as_str() {
            "--rate" => {
                let v = value(args, &arg);
                let parsed: f64 = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("invalid rate {v:?}")));
                if parsed.is_nan() || parsed <= 0.0 {
                    fail(&format!("rate must be positive, got {v:?}"));
                }
                rate = Some(parsed);
            }
            "--out" => out = value(args, &arg),
            other => unknown(other),
        }
    }
    let spec = fleet.spec(50, rate);
    let addrs = fleet.addrs();
    let outcome =
        run_fleet(spec, &addrs, &ClientOptions::default(), None).unwrap_or_else(|e| die(e));

    let (ops, ops_per_sec, h) = (outcome.ops, outcome.ops_per_sec(), &outcome.histogram);
    let (p50, p99, p999, max) = (h.p50(), h.p99(), h.p999(), h.max());
    info!(
        "serve load: {ops} ops, {ops_per_sec:.0} ops/s, p50={p50}us p99={p99}us p999={p999}us \
         max={max}us"
    );
    let (p, bucket_ms) = (spec.params, FleetOutcome::TIMELINE_BUCKET_MS);
    let params = format!("{{ \"k\": {}, \"f\": {}, \"n\": {} }}", p.k, p.f, p.n);
    let timeline: Vec<_> = outcome.timeline.iter().map(u64::to_string).collect();
    let latency = format!(
        "{{ \"p50\": {p50}, \"p99\": {p99}, \"p999\": {p999}, \"max\": {max}, \"mean\": {:.1} }}",
        h.mean()
    );
    let fields = [
        ("emulation", format!("\"{}\"", spec.emulation.name())),
        ("params", params),
        ("writers", spec.writers.to_string()),
        ("readers", spec.readers.to_string()),
        ("rounds", spec.rounds.to_string()),
        ("ops", ops.to_string()),
        ("timeouts", outcome.timeouts.to_string()),
        ("errors", outcome.errors.to_string()),
        ("elapsed_ms", outcome.elapsed.as_millis().to_string()),
        ("ops_per_sec", format!("{ops_per_sec:.1}")),
        ("timeline_bucket_ms", bucket_ms.to_string()),
        ("timeline", format!("[{}]", timeline.join(", "))),
        ("latency_us", latency),
    ];
    let fields = fields.map(|(key, value)| format!("  \"{key}\": {value}"));
    let report = format!("{{\n{}\n}}\n", fields.join(",\n"));
    write_output(&out, &report, "load report");
}

fn stats(args: &mut Args) {
    let mut fleet = FleetFlags::default();
    while let Some(arg) = args.next() {
        if !matches!(arg.as_str(), "--params" | "--addr") || !fleet.accept(&arg, args) {
            unknown(&arg);
        }
    }
    fleet.params();
    let mut unreachable = false;
    for (server, addr) in fleet.addrs().into_iter().enumerate() {
        match scrape_stats(addr, Duration::from_secs(2)) {
            Ok(stats) => println!("{}", stats_json(server, &stats)),
            Err(e) => {
                eprintln!("serve stats: server {server} ({addr}): {e}");
                unreachable = true;
            }
        }
    }
    if unreachable {
        std::process::exit(1);
    }
}

fn conform(args: &mut Args) {
    let mut logs: Vec<PathBuf> = Vec::new();
    let mut check = ConsistencyCheck::WsSafe;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log" => logs.push(value(args, &arg).into()),
            "--check" => check = checked(args, &arg, "unknown check", ConsistencyCheck::from_name),
            other => unknown(other),
        }
    }
    if logs.is_empty() {
        fail("at least one --log is required");
    }

    let verdict = conform_verdict(&logs, check).unwrap_or_else(|e| die(e));
    println!("{verdict}");
    if !verdict.agrees() {
        eprintln!("serve conform: offline and streaming checkers disagree");
        std::process::exit(3);
    }
    if !verdict.is_consistent() {
        std::process::exit(2);
    }
}

fn main() {
    dispatch(
        "serve",
        &[
            ("node", 2, NODE_USAGE.into(), node),
            ("client", 2, format!("{FLEET_USAGE} {CLIENT_USAGE}"), client),
            ("load", 2, format!("{FLEET_USAGE} {LOAD_USAGE}"), load),
            ("stats", 2, "--params K/F/N --addr ADDR...".into(), stats),
            // 2 means "violation found".
            ("conform", 1, CONFORM_USAGE.into(), conform),
        ],
    );
}
