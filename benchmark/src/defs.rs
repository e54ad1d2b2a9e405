//! The names this benchmark fixes: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root is generated from these
//! tables (`run.sh --emit-benchmark-json`) and a unit test keeps the two
//! byte-identical, so a claim "metric X on workload Y" always refers to a
//! name that exists here.

use crate::json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One end-to-end metric, measured untraced, reported on every workload.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// One per-layer metric, measured in the traced run of its host workloads
/// and reported as 0 by every other workload (the layer was bypassed there).
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for a given seed.
    pub exact: bool,
}

/// Seconds one run measures for (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_fair",
        why: "Fair scheduler, four constructions: the pending set stays tiny, so time is node transitions, history recording and engine bookkeeping; bypasses the adversary and the checkers.",
    },
    WorkloadDef {
        name: "sim_adversary",
        why: "Cover/Silence adversaries on the same generator: withheld operations pile up and the scheduler pick rescans them every step; transitions are a sliver. Predicts no change on sim_fair.",
    },
    WorkloadDef {
        name: "check_heavy",
        why: "Long checked runs, offline vs streaming, WS-Regular and Atomic: regemu-spec does most of the work (offline atomic is superlinear); the streaming rows bypass the offline checker.",
    },
    WorkloadDef {
        name: "campaign",
        why: "Thousands of ~35-op cases through the sharded in-process campaign plus a fuzz budget: per-case fixed cost (build, capture, report JSON, spool, mutation) dominates, not the simulator loop.",
    },
    WorkloadDef {
        name: "live_tcp_write",
        why: "Algorithm 2 at (8,1,3) over loopback TCP, one closed-loop writer: ~26 messages per write, so syscalls, the client's 1 ms round-robin poll and thread wake-ups dominate.",
    },
    WorkloadDef {
        name: "live_chan_mixed",
        why: "ABD over max-registers at (8,1,3) over in-process channels, 90% reads: same client and handler code with the socket removed; what is left is codec, mpsc, state lock and protocol.",
    },
];

/// Every bound is the largest the benchmark contract allows. On the shared
/// 2-core reference box the speed of one hardware thread drifts by ±8 % over
/// tens of seconds (a pure register-only loop shows it, in CPU time as much
/// as in wall time), so ten runs of the *same* seed spread by 3–12 % of
/// their median; a bound has to be about three times the spread to gate
/// anything but noise. `README.md` records the measured spreads.
const NOISE_BOUND: f64 = 0.25;

pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: NOISE_BOUND,
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: NOISE_BOUND,
    },
    EndToEndDef {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: NOISE_BOUND,
    },
    EndToEndDef {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: NOISE_BOUND,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: NOISE_BOUND,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[LayerDef] = &[
    // regemu-fpsm
    layer("fpsm.steps", "count", Lower, true),
    layer("fpsm.sched_step_ns", "ns", Lower, false),
    layer("fpsm.sched_pick_ns", "ns", Lower, false),
    layer("fpsm.deliver_ns", "ns", Lower, false),
    layer("fpsm.invoke_ns", "ns", Lower, false),
    layer("fpsm.peak_pending", "count", Lower, true),
    layer("fpsm.record_full_vs_digest_ratio", "ratio", Lower, false),
    layer("fpsm.metrics_capture_us", "us", Lower, false),
    layer("fpsm.server_apply_ns", "ns", Lower, false),
    // regemu-core
    layer("core.abd_max_register.sim_ops_per_s", "1/s", Higher, false),
    layer("core.abd_cas.sim_ops_per_s", "1/s", Higher, false),
    layer("core.space_optimal.sim_ops_per_s", "1/s", Higher, false),
    layer("core.register_bank.sim_ops_per_s", "1/s", Higher, false),
    layer(
        "core.abd_max_register.lowlevel_per_op",
        "count",
        Lower,
        true,
    ),
    layer("core.abd_cas.lowlevel_per_op", "count", Lower, true),
    layer("core.space_optimal.lowlevel_per_op", "count", Lower, true),
    layer("core.register_bank.lowlevel_per_op", "count", Lower, true),
    layer("core.space_optimal.protocol_ns_per_op", "ns", Lower, false),
    layer(
        "core.abd_max_register.protocol_ns_per_op",
        "ns",
        Lower,
        false,
    ),
    layer("core.wire_encode_ns", "ns", Lower, false),
    layer("core.wire_decode_ns", "ns", Lower, false),
    // regemu-spec
    layer("spec.offline_ws_regular_ns_per_op", "ns", Lower, false),
    layer("spec.offline_atomic_ns_per_op", "ns", Lower, false),
    layer("spec.stream_ws_regular_ns_per_event", "ns", Lower, false),
    layer("spec.stream_atomic_ns_per_event", "ns", Lower, false),
    layer("spec.stream_window_peak", "count", Lower, true),
    layer("spec.from_run_us", "us", Lower, false),
    // regemu-adversary
    layer("adversary.blocks_calls_per_step", "count", Lower, true),
    layer(
        "adversary.register_bank.blocks_calls_per_step",
        "count",
        Lower,
        true,
    ),
    layer("adversary.blocks_ns", "ns", Lower, false),
    // regemu-workloads
    layer("workloads.scenario_build_us", "us", Lower, false),
    layer("workloads.engine_self_ns_per_step", "ns", Lower, false),
    layer("workloads.cases_per_s", "1/s", Higher, false),
    layer("workloads.sweep_cases_per_s", "1/s", Higher, false),
    layer("workloads.sweep_cases_per_s_t1", "1/s", Higher, false),
    layer("workloads.sweep_thread_scaling", "ratio", Higher, false),
    layer("workloads.init_spool_ms", "ms", Lower, false),
    layer("workloads.run_shard_ms", "ms", Lower, false),
    layer("workloads.merge_shards_ms", "ms", Lower, false),
    layer("workloads.spool_overhead_ratio", "ratio", Lower, false),
    layer("workloads.sweep_to_json_ms", "ms", Lower, false),
    layer("workloads.json_parse_ms", "ms", Lower, false),
    layer("workloads.fuzz_iters_per_s", "1/s", Higher, false),
    layer("workloads.fuzz_corpus_size", "count", Higher, true),
    layer("workloads.known_violation_repro", "count", Lower, true),
    // regemu-serve
    layer("serve.send_ns", "ns", Lower, false),
    layer("serve.recv_wait_us_per_op", "us", Lower, false),
    layer("serve.empty_polls_per_op", "count", Lower, false),
    layer("serve.client_self_us_per_op", "us", Lower, false),
    layer("serve.msgs_per_op", "count", Lower, false),
    layer("serve.server_faults", "count", Lower, false),
    layer("serve.rtt_tcp_us", "us", Lower, false),
    layer("serve.rtt_chan_us", "us", Lower, false),
    layer("serve.connect_ms", "ms", Lower, false),
    layer("serve.op_p99_us", "us", Lower, false),
    layer("serve.op_p999_us", "us", Lower, false),
    layer("serve.op_max_us", "us", Lower, false),
    // regemu-obs
    layer("obs.enabled_overhead_pct", "%", Lower, false),
    layer("obs.snapshot_us", "us", Lower, false),
    // this package
    layer("bench.timer_ns", "ns", Lower, false),
    layer("bench.trace_overhead_pct", "%", Lower, false),
    layer("bench.verify_s", "s", Lower, false),
];

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json::quote(w.name),
            json::quote(w.why),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.name()),
            json::number(m.bound),
            if i + 1 == END_TO_END.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.name()),
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // The set-up metric carries the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bash benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
        // And it is JSON with exactly the contract's keys.
        let parsed = json::parse(committed).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
