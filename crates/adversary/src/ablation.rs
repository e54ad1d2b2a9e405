//! Ablation study: why Algorithm 2's quorum sizes cannot be reduced.
//!
//! The construction's write quorum has size `|R_j| - f` and its read quorum
//! spans all registers on `n - f` servers. Both sizes are exactly what the
//! lower-bound adversary forces: a writer that returns after fewer
//! acknowledgements can have *all* of its effective writes sit on servers
//! that subsequently crash (or whose responses are delayed forever), making a
//! later read miss the value — a WS-Safety violation even though no more than
//! `f` servers ever fail.
//!
//! [`demonstrate_quorum_ablation`] builds that schedule explicitly: it runs
//! one writer with a configurable *quorum slack* (how many acknowledgements
//! short of `|R_j| - f` the write is allowed to return), delays the remaining
//! low-level writes, crashes the `f` servers that did acknowledge, and then
//! lets a reader run. With slack 0 (the paper's algorithm) the read always
//! returns the written value; with any positive slack the read can return the
//! stale initial value.

use regemu_bounds::Params;
use regemu_core::layout::RegisterLayout;
use regemu_core::upper_bound::{SharedLayout, SpaceOptimalClient};
use regemu_fpsm::{HighOp, OpId, ServerId, SimConfig, SimError, Simulation};
use regemu_spec::{check_ws_safe, HighHistory, SequentialSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Outcome of one ablation schedule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationOutcome {
    /// The quorum slack the writer was configured with (0 = Algorithm 2).
    pub slack: usize,
    /// Value the writer wrote.
    pub written: u64,
    /// Value the reader observed after the crashes.
    pub read: u64,
    /// Number of servers crashed (always ≤ f).
    pub crashed_servers: usize,
    /// Whether the resulting schedule violates WS-Safety.
    pub violates_ws_safety: bool,
}

/// Runs the ablation schedule for `params` with the given writer quorum
/// slack and returns what the reader observed.
///
/// The schedule only uses behaviours the model allows: responses may be
/// delayed indefinitely and at most `f` servers crash.
///
/// # Errors
///
/// Propagates [`SimError`] if the writer or reader fails to complete within
/// the step budget (which would indicate a liveness bug rather than the
/// safety issue this ablation is about).
pub fn demonstrate_quorum_ablation(
    params: Params,
    slack: usize,
) -> Result<AblationOutcome, SimError> {
    let (topology, layout) = RegisterLayout::build(params);
    let shared = SharedLayout::new(layout, &topology);
    let mut sim = Simulation::new(topology, SimConfig::with_fault_threshold(params.f));

    let writer = sim.register_client(Box::new(SpaceOptimalClient::writer_with_quorum_slack(
        shared.clone(),
        0,
        slack,
    )));
    let reader = sim.register_client(Box::new(SpaceOptimalClient::reader(shared.clone())));

    let written = 4242u64;
    let write = sim.invoke(writer, HighOp::Write(written))?;

    // Phase 1: deliver the writer's collect reads so the low-level writes get
    // triggered, then deliver write acknowledgements one by one until the
    // write returns — always preferring the acknowledgement from the
    // lowest-numbered server, so the acknowledged registers are concentrated
    // on the servers we are about to crash.
    let mut acked_servers: BTreeSet<ServerId> = BTreeSet::new();
    let mut steps = 0u64;
    while sim.result_of(write).is_none() {
        let next_read: Option<OpId> = sim
            .deliverable_ops()
            .filter(|p| p.client == writer && p.op.is_read())
            .map(|p| p.op_id)
            .min();
        if let Some(op) = next_read {
            sim.deliver(op)?;
        } else {
            // Deliver the pending write on the lowest-numbered server.
            let Some(op) = sim
                .deliverable_ops()
                .filter(|p| p.client == writer && p.op.is_write())
                .min_by_key(|p| (p.server, p.op_id))
                .map(|p| p.op_id)
            else {
                return Err(SimError::Stuck {
                    steps,
                    waiting_for: "the ablated write to return".to_string(),
                });
            };
            let server = sim.pending_op(op).expect("still pending").server;
            sim.deliver(op)?;
            acked_servers.insert(server);
        }
        steps += 1;
        if steps > 1_000_000 {
            return Err(SimError::Stuck {
                steps,
                waiting_for: "ablation phase 1".to_string(),
            });
        }
    }

    // Phase 2: crash up to f of the servers whose registers acknowledged the
    // write. With slack 0 at least one acknowledged register survives outside
    // the crash set; with positive slack all effective writes can disappear.
    let to_crash: Vec<ServerId> = acked_servers.iter().copied().take(params.f).collect();
    for server in &to_crash {
        sim.crash_server(*server)?;
    }

    // Phase 3: the reader runs; only its own operations are delivered (the
    // writer's leftover low-level writes stay delayed, as the model allows).
    let read = sim.invoke(reader, HighOp::Read)?;
    let mut steps = 0u64;
    while sim.result_of(read).is_none() {
        let Some(op) = sim
            .deliverable_ops()
            .filter(|p| p.client == reader)
            .map(|p| p.op_id)
            .min()
        else {
            return Err(SimError::Stuck {
                steps,
                waiting_for: "the read to return".to_string(),
            });
        };
        sim.deliver(op)?;
        steps += 1;
        if steps > 1_000_000 {
            return Err(SimError::Stuck {
                steps,
                waiting_for: "ablation phase 3".to_string(),
            });
        }
    }
    let read_value = sim.result_of(read).and_then(|r| r.payload()).unwrap_or(0);

    let history = HighHistory::from_run(sim.history());
    let violates = check_ws_safe(&history, &SequentialSpec::register()).is_err();
    Ok(AblationOutcome {
        slack,
        written,
        read: read_value,
        crashed_servers: to_crash.len(),
        violates_ws_safety: violates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(k: usize, f: usize, n: usize) -> Params {
        Params::new(k, f, n).unwrap()
    }

    #[test]
    fn paper_quorum_survives_the_crash_schedule() {
        for (k, f, n) in [(1usize, 1usize, 3usize), (2, 1, 4), (1, 2, 5)] {
            let outcome = demonstrate_quorum_ablation(params(k, f, n), 0).unwrap();
            assert_eq!(outcome.read, outcome.written, "k={k} f={f} n={n}");
            assert!(!outcome.violates_ws_safety);
            assert!(outcome.crashed_servers <= f);
        }
    }

    #[test]
    fn reduced_quorum_loses_the_write_at_minimal_n() {
        // With z = 1 (n = 2f + 1) the visibility margin is a single register,
        // so waiting for one acknowledgement fewer than |R_j| - f already
        // lets the value disappear behind f crashes plus delayed responses.
        for (k, f, n) in [(1usize, 1usize, 3usize), (3, 1, 3), (1, 2, 5)] {
            let outcome = demonstrate_quorum_ablation(params(k, f, n), 1).unwrap();
            assert_ne!(outcome.read, outcome.written, "k={k} f={f} n={n}");
            assert!(outcome.violates_ws_safety, "k={k} f={f} n={n}");
            assert!(outcome.crashed_servers <= f);
        }
    }

    #[test]
    fn reduced_quorum_loses_the_write_once_the_margin_is_exhausted() {
        // For z > 1 a single write enjoys a margin of (z-1)·f + 1 surviving
        // acknowledgements (the margin the *other* writers of the set would
        // consume with their covering writes); skipping that many is what it
        // takes for a lone writer's value to vanish.
        for (k, f, n) in [(2usize, 1usize, 4usize), (3, 1, 5), (2, 2, 7)] {
            let p = params(k, f, n);
            let slack = (p.z() - 1) * p.f + 1;
            // One acknowledgement less than that margin is still safe…
            let safe = demonstrate_quorum_ablation(p, slack - 1).unwrap();
            assert_eq!(safe.read, safe.written, "k={k} f={f} n={n}");
            // …but skipping the full margin loses the write.
            let unsafe_outcome = demonstrate_quorum_ablation(p, slack).unwrap();
            assert_ne!(
                unsafe_outcome.read, unsafe_outcome.written,
                "k={k} f={f} n={n}"
            );
            assert!(unsafe_outcome.violates_ws_safety, "k={k} f={f} n={n}");
        }
    }
}
