//! Property-based tests of the simulation engine: whatever the environment
//! does (random delivery orders, random drops, random crashes within the
//! fault budget), the engine's bookkeeping invariants hold.

use proptest::prelude::*;
use regemu_fpsm::prelude::*;
use regemu_fpsm::Event;
use std::collections::BTreeSet;

/// A protocol that writes to every object of the topology and completes after
/// a configurable number of acknowledgements; reads a fixed object. Late
/// responses arriving after the operation completed are ignored (as any
/// well-formed protocol must do).
struct QuorumishClient {
    targets: Vec<ObjectId>,
    needed: usize,
    acks: usize,
    in_flight: bool,
}

impl ClientProtocol for QuorumishClient {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        self.acks = 0;
        self.in_flight = true;
        match op {
            HighOp::Write(v) => {
                for (i, b) in self.targets.iter().enumerate() {
                    ctx.trigger(*b, BaseOp::Write(Value::new(v, i as u64)));
                }
            }
            HighOp::Read => {
                for b in &self.targets {
                    ctx.trigger(*b, BaseOp::Read);
                }
            }
        }
    }

    fn on_response(&mut self, _delivery: Delivery, ctx: &mut Context<'_>) {
        self.acks += 1;
        if self.in_flight && self.acks >= self.needed {
            self.in_flight = false;
            ctx.complete(HighResponse::WriteAck);
        }
    }
}

/// One environment decision of the random schedule.
#[derive(Clone, Copy, Debug)]
enum Choice {
    Deliver(usize),
    Drop(usize),
    CrashServer(usize),
    Invoke(usize),
}

fn choice_strategy() -> impl Strategy<Value = Choice> {
    prop_oneof![
        4 => (0usize..64).prop_map(Choice::Deliver),
        1 => (0usize..64).prop_map(Choice::Drop),
        1 => (0usize..8).prop_map(Choice::CrashServer),
        2 => (0usize..8).prop_map(Choice::Invoke),
    ]
}

fn build(n: usize, f: usize, clients: usize) -> (Simulation, Vec<ClientId>) {
    let mut topology = Topology::new(n);
    let objects = topology.add_object_per_server(ObjectKind::Register);
    let mut sim = Simulation::new(topology, SimConfig::with_fault_threshold(f));
    let ids = (0..clients)
        .map(|_| {
            sim.register_client(Box::new(QuorumishClient {
                targets: objects.clone(),
                needed: n - f,
                acks: 0,
                in_flight: false,
            }))
        })
        .collect();
    (sim, ids)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Engine invariants under arbitrary environment behaviour.
    #[test]
    fn engine_invariants_hold_under_random_environments(
        n in 3usize..7,
        choices in proptest::collection::vec(choice_strategy(), 1..80),
    ) {
        let f = (n - 1) / 2;
        let (mut sim, clients) = build(n, f, 3);
        let mut next_value = 1u64;

        for choice in choices {
            match choice {
                Choice::Deliver(i) => {
                    let ids: Vec<OpId> = sim.deliverable_ops().map(|p| p.op_id).collect();
                    if !ids.is_empty() {
                        sim.deliver(ids[i % ids.len()]).unwrap();
                    }
                }
                Choice::Drop(i) => {
                    let ids: Vec<OpId> = sim.pending_ops().map(|p| p.op_id).collect();
                    if !ids.is_empty() {
                        sim.drop_pending(ids[i % ids.len()]).unwrap();
                    }
                }
                Choice::CrashServer(i) => {
                    let server = ServerId::new(i % n);
                    // May fail if the budget is exhausted; both outcomes legal.
                    let _ = sim.crash_server(server);
                }
                Choice::Invoke(i) => {
                    let client = clients[i % clients.len()];
                    if sim.is_client_idle(client) {
                        let op = if i % 3 == 0 { HighOp::Read } else {
                            next_value += 1;
                            HighOp::Write(next_value)
                        };
                        sim.invoke(client, op).unwrap();
                    }
                }
            }

            // --- invariants checked after every single transition ---
            // 1. The fault budget is respected.
            prop_assert!(sim.crashed_server_count() <= f);
            // 2. Every pending operation was triggered and never responded.
            let responded: BTreeSet<OpId> = sim
                .history()
                .events()
                .filter_map(|e| match e {
                    Event::Respond { op_id, .. } => Some(op_id),
                    _ => None,
                })
                .collect();
            for p in sim.pending_ops() {
                prop_assert!(!responded.contains(&p.op_id));
            }
            // 3. No response from a crashed object: every respond event's
            //    object must have been alive at that time (we check the
            //    weaker, state-based form: a respond never follows the
            //    crash of its server in the event order).
            let mut crashed: BTreeSet<ServerId> = BTreeSet::new();
            for e in sim.history().events() {
                match e {
                    Event::ServerCrash { server, .. } => {
                        crashed.insert(server);
                    }
                    Event::Respond { object, .. } => {
                        prop_assert!(!crashed.contains(&sim.topology().server_of(object)));
                    }
                    _ => {}
                }
            }
            // 4. Metrics consistency: covered ⊆ written ⊆ touched, and the
            //    resource consumption never exceeds the provisioned objects.
            let m = RunMetrics::capture(&sim);
            prop_assert!(m.covered.iter().all(|b| m.written.contains(b)));
            prop_assert!(m.written.iter().all(|b| m.touched.contains(b)));
            prop_assert!(m.resource_consumption() <= sim.topology().object_count());
            prop_assert!(m.low_level_responses <= m.low_level_triggers);
            // 5. Each client has at most one outstanding high-level op.
            let pending_high = sim
                .history()
                .high_intervals()
                .iter()
                .filter(|iv| !iv.is_complete())
                .map(|iv| iv.client)
                .collect::<Vec<_>>();
            let mut unique = pending_high.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(pending_high.len(), unique.len());
        }
    }

    /// A fair driver eventually completes every quorum-waiting operation as
    /// long as crashes stay within the budget, regardless of the seed.
    #[test]
    fn fair_driver_is_live_within_the_fault_budget(
        n in 3usize..7,
        seed in 0u64..500,
        crash_first in proptest::bool::ANY,
    ) {
        let f = (n - 1) / 2;
        let (mut sim, clients) = build(n, f, 1);
        if crash_first {
            sim.crash_server(ServerId::new(seed as usize % n)).unwrap();
        }
        let mut driver = FairDriver::new(seed);
        let op = sim.invoke(clients[0], HighOp::Write(9)).unwrap();
        driver.run_until_complete(&mut sim, op, 10_000).unwrap();
        prop_assert_eq!(sim.result_of(op), Some(HighResponse::WriteAck));
    }

    /// Replaying the same seed yields the identical event trace
    /// (reproducibility of experiments).
    #[test]
    fn runs_are_reproducible_per_seed(n in 3usize..6, seed in 0u64..200) {
        let run = |seed: u64| {
            let f = (n - 1) / 2;
            let (mut sim, clients) = build(n, f, 2);
            let mut driver = FairDriver::new(seed);
            for (i, c) in clients.iter().enumerate() {
                let op = sim.invoke(*c, HighOp::Write(i as u64 + 1)).unwrap();
                driver.run_until_complete(&mut sim, op, 10_000).unwrap();
            }
            sim.history().events().collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
