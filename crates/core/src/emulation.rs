//! Emulation factories.
//!
//! An [`Emulation`] bundles everything needed to run one of the paper's
//! constructions inside the simulator: the base-object topology (how many
//! objects of which kind on which servers) and constructors for writer and
//! reader client protocols. There are two constructions. Multi-writer ABD
//! (`crate::abd`) needs only `write-max`/`read-max` at each server, so one
//! client over three [`MaxDriver`]s yields three rows of Table 1; Algorithm 2
//! is the space-optimal register construction:
//!
//! | kind | base objects | count | guarantee |
//! |---|---|---|---|
//! | [`EmulationKind::AbdMaxRegister`] | max-registers | `2f + 1` (one on each of servers `0..2f+1`) | WS-Regular |
//! | [`EmulationKind::AbdCas`] | CAS (Algorithm 1 gives `write-max`) | `2f + 1` | WS-Regular |
//! | [`EmulationKind::RegisterBank`] | read/write registers | `n·k` (k per server) | WS-Regular; not WS-Safe at `n = 2f + 1` (ROADMAP item 1) |
//! | [`EmulationKind::SpaceOptimal`] | read/write registers | `kf + ⌈k/z⌉(f+1)` | WS-Regular, wait-free (Algorithm 2) |
//!
//! The `*Atomic` kinds are the three ABD rows with read write-back.

use crate::abd::AbdClient;
use crate::drivers::{BankMaxDriver, CasMaxDriver, MaxDriver, NativeMaxDriver};
use crate::faulty::FaultyKind;
use crate::layout::RegisterLayout;
use crate::upper_bound::{SharedLayout, SpaceOptimalClient};
use regemu_bounds::Params;
use regemu_fpsm::{
    ClientProtocol, ObjectId, ObjectKind, ServerId, SimConfig, Simulation, Topology,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The canonical registry of emulation constructions, by kind.
///
/// An [`EmulationKind`] is the *description* of a construction — `Copy`,
/// serializable and cheap to pass around — while [`EmulationKind::build`]
/// produces the runnable [`Emulation`] instance for a parameter point.
/// Scenario descriptions, sweeps, the experiment binaries and the examples
/// all select constructions through this enum, so adding a construction here
/// makes it available to every experiment surface at once.
///
/// A `Box<dyn Emulation>` is not `Send`, so parallel harnesses describe the
/// construction by kind and each worker builds its own instance — which also
/// keeps every case hermetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmulationKind {
    /// Multi-writer ABD over one max-register per server (Table 1, row 1).
    AbdMaxRegister,
    /// Multi-writer ABD over one CAS object per server (Table 1, row 2).
    AbdCas,
    /// The paper's space-optimal register construction (Algorithm 2).
    SpaceOptimal,
    /// ABD over per-server banks of plain registers (the naive baseline).
    RegisterBank,
    /// [`EmulationKind::AbdMaxRegister`] with read write-back (atomic).
    AbdMaxRegisterAtomic,
    /// [`EmulationKind::AbdCas`] with read write-back (atomic).
    AbdCasAtomic,
    /// [`EmulationKind::RegisterBank`] with read write-back for writers.
    RegisterBankAtomic,
}

impl EmulationKind {
    /// The WS-Regular constructions compared throughout the evaluation, in
    /// Table 1 order — the default sweep axis.
    pub const ALL: [EmulationKind; 4] = [
        EmulationKind::AbdMaxRegister,
        EmulationKind::AbdCas,
        EmulationKind::SpaceOptimal,
        EmulationKind::RegisterBank,
    ];

    /// The atomic (read write-back) ABD variants.
    pub const ATOMIC: [EmulationKind; 3] = [
        EmulationKind::AbdMaxRegisterAtomic,
        EmulationKind::AbdCasAtomic,
        EmulationKind::RegisterBankAtomic,
    ];

    /// Builds a fresh instance of this construction for `params`.
    pub fn build(self, params: Params) -> Box<dyn Emulation> {
        let (object_kind, read_write_back) = match self {
            EmulationKind::SpaceOptimal => return Box::new(SpaceOptimalEmulation::new(params)),
            EmulationKind::AbdMaxRegister => (ObjectKind::MaxRegister, false),
            EmulationKind::AbdCas => (ObjectKind::Cas, false),
            EmulationKind::RegisterBank => (ObjectKind::Register, false),
            EmulationKind::AbdMaxRegisterAtomic => (ObjectKind::MaxRegister, true),
            EmulationKind::AbdCasAtomic => (ObjectKind::Cas, true),
            EmulationKind::RegisterBankAtomic => (ObjectKind::Register, true),
        };
        Box::new(AbdEmulation::new(
            self.name(),
            object_kind,
            read_write_back,
            params,
        ))
    }

    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EmulationKind::AbdMaxRegister => "abd-max-register",
            EmulationKind::AbdCas => "abd-cas",
            EmulationKind::SpaceOptimal => "space-optimal",
            EmulationKind::RegisterBank => "register-bank",
            EmulationKind::AbdMaxRegisterAtomic => "abd-max-register-atomic",
            EmulationKind::AbdCasAtomic => "abd-cas-atomic",
            EmulationKind::RegisterBankAtomic => "register-bank-atomic",
        }
    }

    /// The inverse of [`EmulationKind::name`], for CLI flags and config
    /// files.
    pub fn from_name(name: &str) -> Option<Self> {
        EmulationKind::ALL
            .into_iter()
            .chain(EmulationKind::ATOMIC)
            .find(|k| k.name() == name)
    }
}

impl fmt::Display for EmulationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully described emulation instance: topology plus protocol factories.
pub trait Emulation {
    /// Short name used in tables and reports: the name of the kind that
    /// built the instance.
    fn name(&self) -> &'static str;

    /// The base-object type stored by the servers.
    fn base_object_kind(&self) -> ObjectKind;

    /// The `(k, f, n)` parameters.
    fn params(&self) -> Params;

    /// The topology (servers, base objects, placement) of the instance.
    fn topology(&self) -> &Topology;

    /// Number of base objects provisioned — the construction's space cost.
    fn base_object_count(&self) -> usize {
        self.topology().object_count()
    }

    /// Builds the protocol state machine for writer `writer_index`
    /// (0-based, `< k`).
    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol>;

    /// Builds the protocol state machine for a read-only client.
    fn reader_protocol(&self) -> Box<dyn ClientProtocol>;

    /// Creates a fresh simulation of this instance (enforcing the failure
    /// threshold `f`).
    fn build_simulation(&self) -> Simulation {
        Simulation::new(
            self.topology().clone(),
            SimConfig::with_fault_threshold(self.params().f),
        )
    }
}

// ---------------------------------------------------------------------------
// Multi-writer ABD over per-server max drivers
// ---------------------------------------------------------------------------

/// Multi-writer ABD over one of three base-object types; the object kind
/// fixes the topology and the per-server [`MaxDriver`]:
///
/// * max-registers: one on each of servers `0..2f+1`, read and written
///   natively. The `2f + 1` upper bound of Table 1, row 1; more servers
///   cannot lower the cost, and the paper's lower bound shows it cannot go
///   lower either.
/// * CAS: the same placement, with Algorithm 1's retry loop providing each
///   server's `write-max`. Table 1, row 2.
/// * read/write registers: a bank of `k` on each of the `n` servers, one
///   slot per writer. With `n = 2f + 1` this is the paper's `(2f+1)·k`
///   construction, tight against the lower bound in space. Tests pin that
///   object count only: at `n = 2f + 1` this code is not even WS-Safe, as
///   a fair run at `(1,1,3)` shows (ROADMAP item 1; the repro is the
///   ignored `register_bank_is_ws_safe_at_n_equal_2f_plus_1` in
///   `tests/consistency_properties.rs`).
#[derive(Debug)]
pub(crate) struct AbdEmulation {
    name: &'static str,
    object_kind: ObjectKind,
    params: Params,
    /// `(k, f, 2f+1)` for one object per server, `params` for banks: the
    /// client counts its `n - f` quorums over these servers.
    quorum_params: Params,
    topology: Topology,
    /// Every object, server by server: `per_server` on each quorum server.
    objects: Vec<ObjectId>,
    per_server: usize,
    read_write_back: bool,
    /// The seeded bug its writers carry (set by [`FaultyKind::build`]).
    pub(crate) fault: Option<FaultyKind>,
}

impl AbdEmulation {
    /// Creates the emulation; `read_write_back` selects the atomic variant.
    pub(crate) fn new(
        name: &'static str,
        object_kind: ObjectKind,
        read_write_back: bool,
        params: Params,
    ) -> Self {
        let (servers, per_server) = match object_kind {
            ObjectKind::Register => (params.n, params.k),
            ObjectKind::MaxRegister | ObjectKind::Cas => (2 * params.f + 1, 1),
        };
        let quorum_params = Params::new(params.k, params.f, servers).expect("2f+1 ≤ n is valid");
        let mut topology = Topology::new(params.n);
        let mut objects = Vec::with_capacity(servers * per_server);
        for s in 0..servers {
            for _ in 0..per_server {
                objects.push(topology.add_object(object_kind, ServerId::new(s)));
            }
        }
        AbdEmulation {
            name,
            object_kind,
            params,
            quorum_params,
            topology,
            objects,
            per_server,
            read_write_back,
            fault: None,
        }
    }

    /// One driver per quorum server; `own_slot` is the bank slot a writer
    /// may write (max-registers and CAS objects have no slots).
    fn drivers(&self, own_slot: Option<usize>) -> Vec<Box<dyn MaxDriver>> {
        self.objects
            .chunks(self.per_server)
            .enumerate()
            .map(|(s, objects)| {
                let server = ServerId::new(s);
                match self.object_kind {
                    ObjectKind::MaxRegister => {
                        Box::new(NativeMaxDriver::new(server, objects[0])) as Box<dyn MaxDriver>
                    }
                    ObjectKind::Cas => Box::new(CasMaxDriver::new(server, objects[0])),
                    ObjectKind::Register => {
                        Box::new(BankMaxDriver::new(server, objects.to_vec(), own_slot))
                    }
                }
            })
            .collect()
    }
}

impl Emulation for AbdEmulation {
    fn name(&self) -> &'static str {
        self.name
    }

    fn base_object_kind(&self) -> ObjectKind {
        self.object_kind
    }

    fn params(&self) -> Params {
        self.params
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        let client = AbdClient::new(
            self.quorum_params,
            Some(writer_index),
            self.read_write_back,
            self.drivers(Some(writer_index)),
        );
        Box::new(match self.fault {
            Some(FaultyKind::SkippedUpdateRound) => client.skipping_update(),
            // Exactly the two quorums a write needs, counted over the
            // servers the client talks to: the writer survives only the
            // schedules where no stray response lands before its second
            // quorum fills. Anything else wedges it forever.
            Some(FaultyKind::DroppedAcks) => {
                let quorum = self.quorum_params.n - self.quorum_params.f;
                client.dropping_acks_after(2 * quorum as u64)
            }
            Some(FaultyKind::WeakQuorumWrite) | None => client,
        })
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        // Bank slots belong to writers, so read-only clients can never write
        // back: the read_write_back option only strengthens the guarantee for
        // reads issued by writer clients. This mirrors the paper's remark
        // that atomicity generally requires readers to write, which the
        // register-bank layout does not budget for.
        let write_back = self.read_write_back && self.object_kind != ObjectKind::Register;
        Box::new(AbdClient::new(
            self.quorum_params,
            None,
            write_back,
            self.drivers(None),
        ))
    }
}

// ---------------------------------------------------------------------------
// The space-optimal construction (Algorithm 2)
// ---------------------------------------------------------------------------

/// The paper's space-optimal construction (Algorithm 2): `kf + ⌈k/z⌉(f+1)`
/// plain registers laid out in disjoint per-writer-group sets.
#[derive(Debug)]
pub struct SpaceOptimalEmulation {
    params: Params,
    topology: Topology,
    shared: Arc<SharedLayout>,
    /// The seeded bug its writers carry (set by [`FaultyKind::build`]).
    pub(crate) fault: Option<FaultyKind>,
}

impl SpaceOptimalEmulation {
    /// Creates the emulation.
    pub fn new(params: Params) -> Self {
        let (topology, layout) = RegisterLayout::build(params);
        let shared = SharedLayout::new(layout, &topology);
        SpaceOptimalEmulation {
            params,
            topology,
            shared,
            fault: None,
        }
    }

    /// The register layout used by the construction.
    pub fn layout(&self) -> &RegisterLayout {
        self.shared.layout()
    }
}

impl Emulation for SpaceOptimalEmulation {
    fn name(&self) -> &'static str {
        self.fault
            .map_or(EmulationKind::SpaceOptimal.name(), FaultyKind::name)
    }

    fn base_object_kind(&self) -> ObjectKind {
        ObjectKind::Register
    }

    fn params(&self) -> Params {
        self.params
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        let slack = usize::from(self.fault == Some(FaultyKind::WeakQuorumWrite));
        Box::new(SpaceOptimalClient::writer_with_quorum_slack(
            self.shared.clone(),
            writer_index,
            slack,
        ))
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        Box::new(SpaceOptimalClient::reader(self.shared.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_bounds::{cas_bound, max_register_bound, register_upper_bound};
    use regemu_fpsm::prelude::*;

    fn p(k: usize, f: usize, n: usize) -> Params {
        Params::new(k, f, n).unwrap()
    }

    fn smoke_test(emulation: &dyn Emulation) {
        let mut sim = emulation.build_simulation();
        let k = emulation.params().k;
        let writers: Vec<ClientId> = (0..k)
            .map(|i| sim.register_client(emulation.writer_protocol(i)))
            .collect();
        let reader = sim.register_client(emulation.reader_protocol());
        let mut driver = FairDriver::new(99);
        for (i, w) in writers.iter().enumerate() {
            let op = sim.invoke(*w, HighOp::Write(i as u64 + 1)).unwrap();
            driver.run_until_complete(&mut sim, op, 50_000).unwrap();
        }
        let r = sim.invoke(reader, HighOp::Read).unwrap();
        driver.run_until_complete(&mut sim, r, 50_000).unwrap();
        assert_eq!(
            sim.result_of(r),
            Some(HighResponse::ReadValue(k as u64)),
            "emulation {} returned a wrong value",
            emulation.name()
        );
    }

    #[test]
    fn every_kind_round_trips() {
        for params in [p(3, 1, 4), p(2, 1, 3)] {
            for kind in EmulationKind::ALL.into_iter().chain(EmulationKind::ATOMIC) {
                smoke_test(kind.build(params).as_ref());
            }
        }
    }

    #[test]
    fn provisioned_object_counts_match_table_1() {
        let params = p(4, 2, 7);
        let count = |kind: EmulationKind| kind.build(params).base_object_count();
        assert_eq!(count(EmulationKind::AbdMaxRegister), max_register_bound(2));
        assert_eq!(count(EmulationKind::AbdCas), cas_bound(2));
        assert_eq!(
            count(EmulationKind::SpaceOptimal),
            register_upper_bound(params)
        );
        assert_eq!(count(EmulationKind::RegisterBank), 7 * 4);
    }

    #[test]
    fn base_object_kinds_are_correct() {
        let params = p(2, 1, 3);
        for emulation in EmulationKind::ALL.map(|k| k.build(params)) {
            let kind = emulation.base_object_kind();
            let topology = emulation.topology();
            for b in topology.objects() {
                assert_eq!(topology.kind_of(b), kind, "{}", emulation.name());
            }
        }
    }

    #[test]
    fn emulation_kind_registry_is_consistent() {
        let params = p(2, 1, 4);
        for kind in EmulationKind::ALL.into_iter().chain(EmulationKind::ATOMIC) {
            let emulation = kind.build(params);
            assert_eq!(EmulationKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(emulation.params(), params);
            smoke_test(emulation.as_ref());
        }
        assert_eq!(EmulationKind::from_name("nope"), None);
    }

    /// Every kind, clean and faulty, at `(2,1,3)` and `(2,1,5)`: the name
    /// its emulation reports, the base-object type and count, and the
    /// server of each object in creation order (which pins every
    /// `ObjectId`). Mismatches are collected so one run names them all.
    #[test]
    fn every_kind_builds_its_pinned_construction() {
        use ObjectKind::{Cas, MaxRegister, Register};
        const ABD: [&[usize]; 2] = [&[0, 1, 2], &[0, 1, 2]];
        const BANK: [&[usize]; 2] = [&[0, 0, 1, 1, 2, 2], &[0, 0, 1, 1, 2, 2, 3, 3, 4, 4]];
        const OPTIMAL: [&[usize]; 2] = [&[0, 1, 2, 0, 1, 2], &[0, 1, 2, 3]];
        let table: [(&str, ObjectKind, [&[usize]; 2]); 10] = [
            ("abd-max-register", MaxRegister, ABD),
            ("abd-cas", Cas, ABD),
            ("space-optimal", Register, OPTIMAL),
            ("register-bank", Register, BANK),
            ("abd-max-register-atomic", MaxRegister, ABD),
            ("abd-cas-atomic", Cas, ABD),
            ("register-bank-atomic", Register, BANK),
            ("faulty-weak-quorum", Register, OPTIMAL),
            ("faulty-skipped-update", MaxRegister, ABD),
            ("faulty-dropped-acks", MaxRegister, ABD),
        ];
        let mut mismatches = Vec::new();
        for (column, n) in [3, 5].into_iter().enumerate() {
            let params = p(2, 1, n);
            let built = EmulationKind::ALL
                .into_iter()
                .chain(EmulationKind::ATOMIC)
                .map(|k| (k.name(), k.build(params)))
                .chain(FaultyKind::ALL.map(|k| (k.name(), k.build(params))));
            for ((name, emulation), (row, kind, hosts)) in built.zip(table) {
                assert_eq!(name, row, "the table lists every kind in order");
                let topology = emulation.topology();
                let got = (
                    emulation.name(),
                    emulation.base_object_kind(),
                    emulation.base_object_count(),
                    topology
                        .objects()
                        .map(|b| topology.server_of(b).index())
                        .collect::<Vec<_>>(),
                );
                let want = (name, kind, hosts[column].len(), hosts[column].to_vec());
                if got != want {
                    mismatches.push(format!("{name} at n = {n}: got {got:?}, want {want:?}"));
                }
            }
        }
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }

    #[test]
    fn abd_uses_only_2f_plus_1_servers_even_with_more_available() {
        let params = p(2, 1, 9);
        let e = EmulationKind::AbdMaxRegister.build(params);
        assert_eq!(e.topology().server_count(), 9);
        assert_eq!(e.base_object_count(), 3);
        smoke_test(e.as_ref());
    }
}
