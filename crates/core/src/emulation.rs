//! Emulation factories.
//!
//! An [`Emulation`] bundles everything needed to run one of the paper's
//! constructions inside the simulator: the base-object topology (how many
//! objects of which kind on which servers) and constructors for writer and
//! reader client protocols. The four provided emulations correspond to the
//! rows of Table 1 plus the `n = 2f+1` special case:
//!
//! | factory | base objects | count | guarantee |
//! |---|---|---|---|
//! | [`AbdMaxRegisterEmulation`] | max-registers | `2f + 1` (one per quorum server) | WS-Regular (atomic with write-back) |
//! | [`AbdCasEmulation`] | CAS | `2f + 1` | WS-Regular (atomic with write-back) |
//! | [`RegisterBankEmulation`] | read/write registers | `n·k` (k per server) | WS-Regular (atomic with write-back) |
//! | [`SpaceOptimalEmulation`] | read/write registers | `kf + ⌈k/z⌉(f+1)` | WS-Regular, wait-free (Algorithm 2) |

use crate::abd::AbdClient;
use crate::drivers::{BankMaxDriver, CasMaxDriver, MaxDriver, NativeMaxDriver};
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
        match self {
            EmulationKind::AbdMaxRegister => Box::new(AbdMaxRegisterEmulation::new(params, false)),
            EmulationKind::AbdCas => Box::new(AbdCasEmulation::new(params, false)),
            EmulationKind::SpaceOptimal => Box::new(SpaceOptimalEmulation::new(params)),
            EmulationKind::RegisterBank => Box::new(RegisterBankEmulation::new(params, false)),
            EmulationKind::AbdMaxRegisterAtomic => {
                Box::new(AbdMaxRegisterEmulation::new(params, true))
            }
            EmulationKind::AbdCasAtomic => Box::new(AbdCasEmulation::new(params, true)),
            EmulationKind::RegisterBankAtomic => Box::new(RegisterBankEmulation::new(params, true)),
        }
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
    /// Short name used in tables and reports.
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
// ABD over native max-registers
// ---------------------------------------------------------------------------

/// Multi-writer ABD with one *max-register* per quorum server — the `2f + 1`
/// upper bound of Table 1, row 1.
///
/// Only `2f + 1` of the `n` available servers are used; using more servers
/// cannot reduce the space cost below `2f + 1` (and the paper's lower bound
/// shows it cannot go lower either).
#[derive(Debug)]
pub struct AbdMaxRegisterEmulation {
    params: Params,
    quorum_params: Params,
    topology: Topology,
    objects: Vec<ObjectId>,
    read_write_back: bool,
}

impl AbdMaxRegisterEmulation {
    /// Creates the emulation; `read_write_back` selects the atomic variant.
    pub fn new(params: Params, read_write_back: bool) -> Self {
        let quorum_n = 2 * params.f + 1;
        let quorum_params =
            Params::new(params.k, params.f, quorum_n).expect("2f+1 is always valid");
        let mut topology = Topology::new(params.n);
        let objects: Vec<ObjectId> = (0..quorum_n)
            .map(|s| topology.add_object(ObjectKind::MaxRegister, ServerId::new(s)))
            .collect();
        AbdMaxRegisterEmulation {
            params,
            quorum_params,
            topology,
            objects,
            read_write_back,
        }
    }

    pub(crate) fn drivers(&self) -> Vec<Box<dyn MaxDriver>> {
        self.objects
            .iter()
            .enumerate()
            .map(|(s, b)| {
                Box::new(NativeMaxDriver::new(ServerId::new(s), *b)) as Box<dyn MaxDriver>
            })
            .collect()
    }

    pub(crate) fn quorum_params(&self) -> Params {
        self.quorum_params
    }

    pub(crate) fn read_write_back(&self) -> bool {
        self.read_write_back
    }
}

impl Emulation for AbdMaxRegisterEmulation {
    fn name(&self) -> &'static str {
        "abd-max-register"
    }

    fn base_object_kind(&self) -> ObjectKind {
        ObjectKind::MaxRegister
    }

    fn params(&self) -> Params {
        self.params
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        Box::new(AbdClient::new(
            self.quorum_params,
            Some(writer_index),
            self.read_write_back,
            self.drivers(),
        ))
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        Box::new(AbdClient::new(
            self.quorum_params,
            None,
            self.read_write_back,
            self.drivers(),
        ))
    }
}

// ---------------------------------------------------------------------------
// ABD over CAS (via Algorithm 1)
// ---------------------------------------------------------------------------

/// Multi-writer ABD with one *CAS object* per quorum server; each server's
/// max-register interface is provided by Algorithm 1's retry loop. The
/// `2f + 1` upper bound of Table 1, row 2.
#[derive(Debug)]
pub struct AbdCasEmulation {
    params: Params,
    quorum_params: Params,
    topology: Topology,
    objects: Vec<ObjectId>,
    read_write_back: bool,
}

impl AbdCasEmulation {
    /// Creates the emulation; `read_write_back` selects the atomic variant.
    pub fn new(params: Params, read_write_back: bool) -> Self {
        let quorum_n = 2 * params.f + 1;
        let quorum_params =
            Params::new(params.k, params.f, quorum_n).expect("2f+1 is always valid");
        let mut topology = Topology::new(params.n);
        let objects: Vec<ObjectId> = (0..quorum_n)
            .map(|s| topology.add_object(ObjectKind::Cas, ServerId::new(s)))
            .collect();
        AbdCasEmulation {
            params,
            quorum_params,
            topology,
            objects,
            read_write_back,
        }
    }

    fn drivers(&self) -> Vec<Box<dyn MaxDriver>> {
        self.objects
            .iter()
            .enumerate()
            .map(|(s, b)| Box::new(CasMaxDriver::new(ServerId::new(s), *b)) as Box<dyn MaxDriver>)
            .collect()
    }
}

impl Emulation for AbdCasEmulation {
    fn name(&self) -> &'static str {
        "abd-cas"
    }

    fn base_object_kind(&self) -> ObjectKind {
        ObjectKind::Cas
    }

    fn params(&self) -> Params {
        self.params
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        Box::new(AbdClient::new(
            self.quorum_params,
            Some(writer_index),
            self.read_write_back,
            self.drivers(),
        ))
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        Box::new(AbdClient::new(
            self.quorum_params,
            None,
            self.read_write_back,
            self.drivers(),
        ))
    }
}

// ---------------------------------------------------------------------------
// ABD over per-server register banks (the n = 2f+1 special case)
// ---------------------------------------------------------------------------

/// Each server stores a bank of `k` plain registers implementing a `k`-writer
/// max-register (one slot per writer); multi-writer ABD runs on top. With
/// `n = 2f + 1` this is the `(2f+1)·k` construction the paper describes as
/// tight against the lower bound (and achieving regularity stronger than
/// WS-Regularity).
#[derive(Debug)]
pub struct RegisterBankEmulation {
    params: Params,
    topology: Topology,
    banks: Vec<Vec<ObjectId>>,
    read_write_back: bool,
}

impl RegisterBankEmulation {
    /// Creates the emulation over all `n` servers; `read_write_back` selects
    /// the atomic variant.
    pub fn new(params: Params, read_write_back: bool) -> Self {
        let mut topology = Topology::new(params.n);
        let banks: Vec<Vec<ObjectId>> = (0..params.n)
            .map(|s| {
                (0..params.k)
                    .map(|_| topology.add_object(ObjectKind::Register, ServerId::new(s)))
                    .collect()
            })
            .collect();
        RegisterBankEmulation {
            params,
            topology,
            banks,
            read_write_back,
        }
    }

    fn drivers(&self, own_slot: Option<usize>) -> Vec<Box<dyn MaxDriver>> {
        self.banks
            .iter()
            .enumerate()
            .map(|(s, bank)| {
                Box::new(BankMaxDriver::new(ServerId::new(s), bank.clone(), own_slot))
                    as Box<dyn MaxDriver>
            })
            .collect()
    }
}

impl Emulation for RegisterBankEmulation {
    fn name(&self) -> &'static str {
        "register-bank"
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
        Box::new(AbdClient::new(
            self.params,
            Some(writer_index),
            self.read_write_back,
            self.drivers(Some(writer_index)),
        ))
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        // Bank slots belong to writers, so read-only clients can never write
        // back: the read_write_back option only strengthens the guarantee for
        // reads issued by writer clients. This mirrors the paper's remark
        // that atomicity generally requires readers to write, which the
        // register-bank layout does not budget for.
        Box::new(AbdClient::new(self.params, None, false, self.drivers(None)))
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
        }
    }

    /// The register layout used by the construction.
    pub fn layout(&self) -> &RegisterLayout {
        self.shared.layout()
    }

    /// The shared layout handle given to every client protocol.
    pub(crate) fn shared_layout(&self) -> Arc<SharedLayout> {
        self.shared.clone()
    }
}

impl Emulation for SpaceOptimalEmulation {
    fn name(&self) -> &'static str {
        "space-optimal"
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
        Box::new(SpaceOptimalClient::writer(
            self.shared.clone(),
            writer_index,
        ))
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        Box::new(SpaceOptimalClient::reader(self.shared.clone()))
    }
}

/// The register-based emulations compared throughout the evaluation, built
/// for the same parameters. Useful for sweeps.
pub fn register_based_emulations(params: Params) -> Vec<Box<dyn Emulation>> {
    vec![
        Box::new(SpaceOptimalEmulation::new(params)),
        Box::new(RegisterBankEmulation::new(params, false)),
    ]
}

/// All emulations of Table 1 (max-register, CAS, register-bank and
/// space-optimal), built for the same parameters.
pub fn all_emulations(params: Params) -> Vec<Box<dyn Emulation>> {
    vec![
        Box::new(AbdMaxRegisterEmulation::new(params, false)),
        Box::new(AbdCasEmulation::new(params, false)),
        Box::new(SpaceOptimalEmulation::new(params)),
        Box::new(RegisterBankEmulation::new(params, false)),
    ]
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
    fn every_emulation_round_trips() {
        for emulation in all_emulations(p(3, 1, 4)) {
            smoke_test(emulation.as_ref());
        }
    }

    #[test]
    fn provisioned_object_counts_match_table_1() {
        let params = p(4, 2, 7);
        assert_eq!(
            AbdMaxRegisterEmulation::new(params, false).base_object_count(),
            max_register_bound(2)
        );
        assert_eq!(
            AbdCasEmulation::new(params, false).base_object_count(),
            cas_bound(2)
        );
        assert_eq!(
            SpaceOptimalEmulation::new(params).base_object_count(),
            register_upper_bound(params)
        );
        assert_eq!(
            RegisterBankEmulation::new(params, false).base_object_count(),
            7 * 4
        );
    }

    #[test]
    fn base_object_kinds_are_correct() {
        let params = p(2, 1, 3);
        for emulation in all_emulations(params) {
            let kind = emulation.base_object_kind();
            let topology = emulation.topology();
            for b in topology.objects() {
                assert_eq!(topology.kind_of(b), kind, "{}", emulation.name());
            }
        }
    }

    #[test]
    fn atomic_variants_also_round_trip() {
        let params = p(2, 1, 3);
        let emulations: Vec<Box<dyn Emulation>> = vec![
            Box::new(AbdMaxRegisterEmulation::new(params, true)),
            Box::new(AbdCasEmulation::new(params, true)),
            Box::new(RegisterBankEmulation::new(params, true)),
        ];
        for emulation in emulations {
            smoke_test(emulation.as_ref());
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
        // `ALL` matches `all_emulations` name-for-name, in Table 1 order.
        let by_kind: Vec<_> = EmulationKind::ALL
            .into_iter()
            .map(|k| k.build(params).name().to_string())
            .collect();
        let by_factory: Vec<_> = all_emulations(params)
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        assert_eq!(by_kind, by_factory);
    }

    #[test]
    fn abd_uses_only_2f_plus_1_servers_even_with_more_available() {
        let params = p(2, 1, 9);
        let e = AbdMaxRegisterEmulation::new(params, false);
        assert_eq!(e.topology().server_count(), 9);
        assert_eq!(e.base_object_count(), 3);
        smoke_test(&e);
    }
}
