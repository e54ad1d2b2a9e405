//! Register-set layout of the space-optimal construction (Section 3.3).
//!
//! The upper-bound algorithm partitions the `k` writers over a collection
//! `R = {R_0, …, R_{m-1}}` of **disjoint** register sets. With
//! `z = ⌊(n-(f+1))/f⌋` and `y = z·f + f + 1`:
//!
//! * every full set holds `y` registers and serves `z` writers;
//! * if `z` does not divide `k`, the final *overflow* set holds
//!   `(k mod z)·f + f + 1` registers and serves the remaining writers;
//! * within a set, every register is mapped to a **different** server
//!   (`|δ(R_i)| = |R_i|`).
//!
//! The total register count is exactly the upper bound of Theorem 3, and
//! [`RegisterLayout::render`] reproduces Figure 1 of the paper for any
//! parameter choice.

use regemu_bounds::Params;
use regemu_fpsm::{ObjectId, ObjectKind, ServerId, Topology};
use std::collections::BTreeMap;

/// The placement of the register sets `R_0..R_{m-1}` used by Algorithm 2.
#[derive(Clone, Debug)]
pub struct RegisterLayout {
    params: Params,
    /// `sets[i]` is the list of base registers in `R_i`.
    sets: Vec<Vec<ObjectId>>,
    /// `servers[i][j]` is the server hosting `sets[i][j]`.
    servers: Vec<Vec<ServerId>>,
}

impl RegisterLayout {
    /// Builds the layout inside `topology`, which must already contain
    /// `params.n` servers. One base register is added per layout slot; sets
    /// are rotated across servers so the load is spread (and so that at
    /// `n = 2f + 1` every server receives exactly one register per set).
    ///
    /// # Panics
    ///
    /// Panics if the topology does not have exactly `params.n` servers.
    pub(crate) fn install(params: Params, topology: &mut Topology) -> Self {
        assert_eq!(
            topology.server_count(),
            params.n,
            "topology has {} servers but the layout needs n = {}",
            topology.server_count(),
            params.n
        );
        let z = params.z();
        let full_set_size = params.y();
        let full_sets = params.k / z;
        let remainder_writers = params.k % z;

        let mut set_sizes: Vec<usize> = vec![full_set_size; full_sets];
        if remainder_writers > 0 {
            set_sizes.push(remainder_writers * params.f + params.f + 1);
        }

        let n = params.n;
        let mut sets = Vec::with_capacity(set_sizes.len());
        let mut servers = Vec::with_capacity(set_sizes.len());
        for (i, size) in set_sizes.iter().enumerate() {
            debug_assert!(*size <= n, "a register set never exceeds the server count");
            let mut set = Vec::with_capacity(*size);
            let mut set_servers = Vec::with_capacity(*size);
            // Rotate the starting server from set to set to spread occupancy.
            let start = (i * *size) % n;
            for slot in 0..*size {
                let server = ServerId::new((start + slot) % n);
                let object = topology.add_object(ObjectKind::Register, server);
                set.push(object);
                set_servers.push(server);
            }
            sets.push(set);
            servers.push(set_servers);
        }

        RegisterLayout {
            params,
            sets,
            servers,
        }
    }

    /// Convenience constructor: builds a fresh topology with `params.n`
    /// servers and installs the layout in it.
    pub fn build(params: Params) -> (Topology, Self) {
        let mut topology = Topology::new(params.n);
        let layout = Self::install(params, &mut topology);
        (topology, layout)
    }

    /// The parameters this layout was built for.
    pub(crate) fn params(&self) -> Params {
        self.params
    }

    /// Number of register sets `m`.
    pub(crate) fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Total number of base registers in the layout — the resource
    /// consumption of the construction (equals Theorem 3's formula).
    pub(crate) fn total_registers(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// All registers of the layout, in set order.
    pub(crate) fn all_registers(&self) -> Vec<ObjectId> {
        self.sets.iter().flatten().copied().collect()
    }

    /// The index of the register set assigned to writer `writer`
    /// (0-based writer index, `writer < k`).
    ///
    /// # Panics
    ///
    /// Panics if `writer >= k`.
    pub(crate) fn set_for_writer(&self, writer: usize) -> usize {
        assert!(
            writer < self.params.k,
            "writer index {writer} out of range (k = {})",
            self.params.k
        );
        writer / self.params.z()
    }

    /// The registers writer `writer` writes to (its set `R_{⌊writer/z⌋}`).
    pub fn registers_for_writer(&self, writer: usize) -> &[ObjectId] {
        &self.sets[self.set_for_writer(writer)]
    }

    /// Writers assigned to set `i` (0-based writer indices).
    pub(crate) fn writers_of_set(&self, i: usize) -> Vec<usize> {
        (0..self.params.k)
            .filter(|w| self.set_for_writer(*w) == i)
            .collect()
    }

    /// Number of layout registers hosted on each server.
    pub fn occupancy(&self) -> BTreeMap<ServerId, usize> {
        let mut occ: BTreeMap<ServerId, usize> = BTreeMap::new();
        for set_servers in &self.servers {
            for s in set_servers {
                *occ.entry(*s).or_default() += 1;
            }
        }
        occ
    }

    /// Renders the layout as a small ASCII table (one row per register set,
    /// one column per server), reproducing Figure 1 of the paper.
    pub fn render(&self) -> String {
        let n = self.params.n;
        let mut out = String::new();
        out.push_str(&format!(
            "Register layout for {} (z = {}, y = {}, {} sets, {} registers)\n",
            self.params,
            self.params.z(),
            self.params.y(),
            self.set_count(),
            self.total_registers()
        ));
        out.push_str("        ");
        for s in 0..n {
            out.push_str(&format!("{:>6}", format!("s{s}")));
        }
        out.push('\n');
        for (i, (set, servers)) in self.sets.iter().zip(&self.servers).enumerate() {
            out.push_str(&format!("R_{i:<5} "));
            for s in 0..n {
                let cell = servers
                    .iter()
                    .position(|srv| srv.index() == s)
                    .map(|pos| format!("b{}", set[pos].index()))
                    .unwrap_or_else(|| "·".to_string());
                out.push_str(&format!("{cell:>6}"));
            }
            out.push_str(&format!("   writers {:?}\n", self.writers_of_set(i)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_bounds::register_upper_bound;

    fn layout(k: usize, f: usize, n: usize) -> (Topology, RegisterLayout) {
        RegisterLayout::build(Params::new(k, f, n).unwrap())
    }

    #[test]
    fn figure1_layout_n6_k5_f2() {
        // Figure 1 of the paper: n = 6, k = 5, f = 2 → z = 1, 5 sets of 5
        // registers, 25 registers total, one writer per set.
        let (topology, layout) = layout(5, 2, 6);
        assert_eq!(layout.set_count(), 5);
        assert_eq!(layout.total_registers(), 25);
        assert_eq!(topology.object_count(), 25);
        for i in 0..5 {
            assert_eq!(layout.sets[i].len(), 5);
            assert_eq!(layout.writers_of_set(i), vec![i]);
        }
        let rendered = layout.render();
        assert!(rendered.contains("R_0"));
        assert!(rendered.contains("R_4"));
    }

    #[test]
    fn total_matches_theorem_3_for_a_sweep() {
        for f in 1..=3usize {
            for k in 1..=9usize {
                for n in (2 * f + 1)..=(3 * f + 4) {
                    let p = Params::new(k, f, n).unwrap();
                    let (_, l) = RegisterLayout::build(p);
                    assert_eq!(
                        l.total_registers(),
                        register_upper_bound(p),
                        "layout size mismatch at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn sets_are_disjoint_and_spread_over_distinct_servers() {
        let (topology, l) = layout(7, 2, 8);
        let mut seen = std::collections::BTreeSet::new();
        for (i, set) in l.sets.iter().enumerate() {
            for b in set {
                assert!(seen.insert(*b), "register sets must be disjoint");
            }
            // |δ(R_i)| = |R_i|: every register of a set on a distinct server.
            let servers: std::collections::BTreeSet<_> =
                set.iter().map(|b| topology.server_of(*b)).collect();
            assert_eq!(servers.len(), set.len());
            // And the recorded server list matches the topology.
            for (b, s) in set.iter().zip(&l.servers[i]) {
                assert_eq!(topology.server_of(*b), *s);
            }
        }
    }

    #[test]
    fn every_writer_is_assigned_to_exactly_one_set() {
        let (_, l) = layout(10, 1, 7);
        let z = l.params().z();
        for w in 0..10 {
            let set = l.set_for_writer(w);
            assert!(l.writers_of_set(set).contains(&w));
            assert_eq!(set, w / z);
            assert!(!l.registers_for_writer(w).is_empty());
        }
        // No set serves more than z writers.
        for i in 0..l.set_count() {
            assert!(l.writers_of_set(i).len() <= z);
        }
    }

    #[test]
    fn minimal_n_gives_k_registers_per_server() {
        // Theorem 6 setting: n = 2f + 1 → z = 1, every set spans all servers,
        // so each server hosts exactly k registers.
        let (_, l) = layout(4, 2, 5);
        let occ = l.occupancy();
        assert_eq!(occ.len(), 5);
        for (_, count) in occ {
            assert_eq!(count, 4);
        }
        assert_eq!(l.total_registers(), (2 * 2 + 1) * 4);
    }

    #[test]
    fn overflow_set_is_smaller() {
        // k = 5, f = 1, n = 4 → z = 2: two full sets of y = 4 registers and an
        // overflow set of (k mod z)·f + f + 1 = 3 registers for the last writer.
        let (_, l) = layout(5, 1, 4);
        assert_eq!(l.params().z(), 2);
        assert_eq!(l.params().y(), 4);
        assert_eq!(l.set_count(), 3);
        assert_eq!(l.sets[0].len(), l.params().y());
        assert_eq!(l.sets[1].len(), l.params().y());
        assert_eq!(l.sets[2].len(), 1 + 1 + 1); // (k mod z)·f + f + 1
        assert_eq!(l.writers_of_set(2), vec![4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn writer_index_out_of_range_panics() {
        let (_, l) = layout(2, 1, 4);
        l.set_for_writer(2);
    }

    #[test]
    #[should_panic(expected = "needs n")]
    fn installing_into_a_wrong_sized_topology_panics() {
        let mut t = Topology::new(3);
        RegisterLayout::install(Params::new(2, 1, 5).unwrap(), &mut t);
    }
}
