//! System topology: servers, base objects and the placement function `δ`.
//!
//! A [`Topology`] describes *which* base objects exist, of what
//! [`ObjectKind`], and on which server each one lives. It corresponds to the
//! mapping `δ : B → S` of the paper; [`Topology::server_of`] is `δ` and
//! [`Topology::objects_on`] is `δ⁻¹`.

use crate::ids::{ObjectId, ServerId};
use crate::object::ObjectKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Static description of the servers, base objects and their placement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    /// Number of servers `n = |S|`.
    servers: usize,
    /// For each object (indexed by `ObjectId`), its kind and hosting server.
    objects: Vec<(ObjectKind, ServerId)>,
}

impl Topology {
    /// Creates a topology with `servers` servers and no objects yet.
    pub fn new(servers: usize) -> Self {
        Topology {
            servers,
            objects: Vec::new(),
        }
    }

    /// Number of servers `n`.
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Number of base objects `|B|` (the resource consumption of the layout).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Iterator over all server identifiers.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers).map(ServerId::new)
    }

    /// Iterator over all object identifiers.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.objects.len()).map(ObjectId::new)
    }

    /// Adds a base object of the given kind on `server` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn add_object(&mut self, kind: ObjectKind, server: ServerId) -> ObjectId {
        assert!(
            server.index() < self.servers,
            "server {server} does not exist (topology has {} servers)",
            self.servers
        );
        let id = ObjectId::new(self.objects.len());
        self.objects.push((kind, server));
        id
    }

    /// Adds one object of `kind` on every server (the classic ABD layout).
    /// Returns the created object ids, indexed by server.
    pub fn add_object_per_server(&mut self, kind: ObjectKind) -> Vec<ObjectId> {
        self.servers()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|s| self.add_object(kind, s))
            .collect()
    }

    /// The placement function `δ`: the server hosting `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` does not exist.
    pub fn server_of(&self, object: ObjectId) -> ServerId {
        self.objects[object.index()].1
    }

    /// The kind of `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` does not exist.
    pub fn kind_of(&self, object: ObjectId) -> ObjectKind {
        self.objects[object.index()].0
    }

    /// `δ⁻¹({server})`: all objects hosted on `server`.
    pub fn objects_on(&self, server: ServerId) -> Vec<ObjectId> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, (_, s))| *s == server)
            .map(|(i, _)| ObjectId::new(i))
            .collect()
    }

    /// `δ(B')`: the image of a set of objects under the placement function.
    pub fn servers_of<I>(&self, objects: I) -> BTreeSet<ServerId>
    where
        I: IntoIterator<Item = ObjectId>,
    {
        objects.into_iter().map(|b| self.server_of(b)).collect()
    }

    /// Number of objects stored on `server` (`|δ⁻¹({s})|`).
    pub fn occupancy(&self, server: ServerId) -> usize {
        self.objects.iter().filter(|(_, s)| *s == server).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn building_a_topology() {
        let mut t = Topology::new(3);
        assert_eq!(t.server_count(), 3);
        assert_eq!(t.object_count(), 0);
        let b0 = t.add_object(ObjectKind::Register, ServerId::new(0));
        let b1 = t.add_object(ObjectKind::Register, ServerId::new(0));
        let b2 = t.add_object(ObjectKind::MaxRegister, ServerId::new(2));
        assert_eq!(t.object_count(), 3);
        assert_eq!(t.server_of(b0), ServerId::new(0));
        assert_eq!(t.server_of(b2), ServerId::new(2));
        assert_eq!(t.kind_of(b1), ObjectKind::Register);
        assert_eq!(t.kind_of(b2), ObjectKind::MaxRegister);
        assert_eq!(t.occupancy(ServerId::new(0)), 2);
        assert_eq!(t.occupancy(ServerId::new(1)), 0);
    }

    #[test]
    fn delta_and_delta_inverse_are_consistent() {
        let mut t = Topology::new(4);
        let ids = t.add_object_per_server(ObjectKind::MaxRegister);
        assert_eq!(ids.len(), 4);
        for (i, b) in ids.iter().enumerate() {
            assert_eq!(t.server_of(*b), ServerId::new(i));
            assert_eq!(t.objects_on(ServerId::new(i)), vec![*b]);
        }
        let subset = vec![ids[1], ids[3]];
        let image = t.servers_of(subset);
        assert!(image.contains(&ServerId::new(1)) && image.contains(&ServerId::new(3)));
        assert_eq!(image.len(), 2);
    }

    #[test]
    fn image_is_never_larger_than_preimage() {
        // |δ(B)| ≤ |B| and |δ⁻¹(S)| ≥ |S| when every server holds ≥ 1 object.
        let mut t = Topology::new(3);
        for s in 0..3 {
            for _ in 0..2 {
                t.add_object(ObjectKind::Register, ServerId::new(s));
            }
        }
        let all: Vec<ObjectId> = t.objects().collect();
        assert!(t.servers_of(all.clone()).len() <= all.len());
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn placing_on_unknown_server_panics() {
        let mut t = Topology::new(1);
        t.add_object(ObjectKind::Register, ServerId::new(5));
    }
}
