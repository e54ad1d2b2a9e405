//! Deployable client and server nodes extracted from the simulation loop.
//!
//! [`crate::sim::Simulation`] interleaves *all* clients and servers inside a
//! single event loop; a live deployment needs the same state machines split
//! into per-process pieces that talk over a transport. This module factors
//! the two halves out:
//!
//! * [`ClientNode`] — one client's protocol state machine plus its
//!   bookkeeping (current high-level operation, crash flag).
//!   The simulation engine drives a `Vec<ClientNode>`; a live client process
//!   (see the `regemu-serve` crate) drives a single one against remote
//!   servers. Both call the same two entry points, [`ClientNode::on_invoke`]
//!   and [`ClientNode::on_delivery`], and receive the protocol's effects as a
//!   [`ClientEffects`] value to dispatch however they like, then hand its
//!   trigger buffer back with [`ClientNode::recycle`] so the next callback
//!   reuses it.
//! * [`ServerNode`] — the base objects the placement `δ` maps to one server,
//!   with global-to-local object-id translation and an [`ServerNode::apply`]
//!   step that realizes Assumption 1 (a low-level operation linearizes when
//!   the server applies it).
//!
//! The extraction is behaviour-preserving: the simulation's event/time/op-id
//! orders are byte-identical to the pre-extraction engine (the golden-trace
//! suites in `regemu-core` pin this down).

use crate::client::{ClientProtocol, Context, Delivery};
use crate::ids::{ClientId, HighOpId, ObjectId, OpId, ServerId, Time};
use crate::object::{BaseObject, ObjectError};
use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
use crate::topology::Topology;

/// Effects a [`ClientNode`] callback produced: low-level operations to
/// dispatch and, possibly, the completed high-level response.
///
/// The simulation turns triggers into pending operations; a live client turns
/// them into wire requests. Either way the trigger order must be preserved —
/// it is the order the protocol chose.
#[derive(Debug)]
pub struct ClientEffects {
    /// Low-level operations to dispatch, in trigger order.
    pub triggers: Vec<(OpId, ObjectId, BaseOp)>,
    /// Response of the client's current high-level operation, if this
    /// callback completed it.
    pub completion: Option<HighResponse>,
}

impl ClientEffects {}

/// One client's protocol state machine plus its run bookkeeping.
///
/// This is exactly the per-client state the simulation engine keeps; it is a
/// public type so that a live client process can host the same state machine
/// over a real transport. The host owns the clock (`time`) and the op-id
/// counter (`next_op_id`) — the node never invents either, which is what
/// keeps simulated and live runs comparable.
pub struct ClientNode {
    client: ClientId,
    protocol: Box<dyn ClientProtocol>,
    crashed: bool,
    /// High-level operation currently in progress, if any.
    current: Option<(HighOpId, HighOp)>,
    /// Trigger buffer handed back through [`ClientNode::recycle`], reused by
    /// the next callback.
    spare: Vec<(OpId, ObjectId, BaseOp)>,
}

impl ClientNode {
    /// Creates a node for `client` running `protocol`.
    pub fn new(client: ClientId, protocol: Box<dyn ClientProtocol>) -> Self {
        ClientNode {
            client,
            protocol,
            crashed: false,
            current: None,
            spare: Vec::new(),
        }
    }

    /// The protocol's human-readable name (for logs and assertions).
    pub(crate) fn protocol_name(&self) -> &'static str {
        self.protocol.name()
    }

    /// `true` once [`ClientNode::crash`] has been called.
    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Marks the client as crashed. Idempotent; a crashed node must not be
    /// handed further invocations or deliveries.
    pub(crate) fn crash(&mut self) {
        self.crashed = true;
    }

    /// `true` if the client has not crashed and has no high-level operation
    /// in progress.
    pub fn is_idle(&self) -> bool {
        !self.crashed && self.current.is_none()
    }

    /// The high-level operation currently in progress, if any.
    pub fn current(&self) -> Option<(HighOpId, HighOp)> {
        self.current
    }

    /// Starts high-level operation `high_op` and runs the protocol's
    /// `on_invoke` callback at logical time `time`.
    ///
    /// The caller must have checked that the node is idle (the simulation
    /// returns a typed error first; a live client serializes its own ops).
    pub fn on_invoke(
        &mut self,
        high_op: HighOpId,
        op: HighOp,
        time: Time,
        next_op_id: &mut u64,
    ) -> ClientEffects {
        debug_assert!(!self.crashed, "invoke on crashed client {}", self.client);
        debug_assert!(
            self.current.is_none(),
            "client {} already has a high-level operation in progress",
            self.client
        );
        self.current = Some((high_op, op));
        let mut ctx = Context::new(
            self.client,
            time,
            next_op_id,
            std::mem::take(&mut self.spare),
        );
        self.protocol.on_invoke(op, &mut ctx);
        let (triggers, completion) = ctx.into_effects();
        ClientEffects {
            triggers,
            completion,
        }
    }

    /// Hands a low-level response to the protocol's `on_response` callback at
    /// logical time `time`.
    pub fn on_delivery(
        &mut self,
        delivery: Delivery,
        time: Time,
        next_op_id: &mut u64,
    ) -> ClientEffects {
        debug_assert!(!self.crashed, "delivery to crashed client {}", self.client);
        let mut ctx = Context::new(
            self.client,
            time,
            next_op_id,
            std::mem::take(&mut self.spare),
        );
        self.protocol.on_response(delivery, &mut ctx);
        let (triggers, completion) = ctx.into_effects();
        ClientEffects {
            triggers,
            completion,
        }
    }

    /// Hands back the trigger buffer of an earlier [`ClientEffects`] once
    /// its triggers are dispatched; the next callback fills it instead of
    /// allocating a new one. Hosts that never call this just allocate.
    pub fn recycle(&mut self, triggers: Vec<(OpId, ObjectId, BaseOp)>) {
        self.spare = triggers;
    }

    /// Retires the current high-level operation, which the protocol completed
    /// with `_response`, and returns it. The node keeps no completion log:
    /// the host records the response wherever it keeps results (the
    /// simulation's result arena, a live client's conformance recorder).
    ///
    /// # Panics
    ///
    /// Panics if no high-level operation is in progress (the protocol
    /// completed an operation it never started).
    pub fn finish(&mut self, _response: HighResponse) -> (HighOpId, HighOp) {
        self.current
            .take()
            .expect("protocol completed a high-level operation but none was in progress")
    }
}

impl std::fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientNode")
            .field("client", &self.client)
            .field("protocol", &self.protocol.name())
            .field("crashed", &self.crashed)
            .field("current", &self.current)
            .finish()
    }
}

/// Error applying a low-level operation at a [`ServerNode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeError {
    /// The placement `δ` does not map the object to this server.
    NotHosted {
        /// The object that was addressed.
        object: ObjectId,
        /// The server it was addressed at.
        server: ServerId,
    },
    /// The object rejected the operation (wrong kind, or crashed).
    Object(ObjectError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::NotHosted { object, server } => {
                write!(f, "object {object} is not hosted on server {server}")
            }
            NodeError::Object(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<ObjectError> for NodeError {
    fn from(e: ObjectError) -> Self {
        NodeError::Object(e)
    }
}

/// The base objects one server hosts, addressable by their *global* ids.
///
/// The simulation keeps all objects in one dense vector; a live server
/// process hosts only the slice `δ⁻¹(s)`. `ServerNode` carries that slice
/// plus the global-to-local translation so wire messages can keep using the
/// topology-wide [`ObjectId`]s.
#[derive(Debug)]
pub struct ServerNode {
    server: ServerId,
    /// Global object id → index into `objects`, dense over the topology.
    local: Vec<Option<usize>>,
    objects: Vec<BaseObject>,
}

impl ServerNode {
    /// Creates the node hosting every object `topology` places on `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not a server of the topology.
    pub fn new(topology: &Topology, server: ServerId) -> Self {
        assert!(
            server.index() < topology.server_count(),
            "server {} is not in a topology with {} servers",
            server,
            topology.server_count()
        );
        let mut local = vec![None; topology.object_count()];
        let mut objects = Vec::new();
        for id in topology.objects_on(server) {
            local[id.index()] = Some(objects.len());
            objects.push(BaseObject::new(id, topology.kind_of(id)));
        }
        ServerNode {
            server,
            local,
            objects,
        }
    }

    /// The server this node realizes.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Applies `op` to the hosted object with global id `object`.
    ///
    /// This is the operation's linearization point, exactly like
    /// [`crate::sim::Simulation::deliver`] (Assumption 1, Write
    /// Linearization).
    pub fn apply(&mut self, object: ObjectId, op: &BaseOp) -> Result<BaseResponse, NodeError> {
        let idx =
            self.local
                .get(object.index())
                .copied()
                .flatten()
                .ok_or(NodeError::NotHosted {
                    object,
                    server: self.server,
                })?;
        Ok(self.objects[idx].apply(op)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NoopProtocol;
    use crate::object::ObjectKind;
    use crate::value::Value;

    #[test]
    fn client_node_runs_the_protocol_and_retires_completions() {
        let mut node = ClientNode::new(ClientId::new(2), Box::new(NoopProtocol));
        assert!(node.is_idle());
        assert_eq!(node.protocol_name(), "noop");
        let mut next_op_id = 0;
        let effects = node.on_invoke(HighOpId::new(0), HighOp::Write(7), 1, &mut next_op_id);
        assert!(effects.triggers.is_empty());
        assert_eq!(effects.completion, Some(HighResponse::WriteAck));
        assert_eq!(node.current(), Some((HighOpId::new(0), HighOp::Write(7))));
        let (high, op) = node.finish(HighResponse::WriteAck);
        assert_eq!((high, op), (HighOpId::new(0), HighOp::Write(7)));
        assert!(node.is_idle());
    }

    #[test]
    #[should_panic(expected = "none was in progress")]
    fn finishing_without_a_current_op_panics() {
        let mut node = ClientNode::new(ClientId::new(0), Box::new(NoopProtocol));
        node.finish(HighResponse::WriteAck);
    }

    #[test]
    fn crashed_client_node_is_not_idle() {
        let mut node = ClientNode::new(ClientId::new(0), Box::new(NoopProtocol));
        node.crash();
        assert!(node.is_crashed());
        assert!(!node.is_idle());
    }

    #[test]
    fn server_node_applies_ops_and_translates_errors() {
        let mut t = Topology::new(2);
        let objs = t.add_object_per_server(ObjectKind::Register);
        let mut node = ServerNode::new(&t, ServerId::new(0));
        let v = Value::new(1, 9);
        assert_eq!(
            node.apply(objs[0], &BaseOp::Write(v)),
            Ok(BaseResponse::WriteAck)
        );
        assert_eq!(
            node.apply(objs[0], &BaseOp::Read),
            Ok(BaseResponse::ReadValue(v))
        );
        // Object on the other server: not hosted here.
        assert_eq!(
            node.apply(objs[1], &BaseOp::Read),
            Err(NodeError::NotHosted {
                object: objs[1],
                server: ServerId::new(0),
            })
        );
        // Wrong kind: the object error is forwarded.
        assert!(matches!(
            node.apply(objs[0], &BaseOp::ReadMax),
            Err(NodeError::Object(ObjectError::UnsupportedOp { .. }))
        ));
    }

    #[test]
    fn out_of_range_object_ids_are_not_hosted() {
        let mut t = Topology::new(1);
        t.add_object_per_server(ObjectKind::Register);
        let mut node = ServerNode::new(&t, ServerId::new(0));
        assert_eq!(
            node.apply(ObjectId::new(99), &BaseOp::Read),
            Err(NodeError::NotHosted {
                object: ObjectId::new(99),
                server: ServerId::new(0),
            })
        );
    }
}
