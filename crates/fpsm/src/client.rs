//! Client-side protocol interface.
//!
//! An emulation algorithm `A` defines the behaviour of clients as
//! deterministic state machines whose transitions trigger low-level
//! operations and eventually return the high-level operation. The
//! [`ClientProtocol`] trait captures exactly that: the simulation calls
//! [`ClientProtocol::on_invoke`] when a high-level operation is invoked on the
//! client and [`ClientProtocol::on_response`] whenever one of the client's
//! pending low-level operations responds. Both callbacks receive a
//! [`Context`] through which the protocol can trigger further low-level
//! operations and/or return the high-level operation.
//!
//! Because base objects are crash-prone, a client may have *many* low-level
//! operations pending at once (it must never block on a single object), which
//! is why triggering is a non-blocking effect rather than a call that yields a
//! response.

use crate::ids::{ClientId, ObjectId, OpId, ServerId, Time};
use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};

/// A low-level response being delivered to the client that triggered it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Identifier of the low-level operation that responded.
    pub op_id: OpId,
    /// The base object it was triggered on.
    pub object: ObjectId,
    /// The server hosting that object.
    pub server: ServerId,
    /// The operation that was triggered (echoed back for convenience).
    pub op: BaseOp,
    /// The response produced by the (atomic) base object.
    pub response: BaseResponse,
}

/// Effect collector handed to a [`ClientProtocol`] during a callback.
///
/// The protocol uses it to trigger low-level operations ([`Context::trigger`])
/// and to return the current high-level operation ([`Context::complete`]).
/// Effects are applied by the simulation after the callback returns.
#[derive(Debug)]
pub struct Context<'a> {
    client: ClientId,
    time: Time,
    next_op_id: &'a mut u64,
    triggers: Vec<(OpId, ObjectId, BaseOp)>,
    completion: Option<HighResponse>,
}

impl<'a> Context<'a> {
    /// Creates a context for `client` at logical time `time` that collects
    /// triggers into `triggers` (cleared first, so a caller can hand back
    /// the buffer of an earlier callback and keep its capacity).
    ///
    /// This is called by the simulation engine; protocol code only consumes
    /// contexts.
    pub(crate) fn new(
        client: ClientId,
        time: Time,
        next_op_id: &'a mut u64,
        mut triggers: Vec<(OpId, ObjectId, BaseOp)>,
    ) -> Self {
        triggers.clear();
        Context {
            client,
            time,
            next_op_id,
            triggers,
            completion: None,
        }
    }

    /// The client this context belongs to.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The current logical time (number of steps executed so far).
    pub fn time(&self) -> Time {
        self.time
    }

    /// Triggers a low-level operation `op` on `object` and returns its
    /// freshly assigned [`OpId`].
    ///
    /// The operation becomes *pending*; its response (if any) will be
    /// delivered later through [`ClientProtocol::on_response`]. A pending
    /// write-class operation *covers* its object until it responds.
    pub fn trigger(&mut self, object: ObjectId, op: BaseOp) -> OpId {
        let id = OpId::new(*self.next_op_id);
        *self.next_op_id += 1;
        self.triggers.push((id, object, op));
        id
    }

    /// Completes the client's current high-level operation with `response`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol completes the same high-level operation twice
    /// within a single callback.
    pub fn complete(&mut self, response: HighResponse) {
        assert!(
            self.completion.is_none(),
            "client {} completed its high-level operation twice",
            self.client
        );
        self.completion = Some(response);
    }

    /// Returns `true` if [`Context::complete`] was called.
    pub fn has_completed(&self) -> bool {
        self.completion.is_some()
    }

    /// Consumes the context, returning the accumulated effects.
    pub(crate) fn into_effects(self) -> (Vec<(OpId, ObjectId, BaseOp)>, Option<HighResponse>) {
        (self.triggers, self.completion)
    }
}

/// The deterministic state machine an emulation algorithm installs at each
/// client.
///
/// A single protocol instance lives for the whole run (its local state — e.g.
/// the `coverSet` of Algorithm 2 — persists across high-level operations).
pub trait ClientProtocol {
    /// A high-level operation `op` has been invoked at this client.
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>);

    /// One of this client's pending low-level operations has responded.
    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>);

    /// Short human-readable protocol name, used in logs and error messages.
    fn name(&self) -> &'static str {
        "client-protocol"
    }
}

/// A trivial protocol that completes every high-level operation immediately
/// without touching any base object. Reads return the initial payload `0`.
///
/// Useful as a stub in engine tests and as the degenerate `k = 0` emulation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProtocol;

impl ClientProtocol for NoopProtocol {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        match op {
            HighOp::Write(_) => ctx.complete(HighResponse::WriteAck),
            HighOp::Read => ctx.complete(HighResponse::ReadValue(0)),
        }
    }

    fn on_response(&mut self, _delivery: Delivery, _ctx: &mut Context<'_>) {}

    fn name(&self) -> &'static str {
        "noop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn context_assigns_increasing_op_ids() {
        let mut next = 5;
        let mut ctx = Context::new(ClientId::new(1), 10, &mut next, Vec::new());
        let a = ctx.trigger(ObjectId::new(0), BaseOp::Read);
        let b = ctx.trigger(ObjectId::new(1), BaseOp::Write(Value::new(1, 1)));
        assert_eq!(a, OpId::new(5));
        assert_eq!(b, OpId::new(6));
        assert_eq!(ctx.client(), ClientId::new(1));
        assert_eq!(ctx.time(), 10);
        let (triggers, completion) = ctx.into_effects();
        assert_eq!(triggers.len(), 2);
        assert!(completion.is_none());
        assert_eq!(next, 7);
    }

    #[test]
    fn context_records_completion() {
        let mut next = 0;
        let mut ctx = Context::new(ClientId::new(0), 0, &mut next, Vec::new());
        assert!(!ctx.has_completed());
        ctx.complete(HighResponse::WriteAck);
        assert!(ctx.has_completed());
        let (_, completion) = ctx.into_effects();
        assert_eq!(completion, Some(HighResponse::WriteAck));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_completion_panics() {
        let mut next = 0;
        let mut ctx = Context::new(ClientId::new(0), 0, &mut next, Vec::new());
        ctx.complete(HighResponse::WriteAck);
        ctx.complete(HighResponse::ReadValue(1));
    }

    #[test]
    fn noop_protocol_completes_immediately() {
        let mut p = NoopProtocol;
        let mut next = 0;
        let mut ctx = Context::new(ClientId::new(0), 0, &mut next, Vec::new());
        p.on_invoke(HighOp::Read, &mut ctx);
        let (triggers, completion) = ctx.into_effects();
        assert!(triggers.is_empty());
        assert_eq!(completion, Some(HighResponse::ReadValue(0)));
        assert_eq!(p.name(), "noop");
    }
}
