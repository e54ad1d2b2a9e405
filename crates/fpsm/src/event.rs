//! Run events.
//!
//! A run of an emulation algorithm is a sequence of configurations and
//! actions; the [`Event`] type records each action together with the logical
//! time at which it occurred, producing a complete, replayable trace of the
//! run. The trace is consumed by the consistency checkers (`regemu-spec`), by
//! the metrics module and by the lower-bound adversary.

use crate::ids::{ClientId, HighOpId, ObjectId, OpId, ServerId, Time};
use crate::op::{BaseOp, BaseResponse, HighOp, HighResponse};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single action recorded in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A high-level operation was invoked at a client.
    Invoke {
        /// Step at which the invocation occurred.
        time: Time,
        /// Invoking client.
        client: ClientId,
        /// Identifier of the high-level operation.
        high_op: HighOpId,
        /// The invoked operation.
        op: HighOp,
    },
    /// A high-level operation returned at a client.
    Return {
        /// Step at which the return occurred.
        time: Time,
        /// Returning client.
        client: ClientId,
        /// Identifier of the high-level operation.
        high_op: HighOpId,
        /// The response returned to the client.
        response: HighResponse,
    },
    /// A low-level operation was triggered on a base object.
    Trigger {
        /// Step at which the trigger occurred.
        time: Time,
        /// Triggering client.
        client: ClientId,
        /// High-level operation on whose behalf this trigger was issued, if
        /// the client had one in progress.
        high_op: Option<HighOpId>,
        /// Identifier of the low-level operation.
        op_id: OpId,
        /// Target base object.
        object: ObjectId,
        /// The triggered operation.
        op: BaseOp,
    },
    /// A low-level operation responded (and, per Assumption 1, took effect).
    Respond {
        /// Step at which the response occurred.
        time: Time,
        /// Client that had triggered the operation.
        client: ClientId,
        /// Identifier of the low-level operation.
        op_id: OpId,
        /// Target base object.
        object: ObjectId,
        /// The response produced by the object.
        response: BaseResponse,
    },
    /// A server crashed (crashing every base object mapped to it).
    ServerCrash {
        /// Step at which the crash occurred.
        time: Time,
        /// The crashed server.
        server: ServerId,
    },
    /// A client crashed.
    ClientCrash {
        /// Step at which the crash occurred.
        time: Time,
        /// The crashed client.
        client: ClientId,
    },
}

impl Event {
    /// The logical time at which the event occurred.
    pub(crate) fn time(&self) -> Time {
        match self {
            Event::Invoke { time, .. }
            | Event::Return { time, .. }
            | Event::Trigger { time, .. }
            | Event::Respond { time, .. }
            | Event::ServerCrash { time, .. }
            | Event::ClientCrash { time, .. } => *time,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Invoke {
                time,
                client,
                high_op,
                op,
            } => {
                write!(f, "[{time}] {client} invokes {op} ({high_op})")
            }
            Event::Return {
                time,
                client,
                high_op,
                response,
            } => {
                write!(f, "[{time}] {client} returns {response} ({high_op})")
            }
            Event::Trigger {
                time,
                client,
                op_id,
                object,
                op,
                ..
            } => {
                write!(f, "[{time}] {client} triggers {op} on {object} ({op_id})")
            }
            Event::Respond {
                time,
                client,
                op_id,
                object,
                response,
            } => {
                write!(
                    f,
                    "[{time}] {object} responds {response} to {client} ({op_id})"
                )
            }
            Event::ServerCrash { time, server } => write!(f, "[{time}] {server} crashes"),
            Event::ClientCrash { time, client } => write!(f, "[{time}] {client} crashes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn event_accessors() {
        let e = Event::Trigger {
            time: 3,
            client: ClientId::new(1),
            high_op: Some(HighOpId::new(0)),
            op_id: OpId::new(7),
            object: ObjectId::new(2),
            op: BaseOp::Write(Value::new(1, 1)),
        };
        assert_eq!(e.time(), 3);

        let c = Event::ServerCrash {
            time: 9,
            server: ServerId::new(0),
        };
        assert_eq!(c.time(), 9);
    }

    #[test]
    fn events_display() {
        let e = Event::Invoke {
            time: 1,
            client: ClientId::new(0),
            high_op: HighOpId::new(4),
            op: HighOp::Write(5),
        };
        assert_eq!(e.to_string(), "[1] c0 invokes WRITE(5) (hop4)");
        let r = Event::Return {
            time: 2,
            client: ClientId::new(0),
            high_op: HighOpId::new(4),
            response: HighResponse::WriteAck,
        };
        assert_eq!(r.to_string(), "[2] c0 returns OK (hop4)");
    }
}
