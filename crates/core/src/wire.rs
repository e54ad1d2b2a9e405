//! Wire codec for the live service: length-prefixed, hand-rolled frames.
//!
//! The `regemu-serve` crate ships low-level operations between client and
//! server processes. The container builds fully offline (the serde shim's
//! derive is a no-op), so the codec is hand-rolled: fixed little-endian
//! integers, one tag byte per enum, and a `u32` little-endian length prefix
//! per frame. The same codec is used in both directions and by both the
//! in-process channel transport (which skips the prefix) and the TCP
//! transport.
//!
//! A client sends one frame per server per protocol round: a round that
//! touches several of a server's base objects travels as one
//! [`WireMsg::Batch`] of requests, answered by one batch of replies. Each
//! item is still its own operation — the server applies them in order, each
//! at its own linearization point.
//!
//! Robustness contract: decoding **never panics**. Truncated, oversized and
//! garbage frames all surface as typed [`FrameError`]s, mirroring the
//! line-numbered errors of the `regemu-trace v1` text format.

use regemu_fpsm::op::{BaseOp, BaseResponse};
use regemu_fpsm::value::Value;

/// Version byte carried in every frame, after the message tag.
pub(crate) const WIRE_VERSION: u8 = 1;

/// Version byte carried by `Stats` frames ([`WireMsg::StatsQuery`] /
/// [`WireMsg::StatsReply`], tag 4), introduced after [`WIRE_VERSION`] 1
/// shipped.
///
/// Stats frames are version-gated separately: a version-1 peer checks the
/// version byte *before* dispatching on the tag, so it rejects any Stats
/// frame cleanly as [`FrameError::BadVersion`] instead of misparsing it —
/// see `old_version_peers_reject_stats_frames_cleanly` in this module's
/// tests for the executable proof.
pub(crate) const STATS_VERSION: u8 = 2;

/// Version byte carried by [`WireMsg::Batch`] frames (tag 5), gated like
/// [`STATS_VERSION`]: version-1 and version-2 peers reject a batch as
/// [`FrameError::BadVersion`] before they look at its tag.
pub(crate) const BATCH_VERSION: u8 = 3;

/// Most items one [`WireMsg::Batch`] may carry. Senders split larger groups
/// into several batches; a decoder rejects a larger count as
/// [`FrameError::BatchTooLarge`].
pub const MAX_BATCH: usize = 64;

/// The largest legal single message body: a CAS request (tag + version +
/// op id + object id + op tag + two values). A stats reply is 43 bytes.
const MAX_MSG_LEN: usize = 51;

/// Hard upper bound on a frame body, in bytes: a full batch (tag, version,
/// `u16` count, then [`MAX_BATCH`] items of a length byte plus at most
/// 51 bytes each).
///
/// Anything claiming more is garbage or a framing error, and rejecting it
/// early keeps a corrupt peer from making us buffer unbounded data.
pub(crate) const MAX_FRAME_LEN: usize = 4 + MAX_BATCH * (1 + MAX_MSG_LEN);

/// Per-node telemetry counters carried by a [`WireMsg::StatsReply`].
///
/// Plain data: the serve layer fills it from its `regemu-obs` registry; the
/// codec itself depends on nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests received since the server started.
    pub requests: u64,
    /// Successful responses sent.
    pub responses: u64,
    /// Fault messages sent.
    pub faults: u64,
    /// Requests currently being applied (in-flight gauge).
    pub in_flight: u64,
    /// Operations applied to base objects (the linearization-point count).
    pub applied: u64,
}

/// Fault codes a server can send instead of a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCode {
    /// The addressed object is not hosted on this server.
    NotHosted,
    /// The hosted object does not support the requested operation.
    UnsupportedOp,
    /// The hosted object has crashed.
    Crashed,
}

impl FaultCode {
    fn tag(self) -> u8 {
        match self {
            FaultCode::NotHosted => 0,
            FaultCode::UnsupportedOp => 1,
            FaultCode::Crashed => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(FaultCode::NotHosted),
            1 => Some(FaultCode::UnsupportedOp),
            2 => Some(FaultCode::Crashed),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCode::NotHosted => write!(f, "not-hosted"),
            FaultCode::UnsupportedOp => write!(f, "unsupported-op"),
            FaultCode::Crashed => write!(f, "crashed"),
        }
    }
}

/// A message of the live-service wire protocol.
///
/// Ids travel as raw integers (`op_id` = [`regemu_fpsm::OpId`], `object` =
/// [`regemu_fpsm::ObjectId`] index) so the codec stays independent of the
/// id newtypes; the endpoints re-wrap them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// Client → server: apply `op` to the object with global id `object`.
    Request {
        /// Low-level operation id, unique per client connection.
        op_id: u64,
        /// Global object id (topology-wide index).
        object: u64,
        /// The low-level operation to apply.
        op: BaseOp,
    },
    /// Server → client: the object's response to request `op_id`.
    Response {
        /// Echo of the request's operation id.
        op_id: u64,
        /// The server's logical clock after applying the operation; clients
        /// fold it into their own clock, Lamport-style, so conformance-log
        /// stamps respect cross-process real-time order.
        clock: u64,
        /// The response the (atomic) base object produced.
        response: BaseResponse,
    },
    /// Server → client: request `op_id` could not be applied.
    Fault {
        /// Echo of the request's operation id.
        op_id: u64,
        /// Why the operation was rejected.
        code: FaultCode,
    },
    /// Client → server: ask for the node's telemetry counters.
    ///
    /// Version-gated at `STATS_VERSION`: version-1 peers reject it as
    /// [`FrameError::BadVersion`] without touching the tag.
    StatsQuery,
    /// Server → client: the node's telemetry counters.
    StatsReply {
        /// The counters at the moment the query was handled.
        stats: NodeStats,
    },
    /// Either direction: several `Request`s for one server, or that
    /// server's replies (`Response` / `Fault`) to them, in request order.
    ///
    /// Version-gated at `BATCH_VERSION`. Holds at most [`MAX_BATCH`]
    /// items, and only `Request`, `Response` and `Fault` items: a nested
    /// batch or a stats message decodes as [`FrameError::BadTag`].
    Batch(Vec<WireMsg>),
}

/// A typed decoding failure. Decoding never panics; every malformed input
/// maps to one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended before the field `field` was complete.
    Truncated {
        /// Name of the field being decoded when the input ran out.
        field: &'static str,
    },
    /// The length prefix claims more than `MAX_FRAME_LEN` bytes.
    Oversized {
        /// The claimed body length.
        len: usize,
    },
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// Name of the enum being decoded.
        field: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The frame carried an unsupported protocol version.
    BadVersion {
        /// The version byte found.
        version: u8,
    },
    /// The message decoded cleanly but bytes were left over.
    TrailingBytes {
        /// Number of undecoded bytes at the end of the body.
        extra: usize,
    },
    /// A batch claims more than [`MAX_BATCH`] items.
    BatchTooLarge {
        /// The claimed item count.
        count: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { field } => write!(f, "frame truncated while reading {field}"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            FrameError::BadTag { field, tag } => write!(f, "unknown {field} tag {tag:#04x}"),
            FrameError::BadVersion { version } => {
                write!(
                    f,
                    "unsupported wire version {version} (expected {WIRE_VERSION}, \
                     {STATS_VERSION} for stats frames or {BATCH_VERSION} for batches)"
                )
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete message")
            }
            FrameError::BatchTooLarge { count } => {
                write!(f, "batch of {count} items exceeds maximum {MAX_BATCH}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

// ----- encoding --------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: Value) {
    put_u64(buf, v.ts);
    put_u64(buf, v.val);
}

fn put_base_op(buf: &mut Vec<u8>, op: &BaseOp) {
    match op {
        BaseOp::Read => buf.push(0),
        BaseOp::Write(v) => {
            buf.push(1);
            put_value(buf, *v);
        }
        BaseOp::ReadMax => buf.push(2),
        BaseOp::WriteMax(v) => {
            buf.push(3);
            put_value(buf, *v);
        }
        BaseOp::Cas { expected, new } => {
            buf.push(4);
            put_value(buf, *expected);
            put_value(buf, *new);
        }
    }
}

fn put_base_response(buf: &mut Vec<u8>, response: &BaseResponse) {
    match response {
        BaseResponse::ReadValue(v) => {
            buf.push(0);
            put_value(buf, *v);
        }
        BaseResponse::WriteAck => buf.push(1),
        BaseResponse::MaxValue(v) => {
            buf.push(2);
            put_value(buf, *v);
        }
        BaseResponse::WriteMaxAck => buf.push(3),
        BaseResponse::CasOld(v) => {
            buf.push(4);
            put_value(buf, *v);
        }
    }
}

// ----- decoding --------------------------------------------------------------

/// Checked little-endian reader over a frame body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or(FrameError::Truncated { field })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, FrameError> {
        let bytes = self.take(2, field)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        let bytes = self.take(8, field)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    fn value(&mut self, field: &'static str) -> Result<Value, FrameError> {
        let ts = self.u64(field)?;
        let val = self.u64(field)?;
        Ok(Value::new(ts, val))
    }

    fn base_op(&mut self) -> Result<BaseOp, FrameError> {
        match self.u8("base-op tag")? {
            0 => Ok(BaseOp::Read),
            1 => Ok(BaseOp::Write(self.value("write value")?)),
            2 => Ok(BaseOp::ReadMax),
            3 => Ok(BaseOp::WriteMax(self.value("write-max value")?)),
            4 => Ok(BaseOp::Cas {
                expected: self.value("cas expected value")?,
                new: self.value("cas new value")?,
            }),
            tag => Err(FrameError::BadTag {
                field: "base-op",
                tag,
            }),
        }
    }

    fn base_response(&mut self) -> Result<BaseResponse, FrameError> {
        match self.u8("response tag")? {
            0 => Ok(BaseResponse::ReadValue(self.value("read value")?)),
            1 => Ok(BaseResponse::WriteAck),
            2 => Ok(BaseResponse::MaxValue(self.value("max value")?)),
            3 => Ok(BaseResponse::WriteMaxAck),
            4 => Ok(BaseResponse::CasOld(self.value("cas old value")?)),
            tag => Err(FrameError::BadTag {
                field: "response",
                tag,
            }),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl WireMsg {
    /// Encodes the message body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes the message as a full frame: `u32` little-endian body length
    /// followed by the body.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(36);
        frame.extend_from_slice(&[0; 4]);
        self.encode_into(&mut frame);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame
    }

    /// Appends the message body to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        match self {
            WireMsg::Request { op_id, object, op } => {
                buf.push(1);
                buf.push(WIRE_VERSION);
                put_u64(buf, *op_id);
                put_u64(buf, *object);
                put_base_op(buf, op);
            }
            WireMsg::Response {
                op_id,
                clock,
                response,
            } => {
                buf.push(2);
                buf.push(WIRE_VERSION);
                put_u64(buf, *op_id);
                put_u64(buf, *clock);
                put_base_response(buf, response);
            }
            WireMsg::Fault { op_id, code } => {
                buf.push(3);
                buf.push(WIRE_VERSION);
                put_u64(buf, *op_id);
                buf.push(code.tag());
            }
            WireMsg::StatsQuery => {
                buf.push(4);
                buf.push(STATS_VERSION);
                buf.push(0);
            }
            WireMsg::StatsReply { stats } => {
                buf.push(4);
                buf.push(STATS_VERSION);
                buf.push(1);
                put_u64(buf, stats.requests);
                put_u64(buf, stats.responses);
                put_u64(buf, stats.faults);
                put_u64(buf, stats.in_flight);
                put_u64(buf, stats.applied);
            }
            WireMsg::Batch(items) => {
                debug_assert!(items.len() <= MAX_BATCH, "senders split batches");
                buf.push(5);
                buf.push(BATCH_VERSION);
                buf.extend_from_slice(&(items.len() as u16).to_le_bytes());
                for item in items {
                    debug_assert!(
                        matches!(
                            item,
                            WireMsg::Request { .. }
                                | WireMsg::Response { .. }
                                | WireMsg::Fault { .. }
                        ),
                        "batch items are requests or their replies"
                    );
                    let at = buf.len();
                    buf.push(0);
                    item.encode_into(buf);
                    buf[at] = (buf.len() - at - 1) as u8;
                }
            }
        }
        debug_assert!(buf.len() - start <= MAX_FRAME_LEN);
    }

    /// Decodes a message body (no length prefix). Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8("message tag")?;
        let version = r.u8("version")?;
        // Stats frames (tag 4) and batches (tag 5) are later, separately-gated
        // extensions; every original message keeps requiring WIRE_VERSION, so
        // version-1 peers are byte-for-byte unaffected.
        let required = match tag {
            4 => STATS_VERSION,
            5 => BATCH_VERSION,
            _ => WIRE_VERSION,
        };
        if version != required {
            return Err(FrameError::BadVersion { version });
        }
        let msg = match tag {
            1 => WireMsg::Request {
                op_id: r.u64("op id")?,
                object: r.u64("object id")?,
                op: r.base_op()?,
            },
            2 => WireMsg::Response {
                op_id: r.u64("op id")?,
                clock: r.u64("clock")?,
                response: r.base_response()?,
            },
            3 => WireMsg::Fault {
                op_id: r.u64("op id")?,
                code: {
                    let tag = r.u8("fault code")?;
                    FaultCode::from_tag(tag).ok_or(FrameError::BadTag {
                        field: "fault-code",
                        tag,
                    })?
                },
            },
            4 => match r.u8("stats kind")? {
                0 => WireMsg::StatsQuery,
                1 => WireMsg::StatsReply {
                    stats: NodeStats {
                        requests: r.u64("stats requests")?,
                        responses: r.u64("stats responses")?,
                        faults: r.u64("stats faults")?,
                        in_flight: r.u64("stats in-flight")?,
                        applied: r.u64("stats applied")?,
                    },
                },
                tag => {
                    return Err(FrameError::BadTag {
                        field: "stats-kind",
                        tag,
                    })
                }
            },
            5 => {
                let count = usize::from(r.u16("batch count")?);
                if count > MAX_BATCH {
                    return Err(FrameError::BatchTooLarge { count });
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = usize::from(r.u8("batch item length")?);
                    let item = r.take(len, "batch item")?;
                    // Only single messages nest, so decoding recurses at
                    // most one level deep.
                    let tag = *item.first().ok_or(FrameError::Truncated {
                        field: "batch item tag",
                    })?;
                    if !(1..=3).contains(&tag) {
                        return Err(FrameError::BadTag {
                            field: "batch-item",
                            tag,
                        });
                    }
                    items.push(WireMsg::decode(item)?);
                }
                WireMsg::Batch(items)
            }
            tag => {
                return Err(FrameError::BadTag {
                    field: "message",
                    tag,
                })
            }
        };
        if r.remaining() != 0 {
            return Err(FrameError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(msg)
    }
}

/// Tries to decode one length-prefixed frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a *prefix* of a frame (read more
/// bytes and try again), `Ok(Some((msg, consumed)))` when a full frame was
/// decoded (`consumed` bytes should be drained from the buffer), and a
/// [`FrameError`] when the bytes can never become a valid frame. Never
/// panics.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(WireMsg, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&buf[..4]);
    let len = u32::from_le_bytes(raw) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let msg = WireMsg::decode(&buf[4..4 + len])?;
    Ok(Some((msg, 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMsg) {
        let body = msg.encode();
        assert_eq!(WireMsg::decode(&body), Ok(msg.clone()));
        let frame = msg.encode_frame();
        assert_eq!(decode_frame(&frame), Ok(Some((msg, frame.len()))));
    }

    /// `count` replies for a batch, alternating responses and faults.
    fn replies(count: usize) -> Vec<WireMsg> {
        (0..count as u64)
            .map(|i| {
                if i % 3 == 2 {
                    WireMsg::Fault {
                        op_id: i,
                        code: FaultCode::NotHosted,
                    }
                } else {
                    WireMsg::Response {
                        op_id: i,
                        clock: 100 + i,
                        response: BaseResponse::ReadValue(Value::new(i, 7)),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn batches_roundtrip_up_to_the_bound() {
        let v = Value::new(3, 77);
        for count in [1, 8, MAX_BATCH] {
            roundtrip(WireMsg::Batch(replies(count)));
            roundtrip(WireMsg::Batch(
                (0..count as u64)
                    .map(|i| WireMsg::Request {
                        op_id: i,
                        object: i % 5,
                        op: if i % 2 == 0 {
                            BaseOp::Read
                        } else {
                            BaseOp::Write(v)
                        },
                    })
                    .collect(),
            ));
        }
        // A full batch of the largest message fills the frame bound exactly.
        let cas = WireMsg::Request {
            op_id: u64::MAX,
            object: u64::MAX,
            op: BaseOp::Cas {
                expected: v,
                new: v.bump(),
            },
        };
        assert_eq!(cas.encode().len(), MAX_MSG_LEN);
        let full = WireMsg::Batch(vec![cas; MAX_BATCH]);
        assert_eq!(full.encode().len(), MAX_FRAME_LEN);
        roundtrip(full);
    }

    #[test]
    fn single_messages_keep_their_version_one_bytes() {
        let frame = WireMsg::Fault {
            op_id: 1,
            code: FaultCode::Crashed,
        }
        .encode_frame();
        assert_eq!(frame, [11, 0, 0, 0, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let batch = WireMsg::Batch(vec![WireMsg::Fault {
            op_id: 1,
            code: FaultCode::Crashed,
        }])
        .encode();
        assert_eq!(batch[..5], [5, BATCH_VERSION, 1, 0, 11]);
        assert_eq!(batch[5..], frame[4..]);
    }

    #[test]
    fn every_message_shape_roundtrips() {
        let v = Value::new(3, 77);
        let w = Value::new(4, 78);
        for msg in [
            WireMsg::Request {
                op_id: 0,
                object: 0,
                op: BaseOp::Read,
            },
            WireMsg::Request {
                op_id: u64::MAX,
                object: 17,
                op: BaseOp::Write(v),
            },
            WireMsg::Request {
                op_id: 5,
                object: 2,
                op: BaseOp::ReadMax,
            },
            WireMsg::Request {
                op_id: 6,
                object: 2,
                op: BaseOp::WriteMax(w),
            },
            WireMsg::Request {
                op_id: 7,
                object: 3,
                op: BaseOp::Cas {
                    expected: v,
                    new: w,
                },
            },
            WireMsg::Response {
                op_id: 7,
                clock: 99,
                response: BaseResponse::ReadValue(v),
            },
            WireMsg::Response {
                op_id: 8,
                clock: 100,
                response: BaseResponse::WriteAck,
            },
            WireMsg::Response {
                op_id: 9,
                clock: 101,
                response: BaseResponse::MaxValue(w),
            },
            WireMsg::Response {
                op_id: 10,
                clock: 102,
                response: BaseResponse::WriteMaxAck,
            },
            WireMsg::Response {
                op_id: 11,
                clock: 103,
                response: BaseResponse::CasOld(v),
            },
            WireMsg::Fault {
                op_id: 12,
                code: FaultCode::NotHosted,
            },
            WireMsg::Fault {
                op_id: 13,
                code: FaultCode::UnsupportedOp,
            },
            WireMsg::Fault {
                op_id: 14,
                code: FaultCode::Crashed,
            },
            WireMsg::StatsQuery,
            WireMsg::StatsReply {
                stats: NodeStats {
                    requests: 100,
                    responses: 97,
                    faults: 3,
                    in_flight: 2,
                    applied: u64::MAX,
                },
            },
        ] {
            roundtrip(msg);
        }
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let frame = WireMsg::Fault {
            op_id: 1,
            code: FaultCode::Crashed,
        }
        .encode_frame();
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]), Ok(None), "cut at {cut}");
        }
        // Two frames back to back: the first decodes, reporting its length.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let (_, consumed) = decode_frame(&two).unwrap().unwrap();
        assert_eq!(consumed, frame.len());
        assert!(decode_frame(&two[consumed..]).unwrap().is_some());
    }

    /// Mirror of the `regemu-trace v1` malformed-input table: every corrupt
    /// frame yields a typed error — and, by virtue of returning at all,
    /// never panics.
    #[test]
    fn malformed_frames_fail_with_typed_errors_and_never_panic() {
        let good = WireMsg::Request {
            op_id: 1,
            object: 2,
            op: BaseOp::Write(Value::new(1, 5)),
        };
        let body = good.encode();

        let truncated_body = {
            let mut frame = Vec::new();
            frame.extend_from_slice(&((body.len() - 3) as u32).to_le_bytes());
            frame.extend_from_slice(&body[..body.len() - 3]);
            frame
        };
        let oversized = {
            let mut frame = Vec::new();
            frame.extend_from_slice(&(1_000_000u32.to_le_bytes()));
            frame.extend_from_slice(&body);
            frame
        };
        let bad_msg_tag = {
            let mut b = body.clone();
            b[0] = 0x7f;
            frame_of(&b)
        };
        let bad_version = {
            let mut b = body.clone();
            b[1] = 9;
            frame_of(&b)
        };
        let bad_op_tag = {
            let mut b = body.clone();
            b[18] = 0xee; // base-op tag lives after msg tag, version, two u64s
            frame_of(&b)
        };
        let bad_fault_code = {
            let mut b = WireMsg::Fault {
                op_id: 3,
                code: FaultCode::Crashed,
            }
            .encode();
            *b.last_mut().unwrap() = 0x42;
            frame_of(&b)
        };
        let trailing = {
            let mut b = body.clone();
            b.extend_from_slice(&[0, 0]);
            frame_of(&b)
        };
        let empty_body = frame_of(&[]);
        let garbage = frame_of(&[0xde, 0xad, 0xbe, 0xef, 0x01]);

        let stats_reply = WireMsg::StatsReply {
            stats: NodeStats::default(),
        }
        .encode();
        let truncated_stats = {
            let mut frame = Vec::new();
            frame.extend_from_slice(&((stats_reply.len() - 5) as u32).to_le_bytes());
            frame.extend_from_slice(&stats_reply[..stats_reply.len() - 5]);
            frame
        };
        let bad_stats_kind = {
            let mut b = WireMsg::StatsQuery.encode();
            b[2] = 0x33;
            frame_of(&b)
        };
        let stats_with_legacy_version = {
            let mut b = WireMsg::StatsQuery.encode();
            b[1] = WIRE_VERSION;
            frame_of(&b)
        };
        let legacy_with_stats_version = {
            let mut b = body.clone();
            b[1] = STATS_VERSION;
            frame_of(&b)
        };
        let stats_trailing = {
            let mut b = WireMsg::StatsQuery.encode();
            b.push(0);
            frame_of(&b)
        };

        let batch = WireMsg::Batch(replies(2)).encode();
        let batch_truncated_item = {
            // The item's length byte agrees with its bytes, but the message
            // inside ends early.
            let mut b = WireMsg::Batch(replies(1)).encode();
            b.pop();
            b[4] -= 1;
            frame_of(&b)
        };
        let batch_item_past_end = {
            // The last item's length byte claims more than is left.
            let mut b = WireMsg::Batch(replies(1)).encode();
            b[4] += 1;
            frame_of(&b)
        };
        let batch_nested = {
            let inner = WireMsg::Batch(replies(1)).encode();
            let mut b = vec![5, BATCH_VERSION, 1, 0, inner.len() as u8];
            b.extend_from_slice(&inner);
            frame_of(&b)
        };
        let batch_stats_item = {
            let item = WireMsg::StatsQuery.encode();
            let mut b = vec![5, BATCH_VERSION, 1, 0, item.len() as u8];
            b.extend_from_slice(&item);
            frame_of(&b)
        };
        let batch_too_large = {
            let count = (MAX_BATCH + 1) as u16;
            let mut b = vec![5, BATCH_VERSION];
            b.extend_from_slice(&count.to_le_bytes());
            frame_of(&b)
        };
        let batch_with_legacy_version = {
            let mut b = batch.clone();
            b[1] = WIRE_VERSION;
            frame_of(&b)
        };
        let batch_trailing = {
            let mut b = batch.clone();
            b.push(0);
            frame_of(&b)
        };

        let table: Vec<(&str, Vec<u8>, FrameError)> = vec![
            (
                "truncated body",
                truncated_body,
                FrameError::Truncated {
                    field: "write value",
                },
            ),
            (
                "oversized length",
                oversized,
                FrameError::Oversized { len: 1_000_000 },
            ),
            (
                "unknown message tag",
                bad_msg_tag,
                FrameError::BadTag {
                    field: "message",
                    tag: 0x7f,
                },
            ),
            (
                "bad version",
                bad_version,
                FrameError::BadVersion { version: 9 },
            ),
            (
                "unknown base-op tag",
                bad_op_tag,
                FrameError::BadTag {
                    field: "base-op",
                    tag: 0xee,
                },
            ),
            (
                "unknown fault code",
                bad_fault_code,
                FrameError::BadTag {
                    field: "fault-code",
                    tag: 0x42,
                },
            ),
            (
                "trailing bytes",
                trailing,
                FrameError::TrailingBytes { extra: 2 },
            ),
            (
                "empty body",
                empty_body,
                FrameError::Truncated {
                    field: "message tag",
                },
            ),
            (
                "garbage body",
                garbage,
                FrameError::BadVersion { version: 0xad },
            ),
            (
                "truncated stats reply",
                truncated_stats,
                FrameError::Truncated {
                    field: "stats applied",
                },
            ),
            (
                "unknown stats kind",
                bad_stats_kind,
                FrameError::BadTag {
                    field: "stats-kind",
                    tag: 0x33,
                },
            ),
            (
                "stats frame with the legacy version",
                stats_with_legacy_version,
                FrameError::BadVersion {
                    version: WIRE_VERSION,
                },
            ),
            (
                "legacy message with the stats version",
                legacy_with_stats_version,
                FrameError::BadVersion {
                    version: STATS_VERSION,
                },
            ),
            (
                "trailing byte after a stats query",
                stats_trailing,
                FrameError::TrailingBytes { extra: 1 },
            ),
            (
                "batch with a truncated item",
                batch_truncated_item,
                FrameError::Truncated {
                    field: "read value",
                },
            ),
            (
                "batch item length past the end",
                batch_item_past_end,
                FrameError::Truncated {
                    field: "batch item",
                },
            ),
            (
                "nested batch",
                batch_nested,
                FrameError::BadTag {
                    field: "batch-item",
                    tag: 5,
                },
            ),
            (
                "stats message inside a batch",
                batch_stats_item,
                FrameError::BadTag {
                    field: "batch-item",
                    tag: 4,
                },
            ),
            (
                "batch count above the bound",
                batch_too_large,
                FrameError::BatchTooLarge {
                    count: MAX_BATCH + 1,
                },
            ),
            (
                "batch with the legacy version",
                batch_with_legacy_version,
                FrameError::BadVersion {
                    version: WIRE_VERSION,
                },
            ),
            (
                "trailing byte after a batch",
                batch_trailing,
                FrameError::TrailingBytes { extra: 1 },
            ),
        ];
        for (what, frame, expected) in table {
            assert_eq!(decode_frame(&frame), Err(expected), "case: {what}");
        }
    }

    fn frame_of(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    /// Executable proof that older peers reject newer frames cleanly.
    ///
    /// `decode_v1` replicates, byte for byte, the decoder this module
    /// shipped before the Stats extension existed: read the tag, read the
    /// version, reject anything that is not `WIRE_VERSION` — *before*
    /// dispatching on the tag. `decode_v2` is the version-check of the
    /// decoder that added Stats but not batches. Feeding them the new frames
    /// shows an old peer surfaces them as a typed
    /// [`FrameError::BadVersion`], never a misparse or a panic.
    #[test]
    fn old_version_peers_reject_stats_frames_cleanly() {
        fn decode_v1(bytes: &[u8]) -> Result<(), FrameError> {
            let mut r = Reader::new(bytes);
            let _tag = r.u8("message tag")?;
            let version = r.u8("version")?;
            if version != WIRE_VERSION {
                return Err(FrameError::BadVersion { version });
            }
            unreachable!("a stats frame must be rejected before tag dispatch");
        }
        fn decode_v2(bytes: &[u8]) -> Result<(), FrameError> {
            let mut r = Reader::new(bytes);
            let tag = r.u8("message tag")?;
            let version = r.u8("version")?;
            let required = if tag == 4 {
                STATS_VERSION
            } else {
                WIRE_VERSION
            };
            if version != required {
                return Err(FrameError::BadVersion { version });
            }
            unreachable!("a batch must be rejected before tag dispatch");
        }

        let batches = [
            WireMsg::Batch(replies(3)),
            WireMsg::Batch(vec![WireMsg::Request {
                op_id: 1,
                object: 0,
                op: BaseOp::Read,
            }]),
        ];
        for batch in &batches {
            let expected = Err(FrameError::BadVersion {
                version: BATCH_VERSION,
            });
            assert_eq!(decode_v1(&batch.encode()), expected);
            assert_eq!(decode_v2(&batch.encode()), expected);
        }

        for msg in [
            WireMsg::StatsQuery,
            WireMsg::StatsReply {
                stats: NodeStats {
                    requests: 7,
                    responses: 7,
                    faults: 0,
                    in_flight: 1,
                    applied: 7,
                },
            },
        ] {
            assert_eq!(
                decode_v1(&msg.encode()),
                Err(FrameError::BadVersion {
                    version: STATS_VERSION
                })
            );
        }

        // And the current decoder keeps accepting every v1 message unchanged
        // while accepting the new frames only at the stats version.
        let legacy = WireMsg::Fault {
            op_id: 9,
            code: FaultCode::NotHosted,
        };
        assert_eq!(legacy.encode()[1], WIRE_VERSION);
        assert_eq!(WireMsg::decode(&legacy.encode()), Ok(legacy));
        assert_eq!(WireMsg::StatsQuery.encode()[1], STATS_VERSION);
    }

    #[test]
    fn errors_display_usefully() {
        let shown = format!(
            "{} | {} | {} | {} | {}",
            FrameError::Truncated { field: "op id" },
            FrameError::Oversized { len: 9999 },
            FrameError::BadTag {
                field: "message",
                tag: 7
            },
            FrameError::BadVersion { version: 3 },
            FrameError::TrailingBytes { extra: 1 },
        );
        let shown = format!("{shown} | {}", FrameError::BatchTooLarge { count: 70 });
        for needle in [
            "truncated",
            "op id",
            "9999",
            "tag 0x07",
            "version 3",
            "trailing",
            "batch of 70",
        ] {
            assert!(shown.contains(needle), "missing {needle} in {shown}");
        }
    }
}
