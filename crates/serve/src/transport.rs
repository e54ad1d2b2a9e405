//! Transports: how wire messages move between client and server processes.
//!
//! The [`Transport`] trait is deliberately tiny — blocking send, timed
//! receive — because the emulation protocols above it are event-driven state
//! machines that never block on a single object. Two implementations:
//!
//! * [`ChannelTransport`] — an in-process pair over `std::sync::mpsc`,
//!   carrying *encoded* frames so the wire codec is exercised even without a
//!   socket. Used by unit tests and the README quickstart.
//! * [`TcpTransport`] — length-prefixed frames over a `std::net::TcpStream`
//!   (no async runtime; the serve binaries are thread-per-connection).
//!   Partial frames are buffered across calls, and every malformed byte
//!   sequence surfaces as a typed [`FrameError`] — never a panic.

use regemu_core::wire::{decode_frame, FrameError, WireMsg};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Errors of the live service layer.
#[derive(Debug)]
pub enum ServeError {
    /// The peer hung up (or the connection failed irrecoverably).
    Disconnected {
        /// Human-readable peer name/address.
        peer: String,
    },
    /// The peer sent bytes that can never parse as a frame.
    Frame {
        /// Human-readable peer name/address.
        peer: String,
        /// The decoding failure.
        error: FrameError,
    },
    /// A high-level operation did not complete within its timeout.
    Timeout {
        /// What was being waited for.
        what: String,
        /// How long it was waited for.
        waited: Duration,
    },
    /// An I/O error outside the send/receive path (bind, log files, …).
    Io(std::io::Error),
    /// Invalid configuration (bad addresses, no reachable servers, …).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            ServeError::Frame { peer, error } => write!(f, "bad frame from {peer}: {error}"),
            ServeError::Timeout { what, waited } => {
                write!(f, "{what} timed out after {waited:?}")
            }
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A bidirectional, message-oriented link to one peer.
pub trait Transport: Send {
    /// Sends one message. Blocking; an error means the peer is gone.
    fn send(&mut self, msg: &WireMsg) -> Result<(), ServeError>;

    /// Waits up to `timeout` for one message. `Ok(None)` means nothing
    /// arrived in time (the link is still healthy); an error means the link
    /// is dead or the peer is speaking garbage.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMsg>, ServeError>;

    /// Human-readable peer name, for diagnostics.
    fn peer(&self) -> String;
}

/// In-process transport over `mpsc` channels carrying encoded frame bodies.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    peer: String,
}

impl ChannelTransport {
    /// Creates a connected pair. `a` and `b` name the two endpoints (each
    /// side reports the *other* as its peer).
    pub fn pair(a: &str, b: &str) -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (
            ChannelTransport {
                tx: a_tx,
                rx: a_rx,
                peer: b.to_string(),
            },
            ChannelTransport {
                tx: b_tx,
                rx: b_rx,
                peer: a.to_string(),
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, msg: &WireMsg) -> Result<(), ServeError> {
        self.tx
            .send(msg.encode())
            .map_err(|_| ServeError::Disconnected {
                peer: self.peer.clone(),
            })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMsg>, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(body) => WireMsg::decode(&body)
                .map(Some)
                .map_err(|error| ServeError::Frame {
                    peer: self.peer.clone(),
                    error,
                }),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected {
                peer: self.peer.clone(),
            }),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// Length-prefixed frames over a blocking TCP stream.
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    peer: String,
}

impl TcpTransport {
    /// Connects to a server at `addr`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Self, ServeError> {
        let stream =
            TcpStream::connect_timeout(&addr, timeout).map_err(|_| ServeError::Disconnected {
                peer: addr.to_string(),
            })?;
        TcpTransport::from_stream(stream)
    }

    /// Wraps an accepted stream (server side).
    pub fn from_stream(stream: TcpStream) -> Result<Self, ServeError> {
        // Frames are small (a batch is at most a few kilobytes); holding them
        // behind Nagle's algorithm would put the 40 ms ACK-delay right on
        // the quorum path.
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Ok(TcpTransport {
            stream,
            buf: Vec::new(),
            peer,
        })
    }

    fn try_decode(&mut self) -> Result<Option<WireMsg>, ServeError> {
        match decode_frame(&self.buf) {
            Ok(Some((msg, consumed))) => {
                self.buf.drain(..consumed);
                Ok(Some(msg))
            }
            Ok(None) => Ok(None),
            Err(error) => Err(ServeError::Frame {
                peer: self.peer.clone(),
                error,
            }),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &WireMsg) -> Result<(), ServeError> {
        self.stream
            .write_all(&msg.encode_frame())
            .map_err(|_| ServeError::Disconnected {
                peer: self.peer.clone(),
            })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMsg>, ServeError> {
        // A frame may already be buffered from a previous read.
        if let Some(msg) = self.try_decode()? {
            return Ok(Some(msg));
        }
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 4096];
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            // `set_read_timeout(Some(ZERO))` is an error by contract; the
            // zero case returned above.
            self.stream.set_read_timeout(Some(remaining))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ServeError::Disconnected {
                        peer: self.peer.clone(),
                    })
                }
                Ok(got) => {
                    self.buf.extend_from_slice(&chunk[..got]);
                    if let Some(msg) = self.try_decode()? {
                        return Ok(Some(msg));
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    return Err(ServeError::Disconnected {
                        peer: self.peer.clone(),
                    })
                }
            }
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_core::wire::FaultCode;
    use regemu_fpsm::{BaseOp, Value};

    #[test]
    fn channel_pair_carries_messages_both_ways() {
        let (mut a, mut b) = ChannelTransport::pair("client", "server");
        let msg = WireMsg::Request {
            op_id: 3,
            object: 1,
            op: BaseOp::Write(Value::new(1, 9)),
        };
        a.send(&msg).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)).unwrap(),
            Some(msg)
        );
        let reply = WireMsg::Fault {
            op_id: 3,
            code: FaultCode::Crashed,
        };
        b.send(&reply).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(50)).unwrap(),
            Some(reply)
        );
        assert_eq!(a.peer(), "server");
        assert_eq!(b.peer(), "client");
    }

    #[test]
    fn channel_timeout_and_disconnect_are_distinguished() {
        let (mut a, b) = ChannelTransport::pair("x", "y");
        assert!(a.recv_timeout(Duration::from_millis(1)).unwrap().is_none());
        drop(b);
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(1)),
            Err(ServeError::Disconnected { .. })
        ));
    }

    #[test]
    fn tcp_transport_reassembles_split_and_batched_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let msg1 = WireMsg::Request {
            op_id: 1,
            object: 0,
            op: BaseOp::Read,
        };
        let msg2 = WireMsg::Request {
            op_id: 2,
            object: 0,
            op: BaseOp::Write(Value::new(2, 5)),
        };
        let mut bytes = msg1.encode_frame();
        bytes.extend_from_slice(&msg2.encode_frame());
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Dribble the two frames out in 3-byte slices to force
            // reassembly, with both frames sharing reads.
            for piece in bytes.chunks(3) {
                s.write_all(piece).unwrap();
                s.flush().unwrap();
            }
            s
        });
        let mut t = TcpTransport::connect(addr, Duration::from_secs(1)).unwrap();
        assert_eq!(t.recv_timeout(Duration::from_secs(2)).unwrap(), Some(msg1));
        assert_eq!(t.recv_timeout(Duration::from_secs(2)).unwrap(), Some(msg2));
        let s = writer.join().unwrap();
        drop(s);
        assert!(matches!(
            t.recv_timeout(Duration::from_secs(1)),
            Err(ServeError::Disconnected { .. })
        ));
    }

    #[test]
    fn tcp_transport_reports_garbage_as_frame_errors() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // A length prefix claiming a megabyte: rejected before buffering.
            s.write_all(&1_000_000u32.to_le_bytes()).unwrap();
            s
        });
        let mut t = TcpTransport::connect(addr, Duration::from_secs(1)).unwrap();
        let err = t.recv_timeout(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Frame {
                error: FrameError::Oversized { len: 1_000_000 },
                ..
            }
        ));
        drop(writer.join().unwrap());
    }
}
