//! Transport traits and the real TCP implementations.
//!
//! The client side is [`Wire`]: a bidirectional message pipe. The
//! daemon side is [`ServerTransport`]: a poll-driven event source over
//! many connections. Both have a real TCP implementation here —
//! non-blocking sockets driven by a small in-repo poll loop, no new
//! dependencies — and a deterministic in-process implementation in
//! [`crate::loopback`]. The daemon engine ([`crate::Daemon`]) is
//! written against the traits only, so every behavior the loopback
//! conformance suite proves holds verbatim over TCP.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::frame::{encode_frame, FrameDecoder, WireError};
use crate::msg::Message;

/// Opaque per-connection id assigned by the server transport.
pub type ConnId = u64;

/// A client-side bidirectional message pipe.
pub trait Wire {
    /// Sends one message.
    fn send(&mut self, msg: &Message) -> Result<(), WireError>;
    /// Receives the next message, blocking (or pumping the in-process
    /// network) until one arrives.
    fn recv(&mut self) -> Result<Message, WireError>;
}

/// One event surfaced by a server transport poll.
#[derive(Debug)]
pub enum NetEvent {
    /// A new connection was accepted.
    Accepted(ConnId),
    /// One complete, CRC-verified message arrived.
    Frame(ConnId, Message),
    /// The connection failed framing or closed; `error` is `None` for a
    /// clean close.
    Closed(ConnId, Option<WireError>),
}

/// A poll-driven multi-connection server endpoint.
pub trait ServerTransport {
    /// Collects pending events (accepts, frames, closes). Non-blocking:
    /// returns an empty vec when the wire is quiet.
    fn poll(&mut self) -> Result<Vec<NetEvent>, WireError>;
    /// Sends one message to one connection (best-effort; a dead peer
    /// surfaces on the next poll).
    fn send(&mut self, conn: ConnId, msg: &Message) -> Result<(), WireError>;
    /// Tears one connection down.
    fn close(&mut self, conn: ConnId);
}

// ---------------------------------------------------------------------------
// TCP client
// ---------------------------------------------------------------------------

/// Blocking TCP [`Wire`] for clients (`seculator submit`).
#[derive(Debug)]
pub struct TcpWire {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl TcpWire {
    /// Connects to a daemon.
    pub fn connect(addr: &str) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
        })
    }
}

impl Wire for TcpWire {
    fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        self.stream.write_all(&encode_frame(&msg.encode()))?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, WireError> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Message::decode(&payload);
            }
            let mut buf = [0u8; 4096];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(WireError::ConnectionClosed);
            }
            self.decoder.push(&buf[..n]);
        }
    }
}

// ---------------------------------------------------------------------------
// TCP server
// ---------------------------------------------------------------------------

struct TcpConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConn").finish_non_exhaustive()
    }
}

/// Non-blocking TCP [`ServerTransport`]: one listener, one decoder per
/// connection, polled by the daemon loop. No threads — the crypto
/// datapath's per-block fan-out already owns the worker pool, so the
/// wire stays a cooperative single-threaded poll exactly like the
/// loopback.
#[derive(Debug)]
pub struct TcpServerTransport {
    listener: TcpListener,
    conns: HashMap<ConnId, TcpConn>,
    next_id: ConnId,
}

impl TcpServerTransport {
    /// Binds and starts listening (non-blocking accepts).
    pub fn bind(addr: &str) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            conns: HashMap::new(),
            next_id: 1,
        })
    }

    /// The actually-bound address (for `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, WireError> {
        Ok(self.listener.local_addr()?)
    }

    /// Parks the calling thread briefly — the daemon loop's idle wait
    /// between polls when no session is runnable.
    pub fn idle_wait(&self) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl ServerTransport for TcpServerTransport {
    fn poll(&mut self) -> Result<Vec<NetEvent>, WireError> {
        let mut events = Vec::new();
        // Accept every pending connection.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    stream.set_nodelay(true).ok();
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(
                        id,
                        TcpConn {
                            stream,
                            decoder: FrameDecoder::new(),
                        },
                    );
                    events.push(NetEvent::Accepted(id));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e.into()),
            }
        }
        // Drain readable bytes and harvest complete frames.
        let mut dead = Vec::new();
        for (&id, conn) in &mut self.conns {
            let mut buf = [0u8; 4096];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        dead.push((id, None));
                        break;
                    }
                    Ok(n) => conn.decoder.push(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        dead.push((id, Some(WireError::from(e))));
                        break;
                    }
                }
            }
            loop {
                match conn.decoder.next_frame() {
                    Ok(Some(payload)) => match Message::decode(&payload) {
                        Ok(msg) => events.push(NetEvent::Frame(id, msg)),
                        Err(e) => {
                            dead.push((id, Some(e)));
                            break;
                        }
                    },
                    Ok(None) => break,
                    Err(e) => {
                        dead.push((id, Some(e)));
                        break;
                    }
                }
            }
        }
        for (id, err) in dead {
            self.conns.remove(&id);
            events.push(NetEvent::Closed(id, err));
        }
        Ok(events)
    }

    fn send(&mut self, conn: ConnId, msg: &Message) -> Result<(), WireError> {
        let Some(c) = self.conns.get_mut(&conn) else {
            return Err(WireError::ConnectionClosed);
        };
        // Frames are small relative to socket buffers; a full buffer on
        // a non-blocking socket is drained by retrying the remainder.
        let bytes = encode_frame(&msg.encode());
        let mut off = 0;
        while off < bytes.len() {
            match c.stream.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => {
                    self.conns.remove(&conn);
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    fn close(&mut self, conn: ConnId) {
        self.conns.remove(&conn);
    }
}
