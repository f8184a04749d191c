//! The deterministic in-process transport.
//!
//! [`LoopbackNet`] owns a [`Daemon`] and a seeded arrival queue: every
//! client→daemon frame lands in one pending pool, and each pump step
//! delivers exactly one frame chosen by a splitmix draw over the pool —
//! the seeded *arrival interleaving*. With the seed fixed, the order in
//! which concurrent clients' messages reach the daemon is fixed, every
//! scheduler round lands at the same point in the message stream, and
//! the daemon's summary, digests, and ledger are byte-identical run
//! over run. That is the loopback determinism rule: all wall-clock
//! nondeterminism is confined to the transports; the engine sees a
//! reproducible event sequence.
//!
//! Frames cross the loopback as *encoded bytes* through the real
//! `SWP1` codec (encode → decode on both directions), so loopback
//! tests exercise the exact framing path TCP uses — only the socket is
//! simulated.

use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::auth::splitmix;
use crate::daemon::{Daemon, DaemonConfig};
use crate::frame::{decode_frame, encode_frame, WireError};
use crate::msg::Message;
use crate::transport::{ConnId, Wire};

/// The in-process network: one daemon, many loopback connections,
/// seeded delivery order.
#[derive(Debug)]
pub struct LoopbackNet {
    daemon: Daemon,
    /// Client→daemon frames not yet delivered, with their connection.
    pending: Vec<(ConnId, Vec<u8>)>,
    /// Daemon→client frames awaiting a client `recv`.
    inboxes: HashMap<ConnId, VecDeque<Vec<u8>>>,
    /// Connections the daemon ordered closed.
    closed: HashMap<ConnId, bool>,
    rng: u64,
    next_conn: ConnId,
}

impl LoopbackNet {
    /// Builds a network around a fresh daemon; `seed` drives the
    /// arrival interleaving (independent of the daemon's own seed).
    #[must_use]
    pub fn new(cfg: &DaemonConfig, seed: u64) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self {
            daemon: Daemon::new(cfg),
            pending: Vec::new(),
            inboxes: HashMap::new(),
            closed: HashMap::new(),
            rng: seed ^ 0x100B_ACC5_EED0_0002,
            next_conn: 1,
        }))
    }

    /// Opens a new client connection.
    pub fn connect(net: &Rc<RefCell<Self>>) -> LoopbackConn {
        let conn = {
            let mut n = net.borrow_mut();
            let id = n.next_conn;
            n.next_conn += 1;
            n.inboxes.insert(id, VecDeque::new());
            n.closed.insert(id, false);
            n.daemon.on_connect(id);
            id
        };
        LoopbackConn {
            net: Rc::clone(net),
            conn,
        }
    }

    /// The daemon under test (kill-test instrumentation, injector
    /// arming, summaries).
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Mutable daemon access (test hooks).
    pub fn daemon_mut(&mut self) -> &mut Daemon {
        &mut self.daemon
    }

    /// One deterministic network step: deliver at most one pending
    /// client frame (seeded choice over the pool — the arrival
    /// interleaving), then advance the daemon's scheduler one tick.
    /// Ticking unconditionally keeps a blocking poll loop live: every
    /// client `recv` moves the scheduler, exactly as the TCP daemon
    /// loop ticks between socket polls. Returns `false` when the
    /// network is fully quiescent (nothing pending, no live session).
    pub fn pump_once(&mut self) -> bool {
        let mut delivered = false;
        if !self.pending.is_empty() {
            delivered = true;
            let idx = (splitmix(&mut self.rng) as usize) % self.pending.len();
            let (conn, bytes) = self.pending.remove(idx);
            if self.closed.get(&conn).copied().unwrap_or(true) {
                return true;
            }
            let reply = match decode_frame(&bytes).and_then(|p| Message::decode(&p)) {
                Ok(msg) => self.daemon.on_message(conn, msg),
                // A client that ships hostile bytes gets the same
                // treatment TCP gives it: protocol error, then close.
                Err(e) => crate::daemon::Reply {
                    msgs: vec![Message::ProtocolError {
                        detail: format!("{e}"),
                    }],
                    close: true,
                },
            };
            if let Some(inbox) = self.inboxes.get_mut(&conn) {
                for m in &reply.msgs {
                    inbox.push_back(encode_frame(&m.encode()));
                }
            }
            if reply.close {
                self.closed.insert(conn, true);
                self.daemon.on_disconnect(conn);
            }
        }
        let busy = self.daemon.tick();
        delivered || busy
    }
}

/// One client's handle onto the loopback network. `send` enqueues into
/// the shared pending pool; `recv` pumps the network until this
/// connection's inbox yields a frame — so a blocking client loop drives
/// the daemon exactly as the TCP poll loop would.
#[derive(Debug)]
pub struct LoopbackConn {
    net: Rc<RefCell<LoopbackNet>>,
    conn: ConnId,
}

impl LoopbackConn {
    /// This connection's id on the network.
    #[must_use]
    pub fn id(&self) -> ConnId {
        self.conn
    }
}

impl Wire for LoopbackConn {
    fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        let mut net = self.net.borrow_mut();
        if net.closed.get(&self.conn).copied().unwrap_or(true) {
            return Err(WireError::ConnectionClosed);
        }
        let bytes = encode_frame(&msg.encode());
        net.pending.push((self.conn, bytes));
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, WireError> {
        loop {
            let mut net = self.net.borrow_mut();
            if let Some(bytes) = net
                .inboxes
                .get_mut(&self.conn)
                .and_then(VecDeque::pop_front)
            {
                drop(net);
                return Message::decode(&decode_frame(&bytes)?);
            }
            if net.closed.get(&self.conn).copied().unwrap_or(true) {
                return Err(WireError::ConnectionClosed);
            }
            let progressed = net.pump_once();
            let pending = !net.pending.is_empty();
            if !progressed && !pending {
                // Nothing in flight can ever fill this inbox.
                return Err(WireError::ConnectionClosed);
            }
        }
    }
}
