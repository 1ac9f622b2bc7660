//! Scale-out proxies (§5.4 of the paper).
//!
//! A proxy transparently replaces a shared-memory channel with a network
//! connection: each side connects to its local component through an ordinary
//! channel endpoint and forwards every message (data and SYNC) to its peer,
//! which re-injects it locally. Components cannot tell the difference; only
//! one extra hop of forwarding latency (hidden inside the modelled link
//! latency) is added.
//!
//! One side of a sockets link is a `TcpPump`: a non-blocking state machine
//! (`Accepting` → `Live` → `Closed`) whose `pump()` does one bounded round —
//! drain the local ring into one reused wire buffer and write what the
//! socket takes, read what has arrived, decode into the local ring until it
//! is full — and returns whether it moved anything. It never waits, so
//! whoever steps the simulation can drive it:
//!
//! * in a distributed worker (`crate::dist`) each link's pump belongs to the
//!   partition's `Experiment` and the executor pumps it between kernel
//!   steps. The paper's busy-polled queues assume every poller has a core;
//!   a worker on a small machine has none to spare for forwarder threads.
//! * [`proxy_pair`] runs each side's pump on a thread of its own.
//!
//! [`proxy_pair`] bridges a channel in one of two ways:
//!
//! * **Sockets** ([`ProxyKind::Tcp`]) — messages are serialized to the wire
//!   format and streamed over a TCP connection (Nagle disabled), with
//!   adaptive batching: every message available in the local queue is
//!   forwarded in one write. Two pump threads.
//! * **Shared memory** ([`ProxyKind::Shm`]) — not a proxy at all: the two
//!   endpoints are the two sides of one mapped region (`crate::shm`), the
//!   §5.2 queue made cross-process. No forwarder, no serialization, no
//!   syscalls on the data path; this is what `crate::dist` uses for
//!   co-located partitions (`--transport shm`/`auto`, see
//!   [`crate::transport`]).
//!
//! The sockets proxy reports [`ProxyStats`] so harnesses can show batching
//! behaviour and forwarded volume (§7.4.2); a shared-memory pair forwards
//! nothing and reports zeros.
//!
//! When a proxy connection crosses process (or machine) boundaries — the
//! distributed mode of `crate::dist` — the connecting side opens the stream
//! with a length-prefixed **handshake frame** ([`write_handshake`]) naming
//! the link and carrying its [`ChannelParams`] block; the accepting pump
//! verifies both before any simulation message flows, so mismatched wiring
//! fails fast instead of corrupting a run. The handshake is encoded with
//! `simbricks_base`'s `SnapWriter`/`SnapReader`, and its length-prefixed
//! framing (`split_frame`) is the one the control protocol of `crate::dist`
//! uses too.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simbricks_base::{
    channel_pair, ChannelEnd, ChannelParams, OwnedMsg, SendError, SnapReader, SnapWriter,
};

/// Which transport a proxy pair uses between the two simulation "hosts".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProxyKind {
    /// Serialize messages and stream them over a loopback/real TCP socket.
    Tcp,
    /// The endpoints sit directly on memory-mapped SPSC rings (`crate::shm`):
    /// the paper's co-located fast path — no forwarder, no serialization, no
    /// syscalls per message.
    Shm,
}

/// Counters shared by the pumps of a proxy pair (snapshot through
/// [`ProxyStats`]).
#[derive(Debug, Default)]
pub struct ProxyCounters {
    forwarded: AtomicU64,
    bytes: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
}

/// Cooperative shutdown signal of a proxy link (or of both sides of a proxy
/// pair).
///
/// A link's pump checks the flag on every call and closes once it is raised,
/// so a link whose peer stalls forever can still be torn down. Registered
/// TCP streams are also shut down, which gives the remote reader an
/// immediate EOF.
#[derive(Default)]
pub struct ShutdownSignal {
    flag: AtomicBool,
    streams: Mutex<Vec<TcpStream>>,
}

impl ShutdownSignal {
    /// Keep a clone of `stream` so [`ShutdownSignal::signal`] can close it.
    pub(crate) fn register_stream(&self, stream: &TcpStream) {
        if let Ok(c) = stream.try_clone() {
            // io-ok: poisoned only if a holder already panicked
            self.streams.lock().unwrap().push(c);
        }
    }

    /// Raise the flag and close every registered stream.
    pub(crate) fn signal(&self) {
        self.flag.store(true, Ordering::Release);
        // io-ok: poisoned only if a holder already panicked
        for s in self.streams.lock().unwrap().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A snapshot of the work a proxy pair performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Messages forwarded (both directions, data and SYNC).
    pub forwarded: u64,
    /// Wire bytes forwarded.
    pub bytes: u64,
    /// Number of forwarding batches (writes / placement rounds).
    pub batches: u64,
    /// Largest number of messages coalesced into one batch.
    pub max_batch: u64,
}

impl ProxyStats {
    /// Mean messages per forwarding batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.forwarded as f64 / self.batches as f64
        }
    }
}

/// Handle to a running proxy pair: the two pump threads of a
/// [`ProxyKind::Tcp`] pair plus their shared statistics and shutdown signal.
/// A [`ProxyKind::Shm`] pair has no threads: its handle joins at once and
/// its counters stay zero.
///
/// A pump thread exits once its link closes: the TCP peer finished sending
/// (the other component endpoint is gone) or shutdown was signalled;
/// [`ProxyHandle::join`] waits for both. When one thread exits it poisons
/// the shared shutdown signal, so its sibling winds down too and `join`
/// cannot hang on a half-dead pair. Dropping the handle signals shutdown and
/// detaches the threads, so an abandoned handle never leaks spinning pumps.
pub struct ProxyHandle {
    kind: ProxyKind,
    counters: Arc<ProxyCounters>,
    shutdown: Arc<ShutdownSignal>,
    threads: Vec<JoinHandle<()>>,
}

impl ProxyHandle {
    pub fn kind(&self) -> ProxyKind {
        self.kind
    }

    /// A point-in-time snapshot of the forwarding counters.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            max_batch: self.counters.max_batch.load(Ordering::Relaxed),
        }
    }

    /// Wait for the pump threads to exit. They exit once either component
    /// endpoint is gone and its messages are delivered, the sibling thread
    /// exited (pair poisoning), or [`ProxyHandle::shutdown`] was requested —
    /// so `join` returns even when one side stalls forever.
    pub fn join(mut self) -> ProxyStats {
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        self.stats()
    }

    /// Explicitly stop the pump threads (raise the shutdown signal and shut
    /// the TCP streams down), then wait for them and return the final
    /// statistics.
    pub fn shutdown(mut self) -> ProxyStats {
        self.shutdown.signal();
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        self.stats()
    }
}

impl Drop for ProxyHandle {
    fn drop(&mut self) {
        // Only signal when threads are still attached: `join`/`shutdown` take
        // them out first.
        if !self.threads.is_empty() {
            self.shutdown.signal();
        }
    }
}

impl ProxyCounters {
    pub(crate) fn record_batch(&self, msgs: u64, bytes: u64) {
        if msgs == 0 {
            return;
        }
        self.forwarded.fetch_add(msgs, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(msgs, Ordering::Relaxed);
    }
}

// ----- handshake framing -----------------------------------------------------

/// The body length a frame's `u32` little-endian prefix announces, checked
/// against the caller's `min..=max`.
pub(crate) fn frame_len(prefix: [u8; 4], min: usize, max: usize) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if !(min..=max).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside {min}..={max}"),
        ));
    }
    Ok(len)
}

/// Split one length-prefixed frame (a `u32` body length, then the body) off
/// the front of `buf`: its body once the whole frame is there, `None` while
/// it is not. The proxy handshake and the distributed control protocol
/// share this framing, each with its own length bounds.
pub(crate) fn split_frame(buf: &[u8], min: usize, max: usize) -> io::Result<Option<&[u8]>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = frame_len(*prefix, min, max)?;
    Ok(buf.get(4..4 + len))
}

/// Magic bytes opening every proxy handshake frame.
const HANDSHAKE_MAGIC: [u8; 4] = *b"SBPX";
/// Version of the handshake frame layout.
const HANDSHAKE_VERSION: u8 = 1;
/// Smallest handshake body: magic, version, name length, parameter block.
const HANDSHAKE_MIN: usize = 7 + ChannelParams::WIRE_LEN;
/// Upper bound on a handshake body (the link name is the only variable part).
const HANDSHAKE_MAX: usize = 4096;

/// Write the length-prefixed proxy handshake frame: `u32` body length, then
/// magic `"SBPX"`, a version byte, the `u16`-length-prefixed link name, and
/// the [`ChannelParams`] block. Sent by the connecting side of a distributed
/// proxy link before any simulation message.
pub fn write_handshake(
    stream: &mut TcpStream,
    link: &str,
    params: &ChannelParams,
) -> io::Result<()> {
    // Cap against the reader's frame bound so an over-long link name fails
    // here, at the writer, instead of as a confusing handshake rejection on
    // the peer.
    if link.len() > HANDSHAKE_MAX - HANDSHAKE_MIN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "link name too long",
        ));
    }
    let mut body = SnapWriter::new();
    body.raw(&HANDSHAKE_MAGIC);
    body.u8(HANDSHAKE_VERSION);
    body.u16(link.len() as u16);
    body.raw(link.as_bytes());
    params.encode(&mut body);
    let mut frame = SnapWriter::new();
    frame.bytes(&body.into_vec());
    stream.write_all(&frame.into_vec())
}

/// Split a complete handshake frame off the front of `buf`: the link name,
/// the peer's parameters and the frame's length, or `None` while the frame
/// is still incomplete. Bad magic, version or framing is `InvalidData`.
fn split_handshake(buf: &[u8]) -> io::Result<Option<(String, ChannelParams, usize)>> {
    match split_frame(buf, HANDSHAKE_MIN, HANDSHAKE_MAX)? {
        Some(body) => parse_handshake(body).map(|(name, p)| Some((name, p, 4 + body.len()))),
        None => Ok(None),
    }
}

/// Validate a handshake body (the frame without its length prefix).
fn parse_handshake(body: &[u8]) -> io::Result<(String, ChannelParams)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut r = SnapReader::new(body);
    if r.take(4)? != HANDSHAKE_MAGIC {
        return Err(bad("handshake magic mismatch"));
    }
    if r.u8()? != HANDSHAKE_VERSION {
        return Err(bad("handshake version mismatch"));
    }
    let name_len = r.u16()? as usize;
    if r.remaining() != name_len + ChannelParams::WIRE_LEN {
        return Err(bad("handshake frame length inconsistent"));
    }
    let name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| bad("handshake link name not utf-8"))?;
    let params =
        ChannelParams::decode(&mut r).map_err(|_| bad("handshake channel params invalid"))?;
    Ok((name, params))
}

// ----- proxy construction ----------------------------------------------------

/// Bridge a channel with a proxy pair of the requested kind. Returns the two
/// channel endpoints the components use plus the [`ProxyHandle`]. The
/// endpoints behave exactly like a directly connected [`channel_pair`]; every
/// message crosses the proxy pair, as in distributed SimBricks simulations.
///
/// A [`ProxyKind::Tcp`] pair relays on threads no experiment steps, so its
/// endpoints are marked external ([`ChannelEnd::is_external`]): an
/// experiment using them has no deadlock detection, and one that is truly
/// stuck waits forever instead of panicking.
pub fn proxy_pair(
    kind: ProxyKind,
    params: ChannelParams,
) -> std::io::Result<(ChannelEnd, ChannelEnd, ProxyHandle)> {
    match kind {
        ProxyKind::Tcp => proxy_pair_tcp(params),
        ProxyKind::Shm => proxy_pair_shm(params),
    }
}

/// A channel whose two rings live in a file-backed shared-memory region (the
/// paper's co-located transport): one side creates the region, the other
/// attaches — validating the same handshake metadata as the TCP proxy's SBPX
/// frame — and each endpoint sits directly on the mapping, exactly as the two
/// partitions of a distributed run hold it. Nothing forwards, so the handle
/// carries no threads. The region file is unlinked once both endpoints drop.
fn proxy_pair_shm(params: ChannelParams) -> std::io::Result<(ChannelEnd, ChannelEnd, ProxyHandle)> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "simbricks-proxy-{}-{}.shm",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let shutdown = Arc::new(ShutdownSignal::default());
    let a = crate::shm::create_region(&path, "proxy-pair", params)?;
    let b = crate::shm::attach_region(
        &path,
        "proxy-pair",
        params,
        std::time::Instant::now() + std::time::Duration::from_secs(5),
        &shutdown,
    )?;
    Ok((
        a.into_channel_end(),
        b.into_channel_end(),
        ProxyHandle {
            kind: ProxyKind::Shm,
            counters: Arc::default(),
            shutdown,
            threads: Vec::new(),
        },
    ))
}

fn proxy_pair_tcp(params: ChannelParams) -> std::io::Result<(ChannelEnd, ChannelEnd, ProxyHandle)> {
    // Local channel stubs: component A <-> pump A, component B <-> pump B.
    // The pumps run on threads of their own, outside any experiment.
    let (mut for_component_a, proxy_a_local) = channel_pair(params);
    let (mut for_component_b, proxy_b_local) = channel_pair(params);
    for_component_a.set_external();
    for_component_b.set_external();

    // Side B accepts side A exactly as the owner of a cross-process link
    // accepts its peer, handshake included, so every in-process pair
    // exercises that path too.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut connect = TcpStream::connect(listener.local_addr()?)?;
    write_handshake(&mut connect, "proxy-pair", &params)?;
    let counters = Arc::new(ProxyCounters::default());
    let shutdown = Arc::new(ShutdownSignal::default());
    let pump_a = TcpPump::live(
        "proxy-pair",
        proxy_a_local,
        connect,
        counters.clone(),
        shutdown.clone(),
    )?;
    let pump_b = TcpPump::accepting(
        "proxy-pair",
        params,
        proxy_b_local,
        listener,
        Instant::now() + Duration::from_secs(5),
        counters.clone(),
        shutdown.clone(),
    )?;
    let threads = vec![
        spawn_pump("proxy-a", pump_a)?,
        spawn_pump("proxy-b", pump_b)?,
    ];
    Ok((
        for_component_a,
        for_component_b,
        ProxyHandle {
            kind: ProxyKind::Tcp,
            counters,
            shutdown,
            threads,
        },
    ))
}

/// Run `pump` on a thread of its own until its link closes, then raise the
/// pair's shutdown signal so the sibling pump winds down too.
fn spawn_pump(name: &str, mut pump: TcpPump) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while !pump.is_closed() {
                if !pump.pump() {
                    std::thread::yield_now();
                }
            }
            pump.shutdown.signal();
        })
}

// ----- the pump --------------------------------------------------------------

/// Unsent wire bytes a pump buffers before it stops draining its local ring
/// (the component then sees a full channel, exactly as in-process).
const TX_HIGH_WATER: usize = 256 * 1024;
/// Received, undelivered wire bytes a pump buffers before it stops reading
/// (TCP flow control then holds the peer back).
const RX_HIGH_WATER: usize = 256 * 1024;
/// Bytes asked for per socket read.
const READ_CHUNK: usize = 16 * 1024;

/// Where a [`TcpPump`]'s connection stands.
enum Conn {
    /// The owning side of a cross-process link: waiting for the peer to
    /// connect to the pre-bound listener and for its handshake frame.
    Accepting {
        listener: TcpListener,
        stream: Option<TcpStream>,
        params: ChannelParams,
        deadline: Instant,
    },
    /// Forwarding. `eof`: the peer has sent everything it ever will.
    /// `tx_shut`: so have we — the component's end is gone, every byte it
    /// sent is on the wire, and the write side is shut down.
    Live {
        stream: TcpStream,
        eof: bool,
        tx_shut: bool,
    },
    /// Torn down. The local end is dropped, so the component sees its peer
    /// close.
    Closed,
}

/// One side of a sockets link: moves messages between a local channel end
/// (whose peer is the component) and a TCP stream, without ever blocking.
///
/// Each [`TcpPump::pump`] call does one bounded round and reports whether it
/// moved anything. Bytes that arrive while the local ring is full stay
/// buffered until the component has drained it; bytes the socket does not
/// take stay buffered until a later round. The link closes once the peer
/// has sent everything (EOF) and all of it is delivered, or when the
/// shutdown signal is raised.
pub(crate) struct TcpPump {
    link: String,
    conn: Conn,
    local: Option<ChannelEnd>,
    counters: Arc<ProxyCounters>,
    shutdown: Arc<ShutdownSignal>,
    /// Wire bytes drained from the local ring; `tx[tx_off..]` is unsent.
    tx: Vec<u8>,
    tx_off: usize,
    /// Wire bytes read from the socket; `rx[rx_off..]` is undelivered.
    rx: Vec<u8>,
    rx_off: usize,
    scratch: Box<[u8]>,
    /// Why the link closed, when it did not close normally.
    diagnostic: Option<String>,
}

impl TcpPump {
    /// A pump over an established, handshaken connection.
    pub(crate) fn live(
        link: &str,
        local: ChannelEnd,
        stream: TcpStream,
        counters: Arc<ProxyCounters>,
        shutdown: Arc<ShutdownSignal>,
    ) -> io::Result<TcpPump> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        shutdown.register_stream(&stream);
        let conn = Conn::Live {
            stream,
            eof: false,
            tx_shut: false,
        };
        Ok(TcpPump::new(link, conn, local, counters, shutdown))
    }

    /// A pump that accepts the peer of `link` on the pre-bound `listener`
    /// and checks its handshake against `params`. A peer that has not
    /// connected and handshaken by `deadline` closes the link.
    pub(crate) fn accepting(
        link: &str,
        params: ChannelParams,
        local: ChannelEnd,
        listener: TcpListener,
        deadline: Instant,
        counters: Arc<ProxyCounters>,
        shutdown: Arc<ShutdownSignal>,
    ) -> io::Result<TcpPump> {
        listener.set_nonblocking(true)?;
        let conn = Conn::Accepting {
            listener,
            stream: None,
            params,
            deadline,
        };
        Ok(TcpPump::new(link, conn, local, counters, shutdown))
    }

    fn new(
        link: &str,
        conn: Conn,
        local: ChannelEnd,
        counters: Arc<ProxyCounters>,
        shutdown: Arc<ShutdownSignal>,
    ) -> TcpPump {
        TcpPump {
            link: link.to_string(),
            conn,
            local: Some(local),
            counters,
            shutdown,
            tx: Vec::new(),
            tx_off: 0,
            rx: Vec::new(),
            rx_off: 0,
            scratch: vec![0; READ_CHUNK].into_boxed_slice(),
            diagnostic: None,
        }
    }

    /// Whether the link is torn down (nothing will move any more).
    pub(crate) fn is_closed(&self) -> bool {
        matches!(self.conn, Conn::Closed)
    }

    /// One bounded, non-blocking round; whether anything moved.
    pub(crate) fn pump(&mut self) -> bool {
        let step = match self.conn {
            Conn::Closed => return false,
            _ if self.shutdown.is_set() => Err(None),
            Conn::Accepting { .. } => self.accept(),
            Conn::Live { .. } => self.exchange(),
        };
        match step {
            Ok(moved) => moved,
            Err(why) => {
                if let Some(why) = why {
                    eprintln!("{}", self.diagnostic.insert(why));
                }
                if let Conn::Live { stream, .. }
                | Conn::Accepting {
                    stream: Some(stream),
                    ..
                } = &self.conn
                {
                    // The shutdown signal holds a handle on the socket too:
                    // shut it down rather than wait for the last close.
                    let _ = stream.shutdown(Shutdown::Both);
                }
                self.conn = Conn::Closed;
                self.local = None;
                true
            }
        }
    }

    /// `Accepting`: accept the peer, read its handshake frame, and go live
    /// once it names this link and its parameters. `Err` closes the link
    /// (with a diagnostic when one is given).
    fn accept(&mut self) -> Result<bool, Option<String>> {
        let Conn::Accepting {
            listener,
            stream,
            params,
            deadline,
        } = &mut self.conn
        else {
            return Ok(false);
        };
        let mismatch = || Some(format!("dist: handshake mismatch on link {:?}", self.link));
        let mut moved = false;
        if stream.is_none() {
            match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)
                        .and_then(|()| s.set_nodelay(true))
                        .map_err(|e| Some(format!("dist: link {:?}: {e}", self.link)))?;
                    // Registered at once, so a SEVER also cuts a peer that
                    // connected but never completes its handshake.
                    self.shutdown.register_stream(&s);
                    *stream = Some(s);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(Some(format!("dist: accept on link {:?}: {e}", self.link))),
            }
        }
        if let Some(s) = stream {
            let (n, eof) = read_available(s, &mut self.rx, &mut self.scratch, HANDSHAKE_MAX);
            moved |= n > 0;
            match split_handshake(&self.rx) {
                Ok(Some((name, peer, used))) if name == self.link && peer == *params => {
                    self.rx_off = used;
                    if let Some(stream) = stream.take() {
                        self.conn = Conn::Live {
                            stream,
                            eof: false,
                            tx_shut: false,
                        };
                    }
                    return Ok(true);
                }
                Ok(None) if !eof => {}
                _ => return Err(mismatch()),
            }
        }
        if Instant::now() > *deadline {
            return Err(Some(format!(
                "dist: link {:?}: no peer handshake in time",
                self.link
            )));
        }
        Ok(moved)
    }

    /// `Live`: local ring → socket, socket → local ring. `Err` closes the
    /// link (with a diagnostic when one is given).
    fn exchange(&mut self) -> Result<bool, Option<String>> {
        let (
            Conn::Live {
                stream,
                eof,
                tx_shut,
            },
            Some(local),
        ) = (&mut self.conn, &mut self.local)
        else {
            return Ok(false);
        };
        let mut moved = false;

        // Local -> remote: drain the ring into the wire buffer (adaptive
        // batching: everything queued goes out in one write), then write
        // what the socket takes and keep the rest for the next round.
        if !*tx_shut {
            // Read the close flag before draining: the component drops its
            // end only after its last send, so a drain that empties the ring
            // after seeing the flag has everything.
            let closing = local.peer_closed();
            let mut drained = false;
            if self.tx.len() - self.tx_off < TX_HIGH_WATER {
                compact(&mut self.tx, &mut self.tx_off);
                let start = self.tx.len();
                let mut msgs = 0u64;
                while self.tx.len() - self.tx_off < TX_HIGH_WATER {
                    let Some(msg) = local.recv_raw() else {
                        drained = true;
                        break;
                    };
                    msg.write_wire(&mut self.tx);
                    msgs += 1;
                }
                self.counters
                    .record_batch(msgs, (self.tx.len() - start) as u64);
                moved |= msgs > 0;
            }
            match write_available(stream, &self.tx[self.tx_off..]) {
                Ok(n) => {
                    self.tx_off += n;
                    moved |= n > 0;
                }
                // The peer is gone: nothing sent from here can arrive.
                Err(_) => {
                    self.tx.clear();
                    self.tx_off = 0;
                    *tx_shut = true;
                }
            }
            if closing && drained && self.tx_off == self.tx.len() && !*tx_shut {
                let _ = stream.shutdown(Shutdown::Write);
                *tx_shut = true;
                moved = true;
            }
        }

        // Remote -> local: read what has arrived, then decode into the ring
        // until it is full. Never wait for room: the component drains the
        // ring on the thread that calls us.
        if !*eof && self.rx.len() - self.rx_off < RX_HIGH_WATER {
            compact(&mut self.rx, &mut self.rx_off);
            let (n, closed) =
                read_available(stream, &mut self.rx, &mut self.scratch, RX_HIGH_WATER);
            moved |= n > 0 || closed;
            *eof = closed;
        }
        while let Some((ts, ty, payload, used)) = OwnedMsg::peek_wire(&self.rx[self.rx_off..]) {
            match local.send_raw(ts, ty, payload) {
                Ok(()) => {}
                Err(SendError::Full) => break,
                // The component is gone; nobody will read this.
                Err(SendError::Disconnected) => {}
                Err(SendError::TooLarge) => {
                    return Err(Some(format!(
                        "dist: link {:?}: oversized message",
                        self.link
                    )))
                }
            }
            self.rx_off += used;
            moved = true;
        }
        let undelivered = &self.rx[self.rx_off..];
        if OwnedMsg::peek_wire(undelivered).is_none() {
            if *eof {
                // Everything the peer sent is delivered.
                return Err(None);
            }
            if undelivered.len() >= RX_HIGH_WATER {
                return Err(Some(format!(
                    "dist: link {:?}: malformed wire message",
                    self.link
                )));
            }
        }
        Ok(moved)
    }
}

/// Pump every link once; whether any of them moved anything.
pub(crate) fn pump_all(pumps: &mut [TcpPump]) -> bool {
    pumps.iter_mut().fold(false, |moved, p| p.pump() | moved)
}

/// Drop the consumed front `buf[..*off]` when it is empty or at least half
/// the buffer, so the copy is amortised over the bytes consumed.
fn compact(buf: &mut Vec<u8>, off: &mut usize) {
    if *off == buf.len() {
        buf.clear();
        *off = 0;
    } else if *off > 0 && *off >= buf.len() / 2 {
        buf.drain(..*off);
        *off = 0;
    }
}

/// Read what `s` has, up to about `limit` bytes, onto the end of `buf`.
/// Returns the byte count and whether the stream is finished (EOF or a hard
/// error).
fn read_available(
    s: &mut TcpStream,
    buf: &mut Vec<u8>,
    scratch: &mut [u8],
    limit: usize,
) -> (usize, bool) {
    let mut total = 0;
    while total < limit {
        match s.read(scratch) {
            Ok(0) => return (total, true),
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                total += n;
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => return (total, true),
        }
    }
    (total, false)
}

/// Write as much of `bytes` as `s` takes without blocking.
fn write_available(s: &mut TcpStream, bytes: &[u8]) -> io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match s.write(&bytes[done..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{SimTime, MSG_SYNC};

    fn exchange_over(kind: ProxyKind) -> (Vec<u64>, bool, ProxyStats) {
        let (mut a, mut b, handle) = proxy_pair(kind, ChannelParams::default_sync()).unwrap();
        for i in 0..50u64 {
            a.send_raw(SimTime::from_ns(i * 10), 5, &i.to_le_bytes())
                .unwrap();
        }
        b.send_raw(SimTime::from_ns(7), MSG_SYNC, &[]).unwrap();

        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 50 && std::time::Instant::now() < deadline {
            while let Some(m) = b.recv_raw() {
                assert_eq!(m.ty, 5);
                got.push(u64::from_le_bytes(m.data.as_slice().try_into().unwrap()));
            }
            std::thread::yield_now();
        }

        let mut sync_seen = false;
        while std::time::Instant::now() < deadline && !sync_seen {
            while let Some(m) = a.recv_raw() {
                if m.ty == MSG_SYNC {
                    sync_seen = true;
                }
            }
            std::thread::yield_now();
        }
        let stats = handle.stats();
        drop(a);
        drop(b);
        (got, sync_seen, stats)
    }

    #[test]
    fn messages_cross_the_tcp_proxy_in_order_and_both_directions() {
        let (got, sync_seen, stats) = exchange_over(ProxyKind::Tcp);
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "in order, none lost");
        assert!(sync_seen, "reverse direction works too");
        assert_eq!(stats.forwarded, 51, "50 data + 1 sync");
        assert!(stats.bytes > 0, "tcp proxy serializes to wire bytes");
        assert!(stats.batches <= stats.forwarded);
        assert!(stats.mean_batch() >= 1.0);
    }

    /// A socket that takes only part of a batch must not end the link: the
    /// pump keeps the unsent bytes and writes them on a later round. The
    /// receiving component reads nothing until the sender has stalled on a
    /// full pipe — more than the socket buffers hold is queued — and then
    /// every message arrives, in order.
    #[test]
    fn short_writes_keep_the_link_alive() {
        let (mut a, mut b, handle) =
            proxy_pair(ProxyKind::Tcp, ChannelParams::default_sync()).unwrap();
        // 32 MiB in 8 KiB messages: far more than loopback socket buffers,
        // the pumps' high-water marks and both rings hold together.
        let total = 4096u64;
        let sent = Arc::new(AtomicU64::new(0));
        let sender = {
            let sent = sent.clone();
            std::thread::spawn(move || {
                let mut payload = vec![0x5au8; 8192];
                for i in 0..total {
                    payload[..8].copy_from_slice(&i.to_le_bytes());
                    loop {
                        match a.send_raw(SimTime::from_ns(i), 5, &payload) {
                            Ok(()) => break,
                            Err(SendError::Full) => std::thread::yield_now(),
                            Err(e) => return Err(format!("message {i}: {e:?}")),
                        }
                    }
                    sent.store(i + 1, Ordering::Release);
                }
                Ok(a)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last = u64::MAX;
        let stalled_at = loop {
            std::thread::sleep(Duration::from_millis(100));
            let now = sent.load(Ordering::Acquire);
            if (now == last && now > 0) || now == total || Instant::now() > deadline {
                break now;
            }
            last = now;
        };
        assert!(
            stalled_at < total,
            "the pipe never filled up ({stalled_at} sent)"
        );

        let mut got = 0u64;
        while got < total && Instant::now() < deadline {
            match b.recv_raw() {
                Some(m) => {
                    assert_eq!(m.data[..8], got.to_le_bytes(), "in order, none lost");
                    got += 1;
                }
                None if b.peer_closed() => break,
                None => std::thread::yield_now(),
            }
        }
        assert_eq!(got, total, "every message arrived");
        let a = sender.join().unwrap().expect("the link stayed up");
        drop((a, b));
        assert_eq!(handle.join().forwarded, total);
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (theirs, _) = listener.accept().unwrap();
        (ours, theirs)
    }

    /// Pump until `done` holds (or ten seconds pass).
    fn pump_until(pump: &mut TcpPump, mut done: impl FnMut(&TcpPump) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(pump) && Instant::now() < deadline {
            if !pump.pump() {
                std::thread::yield_now();
            }
        }
    }

    /// Bytes that arrive while the local ring is full stay buffered: the
    /// round returns instead of waiting for room, and once the component
    /// drains, everything is delivered in order.
    #[test]
    fn pump_buffers_what_a_full_ring_cannot_take() {
        let params = ChannelParams::default_sync().with_queue_len(4);
        let (mut component, local) = channel_pair(params);
        let (ours, mut remote) = tcp_pair();
        let mut pump = TcpPump::live("t", local, ours, Arc::default(), Arc::default()).unwrap();
        let mut wire = Vec::new();
        for i in 0..20u64 {
            OwnedMsg::new(SimTime::from_ns(i), 5, i.to_le_bytes().to_vec()).write_wire(&mut wire);
        }
        remote.write_all(&wire).unwrap();
        pump_until(&mut pump, |p| p.rx.len() == wire.len());
        assert_eq!(pump.rx.len(), wire.len(), "everything was read");
        assert!(!pump.pump(), "a full ring is no reason to spin");

        let mut got = Vec::new();
        while let Some(m) = component.recv_raw() {
            got.push(u64::from_le_bytes(m.data.as_slice().try_into().unwrap()));
        }
        assert_eq!(
            got.len(),
            4,
            "the ring took what fits; the rest stayed buffered"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 20 && Instant::now() < deadline {
            pump.pump();
            while let Some(m) = component.recv_raw() {
                got.push(u64::from_le_bytes(m.data.as_slice().try_into().unwrap()));
            }
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert!(!pump.is_closed());
    }

    /// The owner's pump goes live on a matching handshake, delivering what
    /// the peer sent right behind it, and closes the link with the accept
    /// diagnostic when the link name or the parameters do not match.
    #[test]
    fn accepting_pump_checks_the_handshake() {
        let params = ChannelParams::default_sync();
        for (name, peer_params, ok) in [
            ("up0", params, true),
            ("other", params, false),
            ("up0", params.with_queue_len(8), false),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (mut component, local) = channel_pair(params);
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut pump = TcpPump::accepting(
                "up0",
                params,
                local,
                listener,
                deadline,
                Arc::default(),
                Arc::default(),
            )
            .unwrap();
            // The peer connects and handshakes against the listen backlog;
            // nothing has been accepted yet.
            let mut peer = TcpStream::connect(addr).unwrap();
            write_handshake(&mut peer, name, &peer_params).unwrap();
            peer.write_all(&OwnedMsg::new(SimTime::from_ns(3), 9, b"hi".to_vec()).to_wire())
                .unwrap();
            if ok {
                pump_until(&mut pump, |_| component.peek_timestamp().is_some());
                let m = component
                    .recv_raw()
                    .expect("delivered behind the handshake");
                assert_eq!((m.ty, &m.data[..]), (9, &b"hi"[..]));
                assert!(!pump.is_closed() && pump.diagnostic.is_none());
                continue;
            }
            pump_until(&mut pump, TcpPump::is_closed);
            assert!(pump.is_closed(), "{name}: mismatch closes the link");
            assert_eq!(
                pump.diagnostic.as_deref(),
                Some("dist: handshake mismatch on link \"up0\"")
            );
            assert!(component.peer_closed() && component.recv_raw().is_none());
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            assert!(
                matches!(peer.read(&mut [0u8; 8]), Ok(0) | Err(_)),
                "the peer is cut off"
            );
        }
    }

    /// What an injected `SEVER` does to a live link: the remote reader gets
    /// EOF at once, and the pump's next round closes the link, so the local
    /// component sees its peer close.
    #[test]
    fn sever_gives_the_remote_eof_and_the_component_a_closed_peer() {
        let (component, local) = channel_pair(ChannelParams::default_sync());
        let (ours, mut remote) = tcp_pair();
        let shutdown = Arc::new(ShutdownSignal::default());
        let mut pump = TcpPump::live("t", local, ours, Arc::default(), shutdown.clone()).unwrap();
        assert!(!pump.pump(), "an idle link moves nothing");
        shutdown.signal();
        remote
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            remote.read(&mut [0u8; 8]).unwrap(),
            0,
            "remote reader sees EOF"
        );
        assert!(!component.peer_closed());
        assert!(pump.pump(), "closing counts as progress");
        assert!(pump.is_closed() && component.peer_closed());
        assert!(!pump.pump());
    }

    /// A shared-memory pair is the channel itself: data and SYNC cross both
    /// ways with nothing forwarded, and the handle has no thread to wait for
    /// — `join` returns at once even though both endpoints are still alive.
    #[test]
    #[cfg(unix)]
    fn shm_pair_is_a_direct_channel_without_forwarders() {
        let (got, sync_seen, stats) = exchange_over(ProxyKind::Shm);
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "in order, none lost");
        assert!(sync_seen, "reverse direction works too");
        assert_eq!(stats, ProxyStats::default(), "nothing forwards");

        let (mut a, mut b, handle) =
            proxy_pair(ProxyKind::Shm, ChannelParams::default_sync()).unwrap();
        assert_eq!(handle.join().forwarded, 0);
        assert_eq!((a.dir(), b.dir()), (0, 1), "tagged like a channel_pair");
        a.send_raw(SimTime::from_ns(1), 9, b"hello").unwrap();
        let m = b
            .recv_raw()
            .expect("visible to the peer as soon as it is sent");
        assert_eq!((m.ty, &m.data[..]), (9, &b"hello"[..]));
        b.send_raw(SimTime::from_ns(2), MSG_SYNC, &[]).unwrap();
        assert!(a.recv_raw().expect("and the other way").is_sync());
        drop(a);
        assert!(
            b.peer_closed(),
            "dropping one end is seen through the mapping"
        );
    }

    /// A peer on a mapped ring sends and goes away while this side polls.
    /// Whenever `horizon()` reports end of time, everything the peer sent has
    /// been received: the peer raises its close byte after its last send, and
    /// `horizon()` reads that byte before it looks at the ring.
    #[test]
    #[cfg(unix)]
    fn shm_peer_departure_never_hides_messages_still_in_the_ring() {
        use simbricks_base::SyncPort;
        for round in 0..200u64 {
            let (a, b, _handle) =
                proxy_pair(ProxyKind::Shm, ChannelParams::default_sync()).unwrap();
            let (mut a, mut b) = (SyncPort::new(a), SyncPort::new(b));
            let n = 1 + round % 7;
            let peer = std::thread::spawn(move || {
                for i in 0..n {
                    a.send_data(SimTime::from_ns(i), 1, &[i as u8]);
                }
                a.emit_promise(SimTime::from_ns(n));
            });
            let mut got = 0;
            while b.horizon() != SimTime::MAX {
                b.poll();
                while b.pop_due(SimTime::MAX).is_some() {
                    got += 1;
                }
            }
            assert_eq!(got, n, "round {round}");
            peer.join().unwrap();
        }
    }

    #[test]
    #[cfg(unix)]
    fn shm_pair_survives_destination_backpressure() {
        // Tiny ring: the producer keeps hitting Full while the consumer
        // drains slowly; nothing may be lost or reordered.
        let params = ChannelParams::default_sync().with_queue_len(4);
        let (mut a, mut b, _handle) = proxy_pair(ProxyKind::Shm, params).unwrap();
        let total = 200u64;
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                loop {
                    match a.send_raw(SimTime::from_ns(i), 7, &i.to_le_bytes()) {
                        Ok(()) => break,
                        Err(simbricks_base::SendError::Full) => std::thread::yield_now(),
                        Err(e) => panic!("send failed: {e:?}"),
                    }
                }
            }
            a
        });
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while got.len() < total as usize && std::time::Instant::now() < deadline {
            while let Some(m) = b.recv_raw() {
                got.push(u64::from_le_bytes(m.data.as_slice().try_into().unwrap()));
            }
            std::thread::yield_now();
        }
        assert_eq!(got, (0..total).collect::<Vec<_>>());
        let _a = producer.join().unwrap();
    }

    /// Regression test for the proxy-lifecycle hang: join() must return even
    /// though one component endpoint never sends (and never closes), because
    /// the other side exiting poisons the pair.
    #[test]
    fn join_returns_when_one_peer_exits_early() {
        let (a, _b, handle) = proxy_pair(ProxyKind::Tcp, ChannelParams::default_sync()).unwrap();
        // Component A is done and drops its endpoint; component B stalls
        // forever, holding `_b` without ever sending or receiving.
        drop(a);
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        let joiner = std::thread::spawn(move || {
            handle.join();
            done2.store(true, Ordering::Release);
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            done.load(Ordering::Acquire),
            "join() hung on a stalled peer"
        );
        joiner.join().unwrap();
    }

    /// Explicit shutdown stops the pumps while both endpoints are alive.
    #[test]
    fn explicit_shutdown_stops_live_proxies() {
        for kind in [ProxyKind::Tcp, ProxyKind::Shm] {
            if kind == ProxyKind::Shm && !crate::shm::shm_supported() {
                continue;
            }
            let (_a, _b, handle) = proxy_pair(kind, ChannelParams::default_sync()).unwrap();
            // Neither endpoint is dropped; without the signal this would hang.
            let _ = handle.shutdown();
        }
    }

    /// The frames `write_handshake` puts on the wire for `params` on `link`.
    fn handshake_bytes(link: &str, params: &ChannelParams) -> Vec<u8> {
        let (mut tx, mut rx) = tcp_pair();
        write_handshake(&mut tx, link, params).unwrap();
        drop(tx);
        let mut frame = Vec::new();
        rx.read_to_end(&mut frame).unwrap();
        frame
    }

    #[test]
    #[rustfmt::skip]
    fn handshake_roundtrip_and_validation() {
        let frame = handshake_bytes("up0", &ChannelParams::default_sync());
        // Recorded from the hand-rolled encoder this codec replaced: peers of
        // earlier builds handshake with exactly these bytes.
        let golden = [
            &[0x4d, 0, 0, 0][..],                        // body length 77
            b"SBPX", &[0x01], &[0x03, 0x00], b"up0",     // magic, version, name
            &[0x20, 0xa1, 0x07, 0, 0, 0, 0, 0],          // latency 500 ns
            &[0x20, 0xa1, 0x07, 0, 0, 0, 0, 0],          // sync interval 500 ns
            &[0x40, 0, 0, 0, 0, 0, 0, 0], &[0x03, 0x00], // queue 64, flags
            &[0; 41],                                    // no impairment
        ]
        .concat();
        assert_eq!(frame, golden);
        let (name, got, used) = split_handshake(&frame).unwrap().unwrap();
        assert_eq!((name.as_str(), got, used), ("up0", ChannelParams::default_sync(), 81));

        let params = ChannelParams::default_sync().with_queue_len(8);
        let two = [handshake_bytes("up1", &params), b"rest".to_vec()].concat();
        let (name, got, used) = split_handshake(&two).unwrap().unwrap();
        assert_eq!((name.as_str(), got, &two[used..]), ("up1", params, &b"rest"[..]));
        // A strict prefix is an incomplete frame: neither an error nor a panic.
        for n in 0..frame.len() {
            assert!(matches!(split_handshake(&frame[..n]), Ok(None)), "prefix {n}");
        }

        // Garbage instead of a handshake is rejected, not misinterpreted.
        assert!(split_handshake(&[0u8; 64]).is_err());
        for at in [4, 8, 9] {
            let mut bad = frame.clone();
            bad[at] ^= 0xff; // magic, version, name length
            assert!(split_handshake(&bad).is_err(), "byte {at}");
        }
    }

    #[test]
    fn proxy_stats_mean_batch_math() {
        let s = ProxyStats {
            forwarded: 10,
            bytes: 100,
            batches: 4,
            max_batch: 5,
        };
        assert!((s.mean_batch() - 2.5).abs() < 1e-9);
        assert_eq!(ProxyStats::default().mean_batch(), 0.0);
    }
}
