//! Scale-out proxies (§5.4 of the paper).
//!
//! A proxy pair transparently replaces a shared-memory channel with a network
//! connection: each side connects to its local component through an ordinary
//! channel endpoint and forwards every message (data and SYNC) to its peer
//! proxy, which re-injects it locally. Components cannot tell the difference;
//! only one extra hop of forwarding latency (hidden inside the modelled link
//! latency) and one proxy thread per side are added.
//!
//! Proxies exist only for links that leave the machine. [`proxy_pair`]
//! bridges a channel in one of two ways:
//!
//! * **Sockets** ([`ProxyKind::Tcp`]) — messages are serialized to the wire
//!   format and streamed over a TCP connection (Nagle disabled), with
//!   adaptive batching: every message available in the local queue is
//!   forwarded in one write. Two forwarding threads.
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
//! the link and carrying its serialized [`ChannelParams`]; the accepting side
//! verifies both ([`read_handshake`]) before any simulation message flows, so
//! mismatched wiring fails fast instead of corrupting a run.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use simbricks_base::{channel_pair, ChannelEnd, ChannelParams, OwnedMsg};

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

/// Counters shared by the forwarding threads of a proxy pair or transport
/// (snapshot through [`ProxyStats`]).
#[derive(Debug, Default)]
pub struct ProxyCounters {
    forwarded: AtomicU64,
    bytes: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
}

/// Cooperative shutdown signal shared by the forwarding threads of a proxy.
///
/// Forwarding loops poll the flag every iteration (including inside
/// backpressure retry loops), so raising it unblocks threads that would
/// otherwise spin forever waiting for a stalled peer. Registered TCP streams
/// are also shut down, which turns any in-flight read into an immediate EOF.
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

/// Handle to a running proxy: the forwarding threads plus their shared
/// statistics and shutdown signal. A [`ProxyKind::Shm`] pair has no threads:
/// its handle joins at once and its counters stay zero.
///
/// Threads exit on their own once both component endpoints are gone (or the
/// TCP peer closes); [`ProxyHandle::join`] waits for that. When one thread of
/// a pair exits it poisons the shared shutdown signal, so its sibling winds
/// down too and `join` cannot hang on a half-dead pair. Dropping the handle
/// signals shutdown and detaches the threads, so an abandoned handle never
/// leaks spinning forwarders.
pub struct ProxyHandle {
    kind: ProxyKind,
    counters: Arc<ProxyCounters>,
    shutdown: Arc<ShutdownSignal>,
    threads: Vec<JoinHandle<()>>,
}

impl ProxyHandle {
    pub(crate) fn from_parts(
        kind: ProxyKind,
        counters: Arc<ProxyCounters>,
        shutdown: Arc<ShutdownSignal>,
        threads: Vec<JoinHandle<()>>,
    ) -> Self {
        ProxyHandle {
            kind,
            counters,
            shutdown,
            threads,
        }
    }

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

    /// Wait for the forwarding threads to exit. They exit once their local
    /// component endpoint is gone, the TCP peer closed, the sibling thread
    /// exited (pair poisoning), or [`ProxyHandle::shutdown`] was requested —
    /// so `join` returns even when one side stalls forever.
    pub fn join(mut self) -> ProxyStats {
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        self.stats()
    }

    /// Explicitly stop the forwarding threads (poison the channel loops and
    /// shut the TCP streams down), then wait for them and return the final
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

/// Magic bytes opening every proxy handshake frame.
const HANDSHAKE_MAGIC: [u8; 4] = *b"SBPX";
/// Version of the handshake frame layout.
const HANDSHAKE_VERSION: u8 = 1;
/// Upper bound on a handshake frame (the link name is the only variable part).
const HANDSHAKE_MAX: usize = 4096;

/// Write the length-prefixed proxy handshake frame: `u32` payload length,
/// then magic `"SBPX"`, a version byte, the `u16`-length-prefixed link name,
/// and the serialized [`ChannelParams`]. Sent by the connecting side of a
/// distributed proxy link before any simulation message.
pub fn write_handshake(
    stream: &mut TcpStream,
    link: &str,
    params: &ChannelParams,
) -> io::Result<()> {
    let name = link.as_bytes();
    // Cap against the reader's frame bound so an over-long link name fails
    // here, at the writer, instead of as a confusing handshake rejection on
    // the peer.
    if name.len() > HANDSHAKE_MAX - 7 - ChannelParams::WIRE_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "link name too long"));
    }
    let mut payload = Vec::with_capacity(7 + name.len() + ChannelParams::WIRE_LEN);
    payload.extend_from_slice(&HANDSHAKE_MAGIC);
    payload.push(HANDSHAKE_VERSION);
    payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
    payload.extend_from_slice(name);
    payload.extend_from_slice(&params.to_wire());
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame)
}

/// Read and validate a handshake frame written by [`write_handshake`],
/// returning the link name and the peer's channel parameters. The stream must
/// be in blocking mode. Fails with `InvalidData` on bad magic, version, or
/// framing.
pub fn read_handshake(stream: &mut TcpStream) -> io::Result<(String, ChannelParams)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if !(7 + ChannelParams::WIRE_LEN..=HANDSHAKE_MAX).contains(&len) {
        return Err(bad("handshake frame length out of range"));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    if payload[0..4] != HANDSHAKE_MAGIC {
        return Err(bad("handshake magic mismatch"));
    }
    if payload[4] != HANDSHAKE_VERSION {
        return Err(bad("handshake version mismatch"));
    }
    // io-ok: infallible - the slice is exactly 2 bytes
    let name_len = u16::from_le_bytes(payload[5..7].try_into().unwrap()) as usize;
    if payload.len() != 7 + name_len + ChannelParams::WIRE_LEN {
        return Err(bad("handshake frame length inconsistent"));
    }
    let name = String::from_utf8(payload[7..7 + name_len].to_vec())
        .map_err(|_| bad("handshake link name not utf-8"))?;
    let params = ChannelParams::from_wire(&payload[7 + name_len..])
        .ok_or_else(|| bad("handshake channel params invalid"))?;
    Ok((name, params))
}

// ----- proxy construction ----------------------------------------------------

/// Bridge a channel with a proxy pair of the requested kind. Returns the two
/// channel endpoints the components use plus the [`ProxyHandle`]. The
/// endpoints behave exactly like a directly connected [`channel_pair`]; every
/// message crosses the proxy pair, as in distributed SimBricks simulations.
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
fn proxy_pair_shm(
    params: ChannelParams,
) -> std::io::Result<(ChannelEnd, ChannelEnd, ProxyHandle)> {
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
        ProxyHandle::from_parts(ProxyKind::Shm, Arc::default(), shutdown, Vec::new()),
    ))
}

fn proxy_pair_tcp(
    params: ChannelParams,
) -> std::io::Result<(ChannelEnd, ChannelEnd, ProxyHandle)> {
    // Local channel stubs: component A <-> proxy A, component B <-> proxy B.
    let (for_component_a, proxy_a_local) = channel_pair(params);
    let (for_component_b, proxy_b_local) = channel_pair(params);

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut connect = TcpStream::connect(addr)?;
    let (mut accepted, _) = listener.accept()?;
    // Same handshake as a cross-process link, so the framing is exercised on
    // every in-process proxy pair too.
    write_handshake(&mut connect, "proxy-pair", &params)?;
    let (link, peer_params) = read_handshake(&mut accepted)?;
    if link != "proxy-pair" || peer_params != params {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "proxy pair handshake mismatch",
        ));
    }
    connect.set_nodelay(true)?;
    accepted.set_nodelay(true)?;

    let counters = Arc::new(ProxyCounters::default());
    let shutdown = Arc::new(ShutdownSignal::default());
    shutdown.register_stream(&connect);
    shutdown.register_stream(&accepted);
    let h1 = spawn_tcp_forwarder("proxy-a".into(), proxy_a_local, connect, counters.clone(), shutdown.clone());
    let h2 = spawn_tcp_forwarder("proxy-b".into(), proxy_b_local, accepted, counters.clone(), shutdown.clone());
    Ok((
        for_component_a,
        for_component_b,
        ProxyHandle::from_parts(ProxyKind::Tcp, counters, shutdown, vec![h1, h2]),
    ))
}

/// Spawn a thread running [`tcp_forward_loop`]; when the loop exits (for any
/// reason) the shared shutdown signal is raised so sibling forwarders wind
/// down too.
pub(crate) fn spawn_tcp_forwarder(
    name: String,
    local: ChannelEnd,
    stream: TcpStream,
    counters: Arc<ProxyCounters>,
    shutdown: Arc<ShutdownSignal>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            tcp_forward_loop(local, stream, &counters, &shutdown);
            shutdown.signal();
        })
        // io-ok: thread-spawn failure is resource exhaustion, not peer I/O
        .expect("spawn proxy thread")
}

/// One side of a sockets proxy: forward everything between the local channel
/// stub and the TCP stream until the local component endpoint disappears, the
/// TCP peer closes, or `shutdown` is signalled.
pub(crate) fn tcp_forward_loop(
    mut local: ChannelEnd,
    stream: TcpStream,
    counters: &ProxyCounters,
    shutdown: &ShutdownSignal,
) {
    // Non-blocking reads: the forwarding loop must never stall the
    // local->remote direction while waiting for remote bytes, or the
    // peer simulator blocks on missing SYNC messages.
    stream.set_nonblocking(true).ok();
    let mut tx = match stream.try_clone() {
        Ok(t) => t,
        Err(_) => return,
    };
    let mut rx = stream;
    let mut rx_buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16384];
    loop {
        if shutdown.is_set() {
            return;
        }
        let mut idle = true;
        // Read the close flag before draining: the producer drops its end
        // only after its last send, so a drain performed after observing the
        // flag is guaranteed to have flushed everything.
        let local_closing = local.peer_closed();
        // Local -> remote: forward everything queued on the local
        // channel (adaptive batching: drain the whole queue at once).
        let mut batch = Vec::new();
        let mut batch_msgs = 0u64;
        while let Some(msg) = local.recv_raw() {
            batch.extend_from_slice(&msg.to_wire());
            batch_msgs += 1;
        }
        if !batch.is_empty() {
            if tx.write_all(&batch).is_err() {
                return;
            }
            counters.record_batch(batch_msgs, batch.len() as u64);
            idle = false;
        }
        if local_closing {
            return;
        }
        // Remote -> local.
        match rx.read(&mut tmp) {
            Ok(0) => return, // peer proxy closed
            Ok(n) => {
                rx_buf.extend_from_slice(&tmp[..n]);
                idle = false;
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
        let mut consumed = 0;
        // Zero-allocation decode: borrow each message straight out of the
        // receive buffer and copy its payload directly into the local queue
        // slot (no intermediate `OwnedMsg` materialization).
        while let Some((ts, ty, payload, used)) = OwnedMsg::peek_wire(&rx_buf[consumed..]) {
            // Retry until there is queue space (peer component drains).
            loop {
                if shutdown.is_set() {
                    return;
                }
                match local.send_raw(ts, ty, payload) {
                    Ok(()) => break,
                    Err(simbricks_base::SendError::Full) => std::thread::yield_now(),
                    Err(_) => return,
                }
            }
            consumed += used;
        }
        if consumed > 0 {
            rx_buf.drain(..consumed);
        }
        if idle {
            std::thread::yield_now();
        }
    }
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
        let m = b.recv_raw().expect("visible to the peer as soon as it is sent");
        assert_eq!((m.ty, &m.data[..]), (9, &b"hello"[..]));
        b.send_raw(SimTime::from_ns(2), MSG_SYNC, &[]).unwrap();
        assert!(a.recv_raw().expect("and the other way").is_sync());
        drop(a);
        assert!(b.peer_closed(), "dropping one end is seen through the mapping");
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
        assert!(done.load(Ordering::Acquire), "join() hung on a stalled peer");
        joiner.join().unwrap();
    }

    /// Explicit shutdown stops the forwarders while both endpoints are alive.
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

    #[test]
    fn handshake_roundtrip_and_validation() {
        let params = ChannelParams::default_sync().with_queue_len(8);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        write_handshake(&mut tx, "up0", &params).unwrap();
        let (name, got) = read_handshake(&mut rx).unwrap();
        assert_eq!(name, "up0");
        assert_eq!(got, params);

        // Garbage instead of a handshake is rejected, not misinterpreted.
        tx.write_all(&[0u8; 64]).unwrap();
        assert!(read_handshake(&mut rx).is_err());
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
