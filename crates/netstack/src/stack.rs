//! The network stack facade: sockets, ARP, IP demultiplexing, frame I/O.

use std::collections::{BTreeMap, VecDeque};

use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
use simbricks_base::{BufPool, PktBuf, SimTime};
use simbricks_proto::{
    ArpOp, ArpPacket, Ecn, FrameBuilder, IpProto, Ipv4Addr, MacAddr, ParsedFrame, ParsedL4,
    TcpHeader, UdpHeader,
};

use crate::socket::{SocketAddr, SocketEvent, SocketId};
use crate::tcp::{CongestionControl, ConnEvent, SegmentOut, TcpConfig, TcpConn, TcpState};
use crate::udp::UdpSocket;

/// Static configuration of one stack instance (one simulated host).
#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
    /// Interface MTU in bytes (IP + TCP headers + payload). The dctcp
    /// experiment of Fig. 1 uses 4000 B.
    pub mtu: usize,
    pub congestion: CongestionControl,
    pub rto_min: SimTime,
    /// Delay between ARP request retries.
    pub arp_retry: SimTime,
    pub tcp_tx_buf: usize,
    pub tcp_rx_buf: usize,
    /// TCP segmentation offload size (bytes of payload per super-segment
    /// handed to the NIC). Zero disables TSO; the owner enables it when the
    /// attached NIC advertises segmentation offload.
    pub tso_size: usize,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mac: MacAddr::from_index(1),
            mtu: 1500,
            congestion: CongestionControl::Reno,
            rto_min: SimTime::from_ms(1),
            arp_retry: SimTime::from_ms(1),
            tcp_tx_buf: 256 * 1024,
            tcp_rx_buf: 64 * 1024,
            tso_size: 0,
        }
    }
}

/// Aggregate counters for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackStats {
    pub frames_sent: u64,
    pub frames_received: u64,
    pub arp_requests_sent: u64,
    pub arp_replies_sent: u64,
    pub tcp_retransmits: u64,
    pub tcp_segments_sent: u64,
    pub tcp_bytes_received: u64,
    pub udp_datagrams_sent: u64,
    pub udp_datagrams_received: u64,
    pub checksum_failures: u64,
}

enum Sock {
    TcpListener { _port: u16 },
    Tcp(Box<TcpConn>),
    Udp(UdpSocket),
}

/// A simulated host network stack (sans-I/O).
pub struct NetStack {
    // snap-skip: construction-time config; restore runs on an identically configured stack
    cfg: StackConfig,
    now: SimTime,
    // All stack tables are ordered maps: iteration (timer fan-out, stats
    // aggregation, snapshot encoding) observes sockets and ARP state in key
    // order structurally, so hash-map iteration order can never decide the
    // order in which same-deadline connections emit segments — the exact
    // divergence class a distributed worker or a checkpoint/restore cycle
    // would otherwise expose.
    sockets: BTreeMap<SocketId, Sock>,
    /// Established / pending TCP connections indexed by
    /// (local port, remote ip, remote port).
    tcp_index: BTreeMap<(u16, Ipv4Addr, u16), SocketId>,
    listeners: BTreeMap<u16, SocketId>,
    udp_ports: BTreeMap<u16, SocketId>,
    next_id: u64,
    next_ephemeral: u16,
    arp: BTreeMap<Ipv4Addr, MacAddr>,
    arp_pending: BTreeMap<Ipv4Addr, Vec<(IpProto, Ecn, Vec<u8>)>>,
    arp_last_request: BTreeMap<Ipv4Addr, SimTime>,
    /// Outgoing frames, built in place inside pooled buffers.
    out: VecDeque<PktBuf>,
    events: VecDeque<SocketEvent>,
    stats: StackStats,
    /// Passively opened connections whose handshake has not completed yet,
    /// mapped to their listener (to emit `Accepted` instead of `Connected`).
    pending_accept: BTreeMap<SocketId, SocketId>,
    /// When true, incoming TCP/UDP checksums are assumed to have been
    /// verified by NIC receive checksum offload.
    pub rx_checksum_offload: bool,
    /// Packet-buffer arena all transmit frames are built in.
    // snap-skip: transient buffer arena; contents are never observable across steps
    pool: BufPool,
}

impl NetStack {
    pub fn new(cfg: StackConfig) -> Self {
        NetStack {
            cfg,
            now: SimTime::ZERO,
            sockets: BTreeMap::new(),
            tcp_index: BTreeMap::new(),
            listeners: BTreeMap::new(),
            udp_ports: BTreeMap::new(),
            next_id: 1,
            next_ephemeral: 49152,
            arp: BTreeMap::new(),
            arp_pending: BTreeMap::new(),
            arp_last_request: BTreeMap::new(),
            out: VecDeque::new(),
            events: VecDeque::new(),
            stats: StackStats::default(),
            pending_accept: BTreeMap::new(),
            rx_checksum_offload: false,
            pool: BufPool::new(),
        }
    }

    /// The stack's packet-buffer arena (shared with the owning host model so
    /// pool counters aggregate per host).
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Rebase the stack onto an external buffer pool (e.g. the owning
    /// kernel's per-component arena).
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    pub fn ip(&self) -> Ipv4Addr {
        self.cfg.ip
    }

    pub fn mac(&self) -> MacAddr {
        self.cfg.mac
    }

    /// Install a static ARP entry (used by configurations that skip ARP).
    pub fn add_arp_entry(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.insert(ip, mac);
    }

    pub fn stats(&self) -> StackStats {
        let mut s = self.stats;
        for sock in self.sockets.values() {
            if let Sock::Tcp(c) = sock {
                s.tcp_retransmits += c.retransmits;
                s.tcp_segments_sent += c.segs_sent;
                s.tcp_bytes_received += c.bytes_received;
            }
        }
        s
    }

    fn tcp_config(&self) -> TcpConfig {
        TcpConfig {
            mss: self.cfg.mtu.saturating_sub(40).max(100),
            congestion: self.cfg.congestion,
            tx_buf: self.cfg.tcp_tx_buf,
            rx_buf: self.cfg.tcp_rx_buf,
            rto_min: self.cfg.rto_min,
            tso_size: self.cfg.tso_size,
            ..TcpConfig::default()
        }
    }

    fn alloc_id(&mut self) -> SocketId {
        let id = SocketId(self.next_id);
        self.next_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Socket API
    // ------------------------------------------------------------------

    /// Listen for TCP connections on `port`.
    pub fn tcp_listen(&mut self, port: u16) -> Option<SocketId> {
        if self.listeners.contains_key(&port) {
            return None;
        }
        let id = self.alloc_id();
        self.sockets.insert(id, Sock::TcpListener { _port: port });
        self.listeners.insert(port, id);
        Some(id)
    }

    /// Open a TCP connection to `remote_ip:remote_port`.
    pub fn tcp_connect(&mut self, now: SimTime, remote_ip: Ipv4Addr, remote_port: u16) -> SocketId {
        self.now = self.now.max(now);
        let local_port = self.alloc_ephemeral();
        let id = self.alloc_id();
        let local = SocketAddr::new(self.cfg.ip, local_port);
        let remote = SocketAddr::new(remote_ip, remote_port);
        let (conn, syn) = TcpConn::connect(self.now, local, remote, self.tcp_config());
        self.tcp_index
            .insert((local_port, remote_ip, remote_port), id);
        self.sockets.insert(id, Sock::Tcp(Box::new(conn)));
        self.emit_tcp_segment(remote_ip, &syn);
        id
    }

    /// Queue data on a TCP socket; returns the number of bytes accepted.
    pub fn tcp_send(&mut self, id: SocketId, data: &[u8]) -> usize {
        let now = self.now;
        let (n, segs, remote_ip) = match self.sockets.get_mut(&id) {
            Some(Sock::Tcp(c)) => {
                let n = c.send(data);
                let mut segs = Vec::new();
                c.poll_output(now, &mut segs);
                (n, segs, c.remote.ip)
            }
            _ => return 0,
        };
        for s in segs {
            self.emit_tcp_segment(remote_ip, &s);
        }
        n
    }

    /// Read up to `max` bytes from a TCP socket.
    pub fn tcp_recv(&mut self, id: SocketId, max: usize) -> Vec<u8> {
        let (data, update, remote_ip) = match self.sockets.get_mut(&id) {
            Some(Sock::Tcp(c)) => {
                let before = c.readable();
                let data = c.recv(max);
                // Reading frees receive-buffer space: advertise it so a
                // window-limited sender can continue (window update).
                let update = if !data.is_empty() && before >= data.len() {
                    Some(c.window_update())
                } else {
                    None
                };
                (data, update, c.remote.ip)
            }
            _ => return Vec::new(),
        };
        if let Some(seg) = update {
            self.emit_tcp_segment(remote_ip, &seg);
        }
        data
    }

    /// Bytes currently readable on a TCP socket.
    pub fn tcp_readable(&self, id: SocketId) -> usize {
        match self.sockets.get(&id) {
            Some(Sock::Tcp(c)) => c.readable(),
            _ => 0,
        }
    }

    /// Free space in the socket's send buffer.
    pub fn tcp_send_space(&self, id: SocketId) -> usize {
        match self.sockets.get(&id) {
            Some(Sock::Tcp(c)) => c.send_space(),
            _ => 0,
        }
    }

    /// Current congestion window (bytes), for instrumentation.
    pub fn tcp_cwnd(&self, id: SocketId) -> Option<u64> {
        match self.sockets.get(&id) {
            Some(Sock::Tcp(c)) => Some(c.cwnd()),
            _ => None,
        }
    }

    pub fn tcp_state(&self, id: SocketId) -> Option<TcpState> {
        match self.sockets.get(&id) {
            Some(Sock::Tcp(c)) => Some(c.state),
            _ => None,
        }
    }

    /// Gracefully close a TCP socket (FIN after pending data).
    pub fn tcp_close(&mut self, id: SocketId) {
        let now = self.now;
        let (segs, remote_ip) = match self.sockets.get_mut(&id) {
            Some(Sock::Tcp(c)) => {
                c.close();
                let mut segs = Vec::new();
                c.poll_output(now, &mut segs);
                (segs, c.remote.ip)
            }
            _ => return,
        };
        for s in segs {
            self.emit_tcp_segment(remote_ip, &s);
        }
    }

    /// Bind a UDP socket to `port`.
    pub fn udp_bind(&mut self, port: u16) -> Option<SocketId> {
        if self.udp_ports.contains_key(&port) {
            return None;
        }
        let id = self.alloc_id();
        self.sockets.insert(id, Sock::Udp(UdpSocket::new(port)));
        self.udp_ports.insert(port, id);
        Some(id)
    }

    /// Send a UDP datagram.
    pub fn udp_send_to(&mut self, now: SimTime, id: SocketId, to: SocketAddr, payload: &[u8]) {
        self.now = self.now.max(now);
        let src_port = match self.sockets.get(&id) {
            Some(Sock::Udp(u)) => u.local_port,
            _ => return,
        };
        self.stats.udp_datagrams_sent += 1;
        if let Some(mac) = self.resolved_mac(to.ip) {
            // Fast path: build the whole frame in place in a pooled buffer.
            let frame = FrameBuilder::udp_pooled(
                &self.pool,
                self.cfg.mac,
                mac,
                self.cfg.ip,
                to.ip,
                Ecn::NotEct,
                src_port,
                to.port,
                payload,
            );
            self.out.push_back(frame);
        } else {
            let l4 = UdpHeader::new(src_port, to.port, payload.len()).build_datagram(
                self.cfg.ip,
                to.ip,
                payload,
            );
            self.queue_unresolved(to.ip, IpProto::Udp, Ecn::NotEct, l4);
        }
    }

    /// Receive one UDP datagram, if any.
    pub fn udp_recv_from(&mut self, id: SocketId) -> Option<(SocketAddr, Vec<u8>)> {
        match self.sockets.get_mut(&id) {
            Some(Sock::Udp(u)) => u.recv(),
            _ => None,
        }
    }

    /// Datagrams waiting on a UDP socket.
    pub fn udp_pending(&self, id: SocketId) -> usize {
        match self.sockets.get(&id) {
            Some(Sock::Udp(u)) => u.pending(),
            _ => 0,
        }
    }

    /// Drain pending socket events.
    pub fn poll_events(&mut self) -> Vec<SocketEvent> {
        self.events.drain(..).collect()
    }

    // ------------------------------------------------------------------
    // Frame I/O (owner-driven)
    // ------------------------------------------------------------------

    /// Next outgoing Ethernet frame, if any (a pooled buffer; hand it on by
    /// move or refcount bump).
    pub fn poll_transmit(&mut self) -> Option<PktBuf> {
        let f = self.out.pop_front();
        if f.is_some() {
            self.stats.frames_sent += 1;
        }
        f
    }

    /// Whether outgoing frames are queued.
    pub fn has_transmit(&self) -> bool {
        !self.out.is_empty()
    }

    /// Earliest time `on_timer` must be called next.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        for s in self.sockets.values() {
            if let Sock::Tcp(c) = s {
                if let Some(d) = c.next_deadline() {
                    min = Some(min.map_or(d, |m: SimTime| m.min(d)));
                }
            }
        }
        min
    }

    /// Fire expired TCP timers (retransmissions, delayed ACKs).
    pub fn on_timer(&mut self, now: SimTime) {
        self.now = self.now.max(now);
        let now = self.now;
        // Ascending id order straight off the ordered socket table: the
        // order in which same-deadline connections emit segments is fixed by
        // construction — it must never diverge across processes (distributed
        // workers) or across checkpoint/restore. (The collect is still
        // needed: firing timers mutates `sockets`.)
        let ids: Vec<SocketId> = self.sockets.keys().copied().collect();
        for id in ids {
            let (segs, events, remote_ip) = match self.sockets.get_mut(&id) {
                Some(Sock::Tcp(c)) => {
                    if c.next_deadline().is_none_or(|d| d > now) {
                        continue;
                    }
                    let mut segs = Vec::new();
                    let mut ev = Vec::new();
                    c.on_timer(now, &mut segs, &mut ev);
                    (segs, ev, c.remote.ip)
                }
                _ => continue,
            };
            for s in segs {
                self.emit_tcp_segment(remote_ip, &s);
            }
            for e in events {
                self.push_conn_event(id, e);
            }
        }
    }

    /// Process one received Ethernet frame.
    pub fn handle_frame(&mut self, now: SimTime, frame: &[u8]) {
        self.now = self.now.max(now);
        self.stats.frames_received += 1;
        let parsed = match ParsedFrame::parse(frame) {
            Ok(p) => p,
            Err(_) => return,
        };
        // Frames not addressed to us (possible with flooding switches) are
        // dropped, except broadcasts.
        if parsed.eth.dst != self.cfg.mac && !parsed.eth.dst.is_broadcast() {
            return;
        }
        match parsed.l4 {
            ParsedL4::Arp(arp) => self.handle_arp(&arp),
            ParsedL4::Tcp { header, payload } => {
                if !parsed.checksums_ok && !self.rx_checksum_offload {
                    self.stats.checksum_failures += 1;
                    return;
                }
                let ip = parsed.ipv4.expect("TCP implies IPv4");
                if ip.dst != self.cfg.ip {
                    return;
                }
                self.handle_tcp(ip.src, ip.ecn, header, &payload);
            }
            ParsedL4::Udp { header, payload } => {
                if !parsed.checksums_ok && !self.rx_checksum_offload {
                    self.stats.checksum_failures += 1;
                    return;
                }
                let ip = parsed.ipv4.expect("UDP implies IPv4");
                if ip.dst != self.cfg.ip && !ip.dst.is_broadcast() {
                    return;
                }
                self.stats.udp_datagrams_received += 1;
                if let Some(&sid) = self.udp_ports.get(&header.dst_port) {
                    if let Some(Sock::Udp(u)) = self.sockets.get_mut(&sid) {
                        let from = SocketAddr::new(ip.src, header.src_port);
                        if u.deliver(from, payload) {
                            self.events.push_back(SocketEvent::DataAvailable(sid));
                        }
                    }
                }
            }
            ParsedL4::Other(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Internal handlers
    // ------------------------------------------------------------------

    fn handle_arp(&mut self, arp: &ArpPacket) {
        // Learn the sender mapping in all cases.
        self.arp.insert(arp.sender_ip, arp.sender_mac);
        self.flush_arp_pending(arp.sender_ip);
        if arp.op == ArpOp::Request && arp.target_ip == self.cfg.ip {
            let reply = arp.reply_to(self.cfg.mac, self.cfg.ip);
            let frame = FrameBuilder::arp_pooled(&self.pool, self.cfg.mac, arp.sender_mac, &reply);
            self.stats.arp_replies_sent += 1;
            self.out.push_back(frame);
        }
    }

    fn handle_tcp(&mut self, src_ip: Ipv4Addr, ecn: Ecn, hdr: TcpHeader, payload: &[u8]) {
        let key = (hdr.dst_port, src_ip, hdr.src_port);
        let id = match self.tcp_index.get(&key) {
            Some(id) => *id,
            None => {
                // New connection? Only SYNs to a listening port are accepted.
                if hdr.flags.contains(simbricks_proto::TcpFlags::SYN)
                    && !hdr.flags.contains(simbricks_proto::TcpFlags::ACK)
                {
                    if let Some(&listener) = self.listeners.get(&hdr.dst_port) {
                        let id = self.alloc_id();
                        let local = SocketAddr::new(self.cfg.ip, hdr.dst_port);
                        let remote = SocketAddr::new(src_ip, hdr.src_port);
                        let (conn, synack) =
                            TcpConn::accept(self.now, local, remote, self.tcp_config(), &hdr);
                        self.tcp_index.insert(key, id);
                        self.sockets.insert(id, Sock::Tcp(Box::new(conn)));
                        self.emit_tcp_segment(src_ip, &synack);
                        // The Accepted event is only surfaced once the
                        // handshake completes (see push_conn_event).
                        self.pending_accept.insert(id, listener);
                    }
                }
                return;
            }
        };
        let now = self.now;
        let (segs, events, remote_ip) = match self.sockets.get_mut(&id) {
            Some(Sock::Tcp(c)) => {
                let mut segs = Vec::new();
                let mut ev = Vec::new();
                c.on_segment(now, ecn, &hdr, payload, &mut segs, &mut ev);
                (segs, ev, c.remote.ip)
            }
            _ => return,
        };
        for s in segs {
            self.emit_tcp_segment(remote_ip, &s);
        }
        for e in events {
            self.push_conn_event(id, e);
        }
    }

    fn push_conn_event(&mut self, id: SocketId, e: ConnEvent) {
        let ev = match e {
            ConnEvent::Connected => {
                if let Some(listener) = self.pending_accept.remove(&id) {
                    SocketEvent::Accepted {
                        listener,
                        socket: id,
                    }
                } else {
                    SocketEvent::Connected(id)
                }
            }
            ConnEvent::DataAvailable => SocketEvent::DataAvailable(id),
            ConnEvent::SendSpace => SocketEvent::SendSpace(id),
            ConnEvent::PeerClosed => SocketEvent::PeerClosed(id),
            ConnEvent::Closed => SocketEvent::Closed(id),
            ConnEvent::ConnectFailed => SocketEvent::ConnectFailed(id),
        };
        self.events.push_back(ev);
    }

    fn emit_tcp_segment(&mut self, remote_ip: Ipv4Addr, seg: &SegmentOut) {
        if let Some(mac) = self.resolved_mac(remote_ip) {
            // Fast path: headers and payload go straight into one pooled
            // buffer — no intermediate L4 vector, no frame reallocation.
            let frame = FrameBuilder::tcp_pooled(
                &self.pool,
                self.cfg.mac,
                mac,
                self.cfg.ip,
                remote_ip,
                seg.ecn,
                &seg.hdr,
                &seg.payload,
            );
            self.out.push_back(frame);
        } else {
            let l4 = seg.hdr.build_segment(self.cfg.ip, remote_ip, &seg.payload);
            self.queue_unresolved(remote_ip, IpProto::Tcp, seg.ecn, l4);
        }
    }

    /// Destination MAC when no ARP resolution is needed (broadcast or cached).
    fn resolved_mac(&self, dst: Ipv4Addr) -> Option<MacAddr> {
        if dst.is_broadcast() {
            Some(MacAddr::BROADCAST)
        } else {
            self.arp.get(&dst).copied()
        }
    }

    fn send_ip(&mut self, dst: Ipv4Addr, proto: IpProto, ecn: Ecn, l4: Vec<u8>) {
        match self.resolved_mac(dst) {
            Some(mac) => {
                let frame = FrameBuilder::ipv4_pooled(
                    &self.pool,
                    self.cfg.mac,
                    mac,
                    self.cfg.ip,
                    dst,
                    proto,
                    ecn,
                    &l4,
                );
                self.out.push_back(frame);
            }
            None => self.queue_unresolved(dst, proto, ecn, l4),
        }
    }

    /// Park an L4 payload until ARP resolves `dst`, emitting a (rate-limited)
    /// ARP request.
    fn queue_unresolved(&mut self, dst: Ipv4Addr, proto: IpProto, ecn: Ecn, l4: Vec<u8>) {
        self.arp_pending
            .entry(dst)
            .or_default()
            .push((proto, ecn, l4));
        let due = match self.arp_last_request.get(&dst) {
            Some(last) => self.now >= *last + self.cfg.arp_retry,
            None => true,
        };
        if due {
            let req = ArpPacket::request(self.cfg.mac, self.cfg.ip, dst);
            let frame =
                FrameBuilder::arp_pooled(&self.pool, self.cfg.mac, MacAddr::BROADCAST, &req);
            self.out.push_back(frame);
            self.stats.arp_requests_sent += 1;
            self.arp_last_request.insert(dst, self.now);
        }
    }

    fn flush_arp_pending(&mut self, ip: Ipv4Addr) {
        if let Some(pending) = self.arp_pending.remove(&ip) {
            for (proto, ecn, l4) in pending {
                self.send_ip(ip, proto, ecn, l4);
            }
        }
    }

    fn snapshot_event(ev: &SocketEvent, w: &mut SnapWriter) {
        match ev {
            SocketEvent::Connected(s) => {
                w.u8(0);
                w.u64(s.0);
            }
            SocketEvent::Accepted { listener, socket } => {
                w.u8(1);
                w.u64(listener.0);
                w.u64(socket.0);
            }
            SocketEvent::DataAvailable(s) => {
                w.u8(2);
                w.u64(s.0);
            }
            SocketEvent::SendSpace(s) => {
                w.u8(3);
                w.u64(s.0);
            }
            SocketEvent::PeerClosed(s) => {
                w.u8(4);
                w.u64(s.0);
            }
            SocketEvent::Closed(s) => {
                w.u8(5);
                w.u64(s.0);
            }
            SocketEvent::ConnectFailed(s) => {
                w.u8(6);
                w.u64(s.0);
            }
        }
    }

    fn restore_event(r: &mut SnapReader) -> SnapResult<SocketEvent> {
        Ok(match r.u8()? {
            0 => SocketEvent::Connected(SocketId(r.u64()?)),
            1 => SocketEvent::Accepted {
                listener: SocketId(r.u64()?),
                socket: SocketId(r.u64()?),
            },
            2 => SocketEvent::DataAvailable(SocketId(r.u64()?)),
            3 => SocketEvent::SendSpace(SocketId(r.u64()?)),
            4 => SocketEvent::PeerClosed(SocketId(r.u64()?)),
            5 => SocketEvent::Closed(SocketId(r.u64()?)),
            6 => SocketEvent::ConnectFailed(SocketId(r.u64()?)),
            v => return Err(SnapError::Corrupt(format!("bad socket event tag {v}"))),
        })
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        for _ in 0..16384 {
            let p = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == u16::MAX {
                49152
            } else {
                self.next_ephemeral + 1
            };
            if !self.udp_ports.contains_key(&p) && !self.listeners.contains_key(&p) {
                return p;
            }
        }
        49152
    }
}

impl Snapshot for NetStack {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.time(self.now);
        w.u64(self.next_id);
        w.u16(self.next_ephemeral);
        w.bool(self.rx_checksum_offload);
        for v in [
            self.stats.frames_sent,
            self.stats.frames_received,
            self.stats.arp_requests_sent,
            self.stats.arp_replies_sent,
            self.stats.tcp_retransmits,
            self.stats.tcp_segments_sent,
            self.stats.tcp_bytes_received,
            self.stats.udp_datagrams_sent,
            self.stats.udp_datagrams_received,
            self.stats.checksum_failures,
        ] {
            w.u64(v);
        }

        // Sockets in id order (canonical — the ordered map guarantees it).
        w.usize(self.sockets.len());
        for (id, sock) in &self.sockets {
            w.u64(id.0);
            match sock {
                Sock::TcpListener { _port } => {
                    w.u8(0);
                    w.u16(*_port);
                }
                Sock::Tcp(c) => {
                    w.u8(1);
                    c.snapshot(w)?;
                }
                Sock::Udp(u) => {
                    w.u8(2);
                    u.snapshot(w)?;
                }
            }
        }

        // The remaining tables encode in ascending key order directly off
        // their ordered maps. `Ipv4Addr`'s derived `Ord` (big-endian byte
        // order) matches the `to_u32` order the previous sorted encoding
        // used, so the bytes are identical.
        w.usize(self.pending_accept.len());
        for (s, l) in &self.pending_accept {
            w.u64(s.0);
            w.u64(l.0);
        }

        w.usize(self.arp.len());
        for (ip, mac) in &self.arp {
            w.u32(ip.to_u32());
            w.raw(mac.as_bytes());
        }

        w.usize(self.arp_pending.len());
        for (ip, queued) in &self.arp_pending {
            w.u32(ip.to_u32());
            w.usize(queued.len());
            for (proto, ecn, l4) in queued {
                w.u8(proto.to_u8());
                w.u8(ecn.to_bits());
                w.bytes(l4);
            }
        }

        w.usize(self.arp_last_request.len());
        for (ip, t) in &self.arp_last_request {
            w.u32(ip.to_u32());
            w.time(*t);
        }

        w.usize(self.out.len());
        for frame in &self.out {
            w.bytes(frame);
        }
        w.usize(self.events.len());
        for ev in &self.events {
            Self::snapshot_event(ev, w);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.now = r.time()?;
        self.next_id = r.u64()?;
        self.next_ephemeral = r.u16()?;
        self.rx_checksum_offload = r.bool()?;
        self.stats = StackStats {
            frames_sent: r.u64()?,
            frames_received: r.u64()?,
            arp_requests_sent: r.u64()?,
            arp_replies_sent: r.u64()?,
            tcp_retransmits: r.u64()?,
            tcp_segments_sent: r.u64()?,
            tcp_bytes_received: r.u64()?,
            udp_datagrams_sent: r.u64()?,
            udp_datagrams_received: r.u64()?,
            checksum_failures: r.u64()?,
        };

        self.sockets.clear();
        self.tcp_index.clear();
        self.listeners.clear();
        self.udp_ports.clear();
        let n = r.usize()?;
        if n > 1 << 24 {
            return Err(SnapError::Corrupt(format!("absurd socket count {n}")));
        }
        for _ in 0..n {
            let id = SocketId(r.u64()?);
            match r.u8()? {
                0 => {
                    let port = r.u16()?;
                    self.sockets.insert(id, Sock::TcpListener { _port: port });
                    self.listeners.insert(port, id);
                }
                1 => {
                    let conn = TcpConn::restore(r)?;
                    self.tcp_index
                        .insert((conn.local.port, conn.remote.ip, conn.remote.port), id);
                    self.sockets.insert(id, Sock::Tcp(Box::new(conn)));
                }
                2 => {
                    let mut u = UdpSocket::new(0);
                    u.restore(r)?;
                    self.udp_ports.insert(u.local_port, id);
                    self.sockets.insert(id, Sock::Udp(u));
                }
                v => return Err(SnapError::Corrupt(format!("bad socket kind tag {v}"))),
            }
        }

        self.pending_accept.clear();
        for _ in 0..r.usize()? {
            let s = SocketId(r.u64()?);
            let l = SocketId(r.u64()?);
            self.pending_accept.insert(s, l);
        }

        self.arp.clear();
        for _ in 0..r.usize()? {
            let ip = Ipv4Addr::from_u32(r.u32()?);
            let mac = MacAddr::from_slice(r.take(6)?)
                .ok_or_else(|| SnapError::Corrupt("mac address".into()))?;
            self.arp.insert(ip, mac);
        }

        self.arp_pending.clear();
        for _ in 0..r.usize()? {
            let ip = Ipv4Addr::from_u32(r.u32()?);
            let mut queued = Vec::new();
            for _ in 0..r.usize()? {
                let proto = IpProto::from_u8(r.u8()?);
                let ecn = Ecn::from_bits(r.u8()?);
                let l4 = r.bytes()?;
                queued.push((proto, ecn, l4));
            }
            self.arp_pending.insert(ip, queued);
        }

        self.arp_last_request.clear();
        for _ in 0..r.usize()? {
            let ip = Ipv4Addr::from_u32(r.u32()?);
            let t = r.time()?;
            self.arp_last_request.insert(ip, t);
        }

        self.out.clear();
        for _ in 0..r.usize()? {
            self.out.push_back(PktBuf::from_vec(r.bytes()?));
        }
        self.events.clear();
        for _ in 0..r.usize()? {
            self.events.push_back(Self::restore_event(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(last: u8, idx: u64) -> StackConfig {
        StackConfig {
            ip: Ipv4Addr::new(10, 0, 0, last),
            mac: MacAddr::from_index(idx),
            ..StackConfig::default()
        }
    }

    #[test]
    fn arp_request_and_reply() {
        let mut a = NetStack::new(cfg(1, 1));
        let mut b = NetStack::new(cfg(2, 2));
        let sa = a.udp_bind(100).unwrap();
        let _sb = b.udp_bind(200).unwrap();
        a.udp_send_to(SimTime::ZERO, sa, SocketAddr::new(b.ip(), 200), b"x");
        // First frame out of a is an ARP broadcast.
        let f = a.poll_transmit().unwrap();
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(p.eth.dst.is_broadcast());
        assert!(matches!(p.l4, ParsedL4::Arp(_)));
        // b answers, a learns and releases the datagram.
        b.handle_frame(SimTime::from_us(1), &f);
        let reply = b.poll_transmit().unwrap();
        a.handle_frame(SimTime::from_us(2), &reply);
        let data_frame = a.poll_transmit().expect("pending datagram flushed");
        let p2 = ParsedFrame::parse(&data_frame).unwrap();
        assert!(matches!(p2.l4, ParsedL4::Udp { .. }));
        assert_eq!(p2.eth.dst, MacAddr::from_index(2));
    }

    #[test]
    fn static_arp_skips_resolution() {
        let mut a = NetStack::new(cfg(1, 1));
        a.add_arp_entry(Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_index(2));
        let sa = a.udp_bind(100).unwrap();
        a.udp_send_to(
            SimTime::ZERO,
            sa,
            SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 200),
            b"direct",
        );
        let f = a.poll_transmit().unwrap();
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(matches!(p.l4, ParsedL4::Udp { .. }));
        assert_eq!(a.stats().arp_requests_sent, 0);
    }

    #[test]
    fn udp_port_demux_and_unknown_port_dropped() {
        let mut a = NetStack::new(cfg(1, 1));
        let mut b = NetStack::new(cfg(2, 2));
        a.add_arp_entry(b.ip(), b.mac());
        b.add_arp_entry(a.ip(), a.mac());
        let sa = a.udp_bind(1000).unwrap();
        let sb1 = b.udp_bind(2001).unwrap();
        let sb2 = b.udp_bind(2002).unwrap();
        a.udp_send_to(SimTime::ZERO, sa, SocketAddr::new(b.ip(), 2002), b"two");
        a.udp_send_to(SimTime::ZERO, sa, SocketAddr::new(b.ip(), 2999), b"none");
        while let Some(f) = a.poll_transmit() {
            b.handle_frame(SimTime::from_us(1), &f);
        }
        assert_eq!(b.udp_pending(sb1), 0);
        assert_eq!(b.udp_pending(sb2), 1);
        let (_, data) = b.udp_recv_from(sb2).unwrap();
        assert_eq!(data, b"two");
    }

    #[test]
    fn duplicate_binds_rejected() {
        let mut a = NetStack::new(cfg(1, 1));
        assert!(a.udp_bind(53).is_some());
        assert!(a.udp_bind(53).is_none());
        assert!(a.tcp_listen(80).is_some());
        assert!(a.tcp_listen(80).is_none());
    }

    #[test]
    fn frames_for_other_macs_ignored() {
        let mut a = NetStack::new(cfg(1, 1));
        let mut b = NetStack::new(cfg(2, 2));
        a.add_arp_entry(b.ip(), MacAddr::from_index(99)); // wrong MAC on purpose
        let sa = a.udp_bind(1).unwrap();
        let _sb = b.udp_bind(2).unwrap();
        a.udp_send_to(SimTime::ZERO, sa, SocketAddr::new(b.ip(), 2), b"stray");
        let f = a.poll_transmit().unwrap();
        b.handle_frame(SimTime::from_us(1), &f);
        assert_eq!(b.stats().udp_datagrams_received, 0);
    }

    /// Snapshot a stack mid-handshake (pending connection, queued frames,
    /// learned ARP entries, undrained events) and restore it into a freshly
    /// built stack: the restored stack completes the connection exactly.
    #[test]
    fn snapshot_roundtrip_mid_connection() {
        let mut a = NetStack::new(cfg(1, 1));
        let mut b = NetStack::new(cfg(2, 2));
        a.add_arp_entry(b.ip(), b.mac());
        b.add_arp_entry(a.ip(), a.mac());
        b.tcp_listen(80);
        let c = a.tcp_connect(SimTime::from_us(1), b.ip(), 80);
        // Deliver the SYN to b (b now has a SynReceived conn + SYN-ACK out),
        // but leave the SYN-ACK in flight inside b's out queue.
        while let Some(f) = a.poll_transmit() {
            b.handle_frame(SimTime::from_us(2), &f);
        }
        let snap = |s: &NetStack| {
            let mut w = SnapWriter::new();
            s.snapshot(&mut w).unwrap();
            w.into_vec()
        };
        let (ba, bb) = (snap(&a), snap(&b));
        let mut a2 = NetStack::new(cfg(1, 1));
        let mut b2 = NetStack::new(cfg(2, 2));
        a2.restore(&mut SnapReader::new(&ba)).unwrap();
        b2.restore(&mut SnapReader::new(&bb)).unwrap();
        assert_eq!(a2.tcp_state(c), Some(TcpState::SynSent));
        // Finish the handshake on the restored pair.
        for _ in 0..4 {
            while let Some(f) = b2.poll_transmit() {
                a2.handle_frame(SimTime::from_us(3), &f);
            }
            while let Some(f) = a2.poll_transmit() {
                b2.handle_frame(SimTime::from_us(3), &f);
            }
        }
        assert_eq!(a2.tcp_state(c), Some(TcpState::Established));
        let evs = a2.poll_events();
        assert!(evs.contains(&SocketEvent::Connected(c)));
        let evs_b = b2.poll_events();
        assert!(
            evs_b
                .iter()
                .any(|e| matches!(e, SocketEvent::Accepted { .. })),
            "restored pending_accept still maps the passive open to its listener"
        );
        // Data flows on the restored connection.
        a2.tcp_send(c, b"hello");
        while let Some(f) = a2.poll_transmit() {
            b2.handle_frame(SimTime::from_us(4), &f);
        }
        let sb = *b2.tcp_index.values().next().unwrap();
        assert_eq!(b2.tcp_recv(sb, usize::MAX), b"hello");
    }

    #[test]
    fn snapshot_restore_rejects_truncation() {
        let mut a = NetStack::new(cfg(1, 1));
        a.udp_bind(9);
        let mut w = SnapWriter::new();
        a.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let mut fresh = NetStack::new(cfg(1, 1));
        for cut in [1usize, buf.len() / 2, buf.len() - 1] {
            assert!(fresh.restore(&mut SnapReader::new(&buf[..cut])).is_err());
        }
    }

    /// Determinism regression: when several connections hit the same
    /// retransmission deadline, the segments they emit must leave the stack
    /// in ascending socket-id order. Under the pre-fix `HashMap` socket
    /// table (iterating in hash order, as `on_timer` did before PR 4's
    /// hand-fix and structurally since this fix), the retransmitted SYNs
    /// interleave in per-instance hash order and this test fails — the
    /// event-log divergence the sharded/distributed bit-identity matrix
    /// would only catch after the fact.
    #[test]
    fn same_deadline_timers_fire_in_socket_id_order() {
        let mut a = NetStack::new(cfg(1, 1));
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        a.add_arp_entry(dst, MacAddr::from_index(2));
        // 16 connections opened at the same instant: same RTO deadline.
        for i in 0..16u16 {
            a.tcp_connect(SimTime::from_us(1), dst, 5000 + i);
        }
        // Drain the initial SYNs (they are emitted in call order regardless).
        let mut initial = Vec::new();
        while let Some(f) = a.poll_transmit() {
            initial.push(src_port_of(&f));
        }
        assert_eq!(initial.len(), 16);
        // Fire every expired retransmission timer in one call.
        a.on_timer(SimTime::from_ms(200));
        let mut retx = Vec::new();
        while let Some(f) = a.poll_transmit() {
            retx.push(src_port_of(&f));
        }
        assert_eq!(retx.len(), 16, "every connection retransmitted its SYN");
        assert_eq!(
            retx, initial,
            "retransmissions leave in socket-id order, not hash order"
        );
        let mut sorted = retx.clone();
        sorted.sort_unstable();
        assert_eq!(
            retx, sorted,
            "socket-id order is ascending ephemeral port order"
        );
    }

    fn src_port_of(frame: &[u8]) -> u16 {
        match ParsedFrame::parse(frame).unwrap().l4 {
            ParsedL4::Tcp { header, .. } => header.src_port,
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn tcp_syn_to_closed_port_is_ignored() {
        let mut a = NetStack::new(cfg(1, 1));
        let mut b = NetStack::new(cfg(2, 2));
        a.add_arp_entry(b.ip(), b.mac());
        b.add_arp_entry(a.ip(), a.mac());
        let _c = a.tcp_connect(SimTime::ZERO, b.ip(), 9999);
        while let Some(f) = a.poll_transmit() {
            b.handle_frame(SimTime::from_us(1), &f);
        }
        // No listener: b produces no SYN-ACK.
        assert!(b.poll_transmit().is_none());
    }
}
