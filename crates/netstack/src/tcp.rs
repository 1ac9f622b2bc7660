//! Simulated TCP with Reno and DCTCP congestion control.
//!
//! This is the transport the simulated hosts' "guest software" uses for the
//! iperf / netperf / memcached workloads of the paper's evaluation. It
//! implements connection setup and teardown, cumulative acknowledgements,
//! out-of-order reassembly, retransmission (RTO and fast retransmit),
//! receive-window flow control, delayed ACKs, and two congestion controllers:
//!
//! * **Reno** — slow start, congestion avoidance, fast retransmit/recovery.
//! * **DCTCP** — senders mark data packets ECT(0), switches mark CE above the
//!   queue threshold K, receivers echo the marks (ECE), and the sender keeps
//!   the EWMA `α` of the marked-byte fraction, shrinking `cwnd` by `α/2` once
//!   per window (Alizadeh et al., SIGCOMM 2010). This is what the Fig. 1
//!   marking-threshold sweep exercises.
//!
//! The implementation is deliberately event-driven and allocation-light, but
//! favours clarity over micro-optimization: the simulation spends its time in
//! the host and NIC models, not here.

use std::collections::{BTreeMap, VecDeque};

use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use simbricks_base::SimTime;
use simbricks_proto::{Ecn, TcpFlags, TcpHeader};

use crate::socket::SocketAddr;

/// Congestion-control algorithm for a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionControl {
    Reno,
    Dctcp,
}

/// TCP connection states (TIME_WAIT is skipped: the simulation controls both
/// endpoints, so reincarnation hazards cannot occur).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    Closed,
}

/// Per-connection configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    pub mss: usize,
    pub congestion: CongestionControl,
    pub tx_buf: usize,
    pub rx_buf: usize,
    pub rto_min: SimTime,
    pub rto_initial: SimTime,
    pub delayed_ack: SimTime,
    /// DCTCP EWMA gain g.
    pub dctcp_g: f64,
    /// Receive-window scale shift advertised in our SYN (RFC 7323). Without
    /// it the 16-bit window field caps inflight data at 64 KiB, window-
    /// limiting any high-bandwidth-delay-product path. Scaling is only used
    /// when both ends advertise it (both simulated ends share this default,
    /// so it is negotiated symmetrically); zero disables the option.
    pub window_scale: u8,
    /// TCP segmentation offload: when larger than `mss`, the connection emits
    /// super-segments up to this payload size and relies on the NIC to cut
    /// them into MSS-sized wire segments. Zero (or <= mss) disables TSO. The
    /// advertised MSS and all congestion-window accounting stay in wire-MSS
    /// units.
    pub tso_size: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            congestion: CongestionControl::Reno,
            tx_buf: 256 * 1024,
            rx_buf: 64 * 1024,
            rto_min: SimTime::from_ms(1),
            rto_initial: SimTime::from_ms(20),
            delayed_ack: SimTime::from_us(500),
            dctcp_g: 1.0 / 16.0,
            window_scale: 7,
            tso_size: 0,
        }
    }
}

/// A segment the connection wants transmitted, still address-agnostic; the
/// stack wraps it into IPv4 + Ethernet.
#[derive(Clone, Debug)]
pub struct SegmentOut {
    pub hdr: TcpHeader,
    pub payload: Vec<u8>,
    pub ecn: Ecn,
}

/// Connection-level notifications for the stack to translate into socket
/// events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    Connected,
    DataAvailable,
    SendSpace,
    PeerClosed,
    Closed,
    ConnectFailed,
}

#[inline]
fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}
#[inline]
fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}
#[inline]
fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

/// One TCP connection.
#[derive(Debug)]
pub struct TcpConn {
    pub state: TcpState,
    pub local: SocketAddr,
    pub remote: SocketAddr,
    cfg: TcpConfig,

    // Send side. `tx_buf` holds bytes starting at sequence `snd_una`; the
    // first `snd_nxt - snd_una` of them are in flight.
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    tx_buf: VecDeque<u8>,
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: u32,

    // Receive side.
    rcv_nxt: u32,
    rx_buf: VecDeque<u8>,
    ooo: BTreeMap<u32, Vec<u8>>,
    ooo_bytes: usize,
    peer_fin: Option<u32>,

    // Window scaling (RFC 7323): shift applied to window fields *received
    // from* the peer (the peer's advertised scale) and to window fields we
    // advertise (our scale). Both stay 0 unless negotiated at SYN time.
    snd_wscale: u8,
    rcv_wscale: u8,

    // Congestion control.
    cwnd: u64,
    ssthresh: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u32,

    // DCTCP state.
    alpha: f64,
    win_bytes_acked: u64,
    win_bytes_marked: u64,
    win_end: u32,
    ce_to_echo: bool,

    // RTT estimation / retransmission timer (RFC 6298, integer
    // picoseconds: float smoothing would make the RTO — virtual time —
    // depend on platform/optimization-sensitive rounding).
    srtt_ps: u64,
    rttvar_ps: u64,
    rto: SimTime,
    rto_backoff: u32,
    rto_deadline: Option<SimTime>,
    rtt_probe: Option<(u32, SimTime)>,

    // Delayed ACK.
    ack_pending: u32,
    delack_deadline: Option<SimTime>,

    /// Counters (exposed for experiment reporting).
    pub retransmits: u64,
    pub segs_sent: u64,
    pub segs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub ce_marks_seen: u64,
}

impl TcpConn {
    fn base(local: SocketAddr, remote: SocketAddr, cfg: TcpConfig, state: TcpState) -> Self {
        // Deterministic initial sequence number from the four-tuple so reruns
        // are bit-identical (§7.6).
        let iss = {
            let mut h: u32 = 0x9e3779b9;
            for b in local
                .ip
                .as_bytes()
                .iter()
                .chain(remote.ip.as_bytes().iter())
            {
                h = h.wrapping_mul(31).wrapping_add(*b as u32);
            }
            h = h.wrapping_mul(31).wrapping_add(local.port as u32);
            h.wrapping_mul(31).wrapping_add(remote.port as u32)
        };
        let cwnd = (10 * cfg.mss) as u64;
        TcpConn {
            state,
            local,
            remote,
            cfg,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 65535,
            tx_buf: VecDeque::new(),
            fin_queued: false,
            fin_sent: false,
            fin_seq: 0,
            rcv_nxt: 0,
            rx_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            peer_fin: None,
            snd_wscale: 0,
            rcv_wscale: 0,
            cwnd,
            ssthresh: u64::MAX / 4,
            dup_acks: 0,
            in_recovery: false,
            recover: iss,
            alpha: 0.0,
            win_bytes_acked: 0,
            win_bytes_marked: 0,
            win_end: iss,
            ce_to_echo: false,
            srtt_ps: 0,
            rttvar_ps: 0,
            rto: cfg.rto_initial,
            rto_backoff: 1,
            rto_deadline: None,
            rtt_probe: None,
            ack_pending: 0,
            delack_deadline: None,
            retransmits: 0,
            segs_sent: 0,
            segs_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
            ce_marks_seen: 0,
        }
    }

    /// Create an active-open connection; returns the connection and the SYN
    /// to transmit.
    pub fn connect(
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        cfg: TcpConfig,
    ) -> (Self, SegmentOut) {
        let mut c = Self::base(local, remote, cfg, TcpState::SynSent);
        let syn = c.make_segment(TcpFlags::SYN, c.snd_nxt, Vec::new(), true);
        c.snd_nxt = c.snd_nxt.wrapping_add(1);
        c.arm_rto(now);
        (c, syn)
    }

    /// Create a passive connection from a received SYN; returns the
    /// connection and the SYN-ACK to transmit.
    pub fn accept(
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        mut cfg: TcpConfig,
        syn: &TcpHeader,
    ) -> (Self, SegmentOut) {
        if let Some(mss) = syn.mss {
            cfg.mss = cfg.mss.min(mss as usize);
        }
        let mut c = Self::base(local, remote, cfg, TcpState::SynReceived);
        c.rcv_nxt = syn.seq.wrapping_add(1);
        // SYN windows are never scaled (RFC 7323 §2.2).
        c.snd_wnd = syn.window as u32;
        if let Some(ws) = syn.wscale {
            if cfg.window_scale > 0 {
                c.snd_wscale = ws.min(14);
                c.rcv_wscale = cfg.window_scale.min(14);
            }
        }
        let mut synack = c.make_segment(TcpFlags::SYN | TcpFlags::ACK, c.snd_nxt, Vec::new(), true);
        if syn.wscale.is_none() {
            // Only offer scaling back when the active opener offered it.
            synack.hdr.wscale = None;
        }
        synack.hdr.ack = c.rcv_nxt;
        c.snd_nxt = c.snd_nxt.wrapping_add(1);
        c.arm_rto(now);
        (c, synack)
    }

    // ------------------------------------------------------------------
    // Socket-facing operations
    // ------------------------------------------------------------------

    /// Buffer application data for sending; returns how many bytes fit.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if matches!(
            self.state,
            TcpState::Closed | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::LastAck
        ) || self.fin_queued
        {
            return 0;
        }
        let room = self.cfg.tx_buf.saturating_sub(self.tx_buf.len());
        let n = room.min(data.len());
        self.tx_buf.extend(&data[..n]);
        n
    }

    /// Read up to `max` received bytes.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.rx_buf.len());
        self.rx_buf.drain(..n).collect()
    }

    /// Bytes currently readable.
    pub fn readable(&self) -> usize {
        self.rx_buf.len()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.cfg.tx_buf.saturating_sub(self.tx_buf.len())
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current DCTCP α estimate.
    pub fn dctcp_alpha(&self) -> f64 {
        self.alpha
    }

    /// Request a graceful close: a FIN is sent once buffered data drains.
    pub fn close(&mut self) {
        if !self.fin_queued && self.state != TcpState::Closed {
            self.fin_queued = true;
        }
    }

    /// Hard-close the connection state (after reset or final ACK).
    pub fn abort(&mut self) {
        self.state = TcpState::Closed;
        self.tx_buf.clear();
        self.rto_deadline = None;
        self.delack_deadline = None;
    }

    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Process a received segment. Any segments to transmit are pushed to
    /// `out`; connection events are pushed to `events`.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        ecn: Ecn,
        hdr: &TcpHeader,
        payload: &[u8],
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<ConnEvent>,
    ) {
        self.segs_received += 1;
        if hdr.flags.contains(TcpFlags::RST) {
            let was_connecting = matches!(self.state, TcpState::SynSent | TcpState::SynReceived);
            self.abort();
            events.push(if was_connecting {
                ConnEvent::ConnectFailed
            } else {
                ConnEvent::Closed
            });
            return;
        }

        if ecn == Ecn::Ce {
            self.ce_marks_seen += 1;
            self.ce_to_echo = true;
        }
        // Window fields of non-SYN segments carry the peer's scale shift once
        // negotiated; SYN/SYN-ACK windows are always unscaled (RFC 7323).
        self.snd_wnd = if hdr.flags.contains(TcpFlags::SYN) {
            hdr.window as u32
        } else {
            (hdr.window as u32) << self.snd_wscale
        };

        match self.state {
            TcpState::SynSent => {
                if hdr.flags.contains(TcpFlags::SYN) && hdr.flags.contains(TcpFlags::ACK) {
                    if let Some(mss) = hdr.mss {
                        self.cfg.mss = self.cfg.mss.min(mss as usize);
                        self.cwnd = self.cwnd.max((10 * self.cfg.mss) as u64);
                    }
                    if let Some(ws) = hdr.wscale {
                        if self.cfg.window_scale > 0 {
                            self.snd_wscale = ws.min(14);
                            self.rcv_wscale = self.cfg.window_scale.min(14);
                        }
                    }
                    self.rcv_nxt = hdr.seq.wrapping_add(1);
                    self.snd_una = hdr.ack;
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                    self.rto_backoff = 1;
                    events.push(ConnEvent::Connected);
                    out.push(self.make_ack());
                }
            }
            TcpState::SynReceived => {
                if hdr.flags.contains(TcpFlags::ACK) && seq_gt(hdr.ack, self.snd_una) {
                    self.snd_una = hdr.ack;
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                    self.rto_backoff = 1;
                    events.push(ConnEvent::Connected);
                }
                if !payload.is_empty() {
                    self.ingest_payload(hdr.seq, payload, out, events);
                }
            }
            TcpState::Closed => { /* drop */ }
            _ => {
                if hdr.flags.contains(TcpFlags::ACK) {
                    self.process_ack(now, hdr, payload.len(), out, events);
                }
                if !payload.is_empty() {
                    self.ingest_payload(hdr.seq, payload, out, events);
                    self.schedule_ack(now, out);
                }
                if hdr.flags.contains(TcpFlags::FIN) {
                    let fin_seq = hdr.seq.wrapping_add(payload.len() as u32);
                    self.peer_fin = Some(fin_seq);
                }
                self.try_consume_fin(events, out);
            }
        }
        self.poll_output(now, out);
    }

    fn try_consume_fin(&mut self, events: &mut Vec<ConnEvent>, out: &mut Vec<SegmentOut>) {
        if let Some(fin_seq) = self.peer_fin {
            if self.rcv_nxt == fin_seq {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.peer_fin = None;
                out.push(self.make_ack());
                match self.state {
                    TcpState::Established => {
                        self.state = TcpState::CloseWait;
                        events.push(ConnEvent::PeerClosed);
                    }
                    TcpState::FinWait1 => {
                        self.state = TcpState::Closing;
                        events.push(ConnEvent::PeerClosed);
                    }
                    TcpState::FinWait2 => {
                        self.state = TcpState::Closed;
                        events.push(ConnEvent::PeerClosed);
                        events.push(ConnEvent::Closed);
                    }
                    _ => {}
                }
            }
        }
    }

    fn ingest_payload(
        &mut self,
        seq: u32,
        payload: &[u8],
        _out: &mut [SegmentOut],
        events: &mut Vec<ConnEvent>,
    ) {
        self.bytes_received += payload.len() as u64;
        if seq_le(seq, self.rcv_nxt) {
            // In-order (possibly partially duplicate) data.
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            if skip < payload.len() {
                let fresh = &payload[skip..];
                let room = self.cfg.rx_buf.saturating_sub(self.rx_buf.len());
                let take = room.min(fresh.len());
                self.rx_buf.extend(&fresh[..take]);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
                if take > 0 {
                    events.push(ConnEvent::DataAvailable);
                }
                // Pull any now-contiguous out-of-order data.
                while let Some((&oseq, _)) = self.ooo.iter().next() {
                    if seq_gt(oseq, self.rcv_nxt) {
                        break;
                    }
                    let data = self.ooo.remove(&oseq).unwrap();
                    self.ooo_bytes -= data.len();
                    let skip = self.rcv_nxt.wrapping_sub(oseq) as usize;
                    if skip < data.len() {
                        let fresh = &data[skip..];
                        let room = self.cfg.rx_buf.saturating_sub(self.rx_buf.len());
                        let take = room.min(fresh.len());
                        self.rx_buf.extend(&fresh[..take]);
                        self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
                        if take < fresh.len() {
                            // rx_buf filled mid-drain: the stack already holds
                            // the remaining bytes, so keep them (re-keyed at
                            // the new rcv_nxt) instead of discarding them and
                            // forcing the peer to retransmit data we had.
                            let tail = fresh[take..].to_vec();
                            self.ooo_insert(self.rcv_nxt, tail);
                            break;
                        }
                    }
                }
            }
            self.ack_pending += 1;
        } else {
            // Out of order: buffer (bounded) and request a duplicate ACK.
            self.ooo_insert(seq, payload.to_vec());
            self.ack_pending += 2; // force an immediate dup-ACK
        }
    }

    /// Insert an out-of-order run at `seq`, keeping the **longer** payload
    /// when a run at the same sequence number is already buffered (a shorter
    /// duplicate never carries new bytes; a longer one always does) and
    /// enforcing the `rx_buf`-sized bound on total buffered OOO bytes.
    fn ooo_insert(&mut self, seq: u32, data: Vec<u8>) {
        let old_len = self.ooo.get(&seq).map_or(0, Vec::len);
        if data.len() <= old_len {
            return; // existing run already covers these bytes
        }
        if self.ooo_bytes - old_len + data.len() > self.cfg.rx_buf {
            return; // bounded buffer: drop, the peer will retransmit
        }
        self.ooo_bytes = self.ooo_bytes - old_len + data.len();
        self.ooo.insert(seq, data);
    }

    fn process_ack(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload_len: usize,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<ConnEvent>,
    ) {
        let ack = hdr.ack;
        if seq_gt(ack, self.snd_nxt) {
            return; // acks data we never sent
        }
        if seq_gt(ack, self.snd_una) {
            let acked = ack.wrapping_sub(self.snd_una) as u64;
            // Remove acked bytes from the transmit buffer (the FIN occupies a
            // sequence number but no buffer byte).
            let buf_acked = (acked as usize).min(self.tx_buf.len());
            self.tx_buf.drain(..buf_acked);
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto_backoff = 1;

            // RTT sample.
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if seq_ge(ack, probe_seq) {
                    let sample = now - sent_at;
                    self.update_rtt(sample);
                    self.rtt_probe = None;
                }
            }

            // Congestion control.
            let ece = hdr.flags.contains(TcpFlags::ECE);
            self.on_bytes_acked(acked, ece);

            if self.in_recovery && seq_ge(ack, self.recover) {
                self.in_recovery = false;
                self.cwnd = self.ssthresh.max((2 * self.cfg.mss) as u64);
            }

            // FIN-related state transitions once our FIN is acknowledged.
            if self.fin_sent && seq_gt(ack, self.fin_seq) {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing | TcpState::LastAck => {
                        self.state = TcpState::Closed;
                        events.push(ConnEvent::Closed);
                    }
                    _ => {}
                }
            }

            if self.snd_una == self.snd_nxt {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
            if self.send_space() > 0 {
                events.push(ConnEvent::SendSpace);
            }
        } else if payload_len == 0
            && ack == self.snd_una
            && self.snd_una != self.snd_nxt
            && !hdr.flags.contains(TcpFlags::SYN)
            && !hdr.flags.contains(TcpFlags::FIN)
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                self.enter_fast_recovery(out);
            } else if self.dup_acks > 3 && self.in_recovery {
                self.cwnd += self.cfg.mss as u64;
            }
        }
    }

    fn enter_fast_recovery(&mut self, out: &mut Vec<SegmentOut>) {
        let inflight = self.snd_nxt.wrapping_sub(self.snd_una) as u64;
        self.ssthresh = (inflight / 2).max((2 * self.cfg.mss) as u64);
        self.cwnd = self.ssthresh + (3 * self.cfg.mss) as u64;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.retransmit_one(out);
    }

    fn on_bytes_acked(&mut self, acked: u64, ece: bool) {
        match self.cfg.congestion {
            CongestionControl::Reno => {
                if ece {
                    // RFC 3168 style: halve once per window on ECE.
                    if seq_ge(self.snd_una, self.win_end) {
                        self.ssthresh = (self.cwnd / 2).max((2 * self.cfg.mss) as u64);
                        self.cwnd = self.ssthresh;
                        self.win_end = self.snd_nxt;
                    }
                } else if !self.in_recovery {
                    self.grow_cwnd(acked);
                }
            }
            CongestionControl::Dctcp => {
                self.win_bytes_acked += acked;
                if ece {
                    self.win_bytes_marked += acked;
                }
                if !self.in_recovery {
                    self.grow_cwnd(acked);
                }
                // Once per window of data: update α and apply the reduction.
                if seq_ge(self.snd_una, self.win_end) {
                    let frac = if self.win_bytes_acked > 0 {
                        self.win_bytes_marked as f64 / self.win_bytes_acked as f64
                    } else {
                        0.0
                    };
                    self.alpha = (1.0 - self.cfg.dctcp_g) * self.alpha + self.cfg.dctcp_g * frac;
                    if self.win_bytes_marked > 0 {
                        let reduced = (self.cwnd as f64 * (1.0 - self.alpha / 2.0)) as u64;
                        self.cwnd = reduced.max((2 * self.cfg.mss) as u64);
                        self.ssthresh = self.cwnd;
                    }
                    self.win_bytes_acked = 0;
                    self.win_bytes_marked = 0;
                    self.win_end = self.snd_nxt;
                }
            }
        }
    }

    fn grow_cwnd(&mut self, acked: u64) {
        let mss = self.cfg.mss as u64;
        if self.cwnd < self.ssthresh {
            self.cwnd += acked.min(mss);
        } else {
            self.cwnd += (mss * mss / self.cwnd).max(1);
        }
        // Cap at send-buffer scale: more would never be used.
        self.cwnd = self.cwnd.min(4 * self.cfg.tx_buf as u64);
    }

    fn update_rtt(&mut self, sample: SimTime) {
        let s = sample.as_ps();
        if self.srtt_ps == 0 {
            self.srtt_ps = s;
            self.rttvar_ps = s / 2;
        } else {
            // srtt = 7/8 srtt + 1/8 s; rttvar = 3/4 rttvar + 1/4 |srtt - s|.
            let delta = self.srtt_ps.abs_diff(s);
            self.rttvar_ps = (3 * self.rttvar_ps + delta) / 4;
            self.srtt_ps = (7 * self.srtt_ps + s) / 8;
        }
        let rto = SimTime::from_ps(self.srtt_ps + 4 * self.rttvar_ps);
        self.rto = rto.max(self.cfg.rto_min);
    }

    // ------------------------------------------------------------------
    // Output generation
    // ------------------------------------------------------------------

    /// Generate as many segments as the congestion and receive windows allow.
    pub fn poll_output(&mut self, now: SimTime, out: &mut Vec<SegmentOut>) {
        if matches!(self.state, TcpState::SynSent | TcpState::Closed) {
            return;
        }
        // With TSO the connection hands super-segments (up to tso_size bytes)
        // to the NIC, which cuts them into wire-MSS segments in hardware.
        let max_emit = self.cfg.tso_size.max(self.cfg.mss);
        loop {
            let inflight = self.snd_nxt.wrapping_sub(self.snd_una) as u64;
            let wnd = self.cwnd.min(self.snd_wnd as u64);
            let budget = wnd.saturating_sub(inflight) as usize;
            let sent_off = inflight as usize;
            let unsent = self
                .tx_buf
                .len()
                .saturating_sub(sent_off.min(self.tx_buf.len()));
            let len = budget.min(max_emit).min(unsent);
            if len == 0 {
                break;
            }
            // Sender-side silly-window-syndrome avoidance (Nagle): while data
            // is outstanding, do not emit a sub-MSS segment unless it is the
            // final chunk of buffered data. Without this, competing flows
            // whose windows shrink below one MSS degenerate into storms of
            // tiny segments.
            if len < self.cfg.mss && inflight > 0 && len < unsent {
                break;
            }
            let data: Vec<u8> = self
                .tx_buf
                .iter()
                .skip(sent_off)
                .take(len)
                .copied()
                .collect();
            let seq = self.snd_nxt;
            let last = len == unsent;
            let mut flags = TcpFlags::ACK;
            if last {
                flags |= TcpFlags::PSH;
            }
            let mut seg = self.make_segment(flags, seq, data, false);
            seg.hdr.ack = self.rcv_nxt;
            out.push(seg);
            self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
            self.bytes_sent += len as u64;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
            // Piggybacked ACK covers anything pending.
            self.ack_pending = 0;
            self.delack_deadline = None;
        }

        // FIN when requested and all data is out.
        if self.fin_queued && !self.fin_sent {
            let all_sent = self.snd_nxt.wrapping_sub(self.snd_una) as usize >= self.tx_buf.len();
            if all_sent {
                let mut seg = self.make_segment(
                    TcpFlags::FIN | TcpFlags::ACK,
                    self.snd_nxt,
                    Vec::new(),
                    false,
                );
                seg.hdr.ack = self.rcv_nxt;
                out.push(seg);
                self.fin_seq = self.snd_nxt;
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.fin_sent = true;
                self.arm_rto(now);
                self.state = match self.state {
                    TcpState::Established | TcpState::SynReceived => TcpState::FinWait1,
                    TcpState::CloseWait => TcpState::LastAck,
                    s => s,
                };
            }
        }
    }

    fn schedule_ack(&mut self, now: SimTime, out: &mut Vec<SegmentOut>) {
        // DCTCP requires timely feedback; any CE mark forces an immediate ACK.
        let force = self.ack_pending >= 2 || self.ce_to_echo || !self.ooo.is_empty();
        if force {
            out.push(self.make_ack());
        } else if self.ack_pending > 0 && self.delack_deadline.is_none() {
            self.delack_deadline = Some(now + self.cfg.delayed_ack);
        }
    }

    /// A pure window-update ACK, emitted by the stack after the application
    /// drains the receive buffer so a window-limited sender can resume.
    pub fn window_update(&mut self) -> SegmentOut {
        self.make_ack()
    }

    fn make_ack(&mut self) -> SegmentOut {
        self.ack_pending = 0;
        self.delack_deadline = None;
        let mut flags = TcpFlags::ACK;
        if self.ce_to_echo {
            flags |= TcpFlags::ECE;
            self.ce_to_echo = false;
        }
        let mut seg = self.make_segment(flags, self.snd_nxt, Vec::new(), false);
        seg.hdr.ack = self.rcv_nxt;
        seg.ecn = Ecn::NotEct;
        seg
    }

    fn make_segment(
        &mut self,
        flags: TcpFlags,
        seq: u32,
        payload: Vec<u8>,
        with_mss: bool,
    ) -> SegmentOut {
        self.segs_sent += 1;
        let free = self.cfg.rx_buf.saturating_sub(self.rx_buf.len());
        // SYN segments advertise an unscaled window; everything after the
        // handshake advertises `free >> rcv_wscale` (RFC 7323).
        let window = if with_mss {
            free.min(65535) as u16
        } else {
            (free >> self.rcv_wscale).min(65535) as u16
        };
        let ecn = if self.cfg.congestion == CongestionControl::Dctcp && !payload.is_empty() {
            Ecn::Ect0
        } else {
            Ecn::NotEct
        };
        SegmentOut {
            hdr: TcpHeader {
                src_port: self.local.port,
                dst_port: self.remote.port,
                seq,
                ack: self.rcv_nxt,
                flags,
                window,
                mss: if with_mss {
                    Some(self.cfg.mss as u16)
                } else {
                    None
                },
                wscale: if with_mss && self.cfg.window_scale > 0 {
                    Some(self.cfg.window_scale.min(14))
                } else {
                    None
                },
            },
            payload,
            ecn,
        }
    }

    fn retransmit_one(&mut self, out: &mut Vec<SegmentOut>) {
        let inflight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        if inflight == 0 {
            if self.fin_sent && self.state != TcpState::Closed {
                let mut seg = self.make_segment(
                    TcpFlags::FIN | TcpFlags::ACK,
                    self.fin_seq,
                    Vec::new(),
                    false,
                );
                seg.hdr.ack = self.rcv_nxt;
                out.push(seg);
                self.retransmits += 1;
            }
            return;
        }
        let len = inflight.min(self.cfg.mss).min(self.tx_buf.len());
        if len == 0 {
            return;
        }
        let data: Vec<u8> = self.tx_buf.iter().take(len).copied().collect();
        let mut seg = self.make_segment(TcpFlags::ACK, self.snd_una, data, false);
        seg.hdr.ack = self.rcv_nxt;
        out.push(seg);
        self.retransmits += 1;
        // An RTT sample taken over a retransmission would be ambiguous.
        self.rtt_probe = None;
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, now: SimTime) {
        let backoff = self.rto.mul(self.rto_backoff as u64);
        self.rto_deadline = Some(now + backoff);
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore
    // ------------------------------------------------------------------

    /// Serialize the complete connection state — negotiated configuration,
    /// sequence space (`snd_una`/`snd_nxt`/`rcv_nxt`), send and receive
    /// buffers, out-of-order reassembly runs, negotiated window scale,
    /// congestion control (Reno + DCTCP α window), RTT estimator, timers,
    /// and counters — so a restored run continues bit-identically.
    pub fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        // Negotiated/clamped configuration (MSS shrinks at SYN time).
        w.usize(self.cfg.mss);
        w.u8(match self.cfg.congestion {
            CongestionControl::Reno => 0,
            CongestionControl::Dctcp => 1,
        });
        w.usize(self.cfg.tx_buf);
        w.usize(self.cfg.rx_buf);
        w.time(self.cfg.rto_min);
        w.time(self.cfg.rto_initial);
        w.time(self.cfg.delayed_ack);
        w.f64(self.cfg.dctcp_g);
        w.u8(self.cfg.window_scale);
        w.usize(self.cfg.tso_size);

        w.u8(tcp_state_to_u8(self.state));
        w.u32(self.local.ip.to_u32());
        w.u16(self.local.port);
        w.u32(self.remote.ip.to_u32());
        w.u16(self.remote.port);

        w.u32(self.snd_una);
        w.u32(self.snd_nxt);
        w.u32(self.snd_wnd);
        let tx: Vec<u8> = self.tx_buf.iter().copied().collect();
        w.bytes(&tx);
        w.bool(self.fin_queued);
        w.bool(self.fin_sent);
        w.u32(self.fin_seq);

        w.u32(self.rcv_nxt);
        let rx: Vec<u8> = self.rx_buf.iter().copied().collect();
        w.bytes(&rx);
        w.usize(self.ooo.len());
        for (seq, data) in &self.ooo {
            w.u32(*seq);
            w.bytes(data);
        }
        match self.peer_fin {
            Some(s) => {
                w.bool(true);
                w.u32(s);
            }
            None => w.bool(false),
        }
        w.u8(self.snd_wscale);
        w.u8(self.rcv_wscale);

        w.u64(self.cwnd);
        w.u64(self.ssthresh);
        w.u32(self.dup_acks);
        w.bool(self.in_recovery);
        w.u32(self.recover);

        w.f64(self.alpha);
        w.u64(self.win_bytes_acked);
        w.u64(self.win_bytes_marked);
        w.u32(self.win_end);
        w.bool(self.ce_to_echo);

        w.u64(self.srtt_ps);
        w.u64(self.rttvar_ps);
        w.time(self.rto);
        w.u32(self.rto_backoff);
        w.opt_time(self.rto_deadline);
        match self.rtt_probe {
            Some((seq, at)) => {
                w.bool(true);
                w.u32(seq);
                w.time(at);
            }
            None => w.bool(false),
        }
        w.u32(self.ack_pending);
        w.opt_time(self.delack_deadline);

        w.u64(self.retransmits);
        w.u64(self.segs_sent);
        w.u64(self.segs_received);
        w.u64(self.bytes_sent);
        w.u64(self.bytes_received);
        w.u64(self.ce_marks_seen);
        Ok(())
    }

    /// Rebuild a connection from [`TcpConn::snapshot`] output.
    pub fn restore(r: &mut SnapReader) -> SnapResult<TcpConn> {
        let cfg = TcpConfig {
            mss: r.usize()?,
            congestion: match r.u8()? {
                0 => CongestionControl::Reno,
                1 => CongestionControl::Dctcp,
                v => return Err(SnapError::Corrupt(format!("bad congestion tag {v}"))),
            },
            tx_buf: r.usize()?,
            rx_buf: r.usize()?,
            rto_min: r.time()?,
            rto_initial: r.time()?,
            delayed_ack: r.time()?,
            dctcp_g: r.f64()?,
            window_scale: r.u8()?,
            tso_size: r.usize()?,
        };
        let state = tcp_state_from_u8(r.u8()?)?;
        let local = SocketAddr::new(simbricks_proto::Ipv4Addr::from_u32(r.u32()?), r.u16()?);
        let remote = SocketAddr::new(simbricks_proto::Ipv4Addr::from_u32(r.u32()?), r.u16()?);
        let mut c = TcpConn::base(local, remote, cfg, state);
        c.snd_una = r.u32()?;
        c.snd_nxt = r.u32()?;
        c.snd_wnd = r.u32()?;
        c.tx_buf = VecDeque::from(r.bytes()?);
        c.fin_queued = r.bool()?;
        c.fin_sent = r.bool()?;
        c.fin_seq = r.u32()?;
        c.rcv_nxt = r.u32()?;
        c.rx_buf = VecDeque::from(r.bytes()?);
        let n = r.usize()?;
        if n > 1 << 20 {
            return Err(SnapError::Corrupt(format!("absurd ooo run count {n}")));
        }
        c.ooo = BTreeMap::new();
        c.ooo_bytes = 0;
        for _ in 0..n {
            let seq = r.u32()?;
            let data = r.bytes()?;
            c.ooo_bytes += data.len();
            c.ooo.insert(seq, data);
        }
        c.peer_fin = if r.bool()? { Some(r.u32()?) } else { None };
        c.snd_wscale = r.u8()?;
        c.rcv_wscale = r.u8()?;
        c.cwnd = r.u64()?;
        c.ssthresh = r.u64()?;
        c.dup_acks = r.u32()?;
        c.in_recovery = r.bool()?;
        c.recover = r.u32()?;
        c.alpha = r.f64()?;
        c.win_bytes_acked = r.u64()?;
        c.win_bytes_marked = r.u64()?;
        c.win_end = r.u32()?;
        c.ce_to_echo = r.bool()?;
        c.srtt_ps = r.u64()?;
        c.rttvar_ps = r.u64()?;
        c.rto = r.time()?;
        c.rto_backoff = r.u32()?;
        c.rto_deadline = r.opt_time()?;
        c.rtt_probe = if r.bool()? {
            Some((r.u32()?, r.time()?))
        } else {
            None
        };
        c.ack_pending = r.u32()?;
        c.delack_deadline = r.opt_time()?;
        c.retransmits = r.u64()?;
        c.segs_sent = r.u64()?;
        c.segs_received = r.u64()?;
        c.bytes_sent = r.u64()?;
        c.bytes_received = r.u64()?;
        c.ce_marks_seen = r.u64()?;
        Ok(c)
    }

    /// Earliest time at which [`TcpConn::on_timer`] must be called.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match (self.rto_deadline, self.delack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Fire any expired timers.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<ConnEvent>,
    ) {
        if let Some(d) = self.delack_deadline {
            if d <= now {
                out.push(self.make_ack());
            }
        }
        if let Some(d) = self.rto_deadline {
            if d <= now {
                match self.state {
                    TcpState::SynSent => {
                        // Retransmit SYN.
                        let syn = self.make_segment(TcpFlags::SYN, self.snd_una, Vec::new(), true);
                        out.push(syn);
                        self.retransmits += 1;
                        self.rto_backoff = (self.rto_backoff * 2).min(64);
                        if self.rto_backoff > 32 {
                            self.abort();
                            events.push(ConnEvent::ConnectFailed);
                            return;
                        }
                        self.arm_rto(now);
                    }
                    TcpState::Closed => {}
                    _ => {
                        // Retransmission timeout: collapse the window.
                        let inflight = self.snd_nxt.wrapping_sub(self.snd_una) as u64;
                        if inflight > 0 || (self.fin_sent && self.state != TcpState::Closed) {
                            self.ssthresh = (inflight / 2).max((2 * self.cfg.mss) as u64);
                            self.cwnd = self.cfg.mss as u64;
                            self.in_recovery = false;
                            self.dup_acks = 0;
                            self.retransmit_one(out);
                            self.rto_backoff = (self.rto_backoff * 2).min(64);
                            self.arm_rto(now);
                        } else {
                            self.rto_deadline = None;
                        }
                    }
                }
            }
        }
        self.poll_output(now, out);
    }
}

fn tcp_state_to_u8(s: TcpState) -> u8 {
    match s {
        TcpState::SynSent => 0,
        TcpState::SynReceived => 1,
        TcpState::Established => 2,
        TcpState::FinWait1 => 3,
        TcpState::FinWait2 => 4,
        TcpState::CloseWait => 5,
        TcpState::LastAck => 6,
        TcpState::Closing => 7,
        TcpState::Closed => 8,
    }
}

fn tcp_state_from_u8(v: u8) -> SnapResult<TcpState> {
    Ok(match v {
        0 => TcpState::SynSent,
        1 => TcpState::SynReceived,
        2 => TcpState::Established,
        3 => TcpState::FinWait1,
        4 => TcpState::FinWait2,
        5 => TcpState::CloseWait,
        6 => TcpState::LastAck,
        7 => TcpState::Closing,
        8 => TcpState::Closed,
        v => return Err(SnapError::Corrupt(format!("bad tcp state tag {v}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::impair::check_cases;
    use simbricks_proto::Ipv4Addr;

    const SEED: u64 = 0x7c9;

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    /// Drive two directly-connected connections (no loss, no delay).
    fn handshake(cfg: TcpConfig) -> (TcpConn, TcpConn) {
        let now = SimTime::ZERO;
        let (mut client, syn) = TcpConn::connect(now, addr(1, 1000), addr(2, 80), cfg);
        let (mut server, synack) = TcpConn::accept(now, addr(2, 80), addr(1, 1000), cfg, &syn.hdr);
        let mut out = Vec::new();
        let mut ev = Vec::new();
        client.on_segment(now, Ecn::NotEct, &synack.hdr, &[], &mut out, &mut ev);
        assert!(ev.contains(&ConnEvent::Connected));
        // deliver client's ACK (and anything else) to the server
        let mut ev2 = Vec::new();
        for seg in out.drain(..) {
            let mut o = Vec::new();
            server.on_segment(now, Ecn::NotEct, &seg.hdr, &seg.payload, &mut o, &mut ev2);
        }
        assert!(ev2.contains(&ConnEvent::Connected));
        assert_eq!(client.state, TcpState::Established);
        assert_eq!(server.state, TcpState::Established);
        (client, server)
    }

    /// Exchange queued output between `a` and `b` until quiescent.
    fn pump(now: SimTime, a: &mut TcpConn, b: &mut TcpConn) -> (Vec<ConnEvent>, Vec<ConnEvent>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        for _ in 0..200 {
            let mut out_a = Vec::new();
            a.poll_output(now, &mut out_a);
            let mut out_b = Vec::new();
            for seg in out_a {
                b.on_segment(now, seg.ecn, &seg.hdr, &seg.payload, &mut out_b, &mut ev_b);
            }
            let mut back = Vec::new();
            b.poll_output(now, &mut out_b);
            for seg in out_b {
                a.on_segment(now, seg.ecn, &seg.hdr, &seg.payload, &mut back, &mut ev_a);
            }
            let mut drained = Vec::new();
            for seg in back {
                b.on_segment(
                    now,
                    seg.ecn,
                    &seg.hdr,
                    &seg.payload,
                    &mut drained,
                    &mut ev_b,
                );
            }
            if drained.is_empty() {
                let mut probe = Vec::new();
                a.poll_output(now, &mut probe);
                if probe.is_empty() {
                    break;
                }
                for seg in probe {
                    b.on_segment(
                        now,
                        seg.ecn,
                        &seg.hdr,
                        &seg.payload,
                        &mut Vec::new(),
                        &mut ev_b,
                    );
                }
            }
        }
        (ev_a, ev_b)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        handshake(TcpConfig::default());
    }

    #[test]
    fn data_transfer_in_order() {
        let (mut c, mut s) = handshake(TcpConfig::default());
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        assert_eq!(c.send(&msg), msg.len());
        pump(SimTime::from_us(10), &mut c, &mut s);
        let got = s.recv(usize::MAX);
        assert_eq!(got, msg);
        assert_eq!(s.bytes_received, msg.len() as u64);
        // Flush the receiver's delayed ACK, then everything is acknowledged.
        if let Some(d) = s.next_deadline() {
            let mut acks = Vec::new();
            s.on_timer(d, &mut acks, &mut Vec::new());
            for a in acks {
                c.on_segment(
                    d,
                    Ecn::NotEct,
                    &a.hdr,
                    &[],
                    &mut Vec::new(),
                    &mut Vec::new(),
                );
            }
        }
        assert_eq!(c.snd_una, c.snd_nxt);
    }

    #[test]
    fn mss_limits_segment_size() {
        let cfg = TcpConfig {
            mss: 500,
            ..Default::default()
        };
        let (mut c, _s) = handshake(cfg);
        c.send(&vec![0u8; 5000]);
        let mut out = Vec::new();
        c.poll_output(SimTime::from_us(1), &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|s| s.payload.len() <= 500));
    }

    #[test]
    fn nagle_holds_back_sub_mss_segments_while_data_is_in_flight() {
        let cfg = TcpConfig {
            mss: 1000,
            ..Default::default()
        };
        let (mut c, _s) = handshake(cfg);
        // 2.5 MSS of data: two full segments go out; the 500-byte tail is the
        // final chunk of the buffer, so it may follow immediately (PSH).
        c.send(&vec![1u8; 2500]);
        let mut out = Vec::new();
        c.poll_output(SimTime::from_us(1), &mut out);
        assert_eq!(
            out.iter().map(|s| s.payload.len()).collect::<Vec<_>>(),
            vec![1000, 1000, 500]
        );

        // Now constrain the usable window to 1.3 MSS with more data buffered:
        // after the full segment, the 300-byte leftover must be held back
        // until the outstanding data is acknowledged.
        let (mut c, _s) = handshake(cfg);
        c.send(&vec![2u8; 5000]);
        c.snd_wnd = 1300;
        let mut out = Vec::new();
        c.poll_output(SimTime::from_us(2), &mut out);
        assert_eq!(out.len(), 1, "only the full-MSS segment is emitted");
        assert_eq!(out[0].payload.len(), 1000);
    }

    #[test]
    fn send_respects_buffer_limit() {
        let cfg = TcpConfig {
            tx_buf: 1000,
            ..Default::default()
        };
        let (mut c, _s) = handshake(cfg);
        assert_eq!(c.send(&vec![0u8; 5000]), 1000);
        assert_eq!(c.send(&[0u8; 10]), 0);
    }

    #[test]
    fn lost_segment_recovered_by_rto() {
        let (mut c, mut s) = handshake(TcpConfig::default());
        let msg = vec![7u8; 1200];
        c.send(&msg);
        // Generate the segment but "lose" it.
        let mut lost = Vec::new();
        c.poll_output(SimTime::from_us(1), &mut lost);
        assert_eq!(lost.len(), 1);
        // Fire the retransmission timeout.
        let deadline = c.next_deadline().expect("rto armed");
        let mut out = Vec::new();
        let mut ev = Vec::new();
        c.on_timer(deadline, &mut out, &mut ev);
        assert!(c.retransmits >= 1);
        assert!(!out.is_empty());
        // Deliver the retransmission.
        let mut ev_s = Vec::new();
        let mut acks = Vec::new();
        for seg in out {
            s.on_segment(
                deadline,
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut acks,
                &mut ev_s,
            );
        }
        assert_eq!(s.recv(usize::MAX), msg);
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (mut c, mut s) = handshake(TcpConfig {
            mss: 100,
            ..Default::default()
        });
        c.send(&(0..=255u8).cycle().take(300).collect::<Vec<_>>());
        let mut segs = Vec::new();
        c.poll_output(SimTime::from_us(1), &mut segs);
        assert!(segs.len() >= 3);
        // Deliver them in reverse order.
        let mut ev = Vec::new();
        let mut out = Vec::new();
        for seg in segs.iter().rev() {
            s.on_segment(
                SimTime::from_us(2),
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut out,
                &mut ev,
            );
        }
        let got = s.recv(usize::MAX);
        assert_eq!(got, (0..=255u8).cycle().take(300).collect::<Vec<_>>());
    }

    /// Hand-deliver a data segment to `s` (seq/ack in absolute sequence
    /// space), returning any segments it wants to transmit.
    fn deliver(s: &mut TcpConn, seq: u32, payload: &[u8]) -> Vec<SegmentOut> {
        let hdr = TcpHeader {
            src_port: s.remote.port,
            dst_port: s.local.port,
            seq,
            ack: s.snd_nxt,
            flags: TcpFlags::ACK,
            window: 65535,
            mss: None,
            wscale: None,
        };
        let mut out = Vec::new();
        s.on_segment(
            SimTime::from_us(50),
            Ecn::NotEct,
            &hdr,
            payload,
            &mut out,
            &mut Vec::new(),
        );
        out
    }

    /// Regression test (reassembly tail loss): when `rx_buf` fills while
    /// draining a now-contiguous out-of-order run, the un-ingested tail used
    /// to be discarded — data the stack already held — forcing the peer to
    /// retransmit all of it. The tail must be re-buffered at the new
    /// `rcv_nxt` instead.
    #[test]
    fn ooo_drain_tail_is_rebuffered_when_rx_buf_fills() {
        let cfg = TcpConfig {
            rx_buf: 800,
            mss: 500,
            ..Default::default()
        };
        let (_c, mut s) = handshake(cfg);
        let base = s.rcv_nxt;
        let first: Vec<u8> = (0..500u32).map(|i| (i % 13) as u8).collect();
        let second: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();

        // Bytes [500, 1000) arrive out of order and are buffered.
        deliver(&mut s, base.wrapping_add(500), &second);
        assert_eq!(s.ooo_bytes, 500);

        // Bytes [0, 500) arrive: rx_buf takes them plus 300 drained bytes,
        // filling up mid-drain. The 200-byte tail must survive in `ooo`.
        deliver(&mut s, base, &first);
        assert_eq!(s.rx_buf.len(), 800, "rx_buf filled exactly");
        assert_eq!(s.rcv_nxt.wrapping_sub(base), 800);
        assert_eq!(s.ooo_bytes, 200, "un-ingested drain tail kept, not dropped");
        assert_eq!(
            s.ooo.get(&base.wrapping_add(800)).map(|d| d.as_slice()),
            Some(&second[300..]),
            "tail re-keyed at the new rcv_nxt with the right bytes"
        );

        // The app reads; the peer fast-retransmits only the first unacked
        // segment [800, 1000). Together with the kept tail this completes
        // the stream without retransmitting everything.
        let mut got = s.recv(usize::MAX);
        deliver(&mut s, base.wrapping_add(800), &second[300..]);
        got.extend(s.recv(usize::MAX));
        assert_eq!(s.rcv_nxt.wrapping_sub(base), 1000, "stream fully acked");
        assert_eq!(got.len(), 1000);
        assert_eq!(&got[..500], &first[..]);
        assert_eq!(&got[500..], &second[..]);
        assert_eq!(s.ooo_bytes, 0);
    }

    /// Regression test (duplicate-seq OOO): a retransmitted out-of-order
    /// segment that *extends* an already-buffered run at the same sequence
    /// number used to be dropped entirely; the longer payload must win.
    #[test]
    fn duplicate_seq_ooo_segment_with_longer_payload_is_kept() {
        let (_c, mut s) = handshake(TcpConfig::default());
        let base = s.rcv_nxt;
        let data: Vec<u8> = (0..400u32).map(|i| (i % 83) as u8).collect();

        deliver(&mut s, base.wrapping_add(500), &data[..100]);
        assert_eq!(s.ooo_bytes, 100);
        // Same seq, longer payload (e.g. a TSO-rebatched retransmit): the
        // longer run replaces the shorter one.
        deliver(&mut s, base.wrapping_add(500), &data);
        assert_eq!(s.ooo_bytes, 400, "longer duplicate replaces shorter run");
        // A shorter duplicate never shrinks the buffered run.
        deliver(&mut s, base.wrapping_add(500), &data[..50]);
        assert_eq!(s.ooo_bytes, 400);

        // Filling the hole drains the full 400-byte run.
        let first = vec![7u8; 500];
        deliver(&mut s, base, &first);
        assert_eq!(s.rcv_nxt.wrapping_sub(base), 900);
        let got = s.recv(usize::MAX);
        assert_eq!(&got[..500], &first[..]);
        assert_eq!(&got[500..], &data[..]);
    }

    /// Regression test (64 KiB window cap): without window scaling the
    /// 16-bit window field capped inflight data at 64 KiB regardless of the
    /// receiver's actual buffer, window-limiting high-BDP transfers. With
    /// the RFC 7323 scale option (negotiated at SYN, same default shift on
    /// both ends) the sender must be able to keep > 64 KiB in flight.
    #[test]
    fn window_scaling_lifts_the_64k_inflight_cap() {
        let cfg = TcpConfig {
            rx_buf: 1 << 20,
            tx_buf: 1 << 20,
            mss: 1000,
            ..Default::default()
        };
        let (mut c, mut s) = handshake(cfg);
        assert_eq!(c.snd_wscale, cfg.window_scale, "scale negotiated at SYN");
        assert_eq!(s.snd_wscale, cfg.window_scale);
        let total = 600_000usize;
        assert_eq!(c.send(&vec![5u8; total]), total);
        let now = SimTime::from_us(10);
        let mut max_inflight = 0u32;
        let mut received = 0usize;
        // Lossless exchange loop: segments the client emits while processing
        // ACKs are queued for the next delivery round, so nothing is lost.
        let mut to_s: Vec<SegmentOut> = Vec::new();
        for _ in 0..400 {
            let mut out = Vec::new();
            c.poll_output(now, &mut out);
            to_s.extend(out);
            max_inflight = max_inflight.max(c.snd_nxt.wrapping_sub(c.snd_una));
            let mut to_c = Vec::new();
            for seg in to_s.drain(..) {
                s.on_segment(
                    now,
                    seg.ecn,
                    &seg.hdr,
                    &seg.payload,
                    &mut to_c,
                    &mut Vec::new(),
                );
            }
            received += s.recv(usize::MAX).len();
            to_c.push(s.window_update());
            for a in to_c {
                c.on_segment(now, Ecn::NotEct, &a.hdr, &[], &mut to_s, &mut Vec::new());
            }
            max_inflight = max_inflight.max(c.snd_nxt.wrapping_sub(c.snd_una));
            if received == total {
                break;
            }
        }
        assert_eq!(received, total, "whole stream delivered");
        assert!(
            c.snd_wnd > 65535,
            "scaled peer window exceeds the 16-bit cap ({})",
            c.snd_wnd
        );
        assert!(
            max_inflight > 65535,
            "window scaling lifts the 64 KiB inflight cap (max {max_inflight})"
        );
    }

    /// Disabling the scale option (either end) falls back to unscaled
    /// windows, capped at 64 KiB.
    #[test]
    fn window_scaling_disabled_falls_back_to_unscaled() {
        let cfg = TcpConfig {
            rx_buf: 1 << 20,
            window_scale: 0,
            ..Default::default()
        };
        let (mut c, mut s) = handshake(cfg);
        assert_eq!((c.snd_wscale, c.rcv_wscale), (0, 0));
        assert_eq!((s.snd_wscale, s.rcv_wscale), (0, 0));
        c.send(&vec![1u8; 200_000]);
        pump(SimTime::from_us(10), &mut c, &mut s);
        assert!(c.snd_wnd <= 65535, "unscaled window stays 16-bit");
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let (mut c, mut s) = handshake(TcpConfig {
            mss: 100,
            ..Default::default()
        });
        c.send(&vec![1u8; 1000]);
        let mut segs = Vec::new();
        c.poll_output(SimTime::from_us(1), &mut segs);
        assert!(segs.len() >= 5);
        // Drop the first segment, deliver the rest: server emits dup ACKs.
        let mut dup_acks = Vec::new();
        for seg in &segs[1..] {
            s.on_segment(
                SimTime::from_us(2),
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut dup_acks,
                &mut Vec::new(),
            );
        }
        assert!(dup_acks.len() >= 3);
        let mut rtx = Vec::new();
        for ack in dup_acks {
            c.on_segment(
                SimTime::from_us(3),
                Ecn::NotEct,
                &ack.hdr,
                &[],
                &mut rtx,
                &mut Vec::new(),
            );
        }
        assert!(c.retransmits >= 1, "fast retransmit triggered");
        assert!(c.in_recovery, "sender is in fast recovery");
        // The retransmitted first segment plus the rest complete the stream.
        for seg in rtx {
            s.on_segment(
                SimTime::from_us(4),
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        assert_eq!(s.recv(usize::MAX).len(), 1000);
    }

    #[test]
    fn receive_window_limits_sender() {
        let cfg = TcpConfig {
            rx_buf: 2000,
            mss: 1000,
            ..Default::default()
        };
        let (mut c, mut s) = handshake(cfg);
        c.send(&vec![9u8; 50_000]);
        pump(SimTime::from_us(10), &mut c, &mut s);
        // Server never reads: sender must stop at the advertised window.
        assert!(s.rx_buf.len() <= 2000);
        let inflight = c.snd_nxt.wrapping_sub(c.snd_una);
        assert!(
            inflight <= 2000,
            "inflight {} exceeds receive window",
            inflight
        );
        // Reading frees window; a window update lets the sender resume.
        let first = s.recv(usize::MAX).len();
        assert!(first > 0);
        let wu = s.window_update();
        let mut resumed = Vec::new();
        c.on_segment(
            SimTime::from_us(20),
            Ecn::NotEct,
            &wu.hdr,
            &[],
            &mut resumed,
            &mut Vec::new(),
        );
        assert!(!resumed.is_empty(), "sender resumes once the window opens");
        for seg in resumed {
            s.on_segment(
                SimTime::from_us(20),
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        pump(SimTime::from_us(21), &mut c, &mut s);
        assert!(
            !s.rx_buf.is_empty()
                || s.recv(usize::MAX).len() + first == 50_000
                || c.tx_buf.len() < 50_000
        );
        assert!(
            s.bytes_received as usize > first,
            "transfer continued after the window opened"
        );
    }

    #[test]
    fn graceful_close_both_directions() {
        let (mut c, mut s) = handshake(TcpConfig::default());
        c.send(b"bye");
        c.close();
        let (_ev_c, ev_s) = pump(SimTime::from_us(5), &mut c, &mut s);
        assert_eq!(s.recv(usize::MAX), b"bye");
        assert!(ev_s.contains(&ConnEvent::PeerClosed));
        assert!(matches!(s.state, TcpState::CloseWait));
        assert!(matches!(c.state, TcpState::FinWait1 | TcpState::FinWait2));
        // Server closes too.
        s.close();
        let (ev_c2, _) = pump(SimTime::from_us(6), &mut s, &mut c);
        let _ = ev_c2;
        assert!(matches!(s.state, TcpState::LastAck | TcpState::Closed));
    }

    #[test]
    fn dctcp_alpha_tracks_marking_fraction() {
        let cfg = TcpConfig {
            congestion: CongestionControl::Dctcp,
            mss: 1000,
            ..Default::default()
        };
        let (mut c, mut s) = handshake(cfg);
        // Repeatedly send data where every data segment is CE-marked in
        // flight (a persistently congested queue), exchanging until quiescent.
        let mut saw_ece = false;
        for round in 0..50u64 {
            c.send(&vec![3u8; 4000]);
            let now = SimTime::from_us(10 * (round + 1));
            let mut to_s = Vec::new();
            c.poll_output(now, &mut to_s);
            for _ in 0..50 {
                if to_s.is_empty() {
                    break;
                }
                let mut acks = Vec::new();
                for seg in to_s.drain(..) {
                    let ecn = if seg.payload.is_empty() {
                        Ecn::NotEct
                    } else {
                        assert_eq!(seg.ecn, Ecn::Ect0, "DCTCP data is ECT(0)");
                        Ecn::Ce // switch marks every data packet
                    };
                    s.on_segment(now, ecn, &seg.hdr, &seg.payload, &mut acks, &mut Vec::new());
                }
                saw_ece |= acks.iter().any(|a| a.hdr.flags.contains(TcpFlags::ECE));
                for a in acks {
                    c.on_segment(now, Ecn::NotEct, &a.hdr, &[], &mut to_s, &mut Vec::new());
                }
            }
            s.recv(usize::MAX);
        }
        assert!(saw_ece, "receiver echoes CE marks");
        assert!(
            c.dctcp_alpha() > 0.5,
            "alpha converges towards 1 under full marking, got {}",
            c.dctcp_alpha()
        );
        assert!(
            c.cwnd() <= 20_000,
            "cwnd stays small under persistent marking"
        );
    }

    /// Mid-transfer snapshot: a connection with in-flight data, buffered
    /// out-of-order runs, and armed timers restores to a state that
    /// completes the stream exactly like the original.
    #[test]
    fn snapshot_mid_transfer_restores_and_completes() {
        let cfg = TcpConfig {
            mss: 500,
            ..Default::default()
        };
        let (mut c, mut s) = handshake(cfg);
        let msg: Vec<u8> = (0..4000u32).map(|i| (i % 211) as u8).collect();
        c.send(&msg);
        let mut segs = Vec::new();
        c.poll_output(SimTime::from_us(1), &mut segs);
        // Deliver only segments 2.. so the server buffers OOO state, then
        // snapshot both sides mid-recovery.
        for seg in &segs[2..] {
            s.on_segment(
                SimTime::from_us(2),
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        assert!(s.ooo_bytes > 0, "server holds out-of-order runs");
        let snap = |conn: &TcpConn| {
            let mut w = SnapWriter::new();
            conn.snapshot(&mut w).unwrap();
            w.into_vec()
        };
        let (bc, bs) = (snap(&c), snap(&s));
        let mut c2 = TcpConn::restore(&mut SnapReader::new(&bc)).unwrap();
        let mut s2 = TcpConn::restore(&mut SnapReader::new(&bs)).unwrap();
        assert_eq!(c2.snd_nxt, c.snd_nxt);
        assert_eq!(c2.tx_buf, c.tx_buf);
        assert_eq!(s2.ooo, s.ooo);
        assert_eq!(s2.ooo_bytes, s.ooo_bytes);
        assert_eq!(s2.next_deadline(), s.next_deadline());
        // Replay the missing head segments into the restored server and pump
        // to completion: the byte stream must come out exactly.
        for seg in &segs[..2] {
            s2.on_segment(
                SimTime::from_us(3),
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        pump(SimTime::from_us(5), &mut c2, &mut s2);
        let got = s2.recv(usize::MAX);
        assert_eq!(got, msg);
    }

    #[test]
    fn snapshot_restore_rejects_corrupt_input() {
        let (c, _s) = handshake(TcpConfig::default());
        let mut w = SnapWriter::new();
        c.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        assert!(TcpConn::restore(&mut SnapReader::new(&buf[..10])).is_err());
        let mut bad = buf.clone();
        // Corrupt the congestion-control tag (offset 8: right after mss).
        bad[8] = 0xfe;
        assert!(TcpConn::restore(&mut SnapReader::new(&bad)).is_err());
    }

    #[test]
    fn rst_aborts_connection() {
        let (mut c, _s) = handshake(TcpConfig::default());
        let rst = TcpHeader {
            src_port: 80,
            dst_port: 1000,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            wscale: None,
        };
        let mut ev = Vec::new();
        c.on_segment(
            SimTime::from_us(1),
            Ecn::NotEct,
            &rst,
            &[],
            &mut Vec::new(),
            &mut ev,
        );
        assert!(c.is_closed());
        assert!(ev.contains(&ConnEvent::Closed));
    }

    /// The wrapping comparisons agree with arithmetic on unbounded
    /// integers whenever the two sequence numbers are within half the
    /// space of each other (the TCP validity window), including across the
    /// u32 wrap.
    #[test]
    fn seq_compare_matches_unbounded_arithmetic() {
        check_cases(
            "seq_compare_matches_unbounded_arithmetic",
            SEED,
            1024,
            |rng| {
                let base = rng.next_u64() as u32;
                let delta = rng.below(0x7fff_ffff) as u32;
                let b = base.wrapping_add(delta);
                assert!(seq_le(base, b));
                assert!(seq_ge(b, base));
                assert_eq!(seq_gt(b, base), delta != 0);
                assert_eq!(seq_le(b, base), delta == 0);
            },
        );
    }

    /// Reassembly is agnostic to where the stream sits in sequence space:
    /// segments delivered in arbitrary order with an initial receive
    /// sequence near u32::MAX reproduce the byte stream exactly, with no
    /// loss or duplication across the wrap.
    #[test]
    fn ingest_reassembles_across_the_u32_wrap() {
        check_cases("ingest_reassembles_across_the_u32_wrap", SEED, 256, |rng| {
            let irs_back = rng.below(8000) as u32;
            let order: Vec<usize> = (0..8).map(|_| rng.below(8) as usize).collect();
            let (_c, mut s) = handshake(TcpConfig {
                mss: 1000,
                ..Default::default()
            });
            // Rebase the receive side so the stream spans the wrap.
            let irs = u32::MAX.wrapping_sub(irs_back);
            s.rcv_nxt = irs;
            let stream: Vec<u8> = (0..8000u32).map(|i| (i % 199) as u8).collect();
            let seg = |idx: usize| {
                (
                    irs.wrapping_add((idx * 1000) as u32),
                    &stream[idx * 1000..(idx + 1) * 1000],
                )
            };
            // Deliver the 8 1000-byte segments in the sampled order
            // (duplicates in `order` exercise redundant delivery too), then
            // in order to fill any holes.
            for idx in order.into_iter().chain(0..8) {
                let (seq, data) = seg(idx);
                deliver(&mut s, seq, data);
            }
            assert_eq!(s.rcv_nxt, irs.wrapping_add(8000));
            assert_eq!(s.recv(usize::MAX), stream);
            assert_eq!(s.ooo_bytes, 0);
        });
    }

    /// Snapshot round trip (`decode(encode(s)) == s`): a connection driven
    /// into an arbitrary mid-transfer state — random payload, random subset
    /// of segments delivered out of order — restores with identical
    /// sequence space, buffers, reassembly runs, and timer deadlines.
    #[test]
    fn tcp_conn_snapshot_roundtrip() {
        check_cases("tcp_conn_snapshot_roundtrip", SEED, 256, |rng| {
            let payload_len = rng.below(5000) as usize;
            let deliver_mask = rng.next_u64() as u16;
            let cfg = TcpConfig {
                mss: 400,
                ..Default::default()
            };
            let (mut c, mut s) = handshake(cfg);
            let msg: Vec<u8> = (0..payload_len).map(|i| (i % 239) as u8).collect();
            c.send(&msg);
            let mut segs = Vec::new();
            c.poll_output(SimTime::from_us(1), &mut segs);
            for (i, seg) in segs.iter().enumerate().rev() {
                if deliver_mask & (1 << (i % 16)) != 0 {
                    s.on_segment(
                        SimTime::from_us(2),
                        seg.ecn,
                        &seg.hdr,
                        &seg.payload,
                        &mut Vec::new(),
                        &mut Vec::new(),
                    );
                }
            }
            for conn in [&c, &s] {
                let mut w = SnapWriter::new();
                conn.snapshot(&mut w).unwrap();
                let buf = w.into_vec();
                let mut r = SnapReader::new(&buf);
                let back = TcpConn::restore(&mut r).unwrap();
                assert!(r.is_empty(), "every byte consumed");
                assert_eq!(back.state, conn.state);
                assert_eq!(back.snd_una, conn.snd_una);
                assert_eq!(back.snd_nxt, conn.snd_nxt);
                assert_eq!(back.rcv_nxt, conn.rcv_nxt);
                assert_eq!(&back.tx_buf, &conn.tx_buf);
                assert_eq!(&back.rx_buf, &conn.rx_buf);
                assert_eq!(&back.ooo, &conn.ooo);
                assert_eq!(back.ooo_bytes, conn.ooo_bytes);
                assert_eq!(back.cwnd, conn.cwnd);
                assert_eq!(back.next_deadline(), conn.next_deadline());
                assert_eq!(back.segs_sent, conn.segs_sent);
                assert_eq!(back.bytes_received, conn.bytes_received);
            }
        });
    }

    #[test]
    fn rtt_estimation_sets_reasonable_rto() {
        let (mut c, mut s) = handshake(TcpConfig::default());
        c.send(&vec![0u8; 3000]); // at least two segments => immediate ACK
        let t_send = SimTime::from_us(100);
        let mut segs = Vec::new();
        c.poll_output(t_send, &mut segs);
        let mut acks = Vec::new();
        for seg in segs {
            s.on_segment(
                t_send,
                seg.ecn,
                &seg.hdr,
                &seg.payload,
                &mut acks,
                &mut Vec::new(),
            );
        }
        let t_ack = t_send + SimTime::from_us(50); // 50 us RTT
        for a in acks {
            c.on_segment(
                t_ack,
                Ecn::NotEct,
                &a.hdr,
                &[],
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        assert!(c.srtt_ps > 0);
        assert!(c.rto >= c.cfg.rto_min);
    }

    /// Determinism regression: the RTT estimator is exact integer
    /// arithmetic (RFC 6298 in picoseconds). Pinning the values catches any
    /// reintroduction of float smoothing, whose rounding is
    /// platform/optimization sensitive and leaks into the RTO — virtual
    /// time that every executor must agree on bit-for-bit.
    #[test]
    fn rtt_estimator_is_exact_integer_arithmetic() {
        let (mut c, _s) = handshake(TcpConfig::default());
        assert_eq!(c.srtt_ps, 0, "handshake must not seed the estimator");
        c.update_rtt(SimTime::from_ms(1));
        assert_eq!(c.srtt_ps, SimTime::from_ms(1).as_ps());
        assert_eq!(c.rttvar_ps, SimTime::from_us(500).as_ps());
        c.update_rtt(SimTime::from_ms(2));
        // srtt = (7*1ms + 2ms)/8 = 1.125ms; rttvar = (3*0.5ms + 1ms)/4.
        assert_eq!(c.srtt_ps, 1_125_000_000);
        assert_eq!(c.rttvar_ps, 625_000_000);
        assert_eq!(c.rto, SimTime::from_ps(1_125_000_000 + 4 * 625_000_000));
    }
}
