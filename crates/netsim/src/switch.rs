//! Behavioural Ethernet switch (§6.4 of the paper).
//!
//! The switch polls packets from each SimBricks port, performs MAC learning,
//! switches each packet to the corresponding egress port (or floods unknown /
//! broadcast destinations), models per-port output queues with link bandwidth
//! and bounded capacity, and optionally marks ECN Congestion Experienced when
//! an output queue exceeds the marking threshold K — the knob swept by the
//! dctcp experiment of Fig. 1.

use std::collections::{BTreeMap, VecDeque};

use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use simbricks_base::{
    mix_seed, Kernel, Model, OwnedMsg, PktBuf, PortId, Rng, SimTime, SyncLookahead,
};
use simbricks_eth::{send_packet_buf, serialization_delay, EthPacket};
use simbricks_proto::{frame_dst, frame_src, Ecn, Ipv4Header, MacAddr, ETH_HEADER_LEN};

/// Active queue management discipline of one egress port.
///
/// All disciplines are implemented with integer arithmetic and (where
/// probabilistic) a per-port seeded PRNG, so a given packet arrival sequence
/// always produces the same mark/drop sequence — on every executor and across
/// checkpoint/restore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aqm {
    /// FIFO tail drop at `queue_capacity` only (the default).
    DropTail,
    /// DCTCP-style step marking: CE-mark every ECN-capable packet that
    /// arrives while the instantaneous queue holds at least `k_pkts` packets
    /// (the knob swept by the Fig. 1 experiment).
    DctcpThreshold {
        /// Marking threshold K in packets.
        k_pkts: usize,
    },
    /// Random Early Detection on the instantaneous queue length: below
    /// `min_pkts` do nothing; between `min_pkts` and `max_pkts` mark (ECT) or
    /// drop (non-ECT) with probability rising linearly to
    /// `max_prob_permille`; at or above `max_pkts` always mark/drop.
    Red {
        /// Queue length (packets) where random marking starts.
        min_pkts: usize,
        /// Queue length (packets) where the probability reaches its maximum.
        max_pkts: usize,
        /// Probability in permille at `max_pkts` (0..=1000).
        max_prob_permille: u16,
    },
    /// CoDel: drop (or CE-mark, for ECN-capable traffic) at dequeue when the
    /// head packet's sojourn time has stayed above `target` for at least
    /// `interval`, then again at `interval / sqrt(n)` while the condition
    /// persists (the standard control law).
    CoDel {
        /// Acceptable standing sojourn time.
        target: SimTime,
        /// Sliding window over which sojourn must exceed `target`.
        interval: SimTime,
    },
    /// DualPI2 (L4S): one PI controller produces a base probability `p'`;
    /// scalable (ECT(1)) traffic is CE-marked with probability `2·p'`,
    /// classic traffic is squared-coupled (marked if ECT(0), dropped if
    /// Not-ECT) with probability `p'²`.
    DualPi2 {
        /// Queueing-delay setpoint of the PI controller.
        target: SimTime,
        /// Controller update period.
        tupdate: SimTime,
    },
}

/// Per-port AQM controller state (PRNG + CoDel/PI variables). All fields are
/// snapshotted: restore resumes the mark/drop sequence bit-identically.
#[derive(Clone, Copy, Debug)]
struct AqmState {
    /// Decision stream of the probabilistic disciplines.
    rng: Rng,
    /// CoDel: when sojourn first exceeded target (ZERO = not above).
    first_above: SimTime,
    /// CoDel: next scheduled drop while in dropping state.
    drop_next: SimTime,
    /// CoDel: drops in the current dropping episode (control-law divisor).
    drop_count: u64,
    /// CoDel: currently in the dropping state.
    dropping: bool,
    /// DualPI2: base probability p' in parts per million.
    pi_prob_ppm: u64,
    /// DualPI2: virtual time of the last controller update.
    pi_last_update: SimTime,
    /// DualPI2: queue delay at the last update (derivative term).
    pi_prev_qdelay: SimTime,
}

impl AqmState {
    fn new(seed: u64, port: usize) -> Self {
        AqmState {
            rng: Rng::new(mix_seed(seed, port as u64)),
            first_above: SimTime::ZERO,
            drop_next: SimTime::ZERO,
            drop_count: 0,
            dropping: false,
            pi_prob_ppm: 0,
            pi_last_update: SimTime::ZERO,
            pi_prev_qdelay: SimTime::ZERO,
        }
    }

    /// Uniform draw in 0..1_000_000 (parts per million).
    fn draw_ppm(&mut self) -> u64 {
        self.rng.below(1_000_000)
    }
}

/// Integer square root (floor), for the CoDel control law.
pub(crate) fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n.max(1);
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// Switch configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Number of Ethernet ports (must match the ports attached to the kernel,
    /// starting at port index `first_port`).
    pub ports: usize,
    /// Egress link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum queued bytes per egress port; beyond this, packets are dropped.
    pub queue_capacity: usize,
    /// ECN marking threshold K in packets (as in DCTCP); `None` disables
    /// marking.
    pub ecn_threshold_pkts: Option<usize>,
    /// Per-packet forwarding latency of the switching fabric.
    pub forward_latency: SimTime,
    /// MAC-table entry lifetime: an entry whose source MAC has not been seen
    /// for longer than this is aged out, so traffic to a host that moved
    /// ports floods (and re-learns) instead of being black-holed at the old
    /// port forever. Real switches age at ~300 s; the default here is scaled
    /// to the millisecond-range virtual times of the harnesses.
    pub mac_ttl: SimTime,
    /// Maximum number of learned MAC entries; learning beyond this bound
    /// evicts the stalest entry (deterministically: oldest `last_seen`,
    /// ties broken by MAC order).
    pub mac_table_cap: usize,
    /// Queue discipline applied to every egress port. `None` falls back to
    /// the legacy behaviour: [`Aqm::DctcpThreshold`] if `ecn_threshold_pkts`
    /// is set, else [`Aqm::DropTail`]. Individual ports can be overridden
    /// with [`SwitchBm::set_port_aqm`].
    pub aqm: Option<Aqm>,
    /// Seed for the per-port AQM PRNGs (probabilistic disciplines).
    pub seed: u64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 2,
            bandwidth_bps: simbricks_base::bw::B10G,
            queue_capacity: 512 * 1024,
            ecn_threshold_pkts: None,
            forward_latency: SimTime::from_ns(300),
            mac_ttl: SimTime::from_ms(100),
            mac_table_cap: 1024,
            aqm: None,
            seed: 0,
        }
    }
}

struct EgressQueue {
    /// Queued frames with their enqueue time (for sojourn-based AQMs):
    /// pooled buffers, so a flood enqueues N references to one shared
    /// segment instead of N byte copies.
    queue: VecDeque<(SimTime, PktBuf)>,
    queued_bytes: usize,
    /// Time when the link becomes free after the packet currently serializing.
    busy_until: SimTime,
    /// Whether a departure timer is scheduled.
    departing: bool,
    /// AQM controller state for this port.
    aqm_state: AqmState,
}

impl EgressQueue {
    fn new(seed: u64, port: usize) -> Self {
        EgressQueue {
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy_until: SimTime::ZERO,
            departing: false,
            aqm_state: AqmState::new(seed, port),
        }
    }
}

/// Counters reported by the switch after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    pub forwarded: u64,
    pub flooded: u64,
    pub dropped: u64,
    pub ecn_marked: u64,
    /// MAC-table entries removed because they exceeded `mac_ttl`.
    pub mac_aged: u64,
    /// MAC-table entries evicted to respect `mac_table_cap`.
    pub mac_evicted: u64,
    /// Packets dropped by an AQM decision (RED/CoDel/DualPI2), as opposed to
    /// `dropped`, which counts capacity tail drops.
    pub aqm_dropped: u64,
}

/// One learned MAC-table entry.
#[derive(Clone, Copy, Debug)]
struct MacEntry {
    port: usize,
    /// Last virtual time a frame *from* this MAC was seen (refreshed on
    /// learning, not on lookup, as in real switches).
    last_seen: SimTime,
}

/// The behavioural switch model.
pub struct SwitchBm {
    cfg: SwitchConfig,
    /// Learned MAC -> (port, last_seen). Ordered map: eviction scans and
    /// snapshot encoding iterate in address order structurally, so hash
    /// order can never pick a victim or reorder a checkpoint.
    mac_table: BTreeMap<MacAddr, MacEntry>,
    egress: Vec<EgressQueue>,
    /// Per-port queue discipline (resolved from the config, overridable).
    aqm: Vec<Aqm>,
    stats: SwitchStats,
}

impl SwitchBm {
    pub fn new(cfg: SwitchConfig) -> Self {
        assert!(cfg.mac_table_cap > 0, "mac_table_cap must be positive");
        let default_aqm = cfg.aqm.unwrap_or(match cfg.ecn_threshold_pkts {
            Some(k) => Aqm::DctcpThreshold { k_pkts: k },
            None => Aqm::DropTail,
        });
        SwitchBm {
            egress: (0..cfg.ports)
                .map(|p| EgressQueue::new(cfg.seed, p))
                .collect(),
            aqm: vec![default_aqm; cfg.ports],
            cfg,
            mac_table: BTreeMap::new(),
            stats: SwitchStats::default(),
        }
    }

    /// Override the queue discipline of one egress port (before the run).
    pub fn set_port_aqm(&mut self, port: usize, aqm: Aqm) {
        self.aqm[port] = aqm;
    }

    /// The queue discipline active on `port`.
    pub fn port_aqm(&self, port: usize) -> Aqm {
        self.aqm[port]
    }

    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Current MAC table size (learning coverage; may include entries whose
    /// TTL has expired but that have not been looked up since).
    pub fn mac_table_len(&self) -> usize {
        self.mac_table.len()
    }

    fn entry_expired(&self, e: &MacEntry, now: SimTime) -> bool {
        now > e.last_seen.saturating_add(self.cfg.mac_ttl)
    }

    /// Learn (or refresh) `src` on `port`, bounding the table size.
    fn learn(&mut self, now: SimTime, src: MacAddr, port: usize) {
        if let Some(e) = self.mac_table.get_mut(&src) {
            e.port = port;
            e.last_seen = now;
            return;
        }
        if self.mac_table.len() >= self.cfg.mac_table_cap {
            // Prefer dropping already-expired entries; otherwise evict the
            // stalest one. `min_by_key` over (last_seen, mac) plus the
            // ordered map makes the victim deterministic twice over.
            let victim = self
                .mac_table
                .iter()
                .min_by_key(|(mac, e)| (e.last_seen, **mac))
                .map(|(mac, e)| (*mac, *e));
            if let Some((mac, e)) = victim {
                self.mac_table.remove(&mac);
                if self.entry_expired(&e, now) {
                    self.stats.mac_aged += 1;
                } else {
                    self.stats.mac_evicted += 1;
                }
            }
        }
        self.mac_table.insert(
            src,
            MacEntry {
                port,
                last_seen: now,
            },
        );
    }

    /// Look up the egress port for `dst`, aging out a stale entry (so the
    /// frame floods and the table re-learns once the host speaks again).
    fn lookup(&mut self, now: SimTime, dst: MacAddr) -> Option<usize> {
        match self.mac_table.get(&dst) {
            Some(e) if !self.entry_expired(e, now) => Some(e.port),
            Some(_) => {
                self.mac_table.remove(&dst);
                self.stats.mac_aged += 1;
                None
            }
            None => None,
        }
    }

    fn enqueue(&mut self, k: &mut Kernel, port: usize, mut frame: PktBuf) {
        let q = &mut self.egress[port];
        if q.queued_bytes + frame.len() > self.cfg.queue_capacity {
            self.stats.dropped += 1;
            k.log("sw_drop", port as u64, frame.len() as u64);
            return;
        }
        let now = k.now();
        match self.aqm[port] {
            Aqm::DropTail => {}
            // DCTCP-style marking: mark CE if the instantaneous queue length
            // (in packets) exceeds K and the packet is ECN-capable.
            Aqm::DctcpThreshold { k_pkts } => {
                if q.queue.len() >= k_pkts
                    && ect(&frame)
                    && Ipv4Header::set_ecn_in_place(frame.make_mut(), ETH_HEADER_LEN, Ecn::Ce)
                {
                    self.stats.ecn_marked += 1;
                    k.log("sw_mark", port as u64, q.queue.len() as u64);
                }
            }
            Aqm::Red {
                min_pkts,
                max_pkts,
                max_prob_permille,
            } => {
                let qlen = q.queue.len();
                let hit = if qlen >= max_pkts {
                    true
                } else if qlen > min_pkts && max_pkts > min_pkts {
                    // Linear ramp min..max, scaled to parts per million so
                    // the permille config divides evenly.
                    let prob_ppm = max_prob_permille as u64 * 1000 * (qlen - min_pkts) as u64
                        / (max_pkts - min_pkts) as u64;
                    q.aqm_state.draw_ppm() < prob_ppm
                } else {
                    false
                };
                if hit {
                    if ect(&frame)
                        && Ipv4Header::set_ecn_in_place(frame.make_mut(), ETH_HEADER_LEN, Ecn::Ce)
                    {
                        self.stats.ecn_marked += 1;
                        k.log("sw_mark", port as u64, qlen as u64);
                    } else {
                        self.stats.aqm_dropped += 1;
                        k.log("sw_aqm_drop", port as u64, frame.len() as u64);
                        return;
                    }
                }
            }
            // CoDel acts at dequeue (see schedule_departure); nothing here.
            Aqm::CoDel { .. } => {}
            Aqm::DualPi2 { target, tupdate } => {
                // Lazy PI update: advance the controller by however many
                // whole periods elapsed (bounded, so an idle port cannot
                // spin), using queueing delay derived from the backlog.
                let st = &mut q.aqm_state;
                if tupdate > SimTime::ZERO && now >= st.pi_last_update.saturating_add(tupdate) {
                    let steps = ((now - st.pi_last_update).as_ps() / tupdate.as_ps()).min(4) as u32;
                    let qdelay = SimTime::from_ps(
                        (q.queued_bytes as u128 * 8 * 1_000_000_000_000
                            / self.cfg.bandwidth_bps as u128) as u64,
                    );
                    for _ in 0..steps {
                        // Integer PI gains: proportional term 1/16 ppm per ns
                        // of error, derivative term 1/4 ppm per ns of change.
                        let err_ns = qdelay.as_ps() as i64 / 1000 - target.as_ps() as i64 / 1000;
                        let diff_ns =
                            qdelay.as_ps() as i64 / 1000 - st.pi_prev_qdelay.as_ps() as i64 / 1000;
                        let delta = err_ns / 16 + diff_ns / 4;
                        st.pi_prob_ppm = (st.pi_prob_ppm as i64 + delta).clamp(0, 1_000_000) as u64;
                        st.pi_prev_qdelay = qdelay;
                    }
                    st.pi_last_update = SimTime::from_ps(
                        st.pi_last_update.as_ps() + steps as u64 * tupdate.as_ps(),
                    );
                }
                let p = st.pi_prob_ppm;
                // ECT(1) is the scalable (L4S) queue: linear 2·p' marking.
                // Everything else is classic: squared-coupled p'², marked if
                // ECN-capable, dropped otherwise.
                let l4s = Ipv4Header::parse(&frame[ETH_HEADER_LEN.min(frame.len())..])
                    .map(|(h, _, _)| h.ecn == Ecn::Ect1)
                    .unwrap_or(false);
                let prob_ppm = if l4s {
                    (2 * p).min(1_000_000)
                } else {
                    p * p / 1_000_000
                };
                if prob_ppm > 0 && st.draw_ppm() < prob_ppm {
                    if ect(&frame)
                        && Ipv4Header::set_ecn_in_place(frame.make_mut(), ETH_HEADER_LEN, Ecn::Ce)
                    {
                        self.stats.ecn_marked += 1;
                        k.log("sw_mark", port as u64, q.queue.len() as u64);
                    } else {
                        self.stats.aqm_dropped += 1;
                        k.log("sw_aqm_drop", port as u64, frame.len() as u64);
                        return;
                    }
                }
            }
        }
        let q = &mut self.egress[port];
        q.queued_bytes += frame.len();
        q.queue.push_back((now, frame));
        self.schedule_departure(k, port);
    }

    fn schedule_departure(&mut self, k: &mut Kernel, port: usize) {
        let now = k.now();
        if self.egress[port].departing || self.egress[port].queue.is_empty() {
            return;
        }
        let start = now.max(self.egress[port].busy_until);
        // CoDel inspects (and may drop or mark) the head packet at the moment
        // its transmission would begin.
        if let Aqm::CoDel { target, interval } = self.aqm[port] {
            self.codel_head(k, port, start, target, interval);
        }
        let q = &mut self.egress[port];
        let Some((_, head)) = q.queue.front() else {
            return;
        };
        let done = start + serialization_delay(head.len(), self.cfg.bandwidth_bps);
        q.busy_until = done;
        q.departing = true;
        k.schedule_at(done, port as u64);
    }

    /// The CoDel control law, applied to the head of `port`'s queue at
    /// dequeue time `start`. Non-ECT head packets selected for drop are
    /// removed (possibly several in a row, per the sqrt schedule); an
    /// ECN-capable head is CE-marked instead and transmitted.
    fn codel_head(
        &mut self,
        k: &mut Kernel,
        port: usize,
        start: SimTime,
        target: SimTime,
        interval: SimTime,
    ) {
        loop {
            let q = &mut self.egress[port];
            let Some((enq, _)) = q.queue.front() else {
                q.aqm_state.dropping = false;
                return;
            };
            let sojourn = start.saturating_sub(*enq);
            let st = &mut q.aqm_state;
            let ok_to_drop = if sojourn < target {
                st.first_above = SimTime::ZERO;
                false
            } else if st.first_above == SimTime::ZERO {
                st.first_above = start.saturating_add(interval);
                false
            } else {
                start >= st.first_above
            };
            if st.dropping {
                if !ok_to_drop {
                    st.dropping = false;
                    return;
                }
                if start < st.drop_next {
                    return;
                }
                st.drop_count += 1;
                st.drop_next =
                    start.saturating_add(SimTime::from_ps(interval.as_ps() / isqrt(st.drop_count)));
            } else {
                if !ok_to_drop {
                    return;
                }
                st.dropping = true;
                // Re-entering a recent dropping episode resumes at a higher
                // rate instead of restarting the schedule from 1.
                st.drop_count = if st.drop_count > 2 {
                    st.drop_count - 2
                } else {
                    1
                };
                st.drop_next =
                    start.saturating_add(SimTime::from_ps(interval.as_ps() / isqrt(st.drop_count)));
            }
            // Selected: ECN-capable heads are marked and transmitted; others
            // are dropped and the next head is re-examined under the same law.
            let head = &mut q.queue.front_mut().unwrap().1;
            if ect(head) && Ipv4Header::set_ecn_in_place(head.make_mut(), ETH_HEADER_LEN, Ecn::Ce) {
                self.stats.ecn_marked += 1;
                k.log("sw_mark", port as u64, sojourn.as_ps());
                return;
            }
            let (_, dropped) = q.queue.pop_front().unwrap();
            q.queued_bytes -= dropped.len();
            self.stats.aqm_dropped += 1;
            k.log("sw_aqm_drop", port as u64, dropped.len() as u64);
        }
    }

    fn depart(&mut self, k: &mut Kernel, port: usize) {
        let frame = {
            let q = &mut self.egress[port];
            q.departing = false;
            match q.queue.pop_front() {
                Some((_, f)) => {
                    q.queued_bytes -= f.len();
                    f
                }
                None => return,
            }
        };
        k.log("sw_tx", port as u64, frame.len() as u64);
        send_packet_buf(k, PortId(port), frame);
        self.schedule_departure(k, port);
    }
}

/// True when the frame carries an ECN-capable IPv4 header.
fn ect(frame: &PktBuf) -> bool {
    Ipv4Header::parse(&frame[ETH_HEADER_LEN.min(frame.len())..])
        .map(|(h, _, _)| h.ecn.is_ect())
        .unwrap_or(false)
}

impl Model for SwitchBm {
    // A store-and-forward switch never emits a frame on the port it arrived
    // on: unicast output to the ingress port is dropped and floods skip the
    // ingress port, so an input pending on port p can never cause a send on
    // p. Declaring zero lookahead lets hierarchical sync widen each port's
    // promise past its own pending input.
    fn sync_lookahead(&self) -> Option<SyncLookahead> {
        Some(SyncLookahead::ExcludeSelf(SimTime::ZERO))
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        let Some(pkt) = EthPacket::decode_owned(msg) else {
            return;
        };
        let in_port = port.0;
        k.log("sw_rx", in_port as u64, pkt.len() as u64);
        // MAC learning (with TTL refresh and table bounding).
        let now = k.now();
        if let Some(src) = frame_src(&pkt.frame) {
            if !src.is_multicast() {
                self.learn(now, src, in_port);
            }
        }
        let dst = frame_dst(&pkt.frame);
        let out_port = dst.and_then(|d| {
            if d.is_broadcast() || d.is_multicast() {
                None
            } else {
                self.lookup(now, d)
            }
        });
        // The forwarding decision itself takes a small fixed latency; model it
        // by delaying the enqueue via busy time on the egress side. For
        // simplicity the fabric latency is folded into the serialization
        // start time (it is tiny relative to queueing and link delays).
        match out_port {
            Some(p) if p != in_port => {
                self.stats.forwarded += 1;
                self.enqueue(k, p, pkt.frame);
            }
            Some(_) => { /* destination is on the ingress port: drop */ }
            None => {
                // Flood to all other ports: every egress enqueue is a
                // refcount bump on the shared buffer; the frame is *moved*
                // (not cloned) into the last egress port.
                self.stats.flooded += 1;
                let last = (0..self.cfg.ports).rev().find(|p| *p != in_port);
                let mut frame = Some(pkt.frame);
                for p in 0..self.cfg.ports {
                    if p == in_port {
                        continue;
                    }
                    if Some(p) == last {
                        self.enqueue(k, p, frame.take().expect("moved once"));
                    } else {
                        self.enqueue(k, p, frame.clone().expect("still present"));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        self.depart(k, token as usize);
    }

    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        // MAC table in canonical (address) order — the ordered map's own
        // iteration order — TTL state included.
        w.usize(self.mac_table.len());
        for (mac, e) in &self.mac_table {
            w.raw(mac.as_bytes());
            w.usize(e.port);
            w.time(e.last_seen);
        }
        w.usize(self.egress.len());
        for q in &self.egress {
            w.usize(q.queue.len());
            for (enq, frame) in &q.queue {
                w.time(*enq);
                w.bytes(frame);
            }
            w.time(q.busy_until);
            w.bool(q.departing);
            let st = &q.aqm_state;
            w.u64(st.rng.state());
            w.time(st.first_above);
            w.time(st.drop_next);
            w.u64(st.drop_count);
            w.bool(st.dropping);
            w.u64(st.pi_prob_ppm);
            w.time(st.pi_last_update);
            w.time(st.pi_prev_qdelay);
        }
        for v in [
            self.stats.forwarded,
            self.stats.flooded,
            self.stats.dropped,
            self.stats.ecn_marked,
            self.stats.mac_aged,
            self.stats.mac_evicted,
            self.stats.aqm_dropped,
        ] {
            w.u64(v);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.mac_table.clear();
        for _ in 0..r.usize()? {
            let mac = MacAddr::from_slice(r.take(6)?)
                .ok_or_else(|| SnapError::Corrupt("mac address".into()))?;
            let port = r.usize()?;
            let last_seen = r.time()?;
            self.mac_table.insert(mac, MacEntry { port, last_seen });
        }
        let n = r.usize()?;
        if n != self.egress.len() {
            return Err(SnapError::Corrupt(format!(
                "switch egress port count mismatch (snapshot {n}, built {})",
                self.egress.len()
            )));
        }
        for q in &mut self.egress {
            q.queue.clear();
            q.queued_bytes = 0;
            for _ in 0..r.usize()? {
                let enq = r.time()?;
                let frame = PktBuf::from_vec(r.bytes()?);
                q.queued_bytes += frame.len();
                q.queue.push_back((enq, frame));
            }
            q.busy_until = r.time()?;
            q.departing = r.bool()?;
            let st = &mut q.aqm_state;
            st.rng = Rng::new(r.u64()?);
            st.first_above = r.time()?;
            st.drop_next = r.time()?;
            st.drop_count = r.u64()?;
            st.dropping = r.bool()?;
            st.pi_prob_ppm = r.u64()?;
            st.pi_last_update = r.time()?;
            st.pi_prev_qdelay = r.time()?;
        }
        self.stats.forwarded = r.u64()?;
        self.stats.flooded = r.u64()?;
        self.stats.dropped = r.u64()?;
        self.stats.ecn_marked = r.u64()?;
        self.stats.mac_aged = r.u64()?;
        self.stats.mac_evicted = r.u64()?;
        self.stats.aqm_dropped = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome};
    use simbricks_eth::MSG_ETH_PACKET;
    use simbricks_proto::{EthHeader, EtherType, FrameBuilder, Ipv4Addr, ParsedFrame};

    /// Harness: a switch with N ports, each connected to a test endpoint that
    /// injects/collects frames directly through the channel ends.
    struct Harness {
        kernel: Kernel,
        switch: SwitchBm,
        peers: Vec<simbricks_base::ChannelEnd>,
    }

    impl Harness {
        fn new(ports: usize, cfg: SwitchConfig) -> Self {
            let mut kernel = Kernel::new("switch", SimTime::from_ms(100));
            kernel.enable_log();
            let mut peers = Vec::new();
            for _ in 0..ports {
                // Large burst tests drain the peers only after the run, so
                // the shared queue must hold every in-flight frame + SYNCs.
                let (a, b) = channel_pair(ChannelParams::default_sync().with_queue_len(1024));
                kernel.add_port(a);
                peers.push(b);
            }
            Harness {
                kernel,
                switch: SwitchBm::new(cfg),
                peers,
            }
        }

        fn inject(&mut self, port: usize, frame: &[u8], at: SimTime) {
            self.peers[port]
                .send_raw(at, MSG_ETH_PACKET, frame)
                .unwrap();
        }

        /// Let the peer endpoints promise up to `horizon` and run the switch.
        fn run_until(&mut self, horizon: SimTime) {
            for p in &mut self.peers {
                p.send_raw(horizon, simbricks_base::MSG_SYNC, &[]).unwrap();
            }
            loop {
                match self.kernel.step(&mut self.switch, 256) {
                    StepOutcome::Blocked(_) | StepOutcome::Paused | StepOutcome::Finished => break,
                    StepOutcome::Progressed => {}
                }
            }
        }

        fn collect(&mut self, port: usize) -> Vec<(SimTime, Vec<u8>)> {
            let mut out = Vec::new();
            while let Some(m) = self.peers[port].recv_raw() {
                if m.ty == MSG_ETH_PACKET {
                    out.push((m.timestamp, m.data.to_vec()));
                }
            }
            out
        }
    }

    fn test_frame(src_idx: u64, dst_idx: u64, len: usize) -> Vec<u8> {
        let eth = EthHeader::new(
            MacAddr::from_index(dst_idx),
            MacAddr::from_index(src_idx),
            EtherType::Other(0x1234),
        );
        eth.build_frame(&vec![0xaa; len])
    }

    #[test]
    fn floods_unknown_then_forwards_learned() {
        let mut h = Harness::new(
            3,
            SwitchConfig {
                ports: 3,
                ..Default::default()
            },
        );
        // Host on port 0 (mac 1) talks to unknown mac 2: flood to 1 and 2.
        h.inject(0, &test_frame(1, 2, 100), SimTime::from_us(1));
        h.run_until(SimTime::from_us(50));
        assert_eq!(h.collect(1).len(), 1);
        assert_eq!(h.collect(2).len(), 1);
        assert_eq!(h.collect(0).len(), 0);
        // Reply from port 1 (mac 2): mac 1 is now learned -> unicast to port 0.
        h.inject(1, &test_frame(2, 1, 100), SimTime::from_us(60));
        h.run_until(SimTime::from_us(120));
        assert_eq!(h.collect(0).len(), 1);
        assert_eq!(h.collect(2).len(), 0);
        assert_eq!(h.switch.stats().flooded, 1);
        assert_eq!(h.switch.stats().forwarded, 1);
        assert_eq!(h.switch.mac_table_len(), 2);
    }

    /// The host behind mac 1 "moves" from port 0 to port 2 without speaking:
    /// without aging, its stale entry would black-hole all traffic at port 0
    /// forever. With a TTL the entry ages out, the next frame floods (and
    /// reaches the host at its new port), and the table re-learns the new
    /// port as soon as the host speaks.
    #[test]
    fn stale_mac_entry_ages_out_and_relearns_after_port_move() {
        let mut h = Harness::new(
            3,
            SwitchConfig {
                ports: 3,
                mac_ttl: SimTime::from_us(20),
                ..Default::default()
            },
        );
        // Learn mac 1 on port 0, and mac 2 on port 1 so replies unicast.
        h.inject(0, &test_frame(1, 9, 60), SimTime::from_us(1));
        h.inject(1, &test_frame(2, 9, 60), SimTime::from_us(1));
        h.run_until(SimTime::from_us(5));
        for p in 0..3 {
            h.collect(p);
        }
        // Within the TTL: traffic to mac 1 is unicast to port 0.
        h.inject(1, &test_frame(2, 1, 100), SimTime::from_us(10));
        h.run_until(SimTime::from_us(15));
        assert_eq!(h.collect(0).len(), 1, "fresh entry forwards to port 0");
        assert_eq!(h.collect(2).len(), 0);
        // Beyond the TTL (mac 1 last *spoke* at 1 us; destination lookups do
        // not refresh): the entry is stale, the frame floods to all other
        // ports, so the silently-moved host (now on port 2) still gets it.
        h.inject(1, &test_frame(2, 1, 100), SimTime::from_us(40));
        h.run_until(SimTime::from_us(50));
        assert_eq!(h.collect(0).len(), 1, "flood reaches the old port");
        assert_eq!(h.collect(2).len(), 1, "flood reaches the host's new port");
        assert_eq!(h.switch.stats().mac_aged, 1, "stale entry aged out");
        // The host speaks from port 2: re-learned, traffic unicasts there.
        h.inject(2, &test_frame(1, 2, 60), SimTime::from_us(55));
        h.run_until(SimTime::from_us(60));
        h.collect(1);
        h.inject(1, &test_frame(2, 1, 100), SimTime::from_us(62));
        h.run_until(SimTime::from_us(70));
        assert_eq!(h.collect(2).len(), 1, "re-learned at the new port");
        assert_eq!(h.collect(0).len(), 0, "old port no longer receives");
    }

    #[test]
    fn mac_table_capacity_bound_evicts_stalest_entry() {
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                mac_table_cap: 2,
                ..Default::default()
            },
        );
        h.inject(0, &test_frame(1, 9, 60), SimTime::from_us(1));
        h.run_until(SimTime::from_us(2));
        h.inject(0, &test_frame(2, 9, 60), SimTime::from_us(3));
        h.run_until(SimTime::from_us(4));
        assert_eq!(h.switch.mac_table_len(), 2);
        // Learning a third MAC evicts the stalest (mac 1, seen at 1 us).
        h.inject(0, &test_frame(3, 9, 60), SimTime::from_us(5));
        h.run_until(SimTime::from_us(6));
        assert_eq!(h.switch.mac_table_len(), 2, "table stays bounded");
        assert_eq!(h.switch.stats().mac_evicted, 1);
        h.collect(1);
        // mac 1 is gone (floods); macs 2 and 3 are still known (unicast).
        h.inject(1, &test_frame(9, 1, 100), SimTime::from_us(10));
        h.run_until(SimTime::from_us(15));
        let flooded_before = h.switch.stats().flooded;
        assert!(flooded_before >= 1, "evicted mac floods again");
        h.inject(1, &test_frame(9, 3, 100), SimTime::from_us(20));
        h.run_until(SimTime::from_us(25));
        assert_eq!(
            h.switch.stats().flooded,
            flooded_before,
            "mac 3 still unicast"
        );
        assert_eq!(h.collect(0).len(), 2);
    }

    /// Regression (pooled buffers): flooding moves the frame into the last
    /// egress port and refcount-shares it into the others — every egress
    /// port must still emit bytes identical to the injected frame, exactly
    /// as the old clone-per-port code did.
    #[test]
    fn flood_emits_identical_bytes_on_every_egress_port() {
        let mut h = Harness::new(
            4,
            SwitchConfig {
                ports: 4,
                ..Default::default()
            },
        );
        let frame = test_frame(1, 99, 300); // mac 99 unknown: floods
        h.inject(0, &frame, SimTime::from_us(1));
        h.run_until(SimTime::from_us(50));
        assert_eq!(h.collect(0).len(), 0, "never echoed to the ingress port");
        for p in 1..4 {
            let got = h.collect(p);
            assert_eq!(got.len(), 1, "port {p} got the flood");
            assert_eq!(got[0].1, frame, "port {p} bytes identical");
        }
        assert_eq!(h.switch.stats().flooded, 1);
    }

    /// Regression (pooled buffers): when one egress queue ECN-marks a
    /// flooded frame, the mark must not leak into the sibling ports' shared
    /// copies (copy-on-write isolation).
    #[test]
    fn ecn_mark_on_one_flood_copy_does_not_leak_into_siblings() {
        let mut h = Harness::new(
            3,
            SwitchConfig {
                ports: 3,
                ecn_threshold_pkts: Some(0), // mark everything queued
                ..Default::default()
            },
        );
        let ip_frame = FrameBuilder::udp(
            MacAddr::from_index(100),
            MacAddr::from_index(200), // unknown: floods to ports 1 and 2
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::Ect0,
            1,
            2,
            &vec![0u8; 400],
        );
        h.inject(0, &ip_frame, SimTime::from_us(1));
        h.run_until(SimTime::from_us(50));
        for p in 1..3 {
            let got = h.collect(p);
            assert_eq!(got.len(), 1);
            let parsed = ParsedFrame::parse(&got[0].1).unwrap();
            assert_eq!(parsed.ipv4.unwrap().ecn, Ecn::Ce, "port {p} marked");
            assert!(parsed.checksums_ok, "mark kept checksums valid");
        }
        // Both egress copies were marked independently; the original
        // injected frame (still owned by the test) is untouched.
        assert_eq!(
            ParsedFrame::parse(&ip_frame).unwrap().ipv4.unwrap().ecn,
            Ecn::Ect0
        );
    }

    #[test]
    fn serialization_delay_spaces_departures() {
        // Two back-to-back 1250 B frames at 10 Gbps: second departs 1 us later.
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                ..Default::default()
            },
        );
        // Teach the switch where mac 2 lives to avoid flooding.
        h.inject(1, &test_frame(2, 9, 60), SimTime::from_ns(100));
        h.run_until(SimTime::from_us(5));
        h.collect(0);
        let t0 = SimTime::from_us(10);
        h.inject(0, &test_frame(1, 2, 1236), t0);
        h.inject(0, &test_frame(1, 2, 1236), t0);
        h.run_until(SimTime::from_us(100));
        let got = h.collect(1);
        assert_eq!(got.len(), 2);
        let gap = got[1].0 - got[0].0;
        assert_eq!(
            gap,
            SimTime::from_us(1),
            "1250B at 10G is 1us serialization"
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                queue_capacity: 3000,
                ..Default::default()
            },
        );
        h.inject(1, &test_frame(2, 9, 60), SimTime::from_ns(100));
        h.run_until(SimTime::from_us(2));
        h.collect(0);
        for _ in 0..10 {
            h.inject(0, &test_frame(1, 2, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(1));
        let delivered = h.collect(1).len();
        assert!(delivered < 10, "some frames must be dropped");
        assert_eq!(h.switch.stats().dropped as usize + delivered, 10);
    }

    #[test]
    fn ecn_marking_above_threshold() {
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                ecn_threshold_pkts: Some(2),
                ..Default::default()
            },
        );
        // Learn destination mac.
        h.inject(1, &test_frame(200, 9, 60), SimTime::from_ns(100));
        h.run_until(SimTime::from_us(2));
        h.collect(0);
        // Burst of ECT(0) IP packets large enough to build a queue.
        let ip_frame = FrameBuilder::udp(
            MacAddr::from_index(100),
            MacAddr::from_index(200),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::Ect0,
            1,
            2,
            &vec![0u8; 1200],
        );
        for _ in 0..8 {
            h.inject(0, &ip_frame, SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(1));
        let got = h.collect(1);
        assert_eq!(got.len(), 8);
        let marked = got
            .iter()
            .filter(|(_, f)| ParsedFrame::parse(f).unwrap().ipv4.unwrap().ecn == Ecn::Ce)
            .count();
        assert!(marked > 0, "queue beyond K must be CE-marked");
        assert!(marked < 8, "early packets below K stay unmarked");
        assert_eq!(h.switch.stats().ecn_marked as usize, marked);
    }

    #[test]
    fn non_ect_packets_never_marked() {
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                ecn_threshold_pkts: Some(1),
                ..Default::default()
            },
        );
        h.inject(1, &test_frame(200, 9, 60), SimTime::from_ns(100));
        h.run_until(SimTime::from_us(2));
        h.collect(0);
        let ip_frame = FrameBuilder::udp(
            MacAddr::from_index(100),
            MacAddr::from_index(200),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            1,
            2,
            &vec![0u8; 1200],
        );
        for _ in 0..6 {
            h.inject(0, &ip_frame, SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(1));
        let got = h.collect(1);
        assert_eq!(got.len(), 6);
        assert!(got
            .iter()
            .all(|(_, f)| ParsedFrame::parse(f).unwrap().ipv4.unwrap().ecn == Ecn::NotEct));
        assert_eq!(h.switch.stats().ecn_marked, 0);
    }

    fn ip_burst_harness(aqm: Aqm, ecn: Ecn, n: usize, len: usize) -> (Harness, usize) {
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                aqm: Some(aqm),
                seed: 42,
                ..Default::default()
            },
        );
        h.inject(1, &test_frame(200, 9, 60), SimTime::from_ns(100));
        h.run_until(SimTime::from_us(2));
        h.collect(0);
        let ip_frame = FrameBuilder::udp(
            MacAddr::from_index(100),
            MacAddr::from_index(200),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            ecn,
            1,
            2,
            &vec![0u8; len],
        );
        for _ in 0..n {
            h.inject(0, &ip_frame, SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(20));
        (h, n)
    }

    #[test]
    fn red_drops_non_ect_and_marks_ect_probabilistically() {
        let red = Aqm::Red {
            min_pkts: 2,
            max_pkts: 10,
            max_prob_permille: 800,
        };
        // Non-ECT burst: RED drops.
        let (mut h, n) = ip_burst_harness(red, Ecn::NotEct, 40, 1200);
        let delivered = h.collect(1).len();
        let s = h.switch.stats();
        assert!(s.aqm_dropped > 0, "RED must drop under a standing queue");
        assert_eq!(delivered + s.aqm_dropped as usize + s.dropped as usize, n);
        assert_eq!(s.ecn_marked, 0, "non-ECT traffic is dropped, never marked");
        // ECT burst: RED marks instead of dropping.
        let (mut h2, n2) = ip_burst_harness(red, Ecn::Ect0, 40, 1200);
        let got = h2.collect(1);
        let s2 = h2.switch.stats();
        assert_eq!(got.len() + s2.dropped as usize, n2, "ECT packets survive");
        assert!(s2.ecn_marked > 0, "RED marks ECN-capable traffic");
        assert_eq!(s2.aqm_dropped, 0);
    }

    #[test]
    fn red_is_deterministic_for_a_fixed_seed() {
        let red = Aqm::Red {
            min_pkts: 1,
            max_pkts: 8,
            max_prob_permille: 900,
        };
        let (mut a, _) = ip_burst_harness(red, Ecn::NotEct, 30, 1000);
        let (mut b, _) = ip_burst_harness(red, Ecn::NotEct, 30, 1000);
        assert_eq!(a.collect(1), b.collect(1), "same seed, same drop pattern");
        assert_eq!(a.switch.stats().aqm_dropped, b.switch.stats().aqm_dropped);
    }

    #[test]
    fn codel_drops_persistent_queue_but_spares_short_bursts() {
        let codel = Aqm::CoDel {
            target: SimTime::from_us(5),
            interval: SimTime::from_us(100),
        };
        // A short burst drains before sojourn stays above target: untouched.
        let (mut h, n) = ip_burst_harness(codel, Ecn::NotEct, 4, 1200);
        assert_eq!(h.collect(1).len(), n, "short burst below interval survives");
        assert_eq!(h.switch.stats().aqm_dropped, 0);
        // A large standing queue (1200 B at 10G ≈ 1 us each, 200 packets ≈
        // 200 us of backlog) keeps sojourn above target past the interval.
        let (mut h2, n2) = ip_burst_harness(codel, Ecn::NotEct, 200, 1200);
        let delivered = h2.collect(1).len();
        let s = h2.switch.stats();
        assert!(s.aqm_dropped > 0, "standing queue must trigger CoDel drops");
        assert_eq!(delivered + s.aqm_dropped as usize + s.dropped as usize, n2);
        // ECN-capable standing queue: marked, not dropped.
        let (mut h3, n3) = ip_burst_harness(codel, Ecn::Ect0, 200, 1200);
        let got = h3.collect(1);
        let s3 = h3.switch.stats();
        assert_eq!(got.len() + s3.dropped as usize, n3);
        assert!(s3.ecn_marked > 0, "CoDel marks ECT instead of dropping");
        assert_eq!(s3.aqm_dropped, 0);
    }

    /// DualPI2 needs a queue that *persists across controller periods*, so
    /// packets arrive slightly faster than the 1200 B ≈ 0.97 us service time
    /// and the PI error integrates over many tupdate ticks.
    fn dualpi2_run(ecn: Ecn) -> (usize, SwitchStats) {
        let dp = Aqm::DualPi2 {
            target: SimTime::from_us(2),
            tupdate: SimTime::from_us(10),
        };
        let mut h = Harness::new(
            2,
            SwitchConfig {
                ports: 2,
                aqm: Some(dp),
                seed: 42,
                ..Default::default()
            },
        );
        h.inject(1, &test_frame(200, 9, 60), SimTime::from_ns(100));
        h.run_until(SimTime::from_us(2));
        h.collect(0);
        let ip_frame = FrameBuilder::udp(
            MacAddr::from_index(100),
            MacAddr::from_index(200),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            ecn,
            1,
            2,
            &vec![0u8; 1200],
        );
        let n = 400;
        for i in 0..n {
            h.inject(
                0,
                &ip_frame,
                SimTime::from_us(10) + SimTime::from_ns(700 * i as u64),
            );
        }
        h.run_until(SimTime::from_ms(20));
        (h.collect(1).len(), h.switch.stats())
    }

    #[test]
    fn dualpi2_marks_l4s_earlier_than_classic() {
        // Scalable (ECT(1)) traffic: linear 2·p' marking on the growing queue.
        let (delivered, s) = dualpi2_run(Ecn::Ect1);
        assert_eq!(
            delivered + s.dropped as usize,
            400,
            "L4S traffic never AQM-dropped"
        );
        assert_eq!(s.aqm_dropped, 0);
        assert!(s.ecn_marked > 0, "standing queue must mark the L4S flow");
        // Classic Not-ECT traffic sees the squared-coupled probability p'²,
        // which is far smaller at the same controller state: the identical
        // arrival pattern must produce fewer drops than the L4S run's marks.
        let (delivered_c, sc) = dualpi2_run(Ecn::NotEct);
        assert_eq!(
            delivered_c + sc.dropped as usize + sc.aqm_dropped as usize,
            400
        );
        assert_eq!(sc.ecn_marked, 0, "Not-ECT is never marked");
        assert!(
            sc.aqm_dropped < s.ecn_marked,
            "squared coupling ({} drops) must act less often than linear L4S marking ({} marks)",
            sc.aqm_dropped,
            s.ecn_marked
        );
    }

    /// AQM state (PRNG position, CoDel episode, queue timestamps) must
    /// survive a snapshot so restored runs continue bit-identically.
    #[test]
    fn aqm_state_roundtrips_through_snapshot() {
        let red = Aqm::Red {
            min_pkts: 1,
            max_pkts: 6,
            max_prob_permille: 1000,
        };
        let (h, _) = ip_burst_harness(red, Ecn::NotEct, 20, 1000);
        let mut w = SnapWriter::new();
        h.switch.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let mut back = SwitchBm::new(SwitchConfig {
            ports: 2,
            aqm: Some(red),
            seed: 42,
            ..Default::default()
        });
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(back.stats().aqm_dropped, h.switch.stats().aqm_dropped);
        assert_eq!(
            back.egress[1].aqm_state.rng,
            h.switch.egress[1].aqm_state.rng
        );
        assert_eq!(back.egress[1].queue.len(), h.switch.egress[1].queue.len());
        let mut w2 = SnapWriter::new();
        back.snapshot(&mut w2).unwrap();
        assert_eq!(w2.into_vec(), buf, "snapshot(restore(s)) == s");
    }
}
