//! Bidirectional SimBricks channels.
//!
//! A channel between two component simulators consists of a pair of
//! unidirectional SPSC queues in opposite directions (§5.2). The channel is
//! configured with the modelled link latency Δ and synchronization interval δ
//! (§5.5), which the synchronization layer uses to timestamp outgoing
//! messages and to decide when SYNC messages must be emitted.

use crate::impair::Impairment;
use crate::pktbuf::BufPool;
use crate::slot::{MsgType, OwnedMsg};
use crate::spsc::{self, Consumer, Producer, SendError, DEFAULT_QUEUE_LEN};
use crate::time::SimTime;

/// Static configuration of one channel direction pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelParams {
    /// Link propagation latency Δ: a message sent at local time `T` must be
    /// processed by the peer at `T + latency`.
    pub latency: SimTime,
    /// Synchronization interval δ ≤ Δ: if no message has been sent for this
    /// long, a SYNC message is emitted to guarantee liveness.
    pub sync_interval: SimTime,
    /// Whether this channel participates in time synchronization. When
    /// false the channel operates in unsynchronized "emulation" mode.
    pub sync: bool,
    /// Number of slots per unidirectional queue.
    pub queue_len: usize,
    /// Deterministic link impairment (loss, jitter, reordering, rate
    /// variation) applied by the sending endpoint of each direction. Both
    /// sides of a distributed link must agree on it, exactly like the
    /// latency — the proxy handshake verifies equality.
    pub impairment: Impairment,
}

impl ChannelParams {
    /// The paper's default configuration: 500 ns link latency, sync interval
    /// equal to the latency, synchronization enabled.
    pub fn default_sync() -> Self {
        ChannelParams {
            latency: SimTime::from_ns(500),
            sync_interval: SimTime::from_ns(500),
            sync: true,
            queue_len: DEFAULT_QUEUE_LEN,
            impairment: Impairment::none(),
        }
    }

    /// Unsynchronized channel for emulation-style runs (e.g. QEMU-KVM hosts).
    pub fn default_unsync() -> Self {
        ChannelParams {
            sync: false,
            ..Self::default_sync()
        }
    }

    /// Set the link latency Δ, clamping the sync interval δ down to it.
    pub fn with_latency(mut self, latency: SimTime) -> Self {
        self.latency = latency;
        if self.sync_interval > latency {
            self.sync_interval = latency;
        }
        self
    }

    /// Set the synchronization interval δ.
    pub fn with_sync_interval(mut self, interval: SimTime) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Set the number of slots per unidirectional queue.
    pub fn with_queue_len(mut self, len: usize) -> Self {
        self.queue_len = len;
        self
    }

    /// Enable or disable time synchronization on this channel.
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// Set the link impairment model (disabled by default).
    pub fn with_impairment(mut self, impairment: Impairment) -> Self {
        self.impairment = impairment;
        self
    }

    /// Size in bytes of the wire encoding produced by [`ChannelParams::to_wire`].
    pub const WIRE_LEN: usize = 26 + Impairment::WIRE_LEN;

    /// Serialize the parameters for transmission between the two halves of a
    /// distributed proxy pair (§5.4): both sides must agree on latency, sync
    /// interval, and synchronization mode, so the connecting side sends its
    /// parameters in the handshake frame and the accepting side verifies
    /// them. Layout (little-endian): u64 latency ps, u64 sync interval ps,
    /// u64 queue length, u8 flags (bit 0 = sync; bit 1 is always written
    /// set and ignored on read, so encodings from before adaptive sync
    /// became unconditional still match), u8 reserved, then the fixed
    /// [`Impairment::WIRE_LEN`]-byte impairment block (see
    /// [`Impairment::to_wire`]).
    pub fn to_wire(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..8].copy_from_slice(&self.latency.as_ps().to_le_bytes());
        out[8..16].copy_from_slice(&self.sync_interval.as_ps().to_le_bytes());
        out[16..24].copy_from_slice(&(self.queue_len as u64).to_le_bytes());
        out[24] = (self.sync as u8) | 0x02;
        out[26..].copy_from_slice(&self.impairment.to_wire());
        out
    }

    /// Parse parameters previously encoded with [`ChannelParams::to_wire`].
    /// Returns `None` if `buf` is shorter than [`ChannelParams::WIRE_LEN`],
    /// contains undefined flag bits, or carries an invalid impairment block.
    pub fn from_wire(buf: &[u8]) -> Option<ChannelParams> {
        if buf.len() < Self::WIRE_LEN {
            return None;
        }
        let flags = buf[24];
        if flags & !0x03 != 0 {
            return None;
        }
        Some(ChannelParams {
            latency: SimTime::from_ps(u64::from_le_bytes(buf[0..8].try_into().unwrap())),
            sync_interval: SimTime::from_ps(u64::from_le_bytes(buf[8..16].try_into().unwrap())),
            queue_len: u64::from_le_bytes(buf[16..24].try_into().unwrap()) as usize,
            sync: flags & 0x01 != 0,
            impairment: Impairment::from_wire(&buf[26..])?,
        })
    }
}

impl Default for ChannelParams {
    fn default() -> Self {
        Self::default_sync()
    }
}

/// One endpoint of a bidirectional channel.
pub struct ChannelEnd {
    tx: Producer,
    rx: Consumer,
    params: ChannelParams,
    conn_id: u64,
    dir: u8,
}

/// Create a connected pair of channel endpoints. Both endpoints share a
/// process-wide unique connection id, which lets the runner reconstruct the
/// channel graph of an experiment (topology-aware sync lookahead, automatic
/// partitioning) after the endpoints have been moved into their kernels.
pub fn channel_pair(params: ChannelParams) -> (ChannelEnd, ChannelEnd) {
    let (pa, ca) = spsc::queue(params.queue_len);
    let (pb, cb) = spsc::queue(params.queue_len);
    let a = ChannelEnd::new(pa, cb, params);
    let mut b = ChannelEnd::new(pb, ca, params);
    b.conn_id = a.conn_id;
    b.dir = 1;
    (a, b)
}

impl ChannelEnd {
    /// Assemble an endpoint from the producer of its outgoing ring and the
    /// consumer of its incoming ring, wherever those rings live (heap for
    /// [`channel_pair`], a mapped region for a cross-process link). The
    /// endpoint gets a fresh connection id and direction tag 0.
    pub fn new(tx: Producer, rx: Consumer, params: ChannelParams) -> ChannelEnd {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_CONN: AtomicU64 = AtomicU64::new(1);
        ChannelEnd {
            tx,
            rx,
            params,
            conn_id: NEXT_CONN.fetch_add(1, Ordering::Relaxed),
            dir: 0,
        }
    }

    /// The channel's static configuration.
    pub fn params(&self) -> ChannelParams {
        self.params
    }

    /// Process-wide unique id shared by both endpoints of this channel.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Direction tag: 0 for the `.0` endpoint of [`channel_pair`], 1 for the
    /// `.1` endpoint. Impairment streams are seeded per direction from this
    /// tag (never from `conn_id`, whose allocation order depends on the
    /// process and partitioning), so impaired traffic is bit-identical no
    /// matter how the experiment is partitioned.
    pub fn dir(&self) -> u8 {
        self.dir
    }

    /// Override the direction tag. Only the runner uses this: an endpoint
    /// built with [`ChannelEnd::new`] for a cross-partition link must be
    /// tagged with the side (`a` = 0, `b` = 1) it represents in the logical
    /// topology.
    pub fn set_dir(&mut self, dir: u8) {
        self.dir = dir;
    }

    /// Install the buffer pool received payloads are allocated from (the
    /// owning kernel's per-component arena).
    pub fn set_pool(&mut self, pool: BufPool) {
        self.rx.set_pool(pool);
    }

    /// The buffer pool received payloads are allocated from.
    pub fn pool(&self) -> &BufPool {
        self.rx.pool()
    }

    /// Link latency Δ of the channel.
    pub fn latency(&self) -> SimTime {
        self.params.latency
    }

    /// Whether the channel participates in time synchronization.
    pub fn sync_enabled(&self) -> bool {
        self.params.sync
    }

    /// Enqueue a message with an explicit receiver-side timestamp.
    pub fn send_raw(
        &mut self,
        timestamp: SimTime,
        ty: MsgType,
        payload: &[u8],
    ) -> Result<(), SendError> {
        self.tx.try_send(timestamp, ty, payload)
    }

    /// Dequeue the next message if one is available.
    pub fn recv_raw(&mut self) -> Option<OwnedMsg> {
        self.rx.try_recv()
    }

    /// Timestamp of the next pending incoming message, if any.
    pub fn peek_timestamp(&self) -> Option<SimTime> {
        self.rx.peek_timestamp()
    }

    /// Whether there is room to enqueue at least one more message.
    pub fn can_send(&self) -> bool {
        self.tx.can_send()
    }

    /// Whether the peer endpoint has been dropped.
    pub fn peer_closed(&self) -> bool {
        self.rx.peer_closed()
    }

    /// Messages sent / received on this endpoint so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.tx.sent(), self.rx.received())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_cross_connected() {
        let (mut a, mut b) = channel_pair(ChannelParams::default_sync());
        a.send_raw(SimTime::from_ns(10), 1, b"ab").unwrap();
        b.send_raw(SimTime::from_ns(20), 2, b"cd").unwrap();
        let at_b = b.recv_raw().unwrap();
        assert_eq!(at_b.ty, 1);
        assert_eq!(at_b.data, b"ab");
        let at_a = a.recv_raw().unwrap();
        assert_eq!(at_a.ty, 2);
        assert_eq!(at_a.data, b"cd");
    }

    #[test]
    fn params_builders() {
        let p = ChannelParams::default_sync()
            .with_latency(SimTime::from_ns(100))
            .with_queue_len(8);
        assert_eq!(p.latency, SimTime::from_ns(100));
        // sync interval clamps down to the latency
        assert_eq!(p.sync_interval, SimTime::from_ns(100));
        assert_eq!(p.queue_len, 8);
        assert!(p.sync);
        let u = ChannelParams::default_unsync();
        assert!(!u.sync);
    }

    #[test]
    fn counters_track_traffic() {
        let (mut a, mut b) = channel_pair(ChannelParams::default_sync());
        for i in 0..5 {
            a.send_raw(SimTime::from_ns(i), 1, &[]).unwrap();
        }
        for _ in 0..3 {
            b.recv_raw().unwrap();
        }
        assert_eq!(a.counters().0, 5);
        assert_eq!(b.counters().1, 3);
    }

    #[test]
    fn params_wire_roundtrip() {
        let p = ChannelParams::default_sync()
            .with_latency(SimTime::from_ns(123))
            .with_sync_interval(SimTime::from_ns(77))
            .with_queue_len(17);
        let w = p.to_wire();
        assert_eq!(ChannelParams::from_wire(&w), Some(p));
        let u = ChannelParams::default_unsync();
        assert_eq!(ChannelParams::from_wire(&u.to_wire()), Some(u));
        // Truncated or corrupted encodings are rejected.
        assert_eq!(ChannelParams::from_wire(&w[..ChannelParams::WIRE_LEN - 1]), None);
        let mut bad = w;
        bad[24] = 0xff;
        assert_eq!(ChannelParams::from_wire(&bad), None);
        // Impairment parameters travel too, and invalid blocks are rejected.
        let imp = crate::impair::Impairment::none()
            .with_bernoulli_loss(25)
            .with_jitter(SimTime::from_ns(40))
            .with_seed(99);
        let pi = ChannelParams::default_sync().with_impairment(imp);
        assert_eq!(ChannelParams::from_wire(&pi.to_wire()), Some(pi));
        let mut bad = pi.to_wire();
        bad[26] = 0x7f; // unknown loss-model kind
        assert_eq!(ChannelParams::from_wire(&bad), None);
    }

    #[test]
    fn params_wire_flag_byte_is_stable() {
        // Handshakes and checkpoints carry this byte: bit 1 stays set.
        assert_eq!(ChannelParams::default_sync().to_wire()[24], 0x03);
        assert_eq!(ChannelParams::default_unsync().to_wire()[24], 0x02);
        let mut w = ChannelParams::default_sync().to_wire();
        w[24] = 0x01;
        assert_eq!(
            ChannelParams::from_wire(&w),
            Some(ChannelParams::default_sync())
        );
    }

    #[test]
    fn peer_close_detected() {
        let (a, b) = channel_pair(ChannelParams::default_sync());
        assert!(!b.peer_closed());
        drop(a);
        assert!(b.peer_closed());
    }
}
