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
use crate::snap::{SnapError, SnapReader, SnapResult, SnapWriter};
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

    /// Set the link impairment model (disabled by default).
    pub fn with_impairment(mut self, impairment: Impairment) -> Self {
        self.impairment = impairment;
        self
    }

    /// Size in bytes of the block [`ChannelParams::encode`] writes (the shm
    /// region header reserves exactly this much for it).
    pub const WIRE_LEN: usize = 67;

    /// Encode the parameters for the two halves of a cross-process link
    /// (§5.4): both sides must agree on latency, sync interval, queue length,
    /// synchronization mode and impairment, so the connecting side sends its
    /// block (proxy handshake, shm region header) and the owning side
    /// verifies it. Layout (little-endian): u64 latency ps, u64 sync interval
    /// ps, u64 queue length, u8 flags (bit 0 = sync; bit 1 is always written
    /// set and ignored on read, so encodings from before adaptive sync became
    /// unconditional still match), u8 reserved, then the 41-byte impairment
    /// block of [`Impairment::encode`].
    pub fn encode(&self, w: &mut SnapWriter) {
        w.time(self.latency);
        w.time(self.sync_interval);
        w.usize(self.queue_len);
        w.u8(self.sync as u8 | 0x02);
        w.u8(0);
        self.impairment.encode(w);
    }

    /// Decode a block written by [`ChannelParams::encode`]. Truncation,
    /// undefined flag bits and an invalid impairment block are errors.
    pub fn decode(r: &mut SnapReader) -> SnapResult<ChannelParams> {
        let latency = r.time()?;
        let sync_interval = r.time()?;
        let queue_len = r.usize()?;
        let flags = r.u8()?;
        if flags & !0x03 != 0 {
            return Err(SnapError::Corrupt(format!("channel flags {flags:#04x}")));
        }
        r.u8()?; // reserved
        Ok(ChannelParams {
            latency,
            sync_interval,
            queue_len,
            sync: flags & 0x01 != 0,
            impairment: Impairment::decode(r)?,
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
    external: bool,
}

/// Create a connected pair of channel endpoints. Both endpoints share a
/// process-wide unique connection id, which lets the runner reconstruct the
/// channel graph of an experiment (topology-aware sync lookahead) after the
/// endpoints have been moved into their kernels.
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
    /// consumer of its incoming ring, wherever those rings live (a private
    /// mapping for [`channel_pair`], a shared one for a cross-process link).
    /// The endpoint gets a fresh connection id and direction tag 0.
    pub fn new(tx: Producer, rx: Consumer, params: ChannelParams) -> ChannelEnd {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_CONN: AtomicU64 = AtomicU64::new(1);
        ChannelEnd {
            tx,
            rx,
            params,
            conn_id: NEXT_CONN.fetch_add(1, Ordering::Relaxed),
            dir: 0,
            external: false,
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

    /// Mark the peer of this endpoint as driven by a thread no experiment
    /// steps (the in-process tcp proxy pair's relays).
    pub fn set_external(&mut self) {
        self.external = true;
    }

    /// Whether input can arrive on this endpoint while every kernel of its
    /// experiment is blocked (see [`ChannelEnd::set_external`]). An
    /// experiment with such a port has external inputs: an all-blocked
    /// round is no deadlock there, so such an experiment is never reported
    /// stuck.
    pub fn is_external(&self) -> bool {
        self.external
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

    fn encoded(p: &ChannelParams) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.encode(&mut w);
        w.into_vec()
    }

    fn decoded(b: &[u8]) -> Option<ChannelParams> {
        ChannelParams::decode(&mut SnapReader::new(b)).ok()
    }

    #[test]
    fn params_wire_roundtrip() {
        let p = ChannelParams::default_sync()
            .with_latency(SimTime::from_ns(123))
            .with_sync_interval(SimTime::from_ns(77))
            .with_queue_len(17);
        let w = encoded(&p);
        assert_eq!(w.len(), ChannelParams::WIRE_LEN);
        assert_eq!(decoded(&w), Some(p));
        let u = ChannelParams::default_unsync();
        assert_eq!(decoded(&encoded(&u)), Some(u));
        // Truncated or corrupted encodings are rejected.
        assert_eq!(decoded(&w[..ChannelParams::WIRE_LEN - 1]), None);
        let mut bad = w;
        bad[24] = 0xff;
        assert_eq!(decoded(&bad), None);
        // Impairment parameters travel too, and invalid blocks are rejected.
        let imp = crate::impair::Impairment::none()
            .with_bernoulli_loss(25)
            .with_jitter(SimTime::from_ns(40))
            .with_seed(99);
        let pi = ChannelParams::default_sync().with_impairment(imp);
        assert_eq!(decoded(&encoded(&pi)), Some(pi));
        let mut bad = encoded(&pi);
        bad[26] = 0x7f; // unknown loss-model kind
        assert_eq!(decoded(&bad), None);
    }

    #[test]
    fn params_wire_flag_byte_is_stable() {
        // Handshakes and checkpoints carry this byte: bit 1 stays set.
        assert_eq!(encoded(&ChannelParams::default_sync())[24], 0x03);
        assert_eq!(encoded(&ChannelParams::default_unsync())[24], 0x02);
        let mut w = encoded(&ChannelParams::default_sync());
        w[24] = 0x01;
        assert_eq!(decoded(&w), Some(ChannelParams::default_sync()));
    }

    /// The parameter block travels in proxy handshakes and shm region
    /// headers; these bytes were recorded from the fixed-offset encoder this
    /// codec replaced, so peers and regions of earlier builds still match.
    #[test]
    #[rustfmt::skip]
    fn params_wire_golden_bytes() {
        let head = |sync: u8| -> Vec<u8> {
            [
                &[0x20, 0xa1, 0x07, 0, 0, 0, 0, 0][..], // latency 500 ns
                &[0x20, 0xa1, 0x07, 0, 0, 0, 0, 0],     // sync interval 500 ns
                &[0x40, 0, 0, 0, 0, 0, 0, 0],           // queue length 64
                &[sync, 0],                             // flags, reserved
            ]
            .concat()
        };
        let clean = [head(0x03), vec![0; 41]].concat();
        assert_eq!(encoded(&ChannelParams::default_sync()), clean);
        let unsync = [head(0x02), vec![0; 41]].concat();
        assert_eq!(encoded(&ChannelParams::default_unsync()), unsync);
        let ge = ChannelParams::default_sync().with_impairment(
            Impairment::none()
                .with_gilbert_elliott(10, 400, 800)
                .with_jitter(SimTime::from_ns(250))
                .with_reorder(5)
                .with_rate_variation(SimTime::from_us(50), SimTime::from_us(1))
                .with_seed(0xDEAD_BEEF),
        );
        let block = [
            0x02, 0x0a, 0x00, 0x90, 0x01, 0x20, 0x03,       // kind, permilles
            0x90, 0xd0, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, // jitter 250 ns
            0x05, 0x00,                                     // reorder
            0x80, 0xf0, 0xfa, 0x02, 0x00, 0x00, 0x00, 0x00, // rate period 50 us
            0x40, 0x42, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, // rate jitter 1 us
            0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00, // seed
        ];
        assert_eq!(encoded(&ge), [head(0x03), block.to_vec()].concat());
        assert_eq!(decoded(&encoded(&ge)), Some(ge));
    }

    #[test]
    fn peer_close_detected() {
        let (a, b) = channel_pair(ChannelParams::default_sync());
        assert!(!b.peer_closed());
        drop(a);
        assert!(b.peer_closed());
    }
}
