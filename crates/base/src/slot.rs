//! Fixed-size message slots.
//!
//! SimBricks queues (§5.2, §A.2 of the paper) are arrays of fixed-size
//! message slots. The control byte of each slot encodes the current owner
//! (producer or consumer) in its top bit and the message type in the
//! remaining seven bits. Producer and consumer communicate only through this
//! control byte plus the slot contents, so all cache-coherence traffic
//! carries useful data.
//!
//! A slot's descriptor (`SlotDesc`, 16 bytes) holds the control byte, the
//! payload's length and offset, and the timestamp; the payload itself lives
//! in its ring's payload arena (`crate::spsc`), copied there whole at a
//! 64-byte-aligned offset. A ring keeps all its descriptors together, four
//! to a 64-byte cache line, so a payload-free SYNC reads and writes a
//! quarter of one line and nothing else, and a data message also touches
//! only the `len` bytes of its span of the arena.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::pktbuf::PktBuf;
use crate::time::SimTime;

/// Maximum payload carried by one message slot.
///
/// Sized so a jumbo Ethernet frame (the paper's 4000 B MTU dctcp experiment),
/// a 4 KiB DMA burst, or an 8 KiB TSO super-segment DMA completion fits
/// inline. Larger transfers must be split by the sender.
pub const MAX_PAYLOAD: usize = 9216;

/// Message type values `0..=127`. Type `0` is reserved for SYNC messages.
pub type MsgType = u8;

/// Reserved message type for synchronization messages (§5.5).
pub const MSG_SYNC: MsgType = 0;

/// Control-byte bit marking the slot as owned by the consumer (i.e. a message
/// is ready to be read). When clear, the producer owns the slot.
const OWNER_CONSUMER: u8 = 0x80;
const TYPE_MASK: u8 = 0x7f;

/// The descriptor of one queue slot: everything but the payload. Sixteen
/// bytes, so four descriptors share a 64-byte cache line and a 64-slot
/// ring's descriptors take 1 KiB. SYNC-heavy runs do little but walk
/// descriptors, and a fat-tree's hundreds of rings only stay in L2 packed
/// this way. Neighbouring descriptors share a line also where two cores
/// share the ring (a sharded run's cut link, a dist uplink over shm); both
/// cases were measured against one descriptor per two lines and stayed
/// within run-to-run noise.
///
/// This `repr(C)` layout (control byte at +0, length at +2, arena offset at
/// +4, timestamp at +8) is also the layout of a ring in a memory-mapped
/// region shared by two processes (`crate::spsc::RingMem`), so every bit
/// pattern must be a valid descriptor: an all-zero descriptor is empty and
/// producer-owned, and the consumer clamps `len` and `off` to the arena.
#[derive(Default)]
#[repr(C, align(16))]
pub(crate) struct SlotDesc {
    /// Owner bit plus message type, written last by the producer with release
    /// ordering and read first by the consumer with acquire ordering.
    pub ctrl: AtomicU8,
    /// Number of payload bytes ([`MAX_PAYLOAD`] fits 16 bits).
    pub len: UnsafeCell<u16>,
    /// Offset of the payload in the ring's arena; meaningless when `len` is
    /// zero.
    pub off: UnsafeCell<u32>,
    /// Receiver-side processing timestamp (send time plus link latency), ps.
    pub timestamp: UnsafeCell<u64>,
}

/// Bytes one descriptor occupies in ring memory.
pub(crate) const DESC_BYTES: usize = std::mem::size_of::<SlotDesc>();

const _: () = assert!(MAX_PAYLOAD <= u16::MAX as usize);

// Safety: access to `timestamp`/`len`/`off` (and the payload's span) is
// serialized by the `ctrl` ownership protocol (acquire/release on the control
// byte), exactly as described in §A.2 of the paper.
unsafe impl Sync for SlotDesc {}
unsafe impl Send for SlotDesc {}

impl SlotDesc {
    /// True if the consumer currently owns this slot (message ready).
    #[inline]
    pub(crate) fn consumer_owned(&self) -> bool {
        self.ctrl.load(Ordering::Acquire) & OWNER_CONSUMER != 0
    }

    /// True if the producer currently owns this slot (free for writing).
    #[inline]
    pub(crate) fn producer_owned(&self) -> bool {
        self.ctrl.load(Ordering::Acquire) & OWNER_CONSUMER == 0
    }

    /// Publish a message: store type and flip ownership to the consumer.
    /// Must only be called by the producer while it owns the slot.
    #[inline]
    pub(crate) fn publish(&self, ty: MsgType) {
        debug_assert!(ty & OWNER_CONSUMER == 0, "message type must fit in 7 bits");
        self.ctrl
            .store(OWNER_CONSUMER | (ty & TYPE_MASK), Ordering::Release);
    }

    /// Read the message type. Must only be called by the consumer while it
    /// owns the slot.
    #[inline]
    pub(crate) fn msg_type(&self) -> MsgType {
        self.ctrl.load(Ordering::Relaxed) & TYPE_MASK
    }

    /// Return the slot to the producer.
    #[inline]
    pub(crate) fn release(&self) {
        self.ctrl.store(0, Ordering::Release);
    }
}

/// A message copied out of a queue slot: the receiver-side timestamp, the
/// seven-bit message type, and the payload bytes.
///
/// The payload is a [`PktBuf`]: receive paths copy the slot bytes into a
/// pooled segment (no heap traffic on a warm pool) and every downstream hop
/// hands the buffer on by reference-count bump instead of reallocating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedMsg {
    /// Receiver-side virtual time at which the message must be processed.
    pub timestamp: SimTime,
    /// Seven-bit message type ([`MSG_SYNC`] = pure synchronization).
    pub ty: MsgType,
    /// Payload bytes (pooled; see [`PktBuf`]).
    pub data: PktBuf,
}

impl OwnedMsg {
    /// Assemble a message from its parts. Accepts a [`PktBuf`] directly or
    /// anything convertible into one (e.g. a `Vec<u8>`).
    pub fn new(timestamp: SimTime, ty: MsgType, data: impl Into<PktBuf>) -> Self {
        OwnedMsg {
            timestamp,
            ty,
            data: data.into(),
        }
    }

    /// A pure SYNC message carrying only the timestamp promise.
    /// Allocation-free.
    pub fn sync(timestamp: SimTime) -> Self {
        OwnedMsg {
            timestamp,
            ty: MSG_SYNC,
            data: PktBuf::empty(),
        }
    }

    /// Whether this is a pure SYNC message.
    pub fn is_sync(&self) -> bool {
        self.ty == MSG_SYNC
    }

    /// Serialize into a byte vector for forwarding over a proxy connection
    /// (§5.4). Layout: u64 timestamp, u8 type, u32 length, payload.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(13 + self.data.len());
        self.write_wire(&mut v);
        v
    }

    /// Append the [`OwnedMsg::to_wire`] encoding to `out`. Forwarders batch
    /// many messages into one reused buffer this way, with no allocation per
    /// message.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.timestamp.as_ps().to_le_bytes());
        out.push(self.ty);
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.data);
    }

    /// Parse a message from its wire encoding. Returns the message and the
    /// number of bytes consumed, or `None` if `buf` does not contain a
    /// complete message yet. The payload lands in a heap-backed buffer.
    pub fn from_wire(buf: &[u8]) -> Option<(OwnedMsg, usize)> {
        let (timestamp, ty, payload, used) = Self::peek_wire(buf)?;
        let data = if payload.is_empty() {
            PktBuf::empty()
        } else {
            PktBuf::from(payload)
        };
        Some((
            OwnedMsg {
                timestamp,
                ty,
                data,
            },
            used,
        ))
    }

    /// Borrow a message straight out of its wire encoding without
    /// materializing it: returns `(timestamp, type, payload, bytes consumed)`
    /// where the payload is a sub-slice of `buf`. The zero-allocation path
    /// for forwarders that immediately copy the payload into a queue slot.
    pub fn peek_wire(buf: &[u8]) -> Option<(SimTime, MsgType, &[u8], usize)> {
        if buf.len() < 13 {
            return None;
        }
        let ts = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let ty = buf[8];
        let len = u32::from_le_bytes(buf[9..13].try_into().unwrap()) as usize;
        if buf.len() < 13 + len {
            return None;
        }
        Some((SimTime::from_ps(ts), ty, &buf[13..13 + len], 13 + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ownership_protocol() {
        let s = SlotDesc::default();
        assert!(s.producer_owned());
        assert!(!s.consumer_owned());
        s.publish(7);
        assert!(s.consumer_owned());
        assert_eq!(s.msg_type(), 7);
        s.release();
        assert!(s.producer_owned());
    }

    #[test]
    fn slot_type_masked_to_seven_bits() {
        let s = SlotDesc::default();
        s.publish(0x7f);
        assert_eq!(s.msg_type(), 0x7f);
        assert!(s.consumer_owned());
    }

    #[test]
    fn owned_msg_wire_roundtrip() {
        let m = OwnedMsg::new(SimTime::from_ns(1234), 5, vec![1, 2, 3, 4, 5]);
        let w = m.to_wire();
        let (back, used) = OwnedMsg::from_wire(&w).unwrap();
        assert_eq!(used, w.len());
        assert_eq!(back, m);
    }

    #[test]
    fn write_wire_appends_the_to_wire_encoding() {
        let a = OwnedMsg::new(SimTime::from_ns(3), 5, vec![7; 40]);
        let b = OwnedMsg::sync(SimTime::from_ns(4));
        let mut batch = b"prefix".to_vec();
        a.write_wire(&mut batch);
        b.write_wire(&mut batch);
        assert_eq!(batch, [&b"prefix"[..], &a.to_wire(), &b.to_wire()].concat());
    }

    #[test]
    fn owned_msg_wire_partial() {
        let m = OwnedMsg::new(SimTime::from_ns(7), 3, vec![9; 100]);
        let w = m.to_wire();
        assert!(OwnedMsg::from_wire(&w[..5]).is_none());
        assert!(OwnedMsg::from_wire(&w[..w.len() - 1]).is_none());
    }

    #[test]
    fn sync_msg_has_no_payload() {
        let m = OwnedMsg::sync(SimTime::from_ns(500));
        assert!(m.is_sync());
        assert!(m.data.is_empty());
        let (back, _) = OwnedMsg::from_wire(&m.to_wire()).unwrap();
        assert!(back.is_sync());
    }

    #[test]
    fn descriptors_pack_four_per_cache_line() {
        assert_eq!(std::mem::size_of::<SlotDesc>(), 16);
        assert_eq!(std::mem::align_of::<SlotDesc>(), 16);
        assert_eq!(std::mem::offset_of!(SlotDesc, ctrl), 0);
        assert_eq!(std::mem::offset_of!(SlotDesc, len), 2);
        assert_eq!(std::mem::offset_of!(SlotDesc, off), 4);
        assert_eq!(std::mem::offset_of!(SlotDesc, timestamp), 8);
        assert_eq!(64 / DESC_BYTES, 4);
        assert_eq!(crate::spsc::ring_bytes(64), Some(64 * 16 + 65 * 9216));
    }
}
