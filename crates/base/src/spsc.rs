//! Single-producer / single-consumer message queue (§5.2, §A.2).
//!
//! The queue is a circular array of fixed-size slot descriptors. The
//! producer keeps the tail index locally, the consumer keeps the head index
//! locally; the only shared state is the per-slot descriptor and the
//! payload bytes it points at, which minimizes cache coherence traffic.
//! This mirrors the shared-memory queue layout of the original SimBricks
//! implementation.
//!
//! Ring memory ([`ring_bytes`]) holds `len` 16-byte descriptors
//! (`crate::slot`: control byte, length, arena offset, timestamp), then one
//! payload arena of `(len + 1) * MAX_PAYLOAD` bytes:
//!
//! ```text
//! +0                      descriptor 0 | descriptor 1 | … | descriptor len-1
//! +len * 16               payload arena: (len + 1) * MAX_PAYLOAD
//! +ring_bytes(len)        end
//! ```
//!
//! The producer copies a data message whole, in one copy, to a 64-byte
//! aligned offset in the arena and writes that offset into the message's
//! descriptor; the consumer copies it out from there. Payloads are placed
//! FIFO, wrapping to offset 0 when the arena's end does not fit the next
//! one, and whenever no payload is in flight the next one goes to offset 0
//! again. So a ring's resident payload pages follow the bytes in flight at
//! once, not the ring's length or history: a ring drained between small
//! messages keeps writing the same first bytes of its arena. A SYNC reads
//! and writes its descriptor only. Memory no message has used is never
//! written, so an untouched page of a zeroed block is never made resident.
//!
//! Peak resident memory of a `perf bench` run of each workload (MiB,
//! 2-core x86-64 VM, identical within 0.3 across seeds and runs), with a
//! 1 KiB head and an 8 KiB tail per slot before and with the arena now; the
//! difference is ring payload pages:
//!
//! | workload              | per-slot head and tail | arena |
//! |-----------------------|------------------------|-------|
//! | `fattree128_hier`     | 47.8                   | 19.7  |
//! | `scaleup_udp`         | 15.7                   | 11.1  |
//! | `scaleup_udp_sharded` | 15.9                   | 11.5  |
//! | `dctcp_bulk`          | 14.8                   | 11.2  |
//! | `racks_inproc`        | 11.6                   | 7.3   |
//! | `racks_dist_shm`      | 7.5                    | 5.6   |
//! | `racks_dist_tcp`      | 7.5                    | 5.4   |
//!
//! A ring whose consumer never catches up, so that some payload is always
//! in flight, walks its whole arena over time; the figures above show that
//! none of these workloads keeps one.
//!
//! Four descriptors share a 64-byte cache line, so a default 64-slot ring's
//! descriptors fit in 1 KiB, and they share the ring's first page with the
//! start of its arena.
//!
//! There is one ring and two backings, both mappings from
//! [`crate::pages`]. [`queue`] places the ring in a private zeroed mapping
//! shared by two threads; [`Producer::over`] / [`Consumer::over`] place one
//! end on ring memory the caller supplies ([`RingMem`]) — the runner's
//! shared file mapping for a link between two processes. Both run the same
//! code on the same layout: a block whose descriptors are all zero is an
//! empty ring whose slots all belong to the producer.

use std::any::Any;
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::pages::Pages;
use crate::pktbuf::{BufPool, PktBuf, DEFAULT_HEADROOM};
use crate::slot::{MsgType, OwnedMsg, SlotDesc, DESC_BYTES, MAX_PAYLOAD};
use crate::time::SimTime;

/// Default number of slots per unidirectional queue.
pub const DEFAULT_QUEUE_LEN: usize = 64;

/// Alignment ring memory must have.
pub const SLOT_ALIGN: usize = std::mem::align_of::<SlotDesc>();

/// Alignment of every payload's offset in the arena: a cache line, so a
/// small message shares no line with its neighbours.
const PAYLOAD_ALIGN: usize = 64;

// A payload's span, rounded up to whole lines, is at most `MAX_PAYLOAD`.
const _: () = assert!(MAX_PAYLOAD.is_multiple_of(PAYLOAD_ALIGN));

/// Bytes of a ring's payload arena: room for `len + 1` payloads of
/// [`MAX_PAYLOAD`], or `None` when an offset into it does not fit the
/// descriptor's 32 bits.
fn arena_bytes(len: usize) -> Option<usize> {
    let bytes = len.checked_add(1)?.checked_mul(MAX_PAYLOAD)?;
    (bytes <= u32::MAX as usize).then_some(bytes)
}

/// Bytes of ring memory a ring of `len` slots lives in: its descriptors,
/// then its payload arena. `None` when `len` is too large for a ring.
pub fn ring_bytes(len: usize) -> Option<usize> {
    len.checked_mul(DESC_BYTES)?.checked_add(arena_bytes(len)?)
}

/// The memory one ring lives in, as one of its ends sees it.
#[derive(Clone)]
pub struct RingMem {
    /// [`ring_bytes`]`(len)` bytes, [`SLOT_ALIGN`]-aligned: the
    /// descriptors, then the payload arena.
    pub slots: NonNull<u8>,
    /// Number of slots (at least 2).
    pub len: usize,
    /// Non-zero once the producer end is gone, letting the consumer
    /// distinguish "no message yet" from "peer is gone".
    pub producer_closed: NonNull<AtomicU8>,
    /// Non-zero once the consumer end is gone.
    pub consumer_closed: NonNull<AtomicU8>,
    /// Keeps the memory behind the three pointers alive.
    pub owner: Arc<dyn Any + Send + Sync>,
}

// SAFETY: `slots` is only reached through the per-slot ownership protocol of
// `crate::slot` (acquire/release on the descriptor's control byte), the two
// flags are atomics, `len` is plain data and `owner` is `Send + Sync`.
unsafe impl Send for RingMem {}
unsafe impl Sync for RingMem {}

impl RingMem {
    /// Check the geometry and return the arena's size.
    fn checked(self) -> (Self, usize) {
        assert!(self.len >= 2, "queue needs at least two slots");
        let arena = arena_bytes(self.len).expect("queue length too large");
        assert_eq!(
            self.slots.as_ptr() as usize % SLOT_ALIGN,
            0,
            "ring memory misaligned"
        );
        (self, arena)
    }

    #[inline]
    fn desc(&self, idx: usize) -> &SlotDesc {
        assert!(idx < self.len);
        // SAFETY: in bounds (checked above), and the constructors' contract
        // makes the start of `slots` a live `[SlotDesc; len]`.
        unsafe { &*self.slots.cast::<SlotDesc>().as_ptr().add(idx) }
    }

    /// Byte `off` of the payload arena, after all the descriptors, for a
    /// span of `len` bytes that must lie inside the arena of `arena` bytes.
    #[inline]
    fn payload(&self, arena: usize, off: usize, len: usize) -> *mut u8 {
        assert!(off + len <= arena, "payload span outside the arena");
        // SAFETY: in bounds of the `ring_bytes(len)` block (constructors'
        // contract).
        unsafe { self.slots.as_ptr().add(self.len * DESC_BYTES + off) }
    }

    #[inline]
    fn next(&self, idx: usize) -> usize {
        if idx + 1 == self.len {
            0
        } else {
            idx + 1
        }
    }

    #[inline]
    fn prev(&self, idx: usize) -> usize {
        if idx == 0 {
            self.len - 1
        } else {
            idx - 1
        }
    }

    fn producer_closed(&self) -> &AtomicU8 {
        // SAFETY: valid for as long as `owner` lives (constructor contract).
        unsafe { self.producer_closed.as_ref() }
    }

    fn consumer_closed(&self) -> &AtomicU8 {
        // SAFETY: as above.
        unsafe { self.consumer_closed.as_ref() }
    }
}

/// Private backing of [`queue`]: a zeroed mapping, so building a ring
/// writes none of it and a page no message uses never becomes resident.
struct HeapRing {
    block: Pages,
    producer_closed: AtomicU8,
    consumer_closed: AtomicU8,
}

/// Create a new SPSC queue with `len` slots in private memory, returning
/// its two endpoints.
pub fn queue(len: usize) -> (Producer, Consumer) {
    let bytes = ring_bytes(len).expect("queue length too large");
    let heap = Arc::new(HeapRing {
        block: Pages::zeroed(bytes),
        producer_closed: AtomicU8::new(0),
        consumer_closed: AtomicU8::new(0),
    });
    let mem = RingMem {
        slots: heap.block.as_ptr(),
        len,
        producer_closed: NonNull::from(&heap.producer_closed),
        consumer_closed: NonNull::from(&heap.consumer_closed),
        owner: heap,
    };
    // SAFETY: `slots` starts `ring_bytes(len)` zeroed, page-aligned bytes
    // kept alive by `owner` and never borrowed as a slice, and these are
    // their only two ends.
    unsafe { (Producer::over(mem.clone()), Consumer::over(mem)) }
}

/// Error returned when the queue is full or the peer has disappeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The next slot is still owned by the consumer (queue full).
    Full,
    /// The payload exceeds [`MAX_PAYLOAD`].
    TooLarge,
    /// The consumer endpoint was dropped.
    Disconnected,
}

/// `Producer::oldest_slot` while no payload is in flight.
const NO_SLOT: usize = usize::MAX;

/// Producer endpoint of an SPSC queue.
///
/// Besides the tail, the producer keeps private bookkeeping of the arena:
/// the payloads in flight, oldest first, each with its slot and the arena
/// offset its span ends at (`spans`), and the stretch of the arena they
/// use, `[oldest, write)` read circularly. The consumer releases slots in
/// order, so the producer learns what was consumed from the descriptors at
/// and just before the tail, which it reads anyway or which usually share
/// their cache line: a message that takes over the oldest payload's slot
/// (the tail, just seen released) retires that payload, and a data message
/// that finds the newest message's descriptor released retires them all.
///
/// **The arena never fills before the descriptors do.** A payload's span,
/// rounded up to whole 64-byte lines, is at most `MAX_PAYLOAD` (`M`), and
/// the arena holds `(len + 1) * M`. A payload is placed only when the tail
/// slot is free, and the payload that last used the tail slot, if it was
/// still counted, was the oldest and is retired first, so at most `len - 1`
/// payloads are counted in flight, `(len - 1) * M` bytes.
/// - Unwrapped (`oldest < write`), the bytes in use are `[oldest, write)`,
///   the payloads counted only, and the free ones `[write, end)` and
///   `[0, oldest)`: together at least `2 * M`, so one of the two holds `M`.
/// - Wrapped (`write < oldest`), the bytes in use are `[oldest, end)` and
///   `[0, write)`: the payloads counted, plus the arena's last stretch
///   that was skipped at the wrap because the next payload did not fit
///   there, so under `M`. The free bytes `[write, oldest)` are then more
///   than `(len + 1) * M - (len - 1) * M - M = M`.
///
/// Either way a payload fits, so [`SendError::Full`] means exactly that the
/// next descriptor is the consumer's, as it did with one payload area per
/// slot. The bookkeeping is the producer's own: a peer process that writes
/// the descriptors can garble the messages it gets, but never move a
/// payload outside the arena.
pub struct Producer {
    ring: RingMem,
    /// Bytes of the payload arena.
    arena: usize,
    tail: usize,
    sent: u64,
    /// Payloads in flight, oldest first: slot and end of span. At most
    /// `len`, so it stops growing at the ring's length.
    spans: VecDeque<(u32, u32)>,
    /// Slot of the oldest payload in flight (the front of `spans`), or
    /// [`NO_SLOT`].
    oldest_slot: usize,
    /// Arena offset where the payloads in flight start: the end of the
    /// newest payload retired.
    oldest: usize,
    /// Arena offset just past the newest payload placed.
    write: usize,
}

impl Producer {
    /// The producer end of the ring in `mem`, starting at slot 0.
    ///
    /// # Safety
    /// `mem.slots` must point to [`ring_bytes`]`(mem.len)` bytes aligned to
    /// [`SLOT_ALIGN`] whose `mem.len` descriptors are zero-initialised
    /// (every slot producer-owned: both ends start at slot 0, so memory a
    /// ring has already run on will not do; the arena may hold anything),
    /// and all three pointers must stay valid while `mem.owner` lives.
    /// System-wide — across every process that maps the memory — there must
    /// be at most this one producer and one consumer on it.
    pub unsafe fn over(mem: RingMem) -> Producer {
        let (ring, arena) = mem.checked();
        Producer {
            ring,
            arena,
            tail: 0,
            sent: 0,
            spans: VecDeque::new(),
            oldest_slot: NO_SLOT,
            oldest: 0,
            write: 0,
        }
    }

    /// Attempt to enqueue one message. Non-blocking: returns
    /// [`SendError::Full`] if the next slot is not yet free.
    pub fn try_send(
        &mut self,
        timestamp: SimTime,
        ty: MsgType,
        payload: &[u8],
    ) -> Result<(), SendError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(SendError::TooLarge);
        }
        if self.peer_closed() {
            return Err(SendError::Disconnected);
        }
        if !self.ring.desc(self.tail).producer_owned() {
            return Err(SendError::Full);
        }
        if self.tail == self.oldest_slot {
            // The oldest payload's slot, which the check above saw
            // released: the payload was consumed. A SYNC does nothing else
            // with the arena.
            self.retire_oldest();
        }
        if !payload.is_empty() {
            if self.oldest_slot != NO_SLOT
                && self.ring.desc(self.ring.prev(self.tail)).producer_owned()
            {
                // The newest message was consumed, and every one before it:
                // no payload is in flight. The acquire load orders the
                // consumer's copies out of the arena before any write over
                // them.
                self.spans.clear();
                self.oldest_slot = NO_SLOT;
            }
            let off = self.place(payload.len());
            let dst = self.ring.payload(self.arena, off, payload.len());
            // SAFETY: `[off, off + len)` is inside the arena (checked by
            // `payload`) and holds no payload in flight (the type's proof,
            // checked by `place`); we own the slot (checked above with
            // acquire ordering) and are the only producer.
            unsafe {
                std::ptr::copy_nonoverlapping(payload.as_ptr(), dst, payload.len());
                *self.ring.desc(self.tail).off.get() = off as u32;
            }
            if self.spans.is_empty() {
                self.oldest_slot = self.tail;
            }
            self.spans.push_back((self.tail as u32, self.write as u32));
        }
        let desc = self.ring.desc(self.tail);
        // SAFETY: we own the slot (checked above with acquire ordering).
        unsafe {
            *desc.timestamp.get() = timestamp.as_ps();
            *desc.len.get() = payload.len() as u16;
        }
        desc.publish(ty);
        self.tail = self.ring.next(self.tail);
        self.sent += 1;
        Ok(())
    }

    /// Retire the oldest payload in flight: its bytes, and all before them,
    /// are free.
    fn retire_oldest(&mut self) {
        let (_, end) = self.spans.pop_front().expect("a payload in flight");
        self.oldest = end as usize;
        self.oldest_slot = self
            .spans
            .front()
            .map_or(NO_SLOT, |&(slot, _)| slot as usize);
    }

    /// Take `len` (non-zero) bytes of the arena for the next payload and
    /// return their offset; see the type's doc for why they always fit.
    fn place(&mut self, len: usize) -> usize {
        let span = len.next_multiple_of(PAYLOAD_ALIGN);
        if self.spans.is_empty() {
            // Nothing in flight: start over at the arena's first bytes.
            (self.oldest, self.write) = (0, 0);
        }
        let off = if self.write < self.oldest || self.write + span <= self.arena {
            self.write
        } else {
            0
        };
        // The type's proof, checked: the span overlaps no payload in flight.
        assert!(
            if off < self.oldest {
                off + span <= self.oldest
            } else {
                off + span <= self.arena
            },
            "payload arena overrun"
        );
        self.write = off + span;
        off
    }

    /// Number of messages successfully enqueued so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Whether there is room for at least one more message.
    pub fn can_send(&self) -> bool {
        self.ring.desc(self.tail).producer_owned()
    }

    /// Queue capacity in slots.
    pub fn capacity(&self) -> usize {
        self.ring.len
    }

    /// True once the consumer endpoint has been dropped.
    pub fn peer_closed(&self) -> bool {
        self.ring.consumer_closed().load(Ordering::Relaxed) != 0
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        self.ring.producer_closed().store(1, Ordering::Release);
    }
}

/// Consumer endpoint of an SPSC queue.
pub struct Consumer {
    ring: RingMem,
    /// Bytes of the payload arena.
    arena: usize,
    head: usize,
    received: u64,
    /// Arena for received payloads; replaced by the owning kernel's pool via
    /// [`Consumer::set_pool`] so pool counters aggregate per component.
    pool: BufPool,
}

impl Consumer {
    /// The consumer end of the ring in `mem`, starting at slot 0.
    ///
    /// # Safety
    /// Same contract as [`Producer::over`].
    pub unsafe fn over(mem: RingMem) -> Consumer {
        let (ring, arena) = mem.checked();
        Consumer {
            ring,
            arena,
            head: 0,
            received: 0,
            pool: BufPool::new(),
        }
    }

    /// Install the buffer pool that received payloads are allocated from.
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    /// The buffer pool received payloads are allocated from.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Attempt to dequeue one message, copying it out of the arena into a
    /// pooled buffer (empty payloads — SYNC messages — are allocation-free).
    pub fn try_recv(&mut self) -> Option<OwnedMsg> {
        let desc = self.ring.desc(self.head);
        if !desc.consumer_owned() {
            return None;
        }
        // SAFETY: we own the slot (checked above with acquire ordering) and
        // are the only consumer.
        let msg = unsafe {
            // In a mapped ring the length and offset are input from another
            // process: clamp them, never read outside the arena.
            let len = (*desc.len.get() as usize).min(MAX_PAYLOAD);
            let data = if len == 0 {
                PktBuf::empty()
            } else {
                let off = (*desc.off.get() as usize).min(self.arena - len);
                let src = self.ring.payload(self.arena, off, len);
                // One pooled buffer filled by one copy: the same pool call
                // as `BufPool::copy_from_slice`.
                let mut buf = self.pool.alloc_capacity(len, DEFAULT_HEADROOM);
                buf.extend_with(len, |dst| {
                    std::ptr::copy_nonoverlapping(src, dst.as_mut_ptr(), len)
                });
                buf
            };
            OwnedMsg::new(
                SimTime::from_ps(*desc.timestamp.get()),
                desc.msg_type(),
                data,
            )
        };
        desc.release();
        self.head = self.ring.next(self.head);
        self.received += 1;
        Some(msg)
    }

    /// Peek at the timestamp of the next message without consuming it.
    pub fn peek_timestamp(&self) -> Option<SimTime> {
        let desc = self.ring.desc(self.head);
        if !desc.consumer_owned() {
            return None;
        }
        // SAFETY: as in `try_recv`; the slot stays ours until released.
        let ts = unsafe { *desc.timestamp.get() };
        Some(SimTime::from_ps(ts))
    }

    /// Number of messages dequeued so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True once the producer endpoint has been dropped and no message is
    /// pending.
    pub fn is_drained(&self) -> bool {
        self.peer_closed() && !self.ring.desc(self.head).consumer_owned()
    }

    /// True once the producer endpoint has been dropped.
    pub fn peer_closed(&self) -> bool {
        self.ring.producer_closed().load(Ordering::Acquire) != 0
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.ring.consumer_closed().store(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::MSG_SYNC;

    #[test]
    fn send_recv_roundtrip() {
        let (mut p, mut c) = queue(4);
        assert!(c.try_recv().is_none());
        p.try_send(SimTime::from_ns(1), 3, b"hello").unwrap();
        let m = c.try_recv().unwrap();
        assert_eq!(m.timestamp, SimTime::from_ns(1));
        assert_eq!(m.ty, 3);
        assert_eq!(m.data, b"hello");
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn queue_fills_up_and_drains() {
        let (mut p, mut c) = queue(4);
        for i in 0..4u64 {
            p.try_send(SimTime::from_ns(i), 1, &[i as u8]).unwrap();
        }
        assert_eq!(
            p.try_send(SimTime::from_ns(9), 1, &[]),
            Err(SendError::Full)
        );
        assert!(!p.can_send());
        for i in 0..4u64 {
            let m = c.try_recv().unwrap();
            assert_eq!(m.data, vec![i as u8]);
        }
        assert!(p.can_send());
        p.try_send(SimTime::from_ns(10), 1, &[42]).unwrap();
        assert_eq!(c.try_recv().unwrap().data, vec![42]);
    }

    #[test]
    fn wraparound_preserves_fifo_order() {
        let (mut p, mut c) = queue(3);
        let mut next_send = 0u64;
        let mut next_recv = 0u64;
        for _round in 0..50 {
            while p
                .try_send(SimTime::from_ns(next_send), 2, &next_send.to_le_bytes())
                .is_ok()
            {
                next_send += 1;
            }
            while let Some(m) = c.try_recv() {
                assert_eq!(m.data, next_recv.to_le_bytes());
                assert_eq!(m.timestamp, SimTime::from_ns(next_recv));
                next_recv += 1;
            }
        }
        assert_eq!(next_send, next_recv);
        assert!(next_send >= 100);
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut p, _c) = queue(2);
        let big = [0u8; MAX_PAYLOAD + 1];
        assert_eq!(p.try_send(SimTime::ZERO, 1, &big), Err(SendError::TooLarge));
        let exact = [0u8; MAX_PAYLOAD];
        assert!(p.try_send(SimTime::ZERO, 1, &exact).is_ok());
    }

    #[test]
    fn peek_timestamp_does_not_consume() {
        let (mut p, mut c) = queue(4);
        assert!(c.peek_timestamp().is_none());
        p.try_send(SimTime::from_ns(77), 1, &[]).unwrap();
        assert_eq!(c.peek_timestamp(), Some(SimTime::from_ns(77)));
        assert_eq!(c.peek_timestamp(), Some(SimTime::from_ns(77)));
        assert!(c.try_recv().is_some());
        assert!(c.peek_timestamp().is_none());
    }

    #[test]
    fn disconnect_detection() {
        let (p, c) = queue(4);
        assert!(!c.peer_closed());
        drop(p);
        assert!(c.peer_closed());
        assert!(c.is_drained());

        let (mut p, c) = queue(4);
        drop(c);
        assert_eq!(
            p.try_send(SimTime::ZERO, 1, &[]),
            Err(SendError::Disconnected)
        );
    }

    #[test]
    fn drained_only_after_pending_consumed() {
        let (mut p, mut c) = queue(4);
        p.try_send(SimTime::ZERO, 1, &[1]).unwrap();
        drop(p);
        assert!(!c.is_drained());
        c.try_recv().unwrap();
        assert!(c.is_drained());
    }

    /// Plain memory standing in for a caller-supplied ring block.
    struct Block {
        ptr: NonNull<u8>,
        layout: std::alloc::Layout,
    }

    // Safety: plain memory, reached only through the ring protocol.
    unsafe impl Send for Block {}
    unsafe impl Sync for Block {}

    impl Drop for Block {
        fn drop(&mut self) {
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) }
        }
    }

    /// SYNCs touch descriptors only, and a drained ring starts over at the
    /// arena's first byte: with the arena of a caller-supplied block filled
    /// with `0xAA`, 201 zero-length messages through the ring leave every
    /// arena byte as it was. Two data messages then go to offsets 0 and 320
    /// (300 bytes rounded up to whole cache lines), and once both are
    /// received the next one lands at offset 0 again, although the
    /// descriptor it uses is slot 3.
    #[test]
    fn syncs_touch_only_descriptors() {
        let len = 4;
        let (flags, ring) = (SLOT_ALIGN, ring_bytes(len).unwrap());
        let arena_len = arena_bytes(len).unwrap();
        let layout = std::alloc::Layout::from_size_align(flags + ring, SLOT_ALIGN).unwrap();
        let ptr = NonNull::new(unsafe { std::alloc::alloc_zeroed(layout) }).unwrap();
        let at = |off: usize| unsafe { NonNull::new_unchecked(ptr.as_ptr().add(off)) };
        let arena = at(flags + len * DESC_BYTES).as_ptr();
        unsafe { std::ptr::write_bytes(arena, 0xAA, arena_len) };
        let arena = || unsafe { std::slice::from_raw_parts(arena, arena_len) };
        let mem = RingMem {
            slots: at(flags),
            len,
            producer_closed: at(0).cast(),
            consumer_closed: at(1).cast(),
            owner: Arc::new(Block { ptr, layout }),
        };
        // SAFETY: aligned, zeroed descriptors, kept alive by `owner`, with
        // exactly these two ends on it.
        let (mut p, mut c) = unsafe { (Producer::over(mem.clone()), Consumer::over(mem)) };
        for i in 0..201u64 {
            p.try_send(SimTime::from_ns(i), MSG_SYNC, &[]).unwrap();
            let m = c.try_recv().unwrap();
            assert_eq!((m.timestamp, m.ty), (SimTime::from_ns(i), MSG_SYNC));
            assert!(m.data.is_empty());
        }
        assert!(arena().iter().all(|&b| b == 0xAA), "a SYNC wrote the arena");

        let body =
            |n: usize, seed: usize| -> Vec<u8> { (0..n).map(|i| (i * 7 + seed) as u8).collect() };
        let (m1, m2, m3) = (body(300, 1), body(100, 2), body(40, 3));
        p.try_send(SimTime::ZERO, 1, &m1).unwrap();
        p.try_send(SimTime::ZERO, 1, &m2).unwrap();
        assert_eq!(&arena()[..300], &m1[..], "first message at 0");
        assert_eq!(&arena()[320..420], &m2[..], "second message at 320");
        assert_eq!(c.try_recv().unwrap().data, m1);
        assert_eq!(c.try_recv().unwrap().data, m2);
        // 201 SYNCs and two messages leave the tail at slot 3.
        assert_eq!(p.tail, 3);
        p.try_send(SimTime::ZERO, 1, &m3).unwrap();
        let bytes = arena();
        assert_eq!(&bytes[..40], &m3[..], "drained ring: back to offset 0");
        assert_eq!(&bytes[40..300], &m1[40..], "nothing else written");
        assert_eq!(&bytes[320..420], &m2[..], "nothing else written");
        assert!(bytes[300..320]
            .iter()
            .chain(&bytes[420..])
            .all(|&b| b == 0xAA));
        assert_eq!(c.try_recv().unwrap().data, m3);
    }

    /// A consumer that keeps one message in flight: payloads go FIFO through
    /// the arena and wrap to offset 0 when its end does not fit the next,
    /// and every one arrives intact.
    #[test]
    fn payloads_wrap_around_the_arena() {
        let (mut p, mut c) = queue(2);
        let arena = arena_bytes(2).unwrap();
        let msg = |i: usize| -> Vec<u8> { (0..5000).map(|j| (i * 31 + j) as u8).collect() };
        p.try_send(SimTime::ZERO, 1, &msg(0)).unwrap();
        let mut offs = vec![0];
        for i in 1..20 {
            p.try_send(SimTime::ZERO, 1, &msg(i)).unwrap();
            offs.push(unsafe { *p.ring.desc((p.tail + 1) % 2).off.get() } as usize);
            assert_eq!(c.try_recv().unwrap().data, msg(i - 1), "message {}", i - 1);
        }
        // 5000 bytes take a 5056-byte span: five fit in the 27 648-byte
        // arena, the sixth wraps.
        assert_eq!(&offs[..7], &[0, 5056, 10112, 15168, 20224, 0, 5056]);
        assert!(offs.iter().all(|&o| o + 5000 <= arena));
        assert_eq!(c.try_recv().unwrap().data, msg(19));
    }

    #[test]
    fn cross_thread_transfer() {
        let (mut p, mut c) = queue(8);
        let n = 10_000u64;
        let handle = std::thread::spawn(move || {
            let mut sent = 0u64;
            while sent < n {
                if p.try_send(SimTime::from_ps(sent), 5, &sent.to_le_bytes())
                    .is_ok()
                {
                    sent += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < n {
            match c.try_recv() {
                Some(m) => {
                    assert_eq!(m.data, expect.to_le_bytes());
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        handle.join().unwrap();
    }

    /// Message `i` of `one_line_ring_cross_thread`: every third one a SYNC,
    /// the rest carry 1–4000 bytes that depend on `i`.
    fn line_msg(i: u64) -> (MsgType, Vec<u8>) {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        if i.is_multiple_of(3) {
            return (MSG_SYNC, Vec::new());
        }
        let len = 1 + (h % 4000) as usize;
        let data = (0..len).map(|j| (i as usize ^ j) as u8).collect();
        (1 + (h % 127) as MsgType, data)
    }

    /// Four slots: all four descriptors share one cache line, so producer
    /// and consumer on two threads write neighbouring descriptors of the
    /// same line all the time. Every message arrives whole and in order.
    #[test]
    fn one_line_ring_cross_thread() {
        let (mut p, mut c) = queue(4);
        let n = 100_000u64;
        let handle = std::thread::spawn(move || {
            for i in 0..n {
                let (ty, data) = line_msg(i);
                while p.try_send(SimTime::from_ps(3 * i), ty, &data).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..n {
            let m = loop {
                match c.try_recv() {
                    Some(m) => break m,
                    None => std::thread::yield_now(),
                }
            };
            let (ty, data) = line_msg(i);
            assert_eq!(m.timestamp, SimTime::from_ps(3 * i), "message {i}");
            assert_eq!(m.ty, ty, "message {i}");
            assert!(m.data == data[..], "message {i}: payload differs");
        }
        handle.join().unwrap();
        assert!(c.try_recv().is_none());
    }
}
