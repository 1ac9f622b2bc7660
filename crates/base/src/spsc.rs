//! Single-producer / single-consumer message queue (§5.2, §A.2).
//!
//! The queue is a circular array of fixed-size slots. The producer keeps the
//! tail index locally, the consumer keeps the head index locally; the only
//! shared state is the per-slot control byte and payload, which minimizes
//! cache coherence traffic. This mirrors the shared-memory queue layout of
//! the original SimBricks implementation.
//!
//! Ring memory holds `len` 16-byte descriptors (`crate::slot`: control
//! byte, length, timestamp), then `len` heads of 1 KiB, then `len` tails of
//! 8 KiB: together a slot's head and tail hold [`MAX_PAYLOAD`] bytes. A
//! message's first KiB goes to its slot's head, any rest to its slot's tail:
//!
//! ```text
//! +0                      descriptor 0 | descriptor 1 | … | descriptor len-1
//! +len * 16               head 0       | head 1       | … | head len-1
//! +len * (16 + 1024)      tail 0       | tail 1       | … | tail len-1
//! +len * SLOT_BYTES       end
//! ```
//!
//! Four descriptors share a 64-byte cache line, so a default 64-slot ring's
//! descriptors fit in 1 KiB, and four heads share a page, so its heads fit
//! in 16 pages. A SYNC reads and writes its descriptor only; a data message
//! of at most 1 KiB also touches the first `len` bytes of its head, and
//! only a longer one reaches its tail. Memory no message has used is never
//! written, so an untouched page of a zeroed block is never made resident:
//! a busy ring of small messages keeps 16 payload pages resident, not one
//! (or more) per slot.
//!
//! There is one ring and two backings, both mappings from
//! [`crate::pages`]. [`queue`] places the ring in a private zeroed mapping
//! shared by two threads; [`Producer::over`] / [`Consumer::over`] place one
//! end on ring memory the caller supplies ([`RingMem`]) — the runner's
//! shared file mapping for a link between two processes. Both run the same
//! code on the same layout: a block whose descriptors are all zero is an
//! empty ring whose slots all belong to the producer.

use std::any::Any;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::pages::Pages;
use crate::pktbuf::{BufPool, PktBuf, DEFAULT_HEADROOM};
use crate::slot::{MsgType, OwnedMsg, SlotDesc, DESC_BYTES, MAX_PAYLOAD};
use crate::time::SimTime;

/// Default number of slots per unidirectional queue.
pub const DEFAULT_QUEUE_LEN: usize = 64;

/// Bytes one slot occupies in ring memory: its descriptor, its head and its
/// tail.
pub const SLOT_BYTES: usize = DESC_BYTES + MAX_PAYLOAD;
/// Alignment ring memory must have.
pub const SLOT_ALIGN: usize = std::mem::align_of::<SlotDesc>();

/// Cache line size the layout keeps heads and tails aligned to (ring
/// memory starts on a page).
const CACHE_LINE: usize = 64;

/// Bytes of each payload packed into its slot's head; the rest, up to
/// [`MAX_PAYLOAD`], goes to its slot's tail.
///
/// A busy ring's tail index visits every slot, so every slot's payload
/// memory a message writes becomes resident. With one 9 216-byte area per
/// slot, each small message made a page resident for itself; packed heads
/// put four slots' first KiB in one page. Ring payload pages made resident
/// in one run of each workload, by head size (the 128-host fat-tree's
/// average data message is 169 B):
///
/// | head size       | `fattree128_hier` ring payload MiB |
/// |-----------------|------------------------------------|
/// | none (one area) | 102                                |
/// | 512             | 47                                 |
/// | 1024            | 30                                 |
/// | 1536            | 43                                 |
///
/// At 1024, `scaleup_udp` goes from 17 to 4 MiB, `racks_inproc` from 17 to
/// 4 MiB and `dctcp_bulk` (4 000-byte frames) from 6 to 4 MiB.
const HEAD_BYTES: usize = 1024;
/// Bytes of each slot's tail.
const TAIL_BYTES: usize = MAX_PAYLOAD - HEAD_BYTES;

// Four descriptors to a line, and heads and tails on line boundaries
// whenever the descriptors fill whole lines (`len` a multiple of four, as
// the default length is).
const _: () = assert!(CACHE_LINE.is_multiple_of(DESC_BYTES));
const _: () = assert!(HEAD_BYTES.is_multiple_of(CACHE_LINE));
const _: () = assert!(TAIL_BYTES.is_multiple_of(CACHE_LINE));

/// The memory one ring lives in, as one of its ends sees it.
#[derive(Clone)]
pub struct RingMem {
    /// `len * SLOT_BYTES` bytes, [`SLOT_ALIGN`]-aligned: the descriptors,
    /// then the heads, then the tails.
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
    fn checked(self) -> Self {
        assert!(self.len >= 2, "queue needs at least two slots");
        assert_eq!(
            self.slots.as_ptr() as usize % SLOT_ALIGN,
            0,
            "ring memory misaligned"
        );
        self
    }

    #[inline]
    fn desc(&self, idx: usize) -> &SlotDesc {
        assert!(idx < self.len);
        // SAFETY: in bounds (checked above), and the constructors' contract
        // makes the start of `slots` a live `[SlotDesc; len]`.
        unsafe { &*self.slots.cast::<SlotDesc>().as_ptr().add(idx) }
    }

    /// The `HEAD_BYTES`-byte head of slot `idx`, after all the descriptors.
    #[inline]
    fn payload_head(&self, idx: usize) -> *mut u8 {
        assert!(idx < self.len);
        // SAFETY: in bounds of the `len * SLOT_BYTES` block (constructors'
        // contract).
        unsafe {
            self.slots
                .as_ptr()
                .add(self.len * DESC_BYTES + idx * HEAD_BYTES)
        }
    }

    /// The `TAIL_BYTES`-byte tail of slot `idx`, after all the heads.
    #[inline]
    fn payload_tail(&self, idx: usize) -> *mut u8 {
        assert!(idx < self.len);
        // SAFETY: as above.
        unsafe {
            self.slots
                .as_ptr()
                .add(self.len * (DESC_BYTES + HEAD_BYTES) + idx * TAIL_BYTES)
        }
    }

    #[inline]
    fn next(&self, idx: usize) -> usize {
        if idx + 1 == self.len {
            0
        } else {
            idx + 1
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
    let bytes = len.checked_mul(SLOT_BYTES).expect("queue length too large");
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
    // SAFETY: `slots` starts `len * SLOT_BYTES` zeroed, page-aligned bytes
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

/// Producer endpoint of an SPSC queue.
pub struct Producer {
    ring: RingMem,
    tail: usize,
    sent: u64,
}

impl Producer {
    /// The producer end of the ring in `mem`, starting at slot 0.
    ///
    /// # Safety
    /// `mem.slots` must point to `mem.len * SLOT_BYTES` bytes aligned to
    /// [`SLOT_ALIGN`] whose `mem.len` descriptors are zero-initialised
    /// (every slot producer-owned: both ends start at slot 0, so memory a
    /// ring has already run on will not do; the heads and tails may hold
    /// anything), and all three pointers must stay valid while `mem.owner`
    /// lives.
    /// System-wide — across every process that maps the memory — there must
    /// be at most this one producer and one consumer on it.
    pub unsafe fn over(mem: RingMem) -> Producer {
        Producer {
            ring: mem.checked(),
            tail: 0,
            sent: 0,
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
        let desc = self.ring.desc(self.tail);
        if !desc.producer_owned() {
            return Err(SendError::Full);
        }
        let (head, rest) = payload.split_at(payload.len().min(HEAD_BYTES));
        // SAFETY: we own the slot (checked above with acquire ordering) and
        // are the only producer; `head` fits the slot's head and `rest` its
        // tail (length checked above). An empty payload copies nothing, so a
        // SYNC touches neither, and one of at most `HEAD_BYTES` never
        // touches the tail.
        unsafe {
            *desc.timestamp.get() = timestamp.as_ps();
            *desc.len.get() = payload.len() as u32;
            let dst = self.ring.payload_head(self.tail);
            std::ptr::copy_nonoverlapping(head.as_ptr(), dst, head.len());
            if !rest.is_empty() {
                let dst = self.ring.payload_tail(self.tail);
                std::ptr::copy_nonoverlapping(rest.as_ptr(), dst, rest.len());
            }
        }
        desc.publish(ty);
        self.tail = self.ring.next(self.tail);
        self.sent += 1;
        Ok(())
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
        Consumer {
            ring: mem.checked(),
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

    /// Attempt to dequeue one message, copying it out of the slot into a
    /// pooled buffer (empty payloads — SYNC messages — are allocation-free).
    pub fn try_recv(&mut self) -> Option<OwnedMsg> {
        let desc = self.ring.desc(self.head);
        if !desc.consumer_owned() {
            return None;
        }
        // SAFETY: we own the slot (checked above with acquire ordering) and
        // are the only consumer.
        let msg = unsafe {
            // In a mapped ring the length is input from another process:
            // clamp it, never read past the slot's tail.
            let len = (*desc.len.get() as usize).min(MAX_PAYLOAD);
            let data = if len == 0 {
                PktBuf::empty()
            } else {
                let split = len.min(HEAD_BYTES);
                let src_head = self.ring.payload_head(self.head);
                let src_tail = self.ring.payload_tail(self.head);
                // One pooled buffer filled from both parts: the same pool
                // call as `BufPool::copy_from_slice`.
                let mut buf = self.pool.alloc_capacity(len, DEFAULT_HEADROOM);
                buf.extend_with(len, |dst| {
                    let (head, rest) = dst.split_at_mut(split);
                    std::ptr::copy_nonoverlapping(src_head, head.as_mut_ptr(), split);
                    if !rest.is_empty() {
                        std::ptr::copy_nonoverlapping(src_tail, rest.as_mut_ptr(), rest.len());
                    }
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

    /// SYNCs touch descriptors only: with the heads and tails of a
    /// caller-supplied block filled with `0xAA`, 200 zero-length messages
    /// through the ring leave every payload byte as it was. A data message
    /// then fills its slot's head before it reaches its slot's tail.
    #[test]
    fn syncs_touch_only_descriptors() {
        let len = 4;
        let (flags, ring_bytes) = (SLOT_ALIGN, len * SLOT_BYTES);
        let layout = std::alloc::Layout::from_size_align(flags + ring_bytes, SLOT_ALIGN).unwrap();
        let ptr = NonNull::new(unsafe { std::alloc::alloc_zeroed(layout) }).unwrap();
        let at = |off: usize| unsafe { NonNull::new_unchecked(ptr.as_ptr().add(off)) };
        let areas = at(flags + len * DESC_BYTES).as_ptr();
        unsafe { std::ptr::write_bytes(areas, 0xAA, len * MAX_PAYLOAD) };
        let payload_areas = || unsafe { std::slice::from_raw_parts(areas, len * MAX_PAYLOAD) };
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
        assert!(
            payload_areas().iter().all(|&b| b == 0xAA),
            "a SYNC wrote a head or a tail"
        );
        // 201 SYNCs leave the tail at slot 1, so the data message's head is
        // not the first one in memory, nor its tail the first tail.
        let slot = 201 % len;
        assert_eq!(slot, 1);
        let msg: Vec<u8> = (0..HEAD_BYTES + 3).map(|i| (i % 251) as u8).collect();
        p.try_send(SimTime::ZERO, 1, &msg).unwrap();
        let head = slot * HEAD_BYTES..(slot + 1) * HEAD_BYTES;
        let tail_start = len * HEAD_BYTES + slot * TAIL_BYTES;
        let tail = tail_start..tail_start + 3;
        let bytes = payload_areas();
        assert_eq!(&bytes[head.clone()], &msg[..HEAD_BYTES], "head 1");
        assert_eq!(&bytes[tail.clone()], &msg[HEAD_BYTES..], "tail 1");
        for (i, &b) in bytes.iter().enumerate() {
            if !head.contains(&i) && !tail.contains(&i) {
                assert_eq!(b, 0xAA, "payload byte {i} written");
            }
        }
        assert_eq!(c.try_recv().unwrap().data, msg);
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
