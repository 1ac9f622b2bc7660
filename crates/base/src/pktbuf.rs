//! Pooled, reference-counted packet buffers.
//!
//! The per-message cost that dominates a steady-state SimBricks run is not
//! simulation logic but allocator traffic: every hop used to heap-allocate a
//! fresh `Vec<u8>`, copy the payload into it, and free it a few nanoseconds
//! later. [`PktBuf`] replaces that with segments of a few fixed size classes
//! (256 B, 2 KiB and [`SEG_CAPACITY`], headroom included) recycled through
//! one freelist per class:
//!
//! * **alloc** pops a ready-to-use segment of the smallest class that holds
//!   the requested size off the current thread's freelist for that class (a
//!   *hit*); only a cold freelist pays for a real heap allocation (a
//!   *miss*). Size-blind allocations ([`BufPool::alloc`]) take the largest
//!   class; the hot paths (ring receive, frame builders, PCIe encoders) pass
//!   the exact size,
//! * **clone** is a reference-count bump — a switch flooding a frame to N
//!   ports performs N pointer copies, zero byte copies,
//! * **drop** of the last reference pushes the segment back onto its class's
//!   freelist instead of freeing it — no locks, no atomic read-modify-writes,
//! * segments carry **headroom** so protocol code can prepend Ethernet/IP/TCP
//!   headers in place, and **tailroom** so GRO-style coalescing can extend a
//!   buffer without reallocating (growing past a small segment's tailroom
//!   moves the bytes to the next class that fits),
//! * payloads larger than [`SEG_CAPACITY`] fall back to a plain heap
//!   allocation (a *fallback*), so jumbo paths stay correct, just not pooled.
//!
//! The freelists are **thread-local** (segments allocated and dropped on the
//! same thread — the overwhelmingly common case, since each kernel runs on
//! one thread at a time — never touch shared state), while each [`BufPool`]
//! handle carries its own hit/miss/fallback counters so allocator behaviour
//! is attributable per component in
//! [`KernelStats`](crate::stats::KernelStats).
//!
//! Buffer pooling is invisible to simulation results: it changes where bytes
//! live, never what they contain or when they are delivered, so determinism
//! (§7.6) is unaffected. Snapshots serialize buffer *contents*; a restored
//! buffer is rebuilt as a fresh (heap-backed) segment with identical bytes.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Capacity in bytes of the largest pooled segment: a jumbo slot payload
/// ([`crate::slot::MAX_PAYLOAD`] = 9216 B) plus [`DEFAULT_HEADROOM`], so any
/// message that fits a queue slot can be received into a pooled segment with
/// full headroom intact. Requests whose size is known take the smallest of
/// three segment classes (256 B, 2 KiB, this) that holds them.
pub const SEG_CAPACITY: usize = 9216 + DEFAULT_HEADROOM;

/// Default headroom reserved at the front of a freshly allocated segment:
/// enough for Ethernet (14 B) + IPv4 (20 B) + TCP with options (60 B), with
/// slack for encapsulation experiments.
pub const DEFAULT_HEADROOM: usize = 128;

/// Segment size classes in bytes, headroom included, smallest first. A
/// request whose size is known takes the smallest class that holds it: 256 B
/// for PCIe control messages and minimum-size frames, 2 KiB for a 1500-MTU
/// frame with headroom, [`SEG_CAPACITY`] for jumbo frames. A segment never
/// changes class, so the storage length alone says where it recycles to.
const CLASSES: [usize; 3] = [256, 2048, SEG_CAPACITY];

/// Index of the [`SEG_CAPACITY`] class, which size-blind allocations take.
const JUMBO: usize = CLASSES.len() - 1;

/// Bound on the bytes of segments held per thread in each class's freelist:
/// 256 jumbo segments, and as many bytes of each smaller class (9 344 of
/// 256 B, 1 168 of 2 KiB). Bounding bytes rather than segments lets a small
/// class hold as many buffers as a busy thread keeps live (the fat-tree
/// peaks at about 2 600 live 256-byte segments). Segments released beyond
/// the bound are genuinely freed, so idle threads shrink back (at most
/// ~6.8 MiB of held segments per thread, ~2.3 MiB per class).
const MAX_FREE_BYTES_PER_CLASS: usize = 256 * SEG_CAPACITY;

/// Segments a thread's freelist of `class` holds at most.
const fn max_free(class: usize) -> usize {
    MAX_FREE_BYTES_PER_CLASS / CLASSES[class]
}

thread_local! {
    /// Per-thread freelists of ready-to-reuse segments, one per class.
    /// Thread-local by design: the recycle path is a plain `Vec` push with
    /// zero atomics.
    static FREELISTS: RefCell<[Vec<Arc<Seg>>; CLASSES.len()]> =
        const { RefCell::new([const { Vec::new() }; CLASSES.len()]) };
    /// Segments recycled on this thread so far (telemetry).
    static RECYCLED: Cell<u64> = const { Cell::new(0) };
}

/// The smallest class whose segments hold `bytes` (data plus headroom).
fn class_for(bytes: usize) -> Option<usize> {
    CLASSES.iter().position(|&c| bytes <= c)
}

/// Pop a unique, ready segment of `class` off the current thread's freelist.
fn freelist_pop(class: usize) -> Option<Arc<Seg>> {
    FREELISTS.with(|f| f.borrow_mut()[class].pop())
}

/// Park a unique segment on its class's freelist (or free it when the list
/// is at capacity).
fn freelist_push(class: usize, seg: Arc<Seg>) {
    FREELISTS.with(|f| {
        let v = &mut f.borrow_mut()[class];
        if v.len() < max_free(class) {
            v.push(seg);
            RECYCLED.with(|r| r.set(r.get() + 1));
        }
        // else: drop here — the storage is genuinely freed.
    });
}

/// Counters describing a [`BufPool`]'s allocator behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from the freelist (no heap traffic).
    pub hits: u64,
    /// Allocations that had to create a fresh segment (cold freelist).
    pub misses: u64,
    /// Allocations that exceeded [`SEG_CAPACITY`] and fell back to a plain
    /// heap buffer (never pooled).
    pub fallbacks: u64,
    /// Segments recycled into the freelist on drop — on the calling thread
    /// (freelists are thread-local).
    pub recycled: u64,
    /// Segments currently held in the calling thread's freelists, all
    /// classes together (instantaneous occupancy).
    pub free: u64,
}

impl PoolStats {
    /// Fraction of pooled allocations served from the freelist, in `0..=1`.
    /// 1.0 when no allocation happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct PoolCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

/// Relaxed load+store increment: a pool is used by one thread at a time (a
/// kernel's pool migrates with the kernel, with happens-before provided by
/// the executor handoff), so counters avoid the much costlier atomic
/// read-modify-write. Under exotic concurrent sharing this can undercount —
/// counters are telemetry, never correctness.
#[inline]
fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// A handle onto the packet-buffer arena, carrying per-component allocation
/// counters. Cloning the handle shares the counters; each kernel owns one
/// handle (shared by all its ports), so allocator behaviour lands in that
/// component's [`KernelStats`](crate::stats::KernelStats). The backing
/// freelist itself is per-thread and shared by all pools on that thread.
#[derive(Clone)]
pub struct BufPool {
    counters: Arc<PoolCounters>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for BufPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufPool {
    /// A new counter scope over the thread-local arena.
    pub fn new() -> Self {
        BufPool {
            counters: Arc::new(PoolCounters {
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                fallbacks: AtomicU64::new(0),
            }),
        }
    }

    /// Snapshot of this handle's counters plus the calling thread's freelist
    /// occupancy.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
            recycled: RECYCLED.with(|r| r.get()),
            free: FREELISTS.with(|f| f.borrow().iter().map(Vec::len).sum::<usize>()) as u64,
        }
    }

    /// An empty buffer over a unique segment of `class`, popped off the
    /// freelist (hit) or created (miss), with `headroom` bytes in front.
    fn take(&self, class: usize, headroom: usize) -> PktBuf {
        let seg = match freelist_pop(class) {
            Some(seg) => {
                bump(&self.counters.hits);
                debug_assert_eq!(Arc::strong_count(&seg), 1);
                seg
            }
            None => {
                bump(&self.counters.misses);
                new_seg(class)
            }
        };
        PktBuf {
            seg: Some(seg),
            off: headroom as u32,
            len: 0,
        }
    }

    /// An empty [`SEG_CAPACITY`] buffer with `headroom` bytes reserved at the
    /// front.
    pub fn alloc_headroom(&self, headroom: usize) -> PktBuf {
        self.take(JUMBO, headroom.min(SEG_CAPACITY))
    }

    /// An empty [`SEG_CAPACITY`] buffer with [`DEFAULT_HEADROOM`] reserved.
    pub fn alloc(&self) -> PktBuf {
        self.alloc_headroom(DEFAULT_HEADROOM)
    }

    /// An empty buffer able to hold at least `capacity` bytes: a segment of
    /// the smallest class that also holds `headroom` (a jumbo segment with
    /// less headroom when none does), otherwise a heap fallback (counted).
    pub fn alloc_capacity(&self, capacity: usize, headroom: usize) -> PktBuf {
        if let Some(class) = class_for(capacity.saturating_add(headroom)) {
            self.take(class, headroom)
        } else if capacity <= SEG_CAPACITY {
            self.take(JUMBO, SEG_CAPACITY - capacity)
        } else {
            bump(&self.counters.fallbacks);
            PktBuf::heap_with_capacity(capacity + headroom, headroom)
        }
    }

    /// Copy `data` into a pooled buffer (heap fallback for jumbo payloads).
    pub fn copy_from_slice(&self, data: &[u8]) -> PktBuf {
        let mut b = self.alloc_capacity(data.len(), DEFAULT_HEADROOM);
        b.extend_from_slice(data);
        b
    }
}

fn new_seg(class: usize) -> Arc<Seg> {
    Arc::new(Seg {
        storage: vec![0u8; CLASSES[class]].into_boxed_slice(),
    })
}

/// Refcounted segment storage. While held in a thread's freelist the list
/// holds the only reference; while in flight, every [`PktBuf`] clone shares
/// one `Arc`. A segment is recyclable iff its storage length is one of the
/// [`CLASSES`] (heap fallbacks and `from_vec` wrappers of other sizes are
/// simply freed).
struct Seg {
    storage: Box<[u8]>,
}

/// A cheaply clonable, pool-backed byte buffer with headroom and tailroom.
///
/// `PktBuf` dereferences to `[u8]`, so read paths treat it exactly like a
/// byte slice. Clones share the underlying segment (refcount bump); mutation
/// through [`PktBuf::make_mut`], [`PktBuf::prepend`] or
/// [`PktBuf::extend_from_slice`] is in-place while the buffer is uniquely
/// owned and degrades to copy-on-write when shared.
pub struct PktBuf {
    /// `None` encodes the empty buffer (no allocation — SYNC messages are the
    /// most frequent payloads in a synchronized run).
    seg: Option<Arc<Seg>>,
    off: u32,
    len: u32,
}

impl PktBuf {
    /// The empty buffer. Allocation-free.
    pub const fn empty() -> PktBuf {
        PktBuf {
            seg: None,
            off: 0,
            len: 0,
        }
    }

    /// An empty buffer of at least `capacity` bytes behind `headroom`: a
    /// recycled (or new) segment of the smallest class that holds both, else
    /// a heap buffer. No pool handle, so nothing is counted.
    fn with_capacity(capacity: usize, headroom: usize) -> PktBuf {
        match class_for(capacity.saturating_add(headroom)) {
            Some(class) => PktBuf {
                seg: Some(freelist_pop(class).unwrap_or_else(|| new_seg(class))),
                off: headroom as u32,
                len: 0,
            },
            None => PktBuf::heap_with_capacity(capacity + headroom, headroom),
        }
    }

    fn heap_with_capacity(capacity: usize, headroom: usize) -> PktBuf {
        PktBuf {
            seg: Some(Arc::new(Seg {
                storage: vec![0u8; capacity.max(1)].into_boxed_slice(),
            })),
            off: headroom.min(capacity) as u32,
            len: 0,
        }
    }

    /// Wrap an existing vector without copying (heap-backed, not pooled).
    pub fn from_vec(v: Vec<u8>) -> PktBuf {
        if v.is_empty() {
            return PktBuf::empty();
        }
        let len = v.len() as u32;
        PktBuf {
            seg: Some(Arc::new(Seg {
                storage: v.into_boxed_slice(),
            })),
            off: 0,
            len,
        }
    }

    /// Number of readable bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the buffer holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The readable bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.seg {
            Some(s) => &s.storage[self.off as usize..(self.off + self.len) as usize],
            None => &[],
        }
    }

    /// Bytes available in front of the data for in-place [`PktBuf::prepend`].
    pub fn headroom(&self) -> usize {
        self.off as usize
    }

    /// Bytes available behind the data for in-place
    /// [`PktBuf::extend_from_slice`].
    pub fn tailroom(&self) -> usize {
        match &self.seg {
            Some(s) => s.storage.len() - (self.off + self.len) as usize,
            None => 0,
        }
    }

    /// Whether this buffer is the only reference to its segment (mutation is
    /// in-place; a shared buffer copies on write).
    pub fn is_unique(&self) -> bool {
        match &self.seg {
            Some(s) => Arc::strong_count(s) == 1,
            None => true,
        }
    }

    /// A sub-view of `self` covering `start..end` (refcount bump, no copy).
    pub fn slice(&self, start: usize, end: usize) -> PktBuf {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        if start == end {
            return PktBuf::empty();
        }
        PktBuf {
            seg: self.seg.clone(),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    /// Mutable access to the readable bytes, copying into a fresh segment
    /// first if the buffer is shared (copy-on-write).
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.len == 0 {
            return &mut [];
        }
        if !self.is_unique() {
            self.reallocate(self.len(), self.headroom());
        }
        let off = self.off as usize;
        let len = self.len as usize;
        let seg = Arc::get_mut(self.seg.as_mut().expect("non-empty buffer has a segment"))
            .expect("buffer was made unique above");
        &mut seg.storage[off..off + len]
    }

    /// Append `data`, in place when uniquely owned with enough tailroom,
    /// otherwise relocating into a larger (pooled when possible) segment.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.extend_with(data.len(), |dst| dst.copy_from_slice(data));
    }

    /// Append `n` bytes produced by `fill` (which receives the tail region):
    /// the one-copy path for reading out of raw memory (mmap regions, guest
    /// memory) straight into a pooled buffer.
    pub fn extend_with(&mut self, n: usize, fill: impl FnOnce(&mut [u8])) {
        if n == 0 {
            return;
        }
        if self.seg.is_none() {
            // Empty buffer: materialize a segment (pooled callers allocate
            // via `BufPool::alloc*`).
            *self = PktBuf::with_capacity(n, DEFAULT_HEADROOM);
        }
        if !self.is_unique() || self.tailroom() < n {
            let need = self.len() + n;
            self.reallocate(need, self.headroom().min(DEFAULT_HEADROOM));
        }
        let off = self.off as usize;
        let len = self.len as usize;
        let seg = Arc::get_mut(self.seg.as_mut().expect("segment present"))
            .expect("unique after reallocate");
        fill(&mut seg.storage[off + len..off + len + n]);
        self.len += n as u32;
    }

    /// Prepend `data` in front of the current bytes, in place when uniquely
    /// owned with enough headroom, otherwise relocating.
    pub fn prepend(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if self.seg.is_none() || !self.is_unique() || self.headroom() < data.len() {
            let mut fresh = PktBuf::empty();
            fresh.extend_with(data.len() + self.len(), |dst| {
                dst[..data.len()].copy_from_slice(data);
                dst[data.len()..].copy_from_slice(self.as_slice());
            });
            *self = fresh;
            return;
        }
        let off = self.off as usize - data.len();
        let seg = Arc::get_mut(self.seg.as_mut().expect("segment present"))
            .expect("unique checked above");
        seg.storage[off..off + data.len()].copy_from_slice(data);
        self.off = off as u32;
        self.len += data.len() as u32;
    }

    /// Keep only the first `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = len as u32;
        }
    }

    /// Drop the first `n` bytes (view adjustment, no copy).
    pub fn advance(&mut self, n: usize) {
        let n = n.min(self.len()) as u32;
        self.off += n;
        self.len -= n;
    }

    /// Copy the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Move the data into a new segment of at least `capacity` bytes with
    /// `headroom` in front, recycling a thread-local segment of the smallest
    /// class that fits.
    fn reallocate(&mut self, capacity: usize, headroom: usize) {
        let mut fresh = PktBuf::with_capacity(capacity, headroom);
        fresh.extend_from_slice(self.as_slice());
        *self = fresh;
    }
}

impl Drop for PktBuf {
    fn drop(&mut self) {
        if let Some(seg) = self.seg.take() {
            // Fast path: last reference to a class-size segment — park the
            // whole `Arc` (storage included) in its class's freelist instead
            // of freeing it. `strong_count == 1` is definitive: we hold the
            // only handle.
            if Arc::strong_count(&seg) == 1 {
                if let Some(class) = CLASSES.iter().position(|&c| c == seg.storage.len()) {
                    freelist_push(class, seg);
                }
            }
        }
    }
}

impl Clone for PktBuf {
    fn clone(&self) -> Self {
        PktBuf {
            seg: self.seg.clone(),
            off: self.off,
            len: self.len,
        }
    }
}

impl Default for PktBuf {
    fn default() -> Self {
        PktBuf::empty()
    }
}

impl Deref for PktBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PktBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PktBuf({} B", self.len())?;
        if self.len() <= 16 {
            write!(f, ": {:02x?}", self.as_slice())?;
        }
        write!(f, ")")
    }
}

impl From<Vec<u8>> for PktBuf {
    fn from(v: Vec<u8>) -> Self {
        PktBuf::from_vec(v)
    }
}

impl From<&[u8]> for PktBuf {
    fn from(s: &[u8]) -> Self {
        let mut b = PktBuf::empty();
        b.extend_from_slice(s);
        b
    }
}

impl<const N: usize> From<&[u8; N]> for PktBuf {
    fn from(s: &[u8; N]) -> Self {
        PktBuf::from(&s[..])
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for PktBuf {}

impl PartialEq<[u8]> for PktBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for PktBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for PktBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<PktBuf> for Vec<u8> {
    fn eq(&self, other: &PktBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for PktBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for PktBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Segments held in each class's freelist on this thread.
    fn free_per_class() -> [usize; CLASSES.len()] {
        FREELISTS.with(|f| f.borrow().each_ref().map(Vec::len))
    }

    /// Storage length of the segment under `b` (0 for the empty buffer).
    fn seg_len(b: &PktBuf) -> usize {
        b.seg.as_ref().map_or(0, |s| s.storage.len())
    }

    #[test]
    fn empty_buffer_is_allocation_free() {
        let b = PktBuf::empty();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[] as &[u8]);
        let c = b.clone();
        assert_eq!(c, b);
    }

    #[test]
    fn pool_recycles_segments() {
        let pool = BufPool::new();
        let free0 = pool.stats().free;
        let a = pool.copy_from_slice(b"hello");
        let (h0, m0) = (pool.stats().hits, pool.stats().misses);
        assert_eq!(h0 + m0, 1, "exactly one allocation so far");
        drop(a);
        assert_eq!(pool.stats().free, free0 + 1, "segment held on drop");
        let b = pool.copy_from_slice(b"world");
        assert_eq!(pool.stats().hits, h0 + 1, "second allocation reuses it");
        assert_eq!(pool.stats().free, free0);
        assert_eq!(b, b"world");
    }

    #[test]
    fn clone_shares_and_last_drop_recycles() {
        let pool = BufPool::new();
        let a = pool.copy_from_slice(&[1, 2, 3]);
        let free_live = pool.stats().free;
        let b = a.clone();
        let c = b.clone();
        assert!(!a.is_unique());
        drop(a);
        drop(b);
        assert_eq!(
            pool.stats().free,
            free_live,
            "live reference keeps the segment"
        );
        assert_eq!(c, [1, 2, 3]);
        drop(c);
        assert_eq!(pool.stats().free, free_live + 1, "last drop recycles");
    }

    #[test]
    fn headroom_prepend_in_place() {
        let pool = BufPool::new();
        let mut b = pool.copy_from_slice(b"payload");
        assert_eq!(b.headroom(), DEFAULT_HEADROOM);
        let allocs = pool.stats().hits + pool.stats().misses;
        b.prepend(b"hdr:");
        assert_eq!(b, b"hdr:payload");
        assert_eq!(b.headroom(), DEFAULT_HEADROOM - 4);
        assert_eq!(
            pool.stats().hits + pool.stats().misses,
            allocs,
            "prepend with headroom does not reallocate"
        );
    }

    #[test]
    fn prepend_on_shared_buffer_copies_on_write() {
        let pool = BufPool::new();
        let mut a = pool.copy_from_slice(b"data");
        let b = a.clone();
        a.prepend(b"x");
        assert_eq!(a, b"xdata");
        assert_eq!(b, b"data", "shared clone unaffected");
    }

    #[test]
    fn extend_uses_tailroom_then_grows() {
        let pool = BufPool::new();
        let mut b = pool.alloc();
        b.extend_from_slice(&[7u8; 100]);
        assert_eq!(b.len(), 100);
        assert_eq!(b.tailroom(), SEG_CAPACITY - DEFAULT_HEADROOM - 100);
        // Exceeding segment capacity falls back to the heap.
        let big = vec![9u8; SEG_CAPACITY + 1];
        let mut j = pool.copy_from_slice(&big);
        assert_eq!(pool.stats().fallbacks, 1);
        assert_eq!(j.len(), big.len());
        j.extend_from_slice(&[1]);
        assert_eq!(j.len(), big.len() + 1);
        assert_eq!(&j[big.len()..], &[1]);
    }

    #[test]
    fn slice_is_a_zero_copy_view() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(b"abcdefgh");
        let s = b.slice(2, 6);
        assert_eq!(s, b"cdef");
        assert!(!b.is_unique(), "slice shares the segment");
        let empty = b.slice(3, 3);
        assert!(empty.is_empty());
    }

    #[test]
    fn make_mut_copy_on_write_isolates_clones() {
        let pool = BufPool::new();
        let mut a = pool.copy_from_slice(&[1, 2, 3, 4]);
        let b = a.clone();
        a.make_mut()[0] = 99;
        assert_eq!(a, [99, 2, 3, 4]);
        assert_eq!(b, [1, 2, 3, 4]);
        // Unique mutation is in place (no new allocations).
        let before = pool.stats().hits + pool.stats().misses;
        a.make_mut()[1] = 98;
        assert_eq!(pool.stats().hits + pool.stats().misses, before);
    }

    #[test]
    fn truncate_and_advance_adjust_the_view() {
        let pool = BufPool::new();
        let mut b = pool.copy_from_slice(b"0123456789");
        b.advance(3);
        assert_eq!(b, b"3456789");
        b.truncate(4);
        assert_eq!(b, b"3456");
        b.advance(100);
        assert!(b.is_empty());
    }

    #[test]
    fn from_vec_is_zero_copy_and_not_recycled() {
        let pool = BufPool::new();
        let free0 = pool.stats().free;
        let v = vec![5u8; 32];
        let b = PktBuf::from_vec(v.clone());
        assert_eq!(b, v);
        drop(b);
        assert_eq!(
            pool.stats().free,
            free0,
            "odd-size heap buffers never enter the freelist"
        );
    }

    #[test]
    fn freelist_is_bounded_per_thread() {
        let bufs: Vec<PktBuf> = {
            let pool = BufPool::new();
            CLASSES
                .iter()
                .enumerate()
                .flat_map(|(class, &c)| {
                    let pool = &pool;
                    (0..max_free(class) + 50).map(move |i| {
                        pool.copy_from_slice(&vec![(i % 251) as u8; c - DEFAULT_HEADROOM])
                    })
                })
                .collect()
        };
        for (class, &c) in CLASSES.iter().enumerate() {
            let n = bufs.iter().filter(|b| seg_len(b) == c).count();
            assert_eq!(n, max_free(class) + 50, "class {class} allocated");
        }
        drop(bufs);
        for (class, free) in free_per_class().into_iter().enumerate() {
            assert_eq!(free, max_free(class), "class {class} freelist bounded");
            assert!(free * CLASSES[class] <= MAX_FREE_BYTES_PER_CLASS);
        }
        assert_eq!(max_free(JUMBO), 256, "the jumbo bound is unchanged");
    }

    #[test]
    fn smallest_class_that_holds_size_plus_headroom() {
        let pool = BufPool::new();
        for (class, &c) in CLASSES.iter().enumerate() {
            // `capacity + headroom` exactly a class size: that class.
            let fit = c - DEFAULT_HEADROOM;
            let b = pool.alloc_capacity(fit, DEFAULT_HEADROOM);
            assert_eq!((seg_len(&b), b.headroom()), (c, DEFAULT_HEADROOM));
            assert_eq!(seg_len(&pool.copy_from_slice(&vec![1; fit])), c);
            let mut e = PktBuf::empty();
            e.extend_with(fit, |d| d.fill(2));
            assert_eq!(seg_len(&e), c);

            // One byte over: the next class, or for the largest class a jumbo
            // segment with one byte less headroom.
            let b = pool.alloc_capacity(fit + 1, DEFAULT_HEADROOM);
            match CLASSES.get(class + 1) {
                Some(&next) => assert_eq!((seg_len(&b), b.headroom()), (next, DEFAULT_HEADROOM)),
                None => assert_eq!((seg_len(&b), b.headroom()), (c, DEFAULT_HEADROOM - 1)),
            }
            let mut e = PktBuf::empty();
            e.extend_with(fit + 1, |d| d.fill(3));
            let want = CLASSES
                .get(class + 1)
                .copied()
                .unwrap_or(fit + 1 + DEFAULT_HEADROOM);
            assert_eq!(seg_len(&e), want, "past the largest class: heap");
        }
        // Size-blind allocations keep the jumbo class.
        assert_eq!(seg_len(&pool.alloc()), SEG_CAPACITY);
        assert_eq!(seg_len(&pool.alloc_headroom(0)), SEG_CAPACITY);
    }

    #[test]
    fn segments_recycle_into_their_own_class() {
        let pool = BufPool::new();
        for (class, &c) in CLASSES.iter().enumerate() {
            let alloc = || pool.alloc_capacity(c - DEFAULT_HEADROOM, DEFAULT_HEADROOM);
            let b = alloc();
            let mut want = free_per_class();
            want[class] += 1;
            drop(b);
            assert_eq!(free_per_class(), want, "class {class}");
            let hits = pool.stats().hits;
            let b = alloc();
            assert_eq!((seg_len(&b), pool.stats().hits), (c, hits + 1));
            want[class] -= 1;
            assert_eq!(free_per_class(), want, "reused from class {class}");
        }
    }

    #[test]
    fn extend_past_a_small_segment_moves_to_the_next_class() {
        let pool = BufPool::new();
        let mut b = pool.copy_from_slice(&[7u8; 100]);
        assert_eq!(seg_len(&b), CLASSES[0]);
        assert_eq!(b.tailroom(), CLASSES[0] - DEFAULT_HEADROOM - 100);
        b.extend_from_slice(&[8u8; 100]);
        assert_eq!(seg_len(&b), CLASSES[1]);
        assert_eq!(b.headroom(), DEFAULT_HEADROOM);
        assert_eq!(&b[..100], &[7u8; 100][..]);
        assert_eq!(&b[100..], &[8u8; 100][..]);
        b.extend_from_slice(&vec![9u8; CLASSES[1]]);
        assert_eq!(seg_len(&b), CLASSES[2]);
        assert_eq!(
            (b.len(), b.headroom()),
            (200 + CLASSES[1], DEFAULT_HEADROOM)
        );
        assert_eq!(&b[..200], &[[7u8; 100], [8u8; 100]].concat()[..]);
        assert!(b[200..].iter().all(|&x| x == 9));
    }

    #[test]
    fn dropping_the_pool_does_not_invalidate_live_buffers() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(b"survivor");
        drop(pool);
        assert_eq!(b, b"survivor");
        drop(b); // recycles onto the thread freelist; nothing dangles
    }

    #[test]
    fn equality_against_common_byte_containers() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[1, 2, 3]);
        assert_eq!(b, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], b);
        assert_eq!(b, [1, 2, 3]);
        assert_eq!(b, &[1u8, 2, 3][..]);
        assert_eq!(b, PktBuf::from(vec![1, 2, 3]));
    }

    #[test]
    fn extend_with_fills_exactly_the_new_tail() {
        let pool = BufPool::new();
        let mut b = pool.copy_from_slice(b"head");
        b.extend_with(4, |dst| {
            assert_eq!(dst.len(), 4);
            dst.copy_from_slice(b"tail");
        });
        assert_eq!(b, b"headtail");
        b.extend_with(0, |_| panic!("never called for n == 0"));
        assert_eq!(b, b"headtail");
    }

    /// Random split/chain/clone/drop/mutate sequences of up to 59
    /// operations behave exactly like a `Vec<u8>` model, clones stay
    /// isolated under mutation, and the freelist never leaks or
    /// double-frees a segment (a double-free or use-after-recycle would
    /// corrupt the contents checked after every step, or abort).
    #[test]
    fn pktbuf_matches_vec_model() {
        crate::impair::check_cases("pktbuf_matches_vec_model", 0xb0f, 256, |rng| {
            fn bytes(rng: &mut crate::Rng, max: u64) -> Vec<u8> {
                (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
            }
            let pool = BufPool::new();
            // Start in the smallest class, so extends cross every class
            // boundary.
            let mut buf = pool.copy_from_slice(&[]);
            let mut model: Vec<u8> = Vec::new();
            let mut clones: Vec<(PktBuf, Vec<u8>)> = Vec::new();
            for _ in 0..1 + rng.below(59) {
                match rng.below(8) {
                    // Up to 2.5 KiB at a time, so that a sequence walks the
                    // buffer through every class and past the largest into
                    // the heap.
                    0 => {
                        let d = bytes(rng, 2500);
                        buf.extend_from_slice(&d);
                        model.extend_from_slice(&d);
                    }
                    1 => {
                        let d = bytes(rng, 64);
                        buf.prepend(&d);
                        model.splice(0..0, d);
                    }
                    2 => {
                        let n = rng.below(300) as usize;
                        buf.truncate(n);
                        model.truncate(n);
                    }
                    3 => {
                        let n = rng.below(300) as usize;
                        buf.advance(n);
                        model.drain(..n.min(model.len()));
                    }
                    4 => {
                        let a = (rng.below(100) as usize).min(model.len());
                        let b = (rng.below(100) as usize).min(model.len());
                        let (a, b) = (a.min(b), a.max(b));
                        assert_eq!(buf.slice(a, b).as_slice(), &model[a..b]);
                    }
                    5 => clones.push((buf.clone(), model.clone())),
                    6 => {
                        clones.pop();
                    }
                    _ => {
                        let v = rng.next_u64() as u8;
                        if !model.is_empty() {
                            buf.make_mut()[0] = v;
                            model[0] = v;
                        }
                    }
                }
                assert_eq!(buf.as_slice(), model.as_slice());
            }
            // Clones were never disturbed by mutations of the original.
            for (c, m) in &clones {
                assert_eq!(c.as_slice(), m.as_slice());
            }
            drop(buf);
            drop(clones);
            // Every class's freelist stays within its bound — segments are
            // recycled at most once (a double recycle would blow past the
            // number of live allocations long before tripping the bound).
            for (class, free) in free_per_class().into_iter().enumerate() {
                assert!(free <= max_free(class));
            }
        });
    }
}
