//! Live heap held by pooled buffers of small frames.
//!
//! A pooled buffer whose size is known takes the smallest segment class that
//! holds its bytes and headroom, so what a frame holds follows its size, not
//! the jumbo maximum. 2 600 live 850-byte frames and 1 600 64-byte messages
//! (about the fat-tree's peak of live buffers) must hold a few MiB; one
//! 9 344-byte segment each would be about 37 MiB.
//!
//! A counting global allocator tracks live heap bytes. A test binary of its
//! own with a single test, so nothing else allocates while it measures.

use simbricks_base::pktbuf::BufPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Heap bytes currently allocated by this process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes in [`LIVE`].
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter does not touch the
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn small_frames_hold_small_segments() {
    const FRAMES: usize = 2600;
    const MSGS: usize = 1600;
    let pool = BufPool::new();
    let (frame, msg) = ([0xa5u8; 850], [0x5au8; 64]);
    let mut bufs = Vec::with_capacity(FRAMES + MSGS);

    let before = LIVE.load(Relaxed);
    bufs.extend((0..FRAMES).map(|_| pool.copy_from_slice(&frame)));
    bufs.extend((0..MSGS).map(|_| pool.copy_from_slice(&msg)));
    let held = LIVE.load(Relaxed) - before;

    assert!(bufs[..FRAMES].iter().all(|b| *b == frame));
    assert!(bufs[FRAMES..].iter().all(|b| *b == msg));
    let payload = FRAMES * frame.len() + MSGS * msg.len();
    assert!(held >= payload, "the counter sees the buffers: {held} B");
    let mib = held as f64 / (1 << 20) as f64;
    assert!(
        mib < 8.0,
        "{FRAMES} 850-byte frames and {MSGS} 64-byte messages hold {mib:.1} MiB of heap"
    );
}
