//! Heap held by event queues.
//!
//! Every kernel owns one `EventQueue<u64>` for its timers, and a fabric has
//! hundreds of kernels (the 128-host fat-tree has 297 queues), most of them
//! holding a dozen timers or fewer. So a queue must cost the events it
//! holds: an empty one (a port-less kernel's, before its first timer)
//! allocates nothing, and 297 queues holding 16 timers each, rescheduled
//! as they fire, hold under 1 KiB apiece.
//!
//! A counting global allocator tracks live heap bytes. A test binary of its
//! own with a single test, so nothing else allocates while it measures.

use simbricks_base::{EventQueue, SimTime};

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
fn queues_hold_only_their_events() {
    const QUEUES: usize = 297;
    const TIMERS: u64 = 16;

    let before = LIVE.load(Relaxed);
    let empty: EventQueue<u64> = EventQueue::new();
    let held = LIVE.load(Relaxed) - before;
    assert!(empty.is_empty());
    assert_eq!(held, 0, "an empty event queue allocates {held} B");

    let before = LIVE.load(Relaxed);
    let mut queues: Vec<EventQueue<u64>> = (0..QUEUES).map(|_| EventQueue::new()).collect();
    for (i, q) in queues.iter_mut().enumerate() {
        for t in 0..TIMERS {
            q.schedule(SimTime::from_ns(t * 100 + i as u64), t);
        }
    }
    // Hold model: each queue fires its earliest timer and re-arms it, four
    // times over, as a kernel's periodic timers do.
    for q in &mut queues {
        for _ in 0..4 * TIMERS {
            let (t, x) = q.pop_due(SimTime::MAX).expect("16 timers stay armed");
            q.schedule(t + SimTime::from_ns(TIMERS * 100), x);
        }
    }
    let held = LIVE.load(Relaxed) - before;

    assert!(queues.iter().all(|q| q.len() == TIMERS as usize));
    let per_queue = held / QUEUES;
    assert!(
        per_queue < 1024,
        "{QUEUES} queues of {TIMERS} timers hold {per_queue} B each"
    );
}
