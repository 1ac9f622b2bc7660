//! Heap held by event queues.
//!
//! Every kernel owns one `EventQueue<u64>` for its timers, and a fabric has
//! hundreds of kernels (the 128-host fat-tree has 297 queues), most of them
//! holding a dozen timers or fewer. So a queue must cost the events it
//! holds: an empty one (a port-less kernel's, before its first timer)
//! allocates nothing, and 297 queues holding 16 timers each, rescheduled
//! as they fire, hold under 1 KiB apiece.
//!
//! A counting global allocator (`support/live_alloc.rs`) tracks live heap
//! bytes. A test binary of its own with a single test, so nothing else
//! allocates while it measures.

use simbricks_base::{EventQueue, SimTime};

#[path = "support/live_alloc.rs"]
mod live_alloc;

use live_alloc::LIVE;
use std::sync::atomic::Ordering::Relaxed;

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
