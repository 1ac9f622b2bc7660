//! Live heap held by pooled buffers of small frames.
//!
//! A pooled buffer whose size is known takes the smallest segment class that
//! holds its bytes and headroom, so what a frame holds follows its size, not
//! the jumbo maximum. 2 600 live 850-byte frames and 1 600 64-byte messages
//! (about the fat-tree's peak of live buffers) must hold a few MiB; one
//! 9 344-byte segment each would be about 37 MiB.
//!
//! A counting global allocator (`support/live_alloc.rs`) tracks live heap
//! bytes. A test binary of its own with a single test, so nothing else
//! allocates while it measures.

use simbricks_base::pktbuf::BufPool;
#[path = "support/live_alloc.rs"]
mod live_alloc;

use live_alloc::LIVE;
use std::sync::atomic::Ordering::Relaxed;

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
