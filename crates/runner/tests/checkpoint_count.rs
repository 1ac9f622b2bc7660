//! A checkpoint container's component count is bounded by its length.
//!
//! A resealed blob (valid checksum, hostile count) a few bytes long must be
//! rejected with a typed error, and allocate nothing: no reservation for the
//! count, no error message.
//!
//! A counting global allocator records the bytes the decoding thread asks
//! for while armed. A test binary of its own, so the allocator wraps nothing
//! else.

use simbricks_base::{fnv1a, SimTime, SnapError};
use simbricks_runner::checkpoint::CheckpointFile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested on this thread while armed; `None` when disarmed.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The system allocator, adding each request on an armed thread to
/// [`REQUESTED`].
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter does not touch the
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = REQUESTED.try_with(|r| r.set(r.get().map(|n| n + layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Decode `blob`, returning the result and the bytes requested meanwhile.
fn decode_counting(blob: &[u8]) -> (Result<CheckpointFile, SnapError>, usize) {
    REQUESTED.with(|r| r.set(Some(0)));
    let res = CheckpointFile::decode(blob);
    let n = REQUESTED.with(|r| r.take()).expect("armed above");
    (res, n)
}

#[test]
fn hostile_component_counts_are_rejected_without_allocating() {
    // An empty name: decoding it allocates nothing, so every byte counted
    // would be for the components.
    let good = CheckpointFile {
        name: String::new(),
        at: SimTime::from_us(7),
        components: vec![("a".into(), vec![1, 2, 3])],
    }
    .encode();
    let (res, requested) = decode_counting(&good);
    assert_eq!(
        res.expect("the unmodified blob decodes").components.len(),
        1
    );
    assert!(
        requested > 0,
        "the counter sees the components' allocations"
    );

    // magic (4) + version (2) + flags (2) + name length (4) + time (8).
    const COUNT_AT: usize = 20;
    for count in [1u64 << 20, u64::MAX] {
        let mut blob = good.clone();
        blob[COUNT_AT..COUNT_AT + 8].copy_from_slice(&count.to_le_bytes());
        let body = blob.len() - 8;
        let sum = fnv1a(&blob[..body]);
        blob[body..].copy_from_slice(&sum.to_le_bytes());

        let (res, requested) = decode_counting(&blob);
        assert!(
            matches!(res, Err(SnapError::Truncated)),
            "count {count}: {res:?}"
        );
        assert_eq!(
            requested, 0,
            "count {count}: bytes reserved before rejecting"
        );
    }
}
