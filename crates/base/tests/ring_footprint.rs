//! Resident memory of idle rings.
//!
//! Building a ring must not write its memory: the allocator hands out zeroed
//! pages, an all-zero descriptor is an empty slot, and a payload area is
//! touched only by a message that uses it. So rings nobody has sent on cost
//! address space, not resident memory. 256 default rings span about 144 MiB;
//! building them must grow the resident set by a few pages, not by that.
//!
//! Linux only (reads `VmRSS` from `/proc/self/status`), and a test binary of
//! its own so no other test allocates in the process while it measures.

#![cfg(target_os = "linux")]

use simbricks_base::spsc::{queue, DEFAULT_QUEUE_LEN, SLOT_BYTES};

/// Resident set size of this process in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn idle_rings_are_not_resident() {
    const RINGS: usize = 256;
    let mut rings = Vec::with_capacity(RINGS);
    let before = vm_rss_kib();
    for _ in 0..RINGS {
        rings.push(queue(DEFAULT_QUEUE_LEN));
    }
    let after = vm_rss_kib();
    let spanned_mib = RINGS * DEFAULT_QUEUE_LEN * SLOT_BYTES / (1 << 20);
    let grown_mib = after.saturating_sub(before) as f64 / 1024.0;
    assert!(
        grown_mib < 16.0,
        "{RINGS} idle rings spanning {spanned_mib} MiB grew the resident set by {grown_mib:.1} MiB"
    );
    // The rings still work after being measured.
    let (tx, rx) = &mut rings[0];
    tx.try_send(simbricks_base::SimTime::ZERO, 1, b"x").unwrap();
    assert_eq!(rx.try_recv().unwrap().data, b"x".to_vec());
}
