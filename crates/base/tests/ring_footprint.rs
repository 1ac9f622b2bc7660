//! Resident memory of idle and of busy rings.
//!
//! Building a ring must not write its memory: it is a fresh zeroed mapping
//! (`simbricks_base::pages`), an all-zero descriptor is an empty slot, and
//! a slot's head and tail are touched only by a message that uses them.
//! So rings nobody has sent on cost address space, not resident memory.
//! 256 default rings span about 144 MiB; building them must grow the
//! resident set by a few pages, not by that.
//!
//! A busy ring's tail visits every slot, so small messages make every
//! slot's head resident, but no slot's tail: a message's first KiB goes to
//! its slot's head, and the heads of four slots share a page. 64 rings that
//! carried 200-byte messages for two laps must hold about 17 pages each
//! (descriptors and heads), not a page or more for every slot.
//!
//! Linux only (reads `VmRSS` from `/proc/self/status`), and a test binary of
//! its own with a single test, so nothing else allocates in the process
//! while it measures.

#![cfg(target_os = "linux")]

use simbricks_base::spsc::{queue, DEFAULT_QUEUE_LEN, SLOT_BYTES};
use simbricks_base::SimTime;

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
fn rings_resident_set_idle_then_busy() {
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

    // Two laps of 200-byte messages through each of 64 rings.
    const BUSY: usize = 64;
    let msg = [0x5au8; 200];
    let before = vm_rss_kib();
    for (tx, rx) in &mut rings[..BUSY] {
        for i in 0..2 * DEFAULT_QUEUE_LEN as u64 {
            tx.try_send(SimTime::from_ns(i), 1, &msg).unwrap();
            let m = rx.try_recv().expect("message sent");
            assert_eq!((m.timestamp, &m.data[..]), (SimTime::from_ns(i), &msg[..]));
        }
    }
    let after = vm_rss_kib();
    let grown_mib = after.saturating_sub(before) as f64 / 1024.0;
    assert!(
        grown_mib < 8.0,
        "{BUSY} rings busy with 200-byte messages grew the resident set by {grown_mib:.1} MiB"
    );
}
