//! Resident memory of idle, busy and lagging rings.
//!
//! Building a ring must not write its memory: it is a fresh zeroed mapping
//! (`simbricks_base::pages`), an all-zero descriptor is an empty slot, and
//! the payload arena is touched only where a message is placed. So rings
//! nobody has sent on cost address space, not resident memory. 256 default
//! rings span about 146 MiB; building them must grow the resident set by a
//! few pages, not by that.
//!
//! A ring's payloads go to its arena FIFO, and back to offset 0 whenever
//! none is in flight. So a ring whose consumer keeps up writes the same
//! first bytes of its arena over and over: 64 rings that carried 200-byte
//! messages for two laps, each received before the next was sent, must
//! hold about one page each (descriptors and the arena's first bytes), not
//! a page or more for every slot.
//!
//! A consumer that lags `k` messages behind, taking them only once the
//! producer has sent `k`, holds `k` payloads in flight at once: 256 bytes
//! each (200 rounded up to whole cache lines). 64 rings that lag 16
//! messages behind for two laps must hold about `1 KiB + 16 * 256` bytes
//! each, not a share of the ring's length.
//!
//! Linux only (reads `VmRSS` from `/proc/self/status`), and a test binary of
//! its own with a single test, so nothing else allocates in the process
//! while it measures.

#![cfg(target_os = "linux")]

use simbricks_base::spsc::{queue, ring_bytes, DEFAULT_QUEUE_LEN};
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
    let spanned_mib = RINGS * ring_bytes(DEFAULT_QUEUE_LEN).unwrap() / (1 << 20);
    let grown_mib = after.saturating_sub(before) as f64 / 1024.0;
    assert!(
        grown_mib < 16.0,
        "{RINGS} idle rings spanning {spanned_mib} MiB grew the resident set by {grown_mib:.1} MiB"
    );

    // Two laps of 200-byte messages through each of 64 rings, each message
    // received before the next is sent.
    const BUSY: usize = 64;
    const LAPS: u64 = 2 * DEFAULT_QUEUE_LEN as u64;
    let msg = [0x5au8; 200];
    let before = vm_rss_kib();
    for (tx, rx) in &mut rings[..BUSY] {
        for i in 0..LAPS {
            tx.try_send(SimTime::from_ns(i), 1, &msg).unwrap();
            let m = rx.try_recv().expect("message sent");
            assert_eq!((m.timestamp, &m.data[..]), (SimTime::from_ns(i), &msg[..]));
        }
    }
    let after = vm_rss_kib();
    let grown_mib = after.saturating_sub(before) as f64 / 1024.0;
    assert!(
        grown_mib < 1.5,
        "{BUSY} rings busy with 200-byte messages grew the resident set by {grown_mib:.1} MiB"
    );

    // Two laps through 64 other rings whose consumer lags `LAG` messages
    // behind.
    const LAG: usize = 16;
    let before = vm_rss_kib();
    for (tx, rx) in &mut rings[BUSY..2 * BUSY] {
        for round in 0..LAPS / LAG as u64 {
            let first = round * LAG as u64;
            for i in first..first + LAG as u64 {
                tx.try_send(SimTime::from_ns(i), 1, &msg).unwrap();
            }
            for i in first..first + LAG as u64 {
                let m = rx.try_recv().expect("message sent");
                assert_eq!((m.timestamp, &m.data[..]), (SimTime::from_ns(i), &msg[..]));
            }
        }
    }
    let after = vm_rss_kib();
    let grown_kib = after.saturating_sub(before);
    // Descriptors and `LAG` spans of 256 bytes, plus a page for where they
    // straddle page boundaries, per ring; and 128 KiB for the pool
    // segments the lagging consumers hold at once.
    let bound_kib = (BUSY * (1024 + LAG * 256 + 4096) / 1024 + 128) as u64;
    assert!(
        grown_kib < bound_kib,
        "{BUSY} rings lagging {LAG} messages grew the resident set by {grown_kib} KiB, \
         more than {bound_kib} KiB"
    );
}
