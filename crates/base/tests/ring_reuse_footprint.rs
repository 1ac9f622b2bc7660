//! Resident memory of rings built again in the same process.
//!
//! A process that builds several experiments — a `--sweep`, `replay seek`,
//! a figure binary's rows, `perf`'s timed repeats — must pay for each the
//! same as for its first. Ring memory is a fresh zeroed mapping every time,
//! so a rebuilt ring again holds only the pages its messages used. (A
//! `calloc` block would not: once a process has freed a few, glibc serves
//! the next ones from recycled heap and clears them in full, making every
//! slot of every ring resident.)
//!
//! Three times over, this builds the 128-host fat-tree's 592 default rings,
//! sends one lap of 200-byte messages through each and drops them. The
//! resident set at the end of the third build must have grown from the
//! start by no more than it had at the end of the first.
//!
//! Linux only (reads `VmRSS` from `/proc/self/status`), and a test binary of
//! its own with a single test, so nothing else allocates in the process
//! while it measures.

#![cfg(target_os = "linux")]

use simbricks_base::spsc::{queue, DEFAULT_QUEUE_LEN};
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
fn rebuilt_rings_cost_what_the_first_build_did() {
    /// Rings of the 128-host fat-tree: 296 channels, two rings each.
    const RINGS: usize = 592;
    let msg = [0x5au8; 200];
    let start = vm_rss_kib();
    let mut grown_mib = Vec::new();
    for _ in 0..3 {
        let mut rings: Vec<_> = (0..RINGS).map(|_| queue(DEFAULT_QUEUE_LEN)).collect();
        for (tx, rx) in &mut rings {
            for i in 0..DEFAULT_QUEUE_LEN as u64 {
                tx.try_send(SimTime::from_ns(i), 1, &msg).unwrap();
                let m = rx.try_recv().expect("message sent");
                assert_eq!((m.timestamp, &m.data[..]), (SimTime::from_ns(i), &msg[..]));
            }
        }
        grown_mib.push(vm_rss_kib().saturating_sub(start) as f64 / 1024.0);
        drop(rings);
    }
    let (first, third) = (grown_mib[0], grown_mib[2]);
    assert!(
        third <= first * 1.1 + 4.0,
        "{RINGS} busy rings grew the resident set by {first:.1} MiB when first built, \
         by {third:.1} MiB when built a third time (all builds: {grown_mib:.1?})"
    );
}
