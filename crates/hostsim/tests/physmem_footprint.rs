//! Resident memory of simulated hosts that received and sent a few frames.
//!
//! The driver's receive buffers are 4 352 B apart and its i40e transmit
//! buffers 9 216 B, so every frame lands on a page no other frame touches.
//! Guest memory backs only the 256-byte chunks a host wrote, packed, so a
//! frame costs the chunks its bytes span, not a page each.
//!
//! 128 hosts of 8 MiB each write a fat-tree host's pattern: the posted RX
//! descriptors, 32 ARP broadcasts of 60 B and 48 frames of 850 B received,
//! and 48 frames of 850 B sent. With a page per frame the resident set grew
//! by 66.0 MiB; packed, it grows by 15.5 MiB (x86-64 Linux, 4 KiB pages).
//! The bound sits between the two.
//!
//! Linux only (reads `VmRSS` from `/proc/self/status`), and a test binary of
//! its own with a single test, so nothing else allocates in the process
//! while it measures.

#![cfg(target_os = "linux")]

use simbricks_hostsim::PhysMem;

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
fn hosts_hold_the_chunks_their_frames_wrote() {
    const HOSTS: usize = 128;
    // The driver's layout: two 256-entry rings of 16-byte descriptors, then
    // 256 i40e transmit buffers and 256 receive buffers.
    const RING: u64 = 256;
    const DESC: u64 = 16;
    const RX_STRIDE: u64 = 4352;
    const TX_STRIDE: u64 = 9216;
    let (arp, frame) = ([0xffu8; 60], [0xa5u8; 850]);

    let before = vm_rss_kib();
    let mut hosts = Vec::with_capacity(HOSTS);
    for _ in 0..HOSTS {
        let mut m = PhysMem::new(8 << 20);
        let _tx_ring = m.alloc(RING * DESC, 64);
        let rx_ring = m.alloc(RING * DESC, 64);
        let tx_bufs = m.alloc(RING * TX_STRIDE, 64);
        let rx_bufs = m.alloc(RING * RX_STRIDE, 64);
        for i in 0..RING {
            let mut desc = [0u8; DESC as usize];
            desc[..8].copy_from_slice(&(rx_bufs + i * RX_STRIDE).to_le_bytes());
            desc[8..10].copy_from_slice(&(RX_STRIDE as u16).to_le_bytes());
            m.write(rx_ring + i * DESC, &desc);
        }
        for i in 0..32 {
            m.write(rx_bufs + i * RX_STRIDE, &arp);
        }
        for i in 32..80 {
            m.write(rx_bufs + i * RX_STRIDE, &frame);
        }
        for i in 0..48 {
            m.write(tx_bufs + i * TX_STRIDE, &frame);
        }
        hosts.push((m, rx_bufs));
    }
    let grown_mib = vm_rss_kib().saturating_sub(before) as f64 / 1024.0;

    let mut back = [0u8; 850];
    for (m, rx_bufs) in &hosts {
        m.read_into(rx_bufs + 79 * RX_STRIDE, &mut back);
        assert_eq!(back, frame);
    }
    assert!(
        grown_mib < 32.0,
        "{HOSTS} hosts' frames grew the resident set by {grown_mib:.1} MiB"
    );
}
