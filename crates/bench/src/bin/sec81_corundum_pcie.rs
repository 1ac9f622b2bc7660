//! §8.1: Corundum's MMIO head-index reads make it sensitive to PCIe latency,
//! while the i40e (descriptor write-back polled in host memory) is not.
use simbricks::hostsim::{HostKind, NicModelKind};
use simbricks::SimTime;
use simbricks_bench::{netperf_config, Net};

fn main() {
    println!("# Section 8.1: throughput at 500 ns vs 1 us PCIe latency");
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "nic", "500ns [Gbps]", "1us [Gbps]", "change"
    );
    for (name, nic) in [
        ("i40e", NicModelKind::I40e),
        ("corundum", NicModelKind::Corundum),
    ] {
        // As in the paper, the hosts are the detailed (gem5-like) model: the
        // workload must be CPU-bound for MMIO stall time to cost throughput.
        let base = netperf_config(
            HostKind::Gem5Timing,
            nic,
            false,
            Net::SwitchBm,
            SimTime::from_ms(20),
            SimTime::from_ms(2),
            SimTime::from_ns(500),
        );
        let doubled = netperf_config(
            HostKind::Gem5Timing,
            nic,
            false,
            Net::SwitchBm,
            SimTime::from_ms(20),
            SimTime::from_ms(2),
            SimTime::from_us(1),
        );
        let change = (doubled.throughput_gbps - base.throughput_gbps)
            / base.throughput_gbps.max(1e-9)
            * 100.0;
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>9.1}%",
            name, base.throughput_gbps, doubled.throughput_gbps, change
        );
    }
}
