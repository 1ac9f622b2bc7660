//! Tab. 1: four use-case configurations (SW/HW debugging and performance
//! evaluation), reporting netperf throughput, latency, and wall-clock
//! simulation time. Durations scaled down from the paper's 10 s + 10 s.
use simbricks::hostsim::{HostKind, NicModelKind};
use simbricks::SimTime;
use simbricks_bench::{netperf_config, Net};

fn main() {
    let stream = SimTime::from_ms(20);
    let rr = SimTime::from_ms(20);
    let pcie = SimTime::from_ns(500);
    let rows = [
        (
            "SW debugging    (QEMU-kvm + i40e BM + switch BM, unsync)",
            HostKind::QemuKvm,
            NicModelKind::I40e,
            false,
            Net::SwitchBm,
        ),
        (
            "SW perf eval    (gem5 + i40e BM + DES network, sync)",
            HostKind::Gem5Timing,
            NicModelKind::I40e,
            false,
            Net::Des,
        ),
        (
            "HW debugging    (QEMU-kvm + Corundum RTL + switch BM, unsync)",
            HostKind::QemuKvm,
            NicModelKind::Corundum,
            true,
            Net::SwitchBm,
        ),
        (
            "HW perf eval    (QEMU-timing + Corundum RTL + switch BM, sync)",
            HostKind::QemuTiming,
            NicModelKind::Corundum,
            true,
            Net::SwitchBm,
        ),
    ];
    println!("# Table 1: use-case configurations (netperf, scaled durations)");
    println!(
        "{:<64} {:>10} {:>12} {:>10}",
        "configuration", "tput[Gbps]", "latency[us]", "wall[s]"
    );
    for (name, host, nic, rtl, net) in rows {
        let r = netperf_config(host, nic, rtl, net, stream, rr, pcie);
        println!(
            "{:<64} {:>10.3} {:>12.1} {:>10.2}",
            name, r.throughput_gbps, r.latency_us, r.wall_seconds
        );
    }
}
