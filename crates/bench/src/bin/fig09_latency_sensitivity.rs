//! Fig. 9: sensitivity of simulation time to the configured PCIe link
//! latency / synchronization interval (1 ns ... 1 us).
use simbricks::hostsim::{HostKind, NicModelKind};
use simbricks::SimTime;
use simbricks_bench::{netperf_config, Net};

fn main() {
    println!("# Figure 9: simulation time vs PCIe latency (netperf pair, gem5-like hosts)");
    println!(
        "{:>12} {:>10} {:>12} {:>12}",
        "latency[ns]", "wall[s]", "tput[Gbps]", "sync msgs"
    );
    for lat_ns in [1u64, 10, 100, 500, 1000] {
        let r = netperf_config(
            HostKind::Gem5Timing,
            NicModelKind::I40e,
            false,
            Net::SwitchBm,
            SimTime::from_ms(5),
            SimTime::from_ms(5),
            SimTime::from_ns(lat_ns),
        );
        println!(
            "{:>12} {:>10.2} {:>12.3} {:>12}",
            lat_ns, r.wall_seconds, r.throughput_gbps, r.syncs
        );
    }
}
