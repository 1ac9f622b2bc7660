//! Tab. 3: cross-product of host x NIC x network simulators (netperf),
//! scaled-down durations.
use simbricks::hostsim::{HostKind, NicModelKind};
use simbricks::SimTime;
use simbricks_bench::{netperf_config, Net};

fn main() {
    let stream = SimTime::from_ms(10);
    let rr = SimTime::from_ms(10);
    println!("# Table 3: host x NIC x network cross-product");
    println!(
        "{:<6} {:<10} {:<8} {:>10} {:>12} {:>9}",
        "host", "nic", "net", "tput[Gbps]", "latency[us]", "wall[s]"
    );
    for (hname, host) in [
        ("QK", HostKind::QemuKvm),
        ("QT", HostKind::QemuTiming),
        ("G5", HostKind::Gem5Timing),
    ] {
        for (nname, nic, rtl) in [
            ("IB", NicModelKind::I40e, false),
            ("CB", NicModelKind::Corundum, false),
            ("CV", NicModelKind::Corundum, true),
        ] {
            for (netname, net) in [("SW", Net::SwitchBm), ("NS", Net::Des), ("TO", Net::Tofino)] {
                let r = netperf_config(host, nic, rtl, net, stream, rr, SimTime::from_ns(500));
                println!(
                    "{:<6} {:<10} {:<8} {:>10.3} {:>12.1} {:>9.2}",
                    hname, nname, netname, r.throughput_gbps, r.latency_us, r.wall_seconds
                );
            }
        }
    }
}
