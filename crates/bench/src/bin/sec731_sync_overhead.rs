//! §7.3.1: synchronization overhead — a host running `sleep` (low event rate,
//! sync dominates) vs `dd` (high event rate, sync amortized), standalone vs
//! connected to a NIC + switch in SimBricks.
// Benchmarks measure real wall-clock throughput by design.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use simbricks::apps::{DdLoad, SleepLoad};
use simbricks::hostsim::{HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::{attach_host_nic, host_component, Execution, Experiment};
use simbricks::SimTime;
use std::time::Instant;

fn run(workload_sleep: bool, in_simbricks: bool) -> f64 {
    let duration = SimTime::from_ms(100);
    let cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let app: Box<dyn simbricks::hostsim::Application> = if workload_sleep {
        Box::new(SleepLoad::new(duration))
    } else {
        Box::new(DdLoad::new(duration))
    };
    let start = Instant::now();
    if in_simbricks {
        let mut exp = Experiment::new("sync-overhead", duration + SimTime::from_ms(2));
        let (_h, _n, eth) = attach_host_nic(&mut exp, "host", cfg, app, false);
        exp.add(
            "switch",
            Box::new(SwitchBm::new(SwitchConfig {
                ports: 1,
                ..Default::default()
            })),
            vec![eth],
        );
        exp.run(Execution::Sequential);
    } else {
        // Standalone host: no channels at all.
        let mut exp = Experiment::new("standalone", duration + SimTime::from_ms(2));
        exp.add("host", host_component(cfg, app), vec![]);
        exp.run(Execution::Sequential);
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    println!("# Section 7.3.1: synchronization overhead (gem5-like host, 100 ms virtual)");
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "workload", "standalone[s]", "simbricks[s]", "overhead"
    );
    for (name, is_sleep) in [("sleep", true), ("dd", false)] {
        let alone = run(is_sleep, false);
        let sb = run(is_sleep, true);
        println!(
            "{:<10} {:>16.3} {:>16.3} {:>9.1}%",
            name,
            alone,
            sb,
            (sb - alone) / alone.max(1e-9) * 100.0
        );
    }
}
