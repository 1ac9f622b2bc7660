//! Fig. 6: SimBricks pairwise synchronization vs dist-gem5-style global
//! barrier synchronization as the number of simulated hosts grows.
//!
//! Usage:
//!   fig06_dist_gem5 [--dist N]
//!
//! Both columns run the Fig. 6/7 scale-up workload (one UDP server, paced
//! UDP clients, one switch) and differ only in sync wiring
//! ([`simbricks_bench::Wiring`]). The SimBricks column synchronizes every
//! PCIe and Ethernet channel pairwise (§5.5). The dist-gem5 column is a cost
//! baseline: its data channels are unsynchronized, so data is delivered at
//! poll time, and a coordinator star stands in for dist-gem5's quantum
//! barrier. One coordinator component is linked to every host, NIC and
//! switch by a synchronized channel of half an epoch's latency, so every
//! quantum is paid for as SYNC traffic to and from the coordinator. Each
//! column prints its wall-clock seconds and its total SYNCs sent.
//!
//! With `--dist N` the SimBricks column runs as a true multi-process
//! distributed simulation: host `i` lives in worker process `w{i % N}`, the
//! switch in `w0`, every cross-partition Ethernet link bridged by a loopback
//! TCP proxy pair (§5.4). The dist-gem5 column stays in-process.
use simbricks::hostsim::HostKind;
use simbricks::runner::dist::{self, DistOptions};
use simbricks::runner::Execution;
use simbricks::scenario::{build_from_toml, topo};
use simbricks::SimTime;
use simbricks_bench::{udp_scaleup_wired, Wiring};

fn main() {
    // Hidden worker mode for `--dist` runs (see `dist::maybe_worker`).
    dist::maybe_worker(&build_from_toml);

    let mut dist_n: Option<usize> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dist" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .unwrap_or_else(|| {
                        eprintln!("--dist requires a value");
                        std::process::exit(2);
                    })
                    .parse()
                    .expect("--dist takes a worker count");
                assert!(n >= 1, "--dist needs at least one worker");
                dist_n = Some(n);
            }
            "--dist-worker" => {
                eprintln!("--dist-worker is internal (requires the orchestrator environment)");
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let duration = SimTime::from_ms(5);
    let exec = Execution::from_env_or(Execution::Sequential).expect("SIMBRICKS_EXEC");
    println!("# Figure 6: wall-clock simulation time, pairwise vs global barrier");
    println!("# dist-gem5 column: unsynchronized data links + coordinator star (cost baseline)");
    if let Some(parts) = dist_n {
        println!("# simbricks column: {parts} worker processes over loopback TCP proxies");
        println!("# dist-gem5 column: in-process");
    }
    println!(
        "{:>6} {:>14} {:>12} {:>14} {:>12} {:>8}",
        "hosts", "simbricks[s]", "syncs", "dist-gem5[s]", "syncs", "ratio"
    );
    for hosts in [2usize, 4, 8, 16] {
        let in_process = |wiring| {
            let r = udp_scaleup_wired(hosts, HostKind::QemuTiming, duration, wiring).run(exec);
            (r.wall_seconds(), r.total_stats().syncs_sent)
        };
        let (pairwise, pairwise_syncs) = match dist_n {
            None => in_process(Wiring::Pairwise),
            Some(parts) => {
                let doc = topo::header("scaleup", 1, duration, SimTime::from_ms(2), false, false)
                    + &topo::scale_up(hosts, HostKind::QemuTiming, parts);
                let opts = DistOptions::new((0..parts).map(|w| format!("w{w}")).collect(), doc);
                let r =
                    dist::run_distributed(&opts, &build_from_toml).expect("distributed run failed");
                (r.max_partition_wall(), r.total_stats().syncs_sent)
            }
        };
        let (star, star_syncs) = in_process(Wiring::Coordinator);
        println!(
            "{:>6} {:>14.3} {:>12} {:>14.3} {:>12} {:>8.2}",
            hosts,
            pairwise,
            pairwise_syncs,
            star,
            star_syncs,
            star / pairwise.max(1e-9)
        );
    }
}
