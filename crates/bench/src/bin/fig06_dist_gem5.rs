//! Fig. 6: SimBricks pairwise synchronization vs dist-gem5-style global
//! barrier synchronization as the number of simulated hosts grows.
//!
//! Usage:
//!   fig06_dist_gem5 [--dist N]
//!
//! With `--dist N` the pairwise-synchronization column runs as a true
//! multi-process distributed simulation: host `i` lives in worker process
//! `w{i % N}`, the switch in `w0`, every cross-partition Ethernet link
//! bridged by a loopback TCP proxy pair (§5.4). The global-barrier baseline
//! stays in-process — dist-gem5's barrier is exactly the kind of
//! tightly-coupled global state that does not distribute, which is the
//! point of the figure.
use simbricks::hostsim::HostKind;
use simbricks::runner::dist::{self, DistOptions};
use simbricks::SimTime;
use simbricks_bench::{dist_scen, udp_scaleup};

fn main() {
    // Hidden worker mode for `--dist` runs (see `dist::maybe_worker`).
    dist::maybe_worker(&dist_scen::build_udp_scaleup);

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
    println!("# Figure 6: wall-clock simulation time, pairwise vs global barrier");
    if let Some(parts) = dist_n {
        println!("# pairwise column: {parts} worker processes over loopback TCP proxies");
        println!("# barrier column: in-process (a global barrier is process-local state)");
    }
    println!(
        "{:>6} {:>16} {:>16} {:>10}",
        "hosts", "simbricks[s]", "dist-gem5[s]", "ratio"
    );
    for hosts in [2usize, 4, 8, 16] {
        let pairwise = match dist_n {
            None => udp_scaleup(hosts, HostKind::QemuTiming, duration, false).0,
            Some(parts) => {
                let scen = format!("hosts={hosts};kind=qemu;parts={parts};dur_ms=5;log=0");
                let opts = DistOptions::new(dist_scen::partition_names(parts), scen);
                let r = dist::run_distributed(&opts, &dist_scen::build_udp_scaleup)
                    .expect("distributed run failed");
                r.max_partition_wall()
            }
        };
        let (barrier, _) = udp_scaleup(hosts, HostKind::QemuTiming, duration, true);
        println!(
            "{:>6} {:>16.2} {:>16.2} {:>10.2}",
            hosts,
            pairwise,
            barrier,
            barrier / pairwise.max(1e-9)
        );
    }
}
