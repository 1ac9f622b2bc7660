//! §7.4.2: overhead of distributed simulation — the same two-host netperf
//! configuration run with a direct (local) Ethernet channel, with the link
//! bridged by the sockets proxy pair, and with the link's rings placed in a
//! shared-memory region (the paper's co-located path: the same channel, in a
//! mapping). Neither may change simulated results of synchronized runs or
//! become a wall-clock bottleneck.
//!
//! Per-message costs of the two media are metrics of the repository's
//! benchmark (`runner.tcp.msg_ns`, `runner.shm.push_pop_ns`,
//! `runner.proxy.*`; see `crates/bench/src/bin/perf/README.md`).

// Benchmarks measure real wall-clock throughput by design.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::hostsim::{HostConfig, HostKind, HostModel, NicModelKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::{host_component, nic_model, proxy_pair, Execution, Experiment, ProxyKind};
use simbricks::SimTime;

enum Transport {
    Direct,
    Proxy(ProxyKind),
}

fn run(transport: Transport) -> (f64, f64, f64, String) {
    let stream = SimTime::from_ms(10);
    let rr = SimTime::from_ms(5);
    let mut exp = Experiment::new("proxy-overhead", stream + rr + SimTime::from_ms(5));
    let server_cfg = HostConfig::new(HostKind::QemuTiming, 0).with_nic(NicModelKind::I40e);
    let client_cfg = HostConfig::new(HostKind::QemuTiming, 1).with_nic(NicModelKind::I40e);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(server_cfg.ip, 5201, 5202, stream, rr));

    // Server host + NIC; its Ethernet link to the switch is the one that
    // would cross physical machines in a distributed run.
    let (srv_pcie_host, srv_pcie_nic) = simbricks::base::channel_pair(exp.pcie_params());
    let (srv_eth_nic, srv_eth_switch, handle) = match transport {
        Transport::Direct => {
            let (a, b) = simbricks::base::channel_pair(exp.eth_params());
            (a, b, None)
        }
        Transport::Proxy(kind) => {
            let (a, b, h) = proxy_pair(kind, exp.eth_params()).expect("proxy setup");
            (a, b, Some(h))
        }
    };
    exp.add(
        "server.host",
        host_component(server_cfg, server_app),
        vec![srv_pcie_host],
    );
    exp.add(
        "server.nic",
        nic_model(server_cfg.nic, false),
        vec![srv_pcie_nic, srv_eth_nic],
    );

    let (cli_pcie_host, cli_pcie_nic) = simbricks::base::channel_pair(exp.pcie_params());
    let (cli_eth_nic, cli_eth_switch) = simbricks::base::channel_pair(exp.eth_params());
    let client_id = exp.add(
        "client.host",
        host_component(client_cfg, client_app),
        vec![cli_pcie_host],
    );
    exp.add(
        "client.nic",
        nic_model(client_cfg.nic, false),
        vec![cli_pcie_nic, cli_eth_nic],
    );
    exp.add(
        "switch",
        Box::new(SwitchBm::new(SwitchConfig {
            ports: 2,
            ..Default::default()
        })),
        vec![srv_eth_switch, cli_eth_switch],
    );

    // One worker per component so the proxy forwarding threads overlap with
    // the component simulators, as in a real distributed run.
    let workers = exp.num_components();
    let r = exp.run(Execution::Sharded { workers });
    let client: &HostModel = r.model(client_id).unwrap();
    let report = client.app_report();
    let tput = report
        .split_whitespace()
        .find_map(|t| {
            t.strip_prefix("tput=")
                .and_then(|v| v.strip_suffix("Gbps"))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0);
    let lat = report
        .split_whitespace()
        .find_map(|t| {
            t.strip_prefix("rr_latency=")
                .and_then(|v| v.strip_suffix("us"))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0);
    let proxy_line = handle
        .map(|h| {
            let s = h.stats();
            format!(
                "forwarded={} batches={} mean_batch={:.1} wire_bytes={}",
                s.forwarded,
                s.batches,
                s.mean_batch(),
                s.bytes
            )
        })
        .unwrap_or_else(|| "-".into());
    (tput, lat, r.wall_seconds(), proxy_line)
}

fn main() {
    if let Some(other) = std::env::args().nth(1) {
        eprintln!("unknown argument: {other}");
        std::process::exit(2);
    }

    println!("# Section 7.4.2: local vs proxied Ethernet link (synchronized netperf)");
    println!(
        "{:<18} {:>12} {:>13} {:>10}   proxy counters",
        "transport", "tput[Gbps]", "latency[us]", "wall[s]"
    );
    for (name, transport) in [
        ("direct channel", Transport::Direct),
        ("sockets proxy", Transport::Proxy(ProxyKind::Tcp)),
        ("shm ring", Transport::Proxy(ProxyKind::Shm)),
    ] {
        if matches!(transport, Transport::Proxy(ProxyKind::Shm))
            && !simbricks::runner::shm_supported()
        {
            println!("{:<18} unsupported on this platform", name);
            continue;
        }
        let (tput, lat, wall, proxies) = run(transport);
        println!(
            "{:<18} {:>12.3} {:>13.1} {:>10.2}   {}",
            name, tput, lat, wall, proxies
        );
    }
}
