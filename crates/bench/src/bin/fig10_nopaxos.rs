//! Fig. 10: NOPaxos with a switch sequencer vs an end-host sequencer vs
//! Multi-Paxos — latency/throughput as the number of closed-loop clients
//! grows.
use simbricks::apps::paxos::{
    PaxosClient, PaxosMode, Replica, SequencerHost, OUM_PORT, PAXOS_LEADER_PORT,
};
use simbricks::hostsim::{HostConfig, HostKind, HostModel};
use simbricks::netsim::{SequencerConfig, SwitchBm, SwitchConfig, TofinoConfig, TofinoSwitch};
use simbricks::netstack::SocketAddr;
use simbricks::proto::Ipv4Addr;
use simbricks::runner::{attach_host_nic, Execution, Experiment};
use simbricks::SimTime;

fn run(mode: PaxosMode, clients: usize) -> (f64, f64) {
    let virt = SimTime::from_ms(20);
    let mut exp = Experiment::new("nopaxos", virt + SimTime::from_ms(2));
    let kind = HostKind::QemuTiming;
    let replica_cfgs: Vec<_> = (0..3u32).map(|i| HostConfig::new(kind, i)).collect();
    let replica_ips: Vec<Ipv4Addr> = replica_cfgs.iter().map(|c| c.ip).collect();
    let mut eth = Vec::new();
    for (i, cfg) in replica_cfgs.iter().enumerate() {
        let peers = replica_ips
            .iter()
            .filter(|ip| **ip != cfg.ip)
            .copied()
            .collect();
        let app = Box::new(Replica::new(i as u8, mode, peers));
        let (_h, _n, e) = attach_host_nic(&mut exp, &format!("replica{i}"), *cfg, app, false);
        eth.push(e);
    }
    // Optional end-host sequencer.
    let mut seq_ip = None;
    if mode == PaxosMode::EndHostSequencer {
        let cfg = HostConfig::new(kind, 10);
        seq_ip = Some(cfg.ip);
        let app = Box::new(SequencerHost::new(replica_ips.clone()));
        let (_h, _n, e) = attach_host_nic(&mut exp, "sequencer", cfg, app, false);
        eth.push(e);
    }
    // Clients.
    let target = match mode {
        PaxosMode::SwitchSequencer => SocketAddr::new(Ipv4Addr::BROADCAST, OUM_PORT),
        PaxosMode::EndHostSequencer => SocketAddr::new(seq_ip.unwrap(), OUM_PORT),
        PaxosMode::MultiPaxos => SocketAddr::new(replica_ips[0], PAXOS_LEADER_PORT),
    };
    let mut client_ids = Vec::new();
    for c in 0..clients {
        let cfg = HostConfig::new(kind, 20 + c as u32);
        let app = Box::new(PaxosClient::new(mode, target, 1, virt));
        let (h, _n, e) = attach_host_nic(&mut exp, &format!("client{c}"), cfg, app, false);
        eth.push(e);
        client_ids.push(h);
    }
    // Network: Tofino with the OUM program for the switch-sequencer mode,
    // plain behavioural switch otherwise.
    let ports = eth.len();
    if mode == PaxosMode::SwitchSequencer {
        exp.add(
            "tofino",
            Box::new(TofinoSwitch::new(TofinoConfig {
                ports,
                sequencer: Some(SequencerConfig {
                    group_port: OUM_PORT,
                    replica_ports: vec![0, 1, 2],
                }),
                ..Default::default()
            })),
            eth,
        );
    } else {
        exp.add(
            "switch",
            Box::new(SwitchBm::new(SwitchConfig {
                ports,
                ..Default::default()
            })),
            eth,
        );
    }
    let r = exp.run(Execution::Sequential);
    let mut tput = 0.0;
    let mut lat = 0.0;
    let mut n = 0.0;
    for id in client_ids {
        let host: &HostModel = r.model(id).unwrap();
        let rep = host.app_report();
        let t: f64 = rep
            .split_whitespace()
            .find_map(|w| {
                w.strip_prefix("tput=")
                    .and_then(|v| v.strip_suffix("req/s"))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0.0);
        let l: f64 = rep
            .split_whitespace()
            .find_map(|w| {
                w.strip_prefix("latency=")
                    .and_then(|v| v.strip_suffix("us"))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0.0);
        tput += t;
        if l > 0.0 {
            lat += l;
            n += 1.0;
        }
    }
    (tput, if n > 0.0 { lat / n } else { 0.0 })
}

fn main() {
    println!("# Figure 10: NOPaxos (switch / end-host sequencer) vs Multi-Paxos");
    println!(
        "{:<22} {:>8} {:>14} {:>14}",
        "mode", "clients", "tput[req/s]", "latency[us]"
    );
    for mode in [
        PaxosMode::SwitchSequencer,
        PaxosMode::EndHostSequencer,
        PaxosMode::MultiPaxos,
    ] {
        for clients in [1usize, 2, 4] {
            let (tput, lat) = run(mode, clients);
            println!(
                "{:<22} {:>8} {:>14.0} {:>14.1}",
                format!("{mode:?}"),
                clients,
                tput,
                lat
            );
        }
    }
}
