//! Replication workloads end-to-end (Fig. 10): NOPaxos with a switch
//! sequencer, NOPaxos with an end-host sequencer, and leader-based
//! Multi-Paxos, each running over simulated hosts, NICs, and switches.

use simbricks::apps::paxos::{
    PaxosClient, PaxosMode, Replica, SequencerHost, OUM_PORT, PAXOS_LEADER_PORT,
};
use simbricks::hostsim::{HostConfig, HostKind, HostModel};
use simbricks::netsim::{SequencerConfig, SwitchBm, SwitchConfig, TofinoConfig, TofinoSwitch};
use simbricks::netstack::SocketAddr;
use simbricks::proto::Ipv4Addr;
use simbricks::runner::{attach_host_nic, Execution, Experiment};
use simbricks::SimTime;

/// Build and run a 3-replica group with one closed-loop client; returns
/// (completed requests, mean latency us, replica-0 executed ops).
fn run(mode: PaxosMode) -> (u64, f64, u64) {
    let virt = SimTime::from_ms(10);
    let mut exp = Experiment::new("paxos-it", virt + SimTime::from_ms(2));
    let kind = HostKind::QemuTiming;
    let replica_cfgs: Vec<_> = (0..3u32).map(|i| HostConfig::new(kind, i)).collect();
    let replica_ips: Vec<Ipv4Addr> = replica_cfgs.iter().map(|c| c.ip).collect();
    let mut eth = Vec::new();
    let mut replica_hosts = Vec::new();
    for (i, cfg) in replica_cfgs.iter().enumerate() {
        let peers = replica_ips
            .iter()
            .filter(|ip| **ip != cfg.ip)
            .copied()
            .collect();
        let app = Box::new(Replica::new(i as u8, mode, peers));
        let (h, _n, e) = attach_host_nic(&mut exp, &format!("replica{i}"), *cfg, app, false);
        eth.push(e);
        replica_hosts.push(h);
    }
    let mut seq_ip = None;
    if mode == PaxosMode::EndHostSequencer {
        let cfg = HostConfig::new(kind, 10);
        seq_ip = Some(cfg.ip);
        let app = Box::new(SequencerHost::new(replica_ips.clone()));
        let (_h, _n, e) = attach_host_nic(&mut exp, "sequencer", cfg, app, false);
        eth.push(e);
    }
    let target = match mode {
        PaxosMode::SwitchSequencer => SocketAddr::new(Ipv4Addr::BROADCAST, OUM_PORT),
        PaxosMode::EndHostSequencer => SocketAddr::new(seq_ip.unwrap(), OUM_PORT),
        PaxosMode::MultiPaxos => SocketAddr::new(replica_ips[0], PAXOS_LEADER_PORT),
    };
    let client_cfg = HostConfig::new(kind, 20);
    let client_app = Box::new(PaxosClient::new(mode, target, 1, virt));
    let (client_id, _n, e) = attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
    eth.push(e);

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
    let client: &HostModel = r.model(client_id).unwrap();
    let rep = client.app_report();
    let completed: u64 = rep
        .split_whitespace()
        .find_map(|w| w.strip_prefix("completed=").and_then(|v| v.parse().ok()))
        .unwrap_or(0);
    let latency: f64 = rep
        .split_whitespace()
        .find_map(|w| {
            w.strip_prefix("latency=")
                .and_then(|v| v.strip_suffix("us"))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0);
    let replica0: &HostModel = r.model(replica_hosts[0]).unwrap();
    let executed: u64 = replica0
        .app_report()
        .split_whitespace()
        .find_map(|w| w.strip_prefix("executed=").and_then(|v| v.parse().ok()))
        .unwrap_or(0);
    (completed, latency, executed)
}

#[test]
fn switch_sequencer_completes_requests_with_lowest_latency() {
    let (done_sw, lat_sw, exec_sw) = run(PaxosMode::SwitchSequencer);
    let (done_eh, lat_eh, _) = run(PaxosMode::EndHostSequencer);
    assert!(
        done_sw > 50,
        "switch sequencer completed {done_sw} requests"
    );
    assert!(
        done_eh > 50,
        "end-host sequencer completed {done_eh} requests"
    );
    assert!(
        exec_sw >= done_sw,
        "replicas executed every completed request"
    );
    // The end-host sequencer adds one extra host traversal per request
    // (paper: 23-35% higher latency).
    assert!(
        lat_eh > lat_sw * 1.1,
        "end-host sequencer latency {lat_eh:.1}us should exceed switch {lat_sw:.1}us"
    );
}

#[test]
fn multi_paxos_completes_but_costs_an_extra_round_trip() {
    let (done_mp, lat_mp, exec_mp) = run(PaxosMode::MultiPaxos);
    let (_done_sw, lat_sw, _) = run(PaxosMode::SwitchSequencer);
    assert!(done_mp > 20, "multi-paxos completed {done_mp} requests");
    assert!(
        exec_mp >= done_mp,
        "the leader executed every completed request (got {exec_mp} vs {done_mp})"
    );
    // The leader-based accept round adds latency over ordered multicast
    // (paper: NOPaxos cuts latency vs Multi-Paxos).
    assert!(
        lat_mp > lat_sw,
        "multi-paxos latency {lat_mp:.1}us should exceed the switch sequencer {lat_sw:.1}us"
    );
}
