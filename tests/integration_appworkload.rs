//! Application-workload determinism: the PR-7 hash-order audit converted
//! every simulation-path table (socket maps, key-value stores, in-flight
//! request tables, MAC tables) to ordered structures. This is the
//! end-to-end regression for that audit: realistic application workloads —
//! a memcached rack and a Multi-Paxos replica group — must produce merged
//! event logs bit-identical between the sequential executor and the
//! sharded executor at every worker count.
//!
//! Under the pre-audit `HashMap` tables these workloads diverge: each
//! process (and each run) gets its own `RandomState`, so any
//! iteration-order-dependent effect (timer sweep order, snapshot bytes,
//! reply matching) shuffles the event timeline.

use simbricks::apps::paxos::{PaxosClient, PaxosMode, Replica, PAXOS_LEADER_PORT};
use simbricks::apps::{MemaslapClient, MemcachedServer};
use simbricks::base::EventLog;
use simbricks::hostsim::{HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::SocketAddr;
use simbricks::proto::Ipv4Addr;
use simbricks::runner::{attach_host_nic, Execution, Experiment};
use simbricks::SimTime;

/// A small memcached rack: two servers, two memaslap clients spraying GETs
/// and SETs across both (round-robin), one switch. Exercises the ordered
/// key-value store, the in-flight request table (FIFO matching + retry
/// sweep), UDP socket tables, and switch MAC learning.
fn run_memcache_rack(mode: Execution) -> (u64, usize) {
    let virt = SimTime::from_ms(4);
    let mut exp = Experiment::new("appwl-memcache", virt + SimTime::from_ms(1)).with_logging();
    let kind = HostKind::Gem5Timing;
    let mut eth = Vec::new();
    let server_cfgs: Vec<HostConfig> = (0..2u32).map(|i| HostConfig::new(kind, i)).collect();
    let server_addrs: Vec<SocketAddr> = server_cfgs
        .iter()
        .map(|c| SocketAddr::new(c.ip, simbricks::apps::memcache::MEMCACHE_PORT))
        .collect();
    for (i, cfg) in server_cfgs.iter().enumerate() {
        let (_h, _n, e) = attach_host_nic(
            &mut exp,
            &format!("server{i}"),
            *cfg,
            Box::new(MemcachedServer::new()),
            false,
        );
        eth.push(e);
    }
    for i in 0..2u32 {
        let cfg = HostConfig::new(kind, 10 + i);
        let app = Box::new(MemaslapClient::new(server_addrs.clone(), 4, 64, virt));
        let (_h, _n, e) = attach_host_nic(&mut exp, &format!("client{i}"), cfg, app, false);
        eth.push(e);
    }
    let ports = eth.len();
    exp.add(
        "switch",
        Box::new(SwitchBm::new(SwitchConfig {
            ports,
            ..Default::default()
        })),
        eth,
    );
    let r = exp.run(mode);
    let logs: Vec<&EventLog> = r.logs.iter().collect();
    let merged = EventLog::merge(&logs);
    (merged.fingerprint(), merged.len())
}

/// Leader-based Multi-Paxos: three replicas and a closed-loop client.
/// Exercises the replica's pending-proposal table and the client's
/// outstanding-request table (stuck-request sweep).
fn run_paxos(mode: Execution) -> (u64, usize) {
    let virt = SimTime::from_ms(6);
    let mut exp = Experiment::new("appwl-paxos", virt + SimTime::from_ms(2)).with_logging();
    let kind = HostKind::QemuTiming;
    let replica_cfgs: Vec<HostConfig> = (0..3u32).map(|i| HostConfig::new(kind, i)).collect();
    let replica_ips: Vec<Ipv4Addr> = replica_cfgs.iter().map(|c| c.ip).collect();
    let mut eth = Vec::new();
    for (i, cfg) in replica_cfgs.iter().enumerate() {
        let peers = replica_ips
            .iter()
            .filter(|ip| **ip != cfg.ip)
            .copied()
            .collect();
        let app = Box::new(Replica::new(i as u8, PaxosMode::MultiPaxos, peers));
        let (_h, _n, e) = attach_host_nic(&mut exp, &format!("replica{i}"), *cfg, app, false);
        eth.push(e);
    }
    let client_cfg = HostConfig::new(kind, 20);
    let target = SocketAddr::new(replica_ips[0], PAXOS_LEADER_PORT);
    let client_app = Box::new(PaxosClient::new(PaxosMode::MultiPaxos, target, 1, virt));
    let (_c, _n, e) = attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
    eth.push(e);
    let ports = eth.len();
    exp.add(
        "switch",
        Box::new(SwitchBm::new(SwitchConfig {
            ports,
            ..Default::default()
        })),
        eth,
    );
    let r = exp.run(mode);
    let logs: Vec<&EventLog> = r.logs.iter().collect();
    let merged = EventLog::merge(&logs);
    (merged.fingerprint(), merged.len())
}

#[test]
fn memcache_rack_sharded_matches_sequential() {
    let (f_seq, n_seq) = run_memcache_rack(Execution::Sequential);
    assert!(n_seq > 100, "logs actually contain events ({n_seq})");
    for workers in [1usize, 2, 4] {
        let (f_sh, n_sh) = run_memcache_rack(Execution::Sharded { workers });
        assert_eq!(n_seq, n_sh, "same event count with {workers} workers");
        assert_eq!(
            f_seq, f_sh,
            "memcache rack: sequential and sharded ({workers} workers) logs bit-identical"
        );
    }
}

#[test]
fn paxos_sharded_matches_sequential() {
    let (f_seq, n_seq) = run_paxos(Execution::Sequential);
    assert!(n_seq > 100, "logs actually contain events ({n_seq})");
    for workers in [1usize, 2, 4] {
        let (f_sh, n_sh) = run_paxos(Execution::Sharded { workers });
        assert_eq!(n_seq, n_sh, "same event count with {workers} workers");
        assert_eq!(
            f_seq, f_sh,
            "paxos: sequential and sharded ({workers} workers) logs bit-identical"
        );
    }
}

/// Repeated sequential runs of the memcache rack are self-identical — the
/// cheapest canary for ambient nondeterminism creeping into the apps.
#[test]
fn memcache_rack_repeated_runs_identical() {
    let (f1, n1) = run_memcache_rack(Execution::Sequential);
    let (f2, n2) = run_memcache_rack(Execution::Sequential);
    assert_eq!(n1, n2);
    assert_eq!(f1, f2);
}
