//! Lowering: a validated [`Scenario`] onto a
//! [`PartitionBuilder`]/[`Experiment`] build.
//!
//! The lowering rules are chosen so that a scenario reproduces the exact
//! component and channel build order of the hand-rolled harnesses it
//! replaced (component order determines event-log fingerprints):
//!
//! * Nodes are instantiated in **declaration order** — one document walk.
//! * A link's channel is created when its **first** endpoint node is built
//!   (hosts consume their single link; switches consume their links in link
//!   declaration order).
//! * A switch's port numbering is its links' declaration order.
//! * A link's `a` side maps to the first element of the channel pair — and
//!   to the listening (impairment direction 0) side of a distributed link.
//!
//! Per-link impairment PRNGs are seeded with
//! `mix_seed(scenario.seed, fnv1a_str(link_name))` and per-switch AQM PRNGs
//! with the switch name, so every random stream is a pure function of the
//! scenario file — bit-identical across executors, transports, shardings,
//! and checkpoint/restore.

use std::collections::BTreeMap;

use simbricks_apps::iperf::{IperfTcpClient, IperfTcpServer, IperfUdpClient, IperfUdpServer};
use simbricks_apps::memcache::{MemaslapClient, MemcachedServer, MEMCACHE_PORT};
use simbricks_apps::netperf::{NetperfClient, NetperfServer};
use simbricks_base::{fnv1a_str, mix_seed, ChannelEnd, ChannelParams, SimTime};
use simbricks_hostsim::{Application, HostConfig};
use simbricks_netsim::{SwitchBm, SwitchConfig};
use simbricks_netstack::SocketAddr;
use simbricks_runner::{Experiment, FaultKind, FaultSpec, PartitionBuilder};

use crate::spec::{AppSpec, FaultDeclKind, LinkSpec, Node, Scenario};

/// Name → global-component-id map produced by [`lower`], for pulling app
/// reports and switch stats out of a
/// [`simbricks_runner::RunResult`] by scenario name.
#[derive(Debug, Clone, Default)]
pub struct Lowered {
    /// `(host name, <name>.host component id)` in declaration order.
    pub hosts: Vec<(String, usize)>,
    /// `(switch name, component id)` in declaration order.
    pub switches: Vec<(String, usize)>,
}

fn partition_of<'a>(spec: &'a Scenario, node: &str) -> &'a str {
    spec.nodes
        .iter()
        .find(|n| n.name() == node)
        .map(|n| n.partition())
        .expect("validated: link endpoints resolve")
}

fn host_config(spec: &Scenario, name: &str) -> HostConfig {
    let h = spec.host(name).expect("validated: host exists");
    let mut cfg = HostConfig::new(h.kind, h.index);
    cfg.nic = h.nic;
    if let Some(cc) = h.congestion {
        cfg.congestion = cc;
    }
    if let Some(mtu) = h.mtu {
        cfg.mtu = mtu;
    }
    cfg
}

fn build_app(spec: &Scenario, app: &AppSpec) -> Box<dyn Application> {
    let dur = |d: Option<SimTime>| d.unwrap_or(spec.duration);
    let ip_of = |name: &str| host_config(spec, name).ip;
    match app {
        AppSpec::IperfTcpServer { port } => Box::new(IperfTcpServer::new(*port)),
        AppSpec::IperfTcpClient {
            server,
            port,
            duration,
        } => Box::new(IperfTcpClient::new(ip_of(server), *port, dur(*duration))),
        AppSpec::IperfUdpServer { port } => Box::new(IperfUdpServer::new(*port)),
        AppSpec::IperfUdpClient {
            server,
            port,
            rate_bps,
            payload,
            duration,
        } => Box::new(IperfUdpClient::new(
            SocketAddr::new(ip_of(server), *port),
            *rate_bps,
            *payload,
            dur(*duration),
        )),
        AppSpec::NetperfServer {
            stream_port,
            rr_port,
        } => Box::new(NetperfServer::new(*stream_port, *rr_port)),
        AppSpec::NetperfClient {
            server,
            stream_port,
            rr_port,
            stream_duration,
            rr_duration,
        } => {
            let half = SimTime::from_ps(spec.duration.as_ps() / 2);
            Box::new(NetperfClient::new(
                ip_of(server),
                *stream_port,
                *rr_port,
                stream_duration.unwrap_or(half),
                rr_duration.unwrap_or(half),
            ))
        }
        AppSpec::MemcachedServer => Box::new(MemcachedServer::new()),
        AppSpec::MemaslapClient {
            servers,
            concurrency,
            value_size,
            duration,
        } => {
            let addrs: Vec<SocketAddr> = servers
                .iter()
                .map(|s| SocketAddr::new(ip_of(s), MEMCACHE_PORT))
                .collect();
            Box::new(MemaslapClient::new(
                addrs,
                *concurrency,
                *value_size,
                dur(*duration),
            ))
        }
    }
}

/// Channel parameters for one link: the experiment's Ethernet defaults plus
/// the link's latency override and impairment model (seed derived from the
/// scenario seed and the link name unless pinned in the file).
fn link_params(spec: &Scenario, base: ChannelParams, link: &LinkSpec) -> ChannelParams {
    let mut p = base;
    if let Some(l) = link.latency {
        p = p.with_latency(l).with_sync_interval(p.sync_interval.min(l));
    }
    if let Some(imp) = &link.impairment {
        p = p.with_impairment(imp.build(mix_seed(spec.seed, fnv1a_str(&link.name))));
    }
    p
}

/// Fetch this node's endpoint of link `li`, creating the channel if this is
/// the first endpoint to be built and parking the far side for its owner.
fn take_end(
    spec: &Scenario,
    pb: &mut PartitionBuilder,
    pending: &mut BTreeMap<usize, ChannelEnd>,
    li: usize,
    side: u8,
) -> ChannelEnd {
    if let Some(end) = pending.remove(&li) {
        return end;
    }
    let link = &spec.links[li];
    let params = link_params(spec, pb.exp().eth_params(), link);
    let (pa, pbn) = (
        partition_of(spec, &link.a).to_string(),
        partition_of(spec, &link.b).to_string(),
    );
    let (a_end, b_end) = pb.channel(&link.name, &pa, &pbn, params);
    if side == 0 {
        pending.insert(li, b_end);
        a_end
    } else {
        pending.insert(li, a_end);
        b_end
    }
}

/// Lower a validated scenario onto `pb`. Calls [`PartitionBuilder::init`]
/// with the configured [`Experiment`], instantiates every node, and returns
/// the name → component-id map.
pub fn lower(spec: &Scenario, pb: &mut PartitionBuilder) -> Lowered {
    let mut exp = Experiment::new(&spec.name, spec.duration.saturating_add(spec.end_margin));
    if spec.log {
        exp = exp.with_logging();
    }
    if !spec.synchronized {
        exp = exp.unsynchronized();
    }
    if let Some(l) = spec.link_latency {
        exp = exp.with_link_latency(l);
    }
    if let Some(l) = spec.pcie_latency {
        exp = exp.with_pcie_latency(l);
    }
    if let Some(i) = spec.sync_interval {
        exp = exp.with_sync_interval(i);
    }
    if spec.hier_sync {
        exp = exp.with_hier_sync();
    }
    pb.init(exp);

    let mut lowered = Lowered::default();
    // Far ends of already-created channels, keyed by link index.
    let mut pending: BTreeMap<usize, ChannelEnd> = BTreeMap::new();

    for node in &spec.nodes {
        match node {
            Node::Host(h) => {
                let (li, side) = spec.links_of(&h.name)[0];
                let end = take_end(spec, pb, &mut pending, li, side);
                let cfg = host_config(spec, &h.name);
                let app = build_app(spec, &h.app);
                let (hid, _nid) =
                    pb.attach_host_nic_on(&h.partition, &h.name, cfg, app, h.rtl_nic, end);
                lowered.hosts.push((h.name.clone(), hid));
            }
            Node::Switch(s) => {
                let link_list = spec.links_of(&s.name);
                let mut ends = Vec::with_capacity(link_list.len());
                for (li, side) in &link_list {
                    ends.push(take_end(spec, pb, &mut pending, *li, *side));
                }
                let mut cfg = SwitchConfig {
                    ports: ends.len(),
                    seed: mix_seed(spec.seed, fnv1a_str(&s.name)),
                    ..Default::default()
                };
                if let Some(b) = s.bandwidth_bps {
                    cfg.bandwidth_bps = b;
                }
                if let Some(q) = s.queue_capacity {
                    cfg.queue_capacity = q;
                }
                if let Some(a) = s.aqm {
                    cfg.aqm = Some(a.to_aqm());
                }
                let mut sw = SwitchBm::new(cfg);
                for (port, (li, _)) in link_list.iter().enumerate() {
                    if let Some(a) = spec.links[*li].aqm {
                        sw.set_port_aqm(port, a.to_aqm());
                    }
                }
                let id = pb.add(&s.partition, &s.name, Box::new(sw), ends);
                lowered.switches.push((s.name.clone(), id));
            }
        }
    }
    debug_assert!(pending.is_empty(), "all channel ends consumed");
    lowered
}

/// Lower the scenario's `[[fault]]` declarations onto runner
/// [`FaultSpec`]s. Omitted targets are resolved deterministically from the
/// scenario seed mixed with the fault's position (`mix_seed(seed,
/// fnv1a_str("fault#<i>"))`), so a given scenario file always yields the
/// same schedule — replays and CI reruns inject identical faults.
pub fn fault_schedule(spec: &Scenario) -> Vec<FaultSpec> {
    let partitions = spec.partitions();
    let cross_links: Vec<&str> = spec
        .links
        .iter()
        .filter(|l| spec.link_crosses_partitions(l))
        .map(|l| l.name.as_str())
        .collect();
    spec.faults
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let pick = |n: usize| {
                (mix_seed(spec.seed, fnv1a_str(&format!("fault#{i}"))) % n as u64) as usize
            };
            let kind = match f.kind {
                FaultDeclKind::KillWorker => FaultKind::KillWorker {
                    partition: match &f.partition {
                        Some(p) => p.clone(),
                        // validate(): partitions is never empty (>= 1 host).
                        None => partitions[pick(partitions.len())].clone(),
                    },
                },
                FaultDeclKind::SeverLink => FaultKind::SeverLink {
                    link: match &f.link {
                        Some(l) => l.clone(),
                        // validate(): cross_links is non-empty for untargeted
                        // sever_link faults.
                        None => cross_links[pick(cross_links.len())].to_string(),
                    },
                },
                FaultDeclKind::CorruptCheckpoint => FaultKind::CorruptCheckpoint,
                FaultDeclKind::TruncateCheckpoint => FaultKind::TruncateCheckpoint,
            };
            FaultSpec { at: f.at, kind }
        })
        .collect()
}

/// `BuildFn`-shaped entry point: the scenario string **is** the TOML text,
/// so distributed workers rebuild their partition from the identical
/// document the orchestrator parsed. Panics with the scenario error message
/// on invalid input (the orchestrator validates first, so a worker-side
/// failure means the file changed mid-run).
pub fn build_from_toml(scenario: &str, pb: &mut PartitionBuilder) {
    let spec =
        Scenario::from_toml_str(scenario).unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    lower(&spec, pb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_hostsim::HostModel;
    use simbricks_runner::Execution;

    const BACK_TO_BACK: &str = r#"
[scenario]
name = "b2b"
duration = "200us"
log = true

[[host]]
name = "s0"
kind = "qemu_timing"

[host.app]
type = "iperf_tcp_server"

[[host]]
name = "c0"
kind = "qemu_timing"

[host.app]
type = "iperf_tcp_client"
server = "s0"

[[link]]
name = "wire"
a = "s0"
b = "c0"
"#;

    #[test]
    fn lowers_and_runs_a_host_pair() {
        let spec = Scenario::from_toml_str(BACK_TO_BACK).unwrap();
        let mut pb = PartitionBuilder::new_local();
        let low = lower(&spec, &mut pb);
        assert_eq!(low.hosts.len(), 2);
        let r = pb.into_experiment().run(Execution::Sequential);
        assert_eq!(
            r.component_names,
            ["s0.host", "s0.nic", "c0.host", "c0.nic"]
        );
        let server: &HostModel = r.model(low.hosts[0].1).unwrap();
        assert!(
            server.app_report().contains("goodput="),
            "server report: {}",
            server.app_report()
        );
    }

    #[test]
    fn scenario_fingerprint_is_stable_across_runs_and_seed_sensitive() {
        let run = |text: &str| {
            let spec = Scenario::from_toml_str(text).unwrap();
            let mut pb = PartitionBuilder::new_local();
            lower(&spec, &mut pb);
            pb.into_experiment()
                .run(Execution::Sequential)
                .merged_log()
                .fingerprint()
        };
        let impaired = BACK_TO_BACK.to_string()
            + "\n[link.impairment]\nloss = \"bernoulli\"\nloss_permille = 30\njitter = \"100ns\"\n";
        let a = run(&impaired);
        let b = run(&impaired);
        assert_eq!(a, b, "same scenario must be bit-identical");
        let reseeded = impaired.replace("duration = \"200us\"", "duration = \"200us\"\nseed = 99");
        assert_ne!(a, run(&reseeded), "seed must steer the impairment streams");
    }

    #[test]
    fn fault_schedule_is_deterministic_and_seed_derived() {
        let text = BACK_TO_BACK.to_string()
            + "\n[[fault]]\nat = \"50us\"\nkind = \"kill_worker\"\n\
               \n[[fault]]\nat = \"80us\"\nkind = \"sever_link\"\nlink = \"wire\"\n";
        // Put c0 in its own partition so `wire` crosses partitions.
        let text = text.replace("name = \"c0\"\n", "name = \"c0\"\npartition = \"p1\"\n");
        let spec = Scenario::from_toml_str(&text).unwrap();
        let a = fault_schedule(&spec);
        let b = fault_schedule(&spec);
        assert_eq!(a, b, "schedule must be a pure function of the file");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].at, SimTime::from_us(50));
        // Untargeted kill picks a declared partition, seed-derived.
        match &a[0].kind {
            FaultKind::KillWorker { partition } => {
                assert!(spec.partitions().contains(partition));
            }
            k => panic!("expected KillWorker, got {k:?}"),
        }
        assert_eq!(
            a[1].kind,
            FaultKind::SeverLink {
                link: "wire".into()
            }
        );
        // A different seed may steer untargeted picks; at minimum the
        // schedule stays well-formed and deterministic per seed.
        let reseeded = text.replace("duration = \"200us\"", "duration = \"200us\"\nseed = 3");
        let spec2 = Scenario::from_toml_str(&reseeded).unwrap();
        assert_eq!(fault_schedule(&spec2), fault_schedule(&spec2));
    }

    #[test]
    fn per_port_aqm_override_applies_to_switch_side() {
        let text = r#"
[scenario]
name = "aqm-port"
duration = "100us"

[[host]]
name = "s0"

[host.app]
type = "iperf_tcp_server"

[[host]]
name = "c0"

[host.app]
type = "iperf_tcp_client"
server = "s0"

[[switch]]
name = "sw"
ecn_k = 20

[[link]]
name = "l0"
a = "s0"
b = "sw"

[[link]]
name = "l1"
a = "c0"
b = "sw"

[link.aqm]
type = "codel"
target = "5us"
interval = "100us"
"#;
        let spec = Scenario::from_toml_str(text).unwrap();
        // Build the switch exactly as the lowering does and check the ports.
        let mut pb = PartitionBuilder::new_local();
        lower(&spec, &mut pb);
        // Port 0 carries link l0 (dctcp default), port 1 carries l1 (codel).
        let r = pb.into_experiment().run(Execution::Sequential);
        let sw: &SwitchBm = r.model(4).unwrap();
        assert_eq!(
            sw.port_aqm(0),
            simbricks_netsim::Aqm::DctcpThreshold { k_pkts: 20 }
        );
        assert_eq!(
            sw.port_aqm(1),
            simbricks_netsim::Aqm::CoDel {
                target: SimTime::from_us(5),
                interval: SimTime::from_us(100),
            }
        );
    }
}
