//! Shared helpers for the benchmark harness that regenerates the paper's
//! tables and figures. Every binary in `src/bin/` builds experiments from
//! these helpers, runs them, and prints the corresponding rows/series.
//!
//! Durations are scaled down from the paper's 1–10 s of virtual time so each
//! harness completes in seconds to minutes on a laptop-class machine; the
//! *shape* of each result (who wins, by what factor, where crossovers fall)
//! is what the README's "Reproducing the paper's results" compares against
//! the paper.
//!
//! The standard topologies are scenario documents from
//! [`simbricks::scenario::topo`], lowered through [`simbricks::scenario`].

use simbricks::apps::{IperfUdpClient, IperfUdpServer, NetperfClient, NetperfServer};
use simbricks::base::{
    channel_pair, fnv1a_str, mix_seed, ChannelEnd, ChannelParams, Kernel, Model, OwnedMsg, PortId,
};
use simbricks::hostsim::{Application, HostConfig, HostKind, HostModel, NicModelKind};
use simbricks::netsim::des::{EndpointApp, EndpointCtx};
use simbricks::netsim::{
    DesNetwork, LinkParams, QueueDiscipline, SwitchBm, SwitchConfig, TofinoConfig, TofinoSwitch,
};
use simbricks::netstack::{CongestionControl, SocketAddr, SocketEvent, SocketId, StackConfig};
use simbricks::proto::{Ipv4Addr, MacAddr};
use simbricks::runner::{
    attach_host_nic, host_component, nic_model, Execution, Experiment, PartitionBuilder,
};
use simbricks::scenario::{build_from_toml, lower, topo, Scenario};
use simbricks::SimTime;

/// Re-export for binaries.
pub use simbricks;

/// Result of one netperf-style run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetperfResult {
    pub throughput_gbps: f64,
    pub latency_us: f64,
    pub wall_seconds: f64,
    pub virtual_time: SimTime,
    pub syncs: u64,
}

fn parse_report(report: &str) -> (f64, f64) {
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
    (tput, lat)
}

/// Which network simulator to use in standard experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    SwitchBm,
    Des,
    Tofino,
}

/// Two hosts running netperf through a NIC pair and a network — the Tab. 1 /
/// Tab. 3 configuration.
pub fn netperf_config(
    host: HostKind,
    nic: NicModelKind,
    rtl_nic: bool,
    net: Net,
    stream: SimTime,
    rr: SimTime,
    pcie_latency: SimTime,
) -> NetperfResult {
    let total = stream + rr + SimTime::from_ms(5);
    let mut exp = Experiment::new("netperf", total).with_pcie_latency(pcie_latency);
    if !host.synchronized() {
        exp = exp.unsynchronized();
    }
    let server_cfg = HostConfig::new(host, 0).with_nic(nic);
    let client_cfg = HostConfig::new(host, 1).with_nic(nic);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(server_cfg.ip, 5201, 5202, stream, rr));
    let (_s, _, s_eth) = attach_host_nic(&mut exp, "server", server_cfg, server_app, rtl_nic);
    let (c, _, c_eth) = attach_host_nic(&mut exp, "client", client_cfg, client_app, rtl_nic);
    match net {
        Net::SwitchBm => {
            exp.add(
                "switch",
                Box::new(SwitchBm::new(SwitchConfig {
                    ports: 2,
                    ..Default::default()
                })),
                vec![s_eth, c_eth],
            );
        }
        Net::Des => {
            let mut net = DesNetwork::new();
            let sw = net.add_switch();
            let a = net.add_external_port(0);
            let b = net.add_external_port(1);
            net.connect(a, sw, LinkParams::default());
            net.connect(b, sw, LinkParams::default());
            exp.add("des-net", Box::new(net), vec![s_eth, c_eth]);
        }
        Net::Tofino => {
            exp.add(
                "tofino",
                Box::new(TofinoSwitch::new(TofinoConfig {
                    ports: 2,
                    ..Default::default()
                })),
                vec![s_eth, c_eth],
            );
        }
    }
    let r = exp.run(Execution::Sequential);
    let client: &HostModel = r.model(c).unwrap();
    let (tput, lat) = parse_report(&client.app_report());
    let total_stats = r.total_stats();
    NetperfResult {
        throughput_gbps: tput,
        latency_us: lat,
        wall_seconds: r.wall_seconds(),
        virtual_time: r.virtual_time,
        syncs: total_stats.syncs_sent,
    }
}

/// Build the Fig. 1 end-to-end dctcp experiment (2 client/server pairs, one
/// shared 10 G bottleneck with ECN threshold `k_packets`); returns the
/// experiment plus the server-host component ids whose iperf reports carry
/// the per-flow goodput. `log` enables event logging (bit-identity checks,
/// checkpoint demos).
pub fn dctcp_e2e_build(k_packets: usize, duration: SimTime, log: bool) -> (Experiment, Vec<usize>) {
    let doc = topo::header("dctcp-e2e", 1, duration, SimTime::from_ms(5), log, false)
        + &topo::dctcp(k_packets);
    let spec = Scenario::from_toml_str(&doc).expect("generated scenario is valid");
    let mut pb = PartitionBuilder::new_local();
    let low = lower(&spec, &mut pb);
    let servers = low
        .hosts
        .iter()
        .filter(|(name, _)| name.starts_with('s'))
        .map(|(_, id)| *id)
        .collect();
    (pb.into_experiment(), servers)
}

/// Aggregate goodput (Gbps) reported by the server hosts of a completed
/// [`dctcp_e2e_build`] run.
pub fn dctcp_goodput(r: &simbricks::runner::RunResult, servers: &[usize]) -> f64 {
    let mut total = 0.0;
    for &s in servers {
        let host: &HostModel = r.model(s).unwrap();
        let report = host.app_report();
        let g = report
            .split_whitespace()
            .find_map(|t| {
                t.strip_prefix("goodput=")
                    .and_then(|v| v.strip_suffix("Gbps"))
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        total += g;
    }
    total
}

/// Result of a dctcp fixed-threshold run: aggregate goodput in Gbps of two
/// flows sharing a single 10 Gbps bottleneck link between two switches (the
/// Fig. 1 topology: 2 clients and 2 servers, one shared bottleneck, ECN
/// marking threshold K at the bottleneck queue).
pub fn dctcp_end_to_end(k_packets: usize, duration: SimTime) -> f64 {
    let (exp, servers) = dctcp_e2e_build(k_packets, duration, false);
    let r = exp.run(Execution::Sequential);
    dctcp_goodput(&r, &servers)
}

/// The standard determinism-check configuration (§7.6): two gem5-like hosts
/// running netperf ([`topo::netperf_pair`], 5 + 5 ms) through the
/// behavioural switch, with event logging on.
pub fn netperf_logged_experiment() -> Experiment {
    let doc = topo::header(
        "sec76-netperf",
        1,
        SimTime::from_ms(10),
        SimTime::from_ms(2),
        true,
        false,
    ) + &topo::netperf_pair();
    let mut pb = PartitionBuilder::new_local();
    build_from_toml(&doc, &mut pb);
    pb.into_experiment()
}

/// An iperf-like endpoint running directly inside the DES network simulator —
/// the "ns-3 alone" baseline of Fig. 1 (no host, NIC, or driver model).
pub struct IperfEndpoint {
    server: Option<(Ipv4Addr, u16)>,
    listen_port: Option<u16>,
    sock: Option<SocketId>,
    duration: SimTime,
    pub bytes: u64,
    chunk: Vec<u8>,
}

impl IperfEndpoint {
    pub fn client(server: Ipv4Addr, port: u16, duration: SimTime) -> Self {
        IperfEndpoint {
            server: Some((server, port)),
            listen_port: None,
            sock: None,
            duration,
            bytes: 0,
            chunk: vec![0x42; 32 * 1024],
        }
    }
    pub fn server(port: u16) -> Self {
        IperfEndpoint {
            server: None,
            listen_port: Some(port),
            sock: None,
            duration: SimTime::ZERO,
            bytes: 0,
            chunk: Vec::new(),
        }
    }
    fn pump(&mut self, ctx: &mut EndpointCtx) {
        if let Some(s) = self.sock {
            loop {
                let n = ctx.stack.tcp_send(s, &self.chunk);
                self.bytes += n as u64;
                if n < self.chunk.len() {
                    break;
                }
            }
        }
    }
}

impl EndpointApp for IperfEndpoint {
    fn start(&mut self, ctx: &mut EndpointCtx) {
        if let Some(port) = self.listen_port {
            ctx.stack.tcp_listen(port);
        }
        if let Some((ip, port)) = self.server {
            self.sock = Some(ctx.stack.tcp_connect(ctx.now, ip, port));
            ctx.timers.push((ctx.now + self.duration, 1));
        }
    }
    fn on_event(&mut self, ctx: &mut EndpointCtx, ev: SocketEvent) {
        match ev {
            SocketEvent::Connected(_) | SocketEvent::SendSpace(_) if self.server.is_some() => {
                self.pump(ctx)
            }
            SocketEvent::DataAvailable(s) | SocketEvent::Accepted { socket: s, .. }
                if self.listen_port.is_some() =>
            {
                let data = ctx.stack.tcp_recv(s, usize::MAX);
                self.bytes += data.len() as u64;
            }
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut EndpointCtx, _token: u64) {
        if let Some(s) = self.sock {
            ctx.stack.tcp_close(s);
        }
        *ctx.done = true;
    }
    fn report(&self) -> String {
        format!("bytes={}", self.bytes)
    }
}

/// The Fig. 1 "network simulator alone" baseline: two DCTCP flows simulated
/// entirely inside the DES network with idealized endpoints; returns the
/// aggregate goodput in Gbps.
pub fn dctcp_network_only(k_packets: usize, duration: SimTime) -> f64 {
    let mut exp = Experiment::new("dctcp-ns3-alone", duration + SimTime::from_ms(5));
    let mut net = DesNetwork::new();
    // Same topology as the end-to-end run: clients behind one switch, servers
    // behind another, a single shared 10 G bottleneck link with the ECN
    // marking queue in between.
    let sw_clients = net.add_switch();
    let sw_servers = net.add_switch();
    let bottleneck = LinkParams {
        queue: QueueDiscipline::EcnThreshold {
            threshold_pkts: k_packets,
            capacity_bytes: 1 << 20,
        },
        ..LinkParams::default()
    };
    net.connect(sw_clients, sw_servers, bottleneck);
    let mut servers = Vec::new();
    for pair in 0..2u32 {
        let sip = Ipv4Addr::from_index(100 + pair * 2);
        let cip = Ipv4Addr::from_index(101 + pair * 2);
        let scfg = StackConfig {
            ip: sip,
            mac: MacAddr::from_index(200 + pair as u64 * 2),
            congestion: CongestionControl::Dctcp,
            mtu: 4000,
            ..StackConfig::default()
        };
        let ccfg = StackConfig {
            ip: cip,
            mac: MacAddr::from_index(201 + pair as u64 * 2),
            congestion: CongestionControl::Dctcp,
            mtu: 4000,
            ..StackConfig::default()
        };
        let s = net.add_endpoint(scfg, Box::new(IperfEndpoint::server(5000 + pair as u16)));
        let c = net.add_endpoint(
            ccfg,
            Box::new(IperfEndpoint::client(sip, 5000 + pair as u16, duration)),
        );
        // Access links carry a single flow each and are not the bottleneck.
        net.connect(s, sw_servers, LinkParams::default());
        net.connect(c, sw_clients, LinkParams::default());
        servers.push(s);
    }
    let idx = exp.add("des-net", Box::new(net), vec![]);
    let r = exp.run(Execution::Sequential);
    let net: &DesNetwork = r.model(idx).unwrap();
    let mut total_bytes = 0u64;
    for s in servers {
        let rep = net.endpoint_report(s);
        total_bytes += rep
            .strip_prefix("bytes=")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total_bytes as f64 * 8.0 / duration.as_secs_f64() / 1e9
}

/// Sync wiring of the scale-up workload in Fig. 6's in-process columns
/// ([`udp_scaleup_wired`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wiring {
    /// SimBricks (§5.5): every PCIe and Ethernet channel is synchronized
    /// pairwise.
    Pairwise,
    /// The dist-gem5 stand-in: every PCIe and Ethernet channel is
    /// unsynchronized, so the kernel hands data to the model at poll time.
    /// A coordinator component is linked to every host, NIC and switch by a
    /// synchronized channel whose latency is half an epoch, the epoch being
    /// the smallest link latency. No component can then run more than one
    /// epoch past the slowest, which is a quantum barrier's window, and
    /// every quantum costs a SYNC exchange with the coordinator.
    Coordinator,
}

/// The hub of [`Wiring::Coordinator`]. Its model does nothing: its kernel
/// relays time between the components as SYNCs on its links.
struct Coordinator;

impl Model for Coordinator {
    fn on_msg(&mut self, _k: &mut Kernel, _port: PortId, _msg: OwnedMsg) {}
}

/// The workload of [`topo::scale_up`] (one partition, flat sync, no log),
/// built by hand so that its sync wiring can change while the hosts,
/// apps, rates, switch and component order stay those of the document.
///
/// Component 0 is the server's host. Under [`Wiring::Coordinator`] the
/// coordinator is the last component, and each other component's link to it
/// is that component's last port; no model enumerates its ports, so the
/// models never see the link.
pub fn udp_scaleup_wired(
    hosts: usize,
    kind: HostKind,
    duration: SimTime,
    wiring: Wiring,
) -> Experiment {
    let mut exp = Experiment::new("scaleup", duration + SimTime::from_ms(2));
    let star = wiring == Wiring::Coordinator;
    let (mut eth, mut pcie) = (exp.eth_params(), exp.pcie_params());
    eth.sync &= !star;
    pcie.sync &= !star;
    let half_epoch = SimTime::from_ps(eth.latency.min(pcie.latency).as_ps() / 2);
    let hub_link = ChannelParams {
        latency: half_epoch,
        sync_interval: half_epoch,
        ..exp.eth_params()
    };
    let mut hub_ports = Vec::new();
    let mut with_hub = |mut ports: Vec<ChannelEnd>| {
        if star {
            let (own, hub) = channel_pair(hub_link);
            ports.push(own);
            hub_ports.push(hub);
        }
        ports
    };

    let server_ip = HostConfig::new(kind, 0).ip;
    let per_client_rate = 1_000_000_000 / (hosts.max(2) as u64 - 1);
    let mut switch_ports = Vec::with_capacity(hosts);
    for i in 0..hosts {
        let cfg = HostConfig::new(kind, i as u32);
        let (name, app): (String, Box<dyn Application>) = if i == 0 {
            ("server".into(), Box::new(IperfUdpServer::new(9000)))
        } else {
            let server = SocketAddr::new(server_ip, 9000);
            let app = IperfUdpClient::new(server, per_client_rate, 800, duration);
            (format!("client{i}"), Box::new(app))
        };
        let (eth_nic, eth_switch) = channel_pair(eth);
        let (pcie_host, pcie_nic) = channel_pair(pcie);
        switch_ports.push(eth_switch);
        let host = host_component(cfg, app);
        exp.add(format!("{name}.host"), host, with_hub(vec![pcie_host]));
        let nic = nic_model(cfg.nic, false);
        exp.add(
            format!("{name}.nic"),
            nic,
            with_hub(vec![pcie_nic, eth_nic]),
        );
    }
    let switch = SwitchBm::new(SwitchConfig {
        ports: hosts,
        seed: mix_seed(1, fnv1a_str("switch")),
        ..Default::default()
    });
    exp.add("switch", Box::new(switch), with_hub(switch_ports));
    if star {
        exp.add("coordinator", Box::new(Coordinator), hub_ports);
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks::runner::dist::run_local;

    /// Frames the server received and the client sent (component 2 is the
    /// client's host).
    fn server_rx_client_tx(r: &simbricks::runner::RunResult) -> (u64, u64) {
        let host = |i| r.model::<HostModel>(i).unwrap().stats();
        (host(0).rx_frames, host(2).tx_frames)
    }

    #[test]
    fn coordinator_star_delivers_every_frame_and_carries_every_sync() {
        let duration = SimTime::from_ms(1);
        let kind = HostKind::QemuTiming;
        let pairwise =
            udp_scaleup_wired(2, kind, duration, Wiring::Pairwise).run(Execution::Sequential);
        // The pairwise wiring is the scenario document's build.
        let doc = topo::header("scaleup", 1, duration, SimTime::from_ms(2), false, false)
            + &topo::scale_up(2, kind, 1);
        let doc = run_local(&doc, &build_from_toml, Execution::Sequential).total_stats();
        let total = pairwise.total_stats();
        assert_eq!(
            (
                total.msgs_delivered,
                total.timers_fired,
                total.data_sent,
                total.syncs_sent
            ),
            (
                doc.msgs_delivered,
                doc.timers_fired,
                doc.data_sent,
                doc.syncs_sent
            )
        );

        let exp = udp_scaleup_wired(2, kind, duration, Wiring::Coordinator);
        let hub = exp.num_components() - 1;
        assert_eq!(exp.component_names()[hub], "coordinator");
        for c in 0..hub {
            let k = exp.kernel(c);
            let last = k.num_ports() - 1;
            assert!(
                k.port_sync_enabled(PortId(last)),
                "{}: coordinator link",
                k.name()
            );
            for p in 0..last {
                assert!(
                    !k.port_sync_enabled(PortId(p)),
                    "{}: data port {p}",
                    k.name()
                );
            }
        }
        let k = exp.kernel(hub);
        assert_eq!(k.num_ports(), hub);
        assert!((0..hub).all(|p| k.port_sync_enabled(PortId(p))));

        let star = exp.run(Execution::Sequential);
        // Every frame the client sends reaches the server under both
        // wirings. The counts differ between them: at 1 Gbit/s the client's
        // send loop is bound by PCIe and Ethernet latency, which poll-time
        // delivery removes, so the star sends more in the same time.
        for r in [&pairwise, &star] {
            let (rx, tx) = server_rx_client_tx(r);
            assert!(rx > 100, "traffic flowed ({rx} frames)");
            assert_eq!(rx, tx);
        }
        // Only coordinator links are synchronized, so they carry every SYNC.
        assert!(star.stats[hub].syncs_sent > 0);
    }
}
