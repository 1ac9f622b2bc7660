//! End-to-end integration tests: full software stack (application + TCP/UDP
//! stack + driver) over simulated NICs and networks, i.e. the configurations
//! of Tab. 1 at reduced duration.

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::hostsim::{HostConfig, HostKind, HostModel, NicModelKind};
use simbricks::netsim::{DesNetwork, LinkParams, SwitchBm, SwitchConfig};
use simbricks::runner::{attach_host_nic, Execution, Experiment};
use simbricks::SimTime;

/// Build and run a two-host netperf experiment; returns (throughput Gbps,
/// mean RR latency us).
fn netperf_pair(kind: HostKind, nic: NicModelKind, use_des: bool) -> (f64, f64) {
    let mut exp = Experiment::new("netperf-e2e", SimTime::from_ms(40));
    let server_cfg = HostConfig::new(kind, 0).with_nic(nic);
    let client_cfg = HostConfig::new(kind, 1).with_nic(nic);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(
        server_cfg.ip,
        5201,
        5202,
        SimTime::from_ms(18),
        SimTime::from_ms(18),
    ));
    let (_s, _, s_eth) = attach_host_nic(&mut exp, "server", server_cfg, server_app, false);
    let (c, _, c_eth) = attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
    if use_des {
        let mut net = DesNetwork::new();
        let sw = net.add_switch();
        let pa = net.add_external_port(0);
        let pb = net.add_external_port(1);
        net.connect(pa, sw, LinkParams::default());
        net.connect(pb, sw, LinkParams::default());
        exp.add("des-net", Box::new(net), vec![s_eth, c_eth]);
    } else {
        exp.add(
            "switch",
            Box::new(SwitchBm::new(SwitchConfig {
                ports: 2,
                ..Default::default()
            })),
            vec![s_eth, c_eth],
        );
    }
    let result = exp.run(Execution::Sequential);
    let client: &HostModel = result.model(c).unwrap();
    let client_app: Option<&HostModel> = result.model(c);
    assert!(client_app.is_some());
    let report = client.app_report();
    // Parse the throughput / latency out of the report produced by the app.
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

#[test]
fn netperf_gem5_i40e_switch_reaches_useful_throughput() {
    let (tput, lat) = netperf_pair(HostKind::Gem5Timing, NicModelKind::I40e, false);
    assert!(
        tput > 0.3,
        "TCP stream achieves some throughput, got {tput} Gbps"
    );
    assert!(
        lat > 1.0 && lat < 1000.0,
        "RR latency is plausible, got {lat} us"
    );
}

#[test]
fn netperf_qemu_timing_corundum_switch_works() {
    let (tput, lat) = netperf_pair(HostKind::QemuTiming, NicModelKind::Corundum, false);
    assert!(tput > 0.1, "got {tput} Gbps");
    assert!(lat > 1.0, "got {lat} us");
}

#[test]
fn netperf_over_des_network_works() {
    let (tput, _lat) = netperf_pair(HostKind::QemuTiming, NicModelKind::I40e, true);
    assert!(
        tput > 0.1,
        "ns-3-style network carries the flow, got {tput} Gbps"
    );
}

#[test]
fn corundum_is_more_sensitive_to_pcie_latency_than_i40e() {
    // §8.1: doubling the PCIe latency hurts the Corundum NIC (MMIO head-index
    // reads on the critical path) more than the i40e (descriptor polling in
    // host memory).
    let run = |nic: NicModelKind, pcie_ns: u64| -> f64 {
        let mut exp = Experiment::new("pcie-sens", SimTime::from_ms(30))
            .with_pcie_latency(SimTime::from_ns(pcie_ns));
        let server_cfg = HostConfig::new(HostKind::QemuTiming, 0).with_nic(nic);
        let client_cfg = HostConfig::new(HostKind::QemuTiming, 1).with_nic(nic);
        let server_app = Box::new(NetperfServer::new(5201, 5202));
        let client_app = Box::new(NetperfClient::new(
            server_cfg.ip,
            5201,
            5202,
            SimTime::from_ms(20),
            SimTime::from_ms(5),
        ));
        let (s, _, s_eth) = attach_host_nic(&mut exp, "server", server_cfg, server_app, false);
        let (_c, _, c_eth) = attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
        exp.add(
            "switch",
            Box::new(SwitchBm::new(SwitchConfig {
                ports: 2,
                ..Default::default()
            })),
            vec![s_eth, c_eth],
        );
        let result = exp.run(Execution::Sequential);
        let server: &HostModel = result.model(s).unwrap();
        server.stats().rx_frames as f64
    };
    let i40e_drop = run(NicModelKind::I40e, 500) / run(NicModelKind::I40e, 1000).max(1.0);
    let cor_drop = run(NicModelKind::Corundum, 500) / run(NicModelKind::Corundum, 1000).max(1.0);
    // Corundum suffers at least as much relative slowdown as the i40e.
    assert!(
        cor_drop >= i40e_drop * 0.95,
        "corundum ratio {cor_drop:.3} vs i40e ratio {i40e_drop:.3}"
    );
}
