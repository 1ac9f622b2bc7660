//! Scale-out proxies (§5.4): a channel transparently bridged over TCP behaves
//! like a direct shared-memory channel, so simulations can be partitioned
//! across physical machines without the components noticing.

use simbricks::apps::{IperfUdpClient, IperfUdpServer};
use simbricks::hostsim::{HostConfig, HostKind, HostModel};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::SocketAddr;
use simbricks::runner::{host_component, nic_model, proxy_pair, Execution, Experiment, ProxyKind};
use simbricks::SimTime;

#[test]
fn udp_traffic_flows_across_a_tcp_proxied_ethernet_link() {
    let mut exp = Experiment::new("proxy", SimTime::from_ms(6));
    let server_cfg = HostConfig::new(HostKind::QemuTiming, 0);
    let client_cfg = HostConfig::new(HostKind::QemuTiming, 1);
    let server_app = Box::new(IperfUdpServer::new(9000));
    let client_app = Box::new(IperfUdpClient::new(
        SocketAddr::new(server_cfg.ip, 9000),
        200_000_000,
        600,
        SimTime::from_ms(4),
    ));

    // Server host + NIC, with the NIC's Ethernet link bridged over TCP: this
    // is the link that would cross physical machines in a distributed run.
    let (srv_pcie_host, srv_pcie_nic) = simbricks::base::channel_pair(exp.pcie_params());
    let (srv_eth_nic, srv_eth_switch, proxy) =
        proxy_pair(ProxyKind::Tcp, exp.eth_params()).expect("proxy setup");
    let s = exp.add(
        "server.host",
        host_component(server_cfg, server_app),
        vec![srv_pcie_host],
    );
    exp.add(
        "server.nic",
        nic_model(server_cfg.nic, false),
        vec![srv_pcie_nic, srv_eth_nic],
    );

    // Client host + NIC with a direct (local) Ethernet channel.
    let (cli_pcie_host, cli_pcie_nic) = simbricks::base::channel_pair(exp.pcie_params());
    let (cli_eth_nic, cli_eth_switch) = simbricks::base::channel_pair(exp.eth_params());
    exp.add(
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

    // One worker per component; the proxies are real threads moving real
    // TCP traffic.
    let workers = exp.num_components();
    let r = exp.run(Execution::Sharded { workers });
    let server: &HostModel = r.model(s).unwrap();
    assert!(
        server.stats().rx_frames > 50,
        "traffic crossed the proxied link (got {} frames)",
        server.stats().rx_frames
    );
    // The run dropped both component endpoints, so the forwarders wind down.
    assert!(
        proxy.join().forwarded > 50,
        "and crossed it through the forwarders"
    );
}
