//! Convenience builders wiring standard component combinations (host + NIC
//! pairs, network choices) into an [`Experiment`].

use simbricks_base::ChannelEnd;
use simbricks_hostsim::{Application, HostConfig, HostModel};
use simbricks_nicsim::{BehavioralNic, CorundumRtlNic, NicConfig, NicVariant, RtlConfig};

use crate::experiment::{AnyModel, Experiment};

/// Which network simulator an experiment uses (naming follows Tab. 1/3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkKind {
    /// Behavioural Ethernet switch.
    SwitchBm,
    /// Discrete-event network (ns-3/OMNeT++ stand-in).
    Des,
    /// Tofino-style programmable pipeline.
    Tofino,
}

/// Build a NIC model for the given variant (`rtl` selects the cycle-driven
/// Corundum data path instead of the behavioural one).
pub fn nic_model(variant: NicVariant, rtl: bool) -> Box<dyn AnyModel> {
    if rtl {
        Box::new(CorundumRtlNic::new(RtlConfig::default()))
    } else {
        let cfg = match variant {
            NicVariant::I40e => NicConfig::i40e(),
            NicVariant::Corundum => NicConfig::corundum(),
            NicVariant::E1000 => NicConfig::e1000(),
        };
        Box::new(BehavioralNic::new(cfg))
    }
}

/// Build a host component from its configuration and application.
pub fn host_component(cfg: HostConfig, app: Box<dyn Application>) -> Box<dyn AnyModel> {
    Box::new(HostModel::new(cfg, app))
}

/// Add a storage host + NVMe device pair to the experiment, connected by a
/// PCIe channel. Returns (host component id, device component id). This is
/// the §7.2 "PCIe interface generality" configuration: the same interface and
/// synchronization machinery as the NIC path, with a storage device and a
/// block workload instead.
pub fn attach_host_nvme(
    exp: &mut Experiment,
    name: &str,
    mut host_cfg: simbricks_hostsim::StorageHostConfig,
    app: Box<dyn simbricks_hostsim::BlockApp>,
    nvme_cfg: simbricks_nvmesim::NvmeConfig,
) -> (usize, usize) {
    if !exp.is_synchronized() {
        host_cfg.quit_when_done = true;
    }
    let (pcie_host, pcie_dev) = simbricks_base::channel_pair(exp.pcie_params());
    let host_id = exp.add(
        format!("{name}.host"),
        Box::new(simbricks_hostsim::StorageHostModel::new(host_cfg, app)),
        vec![pcie_host],
    );
    let dev_id = exp.add(
        format!("{name}.nvme"),
        Box::new(simbricks_nvmesim::NvmeDev::new(nvme_cfg)),
        vec![pcie_dev],
    );
    (host_id, dev_id)
}

/// Add a host + NIC pair to the experiment, connected by a PCIe channel.
/// Returns (host component id, nic component id, the network-side Ethernet
/// channel endpoint to attach to a network simulator).
pub fn attach_host_nic(
    exp: &mut Experiment,
    name: &str,
    mut host_cfg: HostConfig,
    app: Box<dyn Application>,
    rtl_nic: bool,
) -> (usize, usize, ChannelEnd) {
    // In unsynchronized (emulation) runs there is no common virtual end time:
    // the host terminates itself once its workload reports completion, which
    // in turn ends the whole run via the experiment's stop flag.
    if !exp.is_synchronized() {
        host_cfg.quit_when_done = true;
    }
    let (pcie_host, pcie_nic) = simbricks_base::channel_pair(exp.pcie_params());
    let (eth_nic, eth_net) = simbricks_base::channel_pair(exp.eth_params());
    let host_id = exp.add(
        format!("{name}.host"),
        host_component(host_cfg, app),
        vec![pcie_host],
    );
    let nic_id = exp.add(
        format!("{name}.nic"),
        nic_model(host_cfg.nic, rtl_nic),
        vec![pcie_nic, eth_nic],
    );
    (host_id, nic_id, eth_net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Execution;
    use simbricks_apps::{IperfUdpClient, IperfUdpServer};
    use simbricks_base::SimTime;
    use simbricks_hostsim::HostKind;
    use simbricks_netsim::{SwitchBm, SwitchConfig};
    use simbricks_netstack::SocketAddr;

    /// Smoke test of the full end-to-end path: two hosts with i40e NICs and
    /// the behavioural switch, exchanging UDP datagrams generated by iperf.
    #[test]
    fn udp_end_to_end_over_switch() {
        let mut exp = Experiment::new("udp-e2e", SimTime::from_ms(12));
        let server_cfg = HostConfig::new(HostKind::QemuTiming, 0);
        let client_cfg = HostConfig::new(HostKind::QemuTiming, 1);
        let server_ip = server_cfg.ip;

        let server_app = Box::new(IperfUdpServer::new(9000));
        let client_app = Box::new(IperfUdpClient::new(
            SocketAddr::new(server_ip, 9000),
            200_000_000, // 200 Mbit/s offered
            1000,
            SimTime::from_ms(10),
        ));
        let (srv_host, _srv_nic, srv_eth) =
            attach_host_nic(&mut exp, "server", server_cfg, server_app, false);
        let (_cli_host, _cli_nic, cli_eth) =
            attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
        let switch = SwitchBm::new(SwitchConfig {
            ports: 2,
            ..Default::default()
        });
        exp.add("switch", Box::new(switch), vec![srv_eth, cli_eth]);

        let result = exp.run(Execution::Sequential);
        let server: &simbricks_hostsim::HostModel = result.model(srv_host).unwrap();
        // ~10 ms at 200 Mb/s and 1000 B payloads is ~250 datagrams on the
        // wire; require that a substantial fraction arrived end-to-end
        // through driver -> DMA -> NIC -> switch -> NIC -> DMA -> stack.
        let report = server.app_report();
        assert!(
            server.stats().rx_frames > 50,
            "server received frames end-to-end (got {}, report: {report})",
            server.stats().rx_frames
        );
        assert!(server.stats().interrupts > 0);
    }
}
