//! Quickstart: the smallest useful end-to-end simulation.
//!
//! Two simulated hosts (QEMU-timing-like), each with an Intel i40e NIC model,
//! connected through the behavioural Ethernet switch, running a netperf
//! TCP_STREAM + TCP_RR benchmark — the same shape as the paper's Tab. 1
//! configurations, scaled down to run in a few seconds.
//!
//! Run with: `cargo run --release --example quickstart`

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::hostsim::{HostConfig, HostKind, HostModel};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::{attach_host_nic, Execution, Experiment};
use simbricks::SimTime;

fn main() {
    let mut exp = Experiment::new("quickstart", SimTime::from_ms(60));

    let server_cfg = HostConfig::new(HostKind::QemuTiming, 0);
    let client_cfg = HostConfig::new(HostKind::QemuTiming, 1);

    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(
        server_cfg.ip,
        5201,
        5202,
        SimTime::from_ms(25), // stream phase
        SimTime::from_ms(25), // request/response phase
    ));

    let (_s_host, _s_nic, s_eth) =
        attach_host_nic(&mut exp, "server", server_cfg, server_app, false);
    let (c_host, _c_nic, c_eth) =
        attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
    exp.add(
        "switch",
        Box::new(SwitchBm::new(SwitchConfig {
            ports: 2,
            ..Default::default()
        })),
        vec![s_eth, c_eth],
    );

    let result = exp.run(Execution::Sequential);
    let client: &HostModel = result.model(c_host).expect("client host");
    println!(
        "simulated {} of virtual time in {:.2?} wall clock",
        result.virtual_time, result.wall
    );
    println!("client report: {}", client.report());
    println!(
        "total sync messages exchanged: {}",
        result.total_stats().syncs_sent
    );
}
