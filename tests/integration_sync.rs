//! Synchronization-focused integration tests: link latency and the sync
//! protocol variant only affect cost, not correctness (§5.5, Fig. 9).

use simbricks::apps::{IperfUdpClient, IperfUdpServer};
use simbricks::hostsim::{HostConfig, HostKind, HostModel};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::SocketAddr;
use simbricks::runner::{attach_host_nic, Execution, Experiment};
use simbricks::SimTime;

fn udp_experiment(link_ns: u64) -> (u64, u64) {
    udp_experiment_mode(link_ns, false)
}

fn udp_experiment_mode(link_ns: u64, hier: bool) -> (u64, u64) {
    let mut exp = Experiment::new("sync-udp", SimTime::from_ms(8))
        .with_link_latency(SimTime::from_ns(link_ns))
        .with_pcie_latency(SimTime::from_ns(link_ns));
    if hier {
        exp = exp.with_hier_sync();
    }
    let server_cfg = HostConfig::new(HostKind::QemuTiming, 0);
    let client_cfg = HostConfig::new(HostKind::QemuTiming, 1);
    let server_app = Box::new(IperfUdpServer::new(9000));
    let client_app = Box::new(IperfUdpClient::new(
        SocketAddr::new(server_cfg.ip, 9000),
        250_000_000,
        800,
        SimTime::from_ms(6),
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
    let r = exp.run(Execution::Sequential);
    let server: &HostModel = r.model(s).unwrap();
    (server.stats().rx_frames, r.total_stats().syncs_sent)
}

#[test]
fn results_are_independent_of_link_latency_scale() {
    // Lowering the latency by 10x changes synchronization cost (more sync
    // messages) but the delivered traffic stays in the same ballpark.
    let (rx_hi, syncs_hi) = udp_experiment(500);
    let (rx_lo, syncs_lo) = udp_experiment(50);
    assert!(
        syncs_lo > syncs_hi,
        "lower latency => more frequent synchronization"
    );
    let ratio = rx_lo as f64 / rx_hi as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "traffic comparable: {rx_lo} vs {rx_hi}"
    );
}

/// Hierarchical sync domains must not change what the application observes —
/// the same frames arrive at the same virtual times — while strictly
/// reducing pure-SYNC traffic on the same topology (suppressed emissions,
/// widened promises, epoch batching).
#[test]
fn hier_sync_same_traffic_fewer_syncs() {
    let (rx_flat, syncs_flat) = udp_experiment_mode(500, false);
    let (rx_hier, syncs_hier) = udp_experiment_mode(500, true);
    assert!(rx_flat > 100, "traffic flowed ({rx_flat} frames)");
    assert_eq!(rx_flat, rx_hier, "sync protocol does not change results");
    // Quantitative regression gate: widened promises + domain batching +
    // reaction lookahead hold hierarchical SYNC traffic well under flat —
    // the committed fat-tree baselines sit near 0.45x, so 0.7x leaves
    // headroom for workload drift without letting the win silently rot.
    assert!(
        syncs_hier * 10 <= syncs_flat * 7,
        "hierarchical sync must stay <= 0.7x flat SYNC count: {syncs_hier} vs {syncs_flat}"
    );
}

#[test]
fn threaded_and_sequential_executors_agree() {
    let run = |mode| {
        let mut exp = Experiment::new("exec", SimTime::from_ms(4));
        let server_cfg = HostConfig::new(HostKind::QemuTiming, 0);
        let client_cfg = HostConfig::new(HostKind::QemuTiming, 1);
        let server_app = Box::new(IperfUdpServer::new(9000));
        let client_app = Box::new(IperfUdpClient::new(
            SocketAddr::new(server_cfg.ip, 9000),
            50_000_000,
            500,
            SimTime::from_ms(3),
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
        let r = exp.run(mode);
        let server: &HostModel = r.model(s).unwrap();
        server.stats().rx_frames
    };
    // One worker per component: the thread-per-simulator layout.
    assert_eq!(
        run(Execution::Sequential),
        run(Execution::Sharded { workers: 5 })
    );
}
