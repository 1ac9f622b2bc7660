//! §7.5: accuracy — splitting one network simulation into two SimBricks
//! components connected by an Ethernet channel must not change simulated
//! behaviour: the timestamped per-endpoint packet logs of the monolithic and
//! the split configuration are compared entry by entry.
//!
//! This is the Ethernet half of the paper's accuracy experiment (two ns-3
//! instances vs one). The PCIe half (gem5's built-in e1000 vs the extracted
//! model) has no monolithic equivalent in this reimplementation — every host
//! talks to its NIC through the SimBricks PCIe interface — and is covered by
//! the determinism checks instead (`sec76_determinism`,
//! `tests/integration_determinism.rs`).

use simbricks::base::SimTime;
use simbricks::netsim::des::QueueDiscipline;
use simbricks::netsim::{DesNetwork, LinkParams};
use simbricks::netstack::{CongestionControl, StackConfig};
use simbricks::proto::{Ipv4Addr, MacAddr};
use simbricks::runner::{Execution, Experiment};
use simbricks_bench::IperfEndpoint;

fn delay() -> SimTime {
    SimTime::from_us(2)
}

fn endpoint_cfg(ip_index: u32, mac_index: u64) -> StackConfig {
    StackConfig {
        ip: Ipv4Addr::from_index(ip_index),
        mac: MacAddr::from_index(mac_index),
        congestion: CongestionControl::Reno,
        mtu: 1500,
        ..StackConfig::default()
    }
}

fn plain_link(bandwidth_bps: u64, delay: SimTime) -> LinkParams {
    LinkParams {
        bandwidth_bps,
        delay,
        queue: QueueDiscipline::DropTail {
            capacity_bytes: 4 << 20,
        },
    }
}

/// Per-endpoint receive log as (time, frame length), ignoring node ids (they
/// differ between the monolithic and the split configuration).
fn rx_log(r: &simbricks::runner::RunResult) -> Vec<(SimTime, u64)> {
    let mut out = Vec::new();
    for log in &r.logs {
        for e in log.entries() {
            if e.tag == "ep_rx" {
                out.push((e.time, e.b));
            }
        }
    }
    out.sort();
    out
}

/// One network simulator containing both endpoints and the link.
fn monolithic(duration: SimTime) -> Vec<(SimTime, u64)> {
    let mut exp = Experiment::new("accuracy-mono", duration)
        .with_logging()
        .with_link_latency(delay());
    let mut net = DesNetwork::new();
    let a = net.add_endpoint(
        endpoint_cfg(100, 200),
        Box::new(IperfEndpoint::client(
            Ipv4Addr::from_index(101),
            7000,
            duration,
        )),
    );
    let b = net.add_endpoint(
        endpoint_cfg(101, 201),
        Box::new(IperfEndpoint::server(7000)),
    );
    net.connect(a, b, plain_link(simbricks::base::bw::B10G, delay()));
    exp.add("net", Box::new(net), vec![]);
    rx_log(&exp.run(Execution::Sequential))
}

/// The same topology split across two network simulators joined by a
/// SimBricks Ethernet channel carrying the link's propagation delay. The
/// serialization of each direction stays on the sending endpoint's side, so
/// every packet must arrive at exactly the same virtual time as in the
/// monolithic configuration.
fn split(duration: SimTime) -> Vec<(SimTime, u64)> {
    let mut exp = Experiment::new("accuracy-split", duration)
        .with_logging()
        .with_link_latency(delay());
    let (ch_a, ch_b) = simbricks::base::channel_pair(exp.eth_params());

    let mut net_a = DesNetwork::new();
    let a = net_a.add_endpoint(
        endpoint_cfg(100, 200),
        Box::new(IperfEndpoint::client(
            Ipv4Addr::from_index(101),
            7000,
            duration,
        )),
    );
    let ext_a = net_a.add_external_port(0);
    // The sender-side link performs the serialization; the channel carries the
    // propagation delay; the receiver-side link is a zero-cost attachment.
    net_a.connect(
        a,
        ext_a,
        plain_link(simbricks::base::bw::B10G, SimTime::ZERO),
    );

    let mut net_b = DesNetwork::new();
    let b = net_b.add_endpoint(
        endpoint_cfg(101, 201),
        Box::new(IperfEndpoint::server(7000)),
    );
    let ext_b = net_b.add_external_port(0);
    net_b.connect(b, ext_b, plain_link(0, SimTime::ZERO));

    exp.add("net-a", Box::new(net_a), vec![ch_a]);
    exp.add("net-b", Box::new(net_b), vec![ch_b]);
    rx_log(&exp.run(Execution::Sequential))
}

fn main() {
    let duration = SimTime::from_ms(10);
    println!("# Section 7.5: accuracy — monolithic vs split network simulation");
    let mono = monolithic(duration);
    let split = split(duration);
    println!("monolithic endpoint-rx events: {}", mono.len());
    println!("split      endpoint-rx events: {}", split.len());
    let identical = mono == split;
    println!("timestamped logs identical:    {identical}");
    if !identical {
        for (i, (m, s)) in mono.iter().zip(split.iter()).enumerate() {
            if m != s {
                println!("first divergence at entry {i}: monolithic {m:?} vs split {s:?}");
                break;
            }
        }
        if mono.len() != split.len() {
            println!("(lengths differ)");
        }
        std::process::exit(1);
    }
}
