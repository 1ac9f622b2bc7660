//! The standard topologies as scenario documents: the paper's figures and
//! the repository benchmark run these.
//!
//! A document is [`header`] (the `[scenario]` table) followed by one
//! topology body: [`scale_up`], [`fat_tree`], [`racks`], [`dctcp`] or
//! [`netperf_pair`]. The text is what [`crate::lower()`] builds from, what a
//! distributed worker rebuilds its partition from, and what `simbricks-run`
//! replays when it is written to a file. Every node is placed in a partition
//! explicitly; a single-process document uses `w0`, the default.

use std::fmt::Write as _;

use simbricks_base::SimTime;
use simbricks_hostsim::HostKind;

/// UDP payload of every paced iperf client.
const UDP_PAYLOAD: usize = 800;
/// Aggregate offered rate of the scale-up clients, in bits per second.
const SCALE_UP_RATE_BPS: u64 = 1_000_000_000;
/// Rate of each fat-tree stream, in bits per second.
const FAT_TREE_RATE_BPS: u64 = 50_000_000;
/// Hosts per rack of [`racks`]: the first half servers, the rest clients.
pub const HOSTS_PER_RACK: usize = 8;

/// The `[scenario]` table. `duration` and `end_margin` are written in whole
/// microseconds; `hier_sync` is written only when it is on.
pub fn header(
    name: &str,
    seed: u64,
    duration: SimTime,
    end_margin: SimTime,
    log: bool,
    hier_sync: bool,
) -> String {
    let mut t = format!(
        "[scenario]\nname = \"{name}\"\nseed = {seed}\nduration = \"{}us\"\n\
         end_margin = \"{}us\"\nlog = {log}\n",
        whole_us(duration),
        whole_us(end_margin)
    );
    if hier_sync {
        t.push_str("hier_sync = true\n");
    }
    t
}

fn whole_us(t: SimTime) -> u64 {
    assert!(
        t.as_ps().is_multiple_of(1_000_000),
        "{t} is not a whole number of microseconds"
    );
    t.as_us()
}

/// Fig. 6/7 scale-up: `hosts` hosts behind one switch in `w0`. Host 0 is
/// the UDP server, the others are clients pacing 1 Gbit/s between them;
/// host `i` is in partition `w{i % parts}`.
pub fn scale_up(hosts: usize, kind: HostKind, parts: usize) -> String {
    let rate = SCALE_UP_RATE_BPS / (hosts.max(2) as u64 - 1);
    let mut t = String::new();
    for i in 0..hosts {
        let (name, app) = match i {
            0 => ("server".to_string(), udp_server(9000)),
            _ => (format!("client{i}"), udp_client("server", rate)),
        };
        host(&mut t, &name, kind, &format!("w{}", i % parts), "", &app);
        link(&mut t, &format!("eth{i}"), &name, "switch", None);
    }
    switch(&mut t, "switch", "w0", "");
    t
}

/// The active spanning tree of a `k`-ary fat-tree: `k` pods of `k / 2` edge
/// switches with `hosts_per_edge` gem5-like hosts each, one aggregation
/// switch per pod and one core switch. The behavioural switch is a flooding
/// L2 learner, so the loops of the full fabric are left out, as STP would.
/// Edge uplinks have 2 us of latency and aggregation uplinks 4 us, so
/// hierarchical sync has latency classes to form domains over.
///
/// In every edge group host 0 serves UDP, host 1 streams 50 Mbit/s to the
/// same-position server one pod over (edge, aggregation, core, aggregation,
/// edge), and the other hosts idle, still synchronized.
pub fn fat_tree(k: usize, hosts_per_edge: usize) -> String {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even");
    assert!(hosts_per_edge >= 2, "need a server and a client per edge");
    let edges_per_pod = k / 2;
    let edges = k * edges_per_pod;
    let mut t = String::new();
    for e in 0..edges {
        let edge = format!("edge{e}");
        for h in 0..hosts_per_edge {
            let name = format!("e{e}h{h}");
            let app = match h {
                0 => udp_server(9000),
                1 => {
                    let peer = (e + edges_per_pod) % edges;
                    udp_client(&format!("e{peer}h0"), FAT_TREE_RATE_BPS)
                }
                _ => udp_server(9001),
            };
            host(&mut t, &name, HostKind::Gem5Timing, "w0", "", &app);
            link(&mut t, &format!("{name}-eth"), &name, &edge, None);
        }
        switch(&mut t, &edge, "w0", "");
        let agg = format!("agg{}", e / edges_per_pod);
        link(&mut t, &format!("{edge}-up"), &edge, &agg, Some("2us"));
    }
    for pod in 0..k {
        let agg = format!("agg{pod}");
        switch(&mut t, &agg, "w0", "");
        link(&mut t, &format!("{agg}-up"), &agg, "core", Some("4us"));
    }
    switch(&mut t, "core", "w0", "");
    t
}

/// Fig. 8 scale-out: `racks` racks of eight hosts (the first half memcached
/// servers, the second half memaslap clients fanning out to every server)
/// behind one ToR switch each and one core switch in `w0`. Rack `r` is in
/// partition `w{r % parts}`, so a distributed run carries only ToR-to-core
/// uplinks across processes.
pub fn racks(racks: usize, kind: HostKind, parts: usize) -> String {
    let servers: Vec<String> = (0..racks)
        .flat_map(|r| (0..HOSTS_PER_RACK / 2).map(move |h| format!("\"r{r}h{h}\"")))
        .collect();
    let client = format!(
        "type = \"memaslap_client\"\nservers = [{}]\nconcurrency = 2\nvalue_size = 64\n",
        servers.join(", ")
    );
    let mut t = String::new();
    for r in 0..racks {
        let part = format!("w{}", r % parts);
        let tor = format!("tor{r}");
        for h in 0..HOSTS_PER_RACK {
            let name = format!("r{r}h{h}");
            let app = match h < HOSTS_PER_RACK / 2 {
                true => "type = \"memcached_server\"\n",
                false => &client,
            };
            host(&mut t, &name, kind, &part, "", app);
            link(&mut t, &format!("{name}-eth"), &name, &tor, None);
        }
        switch(&mut t, &tor, &part, "");
        link(&mut t, &format!("up{r}"), &tor, "core", None);
    }
    switch(&mut t, "core", "w0", "");
    t
}

/// Fig. 1: two DCTCP iperf client/server pairs (MTU 4000) on separate
/// switches joined by one shared 10 G bottleneck; both switches mark at
/// `ecn_k` packets. Link order fixes the switch ports: servers `[s0, s1,
/// uplink]`, clients `[c0, c1, uplink]`.
pub fn dctcp(ecn_k: usize) -> String {
    let mut t = String::new();
    for pair in 0..2u32 {
        let port = 5000 + pair;
        let extra = |index: u32| format!("congestion = \"dctcp\"\nmtu = 4000\nindex = {index}\n");
        let server = format!("type = \"iperf_tcp_server\"\nport = {port}\n");
        let client = format!("type = \"iperf_tcp_client\"\nserver = \"s{pair}\"\nport = {port}\n");
        let kind = HostKind::Gem5Timing;
        host(
            &mut t,
            &format!("s{pair}"),
            kind,
            "w0",
            &extra(pair * 2),
            &server,
        );
        host(
            &mut t,
            &format!("c{pair}"),
            kind,
            "w0",
            &extra(pair * 2 + 1),
            &client,
        );
    }
    let ecn = format!("ecn_k = {ecn_k}\n");
    switch(&mut t, "switch-clients", "w0", &ecn);
    switch(&mut t, "switch-servers", "w0", &ecn);
    for pair in 0..2u32 {
        let (s, c) = (format!("s{pair}"), format!("c{pair}"));
        link(&mut t, &format!("eth-{s}"), &s, "switch-servers", None);
        link(&mut t, &format!("eth-{c}"), &c, "switch-clients", None);
    }
    link(&mut t, "uplink", "switch-clients", "switch-servers", None);
    t
}

/// §7.6: two gem5-like hosts running netperf (5 ms stream, then 5 ms of
/// request/response) through one behavioural switch.
pub fn netperf_pair() -> String {
    let mut t = String::new();
    let kind = HostKind::Gem5Timing;
    host(
        &mut t,
        "server",
        kind,
        "w0",
        "",
        "type = \"netperf_server\"\n",
    );
    let client = "type = \"netperf_client\"\nserver = \"server\"\n\
                  stream_duration = \"5ms\"\nrr_duration = \"5ms\"\n";
    host(&mut t, "client", kind, "w0", "", client);
    switch(&mut t, "switch", "w0", "");
    link(&mut t, "eth-server", "server", "switch", None);
    link(&mut t, "eth-client", "client", "switch", None);
    t
}

fn host(t: &mut String, name: &str, kind: HostKind, partition: &str, extra: &str, app: &str) {
    let kind = match kind {
        HostKind::Gem5Timing => "gem5_timing",
        HostKind::QemuTiming => "qemu_timing",
        HostKind::QemuKvm => "qemu_kvm",
    };
    let _ = write!(
        t,
        "\n[[host]]\nname = \"{name}\"\nkind = \"{kind}\"\npartition = \"{partition}\"\n{extra}\
         \n[host.app]\n{app}"
    );
}

fn link(t: &mut String, name: &str, a: &str, b: &str, latency: Option<&str>) {
    let _ = write!(
        t,
        "\n[[link]]\nname = \"{name}\"\na = \"{a}\"\nb = \"{b}\"\n"
    );
    if let Some(l) = latency {
        let _ = writeln!(t, "latency = \"{l}\"");
    }
}

fn switch(t: &mut String, name: &str, partition: &str, extra: &str) {
    let _ = write!(
        t,
        "\n[[switch]]\nname = \"{name}\"\npartition = \"{partition}\"\n{extra}"
    );
}

fn udp_server(port: u16) -> String {
    format!("type = \"iperf_udp_server\"\nport = {port}\n")
}

fn udp_client(server: &str, rate_bps: u64) -> String {
    format!(
        "type = \"iperf_udp_client\"\nserver = \"{server}\"\nport = 9000\nrate = {rate_bps}\n\
         payload = {UDP_PAYLOAD}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower, Scenario};
    use simbricks_runner::PartitionBuilder;

    fn parse(body: &str) -> Scenario {
        let ms = SimTime::from_ms(1);
        let doc = header("t", 1, ms, ms, false, false) + body;
        Scenario::from_toml_str(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"))
    }

    #[test]
    fn the_128_host_fat_tree_lowers_to_297_components_over_296_channels() {
        let mut pb = PartitionBuilder::new_local();
        let low = lower(&parse(&fat_tree(8, 4)), &mut pb);
        assert_eq!(low.hosts.len(), 128);
        let exp = pb.into_experiment();
        assert_eq!(exp.num_components(), 297);
        let ports: usize = (0..297).map(|c| exp.kernel(c).num_ports()).sum();
        assert_eq!(ports, 2 * 296, "each channel has two ends");
    }

    #[test]
    fn the_1024_host_fat_tree_describes_2193_components() {
        let spec = parse(&fat_tree(16, 8));
        assert_eq!(spec.hosts_count(), 1024);
        let switches = spec.nodes.len() - spec.hosts_count();
        assert_eq!(switches, 128 + 16 + 1, "edge, aggregation and core");
        assert_eq!(2 * spec.hosts_count() + switches, 2193, "host + NIC each");
        assert_eq!(spec.links.len(), 1024 + 128 + 16);
    }

    #[test]
    fn every_body_parses_into_its_partitions() {
        let two = ["w0", "w1"];
        let kind = HostKind::QemuTiming;
        assert_eq!(parse(&scale_up(5, kind, 2)).partitions(), two);
        assert_eq!(parse(&racks(4, kind, 2)).partitions(), two);
        for body in [dctcp(10), netperf_pair()] {
            assert_eq!(parse(&body).partitions(), ["w0"]);
        }
    }
}
