//! The seven workloads: what runs, how, and the scenario document each one
//! hands to the simulator. Why each is here is told by `BENCHMARK.json`.
//!
//! The documents are generated here and not taken from `simbricks_bench::scen`
//! so that the load cannot change without a change under the benchmark's own
//! directory. No optional mode key is set except `hier_sync` on the fat-tree
//! (the committed paper-scale configuration), so every other workload
//! measures what a user gets by default.

use std::fmt::Write as _;

use simbricks::runner::TransportKind;

/// How a workload's scenario is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Round-robin on one thread.
    Sequential,
    /// Work-stealing pool with two worker threads.
    Sharded,
    /// Two worker processes joined by the given transport.
    Dist(TransportKind),
}

impl Mode {
    /// Simulator threads (in-process) or worker processes (dist) the mode
    /// keeps busy; compared with the machine's cores to flag oversubscription.
    pub fn parallelism(self) -> usize {
        match self {
            Mode::Sequential => 1,
            Mode::Sharded | Mode::Dist(_) => 2,
        }
    }
}

/// Which scenario document a workload runs, and with it which behavioural
/// floors apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Fig. 7: 21 hosts, one switch, paced UDP.
    ScaleUp,
    /// k=8 fat-tree spanning tree, 128 hosts, 32 UDP flows.
    FatTree,
    /// Fig. 1: two DCTCP bulk flows over one marked bottleneck.
    Dctcp,
    /// Fig. 8: two racks of memcached/memaslap behind ToR and core switches.
    Racks,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in every result.
    pub name: &'static str,
    /// Scenario document it runs.
    pub topology: Topology,
    /// How the document is executed.
    pub mode: Mode,
    /// Virtual duration of the traffic, in microseconds.
    pub virtual_us: u64,
    /// Fewest timed repeats of one run.
    pub min_repeats: usize,
    /// Wall seconds one repeat takes on the 2-core reference box; the time
    /// limit of a run is ten times what its repeats should take.
    pub reference_wall_s: f64,
}

/// Virtual time every scenario keeps simulating after its traffic stops, so
/// that replies in flight are delivered.
pub const END_MARGIN_US: u64 = 1000;

/// Virtual duration of every workload under `--smoke`.
pub const SMOKE_VIRTUAL_US: u64 = 2000;

/// Hosts of the scale-up topology (one server, twenty paced clients).
const SCALEUP_HOSTS: usize = 21;
/// Aggregate offered UDP rate of the scale-up clients.
const SCALEUP_RATE_BPS: u64 = 1_000_000_000;
/// UDP payload of every paced client.
pub const UDP_PAYLOAD: usize = 800;
/// Fat-tree arity, edge switches per pod and hosts per edge switch.
const FT_K: usize = 8;
const FT_EDGES_PER_POD: usize = FT_K / 2;
const FT_HOSTS_PER_EDGE: usize = 4;
/// Rate of each of the fat-tree's 32 active flows.
const FT_RATE_BPS: u64 = 50_000_000;
/// DCTCP marking threshold of both bottleneck switches, in packets.
const DCTCP_ECN_K: usize = 10;
/// Racks and hosts per rack (half servers, half clients).
const RACKS: usize = 2;
const HOSTS_PER_RACK: usize = 8;

/// All workloads, in the order they are run and reported.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "scaleup_udp",
        topology: Topology::ScaleUp,
        mode: Mode::Sequential,
        virtual_us: 40_000,
        min_repeats: 5,
        reference_wall_s: 0.6,
    },
    Workload {
        name: "scaleup_udp_sharded",
        topology: Topology::ScaleUp,
        mode: Mode::Sharded,
        virtual_us: 40_000,
        min_repeats: 5,
        reference_wall_s: 0.6,
    },
    Workload {
        name: "fattree128_hier",
        topology: Topology::FatTree,
        mode: Mode::Sequential,
        virtual_us: 6_000,
        min_repeats: 5,
        reference_wall_s: 0.6,
    },
    Workload {
        name: "dctcp_bulk",
        topology: Topology::Dctcp,
        mode: Mode::Sequential,
        virtual_us: 55_000,
        min_repeats: 5,
        reference_wall_s: 0.6,
    },
    Workload {
        name: "racks_inproc",
        topology: Topology::Racks,
        mode: Mode::Sequential,
        virtual_us: 25_000,
        min_repeats: 5,
        reference_wall_s: 0.6,
    },
    Workload {
        name: "racks_dist_shm",
        topology: Topology::Racks,
        mode: Mode::Dist(TransportKind::Shm),
        virtual_us: 25_000,
        min_repeats: 7,
        reference_wall_s: 1.4,
    },
    Workload {
        name: "racks_dist_tcp",
        topology: Topology::Racks,
        mode: Mode::Dist(TransportKind::Tcp),
        virtual_us: 25_000,
        min_repeats: 7,
        reference_wall_s: 1.4,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// One thread taking every step in a fixed order: every count repeats
    /// exactly, and the run is its own reference for checks (i) and (ii).
    pub fn is_sequential(&self) -> bool {
        self.mode == Mode::Sequential
    }

    /// Partition names of the document, in worker order.
    pub fn partitions(&self) -> Vec<String> {
        match self.mode {
            Mode::Dist(_) => vec!["w0".into(), "w1".into()],
            _ => vec!["w0".into()],
        }
    }

    /// The scenario document: `seed` goes into `[scenario] seed`, and the
    /// simulator receives nothing else from the benchmark.
    pub fn toml(&self, seed: u64, virtual_us: u64, log: bool) -> String {
        let mut t = String::new();
        let _ = write!(
            t,
            "[scenario]\nname = \"{}\"\nseed = {seed}\nduration = \"{virtual_us}us\"\n\
             end_margin = \"{END_MARGIN_US}us\"\nlog = {log}\n",
            self.name
        );
        match self.topology {
            Topology::ScaleUp => scaleup(&mut t),
            Topology::FatTree => fat_tree(&mut t),
            Topology::Dctcp => dctcp(&mut t),
            Topology::Racks => racks(&mut t),
        }
        t
    }
}

fn host(t: &mut String, name: &str, partition: &str, extra: &str, app: &str) {
    let _ = write!(
        t,
        "\n[[host]]\nname = \"{name}\"\nkind = \"gem5_timing\"\npartition = \"{partition}\"\n{extra}\
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

fn udp_client(server: &str, rate_bps: u64) -> String {
    format!(
        "type = \"iperf_udp_client\"\nserver = \"{server}\"\nport = 9000\nrate = {rate_bps}\n\
         payload = {UDP_PAYLOAD}\n"
    )
}

/// Fig. 7: one UDP server and twenty paced clients behind a single switch.
fn scaleup(t: &mut String) {
    let per_client = SCALEUP_RATE_BPS / (SCALEUP_HOSTS as u64 - 1);
    host(
        t,
        "server",
        "w0",
        "",
        "type = \"iperf_udp_server\"\nport = 9000\n",
    );
    link(t, "eth0", "server", "switch", None);
    for i in 1..SCALEUP_HOSTS {
        let name = format!("client{i}");
        host(t, &name, "w0", "", &udp_client("server", per_client));
        link(t, &format!("eth{i}"), &name, "switch", None);
    }
    switch(t, "switch", "w0", "");
}

/// The active spanning tree of a k=8 fat-tree (the behavioural switch is a
/// flooding L2 learner, so the loops of the full fabric are left out): 32
/// edge switches of 4 hosts, one aggregation switch per pod, one core. In
/// every edge group host 0 serves UDP, host 1 streams to the same-position
/// server one pod over, hosts 2 and 3 idle (still synchronised).
fn fat_tree(t: &mut String) {
    t.push_str("hier_sync = true\n");
    let edges = FT_K * FT_EDGES_PER_POD;
    for e in 0..edges {
        let edge = format!("edge{e}");
        for h in 0..FT_HOSTS_PER_EDGE {
            let name = format!("e{e}h{h}");
            let app = match h {
                0 => "type = \"iperf_udp_server\"\nport = 9000\n".to_string(),
                1 => {
                    let peer = (e + FT_EDGES_PER_POD) % edges;
                    udp_client(&format!("e{peer}h0"), FT_RATE_BPS)
                }
                _ => "type = \"iperf_udp_server\"\nport = 9001\n".to_string(),
            };
            host(t, &name, "w0", "", &app);
            link(t, &format!("{name}-eth"), &name, &edge, None);
        }
        switch(t, &edge, "w0", "");
        let agg = format!("agg{}", e / FT_EDGES_PER_POD);
        link(t, &format!("{edge}-up"), &edge, &agg, Some("2us"));
    }
    for pod in 0..FT_K {
        let agg = format!("agg{pod}");
        switch(t, &agg, "w0", "");
        link(t, &format!("{agg}-up"), &agg, "core", Some("4us"));
    }
    switch(t, "core", "w0", "");
}

/// Fig. 1: two iperf client/server pairs on separate edge switches joined by
/// one shared 10 G bottleneck; both switches mark at `DCTCP_ECN_K` packets.
fn dctcp(t: &mut String) {
    for pair in 0..2u32 {
        let port = 5000 + pair;
        let extra = |index: u32| format!("congestion = \"dctcp\"\nmtu = 4000\nindex = {index}\n");
        host(
            t,
            &format!("s{pair}"),
            "w0",
            &extra(pair * 2),
            &format!("type = \"iperf_tcp_server\"\nport = {port}\n"),
        );
        host(
            t,
            &format!("c{pair}"),
            "w0",
            &extra(pair * 2 + 1),
            &format!("type = \"iperf_tcp_client\"\nserver = \"s{pair}\"\nport = {port}\n"),
        );
    }
    let ecn = format!("ecn_k = {DCTCP_ECN_K}\n");
    switch(t, "switch-clients", "w0", &ecn);
    switch(t, "switch-servers", "w0", &ecn);
    for pair in 0..2u32 {
        link(
            t,
            &format!("eth-s{pair}"),
            &format!("s{pair}"),
            "switch-servers",
            None,
        );
        link(
            t,
            &format!("eth-c{pair}"),
            &format!("c{pair}"),
            "switch-clients",
            None,
        );
    }
    link(t, "uplink", "switch-clients", "switch-servers", None);
}

/// Fig. 8: two racks of eight hosts (first half memcached servers, second
/// half memaslap clients fanning out to every server) behind per-rack ToR
/// switches and one core switch. Rack `r` is partition `w{r}` and the core
/// is in `w0`, so a dist run carries exactly one uplink across processes.
fn racks(t: &mut String) {
    let mut servers = Vec::new();
    for r in 0..RACKS {
        for h in 0..HOSTS_PER_RACK / 2 {
            servers.push(format!("\"r{r}h{h}\""));
        }
    }
    let servers = servers.join(", ");
    for r in 0..RACKS {
        let part = format!("w{r}");
        let tor = format!("tor{r}");
        for h in 0..HOSTS_PER_RACK {
            let name = format!("r{r}h{h}");
            let app = if h < HOSTS_PER_RACK / 2 {
                "type = \"memcached_server\"\n".to_string()
            } else {
                format!(
                    "type = \"memaslap_client\"\nservers = [{servers}]\nconcurrency = 2\n\
                     value_size = 64\n"
                )
            };
            host(t, &name, &part, "", &app);
            link(t, &format!("{name}-eth"), &name, &tor, None);
        }
        switch(t, &tor, &part, "");
        link(t, &format!("up{r}"), &tor, "core", None);
    }
    switch(t, "core", "w0", "");
}

/// Client host names of a topology with the request or byte count each must
/// reach are judged in `checks`; this lists which hosts are clients.
pub fn is_client(topology: Topology, host: &str) -> bool {
    match topology {
        Topology::ScaleUp => host.starts_with("client"),
        Topology::FatTree => host.ends_with("h1"),
        Topology::Dctcp => host.starts_with('c'),
        Topology::Racks => host
            .rsplit_once('h')
            .and_then(|(_, h)| h.parse::<usize>().ok())
            .is_some_and(|h| h >= HOSTS_PER_RACK / 2),
    }
}
