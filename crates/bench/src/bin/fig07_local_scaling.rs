//! Fig. 7: local scale-up — simulation time as the number of hosts attached
//! to one switch grows (fixed 1 Gbps aggregate UDP load).
//!
//! The harness runs every topology twice on identical inputs: once with the
//! sequential executor and once with the sharded executor, so
//! the local-scaling claim of §5.5 (components synchronize pairwise, so more
//! cores buy wall-clock speedup) can be checked on the machine at hand.
//!
//! Usage:
//!   fig07_local_scaling [--hosts 2,5,10,15,21] [--workers N]
//!                       [--duration-ms MS] [--json PATH] [--hier-sync]
//!                       [--fat-tree 128,512,1024] [--ft-duration-ms MS]
//!
//! `--json PATH` writes the machine-readable baseline consumed by future
//! regression checks (see `BENCH_fig07.json` at the repository root).
//! Without `--workers`, the sharded run uses the machine's available
//! parallelism.
//! `--hier-sync` reruns every topology with hierarchical sync domains on and
//! records the SYNC reduction; `--fat-tree` adds the scale-out matrix (k-ary
//! fat-tree pod hierarchies, flat vs hierarchical sync) whose committed
//! baseline carries the sublinearity claim. Its hierarchical 128-host row
//! runs the document of the benchmark's `fattree128_hier` workload.

use simbricks::base::KernelStats;
use simbricks::hostsim::HostKind;
use simbricks::runner::dist::run_local;
use simbricks::scenario::{build_from_toml, topo};
use simbricks::{Execution, SimTime};

/// Lower a generated document and run it; wall seconds and merged stats.
fn run(doc: &str, exec: Execution) -> (f64, KernelStats) {
    let r = run_local(doc, &build_from_toml, exec);
    (r.wall_seconds(), r.total_stats())
}

/// The scale-up document: `hosts` gem5-like hosts, one partition.
fn scale_up(hosts: usize, duration: SimTime, hier: bool) -> String {
    topo::header("scaleup", 1, duration, SimTime::from_ms(2), false, hier)
        + &topo::scale_up(hosts, HostKind::Gem5Timing, 1)
}

/// Fat-tree arity and hosts per edge switch for a target host count:
/// 1024 ⇒ k=16 with 8 per edge; otherwise k=8 with `hosts / 32` per edge
/// (128 ⇒ 4, 512 ⇒ 16).
fn fat_tree_shape(hosts: usize) -> (usize, usize) {
    match hosts {
        1024 => (16, 8),
        h => (8, (h / 32).max(2)),
    }
}

struct Row {
    hosts: usize,
    seq_wall: f64,
    seq_syncs: u64,
    sharded_wall: f64,
    sharded_syncs: u64,
    /// Allocator-facing counters of the sequential run (pooled packet
    /// buffers): freelist hits, cold misses, jumbo heap fallbacks.
    pool_hits: u64,
    pool_misses: u64,
    pool_fallbacks: u64,
    /// Hierarchical-sync rerun of the same topology (`--hier-sync`).
    hier: Option<(f64, u64, u64)>, // (wall, syncs, suppressed)
}

struct FtRow {
    hosts: usize,
    k: usize,
    hosts_per_edge: usize,
    flat_wall: f64,
    flat_syncs: u64,
    hier_wall: f64,
    hier_syncs: u64,
    hier_suppressed: u64,
}

fn main() {
    let mut hosts_list = vec![2usize, 5, 10, 15, 21];
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut duration = SimTime::from_ms(5);
    let mut json_path: Option<String> = None;
    let mut hier_sync = false;
    let mut fat_tree: Vec<usize> = Vec::new();
    let mut ft_duration = SimTime::from_ms(2);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need_value = |args: &[String], i: usize| {
        if i + 1 >= args.len() {
            eprintln!("{} requires a value", args[i]);
            std::process::exit(2);
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--hosts" => {
                need_value(&args, i);
                i += 1;
                hosts_list = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--hosts takes a comma list"))
                    .collect();
            }
            "--workers" => {
                need_value(&args, i);
                i += 1;
                workers = args[i].parse().expect("--workers takes a number");
            }
            "--duration-ms" => {
                need_value(&args, i);
                i += 1;
                duration = SimTime::from_ms(args[i].parse().expect("--duration-ms number"));
            }
            "--json" => {
                need_value(&args, i);
                i += 1;
                json_path = Some(args[i].clone());
            }
            "--hier-sync" => {
                hier_sync = true;
            }
            "--fat-tree" => {
                need_value(&args, i);
                i += 1;
                fat_tree = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--fat-tree takes a comma list"))
                    .collect();
            }
            "--ft-duration-ms" => {
                need_value(&args, i);
                i += 1;
                ft_duration = SimTime::from_ms(args[i].parse().expect("--ft-duration-ms number"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("# Figure 7: local scale-up (aggregate 1 Gbps UDP iperf)");
    println!("# sequential vs sharded executor, {workers} workers");
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "hosts", "seq[s]", "sharded[s]", "speedup", "seq syncs", "sharded syncs"
    );
    let mut rows = Vec::new();
    for &hosts in &hosts_list {
        let flat = scale_up(hosts, duration, false);
        let (seq_wall, seq_stats) = run(&flat, Execution::Sequential);
        let (sharded_wall, sharded_stats) = run(&flat, Execution::Sharded { workers });
        let seq_syncs = seq_stats.syncs_sent;
        let sharded_syncs = sharded_stats.syncs_sent;
        let hier = hier_sync.then(|| {
            let (w, s) = run(&scale_up(hosts, duration, true), Execution::Sequential);
            (w, s.syncs_sent, s.syncs_suppressed)
        });
        let speedup = if sharded_wall > 0.0 {
            seq_wall / sharded_wall
        } else {
            0.0
        };
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>8.2}x {:>14} {:>14}  pool {:.1}% hit",
            hosts,
            seq_wall,
            sharded_wall,
            speedup,
            seq_syncs,
            sharded_syncs,
            seq_stats.pool_hit_rate() * 100.0,
        );
        if let Some((hw, hs, hsup)) = hier {
            let ratio = if seq_syncs > 0 {
                hs as f64 / seq_syncs as f64
            } else {
                0.0
            };
            println!(
                "{:>6} {:>12.2} {:>12} {:>9} {:>14} {:>14}  hier: {:.2}x syncs, {} suppressed",
                "", hw, "(hier)", "", hs, "", ratio, hsup
            );
        }
        rows.push(Row {
            hosts,
            seq_wall,
            seq_syncs,
            sharded_wall,
            sharded_syncs,
            pool_hits: seq_stats.pool_hits,
            pool_misses: seq_stats.pool_misses,
            pool_fallbacks: seq_stats.pool_fallbacks,
            hier,
        });
    }

    let mut ft_rows: Vec<FtRow> = Vec::new();
    if !fat_tree.is_empty() {
        println!("# Fat-tree scale-out matrix (flat vs hierarchical sync, sequential)");
        println!(
            "{:>6} {:>4} {:>6} {:>12} {:>14} {:>12} {:>14} {:>7}",
            "hosts", "k", "h/edge", "flat[s]", "flat syncs", "hier[s]", "hier syncs", "ratio"
        );
        for &n in &fat_tree {
            let (k, hosts_per_edge) = fat_tree_shape(n);
            // The end margin of the benchmark's fat-tree document.
            let doc = |hier| {
                topo::header("fat-tree", 1, ft_duration, SimTime::from_ms(1), false, hier)
                    + &topo::fat_tree(k, hosts_per_edge)
            };
            let (flat_wall, flat_stats) = run(&doc(false), Execution::Sequential);
            let (hier_wall, hier_stats) = run(&doc(true), Execution::Sequential);
            let hosts = k * k / 2 * hosts_per_edge;
            let ratio = if flat_stats.syncs_sent > 0 {
                hier_stats.syncs_sent as f64 / flat_stats.syncs_sent as f64
            } else {
                0.0
            };
            println!(
                "{:>6} {:>4} {:>6} {:>12.2} {:>14} {:>12.2} {:>14} {:>6.3}x",
                hosts,
                k,
                hosts_per_edge,
                flat_wall,
                flat_stats.syncs_sent,
                hier_wall,
                hier_stats.syncs_sent,
                ratio,
            );
            ft_rows.push(FtRow {
                hosts,
                k,
                hosts_per_edge,
                flat_wall,
                flat_syncs: flat_stats.syncs_sent,
                hier_wall,
                hier_syncs: hier_stats.syncs_sent,
                hier_suppressed: hier_stats.syncs_suppressed,
            });
        }
    }

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig07_local_scaling\",\n");
        out.push_str("  \"workload\": \"udp_scaleup gem5-timing hosts + 1 switch\",\n");
        out.push_str(&format!(
            "  \"virtual_duration_ms\": {},\n",
            duration.as_ps() / 1_000_000_000
        ));
        out.push_str(&format!("  \"workers\": {workers},\n"));
        out.push_str(&format!(
            "  \"machine_cores\": {},\n",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        ));
        out.push_str(
            "  \"note\": \"speedup is bounded by machine_cores; on a single-core \
             machine sharded can only match sequential\",\n",
        );
        out.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let hier_json = match r.hier {
                Some((hw, hs, hsup)) => format!(
                    ", \"hier_wall_s\": {hw:.4}, \"hier_syncs\": {hs}, \
                     \"hier_suppressed\": {hsup}"
                ),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"hosts\": {}, \"sequential_wall_s\": {:.4}, \"sharded_wall_s\": {:.4}, \
                 \"speedup\": {:.4}, \"sequential_syncs\": {}, \"sharded_syncs\": {}, \
                 \"pool_hits\": {}, \"pool_misses\": {}, \"pool_fallbacks\": {}{}}}{}\n",
                r.hosts,
                r.seq_wall,
                r.sharded_wall,
                if r.sharded_wall > 0.0 {
                    r.seq_wall / r.sharded_wall
                } else {
                    0.0
                },
                r.seq_syncs,
                r.sharded_syncs,
                r.pool_hits,
                r.pool_misses,
                r.pool_fallbacks,
                hier_json,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]");
        if !ft_rows.is_empty() {
            out.push_str(",\n");
            out.push_str(&format!(
                "  \"fat_tree_virtual_duration_ms\": {},\n",
                ft_duration.as_ps() / 1_000_000_000
            ));
            out.push_str("  \"fat_tree_rows\": [\n");
            for (i, r) in ft_rows.iter().enumerate() {
                let ratio = if r.flat_syncs > 0 {
                    r.hier_syncs as f64 / r.flat_syncs as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    {{\"hosts\": {}, \"k\": {}, \"hosts_per_edge\": {}, \
                     \"flat_wall_s\": {:.4}, \"flat_syncs\": {}, \
                     \"hier_wall_s\": {:.4}, \"hier_syncs\": {}, \
                     \"hier_suppressed\": {}, \"sync_ratio\": {:.4}}}{}\n",
                    r.hosts,
                    r.k,
                    r.hosts_per_edge,
                    r.flat_wall,
                    r.flat_syncs,
                    r.hier_wall,
                    r.hier_syncs,
                    r.hier_suppressed,
                    ratio,
                    if i + 1 == ft_rows.len() { "" } else { "," }
                ));
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        std::fs::write(&path, out).expect("write --json file");
        eprintln!("wrote {path}");
    }
}
