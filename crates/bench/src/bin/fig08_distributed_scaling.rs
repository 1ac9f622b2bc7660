//! Fig. 8: scale-out to many hosts organised in racks (ToR + core switches),
//! memcached/memaslap workload. Scaled down from the paper's 40-1000 hosts on
//! 26 servers to rack sizes that run on one machine; the quantity of interest
//! is how simulation time grows with host count.
//!
//! Usage:
//!   `fig08_distributed_scaling [--exec sequential|sharded[:N]]
//!   [--dist N] [--transport tcp|shm|auto] [--hier-sync] [--json PATH]`
//!
//! `--hier-sync` reruns every distributed topology with hierarchical sync
//! domains enabled in all partitions and checks the merged event log is
//! still bit-identical to the flat in-process baseline (the protocol only
//! changes SYNC cadence, never data timestamps).
//!
//! Without `--dist` the racks run in-process with the selected executor (or
//! `SIMBRICKS_EXEC`). With `--dist N` each topology additionally runs as a
//! **true multi-process distributed simulation**: N worker OS processes (one
//! per partition; rack r lives in partition `w{r % N}`, the core switch in
//! `w0`) with one cross-partition channel per inter-partition ToR-to-core
//! uplink, exactly the paper's §5.4 deployment shape. Each cross link is
//! carried by the selected transport: loopback TCP proxy pairs or the
//! shared-memory ring transport the paper uses for co-located simulators.
//! With `--transport auto` (the default) the harness runs **both** tcp and
//! shm so their wall clocks are directly comparable; an explicit kind
//! restricts to that column. Every distributed run records event logs and
//! the harness verifies each is bit-identical to the in-process sequential
//! log before reporting wall-clock numbers.
//!
//! `--json PATH` writes the machine-readable baseline consumed by future
//! regression checks (see `BENCH_fig08.json` at the repository root).

use simbricks::hostsim::HostKind;
use simbricks::runner::dist::{self, DistOptions};
use simbricks::runner::{Execution, TransportKind};
use simbricks::scenario::build_from_toml;
use simbricks::scenario::topo::{self, HOSTS_PER_RACK};
use simbricks::SimTime;

struct Row {
    hosts: usize,
    kind: &'static str,
    inproc_wall: f64,
    /// Per-transport results: (transport, worker wall, orchestrated wall,
    /// log identical to the in-process baseline).
    dist: Vec<(&'static str, f64, f64, bool)>,
    /// Hierarchical-sync rerun (`--hier-sync`): in-process wall, then the
    /// same per-transport tuple — every log still compared against the FLAT
    /// in-process baseline, since hierarchical sync must not change events.
    hier_inproc_wall: Option<f64>,
    hier_dist: Vec<(&'static str, f64, f64, bool)>,
}

fn main() {
    // Hidden worker mode: when spawned by the orchestrator below (env
    // SIMBRICKS_DIST_CONTROL + `--dist-worker` argv), this call rebuilds one
    // partition, runs it, reports over the control socket, and exits.
    dist::maybe_worker(&build_from_toml);

    let mut exec = Execution::from_env_or(Execution::Sequential).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut transport = TransportKind::from_env_or(TransportKind::Auto);
    let mut dist_n: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut hier_sync = false;
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
            "--exec" => {
                need_value(&args, i);
                i += 1;
                exec = Execution::parse(&args[i]).expect("--exec sequential|sharded[:N]");
            }
            "--transport" => {
                need_value(&args, i);
                i += 1;
                transport = TransportKind::parse(&args[i]).expect("--transport tcp|shm|auto");
            }
            "--dist" => {
                need_value(&args, i);
                i += 1;
                let n: usize = args[i].parse().expect("--dist takes a worker count");
                assert!(n >= 1, "--dist needs at least one worker");
                dist_n = Some(n);
            }
            "--json" => {
                need_value(&args, i);
                i += 1;
                json_path = Some(args[i].clone());
            }
            "--hier-sync" => {
                hier_sync = true;
            }
            "--dist-worker" => {
                eprintln!("--dist-worker is internal (requires the orchestrator environment)");
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if json_path.is_some() && dist_n.is_none() {
        eprintln!("--json requires --dist (the baseline records the distributed mode)");
        std::process::exit(2);
    }

    // The tcp-vs-shm comparison: `auto` measures both transports; an
    // explicit kind restricts to that one.
    let transports: Vec<(&'static str, TransportKind)> = match transport {
        TransportKind::Auto => {
            let mut t = vec![("tcp", TransportKind::Tcp)];
            if simbricks::runner::shm_supported() {
                t.push(("shm", TransportKind::Shm));
            }
            t
        }
        TransportKind::Tcp => vec![("tcp", TransportKind::Tcp)],
        TransportKind::Shm => vec![("shm", TransportKind::Shm)],
    };

    println!("# Figure 8: scale-out (memcached racks, 5 ms virtual, scaled down)");
    println!("# executor: {exec:?}");
    let mut rows = Vec::new();
    match dist_n {
        None => {
            println!(
                "{:>6} {:>18} {:>18}",
                "hosts", "gem5-like [s]", "qemu-timing [s]"
            );
            for racks in [1usize, 2, 4] {
                let hosts = racks * HOSTS_PER_RACK;
                let g = inproc_wall(racks, HostKind::Gem5Timing, exec);
                let q = inproc_wall(racks, HostKind::QemuTiming, exec);
                println!("{:>6} {:>18.2} {:>18.2}", hosts, g, q);
            }
        }
        Some(parts) => {
            println!(
                "# distributed: {parts} worker processes, one cross-partition channel per inter-partition uplink"
            );
            print!("{:>6} {:>6} {:>14}", "hosts", "kind", "in-proc [s]");
            for (tname, _) in &transports {
                print!(" {:>11}", format!("dist-{tname} [s]"));
            }
            println!(" {:>10}", "identical");
            let names: Vec<String> = (0..parts).map(|w| format!("w{w}")).collect();
            let mut all_identical = true;
            for racks in [1usize, 2, 4] {
                let hosts = racks * HOSTS_PER_RACK;
                for (kname, kind) in [
                    ("gem5", HostKind::Gem5Timing),
                    ("qemu", HostKind::QemuTiming),
                ] {
                    let scen = racks_doc(racks, kind, parts, true, false);
                    let local = dist::run_local(&scen, &build_from_toml, exec);
                    let lm = local.merged_log();
                    let mut row = Row {
                        hosts,
                        kind: kname,
                        inproc_wall: local.wall_seconds(),
                        dist: Vec::new(),
                        hier_inproc_wall: None,
                        hier_dist: Vec::new(),
                    };
                    for (tname, tkind) in &transports {
                        let opts = DistOptions::new(names.clone(), scen.clone())
                            .with_exec(exec)
                            .with_transport(*tkind);
                        let dres = dist::run_distributed(&opts, &build_from_toml)
                            .expect("distributed run failed");
                        let dm = dres.merged_log();
                        let identical =
                            lm.len() == dm.len() && lm.fingerprint() == dm.fingerprint();
                        all_identical &= identical;
                        row.dist.push((
                            tname,
                            dres.max_partition_wall(),
                            dres.wall.as_secs_f64(),
                            identical,
                        ));
                    }
                    print!("{:>6} {:>6} {:>14.2}", hosts, kname, row.inproc_wall);
                    for (_, wall, _, _) in &row.dist {
                        print!(" {:>11.2}", wall);
                    }
                    let ok = row.dist.iter().all(|(_, _, _, id)| *id);
                    println!(" {:>10}", if ok { "yes" } else { "NO" });
                    if hier_sync {
                        // Hierarchical-sync rerun of the same topology; every
                        // event log must stay bit-identical to the FLAT
                        // in-process baseline (sync cadence is invisible).
                        let hscen = racks_doc(racks, kind, parts, true, true);
                        let hlocal = dist::run_local(&hscen, &build_from_toml, exec);
                        let hm = hlocal.merged_log();
                        let lid = lm.len() == hm.len() && lm.fingerprint() == hm.fingerprint();
                        all_identical &= lid;
                        row.hier_inproc_wall = Some(hlocal.wall_seconds());
                        for (tname, tkind) in &transports {
                            let opts = DistOptions::new(names.clone(), hscen.clone())
                                .with_exec(exec)
                                .with_transport(*tkind);
                            let dres = dist::run_distributed(&opts, &build_from_toml)
                                .expect("distributed hier run failed");
                            let dm = dres.merged_log();
                            let identical =
                                lm.len() == dm.len() && lm.fingerprint() == dm.fingerprint();
                            all_identical &= identical;
                            row.hier_dist.push((
                                tname,
                                dres.max_partition_wall(),
                                dres.wall.as_secs_f64(),
                                identical,
                            ));
                        }
                        print!(
                            "{:>6} {:>6} {:>14.2}",
                            "+hier",
                            kname,
                            row.hier_inproc_wall.unwrap()
                        );
                        for (_, wall, _, _) in &row.hier_dist {
                            print!(" {:>11.2}", wall);
                        }
                        let ok = lid && row.hier_dist.iter().all(|(_, _, _, id)| *id);
                        println!(" {:>10}", if ok { "yes" } else { "NO" });
                    }
                    rows.push(row);
                }
            }
            if let Some(path) = &json_path {
                write_json(path, parts, &rows);
            }
            if !all_identical {
                eprintln!("ERROR: a distributed event log diverged from the in-process run");
                std::process::exit(1);
            }
        }
    }
}

/// The racks document: 5 ms of traffic, rack `r` in partition `w{r % parts}`.
fn racks_doc(racks: usize, kind: HostKind, parts: usize, log: bool, hier: bool) -> String {
    let run = SimTime::from_ms(5);
    topo::header("memcache-racks", 1, run, SimTime::from_ms(2), log, hier)
        + &topo::racks(racks, kind, parts)
}

/// One in-process run (no logging) returning wall seconds.
fn inproc_wall(racks: usize, kind: HostKind, exec: Execution) -> f64 {
    let doc = racks_doc(racks, kind, 1, false, false);
    dist::run_local(&doc, &build_from_toml, exec).wall_seconds()
}

fn write_json(path: &str, parts: usize, rows: &[Row]) {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"fig08_distributed_scaling\",\n");
    out.push_str(
        "  \"workload\": \"memcached/memaslap racks (8 hosts/rack) + ToR/core switches\",\n",
    );
    out.push_str("  \"virtual_duration_ms\": 5,\n");
    out.push_str(&format!("  \"dist_workers\": {parts},\n"));
    out.push_str(&format!(
        "  \"machine_cores\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(
        "  \"note\": \"dist_<transport>_wall_s is the slowest worker process; every \
         distributed run has event logging enabled for the bit-identity check against \
         the in-process baseline. On a single-core machine the distributed processes \
         time-share, so the paper's flat-scaling claim needs >= dist_workers real \
         cores; the tcp-vs-shm gap also narrows when forwarder threads time-share.\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let mut fields = format!(
            "\"hosts\": {}, \"kind\": \"{}\", \"inproc_wall_s\": {:.4}",
            r.hosts, r.kind, r.inproc_wall
        );
        for (tname, wall, orch, identical) in &r.dist {
            fields.push_str(&format!(
                ", \"dist_{tname}_wall_s\": {wall:.4}, \"dist_{tname}_orchestrated_wall_s\": {orch:.4}, \
                 \"dist_{tname}_logs_identical\": {identical}"
            ));
        }
        out.push_str(&format!(
            "    {{{fields}}}{}\n",
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write --json file");
    eprintln!("wrote {path}");
}
