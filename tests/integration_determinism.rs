//! Determinism (§7.6): repeated runs of a synchronized configuration produce
//! bit-identical timestamped event logs — including true multi-process
//! distributed runs over loopback TCP proxies (§5.4), which must reproduce
//! the in-process sequential log bit for bit.

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::base::EventLog;
use simbricks::hostsim::{HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::dist::{self, DistOptions, PartitionBuilder};
use simbricks::runner::{attach_host_nic, Execution, Experiment, TransportKind};
use simbricks::SimTime;

fn run_once(mode: Execution, hier: bool) -> (u64, usize) {
    let mut exp = Experiment::new("determinism", SimTime::from_ms(10)).with_logging();
    if hier {
        exp = exp.with_hier_sync();
    }
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(
        server_cfg.ip,
        5201,
        5202,
        SimTime::from_ms(4),
        SimTime::from_ms(4),
    ));
    let (_s, _, s_eth) = attach_host_nic(&mut exp, "server", server_cfg, server_app, false);
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
    let logs: Vec<&EventLog> = r.logs.iter().collect();
    let merged = EventLog::merge(&logs);
    (merged.fingerprint(), merged.len())
}

#[test]
fn repeated_runs_produce_identical_event_logs() {
    let (f1, n1) = run_once(Execution::Sequential, false);
    let (f2, n2) = run_once(Execution::Sequential, false);
    let (f3, n3) = run_once(Execution::Sequential, false);
    assert!(n1 > 100, "logs actually contain events ({n1})");
    assert_eq!(n1, n2);
    assert_eq!(f1, f2, "run 1 and 2 identical");
    assert_eq!(n2, n3);
    assert_eq!(f2, f3, "run 2 and 3 identical");
}

/// The §5.5 protocol makes simulation results independent of the executor:
/// wall-clock scheduling only decides when promises arrive, never what any
/// component observes at a given virtual time. The sharded work-stealing
/// executor must therefore reproduce the sequential event logs bit for bit,
/// for any worker count.
#[test]
fn sharded_runs_match_sequential_event_logs() {
    let (f_seq, n_seq) = run_once(Execution::Sequential, false);
    assert!(n_seq > 100, "logs actually contain events ({n_seq})");
    for workers in [1usize, 2, 4] {
        let (f_sh, n_sh) = run_once(Execution::Sharded { workers }, false);
        assert_eq!(n_seq, n_sh, "same event count with {workers} workers");
        assert_eq!(
            f_seq, f_sh,
            "sequential and sharded ({workers} workers) logs bit-identical"
        );
    }
}

/// Hierarchical sync domains (topology-aware widened promises, epoch-batched
/// emission) change only *when* promises travel, never the timestamps or
/// order of data messages — so every executor running with hierarchical sync
/// enabled must still reproduce the flat-sync sequential event log bit for
/// bit.
#[test]
fn hier_sync_runs_match_flat_sequential_event_logs() {
    let (f_flat, n_flat) = run_once(Execution::Sequential, false);
    assert!(n_flat > 100, "logs actually contain events ({n_flat})");
    let (f_seq, n_seq) = run_once(Execution::Sequential, true);
    assert_eq!(n_flat, n_seq, "same event count under hierarchical sync");
    assert_eq!(f_flat, f_seq, "hier sequential matches flat sequential");
    for workers in [1usize, 2, 4] {
        let (f_sh, n_sh) = run_once(Execution::Sharded { workers }, true);
        assert_eq!(
            n_flat, n_sh,
            "same event count, hier sharded {workers} workers"
        );
        assert_eq!(
            f_flat, f_sh,
            "hier sharded ({workers} workers) matches flat sequential"
        );
    }
}

// ---------------------------------------------------------------------------
// Distributed determinism (§5.4): the same netperf experiment split into two
// partitions — server + switch in "p0", client in "p1" — running as two
// worker OS processes with the client's Ethernet link bridged by loopback
// TCP proxies. The merged event log must be bit-identical to the in-process
// sequential run.
// ---------------------------------------------------------------------------

/// Dist-aware build of the determinism experiment. Shared verbatim by the
/// in-process baseline, the orchestrator's discovery pass, and the two
/// spawned worker processes (which re-enter this test binary through
/// `dist_worker_entry`).
fn dist_build(scenario: &str, pb: &mut PartitionBuilder) {
    let mut exp = Experiment::new("determinism-dist", SimTime::from_ms(6)).with_logging();
    // The scenario string travels to every worker process, so flipping the
    // sync protocol here flips it consistently across all partitions.
    if scenario == "hier" {
        exp = exp.with_hier_sync();
    }
    pb.init(exp);
    let eth_params = pb.exp().eth_params();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(
        server_cfg.ip,
        5201,
        5202,
        SimTime::from_ms(2),
        SimTime::from_ms(2),
    ));
    let (_s, _, s_eth) = pb.attach_host_nic("p0", "server", server_cfg, server_app, false);
    // The client lives in the other partition; its NIC-to-switch Ethernet
    // link is the one that crosses the process boundary.
    let (cli_eth_nic, cli_eth_sw) = pb.channel("client-eth", "p1", "p0", eth_params);
    pb.attach_host_nic_on("p1", "client", client_cfg, client_app, false, cli_eth_nic);
    pb.add(
        "p0",
        "switch",
        Box::new(SwitchBm::new(SwitchConfig {
            ports: 2,
            ..Default::default()
        })),
        vec![s_eth, cli_eth_sw],
    );
}

/// Hidden worker entry: [`dist::run_distributed`] self-`exec`s this test
/// binary with `dist_worker_entry --exact --include-ignored`, which lands
/// here; `maybe_worker` detects the control-socket environment, runs the
/// worker protocol, and exits the process. Running it by hand (without the
/// environment) is a no-op.
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn dist_worker_entry() {
    dist::maybe_worker(&dist_build);
}

/// Options for a 2-worker-process run that re-enters this test binary.
fn dist_opts(scenario: &str) -> DistOptions {
    DistOptions::new(vec!["p0".into(), "p1".into()], scenario).with_worker_args(vec![
        "dist_worker_entry".into(),
        "--exact".into(),
        "--include-ignored".into(),
        // Worker diagnostics must reach our stderr, not a captured buffer
        // that dies with the worker.
        "--nocapture".into(),
    ])
}

/// Assert a distributed run with the given options reproduces the in-process
/// sequential baseline bit for bit. The baseline is computed once by the
/// caller — it is transport-independent by construction.
fn assert_dist_matches_baseline(
    local: &simbricks::runner::RunResult,
    opts: DistOptions,
    label: &str,
) {
    let merged = local.merged_log();
    assert!(
        merged.len() > 100,
        "logs actually contain events ({})",
        merged.len()
    );

    let dist = dist::run_distributed(&opts, &dist_build).expect("distributed run");

    assert_eq!(
        dist.component_names, local.component_names,
        "components reassembled in global build order ({label})"
    );
    let dist_merged = dist.merged_log();
    assert_eq!(
        merged.len(),
        dist_merged.len(),
        "same event count ({label})"
    );
    assert_eq!(
        merged.fingerprint(),
        dist_merged.fingerprint(),
        "distributed ({label}) and in-process sequential event logs bit-identical"
    );
    // Stats travelled back too: the distributed run delivered the same
    // data messages as the baseline.
    let lt = local.total_stats();
    let dt = dist.total_stats();
    assert_eq!(lt.msgs_delivered, dt.msgs_delivered);
    assert_eq!(lt.final_time, dt.final_time);
}

/// Transport from `SIMBRICKS_TRANSPORT` (default auto) — the CI smoke step
/// runs this test once with `tcp` and once with `shm`.
#[test]
fn dist_two_partition_run_matches_sequential_event_log() {
    let t = TransportKind::from_env_or(TransportKind::Auto);
    let local = dist::run_local("", &dist_build, Execution::Sequential);
    assert_dist_matches_baseline(&local, dist_opts("").with_transport(t), t.to_arg());
}

/// Both concrete transports — loopback TCP proxies and mmap shared-memory
/// rings — must reproduce the identical merged event log: the §5.5 protocol
/// makes results independent of how promises travel between processes.
#[test]
fn dist_tcp_and_shm_transports_both_match_sequential_event_log() {
    let local = dist::run_local("", &dist_build, Execution::Sequential);
    assert_dist_matches_baseline(
        &local,
        dist_opts("").with_transport(TransportKind::Tcp),
        "tcp",
    );
    if simbricks::runner::shm_supported() {
        assert_dist_matches_baseline(
            &local,
            dist_opts("").with_transport(TransportKind::Shm),
            "shm",
        );
    }
}

/// A dist worker's tcp links are pumped by whatever executor steps its
/// partition: the sharded sweep here, with two workers sharing the pumps.
#[test]
fn dist_tcp_sharded_workers_match_sequential_event_log() {
    let local = dist::run_local("", &dist_build, Execution::Sequential);
    let opts = dist_opts("")
        .with_transport(TransportKind::Tcp)
        .with_exec(Execution::Sharded { workers: 2 });
    assert_dist_matches_baseline(&local, opts, "tcp/sharded:2");
}

/// Distributed workers running the hierarchical sync protocol (the "hier"
/// scenario flips it on inside every worker's build of the experiment) must
/// still reproduce the *flat*-sync in-process sequential log bit for bit, on
/// both transports — the strongest cross-executor statement of the protocol's
/// result-invariance.
#[test]
fn dist_hier_sync_matches_flat_sequential_event_log() {
    let local = dist::run_local("", &dist_build, Execution::Sequential);
    assert_dist_matches_baseline(
        &local,
        dist_opts("hier").with_transport(TransportKind::Tcp),
        "hier/tcp",
    );
    if simbricks::runner::shm_supported() {
        assert_dist_matches_baseline(
            &local,
            dist_opts("hier").with_transport(TransportKind::Shm),
            "hier/shm",
        );
    }
}
