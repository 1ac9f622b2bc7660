//! Deterministic checkpoint/restore, proven by a bit-identity matrix.
//!
//! A checkpoint taken mid-run must be invisible: the checkpointing run's own
//! continuation AND a later run restored from the file must both produce
//! event logs bit-identical (fingerprint *and* every entry) to an
//! uninterrupted run. The matrix covers
//!
//! * executors: sequential, sharded with 1/2/4 workers, and true 2-process
//!   distributed runs over both channel transports (tcp, shm), whose
//!   recorded checkpoint is restored into the in-process build;
//! * workloads: netperf (TCP stream + RR) and memcached/memaslap (UDP KV).

use std::path::PathBuf;

use simbricks::apps::{MemaslapClient, MemcachedServer, NetperfClient, NetperfServer};
use simbricks::base::{EventLog, SnapError};
use simbricks::hostsim::{Application, HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::SocketAddr;
use simbricks::runner::dist::{self, DistOptions, PartitionBuilder};
use simbricks::runner::{
    attach_host_nic, ring_entries, ring_entry_path, write_blob, Execution, Experiment,
    TransportKind,
};
use simbricks::SimTime;

/// Virtual end of every experiment in this matrix.
fn end_time() -> SimTime {
    SimTime::from_ms(6)
}

/// Checkpoint in the middle of the measured region.
fn ckpt_time() -> SimTime {
    SimTime::from_ms(3)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Netperf,
    Memcache,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Netperf => "netperf",
            Workload::Memcache => "memcache",
        }
    }

    fn apps(self, server_cfg: &HostConfig) -> (Box<dyn Application>, Box<dyn Application>) {
        match self {
            Workload::Netperf => (
                Box::new(NetperfServer::new(5201, 5202)),
                Box::new(NetperfClient::new(
                    server_cfg.ip,
                    5201,
                    5202,
                    SimTime::from_ms(2),
                    SimTime::from_ms(2),
                )),
            ),
            Workload::Memcache => (
                Box::new(MemcachedServer::new()),
                Box::new(MemaslapClient::new(
                    vec![SocketAddr::new(
                        server_cfg.ip,
                        simbricks::apps::memcache::MEMCACHE_PORT,
                    )],
                    2,
                    64,
                    SimTime::from_ms(4),
                )),
            ),
        }
    }
}

/// Two gem5-like hosts (server + client) through the behavioural switch.
fn build(workload: Workload) -> Experiment {
    let mut exp = Experiment::new(format!("ckpt-{}", workload.name()), end_time()).with_logging();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let (server_app, client_app) = workload.apps(&server_cfg);
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
    exp
}

/// Assert two merged logs are bit-identical: fingerprint AND full entries
/// (the first diverging entry is reported for debuggability).
fn assert_logs_identical(got: &EventLog, want: &EventLog, label: &str) {
    assert_eq!(got.len(), want.len(), "event count differs ({label})");
    for (i, (g, w)) in got.entries().iter().zip(want.entries()).enumerate() {
        assert_eq!(g, w, "first diverging entry at index {i} ({label})");
    }
    assert_eq!(
        got.fingerprint(),
        want.fingerprint(),
        "fingerprint ({label})"
    );
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simbricks-ckpt-{}-{tag}", std::process::id()))
}

/// The in-process matrix: {sequential, sharded×{1,2,4}} × {netperf, memcache}.
/// For every combination, (a) a run that checkpoints mid-way and continues
/// and (b) a fresh run restored from that checkpoint both reproduce the
/// uninterrupted baseline log bit for bit.
#[test]
fn checkpoint_restore_matrix_in_process() {
    for workload in [Workload::Netperf, Workload::Memcache] {
        let baseline = build(workload).run(Execution::Sequential).merged_log();
        assert!(
            baseline.len() > 100,
            "baseline log actually contains events ({})",
            baseline.len()
        );
        let execs = [
            ("seq", Execution::Sequential),
            ("sharded1", Execution::Sharded { workers: 1 }),
            ("sharded2", Execution::Sharded { workers: 2 }),
            ("sharded4", Execution::Sharded { workers: 4 }),
        ];
        for (ename, exec) in execs {
            let label = format!("{}/{ename}", workload.name());
            let path = tmp_path(&format!("{}-{ename}.ckpt", workload.name()));

            // (a) Checkpoint mid-run, continue to the end: the pause must be
            // invisible in the continuation.
            let mut exp = build(workload);
            exp.checkpoint_at(ckpt_time());
            let r = exp.run(exec);
            assert_eq!(r.ring.len(), 1, "one checkpoint captured ({label})");
            assert_eq!(r.ring[0].0, ckpt_time());
            write_blob(&path, &r.ring[0].1).expect("write checkpoint");
            assert_logs_identical(&r.merged_log(), &baseline, &format!("{label} ckpt-run"));

            // (b) Restore from the file into a freshly built experiment and
            // run the continuation under the same executor.
            let mut exp = build(workload);
            let at = exp.restore(&path).expect("restore");
            assert_eq!(at, ckpt_time());
            let r2 = exp.run(exec);
            assert_logs_identical(&r2.merged_log(), &baseline, &format!("{label} restored"));

            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A checkpoint encodes each timer queue's sequence numbers, and every queue
/// numbers its own events in schedule order. Two runs of one experiment in
/// one process therefore write the same bytes at the same virtual time,
/// whatever the executor and whatever ran before them.
#[test]
fn checkpoint_blobs_are_byte_identical_across_runs_and_executors() {
    let blob = |exec| {
        let mut exp = build(Workload::Netperf);
        exp.checkpoint_at(ckpt_time());
        let (_, blob) = exp.run(exec).ring.pop().expect("checkpoint captured");
        blob
    };
    let seq = blob(Execution::Sequential);
    let sharded = blob(Execution::Sharded { workers: 2 });
    assert!(
        seq == sharded,
        "checkpoint blobs differ ({} vs {} bytes)",
        seq.len(),
        sharded.len()
    );
}

/// Restoring with mismatched topology or workload fails loudly, and a
/// restored experiment reports the application results of the full run.
#[test]
fn restore_rejects_wrong_experiment() {
    let path = tmp_path("wrong-exp.ckpt");
    let mut exp = build(Workload::Netperf);
    exp.checkpoint_at(ckpt_time());
    let r = exp.run(Execution::Sequential);
    write_blob(&path, &r.ring[0].1).expect("write checkpoint");
    // Different experiment (name differs): clear error, not UB.
    let mut other = build(Workload::Memcache);
    match other.restore(&path) {
        Err(SnapError::Corrupt(msg)) => {
            assert!(msg.contains("name mismatch"), "got: {msg}")
        }
        other => panic!("expected Corrupt(name mismatch), got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Distributed matrix: the same workloads split into two partitions (server +
// switch in p0, client in p1) running as two worker OS processes, for both
// channel transports. The checkpoint is a ring slot: each worker streams its
// partition's snapshot over the control protocol and the orchestrator merges
// them into one whole-experiment container, which the in-process build of
// the same build function restores.
// ---------------------------------------------------------------------------

/// Dist-aware build shared by the in-process baseline, discovery, and the
/// worker processes (which re-enter this test binary).
fn dist_build(scenario: &str, pb: &mut PartitionBuilder) {
    let workload = if scenario.contains("wl=memcache") {
        Workload::Memcache
    } else {
        Workload::Netperf
    };
    pb.init(Experiment::new(format!("ckpt-{}", workload.name()), end_time()).with_logging());
    let eth_params = pb.exp().eth_params();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let (server_app, client_app) = workload.apps(&server_cfg);
    let (_s, _, s_eth) = pb.attach_host_nic("p0", "server", server_cfg, server_app, false);
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

/// Hidden worker entry (see `integration_determinism.rs` for the pattern):
/// spawned worker processes re-enter this test binary here; `maybe_worker`
/// detects the control-socket environment and takes over.
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn ckpt_dist_worker_entry() {
    dist::maybe_worker(&dist_build);
}

fn dist_opts(scenario: &str) -> DistOptions {
    DistOptions::new(vec!["p0".into(), "p1".into()], scenario).with_worker_args(vec![
        "ckpt_dist_worker_entry".into(),
        "--exact".into(),
        "--include-ignored".into(),
        "--nocapture".into(),
    ])
}

fn dist_matrix_for(transport: TransportKind) {
    for workload in [Workload::Netperf, Workload::Memcache] {
        let scenario = format!("wl={}", workload.name());
        let label = format!("dist-{}-{}", workload.name(), transport.to_arg());
        let baseline = dist::run_local(&scenario, &dist_build, Execution::Sequential).merged_log();
        assert!(baseline.len() > 100, "baseline has events");
        let dir = tmp_path(&label);
        let _ = std::fs::remove_dir_all(&dir);

        // Checkpointing 2-process run: a ring whose period is the checkpoint
        // time has one slot before the end, merged by the orchestrator into
        // one whole-experiment container; continuation bit-identical.
        let d1 = dist::run_distributed(
            &dist_opts(&scenario)
                .with_transport(transport)
                .with_checkpoint_ring(ckpt_time(), 0, dir.clone()),
            &dist_build,
        )
        .expect("distributed checkpoint run");
        assert_logs_identical(&d1.merged_log(), &baseline, &format!("{label} ckpt-run"));
        let entry = ring_entry_path(&dir, ckpt_time());
        assert_eq!(
            ring_entries(&dir).expect("ring directory"),
            vec![(ckpt_time(), entry.clone())],
            "exactly one merged entry ({label})"
        );

        // The dist-recorded entry replays locally: restored into the
        // in-process build, the remainder is reproduced bit for bit.
        let mut pb = PartitionBuilder::new_local();
        dist_build(&scenario, &mut pb);
        let mut exp = pb.into_experiment();
        assert_eq!(exp.restore(&entry).expect("restore"), ckpt_time());
        let r = exp.run(Execution::Sequential);
        assert_logs_identical(&r.merged_log(), &baseline, &format!("{label} restored"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// dist×tcp leg of the matrix (both workloads).
#[test]
fn checkpoint_restore_matrix_dist_tcp() {
    dist_matrix_for(TransportKind::Tcp);
}

/// dist×shm leg of the matrix (both workloads; skipped on platforms without
/// shared-memory support).
#[test]
fn checkpoint_restore_matrix_dist_shm() {
    if !simbricks::runner::shm_supported() {
        eprintln!("shm transport unsupported on this platform; skipping");
        return;
    }
    dist_matrix_for(TransportKind::Shm);
}
