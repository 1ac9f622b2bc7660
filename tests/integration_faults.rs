//! Fault injection and recovery: a distributed run that loses a worker
//! mid-flight must recover from its checkpoint ring and still produce a
//! merged event log bit-identical to an undisturbed run — the §5.5 sync
//! protocol makes results independent of wall time, so a fleet restarted
//! from a quiesced ring entry replays the exact same virtual future.
//!
//! The matrix covers, over the deterministic fault schedules of
//! `DistOptions::with_faults`:
//!
//! * `kill_worker` + checkpoint ring → restore-and-resume, on both channel
//!   transports (tcp, shm);
//! * `kill_worker` without a ring → clean restart from zero, same identity;
//! * `kill_worker` that comes due after its victim has reported → the same
//!   recovery, not a teardown failure;
//! * `sever_link` → fleet restart with proxy re-handshake;
//! * an exhausted restart budget → typed failure carrying the recovery
//!   report, with every worker process reaped (no orphans).

use std::path::PathBuf;
use std::time::Duration;

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::base::{Kernel, Model, OwnedMsg, PortId, SnapReader, SnapResult, SnapWriter};
use simbricks::hostsim::{HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::dist::{
    self, DistError, DistOptions, FaultKind, FaultSpec, PartitionBuilder,
};
use simbricks::runner::{Execution, Experiment, TransportKind};
use simbricks::SimTime;

/// Virtual end of every experiment here.
fn end_time() -> SimTime {
    SimTime::from_ms(6)
}

/// Two-partition netperf build: server + switch in "p0", client in "p1",
/// with the client's Ethernet link crossing the process boundary. Shared by
/// the in-process baseline, the orchestrator, and worker subprocesses
/// re-entering this binary through `fault_worker_entry`. The scenario string
/// is an opaque marker (used by the orphan scan below) — the build ignores
/// it, so every run of this function is the identical experiment.
fn fault_build(_scenario: &str, pb: &mut PartitionBuilder) {
    let exp = Experiment::new("faults-dist", end_time()).with_logging();
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

/// Hidden worker entry (see `integration_determinism.rs` for the pattern).
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn fault_worker_entry() {
    dist::maybe_worker(&fault_build);
}

fn tmp_ring(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simbricks-faults-{}-{tag}", std::process::id()))
}

/// Base options: two workers re-entering this test binary, fast heartbeats
/// so fleet progress is visible to the fault scheduler well within the run.
fn fault_opts(scenario: &str, transport: TransportKind) -> DistOptions {
    DistOptions::new(vec!["p0".into(), "p1".into()], scenario)
        .with_worker_args(vec![
            "fault_worker_entry".into(),
            "--exact".into(),
            "--include-ignored".into(),
            "--nocapture".into(),
        ])
        .with_transport(transport)
        .with_heartbeat(Duration::from_millis(5))
}

/// The undisturbed in-process baseline fingerprint.
fn baseline() -> (u64, usize) {
    let local = dist::run_local("", &fault_build, Execution::Sequential);
    let merged = local.merged_log();
    assert!(
        merged.len() > 100,
        "logs actually contain events ({})",
        merged.len()
    );
    (merged.fingerprint(), merged.len())
}

/// Kill a worker mid-run with a ring recorded: the fleet must restore from a
/// ring entry and finish with the undisturbed fingerprint.
fn assert_kill_recovers(transport: TransportKind, label: &str) {
    let (fp, n) = baseline();
    let ring_dir = tmp_ring(label);
    let _ = std::fs::remove_dir_all(&ring_dir);
    let opts = fault_opts(label, transport)
        .with_checkpoint_ring(SimTime::from_ms(1), 0, &ring_dir)
        .with_faults(vec![FaultSpec {
            at: SimTime::from_ms(3),
            kind: FaultKind::KillWorker {
                partition: "p1".into(),
            },
        }])
        .with_max_restarts(2);
    let r = dist::run_distributed(&opts, &fault_build).expect("run recovers");
    let merged = r.merged_log();
    assert_eq!(n, merged.len(), "same event count after recovery ({label})");
    assert_eq!(
        fp,
        merged.fingerprint(),
        "recovered run bit-identical to undisturbed baseline ({label})"
    );
    assert_eq!(
        r.recovery.faults_injected.len(),
        1,
        "exactly one fault fired"
    );
    assert_eq!(r.recovery.restarts, 1, "one fleet restart ({label})");
    assert!(
        r.recovery.ring_entries_used[0].is_some(),
        "recovery used a ring entry, not restart-from-zero ({label}): {}",
        r.recovery
    );
    let _ = std::fs::remove_dir_all(&ring_dir);
}

#[test]
fn kill_worker_recovers_from_ring_tcp() {
    assert_kill_recovers(TransportKind::Tcp, "kill-tcp");
}

#[test]
fn kill_worker_recovers_from_ring_shm() {
    if simbricks::runner::shm_supported() {
        assert_kill_recovers(TransportKind::Shm, "kill-shm");
    }
}

/// A component with no ports that logs a tick every 10 µs of virtual time.
/// With `pace` set, each tick also sleeps for that much wall time, which
/// makes its partition slow without changing what it simulates.
struct Ticker {
    ticks: u64,
    pace: Option<Duration>,
}

impl Model for Ticker {
    fn init(&mut self, k: &mut Kernel) {
        k.schedule_at(SimTime::ZERO, 0);
    }
    fn on_msg(&mut self, _k: &mut Kernel, _port: PortId, _msg: OwnedMsg) {}
    fn on_timer(&mut self, k: &mut Kernel, _token: u64) {
        k.log("tick", self.ticks, 0);
        self.ticks += 1;
        if let Some(pace) = self.pace {
            std::thread::sleep(pace);
        }
        k.schedule_in(SimTime::from_us(10), 0);
    }
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.u64(self.ticks);
        Ok(())
    }
    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.ticks = r.u64()?;
        Ok(())
    }
}

/// Two partitions that share no link: "p0" ticks slowly in wall time when
/// the scenario is `"paced"`, "p1" always runs flat out. So p1 finishes and
/// reports long before p0 reaches the middle of the run.
fn unlinked_build(scenario: &str, pb: &mut PartitionBuilder) {
    pb.init(Experiment::new("faults-unlinked", end_time()).with_logging());
    let pace = (scenario == "paced").then(|| Duration::from_micros(500));
    for (p, pace) in [("p0", pace), ("p1", None)] {
        let ticker = Box::new(Ticker { ticks: 0, pace });
        pb.add(p, format!("ticker-{p}"), ticker, Vec::new());
    }
}

/// Hidden worker entry for [`unlinked_build`].
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn unlinked_worker_entry() {
    dist::maybe_worker(&unlinked_build);
}

/// A kill that comes due after its victim has reported must still be
/// recovered, not fail the run at teardown. p1 reports within milliseconds,
/// while p0 needs about 150 ms of wall time to reach the kill time.
#[test]
fn kill_after_victim_reported_recovers() {
    let local = dist::run_local("", &unlinked_build, Execution::Sequential);
    let (fp, n) = (local.merged_log().fingerprint(), local.merged_log().len());
    let ring_dir = tmp_ring("kill-late");
    let _ = std::fs::remove_dir_all(&ring_dir);
    let opts = DistOptions::new(vec!["p0".into(), "p1".into()], "paced")
        .with_worker_args(vec![
            "unlinked_worker_entry".into(),
            "--exact".into(),
            "--include-ignored".into(),
            "--nocapture".into(),
        ])
        .with_heartbeat(Duration::from_millis(5))
        .with_checkpoint_ring(SimTime::from_ms(1), 0, &ring_dir)
        .with_faults(vec![FaultSpec {
            at: SimTime::from_ms(3),
            kind: FaultKind::KillWorker {
                partition: "p1".into(),
            },
        }])
        .with_max_restarts(1);
    let r = dist::run_distributed(&opts, &unlinked_build).expect("late kill recovers");
    let merged = r.merged_log();
    assert_eq!((fp, n), (merged.fingerprint(), merged.len()));
    assert_eq!(r.recovery.faults_injected.len(), 1);
    assert_eq!(r.recovery.restarts, 1, "{}", r.recovery);
    let _ = std::fs::remove_dir_all(&ring_dir);
}

/// Without a ring there is nothing to restore: recovery must fall back to a
/// clean restart from zero — and determinism makes even that bit-identical.
#[test]
fn kill_worker_without_ring_restarts_from_zero() {
    let (fp, n) = baseline();
    let opts = fault_opts("kill-noring", TransportKind::Tcp)
        .with_faults(vec![FaultSpec {
            at: SimTime::from_ms(3),
            kind: FaultKind::KillWorker {
                partition: "p0".into(),
            },
        }])
        .with_max_restarts(2);
    let r = dist::run_distributed(&opts, &fault_build).expect("run recovers from zero");
    let merged = r.merged_log();
    assert_eq!(n, merged.len());
    assert_eq!(
        fp,
        merged.fingerprint(),
        "restart-from-zero is still bit-identical"
    );
    assert_eq!(r.recovery.restarts, 1);
    assert_eq!(
        r.recovery.ring_entries_used,
        vec![None],
        "no ring entry available: {}",
        r.recovery
    );
}

/// The same under the sharded executor inside each worker: its heartbeats
/// must carry the partition's virtual time, or the fleet minimum never
/// crosses the fault time and the kill never fires.
#[test]
fn kill_worker_without_ring_restarts_from_zero_sharded() {
    let (fp, n) = baseline();
    let opts = fault_opts("kill-noring-sharded", TransportKind::Tcp)
        .with_exec(Execution::Sharded { workers: 2 })
        .with_faults(vec![FaultSpec {
            at: SimTime::from_ms(3),
            kind: FaultKind::KillWorker {
                partition: "p0".into(),
            },
        }])
        .with_max_restarts(2);
    let r = dist::run_distributed(&opts, &fault_build).expect("run recovers from zero");
    let merged = r.merged_log();
    assert_eq!(n, merged.len());
    assert_eq!(
        fp,
        merged.fingerprint(),
        "restart-from-zero is still bit-identical"
    );
    assert_eq!(
        r.recovery.faults_injected.len(),
        1,
        "the scheduled kill fired"
    );
    assert_eq!(r.recovery.restarts, 1);
}

/// A worker handed an executor it does not know fails before it simulates
/// anything, naming the variable and the accepted values.
#[test]
fn worker_rejects_unknown_executor() {
    // A port nothing listens on: the worker must fail before connecting.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind a loopback port");
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "fault_worker_entry",
            "--exact",
            "--include-ignored",
            "--nocapture",
        ])
        .env(dist::ENV_CONTROL, addr.to_string())
        .env(dist::ENV_PARTITION, "p0")
        .env(dist::ENV_EXEC, "threads")
        .env(dist::ENV_DIST_TRANSPORT, "tcp")
        .output()
        .expect("spawn worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "worker must fail: {stderr}");
    assert!(
        stderr.contains(dist::ENV_EXEC) && stderr.contains("sharded:N"),
        "error names the variable and the accepted values: {stderr}"
    );
}

/// A severed cross-partition link is a retryable failure: the fleet restarts
/// (from the ring), the proxies re-handshake, and the result is unchanged.
#[test]
fn sever_link_recovers_and_matches() {
    let (fp, n) = baseline();
    let ring_dir = tmp_ring("sever");
    let _ = std::fs::remove_dir_all(&ring_dir);
    let opts = fault_opts("sever", TransportKind::Tcp)
        .with_checkpoint_ring(SimTime::from_ms(1), 0, &ring_dir)
        .with_faults(vec![FaultSpec {
            at: SimTime::from_ms(3),
            kind: FaultKind::SeverLink {
                link: "client-eth".into(),
            },
        }])
        .with_max_restarts(2);
    let r = dist::run_distributed(&opts, &fault_build).expect("run recovers from severed link");
    let merged = r.merged_log();
    assert_eq!(n, merged.len());
    assert_eq!(
        fp,
        merged.fingerprint(),
        "post-sever run bit-identical to baseline"
    );
    assert_eq!(r.recovery.restarts, 1, "sever forced one fleet restart");
    let _ = std::fs::remove_dir_all(&ring_dir);
}

/// Count live processes whose environment carries our unique scenario
/// marker — i.e. worker subprocesses of *this* orchestration attempt.
fn count_marked_workers(marker: &str) -> usize {
    let mut n = 0;
    let entries = match std::fs::read_dir("/proc") {
        Ok(e) => e,
        Err(_) => return 0,
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        if let Ok(env) = std::fs::read(e.path().join("environ")) {
            if env.windows(marker.len()).any(|w| w == marker.as_bytes()) {
                n += 1;
            }
        }
    }
    n
}

/// With the restart budget exhausted the run must fail with a typed error
/// carrying the recovery report — and tear the whole fleet down: no worker
/// process may outlive the orchestration.
// Wall-clock here bounds the host-side reap wait, not simulated behaviour.
#[allow(clippy::disallowed_methods)]
#[test]
fn exhausted_restarts_fail_cleanly_without_orphans() {
    let marker = format!("orphan-marker-{}", std::process::id());
    let opts = fault_opts(&marker, TransportKind::Tcp).with_faults(vec![FaultSpec {
        at: SimTime::from_ms(2),
        kind: FaultKind::KillWorker {
            partition: "p1".into(),
        },
    }]);
    // max_restarts defaults to 0: the injected kill exhausts the budget.
    let err = match dist::run_distributed(&opts, &fault_build) {
        Ok(_) => panic!("run must fail: restart budget is zero"),
        Err(e) => e,
    };
    match &err {
        DistError::RestartsExhausted {
            restarts,
            report,
            last,
        } => {
            assert_eq!(*restarts, 0);
            assert_eq!(report.faults_injected.len(), 1, "report records the fault");
            // A kill ends the attempt as the victim's exit.
            assert!(
                matches!(**last, DistError::WorkerExited { .. }),
                "underlying failure is the killed worker, got: {last}"
            );
        }
        e => panic!("expected RestartsExhausted, got: {e}"),
    }
    assert!(!err.to_string().is_empty());
    // Workers are SIGKILLed on teardown; give the kernel a moment to reap,
    // then require that not a single marked process survives.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let alive = count_marked_workers(&marker);
        if alive == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{alive} worker process(es) outlived the failed orchestration"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The fault schedule is part of the orchestration options, so two disturbed
/// runs with the same schedule inject identically and agree with each other
/// (and, transitively via the tests above, with the undisturbed baseline).
#[test]
fn fault_schedule_replays_identically() {
    let ring_dir = tmp_ring("replay");
    let _ = std::fs::remove_dir_all(&ring_dir);
    let mk = || {
        fault_opts("replay", TransportKind::Tcp)
            .with_checkpoint_ring(SimTime::from_ms(1), 0, &ring_dir)
            .with_faults(vec![FaultSpec {
                at: SimTime::from_ms(3),
                kind: FaultKind::KillWorker {
                    partition: "p1".into(),
                },
            }])
            .with_max_restarts(2)
    };
    let a = dist::run_distributed(&mk(), &fault_build).expect("first disturbed run");
    let _ = std::fs::remove_dir_all(&ring_dir);
    let b = dist::run_distributed(&mk(), &fault_build).expect("second disturbed run");
    assert_eq!(
        a.merged_log().fingerprint(),
        b.merged_log().fingerprint(),
        "identical fault schedules produce identical results"
    );
    assert_eq!(a.recovery.faults_injected, b.recovery.faults_injected);
    let _ = std::fs::remove_dir_all(&ring_dir);
}
