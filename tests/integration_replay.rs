//! Time-travel replay, proven end to end.
//!
//! * **Ring bit-identity**: a run that records a checkpoint ring produces the
//!   same merged event log as an uninterrupted run, and a fresh run restored
//!   from *every* ring entry reproduces it bit for bit — across the
//!   sequential and sharded executors and true 2-process distributed runs
//!   over both transports (the orchestrator merges per-partition snapshots
//!   into whole-experiment ring entries that restore locally).
//! * **Seek**: `Replay::seek(t)` yields exactly the simulation-visible state
//!   of a fresh run paused at `t` — clocks, event logs, per-port queue
//!   depths, and model state.
//! * **Bisect**: two rings whose runs were nudged apart (scenario seed +1,
//!   or a one-byte impairment-seed mutation) are bisected to the exact first
//!   divergent event — matching a ground-truth diff of the full logs —
//!   within the ⌈log2(epochs)⌉+1 replay budget; identical runs report no
//!   divergence in two replays.

use std::path::PathBuf;

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::base::{EventLog, LogEntry};
use simbricks::hostsim::{HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::dist::{self, DistOptions, PartitionBuilder};
use simbricks::runner::{Execution, Experiment, RingMeta, TransportKind, RING_SCENARIO_FILE};
use simbricks::scenario::build_from_toml;
use simbricks::SimTime;
use simbricks_replay::{record_ring, Replay, SeekState, Side};

/// Impaired host pair: the lossy, jittery, reordering link makes the event
/// stream sensitive to both the scenario seed and the impairment seed, which
/// the bisect tests mutate. 480 us of virtual time over 40 us epochs = 12
/// epochs. Reordering is on deliberately: a reorder-deferred packet once
/// stranded its peer on a stale promise and deadlocked ring quiescing, so
/// every ring recording here doubles as a regression test for that.
const SCENARIO: &str = r#"
[scenario]
name = "replay-b2b"
duration = "400us"
end_margin = "80us"
log = true
seed = 1

[[host]]
name = "s0"
kind = "qemu_timing"

[host.app]
type = "iperf_tcp_server"

[[host]]
name = "c0"
kind = "qemu_timing"

[host.app]
type = "iperf_tcp_client"
server = "s0"

[[link]]
name = "wire"
a = "s0"
b = "c0"

[link.impairment]
loss = "bernoulli"
loss_permille = 20
jitter = "200ns"
reorder_permille = 10
"#;

fn ring_period() -> SimTime {
    SimTime::from_us(40)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simbricks-replay-{}-{tag}", std::process::id()))
}

fn build_local(scenario: &str) -> Experiment {
    let mut pb = PartitionBuilder::new_local();
    build_from_toml(scenario, &mut pb);
    pb.into_experiment()
}

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

/// Ground truth for the bisect tests: run both scenarios uninterrupted with
/// full logs and diff their labeled merges directly (ordered by virtual
/// time, component build order, record order — the merge order the bisector
/// uses). Returns the first differing slot.
fn ground_truth_divergence(
    scn_a: &str,
    scn_b: &str,
) -> (SimTime, String, Option<LogEntry>, Option<LogEntry>) {
    let merge = |scn: &str| -> (Vec<String>, Vec<(usize, LogEntry)>) {
        let r = build_local(scn).run(Execution::Sequential);
        let mut all: Vec<(SimTime, usize, usize, LogEntry)> = Vec::new();
        for (ci, log) in r.logs.iter().enumerate() {
            for (ei, e) in log.entries().iter().enumerate() {
                all.push((e.time, ci, ei, *e));
            }
        }
        all.sort_by_key(|&(t, ci, ei, _)| (t, ci, ei));
        (
            r.component_names.clone(),
            all.into_iter().map(|(_, ci, _, e)| (ci, e)).collect(),
        )
    };
    let (names, wa) = merge(scn_a);
    let (_, wb) = merge(scn_b);
    for i in 0..wa.len().max(wb.len()) {
        let (ea, eb) = (wa.get(i), wb.get(i));
        if ea == eb {
            continue;
        }
        let first = match (ea, eb) {
            (Some(x), Some(y)) => {
                if (y.1.time, y.0) < (x.1.time, x.0) {
                    y
                } else {
                    x
                }
            }
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => unreachable!(),
        };
        return (
            first.1.time,
            names[first.0].clone(),
            ea.map(|(_, e)| *e),
            eb.map(|(_, e)| *e),
        );
    }
    panic!("ground truth found no divergence — the mutation did not take");
}

/// Ring-recorded runs and replays from every ring entry are bit-identical to
/// the uninterrupted baseline, under the sequential and sharded executors.
#[test]
fn ring_replay_matrix_in_process() {
    let baseline = build_local(SCENARIO)
        .run(Execution::Sequential)
        .merged_log();
    assert!(
        baseline.len() > 100,
        "baseline log has events ({})",
        baseline.len()
    );
    let execs = [
        ("seq", Execution::Sequential),
        ("sharded2", Execution::Sharded { workers: 2 }),
    ];
    for (ename, exec) in execs {
        let dir = tmp_dir(&format!("ring-{ename}"));
        let _ = std::fs::remove_dir_all(&dir);
        let r = record_ring(&dir, SCENARIO, build_from_toml, exec, ring_period(), 0)
            .expect("record ring");
        assert_logs_identical(
            &r.merged_log(),
            &baseline,
            &format!("{ename} recording run"),
        );
        assert_eq!(
            r.ring.len(),
            11,
            "snapshots at every period multiple below the end"
        );

        let ring = Replay::open(&dir).expect("open ring");
        assert_eq!(ring.entries().len(), 11, "all entries on disk (keep = 0)");
        for (t, path) in ring.entries() {
            let mut exp = build_local(SCENARIO);
            let at = exp.restore(path).expect("restore ring entry");
            assert_eq!(at, *t, "entry restores to its slot time");
            let r2 = exp.run(exec);
            assert_logs_identical(
                &r2.merged_log(),
                &baseline,
                &format!("{ename} replayed from {t}"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `keep_n` prunes the ring (on disk and in the result) to the newest
/// entries while recording.
#[test]
fn ring_prunes_to_newest_keep() {
    let dir = tmp_dir("keep");
    let _ = std::fs::remove_dir_all(&dir);
    let r = record_ring(
        &dir,
        SCENARIO,
        build_from_toml,
        Execution::Sequential,
        ring_period(),
        3,
    )
    .expect("record ring");
    let times: Vec<SimTime> = r.ring.iter().map(|(t, _)| *t).collect();
    let want: Vec<SimTime> = (9..=11).map(|k| SimTime::from_us(40 * k)).collect();
    assert_eq!(times, want, "newest 3 slots survive in the result");
    let ring = Replay::open(&dir).expect("open ring");
    let disk: Vec<SimTime> = ring.entries().iter().map(|(t, _)| *t).collect();
    assert_eq!(disk, want, "newest 3 slots survive on disk");
    // The pruned ring still replays bit-identically from its oldest survivor.
    let baseline = build_local(SCENARIO)
        .run(Execution::Sequential)
        .merged_log();
    let mut exp = build_local(SCENARIO);
    exp.restore(&ring.entries()[0].1)
        .expect("restore oldest survivor");
    assert_logs_identical(
        &exp.run(Execution::Sequential).merged_log(),
        &baseline,
        "replay from oldest surviving entry",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `seek(t)` equals a fresh run paused at `t` in everything the simulation
/// can observe, whether `t` is a snapshot slot or strictly inside an epoch.
#[test]
fn seek_matches_fresh_run_paused() {
    let dir = tmp_dir("seek");
    let _ = std::fs::remove_dir_all(&dir);
    record_ring(
        &dir,
        SCENARIO,
        build_from_toml,
        Execution::Sequential,
        ring_period(),
        0,
    )
    .expect("record ring");
    let ring = Replay::open(&dir).expect("open ring");
    let probes = [
        SimTime::from_us(40),          // exactly a snapshot slot
        SimTime::from_us(100),         // mid-epoch, steps 20 us past a slot
        SimTime::from_ps(217_000_123), // unaligned picosecond inside epoch 5
        SimTime::from_us(470),         // past the newest snapshot (440 us)
    ];
    for t in probes {
        let seeked = ring.seek(t).expect("seek");
        assert_eq!(seeked.time, t);
        if t >= ring_period() {
            assert!(
                seeked.restored_from > SimTime::ZERO,
                "seek to {t} restores from a snapshot, not a fresh run"
            );
        }
        let mut exp = build_local(SCENARIO);
        exp.freeze_at(t).expect("fresh run paused at t");
        let fresh = SeekState::capture(&exp, t, SimTime::ZERO).expect("capture");
        for c in &seeked.components {
            assert_eq!(c.now, t, "{}: clock stands at the seek time", c.name);
        }
        assert!(
            seeked.sim_eq(&fresh),
            "seek({t}) differs from a fresh run paused there"
        );
    }
    assert!(
        ring.seek(SimTime::from_us(480)).is_err(),
        "seeking at/past the run end is rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bisecting a run against itself (two rings, separate recordings) reports
/// no divergence and spends only the two fingerprint replays.
#[test]
fn bisect_identical_runs_reports_no_divergence() {
    let da = tmp_dir("ident-a");
    let db = tmp_dir("ident-b");
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
    record_ring(
        &da,
        SCENARIO,
        build_from_toml,
        Execution::Sequential,
        ring_period(),
        0,
    )
    .expect("record ring a");
    record_ring(
        &db,
        SCENARIO,
        build_from_toml,
        Execution::Sequential,
        ring_period(),
        0,
    )
    .expect("record ring b");
    let ra = Replay::open(&da).expect("open a");
    let rb = Replay::open(&db).expect("open b");
    let report = ra.bisect(&rb).expect("bisect");
    assert!(
        report.divergence.is_none(),
        "identical runs must not diverge"
    );
    assert_eq!(
        report.replays, 2,
        "identical runs need only the fingerprint pass"
    );
    assert_eq!(report.epochs, 12);
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
}

/// Shared harness for the injected-divergence legs: record rings of both
/// scenario texts, bisect, and pin the report against the ground-truth diff
/// of the full logs.
fn assert_bisect_pins(scn_a: &str, scn_b: &str, tag: &str) {
    let da = tmp_dir(&format!("{tag}-a"));
    let db = tmp_dir(&format!("{tag}-b"));
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
    record_ring(
        &da,
        scn_a,
        build_from_toml,
        Execution::Sequential,
        ring_period(),
        0,
    )
    .expect("record ring a");
    record_ring(
        &db,
        scn_b,
        build_from_toml,
        Execution::Sequential,
        ring_period(),
        0,
    )
    .expect("record ring b");
    let ra = Replay::open(&da).expect("open a");
    let rb = Replay::open(&db).expect("open b");
    let report = ra.bisect(&rb).expect("bisect");
    let d = report.divergence.as_ref().unwrap_or_else(|| {
        panic!("{tag}: mutated runs must diverge");
    });

    // Replay budget: within ⌈log2(epochs)⌉ + 1.
    assert!(report.epochs >= 12, "enough epochs for the budget to bind");
    let budget = report.epochs.next_power_of_two().trailing_zeros() as usize + 1;
    assert!(
        report.replays <= budget,
        "{tag}: {} replays exceeds the ⌈log2({})⌉+1 = {budget} budget",
        report.replays,
        report.epochs
    );

    // Exactness: virtual time, component, and both payloads match a direct
    // diff of the full uninterrupted logs.
    let (gt_time, gt_comp, gt_a, gt_b) = ground_truth_divergence(scn_a, scn_b);
    assert_eq!(d.time, gt_time, "{tag}: divergence time");
    assert_eq!(d.component, gt_comp, "{tag}: divergence component");
    assert_eq!(d.a, gt_a, "{tag}: side A entry");
    assert_eq!(d.b, gt_b, "{tag}: side B entry");
    assert_eq!(
        d.epoch as u64,
        gt_time.as_ps() / ring_period().as_ps(),
        "{tag}: pinned epoch contains the divergence time"
    );

    // A live re-run of side B (no ring) pins the same event.
    let live = ra
        .bisect_live(scn_b, build_from_toml)
        .expect("bisect against live re-run");
    assert_eq!(
        live.divergence.as_ref(),
        Some(d),
        "{tag}: ring-vs-live bisect agrees with ring-vs-ring"
    );

    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
}

/// Scenario seed +1: every impairment stream reseeds, the runs drift apart
/// somewhere mid-run, and the bisect pins the exact first divergent event.
#[test]
fn bisect_pins_scenario_seed_divergence() {
    let scn_b = SCENARIO.replace("seed = 1", "seed = 2");
    assert_ne!(SCENARIO, scn_b);
    assert_bisect_pins(SCENARIO, &scn_b, "seed+1");
}

/// One-byte impairment-seed mutation: both sides pin the link's impairment
/// seed explicitly; side B's differs from side A's in exactly one byte
/// (0x05 vs 0x85). The scenario seed is untouched.
#[test]
fn bisect_pins_impairment_seed_mutation() {
    let scn_a = SCENARIO.replace("jitter = \"200ns\"", "jitter = \"200ns\"\nseed = 5");
    let scn_b = SCENARIO.replace("jitter = \"200ns\"", "jitter = \"200ns\"\nseed = 133");
    assert_ne!(scn_a, scn_b);
    assert_bisect_pins(&scn_a, &scn_b, "impair-byte");
}

/// Both sides being live re-runs is rejected: at least one ring supplies the
/// period, end, and snapshots.
#[test]
fn bisect_requires_a_ring() {
    let a = Side::Live {
        scenario: SCENARIO,
        build: build_from_toml,
    };
    let b = Side::Live {
        scenario: SCENARIO,
        build: build_from_toml,
    };
    assert!(simbricks_replay::bisect(&a, &b).is_err());
}

// ---------------------------------------------------------------------------
// Distributed matrix: ring recorded by a 2-process run (per-partition
// snapshots merged by the orchestrator into whole-experiment ring entries),
// replayed locally from every entry.
// ---------------------------------------------------------------------------

fn dist_end_time() -> SimTime {
    SimTime::from_ms(3)
}

/// Dist-aware build shared by the in-process baseline, discovery, the worker
/// processes, and the local replays (server + switch in p0, client in p1).
fn dist_build(_scenario: &str, pb: &mut PartitionBuilder) {
    pb.init(Experiment::new("replay-dist", dist_end_time()).with_logging());
    let eth_params = pb.exp().eth_params();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(
        server_cfg.ip,
        5201,
        5202,
        SimTime::from_ms(1),
        SimTime::from_ms(1),
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

/// Hidden worker entry (see `integration_determinism.rs` for the pattern):
/// spawned worker processes re-enter this test binary here; `maybe_worker`
/// detects the control-socket environment and takes over.
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn replay_dist_worker_entry() {
    dist::maybe_worker(&dist_build);
}

fn dist_opts(scenario: &str) -> DistOptions {
    DistOptions::new(vec!["p0".into(), "p1".into()], scenario).with_worker_args(vec![
        "replay_dist_worker_entry".into(),
        "--exact".into(),
        "--include-ignored".into(),
        "--nocapture".into(),
    ])
}

fn dist_ring_matrix_for(transport: TransportKind) {
    let period = SimTime::from_us(500);
    let baseline = dist::run_local("", &dist_build, Execution::Sequential).merged_log();
    assert!(baseline.len() > 100, "baseline has events");
    let dir = tmp_dir(&format!("dist-{}", transport.to_arg()));
    let _ = std::fs::remove_dir_all(&dir);

    // 2-process recording run: each worker snapshots its partition at every
    // slot; the orchestrator merges them into whole-experiment entries.
    let d = dist::run_distributed(
        &dist_opts("")
            .with_transport(transport)
            .with_checkpoint_ring(period, 0, dir.clone()),
        &dist_build,
    )
    .expect("distributed ring recording run");
    assert_logs_identical(
        &d.merged_log(),
        &baseline,
        &format!("dist-{} recording run", transport.to_arg()),
    );

    // The orchestrator does not know the scenario semantics, so the harness
    // writes the sidecars the replayer needs (simbricks-run does the same).
    RingMeta {
        name: "replay-dist".into(),
        period,
        keep: 0,
        end: dist_end_time(),
    }
    .write_to(&dir)
    .expect("write ring meta");
    std::fs::write(dir.join(RING_SCENARIO_FILE), "").expect("write scenario sidecar");

    let ring = Replay::open_with(&dir, dist_build).expect("open dist ring");
    assert_eq!(ring.entries().len(), 5, "slots at every 500 us below 3 ms");
    for (t, path) in ring.entries() {
        let mut pb = PartitionBuilder::new_local();
        dist_build("", &mut pb);
        let mut exp = pb.into_experiment();
        let at = exp
            .restore(path)
            .expect("restore merged ring entry locally");
        assert_eq!(at, *t);
        let r2 = exp.run(Execution::Sequential);
        assert_logs_identical(
            &r2.merged_log(),
            &baseline,
            &format!("dist-{} replayed from {t}", transport.to_arg()),
        );
    }

    // Seek through the merged entries works like any local ring.
    let t = SimTime::from_us(1250);
    let seeked = ring.seek(t).expect("seek dist ring");
    let mut exp = pb_local_dist();
    exp.freeze_at(t).expect("fresh run paused");
    let fresh = SeekState::capture(&exp, t, SimTime::ZERO).expect("capture");
    assert!(
        seeked.sim_eq(&fresh),
        "dist ring seek equals a fresh paused run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn pb_local_dist() -> Experiment {
    let mut pb = PartitionBuilder::new_local();
    dist_build("", &mut pb);
    pb.into_experiment()
}

/// dist×tcp leg.
#[test]
fn ring_replay_matrix_dist_tcp() {
    dist_ring_matrix_for(TransportKind::Tcp);
}

/// dist×shm leg (skipped on platforms without shared-memory support).
#[test]
fn ring_replay_matrix_dist_shm() {
    if !simbricks::runner::shm_supported() {
        eprintln!("shm transport unsupported on this platform; skipping");
        return;
    }
    dist_ring_matrix_for(TransportKind::Shm);
}
