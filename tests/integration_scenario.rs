//! Declarative-scenario determinism matrix: one TOML document with an
//! impaired link and a CoDel egress queue must produce bit-identical merged
//! event logs across every executor (sequential, sharded with any worker
//! count), across true multi-process distributed runs over both transports,
//! and across checkpoint/restore — while remaining sensitive to the master
//! seed. Also proves the scenario lowering reproduces the event log of the
//! hand-rolled harness style it replaced, bit for bit.

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::hostsim::{HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::dist::{self, DistOptions, PartitionBuilder};
use simbricks::runner::{attach_host_nic, write_blob, Execution, Experiment, TransportKind};
use simbricks::scenario::{build_from_toml, lower, Scenario};
use simbricks::SimTime;

/// The matrix workload: a TCP pair through a switch, the client link runs a
/// Bernoulli-loss + jitter + reordering impairment into a CoDel egress
/// queue. Two partitions so the same text drives the distributed runs.
const IMPAIRED_CODEL: &str = r#"
[scenario]
name = "impaired-codel"
duration = "400us"
log = true

[[host]]
name = "s0"
kind = "gem5_timing"
partition = "w0"

[host.app]
type = "iperf_tcp_server"

[[host]]
name = "c0"
kind = "gem5_timing"
partition = "w1"

[host.app]
type = "iperf_tcp_client"
server = "s0"

[[switch]]
name = "sw"
partition = "w0"

[[link]]
name = "srv"
a = "s0"
b = "sw"

[[link]]
name = "cli"
a = "c0"
b = "sw"

[link.impairment]
loss = "bernoulli"
loss_permille = 20
jitter = "200ns"
reorder_permille = 10

[link.aqm]
type = "codel"
target = "5us"
interval = "100us"
"#;

fn run_inproc(text: &str, exec: Execution) -> (u64, usize) {
    let r = dist::run_local(text, &build_from_toml, exec);
    let log = r.merged_log();
    (log.fingerprint(), log.len())
}

#[test]
fn impaired_codel_scenario_is_executor_invariant_and_seed_sensitive() {
    let (f_seq, n_seq) = run_inproc(IMPAIRED_CODEL, Execution::Sequential);
    assert!(n_seq > 100, "logs actually contain events ({n_seq})");

    // Same seed, repeated run: bit-identical.
    let (f_again, n_again) = run_inproc(IMPAIRED_CODEL, Execution::Sequential);
    assert_eq!((f_seq, n_seq), (f_again, n_again), "repeat run identical");

    // Every sharded worker count reproduces the sequential log.
    for workers in [1usize, 2, 4] {
        let (f_sh, n_sh) = run_inproc(IMPAIRED_CODEL, Execution::Sharded { workers });
        assert_eq!(
            (f_seq, n_seq),
            (f_sh, n_sh),
            "sharded ({workers} workers) matches sequential"
        );
    }

    // A different master seed steers the impairment and AQM streams.
    let reseeded = IMPAIRED_CODEL.replace("log = true", "log = true\nseed = 7");
    let (f_re, _) = run_inproc(&reseeded, Execution::Sequential);
    assert_ne!(
        f_seq, f_re,
        "seed change must alter the impaired event stream"
    );
}

#[test]
fn impaired_codel_scenario_survives_checkpoint_restore() {
    let build = || {
        let spec = Scenario::from_toml_str(IMPAIRED_CODEL).expect("fixture parses");
        let mut pb = PartitionBuilder::new_local();
        lower(&spec, &mut pb);
        pb.into_experiment()
    };
    let r_full = build().run(Execution::Sequential);
    let full = r_full.merged_log();
    assert!(
        full.len() > 100,
        "logs actually contain events ({})",
        full.len()
    );

    let path = std::env::temp_dir().join(format!("scenario-ckpt-{}.ckpt", std::process::id()));
    let mut exp = build();
    exp.checkpoint_at(SimTime::from_us(150));
    let r_ck = exp.run(Execution::Sequential);
    write_blob(&path, &r_ck.ring[0].1).expect("write checkpoint");
    let ck = r_ck.merged_log();
    assert_eq!(
        (full.fingerprint(), full.len()),
        (ck.fingerprint(), ck.len()),
        "checkpointing run diverged"
    );

    let mut exp = build();
    let at = exp.restore(&path).expect("restore checkpoint");
    assert_eq!(at, SimTime::from_us(150));
    let r_re = exp.run(Execution::Sequential);
    let re = r_re.merged_log();
    assert_eq!(
        (full.fingerprint(), full.len()),
        (re.fingerprint(), re.len()),
        "restored run diverged"
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Distributed matrix: the TOML text itself is the scenario string, so the
// worker processes rebuild their partition from the identical document.
// ---------------------------------------------------------------------------

/// Hidden worker entry re-entered by `dist::run_distributed` worker
/// subprocesses; a no-op without the control-socket environment.
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn dist_worker_entry() {
    dist::maybe_worker(&build_from_toml);
}

fn assert_dist_matches(transport: TransportKind) {
    let spec = Scenario::from_toml_str(IMPAIRED_CODEL).expect("fixture parses");
    let local = dist::run_local(IMPAIRED_CODEL, &build_from_toml, Execution::Sequential);
    let merged = local.merged_log();
    assert!(
        merged.len() > 100,
        "logs actually contain events ({})",
        merged.len()
    );

    let opts = DistOptions::new(spec.partitions(), IMPAIRED_CODEL)
        .with_transport(transport)
        .with_worker_args(vec![
            "dist_worker_entry".into(),
            "--exact".into(),
            "--include-ignored".into(),
            "--nocapture".into(),
        ]);
    let dist = dist::run_distributed(&opts, &build_from_toml).expect("distributed run");
    assert_eq!(
        dist.component_names, local.component_names,
        "components reassembled in global build order"
    );
    let dist_merged = dist.merged_log();
    assert_eq!(
        (merged.fingerprint(), merged.len()),
        (dist_merged.fingerprint(), dist_merged.len()),
        "distributed ({}) and in-process logs bit-identical",
        transport.to_arg()
    );
}

#[test]
fn impaired_codel_scenario_dist_tcp_matches_sequential() {
    assert_dist_matches(TransportKind::Tcp);
}

#[test]
fn impaired_codel_scenario_dist_shm_matches_sequential() {
    assert_dist_matches(TransportKind::Shm);
}

// ---------------------------------------------------------------------------
// Equivalence: the scenario lowering reproduces a hand-rolled harness build
// bit for bit — same component names, same event log — even though the
// hand-rolled style creates each host's PCIe channel before its Ethernet
// channel while the lowering creates them in the opposite order (channel
// creation order affects internal connection ids only, never the log).
// ---------------------------------------------------------------------------

#[test]
fn scenario_lowering_matches_hand_rolled_build() {
    let stream = SimTime::from_ms(2);
    let rr = SimTime::from_ms(2);

    // Hand-rolled, the way every harness was written before the scenario
    // layer (free-function attach_host_nic on a bare Experiment).
    let mut exp =
        Experiment::new("sec76-netperf", stream + rr + SimTime::from_ms(2)).with_logging();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(server_cfg.ip, 5201, 5202, stream, rr));
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
    let hand = exp.run(Execution::Sequential);
    let hand_log = hand.merged_log();
    assert!(
        hand_log.len() > 100,
        "logs actually contain events ({})",
        hand_log.len()
    );

    // The same topology as a scenario document.
    let toml = r#"
[scenario]
name = "sec76-netperf"
duration = "4ms"
end_margin = "2ms"
log = true

[[host]]
name = "server"
kind = "gem5_timing"

[host.app]
type = "netperf_server"

[[host]]
name = "client"
kind = "gem5_timing"

[host.app]
type = "netperf_client"
server = "server"
stream_duration = "2ms"
rr_duration = "2ms"

[[switch]]
name = "switch"

[[link]]
name = "eth-server"
a = "server"
b = "switch"

[[link]]
name = "eth-client"
a = "client"
b = "switch"
"#;
    let scen = dist::run_local(toml, &build_from_toml, Execution::Sequential);
    assert_eq!(scen.component_names, hand.component_names);
    let scen_log = scen.merged_log();
    assert_eq!(
        (hand_log.fingerprint(), hand_log.len()),
        (scen_log.fingerprint(), scen_log.len()),
        "scenario lowering reproduces the hand-rolled event log bit for bit"
    );
}
