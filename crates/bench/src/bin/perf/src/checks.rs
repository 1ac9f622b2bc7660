//! What decides `failed_runs`: the simulated results must be right before a
//! timing of them means anything.
//!
//! (i) counts of every timed repeat equal the reference run's, (ii) the
//! fingerprint of a sharded or dist run equals the sequential in-process
//! one, (iii) behavioural floors hold on the reference run. Check (iv), no
//! process or region file left behind, is made by the parent process.

use simbricks::base::KernelStats;

use crate::simrun::Outcome;
use crate::workloads::{is_client, Topology, Workload, END_MARGIN_US};

/// Aggregate goodput the two DCTCP flows must reach over the 10 G bottleneck.
const DCTCP_MIN_GOODPUT_GBPS: f64 = 9.0;
/// Requests every memaslap client must complete per virtual millisecond.
const MEMASLAP_MIN_REQ_PER_MS: f64 = 50.0;
/// Share of offered UDP datagrams that must be sent, and of sent that must
/// be delivered.
const UDP_MIN_SHARE: f64 = 0.95;

/// Datagrams per virtual millisecond the UDP clients of a topology offer in
/// total: 1 Gbps, and 32 flows of 50 Mbps, in 800 B payloads. Stated here
/// and not derived from the generator, so that a document edited to offer
/// less fails the floor instead of lowering it.
fn udp_offered_per_ms(topology: Topology) -> Option<f64> {
    match topology {
        Topology::ScaleUp => Some(156.25),
        Topology::FatTree => Some(250.0),
        Topology::Dctcp | Topology::Racks => None,
    }
}

/// The number after `key=` in an app report, up to the first character that
/// cannot be part of one.
pub fn field(report: &str, key: &str) -> Option<f64> {
    let rest = report
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key))?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What the clients of a topology count as progress, read from a report.
fn client_progress(topology: Topology, report: &str) -> f64 {
    let key = match topology {
        Topology::ScaleUp | Topology::FatTree => "sent=",
        Topology::Dctcp => "tx_bytes=",
        Topology::Racks => "completed=",
    };
    field(report, key).unwrap_or(0.0)
}

/// Check (iii) on the reference run of `w`. The rate floors apply only at
/// the declared duration: a `--smoke` run is too short to leave slow start.
pub fn behaviour(w: &Workload, virtual_us: u64, out: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    let expect_ps = (virtual_us + END_MARGIN_US) * 1_000_000;
    if out.virtual_ps != expect_ps {
        bad.push(format!(
            "virtual time reached {} ps, declared {expect_ps} ps",
            out.virtual_ps
        ));
    }
    let clients: Vec<&(String, String)> = out
        .apps
        .iter()
        .filter(|(h, _)| is_client(w.topology, h))
        .collect();
    if clients.is_empty() {
        bad.push("no client reports".into());
    }
    for (host, report) in &clients {
        if client_progress(w.topology, report) <= 0.0 {
            bad.push(format!("client {host} made no progress: {report}"));
        }
    }
    if virtual_us != w.virtual_us {
        return bad;
    }
    let virtual_ms = virtual_us as f64 / 1000.0;
    if let Some(per_ms) = udp_offered_per_ms(w.topology) {
        let offered = per_ms * virtual_ms;
        let sent: f64 = clients
            .iter()
            .map(|(_, r)| client_progress(w.topology, r))
            .sum();
        let delivered: f64 = out
            .apps
            .iter()
            .filter_map(|(_, r)| field(r, "datagrams="))
            .sum();
        if sent < UDP_MIN_SHARE * offered {
            bad.push(format!(
                "UDP clients sent {sent} of {offered:.0} datagrams offered"
            ));
        }
        if delivered < UDP_MIN_SHARE * sent {
            bad.push(format!(
                "UDP delivered {delivered} of {sent} datagrams sent"
            ));
        }
    }
    match w.topology {
        Topology::Dctcp => {
            let goodput: f64 = out
                .apps
                .iter()
                .filter(|(h, _)| !is_client(w.topology, h))
                .filter_map(|(_, r)| field(r, "goodput="))
                .sum();
            if goodput < DCTCP_MIN_GOODPUT_GBPS {
                bad.push(format!(
                    "aggregate goodput {goodput:.3} Gbps below {DCTCP_MIN_GOODPUT_GBPS}"
                ));
            }
            let marked = out
                .switches
                .iter()
                .find(|s| s.name == "switch-clients")
                .map_or(0, |s| s.ecn_marked);
            if marked == 0 {
                bad.push("bottleneck switch marked no packet".into());
            }
            let dropped = out.switch_total(|s| s.dropped);
            if dropped != 0 {
                bad.push(format!("{dropped} tail drops"));
            }
        }
        Topology::Racks => {
            let floor = MEMASLAP_MIN_REQ_PER_MS * virtual_ms;
            for (host, report) in &clients {
                let done = client_progress(w.topology, report);
                if done < floor {
                    bad.push(format!(
                        "client {host} completed {done} requests, floor {floor}"
                    ));
                }
            }
        }
        Topology::ScaleUp | Topology::FatTree => {}
    }
    bad
}

/// The counters of `KernelStats` by the names the benchmark reports them
/// under; `exact` is false for those that depend on how steps interleave.
pub fn kernel_counts(s: &KernelStats) -> [(&'static str, u64, bool); 12] {
    [
        ("msgs_delivered", s.msgs_delivered, true),
        ("timers_fired", s.timers_fired, true),
        ("advances", s.advances, false),
        ("blocked_polls", s.blocked_polls, false),
        ("data_sent", s.data_sent, true),
        ("syncs_sent", s.syncs_sent, false),
        ("syncs_suppressed", s.syncs_suppressed, false),
        ("syncs_coalesced", s.syncs_coalesced, false),
        ("backpressured", s.backpressured, false),
        ("pool_hits", s.pool_hits, false),
        ("pool_misses", s.pool_misses, false),
        ("pool_fallbacks", s.pool_fallbacks, false),
    ]
}

/// Check (i): `run` against `reference`. Under the sequential executor every
/// count must repeat; otherwise only those that do not depend on the
/// interleaving of threads or processes.
pub fn counts_match(w: &Workload, reference: &Outcome, run: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    if run.virtual_ps != reference.virtual_ps {
        bad.push(format!(
            "virtual time {} ps, reference {} ps",
            run.virtual_ps, reference.virtual_ps
        ));
    }
    let all = w.is_sequential();
    for ((name, got, exact), (_, want, _)) in kernel_counts(&run.stats)
        .into_iter()
        .zip(kernel_counts(&reference.stats))
    {
        if (all || exact) && got != want {
            bad.push(format!("{name} = {got}, reference {want}"));
        }
    }
    // Worker processes return no models, so a dist run has neither list.
    if !run.apps.is_empty() && run.apps != reference.apps {
        bad.push("app reports differ from the reference run's".into());
    }
    if !run.switches.is_empty() && run.switches != reference.switches {
        bad.push("switch counters differ from the reference run's".into());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn report_fields_parse_with_and_without_units() {
        let r = "iperf-server rx_bytes=123456 goodput=4.812Gbps";
        assert_eq!(field(r, "rx_bytes="), Some(123456.0));
        assert_eq!(field(r, "goodput="), Some(4.812));
        assert_eq!(field(r, "missing="), None);
        assert_eq!(
            field("memaslap completed=2100 tput=52500req/s", "tput="),
            Some(52500.0)
        );
    }

    #[test]
    fn a_halved_load_fails_the_floors() {
        let w = workloads::find("racks_inproc").unwrap();
        let client = |n: u64| {
            (
                "r0h4".to_string(),
                format!("memaslap completed={n} tput=1req/s"),
            )
        };
        let full = (MEMASLAP_MIN_REQ_PER_MS * w.virtual_us as f64 / 1000.0) as u64 + 10;
        let mut out = Outcome {
            virtual_ps: (w.virtual_us + END_MARGIN_US) * 1_000_000,
            apps: vec![client(full)],
            ..Outcome::default()
        };
        assert_eq!(behaviour(w, w.virtual_us, &out), Vec::<String>::new());
        out.apps = vec![client(full / 2)];
        assert_eq!(behaviour(w, w.virtual_us, &out).len(), 1);
        // A smoke run is held to progress only.
        assert!(behaviour(
            w,
            2000,
            &Outcome {
                virtual_ps: 3_000_000_000,
                ..out
            }
        )
        .is_empty());
    }

    #[test]
    fn count_comparison_respects_the_execution_mode() {
        let seq = workloads::find("scaleup_udp").unwrap();
        let sharded = workloads::find("scaleup_udp_sharded").unwrap();
        let reference = Outcome::default();
        let mut run = Outcome::default();
        run.stats.blocked_polls = 5;
        assert_eq!(counts_match(seq, &reference, &run).len(), 1);
        assert!(counts_match(sharded, &reference, &run).is_empty());
        run.stats.data_sent = 1;
        assert_eq!(counts_match(sharded, &reference, &run).len(), 1);
    }
}
