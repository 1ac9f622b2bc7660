//! From what the child processes measured to the metrics `BENCHMARK.json`
//! declares: the end-to-end figures, the per-layer counts, ratios and the
//! budget, and the comparison of two result files.

use crate::json::Json;
use crate::stats::{self, Summary};
use crate::workloads::{Mode, Topology, Workload};

/// The benchmark's declaration, compiled in so that names, units, bounds and
/// directions have one source.
const DECLARATION: &str = include_str!("../../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Declaration {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    pub fn load() -> Declaration {
        let doc = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
        let text = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{k}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Declared> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| Declared {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Declaration {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(1.0),
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map_or("", |(_, why)| why)
    }
}

fn samples(doc: &Json, group: &str, metric: &str) -> Vec<f64> {
    doc.get(group)
        .and_then(|s| s.get(metric))
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// The end-to-end metrics of one `child measure` document, in declared order.
/// `peak_rss_mb` is one reading per fresh process, so it has a single sample.
pub fn end_to_end<'d>(decl: &'d Declaration, doc: &Json) -> Vec<(&'d Declared, Summary, Vec<f64>)> {
    decl.end_to_end
        .iter()
        .filter_map(|m| {
            let v = match m.name.as_str() {
                "peak_rss_mb" => doc
                    .get("peak_rss_mb")
                    .and_then(Json::as_f64)
                    .into_iter()
                    .collect(),
                name => samples(doc, "samples", name),
            };
            stats::summarize(&v).map(|s| (m, s, v))
        })
        .collect()
}

fn count(counts: &Json, name: &str) -> f64 {
    counts.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric of one workload, in declared order: the unit costs
/// of `layers`, the counts of the traced child's document, and the two
/// multiplied into the budget — the estimated share of the workload's wall
/// that each layer's calls account for, seen from outside the kernel.
pub fn per_layer<'d>(
    decl: &'d Declaration,
    w: &Workload,
    traced: &Json,
    layers: &Json,
) -> Vec<(&'d Declared, f64)> {
    let unit = |name: &str| {
        layers
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let counts = traced.get("counts").cloned().unwrap_or(Json::Null);
    let c = |name: &str| count(&counts, name);
    // The fastest run of each kind: with a handful of runs a side, anything
    // else compares the host's bursts, not the tracer's cost.
    let fastest = |group: &str| {
        samples(traced, group, "wall_s")
            .into_iter()
            .fold(f64::NAN, f64::min)
    };
    let (wall_s, traced_wall_s) = (fastest("untraced"), fastest("traced"));
    let wall_ns = wall_s * 1e9;

    // Budget: count × unit cost. A SYNC costs half a round trip; a data
    // message one send, poll and delivery plus its copy through the ring at
    // the workload's typical size; the netstack row covers TCP segments and
    // UDP datagrams (sent and received); a dist run pays the proxied path
    // for every message that crosses partitions.
    let sync_unit = if w.topology == Topology::FatTree {
        unit("base.sync.sync_roundtrip_hier_ns")
    } else {
        unit("base.sync.sync_roundtrip_ns")
    } / 2.0;
    let channel_unit = unit("base.sync.data_send_poll_ns")
        + if w.topology == Topology::Dctcp {
            unit("base.channel.send_recv_ns.4000") - unit("base.channel.send_recv_ns.64")
        } else {
            0.0
        };
    let segments = c("tcp_rx_bytes") / (4000.0 - 40.0);
    let netstack_ns = segments * unit("netstack.tcp.bulk_ns_per_segment")
        + c("udp_datagrams")
            * (unit("netstack.stack.udp_send_ns") + unit("netstack.stack.handle_frame_udp_ns"));
    let switch_ns = c("switch_forwarded") * unit("netsim.switch.forward_ns")
        + c("switch_flooded") * unit("netsim.switch.flood_ns")
        + c("ecn_marked")
            * (unit("netsim.switch.ecn_mark_ns") - unit("netsim.switch.forward_ns")).max(0.0);
    let transport_ns = c("cross_msgs")
        * match w.mode {
            Mode::Dist(simbricks::runner::TransportKind::Tcp) => unit("runner.proxy.tcp.msg_ns"),
            Mode::Dist(_) => unit("runner.proxy.shm.msg_ns"),
            _ => 0.0,
        };
    let pct = |ns: f64| ratio(ns * 100.0, wall_ns);
    let budget = [
        ("budget.sync_pct", pct(c("syncs_sent") * sync_unit)),
        ("budget.channel_pct", pct(c("data_sent") * channel_unit)),
        ("budget.tcp_pct", pct(netstack_ns)),
        ("budget.switch_pct", pct(switch_ns)),
        ("budget.transport_pct", pct(transport_ns)),
    ];
    let attributed: f64 = budget.iter().map(|b| b.1).sum();

    decl.per_layer
        .iter()
        .map(|m| {
            let name = m.name.as_str();
            let v = if let Some(cname) = name.strip_prefix("count.") {
                c(cname)
            } else if let Some(b) = budget.iter().find(|b| b.0 == name) {
                b.1
            } else {
                match name {
                    "ratio.syncs_per_data" => ratio(c("syncs_sent"), c("data_sent")),
                    "ratio.blocked_polls" => {
                        ratio(c("blocked_polls"), c("blocked_polls") + c("advances"))
                    }
                    "ratio.pool_hit" => ratio(c("pool_hits"), c("pool_hits") + c("pool_misses")),
                    "kernel.ns_per_event" => {
                        ratio(wall_ns, c("msgs_delivered") + c("timers_fired"))
                    }
                    "budget.unattributed_pct" => 100.0 - attributed,
                    "trace.overhead_pct" => ratio((traced_wall_s - wall_s) * 100.0, wall_s),
                    _ => unit(name),
                }
            };
            // A child that measured nothing leaves ratios undefined.
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

/// How one metric of one workload compares between two result files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `new` with `base` against `bound`: worse or better only when the
/// runs' medians differ by more than the bound, and unresolved when either
/// side's own spread is wider than that.
pub fn compare(base: Summary, new: Summary, bound: f64, higher_is_better: bool) -> Verdict {
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = if base.median == 0.0 {
        0.0
    } else {
        (new.median - base.median) / base.median.abs()
    };
    let worsening = if higher_is_better { -change } else { change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// A summary as it is written to, and read back from, a result file.
pub fn summary_json(s: &Summary, samples: &[f64]) -> Json {
    Json::obj([
        ("n", Json::from(s.n)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("spread", Json::Num(s.spread())),
        (
            "samples",
            Json::Arr(samples.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

pub fn summary_from_json(v: &Json) -> Option<Summary> {
    Some(Summary {
        n: v.get("n")?.as_f64()? as usize,
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn flat(v: f64) -> Summary {
        Summary {
            n: 5,
            median: v,
            q1: v,
            q3: v,
        }
    }

    #[test]
    fn declaration_names_the_workloads_and_metrics_the_code_produces() {
        let d = Declaration::load();
        let declared: Vec<&str> = d.workloads.iter().map(|w| w.0.as_str()).collect();
        let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, coded);
        let e2e: Vec<&str> = d.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "wall_ms_per_sim_ms",
                "cpu_ms_per_sim_ms",
                "peak_rss_mb",
                "setup_s"
            ]
        );
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d.per_layer.len() <= 128);
        assert!(d.run_seconds >= 1.0);
    }

    #[test]
    fn bound_comparison_has_four_outcomes() {
        assert_eq!(compare(flat(10.0), flat(10.9), 0.1, false), Verdict::Same);
        assert_eq!(compare(flat(10.0), flat(11.1), 0.1, false), Verdict::Worse);
        assert_eq!(compare(flat(10.0), flat(8.9), 0.1, false), Verdict::Better);
        assert_eq!(compare(flat(10.0), flat(8.9), 0.1, true), Verdict::Worse);
        let wide = Summary {
            n: 5,
            median: 10.0,
            q1: 8.5,
            q3: 10.5,
        };
        assert_eq!(compare(wide, flat(20.0), 0.1, false), Verdict::Unresolved);
        assert_eq!(compare(flat(10.0), wide, 0.1, false), Verdict::Unresolved);
    }

    #[test]
    fn summaries_round_trip_through_a_result_file() {
        let v = [1.0, 2.0, 4.0, 8.0, 16.0];
        let s = stats::summarize(&v).unwrap();
        let text = summary_json(&s, &v).to_pretty();
        assert_eq!(summary_from_json(&Json::parse(&text).unwrap()), Some(s));
    }

    #[test]
    fn per_layer_covers_every_declared_name_and_the_budget_adds_up() {
        let d = Declaration::load();
        let w = crate::workloads::find("dctcp_bulk").unwrap();
        let layers = Json::obj([(
            "metrics",
            Json::obj([
                ("base.sync.sync_roundtrip_ns", Json::Num(40.0)),
                ("base.sync.data_send_poll_ns", Json::Num(50.0)),
                ("netsim.switch.forward_ns", Json::Num(100.0)),
            ]),
        )]);
        let wall = Json::obj([("wall_s", Json::Arr(vec![Json::Num(1e-3)]))]);
        let traced = Json::obj([
            ("untraced", wall.clone()),
            ("traced", wall),
            (
                "counts",
                Json::obj([
                    ("syncs_sent", Json::Num(5000.0)),
                    ("data_sent", Json::Num(2000.0)),
                    ("switch_forwarded", Json::Num(1000.0)),
                ]),
            ),
        ]);
        let rows = per_layer(&d, w, &traced, &layers);
        assert_eq!(rows.len(), d.per_layer.len());
        let get = |n: &str| rows.iter().find(|r| r.0.name == n).unwrap().1;
        assert!((get("budget.sync_pct") - 10.0).abs() < 1e-9);
        assert!((get("budget.channel_pct") - 10.0).abs() < 1e-9);
        assert!((get("budget.switch_pct") - 10.0).abs() < 1e-9);
        assert!((get("budget.unattributed_pct") - 70.0).abs() < 1e-9);
        assert_eq!(get("ratio.syncs_per_data"), 2.5);
        assert_eq!(get("trace.overhead_pct"), 0.0);
    }
}
