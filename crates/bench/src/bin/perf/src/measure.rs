//! What runs inside the fresh child process of one workload: two untimed
//! warm-ups, the timed repeats with event logging off, then the logged runs
//! that give the fingerprint and the reference every check compares with.

use std::path::Path;
use std::time::Instant;

use simbricks::runner::Execution;

use crate::checks;
use crate::json::Json;
use crate::layers::Drivers;
use crate::simrun::{self, Outcome};
use crate::trace::{self, Tracer};
use crate::workloads::{Mode, Topology, Workload};

/// Untimed runs before the timed repeats: the allocator takes a couple of
/// build-and-free rounds to settle on reusing the ring memory, and until it
/// has, set-up times fall from run to run.
const WARM_UPS: usize = 2;
/// Most timed repeats of one run, however short they are.
const MAX_REPEATS: usize = 64;
/// Untraced/traced pairs of the traced run. The tracer does nothing inside
/// `runner.run`, so `trace.overhead_pct` shows how closely the host lets the
/// fastest run of each side repeat; five pairs came no closer than three.
const TRACE_PAIRS: usize = 3;

fn run_in_mode(w: &Workload, text: &str, tr: &mut Tracer) -> Result<Outcome, String> {
    match w.mode {
        Mode::Sequential => simrun::run_inproc(text, Execution::Sequential, tr),
        Mode::Sharded => simrun::run_inproc(text, Execution::Sharded { workers: 2 }, tr),
        Mode::Dist(transport) => simrun::run_dist(text, w.partitions(), transport, tr),
    }
}

/// Runs made and runs failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one run; it failed if `problems` names any.
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Count one run that fails only by erroring.
    fn run(&mut self, what: &str, result: Result<Outcome, String>) -> Option<Outcome> {
        self.run_checked(what, result, |_| Vec::new())
    }

    /// Count one run that fails by erroring or by what `check` finds.
    fn run_checked(
        &mut self,
        what: &str,
        result: Result<Outcome, String>,
        check: impl FnOnce(&Outcome) -> Vec<String>,
    ) -> Option<Outcome> {
        let problems = match &result {
            Ok(out) => check(out),
            Err(e) => vec![e.clone()],
        };
        self.record(what, problems);
        result.ok()
    }

    fn json(&self) -> [(&'static str, Json); 3] {
        [
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ]
    }
}

/// The sequential in-process run of the logged document: the reference of
/// checks (i) and (ii), judged itself by check (iii).
fn reference_run(w: &Workload, seed: u64, virtual_us: u64, tally: &mut Tally) -> Option<Outcome> {
    let logged = w.toml(seed, virtual_us, true);
    let mut quiet = Tracer::new(false, w.name);
    tally.run_checked(
        "reference run",
        simrun::run_inproc(&logged, Execution::Sequential, &mut quiet),
        |out| checks::behaviour(w, virtual_us, out),
    )
}

/// Counts of one workload: kernel counters of `run` (the workload's own
/// mode), switch and application counters of `reference` (worker processes
/// return no models, and the fingerprint check ties the two together).
fn counts_json(w: &Workload, run: &Outcome, reference: &Outcome) -> Json {
    let mut m: Vec<(String, Json)> = checks::kernel_counts(&run.stats)
        .into_iter()
        .map(|(name, v, _)| (name.to_string(), Json::from(v)))
        .collect();
    let app_sum = |key: &str| -> u64 {
        let sum: f64 = reference
            .apps
            .iter()
            .filter_map(|(_, r)| checks::field(r, key))
            .sum();
        sum as u64
    };
    m.extend([
        (
            "switch_forwarded".into(),
            Json::from(reference.switch_total(|s| s.forwarded)),
        ),
        (
            "switch_flooded".into(),
            Json::from(reference.switch_total(|s| s.flooded)),
        ),
        (
            "switch_dropped".into(),
            Json::from(reference.switch_total(|s| s.dropped)),
        ),
        (
            "ecn_marked".into(),
            Json::from(reference.switch_total(|s| s.ecn_marked)),
        ),
        (
            "log_entries".into(),
            Json::from(reference.log.map_or(0, |l| l.1)),
        ),
        ("tcp_rx_bytes".into(), Json::from(app_sum("rx_bytes="))),
        (
            "udp_datagrams".into(),
            Json::from(app_sum("datagrams=") + 2 * app_sum("completed=")),
        ),
        ("cross_msgs".into(), Json::from(cross_msgs(w, run))),
    ]);
    Json::Obj(m)
}

/// Messages that crossed the partition boundary of a dist run: the core
/// switch has two uplinks, one local and one to the other partition, and
/// the racks are alike, so half of what crossed its ports crossed processes.
fn cross_msgs(w: &Workload, run: &Outcome) -> u64 {
    match (w.mode, w.topology) {
        (Mode::Dist(_), Topology::Racks) => run.core_msgs / 2,
        _ => 0,
    }
}

fn samples_json(runs: &[Outcome]) -> Json {
    let col =
        |f: &dyn Fn(&Outcome) -> f64| Json::Arr(runs.iter().map(|o| Json::Num(f(o))).collect());
    Json::obj([
        (
            "wall_ms_per_sim_ms",
            col(&|o| o.wall_s * 1000.0 / o.sim_ms()),
        ),
        ("cpu_ms_per_sim_ms", col(&|o| o.cpu_s * 1000.0 / o.sim_ms())),
        ("setup_s", col(&|o| o.setup_s)),
        ("wall_s", col(&|o| o.wall_s)),
    ])
}

fn header(w: &Workload, seed: u64, virtual_us: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::from(seed)),
        ("virtual_us", Json::from(virtual_us)),
    ]
}

/// The end-to-end measurement of `w`: tracing off throughout.
pub fn measure(w: &Workload, seed: u64, seconds: f64, virtual_us: u64, min_repeats: usize) -> Json {
    let mut tally = Tally::default();
    let mut quiet = Tracer::new(false, w.name);
    let text = w.toml(seed, virtual_us, false);

    // Peak memory is read after the first run of this fresh process: what
    // one run of the scenario needs, as a user would run it. The high-water
    // mark keeps growing with further runs (the fat-tree's from 0.4 to
    // 1.5 GiB over fifteen), so a later reading would depend on how many
    // repeats fit the time.
    let mut peak_rss_mb = None;
    for _ in 0..WARM_UPS {
        let out = tally.run("warm-up", run_in_mode(w, &text, &mut quiet));
        peak_rss_mb = peak_rss_mb.or(out.map(|o| o.peak_rss_mb));
    }
    let mut runs: Vec<Outcome> = Vec::new();
    let mut errors = 0;
    let started = Instant::now();
    while errors < 3
        && (runs.len() < min_repeats
            || (started.elapsed().as_secs_f64() < seconds && runs.len() < MAX_REPEATS))
    {
        match run_in_mode(w, &text, &mut quiet) {
            Ok(out) => runs.push(out),
            Err(e) => {
                errors += 1;
                tally.record("timed repeat", vec![e]);
            }
        }
    }
    let reference = reference_run(w, seed, virtual_us, &mut tally);
    let mut fingerprint = reference.as_ref().and_then(|r| r.log);
    if let (false, Some(reference)) = (w.is_sequential(), &reference) {
        // Check (ii): the same logged document in this workload's own mode.
        let logged = w.toml(seed, virtual_us, true);
        let own = tally.run_checked("logged run", run_in_mode(w, &logged, &mut quiet), |out| {
            if out.log == reference.log {
                Vec::new()
            } else {
                vec![format!(
                    "fingerprint {:x?} differs from the sequential in-process {:x?}",
                    out.log, reference.log
                )]
            }
        });
        fingerprint = own.and_then(|o| o.log);
    }
    // Check (i), once the reference exists: a repeat whose counts differ
    // from it is a failed run.
    for (i, out) in runs.iter().enumerate() {
        let problems = reference
            .as_ref()
            .map_or_else(Vec::new, |r| checks::counts_match(w, r, out));
        tally.record(&format!("repeat {i}"), problems);
    }

    let mut doc = header(w, seed, virtual_us);
    doc.extend(tally.json());
    doc.extend([
        ("repeats", Json::from(runs.len())),
        ("samples", samples_json(&runs)),
        ("peak_rss_mb", peak_rss_mb.map_or(Json::Null, Json::Num)),
        (
            "fingerprint",
            fingerprint.map_or(Json::Null, |(fp, _)| Json::str(format!("{fp:#018x}"))),
        ),
        (
            "counts",
            match (runs.last(), &reference) {
                (Some(run), Some(r)) => counts_json(w, run, r),
                _ => Json::Null,
            },
        ),
    ]);
    Json::obj(doc)
}

/// The traced run of `w`: untraced and traced runs in turn, whose difference
/// is the tracing overhead, plus the workload's counts for the budget.
pub fn traced(w: &Workload, seed: u64, virtual_us: u64, stamps: &Path) -> Json {
    std::env::set_var(simrun::ENV_WORKER_STAMPS, stamps);
    let mut tally = Tally::default();
    let mut quiet = Tracer::new(false, w.name);
    let mut tracer = Tracer::new(true, w.name);
    let text = w.toml(seed, virtual_us, false);

    tally.run("warm-up", run_in_mode(w, &text, &mut quiet));
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        plain.extend(tally.run("untraced run", run_in_mode(w, &text, &mut quiet)));
        let out = tracer.span("workload", |tr| run_in_mode(w, &text, tr));
        spanned.extend(tally.run("traced run", out));
    }
    let reference = reference_run(w, seed, virtual_us, &mut tally);
    let _ = std::fs::remove_file(stamps);

    let mut doc = header(w, seed, virtual_us);
    doc.extend(tally.json());
    doc.extend([
        ("untraced", samples_json(&plain)),
        ("traced", samples_json(&spanned)),
        (
            "counts",
            match (plain.last(), &reference) {
                (Some(run), Some(r)) => counts_json(w, run, r),
                _ => Json::Null,
            },
        ),
        ("spans", trace::to_json(tracer.spans())),
    ]);
    Json::obj(doc)
}

/// The layer drivers: every unit cost, each batch a span.
pub fn layers(seed: u64, tmp: &Path) -> Json {
    std::env::set_var(simrun::ENV_WORKER_STAMPS, tmp.join("layer-stamps"));
    let mut tracer = Tracer::new(true, "layers");
    let mut drivers = Drivers::new(&mut tracer, seed, tmp);
    let result = drivers.run_all();
    let metrics: Vec<(String, Json)> = drivers
        .out
        .iter()
        .map(|(name, value)| (name.to_string(), Json::Num(*value)))
        .collect();
    let _ = std::fs::remove_file(tmp.join("layer-stamps"));
    Json::obj([
        ("attempted", Json::from(1u64)),
        ("failed", Json::from(result.is_err() as u64)),
        (
            "failures",
            Json::Arr(result.err().into_iter().map(Json::str).collect()),
        ),
        ("metrics", Json::Obj(metrics)),
        ("spans", trace::to_json(tracer.spans())),
    ])
}
