//! One run of one scenario document, in this process or as two worker
//! processes, and what the run reports about itself.
//!
//! The simulator is entered only here, through `simbricks::scenario` and
//! `simbricks::runner`; each boundary is wrapped in a span so the traced run
//! can say where a run's wall-clock went.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use simbricks::base::KernelStats;
use simbricks::hostsim::HostModel;
use simbricks::netsim::SwitchBm;
use simbricks::runner::{run_distributed, DistOptions, Execution, PartitionBuilder, TransportKind};
use simbricks::scenario::{build_from_toml, lower, Scenario};

use crate::sys;
use crate::trace::Tracer;

/// Environment variable naming the file dist workers append a time stamp to
/// once their partition is built (set only by the traced run).
pub const ENV_WORKER_STAMPS: &str = "SIMBRICKS_PERF_WORKER_STAMPS";

/// Counters of one switch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwitchCounts {
    pub name: String,
    pub forwarded: u64,
    pub flooded: u64,
    pub dropped: u64,
    pub ecn_marked: u64,
    pub aqm_dropped: u64,
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Simulation wall seconds: `RunResult::wall_seconds`, or the slowest
    /// worker's for a dist run.
    pub wall_s: f64,
    /// Scenario text in hand → first simulated event, in seconds: parse,
    /// validate, lower and build kernels, timed up to the call of
    /// `Experiment::run`. For a dist run, the whole orchestrated call less
    /// `DistResult::wall` (`GO` → last result): discovery, spawn and handshake
    /// to `GO`, plus reaping the workers afterwards, which cannot be told
    /// apart from outside (`runner.dist.teardown_ms` of the traced run says
    /// how much it is).
    pub setup_s: f64,
    /// CPU seconds (user + system, all threads and reaped worker processes)
    /// spent between scenario text in hand and results in hand.
    pub cpu_s: f64,
    /// Largest resident set, in MiB, of any one process so far, read when
    /// the run ended: this process's high-water mark, for a dist run the
    /// larger of that and the largest of any worker reaped.
    pub peak_rss_mb: f64,
    /// Virtual time reached, in picoseconds.
    pub virtual_ps: u64,
    /// Kernel statistics summed over all components.
    pub stats: KernelStats,
    /// Per-switch counters (in-process runs only: worker processes return
    /// kernel statistics and logs, not models).
    pub switches: Vec<SwitchCounts>,
    /// `(host name, app report)` (in-process runs only).
    pub apps: Vec<(String, String)>,
    /// `(fingerprint, entries)` of the merged event log when the document
    /// turned logging on.
    pub log: Option<(u64, u64)>,
    /// Messages of both kinds and directions that crossed the ports of the
    /// component called `core`, if there is one (see `measure::cross_msgs`).
    pub core_msgs: u64,
    /// Dist runs of the traced run: milliseconds from the call to the last
    /// worker having built its partition, and from the last result to the
    /// call returning.
    pub dist_phases_ms: Option<(f64, f64)>,
}

impl Outcome {
    /// Virtual milliseconds reached.
    pub fn sim_ms(&self) -> f64 {
        self.virtual_ps as f64 / 1e9
    }

    pub fn switch_total(&self, f: impl Fn(&SwitchCounts) -> u64) -> u64 {
        self.switches.iter().map(f).sum()
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Run `toml` in this process under `exec`.
pub fn run_inproc(toml: &str, exec: Execution, tr: &mut Tracer) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| run_inproc_inner(toml, exec, tr)))
        .unwrap_or_else(|p| Err(format!("run panicked: {}", panic_text(p))))
}

fn run_inproc_inner(toml: &str, exec: Execution, tr: &mut Tracer) -> Result<Outcome, String> {
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let spec = tr
        .span("scenario.parse", |_| Scenario::from_toml_str(toml))
        .map_err(|e| format!("scenario: {e}"))?;
    let mut pb = PartitionBuilder::new_local();
    let low = tr.span("scenario.lower", |_| lower(&spec, &mut pb));
    let exp = tr.span("runner.build", |_| pb.into_experiment());
    let setup_s = t0.elapsed().as_secs_f64();
    let r = tr.span("runner.run", |_| exp.run(exec));
    let mut out = tr.span("result.collect", |_| -> Result<Outcome, String> {
        let mut out = Outcome {
            wall_s: r.wall_seconds(),
            setup_s,
            virtual_ps: r.virtual_time.as_ps(),
            stats: r.total_stats(),
            core_msgs: r.stats_of("core").map_or(0, |s| s.total_messages()),
            ..Outcome::default()
        };
        for (name, id) in &low.hosts {
            let h: &HostModel = r.model(*id).ok_or(format!("host {name} has no model"))?;
            out.apps.push((name.clone(), h.app_report()));
        }
        for (name, id) in &low.switches {
            let sw: &SwitchBm = r.model(*id).ok_or(format!("switch {name} has no model"))?;
            let st = sw.stats();
            out.switches.push(SwitchCounts {
                name: name.clone(),
                forwarded: st.forwarded,
                flooded: st.flooded,
                dropped: st.dropped,
                ecn_marked: st.ecn_marked,
                aqm_dropped: st.aqm_dropped,
            });
        }
        if spec.log {
            let log = r.merged_log();
            out.log = Some((log.fingerprint(), log.len() as u64));
        }
        Ok(out)
    })?;
    out.cpu_s = (sys::cpu_time() - cpu0).as_secs_f64();
    out.peak_rss_mb = sys::own_peak_rss_mb();
    Ok(out)
}

/// Run `toml` as one worker process per partition over `transport`.
pub fn run_dist(
    toml: &str,
    partitions: Vec<String>,
    transport: TransportKind,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let stamps = tr
        .enabled()
        .then(|| std::env::var_os(ENV_WORKER_STAMPS))
        .flatten();
    if let Some(path) = &stamps {
        let _ = std::fs::remove_file(path);
    }
    let cpu0 = sys::cpu_time();
    let (mark0, epoch0) = (tr.now_mark(), sys::epoch_ns());
    let t0 = Instant::now();
    let opts = DistOptions::new(partitions, toml).with_transport(transport);
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_distributed(&opts, &build_from_toml)
    }))
    .map_err(|p| format!("orchestrator panicked: {}", panic_text(p)))?
    .map_err(|e| format!("dist: {e}"))?;
    let total = t0.elapsed();
    let stats = r.total_stats();
    let mut out = Outcome {
        wall_s: r.max_partition_wall(),
        setup_s: total.saturating_sub(r.wall).as_secs_f64(),
        cpu_s: (sys::cpu_time() - cpu0).as_secs_f64(),
        peak_rss_mb: sys::own_peak_rss_mb().max(sys::children_peak_rss_mb()),
        virtual_ps: stats.final_time.as_ps(),
        stats,
        core_msgs: r
            .component_names
            .iter()
            .position(|n| n == "core")
            .map_or(0, |i| r.stats[i].total_messages()),
        ..Outcome::default()
    };
    if r.logs.iter().any(|l| !l.is_empty()) {
        let log = r.merged_log();
        out.log = Some((log.fingerprint(), log.len() as u64));
    }
    // Place the three phases of the orchestrated run on the tracer's clock:
    // every worker stamps the moment its partition is built, just before it
    // reports READY, so the latest stamp is when GO went out.
    let built_ns = stamps
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|s| s.lines().filter_map(|l| l.parse::<u128>().ok()).max())
        .map(|ns| ns.saturating_sub(epoch0) as u64);
    if let Some(go) = built_ns {
        let total_ns = total.as_nanos() as u64;
        let run_end = (go + r.wall.as_nanos() as u64).min(total_ns);
        tr.span_at("dist.spawn_handshake", mark0, mark0 + go);
        tr.span_at("dist.run", mark0 + go, mark0 + run_end);
        tr.span_at("dist.teardown", mark0 + run_end, mark0 + total_ns);
        out.dist_phases_ms = Some((go as f64 / 1e6, (total_ns - run_end) as f64 / 1e6));
    }
    Ok(out)
}

/// The build function of dist workers: lower the document, then leave a time
/// stamp if the traced run asked for one.
pub fn worker_build(scenario: &str, pb: &mut PartitionBuilder) {
    build_from_toml(scenario, pb);
    if let Some(path) = std::env::var_os(ENV_WORKER_STAMPS) {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{}", sys::epoch_ns());
        }
    }
}
