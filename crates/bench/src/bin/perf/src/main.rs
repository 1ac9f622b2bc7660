//! `perf` — the repository's benchmark (declared by `BENCHMARK.json`).
//!
//! ```text
//! perf list                                   every workload and metric
//! perf run   [--workload W] [--seed S] [--seconds T] [--out FILE] [--smoke]
//!                                             measure end to end; non-zero exit if a check fails
//! perf trace [--workload W] [--seed S] [--out trace.json]
//!                                             the traced run: spans, unit costs, budget
//! perf check A.json B.json                    compare two result files by the bounds
//! perf bench --workload W --seed S --seconds T --trace 0|1
//!                                             one workload, one JSON line (the driver's form)
//! ```
//!
//! See `README.md` beside this package for what each number means.

// Reading the wall clock is this program's job; the workspace bans it (and
// hash-ordered containers) for code on the simulation path only.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod checks;
mod child;
mod json;
mod layers;
mod measure;
mod report;
mod simrun;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use report::{Declaration, Declared, Verdict};
use workloads::{Workload, SMOKE_VIRTUAL_US, WORKLOADS};

/// Time allowed to the layer drivers' child process (it needs about 10 s).
const LAYERS_LIMIT: Duration = Duration::from_secs(60);
/// No measuring or traced child may run longer than these, whatever its
/// reference wall: the driver allows a whole `perf bench` call 180 s, and
/// the traced form runs the layer drivers first.
const MEASURE_CAP: Duration = Duration::from_secs(150);
const TRACED_CAP: Duration = Duration::from_secs(100);

/// Command-line options of the subcommands a user types.
#[derive(Default)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{a}: `{v}` is not a number"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = number(value()?)? as u64,
            "--seconds" => o.seconds = Some(number(value()?)?),
            "--trace" => o.trace = number(value()?)? != 0.0,
            "--out" => o.out = Some(value()?.into()),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn selected(o: &Opts) -> Result<Vec<&'static Workload>, String> {
    match &o.workload {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => workloads::find(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", names.join(", "))
        }),
    }
}

fn main() -> ExitCode {
    // Dist workers are this executable started again by the orchestrator.
    simbricks::runner::maybe_worker(&simrun::worker_build);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    let result = match cmd {
        // What a parent process of this program starts; not for users.
        "child" => cmd_child(rest),
        _ => parse_opts(rest).and_then(|o| run_command(cmd, &o)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_command(cmd: &str, o: &Opts) -> Result<ExitCode, String> {
    match cmd {
        "list" => Ok(cmd_list()),
        "run" => cmd_run(o),
        "trace" => cmd_trace(o),
        "check" => cmd_check(o),
        "bench" => cmd_bench(o),
        _ => Err(
            "usage: perf list | run | trace | check A.json B.json | bench \
                  (see the head of src/main.rs or README.md)"
                .into(),
        ),
    }
}

// ---------------------------------------------------------------------------
// list
// ---------------------------------------------------------------------------

fn direction(higher: bool) -> &'static str {
    if higher {
        "higher is better"
    } else {
        "lower is better"
    }
}

fn cmd_list() -> ExitCode {
    let d = Declaration::load();
    println!("workloads (closed loop, one simulation at a time):");
    for w in &WORKLOADS {
        println!(
            "  {:<20} {:>6} us virtual, {:?}, >= {} repeats\n  {:<20} {}",
            w.name,
            w.virtual_us,
            w.mode,
            w.min_repeats,
            "",
            d.why(w.name)
        );
    }
    println!("\nend-to-end metrics (per workload, median of the timed repeats):");
    for m in &d.end_to_end {
        println!(
            "  {:<36} {:<8} {}, may worsen by {:.0} %",
            m.name,
            m.unit,
            direction(m.higher_is_better),
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!(
        "  {:<36} {:<8} any increase of failed over attempted runs is a regression",
        "failed_runs", "count"
    );
    println!("\nper-layer metrics (traced run, no bound):");
    for m in &d.per_layer {
        println!(
            "  {:<36} {:<8} {}",
            m.name,
            m.unit,
            direction(m.higher_is_better)
        );
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// children
// ---------------------------------------------------------------------------

/// Ten times what the child's runs should take on the reference box.
fn time_limit(w: &Workload, runs: f64, seconds: f64, cap: Duration) -> Duration {
    Duration::from_secs_f64(10.0 * (w.reference_wall_s * runs + seconds) + 10.0).min(cap)
}

/// The command line a child is started with (after `child`, and before the
/// scratch directory `child::run` appends): its kind, the seed, and for a
/// workload its name, virtual duration, fewest repeats and seconds to measure.
fn child_args(
    kind: &str,
    seed: u64,
    workload: Option<(&Workload, u64, usize, f64)>,
) -> Vec<String> {
    let mut a = vec![kind.to_string(), seed.to_string()];
    if let Some((w, virtual_us, min_repeats, seconds)) = workload {
        a.extend([
            w.name.to_string(),
            virtual_us.to_string(),
            min_repeats.to_string(),
            seconds.to_string(),
        ]);
    }
    a
}

fn run_measure(w: &Workload, o: &Opts, seconds: f64) -> child::Report {
    let (virtual_us, min_repeats) = if o.smoke {
        (SMOKE_VIRTUAL_US, 1)
    } else {
        (w.virtual_us, w.min_repeats)
    };
    let args = child_args(
        "measure",
        o.seed,
        Some((w, virtual_us, min_repeats, seconds)),
    );
    let runs = min_repeats as f64 + 4.0;
    report_failures(
        w.name,
        child::run(&args, time_limit(w, runs, seconds, MEASURE_CAP)),
    )
}

fn run_traced(w: &Workload, o: &Opts) -> child::Report {
    let args = child_args("traced", o.seed, Some((w, w.virtual_us, 0, 0.0)));
    report_failures(
        w.name,
        child::run(&args, time_limit(w, 9.0, 0.0, TRACED_CAP)),
    )
}

fn run_layers(o: &Opts) -> child::Report {
    report_failures(
        "layers",
        child::run(&child_args("layers", o.seed, None), LAYERS_LIMIT),
    )
}

fn report_failures(name: &str, rep: child::Report) -> child::Report {
    for f in &rep.failures {
        eprintln!("perf: {name}: {f}");
    }
    rep
}

/// `child KIND SEED [WORKLOAD VIRTUAL_US MIN_REPEATS SECONDS] SCRATCH`: what
/// `child_args` and `child::run` put together.
fn cmd_child(args: &[String]) -> Result<ExitCode, String> {
    fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("child: bad number `{v}`"))
    }
    let doc = match args {
        [kind, seed, name, virtual_us, min_repeats, seconds, scratch] => {
            let w = workloads::find(name).ok_or(format!("child: unknown workload `{name}`"))?;
            let (seed, virtual_us) = (num(seed)?, num(virtual_us)?);
            match kind.as_str() {
                "measure" => {
                    measure::measure(w, seed, num(seconds)?, virtual_us, num(min_repeats)?)
                }
                "traced" => {
                    let stamps = Path::new(scratch).join("worker-stamps");
                    measure::traced(w, seed, virtual_us, &stamps)
                }
                other => return Err(format!("child: unknown kind `{other}`")),
            }
        }
        [kind, seed, scratch] if kind == "layers" => {
            measure::layers(num(seed)?, Path::new(scratch))
        }
        _ => return Err("child: not a command line this program writes".into()),
    };
    println!("{}", doc.to_line());
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// bench: the driver's form
// ---------------------------------------------------------------------------

fn cmd_bench(o: &Opts) -> Result<ExitCode, String> {
    let d = Declaration::load();
    let w = match selected(o)?.as_slice() {
        [w] => *w,
        _ => return Err("bench: --workload is required".into()),
    };
    let (metrics, attempted, failed): (Vec<(&Declared, f64)>, u64, u64) = if o.trace {
        let layers = run_layers(o);
        let traced = run_traced(w, o);
        if layers.doc.get("metrics").is_none() || traced.doc.get("untraced").is_none() {
            return Err(format!(
                "{}: the traced run produced no measurements",
                w.name
            ));
        }
        write_trace(
            &child::work_dir().join(format!("trace-{}.json", w.name)),
            &[&layers.doc, &traced.doc],
        )?;
        (
            report::per_layer(&d, w, &traced.doc, &layers.doc),
            layers.attempted + traced.attempted,
            layers.failed + traced.failed,
        )
    } else {
        let rep = run_measure(w, o, o.seconds.unwrap_or(d.run_seconds));
        let rows: Vec<_> = report::end_to_end(&d, &rep.doc)
            .into_iter()
            .map(|(m, s, _)| (m, s.median))
            .collect();
        if rows.len() != d.end_to_end.len() {
            return Err(format!("{}: the run produced no measurements", w.name));
        }
        (rows, rep.attempted, rep.failed)
    };
    let line = Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(m, v)| {
                        let value =
                            Json::obj([("value", Json::Num(v)), ("unit", Json::str(&m.unit))]);
                        (m.name.clone(), value)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_line());
    Ok(ExitCode::SUCCESS)
}

/// The spans a child recorded.
fn spans_of(doc: &Json) -> &[Json] {
    doc.get("spans")
        .and_then(|s| s.get("spans"))
        .map(Json::as_arr)
        .unwrap_or_default()
}

/// Write the spans of the given child documents as one trace file.
fn write_trace(path: &Path, docs: &[&Json]) -> Result<(), String> {
    let spans: Vec<Json> = docs.iter().flat_map(|d| spans_of(d).to_vec()).collect();
    let doc = Json::obj([
        (
            "clock",
            Json::str("ns since each child process (told apart by `workload`) began tracing"),
        ),
        ("spans", Json::Arr(spans)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn print_summary_row(m: &Declared, s: &stats::Summary) {
    println!(
        "  {:<22} {:>12.4} {:<6} q1 {:>10.4}  q3 {:>10.4}  n {:>2}  spread {:>5.1} %  (bound {:.0} %, {})",
        m.name,
        s.median,
        m.unit,
        s.q1,
        s.q3,
        s.n,
        s.spread() * 100.0,
        m.bound.unwrap_or(0.0) * 100.0,
        direction(m.higher_is_better)
    );
}

fn print_per_layer(rows: &[(&Declared, f64)], only: impl Fn(&str) -> bool) {
    for (m, v) in rows.iter().filter(|r| only(&r.0.name)) {
        println!("  {:<36} {:>14.3} {}", m.name, v, m.unit);
    }
}

fn is_unit_cost(name: &str) -> bool {
    !["count.", "ratio.", "budget.", "kernel.", "trace."]
        .iter()
        .any(|p| name.starts_with(p))
}

fn cmd_run(o: &Opts) -> Result<ExitCode, String> {
    let d = Declaration::load();
    let cores = sys::machine_cores();
    let seconds = if o.smoke {
        0.0
    } else {
        o.seconds.unwrap_or(d.run_seconds)
    };
    let mut results: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    let mut any_failed = false;
    println!(
        "# perf run: seed {}, {} cores, git {}",
        o.seed,
        cores,
        git_rev()
    );
    for w in selected(o)? {
        let rep = run_measure(w, o, seconds);
        let oversubscribed = w.mode.parallelism() > cores;
        let field = |key: &str| rep.doc.get(key).cloned().unwrap_or(Json::Null);
        println!(
            "\n{} — {} of {} runs failed, {} timed repeats, fingerprint {}{}",
            w.name,
            rep.failed,
            rep.attempted,
            field("repeats").as_f64().unwrap_or(0.0),
            field("fingerprint").as_str().unwrap_or("-"),
            if oversubscribed {
                " — OVERSUBSCRIBED: more simulator threads or processes than cores; reported, never compared"
            } else {
                ""
            }
        );
        let mut metrics = Vec::new();
        for (m, s, v) in report::end_to_end(&d, &rep.doc) {
            print_summary_row(m, &s);
            metrics.push((m.name.clone(), report::summary_json(&s, &v)));
        }
        any_failed |= rep.failed > 0 || metrics.is_empty();
        results.push((
            w.name.to_string(),
            vec![
                ("mode".to_string(), Json::str(format!("{:?}", w.mode))),
                ("virtual_us".to_string(), field("virtual_us")),
                ("oversubscribed".to_string(), Json::from(oversubscribed)),
                ("attempted".to_string(), Json::from(rep.attempted)),
                ("failed".to_string(), Json::from(rep.failed)),
                (
                    "failures".to_string(),
                    Json::Arr(rep.failures.iter().map(Json::str).collect()),
                ),
                ("repeats".to_string(), field("repeats")),
                ("fingerprint".to_string(), field("fingerprint")),
                ("metrics".to_string(), Json::Obj(metrics)),
                ("counts".to_string(), field("counts")),
            ],
        ));
    }
    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("git_rev", Json::str(git_rev())),
            ("machine_cores", Json::from(cores)),
            ("seed", Json::from(o.seed)),
            ("smoke", Json::from(o.smoke)),
            (
                "workloads",
                Json::Obj(
                    results
                        .into_iter()
                        .map(|(n, e)| (n, Json::Obj(e)))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// The traced run: the layer drivers once, then every selected workload's
/// traced child; prints the unit costs, each workload's counts, ratios and
/// budget, and self time per span, and writes the spans out.
fn cmd_trace(o: &Opts) -> Result<ExitCode, String> {
    let d = Declaration::load();
    let layers = run_layers(o);
    let mut failed = layers.failed;
    // Every child's document, the layer drivers' first.
    let mut docs = Vec::new();
    for (i, w) in selected(o)?.into_iter().enumerate() {
        let traced = run_traced(w, o);
        let rows = report::per_layer(&d, w, &traced.doc, &layers.doc);
        if i == 0 {
            println!("unit costs (layer drivers, median over batches of 1024 calls):");
            print_per_layer(&rows, is_unit_cost);
        }
        println!("\n{} — counts, ratios and budget:", w.name);
        print_per_layer(&rows, |n| !is_unit_cost(n));
        if matches!(w.mode, workloads::Mode::Dist(_)) {
            println!(
                "  (budget.transport_pct is an estimate: half of the core switch's \
                 messages are taken to cross partitions)"
            );
        }
        failed += traced.failed;
        docs.push(traced.doc);
    }
    docs.insert(0, layers.doc);
    // Self time per span name (a span's duration less what its children
    // cover), worked out per child — span ids are each child's own — and
    // then added up by name.
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for doc in &docs {
        let spans: Vec<trace::Span> = spans_of(doc)
            .iter()
            .filter_map(trace::Span::from_json)
            .collect();
        for (name, self_ns, calls) in trace::self_time_by_name(&spans) {
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += self_ns;
                    r.2 += calls;
                }
                None => rows.push((name, self_ns, calls)),
            }
        }
    }
    println!("\nself time by span (all traced children):");
    for (name, self_ns, calls) in rows {
        println!(
            "  {:<36} {:>12.3} ms over {:>6} spans",
            name,
            self_ns as f64 / 1e6,
            calls
        );
    }
    let path = o.out.clone().unwrap_or_else(|| "trace.json".into());
    write_trace(&path, &docs.iter().collect::<Vec<_>>())?;
    println!("\nwrote {}", path.display());
    Ok(if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn cmd_check(o: &Opts) -> Result<ExitCode, String> {
    let [a_path, b_path] = o.positional.as_slice() else {
        return Err("check: give two result files, baseline first".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let d = Declaration::load();
    let mut worse = 0;
    println!(
        "{:<22} {:<22} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "baseline", "new", "change"
    );
    for (name, wa) in a.get("workloads").map(Json::as_obj).unwrap_or_default() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        let over = |w: &Json| {
            w.get("oversubscribed")
                .and_then(Json::as_bool)
                .unwrap_or(false)
        };
        if over(wa) || over(wb) {
            println!("{name:<22} oversubscribed on one side: reported, not compared");
            continue;
        }
        for m in &d.end_to_end {
            let side = |w: &Json| {
                w.get("metrics")
                    .and_then(|x| x.get(&m.name))
                    .and_then(report::summary_from_json)
            };
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                println!("{name:<22} {:<22} missing on one side", m.name);
                worse += 1;
                continue;
            };
            let verdict = report::compare(sa, sb, m.bound.unwrap_or(0.0), m.higher_is_better);
            worse += (verdict == Verdict::Worse) as u32;
            println!(
                "{name:<22} {:<22} {:>12.4} {:>12.4} {:>+7.1}%  {}",
                m.name,
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median * 100.0,
                verdict.label()
            );
        }
        let num = |w: &Json, k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let share = |w: &Json| num(w, "failed") / num(w, "attempted").max(1.0);
        if share(wb) > share(wa) {
            println!(
                "{name:<22} {:<22} {:>12.4} {:>12.4}           worse",
                "failed_runs share",
                share(wa),
                share(wb)
            );
            worse += 1;
        }
    }
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
