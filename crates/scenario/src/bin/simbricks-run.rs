//! `simbricks-run` — run a declarative scenario file on any executor.
//!
//! ```text
//! simbricks-run <scenario.toml> [options]
//!   --validate              parse + validate only (multiple files allowed)
//!   --exec <mode>           sequential | sharded[:N] | dist
//!                           (default: the scenario's [run] exec)
//!   --transport <t>         tcp | shm | auto  (dist only)
//!   --sweep key=v1,v2,...   sweep a field over values; repeatable flags
//!                           form a cross product. Keys address sections by
//!                           path and element name, `*` matches any name:
//!                             scenario.seed=1,2,3
//!                             link.*.impairment.loss_permille=0,20
//!                             switch.sw.aqm.type=red,codel
//!   --json <path|->         write results as JSON
//!   --quiet                 suppress per-run text output
//!   --checkpoint-ring DIR   record a checkpoint ring into DIR while the
//!                           run progresses (replayable with
//!                           `simbricks-replay`); forces logging on
//!   --ring-period DUR       virtual time between ring entries
//!                           (default: duration / 8)
//!   --ring-keep N           keep only the newest N entries (default: all)
//!   --max-restarts N        fleet restarts to attempt on worker failure
//!                           (dist only; default: the scenario's
//!                           [faults] max_restarts, else #faults + 1 when
//!                           the scenario schedules faults, else 0)
//!   --heartbeat DUR         wall-clock worker heartbeat period (dist only;
//!                           default: the scenario's [faults] heartbeat,
//!                           else 100ms)
//!   --no-faults             ignore the scenario's [[fault]] schedule
//! ```
//!
//! Every run prints (and optionally records) the event-log fingerprint, the
//! per-host app reports, and per-switch statistics. The same scenario text
//! is handed verbatim to distributed workers, so `--exec dist` produces
//! bit-identical simulation results to a local run.

use std::fmt::Write as _;
use std::process::ExitCode;

use simbricks_base::SimTime;
use simbricks_hostsim::HostModel;
use simbricks_netsim::SwitchBm;
use simbricks_runner::{
    maybe_worker, run_distributed, DistError, DistOptions, Execution, PartitionBuilder, RingMeta,
    RingOptions, TransportKind, RING_SCENARIO_FILE,
};
use simbricks_scenario::{
    build_from_toml, fault_schedule, lower, parse_duration, Doc, Scenario, Value,
};

struct Args {
    file: Option<String>,
    validate: Vec<String>,
    exec: Option<String>,
    transport: Option<String>,
    sweeps: Vec<(String, Vec<Value>)>,
    json: Option<String>,
    quiet: bool,
    ring_dir: Option<String>,
    ring_period: Option<String>,
    ring_keep: usize,
    max_restarts: Option<u32>,
    heartbeat: Option<String>,
    no_faults: bool,
}

/// Checkpoint-ring recording request, resolved against the scenario.
struct RingCli {
    dir: std::path::PathBuf,
    period: SimTime,
    keep: usize,
}

/// Fault/recovery request from the command line (resolved against the
/// scenario's `[faults]` section per run).
struct FaultCli {
    max_restarts: Option<u32>,
    heartbeat: Option<std::time::Duration>,
    no_faults: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simbricks-run <scenario.toml> [--exec MODE] [--transport T] \
         [--sweep key=v1,v2,...]... [--json PATH|-] [--quiet] \
         [--checkpoint-ring DIR [--ring-period DUR] [--ring-keep N]] \
         [--max-restarts N] [--heartbeat DUR] [--no-faults]\n       \
         simbricks-run --validate <scenario.toml>..."
    );
    std::process::exit(2);
}

fn parse_sweep(arg: &str) -> Result<(String, Vec<Value>), String> {
    let (key, vals) = arg
        .split_once('=')
        .ok_or_else(|| format!("--sweep `{arg}` must look like key=v1,v2,..."))?;
    if key.split('.').count() < 2 {
        return Err(format!(
            "--sweep key `{key}` must be a dotted path like scenario.seed or \
             link.*.impairment.loss_permille"
        ));
    }
    let values: Vec<Value> = vals
        .split(',')
        .map(|v| {
            let v = v.trim();
            if let Ok(i) = v.replace('_', "").parse::<i64>() {
                Value::Int(i)
            } else if v == "true" || v == "false" {
                Value::Bool(v == "true")
            } else {
                Value::Str(v.to_string())
            }
        })
        .collect();
    if values.is_empty() {
        return Err(format!("--sweep `{arg}` has no values"));
    }
    Ok((key.to_string(), values))
}

fn parse_args() -> Args {
    let mut args = Args {
        file: None,
        validate: Vec::new(),
        exec: None,
        transport: None,
        sweeps: Vec::new(),
        json: None,
        quiet: false,
        ring_dir: None,
        ring_period: None,
        ring_keep: 0,
        max_restarts: None,
        heartbeat: None,
        no_faults: false,
    };
    let mut it = std::env::args().skip(1);
    let mut validating = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--validate" => validating = true,
            "--exec" => args.exec = Some(it.next().unwrap_or_else(|| usage())),
            "--transport" => args.transport = Some(it.next().unwrap_or_else(|| usage())),
            "--sweep" => {
                let s = it.next().unwrap_or_else(|| usage());
                match parse_sweep(&s) {
                    Ok(kv) => args.sweeps.push(kv),
                    Err(e) => {
                        eprintln!("simbricks-run: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => args.json = Some(it.next().unwrap_or_else(|| usage())),
            "--checkpoint-ring" => args.ring_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--ring-period" => args.ring_period = Some(it.next().unwrap_or_else(|| usage())),
            "--ring-keep" => {
                let n = it.next().unwrap_or_else(|| usage());
                args.ring_keep = n.parse().unwrap_or_else(|_| {
                    eprintln!("simbricks-run: --ring-keep `{n}` is not a number");
                    std::process::exit(2);
                });
            }
            "--max-restarts" => {
                let n = it.next().unwrap_or_else(|| usage());
                args.max_restarts = Some(n.parse().unwrap_or_else(|_| {
                    eprintln!("simbricks-run: --max-restarts `{n}` is not a number");
                    std::process::exit(2);
                }));
            }
            "--heartbeat" => args.heartbeat = Some(it.next().unwrap_or_else(|| usage())),
            "--no-faults" => args.no_faults = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => {
                if validating {
                    args.validate.push(f.to_string());
                } else if args.file.is_none() {
                    args.file = Some(f.to_string());
                } else {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    if validating && args.file.is_some() {
        // `--validate` after the file name: treat the file as a target too.
        args.validate.push(args.file.take().unwrap());
    }
    if !validating && args.file.is_none() {
        usage();
    }
    args
}

// ---------------------------------------------------------------------------
// Sweep application
// ---------------------------------------------------------------------------

/// The address of a section: its path with `[[...]]` element names spliced
/// in, e.g. `[[link]] name="l0"` + `[link.impairment]` → `link.l0.impairment`.
fn section_addrs(doc: &Doc) -> Vec<Vec<String>> {
    let mut addrs = Vec::new();
    let mut last_elem: Vec<String> = Vec::new();
    for sec in &doc.sections {
        if sec.is_array {
            let name = sec
                .get("name")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            last_elem = vec![sec.path[0].clone(), name];
            addrs.push(last_elem.clone());
        } else if sec.path.len() > 1 && last_elem.first() == sec.path.first() {
            // Sub-table of the most recent array element.
            let mut a = last_elem.clone();
            a.extend(sec.path[1..].iter().cloned());
            addrs.push(a);
        } else {
            addrs.push(sec.path.clone());
        }
    }
    addrs
}

fn addr_matches(addr: &[String], key: &[&str]) -> bool {
    addr.len() == key.len() && addr.iter().zip(key).all(|(a, k)| *k == "*" || a == k)
}

/// Apply one `key = value` override to every matching section, creating a
/// missing sub-table (e.g. `[link.impairment]`) right after its parent.
fn apply_override(doc: &mut Doc, key: &str, value: &Value) -> Result<usize, String> {
    let segs: Vec<&str> = key.split('.').collect();
    let (field, sec_key) = segs.split_last().expect("validated non-empty");
    let addrs = section_addrs(doc);
    let hits: Vec<usize> = (0..doc.sections.len())
        .filter(|i| addr_matches(&addrs[*i], sec_key))
        .collect();
    if !hits.is_empty() {
        for i in &hits {
            doc.sections[*i].set(field, value.clone());
        }
        return Ok(hits.len());
    }
    // Try to create a missing sub-table under a matching parent.
    if sec_key.len() >= 2 {
        let (sub, parent_key) = sec_key.split_last().expect("len >= 2");
        let parents: Vec<usize> = (0..doc.sections.len())
            .filter(|i| addr_matches(&addrs[*i], parent_key))
            .collect();
        if !parents.is_empty() {
            // Insert back-to-front so earlier indices stay valid.
            for &p in parents.iter().rev() {
                let parent = &doc.sections[p];
                let mut sec = simbricks_scenario::Section {
                    path: vec![parent.path[0].clone(), sub.to_string()],
                    is_array: false,
                    line: parent.line,
                    entries: Vec::new(),
                };
                sec.set(field, value.clone());
                doc.sections.insert(p + 1, sec);
            }
            return Ok(parents.len());
        }
    }
    Err(format!(
        "--sweep key `{key}` matches no section in the scenario \
         (addresses look like scenario.seed, host.<name>.mtu, \
         link.<name>.impairment.loss_permille; `*` matches any name)"
    ))
}

/// Cross-product of all sweep axes: list of (label, override) sets.
fn sweep_combos(sweeps: &[(String, Vec<Value>)]) -> Vec<Vec<(String, Value)>> {
    let mut combos: Vec<Vec<(String, Value)>> = vec![Vec::new()];
    for (key, values) in sweeps {
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for combo in &combos {
            for v in values {
                let mut c = combo.clone();
                c.push((key.clone(), v.clone()));
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

fn value_display(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Array(_) => "[...]".into(),
    }
}

// ---------------------------------------------------------------------------
// JSON output (hand-rolled; no dependencies)
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct RunRecord {
    overrides: Vec<(String, Value)>,
    exec: String,
    fingerprint: u64,
    wall_s_milli: u64,
    hosts: Vec<(String, String)>,
    switches: Vec<(String, [u64; 4])>,
}

impl RunRecord {
    fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("    {\n      \"overrides\": {");
        for (i, (k, v)) in self.overrides.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": \"{}\"",
                json_escape(k),
                json_escape(&value_display(v))
            );
        }
        let _ = write!(
            s,
            "}},\n      \"exec\": \"{}\",\n      \"fingerprint\": \"{:#018x}\",\n      \
             \"wall_ms\": {},\n      \"hosts\": {{",
            json_escape(&self.exec),
            self.fingerprint,
            self.wall_s_milli,
        );
        for (i, (name, report)) in self.hosts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n        \"{}\": \"{}\"",
                json_escape(name),
                json_escape(report)
            );
        }
        s.push_str("\n      },\n      \"switches\": {");
        for (i, (name, st)) in self.switches.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n        \"{}\": {{\"forwarded\": {}, \"dropped\": {}, \
                 \"ecn_marked\": {}, \"aqm_dropped\": {}}}",
                json_escape(name),
                st[0],
                st[1],
                st[2],
                st[3]
            );
        }
        s.push_str("\n      }\n    }");
        s
    }
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

/// Write a recorded ring's sidecar files: metadata plus the exact scenario
/// text that produced it, so `simbricks-replay` can rebuild the experiment.
fn write_ring_sidecars(ring: &RingCli, text: &str, spec: &Scenario) -> Result<(), String> {
    let meta = RingMeta {
        name: spec.name.clone(),
        period: ring.period,
        keep: ring.keep,
        end: spec.duration.saturating_add(spec.end_margin),
    };
    meta.write_to(&ring.dir).map_err(|e| e.to_string())?;
    let path = ring.dir.join(RING_SCENARIO_FILE);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    text: &str,
    spec: &Scenario,
    exec_str: &str,
    transport: &str,
    overrides: Vec<(String, Value)>,
    quiet: bool,
    ring: Option<&RingCli>,
    fault_cli: &FaultCli,
) -> Result<RunRecord, String> {
    if exec_str == "dist" || exec_str.starts_with("dist:") {
        let transport = match transport {
            "tcp" => TransportKind::Tcp,
            "shm" => TransportKind::Shm,
            "auto" | "" => TransportKind::Auto,
            t => return Err(format!("unknown transport `{t}` (use tcp, shm, or auto)")),
        };
        let inner = exec_str
            .strip_prefix("dist:")
            .map(|s| {
                Execution::parse(s).ok_or_else(|| {
                    format!("bad executor after dist: `{s}` (sequential, sharded[:N])")
                })
            })
            .transpose()?
            .unwrap_or(Execution::Sequential);
        let faults = if fault_cli.no_faults {
            Vec::new()
        } else {
            fault_schedule(spec)
        };
        let max_restarts = fault_cli
            .max_restarts
            .or_else(|| spec.max_restarts.map(|v| v.min(u32::MAX as u64) as u32))
            .unwrap_or(if faults.is_empty() {
                0
            } else {
                faults.len() as u32 + 1
            });
        let heartbeat = fault_cli
            .heartbeat
            .or_else(|| {
                spec.heartbeat
                    .map(|t| std::time::Duration::from_nanos(t.as_ps() / 1000))
            })
            .unwrap_or(std::time::Duration::from_millis(100))
            .max(std::time::Duration::from_millis(1));
        let opts = DistOptions {
            partitions: spec.partitions(),
            scenario: text.to_string(),
            exec: inner,
            transport,
            worker_args: Vec::new(),
            ring: ring.map(|r| RingOptions {
                period: r.period,
                keep: r.keep,
                dir: r.dir.clone(),
            }),
            faults,
            max_restarts,
            heartbeat,
        };
        let r = match run_distributed(&opts, &build_from_toml) {
            Ok(r) => r,
            Err(e) => {
                if let DistError::RestartsExhausted { report, .. } = &e {
                    eprintln!("{report}");
                }
                return Err(e.to_string());
            }
        };
        if let Some(ring) = ring {
            write_ring_sidecars(ring, text, spec)?;
        }
        let fp = r.merged_log().fingerprint();
        if !quiet {
            println!(
                "run {:?} exec=dist partitions={} fingerprint={fp:#018x} wall={:.3}s",
                spec.name,
                opts.partitions.len(),
                r.wall.as_secs_f64()
            );
        }
        if !r.recovery.is_trivial() {
            println!("{}", r.recovery);
        }
        return Ok(RunRecord {
            overrides,
            exec: exec_str.to_string(),
            fingerprint: fp,
            wall_s_milli: r.wall.as_millis() as u64,
            hosts: Vec::new(),
            switches: Vec::new(),
        });
    }
    if !spec.faults.is_empty() && !fault_cli.no_faults {
        return Err(format!(
            "scenario schedules {} [[fault]] declaration(s), but faults are injected by the \
             dist orchestrator: run with --exec dist or pass --no-faults",
            spec.faults.len()
        ));
    }
    let exec = Execution::parse(exec_str)
        .ok_or_else(|| format!("unknown executor `{exec_str}` (sequential, sharded[:N], dist)"))?;
    let mut pb = PartitionBuilder::new_local();
    let low = lower(spec, &mut pb);
    let mut exp = pb.into_experiment();
    if let Some(ring) = ring {
        exp.set_checkpoint_ring(ring.period, ring.keep);
        exp.set_ring_dir(ring.dir.clone());
    }
    let r = exp.run(exec);
    if let Some(ring) = ring {
        write_ring_sidecars(ring, text, spec)?;
    }
    let fp = r.merged_log().fingerprint();
    let mut hosts = Vec::new();
    for (name, id) in &low.hosts {
        let h: &HostModel = r
            .model(*id)
            .ok_or_else(|| format!("host {name} has no model in results"))?;
        hosts.push((name.clone(), h.app_report()));
    }
    let mut switches = Vec::new();
    for (name, id) in &low.switches {
        let sw: &SwitchBm = r
            .model(*id)
            .ok_or_else(|| format!("switch {name} has no model in results"))?;
        let st = sw.stats();
        switches.push((
            name.clone(),
            [st.forwarded, st.dropped, st.ecn_marked, st.aqm_dropped],
        ));
    }
    if !quiet {
        let ov: Vec<String> = overrides
            .iter()
            .map(|(k, v)| format!("{k}={}", value_display(v)))
            .collect();
        println!(
            "run {:?}{} exec={exec_str} fingerprint={fp:#018x} wall={:.3}s",
            spec.name,
            if ov.is_empty() {
                String::new()
            } else {
                format!(" [{}]", ov.join(" "))
            },
            r.wall_seconds()
        );
        for (name, report) in &hosts {
            if !report.is_empty() {
                println!("  {name}: {report}");
            }
        }
        for (name, st) in &switches {
            println!(
                "  {name}: forwarded={} dropped={} ecn_marked={} aqm_dropped={}",
                st[0], st[1], st[2], st[3]
            );
        }
    }
    Ok(RunRecord {
        overrides,
        exec: exec_str.to_string(),
        fingerprint: fp,
        wall_s_milli: (r.wall_seconds() * 1000.0) as u64,
        hosts,
        switches,
    })
}

fn main() -> ExitCode {
    // Must run before anything else: dist workers re-exec this binary.
    maybe_worker(&build_from_toml);
    let args = parse_args();

    if !args.validate.is_empty() {
        let mut ok = true;
        for file in &args.validate {
            let text = match std::fs::read_to_string(file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{file}: cannot read: {e}");
                    ok = false;
                    continue;
                }
            };
            match Scenario::from_toml_str(&text) {
                Ok(s) => {
                    let hosts = s.hosts_count();
                    println!(
                        "{file}: OK ({hosts} hosts, {} switches, {} links, {} partition(s))",
                        s.nodes.len() - hosts,
                        s.links.len(),
                        s.partitions().len()
                    );
                }
                Err(e) => {
                    eprintln!("{file}: {e}");
                    ok = false;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let file = args.file.as_deref().expect("checked in parse_args");
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("simbricks-run: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base_doc = match Doc::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("simbricks-run: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let combos = sweep_combos(&args.sweeps);
    if args.ring_dir.is_some() && combos.len() > 1 {
        eprintln!(
            "simbricks-run: --checkpoint-ring records exactly one run; \
             narrow the --sweep to a single value"
        );
        return ExitCode::FAILURE;
    }

    let fault_cli = FaultCli {
        max_restarts: args.max_restarts,
        heartbeat: match &args.heartbeat {
            None => None,
            Some(h) => match parse_duration(h) {
                Ok(d) => Some(std::time::Duration::from_nanos(d.as_ps() / 1000)),
                Err(e) => {
                    eprintln!("simbricks-run: --heartbeat: {e}");
                    return ExitCode::FAILURE;
                }
            },
        },
        no_faults: args.no_faults,
    };

    let mut records = Vec::new();
    let mut scen_name = String::new();
    for combo in combos {
        let mut doc = base_doc.clone();
        for (key, value) in &combo {
            if let Err(e) = apply_override(&mut doc, key, value) {
                eprintln!("simbricks-run: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.ring_dir.is_some() {
            // Replay needs the event logs: force logging on (the override
            // lands in the scenario text stored with the ring, so replays
            // rebuild the identical experiment).
            if let Err(e) = apply_override(&mut doc, "scenario.log", &Value::Bool(true)) {
                eprintln!("simbricks-run: {e}");
                return ExitCode::FAILURE;
            }
        }
        let run_text = doc.to_toml_string();
        let spec = match Scenario::from_toml_str(&run_text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("simbricks-run: {file} (after sweep overrides): {e}");
                return ExitCode::FAILURE;
            }
        };
        scen_name = spec.name.clone();
        let exec_str = args.exec.clone().unwrap_or_else(|| spec.exec.clone());
        let transport = args
            .transport
            .clone()
            .unwrap_or_else(|| spec.transport.clone());
        let ring = match &args.ring_dir {
            None => None,
            Some(dir) => {
                let period = match &args.ring_period {
                    Some(p) => match parse_duration(p) {
                        Ok(d) => d,
                        Err(e) => {
                            eprintln!("simbricks-run: --ring-period: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    // Default: eight entries across the scenario's duration.
                    None => SimTime::from_ps((spec.duration.as_ps() / 8).max(1)),
                };
                Some(RingCli {
                    dir: std::path::PathBuf::from(dir),
                    period,
                    keep: args.ring_keep,
                })
            }
        };
        match run_one(
            &run_text,
            &spec,
            &exec_str,
            &transport,
            combo,
            args.quiet,
            ring.as_ref(),
            &fault_cli,
        ) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                eprintln!("simbricks-run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.json {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"scenario\": \"{}\",\n  \"file\": \"{}\",\n  \"runs\": [\n",
            json_escape(&scen_name),
            json_escape(file)
        );
        for (i, r) in records.iter().enumerate() {
            out.push_str(&r.to_json());
            out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        if path == "-" {
            print!("{out}");
        } else if let Err(e) = std::fs::write(path, out) {
            eprintln!("simbricks-run: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
