//! §7.6: determinism — repeating a synchronized configuration produces
//! bit-identical event logs, independent of the executor and independent of
//! a mid-run checkpoint/restore cycle.
//!
//! Each row runs the standard 2-host netperf configuration with event
//! logging and reports the merged log's FNV-1a fingerprint and length:
//! sequential (twice, the §7.6 repetition check), sharded with 1/2/4
//! workers, and a checkpoint → restore → continue cycle (a one-slot
//! checkpoint ring at 6 ms, restored into a fresh build). All fingerprints
//! must be identical; a divergence panics, so the binary exits nonzero.
//!
//! `--json PATH` writes the machine-readable baseline consumed by future
//! regression checks (see `BENCH_sec76.json` at the repository root) — a
//! determinism regression then shows up in the perf trajectory exactly like
//! fig07/fig08/sec742 wall-clock regressions do.
use simbricks::runner::Execution;
use simbricks::SimTime;
use simbricks_bench::netperf_logged_experiment;

fn fingerprint_of(exec: Execution) -> (u64, usize, f64) {
    let r = netperf_logged_experiment().run(exec);
    let log = r.merged_log();
    (log.fingerprint(), log.len(), r.wall_seconds())
}

fn fingerprint_of_ckpt_restore() -> (u64, usize, f64) {
    let mut exp = netperf_logged_experiment();
    exp.checkpoint_at(SimTime::from_ms(6));
    let ring = exp.run(Execution::Sequential).ring;
    let (_, blob) = ring.first().expect("checkpoint captured");
    let mut exp = netperf_logged_experiment();
    exp.restore_from_blob(blob).expect("restore checkpoint");
    let r = exp.run(Execution::Sequential);
    let log = r.merged_log();
    (log.fingerprint(), log.len(), r.wall_seconds())
}

fn main() {
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json requires a path").clone());
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }

    println!("# Section 7.6: determinism (per-executor merged-log fingerprints, netperf 5+5 ms)");
    let rows: Vec<(&str, (u64, usize, f64))> = vec![
        ("sequential", fingerprint_of(Execution::Sequential)),
        ("sequential_rerun", fingerprint_of(Execution::Sequential)),
        (
            "sharded1",
            fingerprint_of(Execution::Sharded { workers: 1 }),
        ),
        (
            "sharded2",
            fingerprint_of(Execution::Sharded { workers: 2 }),
        ),
        (
            "sharded4",
            fingerprint_of(Execution::Sharded { workers: 4 }),
        ),
        ("checkpoint_restore", fingerprint_of_ckpt_restore()),
    ];
    for (name, (fp, len, wall)) in &rows {
        println!("{name:>20}: fp={fp:#018x} log_len={len} wall={wall:.3}s");
    }
    let identical = rows
        .windows(2)
        .all(|w| (w[0].1 .0, w[0].1 .1) == (w[1].1 .0, w[1].1 .1));
    println!("all executors and checkpoint/restore identical: {identical}");
    assert!(identical, "determinism violated: fingerprints diverge");

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"sec76_determinism\",\n");
        out.push_str(
            "  \"workload\": \"netperf 5ms stream + 5ms rr, 2 gem5-timing hosts + switch\",\n",
        );
        out.push_str(&format!(
            "  \"machine_cores\": {},\n",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        ));
        out.push_str("  \"executors\": {\n");
        for (i, (name, (fp, len, _))) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{name}\": {{\"fingerprint\": \"{fp:#018x}\", \"log_len\": {len}}}{comma}\n"
            ));
        }
        out.push_str("  },\n");
        out.push_str(&format!("  \"identical\": {identical}\n"));
        out.push_str("}\n");
        std::fs::write(&path, out).expect("write --json file");
        println!("wrote {path}");
    }
}
