//! Fig. 1: DCTCP throughput vs marking threshold K — network-simulator-only
//! baseline vs the SimBricks end-to-end simulation. The end-to-end curve
//! needs a larger K to reach line rate because host processing (interrupt
//! scheduling, driver work) adds burstiness the network-only model misses.
//!
//! Checkpoint fast-forward (`docs/ARCHITECTURE.md`, "Checkpoint/restore"):
//!
//! * `--checkpoint-to PATH` — run one end-to-end configuration (K = 65),
//!   quiesce at the end of the warm-up phase (`Experiment::checkpoint_at`,
//!   a one-slot checkpoint ring), continue to the end (the continuation is
//!   bit-identical to an uninterrupted run), and write the ring's one entry
//!   to `PATH`.
//! * `--restore-from PATH` — rebuild the same configuration, load the
//!   checkpoint, and simulate only the remaining (measured) region —
//!   skipping the warm-up entirely.
//! * `--demo-checkpoint` — all of the above in one invocation, verifying
//!   that the restored run reproduces the uninterrupted results bit for bit
//!   and reporting the wall-clock fraction the fast-forward skipped.
//! * `--json PATH` — write the checkpoint-demo measurements as JSON.
//! * `--warm-ms N` / `--duration-ms N` — warm-up / total stream duration.
use std::io::Write as _;

use simbricks::runner::{write_blob, Execution};
use simbricks::SimTime;
use simbricks_bench::{dctcp_e2e_build, dctcp_end_to_end, dctcp_goodput, dctcp_network_only};

const DEMO_K: usize = 65;

struct Args {
    checkpoint_to: Option<String>,
    restore_from: Option<String>,
    demo: bool,
    json: Option<String>,
    warm_ms: u64,
    duration_ms: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        checkpoint_to: None,
        restore_from: None,
        demo: false,
        json: None,
        warm_ms: 5,
        duration_ms: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--checkpoint-to" => args.checkpoint_to = Some(val("--checkpoint-to")),
            "--restore-from" => args.restore_from = Some(val("--restore-from")),
            "--demo-checkpoint" => args.demo = true,
            "--json" => args.json = Some(val("--json")),
            "--warm-ms" => args.warm_ms = val("--warm-ms").parse().expect("--warm-ms"),
            "--duration-ms" => {
                args.duration_ms = val("--duration-ms").parse().expect("--duration-ms")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    if args.checkpoint_to.is_some() && args.restore_from.is_some() {
        panic!("--checkpoint-to and --restore-from are mutually exclusive (use --demo-checkpoint for the combined flow)");
    }
    if args.json.is_some() && !args.demo {
        panic!("--json is only produced by --demo-checkpoint");
    }
    args
}

/// One end-to-end K=65 run with logging; optionally checkpointing at `warm`
/// or restoring from a file first. Returns (goodput, wall seconds, log
/// fingerprint, log length).
fn e2e_run(
    duration: SimTime,
    checkpoint: Option<(SimTime, &str)>,
    restore: Option<&str>,
) -> (f64, f64, u64, usize) {
    let (mut exp, servers) = dctcp_e2e_build(DEMO_K, duration, true);
    if let Some((at, _)) = checkpoint {
        exp.checkpoint_at(at);
    }
    if let Some(path) = restore {
        let at = exp
            .restore(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("restoring {path}: {e}"));
        eprintln!("restored from {path} at t={at}");
    }
    let r = exp.run(Execution::Sequential);
    if let Some((_, path)) = checkpoint {
        let (_, blob) = r.ring.first().expect("checkpoint captured");
        write_blob(std::path::Path::new(path), blob)
            .unwrap_or_else(|e| panic!("writing checkpoint {path}: {e}"));
    }
    let log = r.merged_log();
    (
        dctcp_goodput(&r, &servers),
        r.wall_seconds(),
        log.fingerprint(),
        log.len(),
    )
}

fn main() {
    let args = parse_args();
    let duration = SimTime::from_ms(args.duration_ms);
    let warm = SimTime::from_ms(args.warm_ms);

    if args.demo {
        // 1. Uninterrupted baseline.
        let (g_full, w_full, f_full, n_full) = e2e_run(duration, None, None);
        println!("# checkpoint fast-forward demo (end-to-end dctcp, K={DEMO_K})");
        println!("uninterrupted:     goodput={g_full:.3}Gbps wall={w_full:.3}s log_len={n_full} fp={f_full:#018x}");
        // 2. Same run, checkpointing at the end of the warm-up.
        let path = std::env::temp_dir().join(format!("fig01-warm-{}.ckpt", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let (g_ck, w_ck, f_ck, n_ck) = e2e_run(duration, Some((warm, &path_s)), None);
        println!("checkpointing run: goodput={g_ck:.3}Gbps wall={w_ck:.3}s log_len={n_ck} fp={f_ck:#018x}");
        // 3. Restore and simulate only the measured region.
        let (g_re, w_re, f_re, n_re) = e2e_run(duration, None, Some(&path_s));
        println!("restored run:      goodput={g_re:.3}Gbps wall={w_re:.3}s log_len={n_re} fp={f_re:#018x}");
        let _ = std::fs::remove_file(&path);

        assert_eq!((f_full, n_full), (f_ck, n_ck), "checkpointing run diverged");
        assert_eq!((f_full, n_full), (f_re, n_re), "restored run diverged");
        assert_eq!(g_full, g_re, "restored goodput differs");
        let end = duration + SimTime::from_ms(5);
        let warm_fraction = warm.as_secs_f64() / end.as_secs_f64();
        let skip_fraction = 1.0 - w_re / w_full;
        println!(
            "warm-up fraction {warm_fraction:.2} of virtual time; fast-forward skipped {:.0}% of wall clock",
            skip_fraction * 100.0
        );
        if let Some(json) = &args.json {
            let mut out = String::new();
            out.push_str("{\n");
            out.push_str("  \"bench\": \"fig01_checkpoint_demo\",\n");
            out.push_str(&format!("  \"k\": {DEMO_K},\n"));
            out.push_str(&format!("  \"duration_ms\": {},\n", args.duration_ms));
            out.push_str(&format!("  \"warm_ms\": {},\n", args.warm_ms));
            out.push_str(&format!("  \"warm_fraction\": {warm_fraction:.4},\n"));
            out.push_str(&format!("  \"wall_full_s\": {w_full:.4},\n"));
            out.push_str(&format!("  \"wall_checkpointing_s\": {w_ck:.4},\n"));
            out.push_str(&format!("  \"wall_restored_s\": {w_re:.4},\n"));
            out.push_str(&format!("  \"skip_fraction\": {skip_fraction:.4},\n"));
            out.push_str(&format!(
                "  \"skip_ge_warm_fraction\": {},\n",
                skip_fraction >= warm_fraction
            ));
            out.push_str(&format!("  \"goodput_full_gbps\": {g_full:.4},\n"));
            out.push_str(&format!("  \"goodput_restored_gbps\": {g_re:.4},\n"));
            out.push_str(&format!("  \"log_len\": {n_full},\n"));
            out.push_str(&format!("  \"fingerprint\": \"{f_full:#018x}\",\n"));
            out.push_str("  \"bit_identical\": true\n");
            out.push_str("}\n");
            let mut f = std::fs::File::create(json).expect("create json");
            f.write_all(out.as_bytes()).expect("write json");
            println!("wrote {json}");
        }
        return;
    }

    if let Some(path) = &args.checkpoint_to {
        let (g, w, f, n) = e2e_run(duration, Some((warm, path)), None);
        println!("checkpoint written to {path} at t={warm}");
        println!("goodput={g:.3}Gbps wall={w:.3}s log_len={n} fp={f:#018x}");
        return;
    }
    if let Some(path) = &args.restore_from {
        let (g, w, f, n) = e2e_run(duration, None, Some(path));
        println!("goodput={g:.3}Gbps wall={w:.3}s log_len={n} fp={f:#018x}");
        return;
    }

    // Default: the Fig. 1 sweep.
    let duration = SimTime::from_ms(30);
    let ks = [2usize, 5, 10, 20, 40, 65, 100];
    println!("# Figure 1: aggregate dctcp throughput [Gbps] vs marking threshold K (packets)");
    println!(
        "{:>6} {:>18} {:>24}",
        "K", "network-only", "end-to-end (SimBricks)"
    );
    for k in ks {
        let only = dctcp_network_only(k, duration);
        let e2e = dctcp_end_to_end(k, duration);
        println!("{:>6} {:>18.3} {:>24.3}", k, only, e2e);
    }
}
