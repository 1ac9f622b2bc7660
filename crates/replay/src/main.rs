//! `simbricks-replay` — inspect and bisect recorded checkpoint rings.
//!
//! ```text
//! simbricks-replay dump RING [--json]
//! simbricks-replay seek RING TIME [--tail N] [--json]
//! simbricks-replay bisect RING_A RING_B [--json]
//! ```
//!
//! `dump` lists a ring's metadata and snapshots. `seek` restores the newest
//! snapshot at or below TIME (a duration such as `150us`), steps forward to
//! exactly TIME, and prints each component's clock, queue depths, and event
//! log tail. `bisect` compares two rings of the same scenario and reports
//! the first divergent event; like `diff`, it exits 0 when the runs are
//! bit-identical, 1 when a divergence was found, 2 on error.

use std::process::ExitCode;

use simbricks_base::{fnv1a, LogEntry, SimTime};
use simbricks_replay::{BisectReport, Replay, SeekState};
use simbricks_scenario::parse_duration;

fn usage() -> ! {
    eprintln!(
        "usage: simbricks-replay dump RING [--json]\n       \
         simbricks-replay seek RING TIME [--tail N] [--json]\n       \
         simbricks-replay bisect RING_A RING_B [--json]"
    );
    std::process::exit(2);
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn entry_json(e: &LogEntry) -> String {
    format!(
        "{{\"time_ps\": {}, \"tag\": \"{}\", \"a\": {}, \"b\": {}}}",
        e.time.as_ps(),
        json_escape(e.tag),
        e.a,
        e.b
    )
}

fn dump(ring: &Replay, json: bool) {
    let m = ring.meta();
    if json {
        let mut s = format!(
            "{{\n  \"name\": \"{}\",\n  \"period_ps\": {},\n  \"keep\": {},\n  \
             \"end_ps\": {},\n  \"entries\": [",
            json_escape(&m.name),
            m.period.as_ps(),
            m.keep,
            m.end.as_ps()
        );
        for (i, (t, _)) in ring.entries().iter().enumerate() {
            s.push_str(if i == 0 { "" } else { ", " });
            s.push_str(&t.as_ps().to_string());
        }
        s.push_str("]\n}");
        println!("{s}");
    } else {
        println!(
            "ring {:?}: period={} keep={} end={}",
            m.name, m.period, m.keep, m.end
        );
        for (t, path) in ring.entries() {
            println!("  {t}  {}", path.display());
        }
    }
}

fn seek(ring: &Replay, state: &SeekState, tail: usize, json: bool) {
    if json {
        let mut s = format!(
            "{{\n  \"name\": \"{}\",\n  \"time_ps\": {},\n  \"restored_from_ps\": {},\n  \
             \"components\": [\n",
            json_escape(&ring.meta().name),
            state.time.as_ps(),
            state.restored_from.as_ps()
        );
        for (i, c) in state.components.iter().enumerate() {
            let entries = c.log.entries();
            let tail_entries: Vec<String> = entries[entries.len().saturating_sub(tail)..]
                .iter()
                .map(entry_json)
                .collect();
            let depths: Vec<String> = c.port_pending.iter().map(|d| d.to_string()).collect();
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"now_ps\": {}, \"msgs_delivered\": {}, \
                 \"timers_fired\": {}, \"port_pending\": [{}], \"log_len\": {}, \
                 \"model_state_fnv\": \"{:#018x}\", \"log_tail\": [{}]}}{}\n",
                json_escape(&c.name),
                c.now.as_ps(),
                c.stats.msgs_delivered,
                c.stats.timers_fired,
                depths.join(", "),
                c.log.recorded(),
                fnv1a(&c.model_state),
                tail_entries.join(", "),
                if i + 1 < state.components.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}");
        println!("{s}");
    } else {
        println!(
            "seek {} (restored from {}):",
            state.time, state.restored_from
        );
        for c in &state.components {
            let depths: Vec<String> = c.port_pending.iter().map(|d| d.to_string()).collect();
            println!(
                "  {}: now={} delivered={} timers={} pending=[{}] log={} entries \
                 model_fnv={:#018x}",
                c.name,
                c.now,
                c.stats.msgs_delivered,
                c.stats.timers_fired,
                depths.join(","),
                c.log.recorded(),
                fnv1a(&c.model_state)
            );
            let entries = c.log.entries();
            for e in &entries[entries.len().saturating_sub(tail)..] {
                println!("    {e}");
            }
        }
    }
}

fn report_bisect(r: &BisectReport, json: bool) -> ExitCode {
    if json {
        let div = match &r.divergence {
            None => "null".to_string(),
            Some(d) => format!(
                "{{\"epoch\": {}, \"time_ps\": {}, \"component\": \"{}\", \"a\": {}, \"b\": {}}}",
                d.epoch,
                d.time.as_ps(),
                json_escape(&d.component),
                d.a.as_ref().map_or("null".into(), entry_json),
                d.b.as_ref().map_or("null".into(), entry_json)
            ),
        };
        println!(
            "{{\n  \"period_ps\": {},\n  \"epochs\": {},\n  \"replays\": {},\n  \
             \"divergence\": {div}\n}}",
            r.period.as_ps(),
            r.epochs,
            r.replays
        );
    } else {
        match &r.divergence {
            None => println!(
                "no divergence: runs are bit-identical ({} epochs, {} replays)",
                r.epochs, r.replays
            ),
            Some(d) => {
                println!(
                    "first divergence at {} in {:?} (epoch {} of {}, {} replays):",
                    d.time, d.component, d.epoch, r.epochs, r.replays
                );
                match &d.a {
                    Some(e) => println!("  A: {e}"),
                    None => println!("  A: <log ended>"),
                }
                match &d.b {
                    Some(e) => println!("  B: {e}"),
                    None => println!("  B: <log ended>"),
                }
            }
        }
    }
    if r.divergence.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("simbricks-replay: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage());
    let mut positional: Vec<String> = Vec::new();
    let mut json = false;
    let mut tail: usize = 8;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--tail" => {
                let n = args.next().unwrap_or_else(|| usage());
                tail = match n.parse() {
                    Ok(n) => n,
                    Err(_) => return fail(&format!("--tail `{n}` is not a number")),
                };
            }
            "--help" | "-h" => usage(),
            _ => positional.push(a),
        }
    }
    match (cmd.as_str(), positional.as_slice()) {
        ("dump", [dir]) => match Replay::open(dir.as_str()) {
            Ok(ring) => {
                dump(&ring, json);
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        },
        ("seek", [dir, time]) => {
            let t = match parse_duration(time)
                .or_else(|e| time.parse::<u64>().map(SimTime::from_ps).map_err(|_| e))
            {
                Ok(t) => t,
                Err(e) => return fail(&format!("bad TIME: {e}")),
            };
            let ring = match Replay::open(dir.as_str()) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            match ring.seek(t) {
                Ok(state) => {
                    seek(&ring, &state, tail, json);
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        ("bisect", [a, b]) => {
            let ra = match Replay::open(a.as_str()) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            let rb = match Replay::open(b.as_str()) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            match ra.bisect(&rb) {
                Ok(r) => report_bisect(&r, json),
                Err(e) => fail(&e),
            }
        }
        _ => usage(),
    }
}
