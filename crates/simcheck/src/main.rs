//! CLI entry point: `cargo run -p simcheck [--] [DIR] [--json] [--explain RULE]`
//!
//! Scans the workspace `crates/` tree (or DIR when given) and exits nonzero
//! if any unwaived determinism-hazard finding remains — this is the blocking
//! CI gate.

use std::path::PathBuf;
use std::process::ExitCode;

use simcheck::{scan_tree, to_json, Rule};

fn usage() -> &'static str {
    "usage: simcheck [DIR] [--json] [--explain RULE]\n\
     \n\
     Scans DIR (default: the workspace root's crates/ tree) for determinism\n\
     hazards and exits 1 if any unwaived finding remains.\n\
     \n\
     options:\n\
       --json           machine-readable findings on stdout\n\
       --explain RULE   print the rationale for a rule (R1..R5) and exit\n\
       --help           this text\n\
     \n\
     rules: R1 unordered-iteration, R2 wall-clock, R3 snapshot-coverage,\n\
            R4 nondet-primitive, R5 io-panic\n\
     waivers: `// det-ok: <reason>` (R1/R2/R4), `// snap-skip: <reason>` (R3),\n\
              `// io-ok: <reason>` (R5)"
}

fn main() -> ExitCode {
    let mut json = false;
    let mut dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("--explain needs a rule id (R1..R5)");
                    return ExitCode::from(2);
                };
                let Some(rule) = Rule::from_id(&id) else {
                    eprintln!("unknown rule `{id}`; known: R1, R2, R3, R4, R5");
                    return ExitCode::from(2);
                };
                println!("{}", rule.explain());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--" => {}
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = dir.unwrap_or_else(|| {
        // Default: the workspace's crates/ tree. Works both from a checkout
        // root (`cargo run -p simcheck`) and from anywhere via the
        // compile-time manifest location.
        let cwd_crates = PathBuf::from("crates");
        if cwd_crates.is_dir() {
            cwd_crates
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .map(PathBuf::from)
                .unwrap_or(cwd_crates)
        }
    });

    let findings = match scan_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simcheck: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
    }
    let unwaived = findings.iter().filter(|f| !f.waived()).count();
    let waived = findings.len() - unwaived;
    if !json {
        println!(
            "simcheck: {} finding(s), {} waived, {} blocking",
            findings.len(),
            waived,
            unwaived
        );
    }
    if unwaived > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
