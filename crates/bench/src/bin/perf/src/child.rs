//! Fresh child processes: every workload is measured in one, so that peak
//! memory is its own and a hung run can be ended whole.
//!
//! The child leads a process group of its own. When its time limit passes the
//! whole group is killed, dist workers included, so a stuck fleet counts as
//! one failed run instead of stalling the benchmark. After the child has
//! ended, check (iv) looks for what it left behind: a process still in the
//! group, or a shared-memory region in its scratch directory.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::sys;

/// What became of one child: what it reported, folded together with what
/// was seen from outside (time limit, exit status, leftovers), which counts
/// as one more failed run.
pub struct Report {
    /// The document the child printed as its last line (`Null` if it did
    /// not get that far).
    pub doc: Json,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Where the benchmark keeps scratch and output files: beside its own
/// executable, which the driver builds inside the checkout.
pub fn work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("perf-work")
}

/// Run this executable again as `child <args> <scratch>`, with a scratch
/// directory of its own that is also its `TMPDIR`, and `limit` to finish in.
pub fn run(args: &[String], limit: Duration) -> Report {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let scratch = work_dir().join(format!("tmp-{}-{n}", std::process::id()));
    let mut problems = Vec::new();
    let doc = match spawn_and_wait(args, limit, &scratch, &mut problems) {
        Ok(doc) => doc,
        Err(e) => {
            problems.push(e);
            None
        }
    };
    if let Ok(entries) = std::fs::read_dir(&scratch) {
        for e in entries.flatten() {
            problems.push(format!("left behind {}", e.path().display()));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let doc = doc.unwrap_or(Json::Null);
    let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let outside = !problems.is_empty() as u64;
    let mut failures: Vec<String> = doc
        .get("failures")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();
    failures.extend(problems);
    Report {
        attempted: (count("attempted") + outside).max(1),
        failed: count("failed") + outside,
        failures,
        doc,
    }
}

fn spawn_and_wait(
    args: &[String],
    limit: Duration,
    scratch: &Path,
    problems: &mut Vec<String>,
) -> Result<Option<Json>, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    sys::become_subreaper();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(args)
        .arg(scratch)
        .env("TMPDIR", scratch)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("spawning child: {e}"))?;
    let pgid = child.id();
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let mut timed_out = false;
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("waiting for child: {e}"))?
        {
            Some(status) => break status,
            None if started.elapsed() > limit => {
                problems.push(format!(
                    "time limit of {:.0} s exceeded",
                    limit.as_secs_f64()
                ));
                timed_out = true;
                sys::kill_group(pgid);
                break child.wait().map_err(|e| format!("reaping child: {e}"))?;
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    // Whatever is left of the group now are workers that outlived their
    // orchestrator (adopted by this process, see `become_subreaper`): a leak
    // unless the time limit just killed them. End them and wait for them —
    // a live one would also keep the pipe open and the reader waiting.
    if sys::group_alive(pgid) {
        if !timed_out {
            problems.push("a process of the run was still alive after it ended".into());
        }
        sys::kill_group(pgid);
        sys::reap_orphans();
    }
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    if !status.success() {
        problems.push(format!("child ended with {status}"));
    }
    Ok(text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Json::parse(l).ok()))
}
