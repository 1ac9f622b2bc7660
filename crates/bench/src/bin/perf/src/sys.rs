//! What the benchmark asks of the operating system (Linux): CPU time and peak
//! memory of this process and the children it has waited for, a wall clock
//! that other processes share, and ending a whole process group.

use std::time::{Duration, SystemTime, UNIX_EPOCH};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then fourteen
/// `long`s of which only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

const PR_SET_CHILD_SUBREAPER: i32 = 36;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills for this target; `who` is one of the two constants above.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

fn cpu_of(ru: &Rusage) -> Duration {
    let tv = |t: Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    tv(ru.utime) + tv(ru.stime)
}

/// User plus system CPU time of this process (all threads) and of every
/// child it has waited for — dist worker processes are reaped by the
/// orchestrator before it returns, so a difference of two readings around a
/// run is what the run cost in cores.
pub fn cpu_time() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Largest resident set, in MiB, of this process so far (`ru_maxrss`, which
/// Linux keeps in KiB and `/proc/self/status` shows as `VmHWM`).
pub fn own_peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

/// Largest resident set, in MiB, of any one child waited for so far.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// Nanoseconds since the Unix epoch: the one clock a worker process and its
/// orchestrator can compare.
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Kill every process of group `pgid`. Returns whether any was still there.
pub fn kill_group(pgid: u32) -> bool {
    // SAFETY: `kill` takes plain integers; a negative pid addresses the
    // process group, and a group that is already gone is reported as ESRCH.
    unsafe { kill(-(pgid as i32), SIGKILL) == 0 }
}

/// Whether any process of group `pgid` still exists (signal 0 only probes).
pub fn group_alive(pgid: u32) -> bool {
    // SAFETY: as in `kill_group`; signal 0 delivers nothing.
    unsafe { kill(-(pgid as i32), 0) == 0 }
}

/// Have orphaned descendants re-parented to this process, so that workers
/// whose orchestrator was killed can be waited for here instead of being
/// left to whatever runs as process 1.
pub fn become_subreaper() {
    // SAFETY: `prctl` with this option takes one integer flag and touches no
    // memory of ours; failure (an old kernel) only means orphans go to init.
    unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) };
}

/// Wait for every remaining child of this process, adopted ones included.
/// Call only when no `std::process::Child` of ours is still to be waited for.
pub fn reap_orphans() {
    let mut status = 0i32;
    // SAFETY: `status` is a live `int`; -1 asks for any child, and the loop
    // ends when there is none left (ECHILD).
    while unsafe { waitpid(-1, &mut status, 0) } > 0 {}
}

/// Logical cores this process may run on.
pub fn machine_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
