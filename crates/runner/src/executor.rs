//! Sharded work-stealing executor: many kernels over a fixed worker pool.
//!
//! [`Execution::Sequential`](crate::Execution::Sequential) steps every
//! component cooperatively on one core. This module schedules all kernels of
//! an experiment over a fixed pool of workers instead (§5.5 scalability
//! claim at local scale); with one worker per component it is the paper's
//! one-simulator-per-core layout, and with fewer it does not oversubscribe
//! the machine when components ≫ cores:
//!
//! * **Sharding.** Components are split into contiguous shards, one per
//!   worker. Each worker sweeps its own shard first, which keeps a kernel on
//!   the same core across polls (warm caches for its event queue and ports).
//! * **Work stealing.** A worker whose shard yields no progress sweeps the
//!   other shards. Every component is guarded by its own [`Mutex`];
//!   `try_lock` makes stealing race-free without a global scheduler lock,
//!   and a failed `try_lock` just means another worker is already stepping
//!   that kernel.
//! * **Parking.** A kernel whose [`Kernel::step`] returns
//!   [`StepOutcome::Blocked`] with a parkable
//!   [`WakeHint`](simbricks_base::WakeHint) is skipped until
//!   [`Kernel::has_new_input`] sees a fresh message on one of its SPSC
//!   queues — a cheap peek at one queue slot per port, instead of a full
//!   poll/bound recomputation. The SimBricks synchronization protocol
//!   guarantees this is lossless: a blocked synchronized kernel can only be
//!   unblocked by a new message (promise) from a peer.
//!
//! Cross-shard communication needs no extra machinery: components already
//! exchange messages through the lock-free SPSC channel pairs created at
//! wiring time, which work identically within and across shards. A
//! distributed partition's tcp links are pumped by whichever worker takes
//! their lock at the start of a sweep.
//!
//! Determinism: the executor only changes *when* (in wall-clock time) each
//! kernel polls; the §5.5 protocol fixes *what* every kernel observes at
//! every virtual time. Sequential and sharded runs therefore produce
//! bit-identical event logs (asserted by `tests/integration_determinism.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use simbricks_base::{Kernel, Model, StepOutcome};

use crate::proxy::{pump_all, TcpPump};

/// `max_steps` passed to each [`Kernel::step`] call: how many clock advances
/// a kernel may make before the worker moves on.
const BATCH: usize = 512;

/// Worker count used when none is configured: `SIMBRICKS_WORKERS` if set,
/// otherwise the machine's available parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("SIMBRICKS_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One schedulable component: its kernel plus its model, mutably borrowed
/// from the experiment for the duration of the run.
pub(crate) struct Unit<'a> {
    pub name: &'a str,
    pub kernel: &'a mut Kernel,
    pub model: &'a mut dyn Model,
}

/// Mutable per-component scheduling state, guarded by the slot mutex.
struct UnitState<'a> {
    unit: Unit<'a>,
    /// Blocked with a parkable hint: skip until new input (or a force pass).
    parked: bool,
    done: bool,
}

struct Slot<'a> {
    state: Mutex<UnitState<'a>>,
    /// Lock-free mirror of `done` so sweeps skip finished slots without
    /// touching the mutex.
    finished: AtomicBool,
    /// Lock-free mirror of the kernel's clock (picoseconds), refreshed after
    /// every step: the partition frontier is the minimum over unfinished
    /// slots.
    clock: AtomicU64,
}

/// How many consecutive no-progress sweeps a worker tolerates before it
/// force-steps parked kernels too (safety valve against a missed wakeup).
const FORCE_AFTER_IDLE: u32 = 64;

/// Wall-clock time without global progress after which a synchronized run is
/// declared deadlocked.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Run every unit to completion on `workers` worker threads (clamped to the
/// unit count), pumping `pumps` (the partition's tcp links) along the way.
///
/// `external_inputs` says some channels are fed by another OS process
/// (distributed partition, §5.4): "everything blocked" is then a normal
/// transient state — a remote promise can arrive at any wall-clock moment —
/// so the deadlock detector is disabled. `stop` is the experiment's shared
/// stop flag: in unsynchronized (emulation) runs the first component to
/// finish raises it so free-running peers terminate; the executor also uses
/// it to force-wake parked kernels. `frontier` receives the minimum clock
/// (picoseconds) over unfinished kernels every few sweeps, for heartbeats
/// and virtual-time fault schedules.
pub(crate) fn run_sharded(
    units: Vec<Unit<'_>>,
    pumps: &mut [TcpPump],
    workers: usize,
    external_inputs: bool,
    stop: &AtomicBool,
    synchronized: bool,
    frontier: &AtomicU64,
) {
    let n = units.len();
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    let slots: Vec<Slot> = units
        .into_iter()
        .map(|unit| Slot {
            clock: AtomicU64::new(unit.kernel.now().as_ps()),
            state: Mutex::new(UnitState {
                unit,
                parked: false,
                done: false,
            }),
            finished: AtomicBool::new(false),
        })
        .collect();
    let finished = AtomicUsize::new(0);
    // Monotone counter bumped on every productive sweep; workers use it to
    // notice global progress (and its absence, for deadlock detection).
    let progress = AtomicU64::new(0);
    let pumps = (!pumps.is_empty()).then(|| Mutex::new(pumps));

    std::thread::scope(|scope| {
        for w in 0..workers {
            let slots = &slots;
            let finished = &finished;
            let progress = &progress;
            let pumps = pumps.as_ref();
            scope.spawn(move || {
                worker_loop(
                    w,
                    workers,
                    slots,
                    pumps,
                    finished,
                    progress,
                    frontier,
                    stop,
                    synchronized,
                    external_inputs,
                );
            });
        }
    });
}

/// Step one component if it is runnable. Returns true when the step made
/// progress (advanced or finished), false when the slot was skipped, already
/// locked by another worker, or blocked.
fn try_step(
    slot: &Slot<'_>,
    force: bool,
    finished: &AtomicUsize,
    stop: &AtomicBool,
    synchronized: bool,
) -> bool {
    if slot.finished.load(Ordering::Relaxed) {
        return false;
    }
    let Ok(mut st) = slot.state.try_lock() else {
        return false;
    };
    if st.done {
        return false;
    }
    if st.parked && !force && !st.unit.kernel.has_new_input() {
        return false;
    }
    let UnitState {
        ref mut unit,
        ref mut parked,
        ref mut done,
    } = *st;
    let outcome = unit.kernel.step(unit.model, BATCH);
    slot.clock
        .store(unit.kernel.now().as_ps(), Ordering::Relaxed);
    match outcome {
        StepOutcome::Finished => {
            *done = true;
            *parked = false;
            slot.finished.store(true, Ordering::Relaxed);
            finished.fetch_add(1, Ordering::Relaxed);
            if !synchronized {
                // Emulation mode: the first component to finish (the workload
                // driver) ends the run for everyone.
                stop.store(true, Ordering::Relaxed);
            }
            true
        }
        StepOutcome::Progressed => {
            *parked = false;
            true
        }
        StepOutcome::Blocked(hint) => {
            *parked = hint.parkable;
            false
        }
        // Checkpoint pauses are orchestrated by the experiment's cooperative
        // quiesce loop before the sharded phase starts; a kernel reporting
        // Paused here is simply not runnable yet.
        StepOutcome::Paused => {
            *parked = false;
            false
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    w: usize,
    workers: usize,
    slots: &[Slot<'_>],
    pumps: Option<&Mutex<&mut [TcpPump]>>,
    finished: &AtomicUsize,
    progress: &AtomicU64,
    frontier: &AtomicU64,
    stop: &AtomicBool,
    synchronized: bool,
    external_inputs: bool,
) {
    let n = slots.len();
    // Contiguous shard [lo, hi) owned by this worker (affinity, not
    // exclusivity — any worker may step any component).
    let lo = w * n / workers;
    let hi = (w + 1) * n / workers;
    let mut idle_sweeps: u32 = 0;
    let mut sweeps: u32 = 0;
    let mut last_progress = progress.load(Ordering::Relaxed);
    let mut stalled_since: Option<Instant> = None;

    while finished.load(Ordering::Relaxed) < n {
        // Worker 0 publishes the partition frontier every few sweeps: the
        // minimum unfinished clock, below which everything is final.
        if w == 0 && sweeps & 0x3f == 0 {
            let min = slots
                .iter()
                .filter(|s| !s.finished.load(Ordering::Relaxed))
                .map(|s| s.clock.load(Ordering::Relaxed))
                .min();
            if let Some(min) = min {
                frontier.store(min, Ordering::Relaxed);
            }
        }
        sweeps = sweeps.wrapping_add(1);
        let force = stop.load(Ordering::Relaxed) || idle_sweeps >= FORCE_AFTER_IDLE;
        // Links first, so what they deliver is stepped in this sweep. A
        // worker that finds them locked leaves them to the one holding it.
        let mut progressed =
            pumps.is_some_and(|p| p.try_lock().is_ok_and(|mut p| pump_all(&mut p)));
        // Own shard first: keeps each kernel on one core in the steady state.
        for slot in &slots[lo..hi] {
            if try_step(slot, force, finished, stop, synchronized) {
                progressed = true;
            }
        }
        if !progressed {
            // Work stealing: help whoever still has runnable kernels.
            for slot in slots[hi..].iter().chain(&slots[..lo]) {
                if try_step(slot, force, finished, stop, synchronized) {
                    progressed = true;
                }
            }
        }

        if progressed {
            progress.fetch_add(1, Ordering::Relaxed);
            idle_sweeps = 0;
            stalled_since = None;
            continue;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        let seen = progress.load(Ordering::Relaxed);
        if seen != last_progress {
            last_progress = seen;
            stalled_since = None;
        } else if synchronized && !external_inputs && force {
            // No one anywhere is progressing, even with parked kernels
            // force-stepped. Give peers real wall-clock time before calling
            // it a deadlock (another worker may hold locks mid-step); a
            // distributed partition skips this entirely, since a remote
            // promise can legitimately take arbitrarily long.
            let since = *stalled_since.get_or_insert_with(Instant::now);
            if since.elapsed() > DEADLOCK_TIMEOUT {
                panic!(
                    "deadlock in sharded execution: {} of {} components blocked: {}",
                    n - finished.load(Ordering::Relaxed),
                    n,
                    describe_blocked(slots)
                );
            }
        }
        if synchronized {
            std::thread::yield_now();
        } else {
            // Emulation mode: components wait for the wall clock; wait with
            // them instead of burning the core.
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Best-effort state dump for the deadlock panic (skips slots another worker
/// holds locked). Re-steps each blocked kernel once to report what it is
/// waiting for (the [`WakeHint`](simbricks_base::WakeHint) next-event time).
fn describe_blocked(slots: &[Slot<'_>]) -> String {
    let mut out = Vec::new();
    for slot in slots {
        if slot.finished.load(Ordering::Relaxed) {
            continue;
        }
        if let Ok(mut st) = slot.state.try_lock() {
            let UnitState { ref mut unit, .. } = *st;
            let waiting = match unit.kernel.step(unit.model, 1) {
                StepOutcome::Blocked(hint) => format!(" next_event={}", hint.next_event),
                _ => String::new(),
            };
            out.push(format!("{}@{}{}", unit.name, unit.kernel.now(), waiting));
        }
    }
    out.join(", ")
}
