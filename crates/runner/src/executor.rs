//! The partition loop: the one loop that steps kernels, whatever the
//! executor.
//!
//! A partition is a contiguous slice of an experiment's components stepped
//! round robin by one thread, the tcp link pumps it owns (all belong to
//! partition 0), and one wait policy: `Sequential` is one partition on the
//! caller's thread, `Sharded { workers: n }` is `min(n, components)`. Each
//! partition owns its kernels by `&mut`, so nothing is locked (§5.2, §5.4).
//!
//! A round is *active* when a kernel advanced, finished or moved a message
//! ([`WakeHint::moved`](simbricks_base::WakeHint)). With several partitions,
//! every active round bumps a shared counter, and an idle round records the
//! count read when it began: the run is stuck once every unfinished partition
//! has recorded the current count. With one partition that is one idle round.
//! The rule is off without synchronization or with external inputs. See
//! `docs/ARCHITECTURE.md` ("Executors") for the frontier and the wait policy.
//! The loop only changes *when* each kernel polls, never what it observes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use simbricks_base::{SimTime, StepOutcome};

use crate::experiment::Component;
use crate::proxy::{pump_all, TcpPump};

/// Clock advances a kernel may make per step before the loop moves on.
const BATCH: usize = 512;
/// Idle rounds a synchronized partition yields before it sleeps 20 µs per
/// round: the spin must outlast a peer's compute between two promises, or
/// two partitions polling each other's rings lock into sleeping turns.
const SPIN_ROUNDS: u32 = 4096;
/// Idle rounds after which an in-process quiesce has failed.
const QUIESCE_IDLE_LIMIT: u32 = 10_000;
/// Wall-clock bound on a quiesce that waits for other processes.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(120);
/// `idle_at` of a partition whose components all finished, and of one that
/// has not finished an idle round yet.
const DONE: u64 = u64::MAX;
const UNSEEN: u64 = u64::MAX - 1;

/// What the partitions run towards.
#[derive(Clone, Copy)]
pub(crate) enum Goal {
    /// Every component finished.
    End,
    /// Every component quiesced at this checkpoint time; ports are polled
    /// after every round so in-flight messages settle.
    Quiesce(SimTime),
}

/// Run-wide settings every partition reads.
pub(crate) struct Config<'a> {
    pub synchronized: bool,
    /// Some channels are fed from outside the experiment (§5.4).
    pub external_inputs: bool,
    /// Raised by the first component to finish an unsynchronized run.
    pub stop: &'a AtomicBool,
    /// The experiment's progress counter (picoseconds).
    pub frontier: &'a AtomicU64,
    /// The clock a finished partition reports.
    pub end: SimTime,
}

/// State the partitions of one run share.
struct Shared {
    /// Per partition: its minimum unfinished clock (picoseconds), 0 until
    /// it first publishes.
    clocks: Vec<AtomicU64>,
    /// Per partition: the active count read at the start of its last idle
    /// round, or [`UNSEEN`] / [`DONE`].
    idle_at: Vec<AtomicU64>,
    /// Active rounds over all partitions (counted only with more than one).
    /// The Release bump after a round pairs with the Acquire load that
    /// starts the next one: a partition that reads a count also sees every
    /// message sent in the rounds it counts.
    active: AtomicU64,
    /// Stuck, or a partition panicked: the others return.
    halt: AtomicBool,
}

/// Raises `halt` if a partition's thread unwinds, so the others return
/// instead of waiting for kernels that will never move again.
struct HaltOnPanic<'a>(&'a AtomicBool);

impl Drop for HaltOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Step `comps` towards `goal` in `parts` partitions (clamped to the
/// component count) of contiguous components; partition 0 also pumps
/// `pumps`. Returns false when the run is stuck: nothing can move any more,
/// a quiesce saw [`QUIESCE_IDLE_LIMIT`] idle rounds, or one with external
/// inputs outwaited [`QUIESCE_TIMEOUT`].
pub(crate) fn run(
    comps: &mut [Component],
    pumps: &mut [TcpPump],
    parts: usize,
    goal: Goal,
    cfg: &Config<'_>,
) -> bool {
    let len = comps.len();
    let parts = parts.clamp(1, len.max(1));
    let mut slices = Vec::with_capacity(parts);
    let mut rest = comps;
    for p in 0..parts {
        let (head, tail) = rest.split_at_mut((p + 1) * len / parts - p * len / parts);
        slices.push(head);
        rest = tail;
    }
    let shared = Shared {
        clocks: (0..parts).map(|_| AtomicU64::new(0)).collect(),
        idle_at: (0..parts).map(|_| AtomicU64::new(UNSEEN)).collect(),
        active: AtomicU64::new(0),
        halt: AtomicBool::new(false),
    };
    let mut slices = slices.into_iter();
    let first = slices.next().expect("one partition");
    let reached = std::thread::scope(|scope| {
        for (i, comps) in slices.enumerate() {
            let shared = &shared;
            scope.spawn(move || run_partition(i + 1, comps, &mut [], goal, cfg, shared));
        }
        run_partition(0, first, pumps, goal, cfg, &shared)
    });
    reached && !shared.halt.load(Ordering::Relaxed)
}

/// Minimum clock (picoseconds) over the unfinished components, `end` when
/// there are none.
fn min_clock(comps: &[Component], end: SimTime) -> u64 {
    comps
        .iter()
        .filter(|c| !c.kernel.is_finished())
        .map(|c| c.kernel.now().as_ps())
        .min()
        .unwrap_or(end.as_ps())
}

/// One partition's loop; see [`run`].
fn run_partition(
    index: usize,
    comps: &mut [Component],
    pumps: &mut [TcpPump],
    goal: Goal,
    cfg: &Config<'_>,
    shared: &Shared,
) -> bool {
    let _guard = HaltOnPanic(&shared.halt);
    let multi = shared.idle_at.len() > 1;
    let started = Instant::now();
    let mut rounds: u32 = 0;
    let mut idle_rounds: u32 = 0;
    loop {
        if rounds & 0x3f == 0 {
            // Publish this partition's clock; the frontier is the minimum
            // over partitions.
            shared.clocks[index].store(min_clock(comps, cfg.end), Ordering::Relaxed);
            let min = shared.clocks.iter().map(|c| c.load(Ordering::Relaxed));
            cfg.frontier
                .fetch_max(min.min().unwrap_or(0), Ordering::Relaxed);
            if shared.halt.load(Ordering::Relaxed) {
                return false;
            }
        }
        rounds = rounds.wrapping_add(1);
        let seen = if multi {
            shared.active.load(Ordering::Acquire)
        } else {
            0
        };

        let (mut progressed, mut moved, mut unfinished) = (false, false, 0);
        for c in comps.iter_mut() {
            if c.kernel.is_finished() {
                continue;
            }
            match c.kernel.step(c.model.as_model(), BATCH) {
                StepOutcome::Finished => {
                    progressed = true;
                    if !cfg.synchronized {
                        // Emulation mode: the workload is done, stop the rest.
                        cfg.stop.store(true, Ordering::Relaxed);
                    }
                }
                StepOutcome::Progressed => progressed = true,
                StepOutcome::Blocked(hint) => moved |= hint.moved,
                StepOutcome::Paused => {}
            }
            unfinished += usize::from(!c.kernel.is_finished());
        }
        progressed |= pump_all(pumps);
        // Before a finished partition reports DONE: its last round can carry
        // what a peer still waits for.
        if multi && (progressed || moved) {
            shared.active.fetch_add(1, Ordering::Release);
        }

        match goal {
            Goal::End => {
                let others_done = || {
                    shared
                        .idle_at
                        .iter()
                        .enumerate()
                        .all(|(i, a)| i == index || a.load(Ordering::Acquire) == DONE)
                };
                if unfinished == 0 && (pumps.is_empty() || others_done()) {
                    shared.idle_at[index].store(DONE, Ordering::SeqCst);
                    shared.clocks[index].store(cfg.end.as_ps(), Ordering::Relaxed);
                    return true;
                }
            }
            Goal::Quiesce(at) => {
                for c in comps.iter_mut() {
                    c.kernel.checkpoint_poll();
                }
                if comps.iter().all(|c| c.kernel.quiesced_at(at)) {
                    return true;
                }
            }
        }
        if progressed {
            idle_rounds = 0;
            continue;
        }
        match goal {
            Goal::End if cfg.synchronized && !cfg.external_inputs && !moved => {
                if !multi {
                    return false;
                }
                // The count is read after the slots: a DONE read there
                // comes with the bump of that partition's last round.
                shared.idle_at[index].store(seen, Ordering::SeqCst);
                let idle = |a: &AtomicU64| [seen, DONE].contains(&a.load(Ordering::SeqCst));
                if shared.idle_at.iter().all(idle) && shared.active.load(Ordering::SeqCst) == seen {
                    shared.halt.store(true, Ordering::Relaxed);
                    return false;
                }
            }
            Goal::End => {}
            // Remote partitions quiesce on their own wall-clock schedule;
            // their pause promises arrive through the cross links.
            Goal::Quiesce(_) if cfg.external_inputs => {
                if started.elapsed() > QUIESCE_TIMEOUT {
                    return false;
                }
            }
            Goal::Quiesce(_) => {
                if idle_rounds >= QUIESCE_IDLE_LIMIT {
                    return false;
                }
            }
        }
        idle_rounds = idle_rounds.saturating_add(1);
        if !cfg.synchronized {
            // Emulation mode: the kernels wait for the wall clock; wait
            // with them.
            std::thread::sleep(Duration::from_micros(100));
        } else if idle_rounds < SPIN_ROUNDS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}
