//! # simbricks-replay
//!
//! Time-travel replay over checkpoint rings. A ring directory (recorded by
//! `simbricks-run --checkpoint-ring` or [`record_ring`]) holds the exact
//! scenario text, ring metadata, and a bounded set of whole-experiment SBCK
//! snapshots taken at every multiple of the ring period. Because every
//! SimBricks run is bit-deterministic, those snapshots are enough to
//!
//! * **seek** — restore the newest snapshot at or below any virtual time `t`
//!   and step forward to exactly `t`, exposing the kernel clocks, per-port
//!   pending queue depths, event-log tails, and model state at that instant
//!   ([`Replay::seek`]);
//! * **bisect** — given two rings of the same scenario (or a ring and a live
//!   re-run), find the *first* event where their logs diverge
//!   ([`Replay::bisect`], [`bisect`]).
//!
//! The bisect never materializes full logs for whole runs. Each side is
//! replayed once in *fingerprint-only* mode: the restored log prefix folds
//! into per-epoch FNV accumulators (one epoch per ring period) and the tail
//! is re-simulated from the newest snapshot, yielding one fingerprint per
//! (component, epoch) in O(epochs) memory. Comparing the fingerprint vectors
//! pins the first divergent epoch; a second replay per side restores the
//! newest snapshot at or below that epoch's start, materializes only the
//! window, and a labeled merge (ordered by virtual time, component build
//! order, record order — the same total order as [`EventLog::merge`])
//! reports the first differing entry. Four replays in the worst case, two
//! when the runs are identical — within the ⌈log2(epochs)⌉+1 budget a
//! snapshot-space binary search would need, without its per-probe replays.

use std::path::{Path, PathBuf};

use simbricks_base::{EventLog, KernelStats, LogEntry, PortId, SimTime};
use simbricks_runner::{
    ring_entries, Execution, Experiment, PartitionBuilder, RingMeta, RunResult, RING_SCENARIO_FILE,
};
use simbricks_scenario::build_from_toml;

/// Rebuilds an experiment from the recorded scenario text. Ring directories
/// written by `simbricks-run` rebuild through the TOML lowering
/// ([`simbricks_scenario::build_from_toml`]); tests and embedders may
/// substitute any deterministic build of the same topology.
pub type BuildFn = fn(&str, &mut PartitionBuilder);

/// A replayable checkpoint ring: metadata, scenario text, and the snapshot
/// files found on disk, oldest first.
pub struct Replay {
    dir: PathBuf,
    meta: RingMeta,
    scenario: String,
    entries: Vec<(SimTime, PathBuf)>,
    build: BuildFn,
}

impl Replay {
    /// Open a ring directory recorded from a TOML scenario.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with(dir, build_from_toml)
    }

    /// Open a ring directory whose experiment is rebuilt by `build` instead
    /// of the TOML lowering (the scenario text is passed through verbatim).
    pub fn open_with(dir: impl Into<PathBuf>, build: BuildFn) -> Result<Self, String> {
        let dir = dir.into();
        let meta = RingMeta::read_from(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let spath = dir.join(RING_SCENARIO_FILE);
        let scenario = std::fs::read_to_string(&spath)
            .map_err(|e| format!("read {}: {e}", spath.display()))?;
        let entries = ring_entries(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Replay {
            dir,
            meta,
            scenario,
            entries,
            build,
        })
    }

    /// The directory this ring was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ring metadata (scenario name, period, keep bound, run end).
    pub fn meta(&self) -> &RingMeta {
        &self.meta
    }

    /// Exact scenario text the ring was recorded from.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Snapshots on disk as (virtual time, path), oldest first.
    pub fn entries(&self) -> &[(SimTime, PathBuf)] {
        &self.entries
    }

    fn build_experiment(&self) -> Experiment {
        let mut pb = PartitionBuilder::new_local();
        (self.build)(&self.scenario, &mut pb);
        pb.into_experiment()
    }

    /// Rebuild the experiment and restore the newest snapshot at or below
    /// `t` (a fresh build from virtual time zero when the ring holds none).
    /// Returns the experiment and the time it now stands at.
    pub fn restore_to(&self, t: SimTime) -> Result<(Experiment, SimTime), String> {
        let mut exp = self.build_experiment();
        match self.entries.iter().rev().find(|(at, _)| *at <= t) {
            Some((at, path)) => {
                exp.restore(path)
                    .map_err(|e| format!("restore {}: {e}", path.display()))?;
                Ok((exp, *at))
            }
            None => Ok((exp, SimTime::ZERO)),
        }
    }

    /// Seek to virtual time `t`: restore the newest snapshot at or below `t`,
    /// deterministically step every component forward to exactly `t`, and
    /// capture the state there. `t` must lie before the recorded run end.
    pub fn seek(&self, t: SimTime) -> Result<SeekState, String> {
        if t >= self.meta.end {
            return Err(format!(
                "seek time {t} is at or past the recorded run end {}",
                self.meta.end
            ));
        }
        let (mut exp, from) = self.restore_to(t)?;
        if t > from {
            exp.freeze_at(t)
                .map_err(|e| format!("stepping from {from} to {t}: {e}"))?;
        }
        SeekState::capture(&exp, t, from)
    }

    /// Bisect this ring against another ring of the same scenario. See
    /// [`bisect`].
    pub fn bisect(&self, other: &Replay) -> Result<BisectReport, String> {
        bisect(&Side::Ring(self), &Side::Ring(other))
    }

    /// Bisect this ring against a live re-run: side B has no snapshots, so
    /// its two replays both start from virtual time zero, rebuilt by `build`
    /// from `scenario`.
    pub fn bisect_live(&self, scenario: &str, build: BuildFn) -> Result<BisectReport, String> {
        bisect(&Side::Ring(self), &Side::Live { scenario, build })
    }
}

// ---------------------------------------------------------------------------
// Seek
// ---------------------------------------------------------------------------

/// Frozen state of one component at a seek time.
pub struct ComponentState {
    pub name: String,
    /// Kernel clock (equals the seek time once frozen).
    pub now: SimTime,
    /// Kernel counters. Sync counters (`syncs_sent`, pause promises) depend
    /// on the checkpoint schedule and are excluded from [`Self::sim_eq`];
    /// everything simulation-visible must match a fresh run bit for bit.
    pub stats: KernelStats,
    /// Pending message depth per port, in port order.
    pub port_pending: Vec<usize>,
    /// Full event log up to the seek time (the restored snapshot carries the
    /// prefix). Fingerprint-only logs carry accumulators, not entries.
    pub log: EventLog,
    /// Encoded model state (without the kernel record).
    pub model_state: Vec<u8>,
}

impl ComponentState {
    /// Bit-equality of everything the simulation can observe: clock, event
    /// log, per-port queue depths, and model state. Kernel sync counters are
    /// deliberately excluded — quiescing emits pause promises, so a
    /// ring-recording run legitimately sends more SYNCs than an
    /// uninterrupted one while computing the exact same simulation.
    pub fn sim_eq(&self, other: &ComponentState) -> bool {
        self.name == other.name
            && self.now == other.now
            && self.port_pending == other.port_pending
            && self.model_state == other.model_state
            && self.log.recorded() == other.log.recorded()
            && self.log.entries() == other.log.entries()
            && self.log.fingerprint() == other.log.fingerprint()
    }
}

/// Snapshot of the whole experiment at a seek time, in component build order.
pub struct SeekState {
    /// The seek time (every component's clock stands exactly here).
    pub time: SimTime,
    /// Ring entry the seek restored from (zero for a fresh build).
    pub restored_from: SimTime,
    pub components: Vec<ComponentState>,
}

impl SeekState {
    /// Capture the state of a quiesced experiment. Public so harnesses can
    /// compare a seek against a fresh run they froze themselves.
    pub fn capture(exp: &Experiment, t: SimTime, from: SimTime) -> Result<Self, String> {
        let models = exp
            .model_states()
            .map_err(|e| format!("snapshotting model state: {e}"))?;
        let mut components = Vec::new();
        for (i, name) in exp.component_names().into_iter().enumerate() {
            let k = exp.kernel(i);
            components.push(ComponentState {
                name,
                now: k.now(),
                stats: k.stats(),
                port_pending: (0..k.num_ports())
                    .map(|p| k.port_pending(PortId(p)))
                    .collect(),
                log: k.event_log().clone(),
                model_state: models[i].clone(),
            });
        }
        Ok(SeekState {
            time: t,
            restored_from: from,
            components,
        })
    }

    /// [`ComponentState::sim_eq`] across every component, in order.
    pub fn sim_eq(&self, other: &SeekState) -> bool {
        self.time == other.time
            && self.components.len() == other.components.len()
            && self
                .components
                .iter()
                .zip(&other.components)
                .all(|(a, b)| a.sim_eq(b))
    }
}

// ---------------------------------------------------------------------------
// Bisect
// ---------------------------------------------------------------------------

/// One side of a bisect.
pub enum Side<'a> {
    /// A recorded ring: replays restore from its snapshots.
    Ring(&'a Replay),
    /// A live re-run: no snapshots, every replay starts from virtual time
    /// zero, rebuilt by `build` from `scenario`.
    Live { scenario: &'a str, build: BuildFn },
}

impl Side<'_> {
    fn restored(&self, t: SimTime) -> Result<(Experiment, SimTime), String> {
        match self {
            Side::Ring(r) => r.restore_to(t),
            Side::Live { scenario, build } => {
                let mut pb = PartitionBuilder::new_local();
                build(scenario, &mut pb);
                Ok((pb.into_experiment(), SimTime::ZERO))
            }
        }
    }
}

/// The first divergent event between two runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Epoch (of the ring period) the fingerprint pass pinned.
    pub epoch: usize,
    /// Virtual time of the first divergent event.
    pub time: SimTime,
    /// Component the divergent entry belongs to.
    pub component: String,
    /// Side A's entry at the divergence point (`None`: A's log ended here).
    pub a: Option<LogEntry>,
    /// Side B's entry at the divergence point (`None`: B's log ended here).
    pub b: Option<LogEntry>,
}

/// Outcome of a bisect.
pub struct BisectReport {
    /// Epoch length used for the fingerprint comparison (the ring period).
    pub period: SimTime,
    /// Number of epochs covering the run.
    pub epochs: usize,
    /// Replays spent: 2 for identical runs, 4 when a divergence was pinned —
    /// always within the ⌈log2(epochs)⌉+1 budget of a snapshot binary search.
    pub replays: usize,
    /// `None` when the runs are bit-identical.
    pub divergence: Option<Divergence>,
}

/// Per-component fingerprint vectors for a whole run: one replay, restored
/// from the side's newest snapshot with the log prefix folded into
/// fingerprint-only accumulators, then re-simulated to the end.
fn epoch_fps(
    side: &Side<'_>,
    period: SimTime,
    epochs: usize,
) -> Result<Vec<(String, Vec<u64>)>, String> {
    let (mut exp, _) = side.restored(SimTime::from_ps(u64::MAX))?;
    if exp.component_names().is_empty() {
        return Err("experiment has no components".into());
    }
    if !exp.kernel(0).event_log().is_enabled() {
        return Err(
            "run was recorded without event logs (set `log = true` in the scenario)".into(),
        );
    }
    exp.convert_logs_fingerprint_only(period);
    let r = exp.run(Execution::Sequential);
    r.component_names
        .iter()
        .zip(&r.logs)
        .map(|(name, log)| {
            let fps = log
                .epoch_fingerprints(period, epochs)
                .ok_or_else(|| format!("{name}: log epoch does not match the ring period"))?;
            Ok((name.clone(), fps))
        })
        .collect()
}

/// Materialize one epoch's entries for a side: restore the newest snapshot
/// at or below the epoch start, reset the logs (dropping the restored
/// prefix), run to the epoch end, and return the window's entries labeled
/// with their component index — ordered by (time, component, record order),
/// the same total order as [`EventLog::merge`].
fn epoch_window(
    side: &Side<'_>,
    epoch: usize,
    period: SimTime,
) -> Result<Vec<(usize, LogEntry)>, String> {
    let start = SimTime::from_ps(epoch as u64 * period.as_ps());
    let (mut exp, _) = side.restored(start)?;
    let end = exp.end_time();
    let stop = SimTime::from_ps(((epoch as u64 + 1) * period.as_ps()).min(end.as_ps()));
    exp.reset_logs_materialized();
    let logs: Vec<EventLog> = if stop < end {
        exp.freeze_at(stop)
            .map_err(|e| format!("replaying epoch {epoch} to {stop}: {e}"))?;
        (0..exp.component_names().len())
            .map(|i| exp.kernel(i).event_log().clone())
            .collect()
    } else {
        exp.run(Execution::Sequential).logs
    };
    let mut window: Vec<(SimTime, usize, usize, LogEntry)> = Vec::new();
    for (ci, log) in logs.iter().enumerate() {
        for (ei, entry) in log.entries().iter().enumerate() {
            if entry.time >= start && entry.time < stop {
                window.push((entry.time, ci, ei, *entry));
            }
        }
    }
    window.sort_by_key(|&(t, ci, ei, _)| (t, ci, ei));
    Ok(window.into_iter().map(|(_, ci, _, e)| (ci, e)).collect())
}

/// Find the first divergent event between two runs of the same scenario.
///
/// Pass 1 (one replay per side): per-epoch, per-component FNV fingerprints
/// of the complete logs, compared epoch by epoch. Identical vectors means
/// bit-identical runs — done in 2 replays. Pass 2 (one more replay per
/// side): only the first divergent epoch is materialized and its labeled
/// merge compared entry by entry.
pub fn bisect(a: &Side<'_>, b: &Side<'_>) -> Result<BisectReport, String> {
    let (period, end) = match (a, b) {
        (Side::Ring(ra), Side::Ring(rb)) => {
            if ra.meta.period != rb.meta.period {
                return Err(format!(
                    "ring periods differ ({} vs {}); re-record with matching --ring-period",
                    ra.meta.period, rb.meta.period
                ));
            }
            if ra.meta.end != rb.meta.end {
                return Err(format!(
                    "run ends differ ({} vs {}); the rings record different scenarios",
                    ra.meta.end, rb.meta.end
                ));
            }
            (ra.meta.period, ra.meta.end)
        }
        (Side::Ring(r), Side::Live { .. }) | (Side::Live { .. }, Side::Ring(r)) => {
            (r.meta.period, r.meta.end)
        }
        (Side::Live { .. }, Side::Live { .. }) => {
            return Err("at least one side of a bisect must be a recorded ring".into())
        }
    };
    let epochs = end.as_ps().div_ceil(period.as_ps()) as usize;

    let fa = epoch_fps(a, period, epochs)?;
    let fb = epoch_fps(b, period, epochs)?;
    let names_a: Vec<&String> = fa.iter().map(|(n, _)| n).collect();
    let names_b: Vec<&String> = fb.iter().map(|(n, _)| n).collect();
    if names_a != names_b {
        return Err(format!(
            "component sets differ (A: {names_a:?}, B: {names_b:?}); \
             the runs are not the same scenario"
        ));
    }

    let divergent_epoch =
        (0..epochs).find(|&e| fa.iter().zip(&fb).any(|((_, va), (_, vb))| va[e] != vb[e]));
    let Some(epoch) = divergent_epoch else {
        return Ok(BisectReport {
            period,
            epochs,
            replays: 2,
            divergence: None,
        });
    };

    let wa = epoch_window(a, epoch, period)?;
    let wb = epoch_window(b, epoch, period)?;
    for i in 0..wa.len().max(wb.len()) {
        let (ea, eb) = (wa.get(i), wb.get(i));
        if ea == eb {
            continue;
        }
        // The streams first differ here. The divergent event is whichever
        // entry sorts earlier in the merge order; on a same-slot payload
        // mismatch both sides are reported.
        let first = match (ea, eb) {
            (Some(x), Some(y)) => {
                if (y.1.time, y.0) < (x.1.time, x.0) {
                    y
                } else {
                    x
                }
            }
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => unreachable!("i < max(len, len)"),
        };
        return Ok(BisectReport {
            period,
            epochs,
            replays: 4,
            divergence: Some(Divergence {
                epoch,
                time: first.1.time,
                component: fa[first.0].0.clone(),
                a: ea.map(|(_, e)| *e),
                b: eb.map(|(_, e)| *e),
            }),
        });
    }
    Err(format!(
        "epoch {epoch} fingerprints differ but its materialized windows are \
         identical — the replay is not deterministic; run `simcheck` and the \
         determinism matrix"
    ))
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Record a checkpoint ring into `dir` while running `scenario` (rebuilt by
/// `build`) under `exec`: snapshots at every multiple of `period` (pruned to
/// the newest `keep`, 0 = keep all) plus the `RING.meta` / scenario sidecars
/// that [`Replay::open_with`] needs. The build must enable event logging.
pub fn record_ring(
    dir: impl Into<PathBuf>,
    scenario: &str,
    build: BuildFn,
    exec: Execution,
    period: SimTime,
    keep: usize,
) -> Result<RunResult, String> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut pb = PartitionBuilder::new_local();
    build(scenario, &mut pb);
    let mut exp = pb.into_experiment();
    let end = exp.end_time();
    exp.set_checkpoint_ring(period, keep);
    exp.set_ring_dir(dir.clone());
    let r = exp.run(exec);
    let meta = RingMeta {
        name: r.name.clone(),
        period,
        keep,
        end,
    };
    meta.write_to(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let spath = dir.join(RING_SCENARIO_FILE);
    std::fs::write(&spath, scenario).map_err(|e| format!("write {}: {e}", spath.display()))?;
    Ok(r)
}
