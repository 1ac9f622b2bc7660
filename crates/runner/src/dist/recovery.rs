//! The recovery core: the failure taxonomy, the fault schedule, and
//! [`Recovery`], which owns everything that outlives one fleet attempt and
//! decides, from events alone, what a failure costs and where the next
//! attempt starts. It touches no process, socket, file or clock, so it is
//! unit-tested by feeding it synthetic ring frames and failures.

use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

use simbricks_base::SimTime;

use super::DistOptions;
use crate::checkpoint::CheckpointFile;

/// Typed failure classification for distributed runs. The supervisor loop
/// produces these instead of hanging or panicking; [`DistError::retryable`]
/// failures are candidates for checkpoint-ring recovery.
#[derive(Debug)]
pub enum DistError {
    /// Invalid options or a build/options mismatch. Not retryable.
    Invalid(String),
    /// Orchestrator-local I/O failure (bind, spawn, checkpoint files, …).
    /// Not retryable: the environment, not a worker, is broken.
    Io(String),
    /// Not all workers connected to the control socket within the deadline.
    ConnectTimeout {
        /// Partitions that never connected.
        missing: Vec<String>,
    },
    /// A worker process exited before reporting its result.
    WorkerExited {
        /// The dead worker's partition.
        partition: String,
        /// Its exit status, as reported by the OS.
        status: String,
    },
    /// A worker's control connection hit EOF or an I/O error mid-run.
    ControlLost {
        /// The lost worker's partition.
        partition: String,
        /// The underlying I/O error.
        error: String,
    },
    /// No heartbeat from a worker within the tolerance window.
    HeartbeatTimeout {
        /// The silent worker's partition.
        partition: String,
        /// How long it has been silent.
        silent: Duration,
    },
    /// A worker violated the control protocol.
    Protocol {
        /// The offending worker's partition.
        partition: String,
        /// What went wrong.
        error: String,
    },
    /// An injected `sever_link` fault tore down the named link; the fleet is
    /// restarted to re-handshake it. Always retryable.
    FaultSever {
        /// The severed link's name.
        link: String,
    },
    /// A retryable failure occurred but the restart budget was spent.
    RestartsExhausted {
        /// Restarts performed before giving up.
        restarts: u32,
        /// The failure that ended the run.
        last: Box<DistError>,
        /// What recovery did manage before giving up.
        report: RecoveryReport,
    },
}

impl DistError {
    /// Whether checkpoint-ring recovery (or restart-from-zero) can address
    /// this failure. Environment and configuration errors are final.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            DistError::ConnectTimeout { .. }
                | DistError::WorkerExited { .. }
                | DistError::ControlLost { .. }
                | DistError::HeartbeatTimeout { .. }
                | DistError::FaultSever { .. }
        )
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Invalid(msg) => write!(f, "invalid distributed run: {msg}"),
            DistError::Io(msg) => write!(f, "distributed run I/O error: {msg}"),
            DistError::ConnectTimeout { missing } => {
                write!(f, "workers did not connect: {missing:?}")
            }
            DistError::WorkerExited { partition, status } => write!(
                f,
                "worker {partition:?} exited ({status}) before its result"
            ),
            DistError::ControlLost { partition, error } => write!(
                f,
                "control connection to worker {partition:?} lost: {error}"
            ),
            DistError::HeartbeatTimeout { partition, silent } => write!(
                f,
                "worker {partition:?} silent for {silent:?} (heartbeat timeout)"
            ),
            DistError::Protocol { partition, error } => {
                write!(f, "protocol violation from worker {partition:?}: {error}")
            }
            DistError::FaultSever { link } => write!(f, "injected fault severed link {link:?}"),
            DistError::RestartsExhausted { restarts, last, .. } => write!(
                f,
                "gave up after {restarts} restart(s); last failure: {last}"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e.to_string())
    }
}

/// One scheduled fault in a deterministic injection schedule
/// ([`DistOptions::faults`]). Faults are injected by the orchestrator when
/// the fleet's minimum reported virtual time reaches [`FaultSpec::at`], so a
/// schedule replays identically run over run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Virtual-time threshold: inject once every partition has progressed to
    /// at least this simulation time.
    pub at: SimTime,
    /// What to break.
    pub kind: FaultKind,
}

/// The kinds of deterministic faults the orchestrator can inject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the named partition's worker process (SIGKILL).
    KillWorker {
        /// Partition whose worker dies.
        partition: String,
    },
    /// Tear down the named cross link's proxy on both ends, forcing a fleet
    /// restart that re-handshakes every link.
    SeverLink {
        /// The cross link to sever.
        link: String,
    },
    /// Flip one bit in every partition blob of the newest complete ring slot
    /// (and the merged on-disk entry), exercising checksum rejection.
    CorruptCheckpoint,
    /// Truncate every partition blob of the newest complete ring slot (and
    /// the merged on-disk entry) to half length, exercising torn-write
    /// rejection.
    TruncateCheckpoint,
}

/// Structured end-of-run recovery report: what was injected, what broke, and
/// what recovery cost. Attached to every [`DistResult`](super::DistResult)
/// (trivial when the run was undisturbed) and to
/// [`DistError::RestartsExhausted`].
///
/// Two fields are fixed by the fault schedule and compare equal across runs
/// of one schedule: `faults_injected` and `restarts`. The other three are
/// *wall-observed*: they depend on how far the fleet had got when the
/// supervisor noticed a failure, so they may differ run over run and must
/// not be compared.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Human-readable record of each injected fault, in injection order.
    /// Fixed by the schedule: the fleet time the heartbeats showed when a
    /// fault fired is left out, so two runs with one fault schedule record
    /// the same lines.
    pub faults_injected: Vec<String>,
    /// Fleet restarts performed. Fixed by the schedule.
    pub restarts: u32,
    /// Per restart: the ring slot restored from (`None` = restart from
    /// zero). Wall-observed: the newest complete slot depends on when the
    /// failure was noticed.
    pub ring_entries_used: Vec<Option<SimTime>>,
    /// Ring entries rejected as corrupt/torn during recovery or merging.
    /// Wall-observed, like `ring_entries_used`.
    pub rejected_entries: Vec<String>,
    /// Virtual time re-simulated: the sum over restarts of (progress high
    /// water at failure − restore point). Wall-observed: the high water is
    /// what the heartbeats showed when the failure was noticed.
    pub time_lost: SimTime,
}

impl RecoveryReport {
    /// `true` when nothing noteworthy happened (no faults, no restarts).
    pub fn is_trivial(&self) -> bool {
        self.restarts == 0 && self.faults_injected.is_empty() && self.rejected_entries.is_empty()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "recovery report:")?;
        writeln!(f, "  faults injected: {}", self.faults_injected.len())?;
        for s in &self.faults_injected {
            writeln!(f, "    - {s}")?;
        }
        writeln!(f, "  restarts: {}", self.restarts)?;
        for (i, used) in self.ring_entries_used.iter().enumerate() {
            match used {
                Some(at) => writeln!(
                    f,
                    "    restart {}: restored from ring entry at {} ps",
                    i + 1,
                    at.as_ps()
                )?,
                None => writeln!(f, "    restart {}: no usable ring entry, from zero", i + 1)?,
            }
        }
        for s in &self.rejected_entries {
            writeln!(f, "  rejected ring entry: {s}")?;
        }
        write!(
            f,
            "  virtual time re-simulated: {} ps",
            self.time_lost.as_ps()
        )
    }
}

/// One ring slot: partition name → that partition's snapshot container.
pub(super) type Slot = BTreeMap<String, Vec<u8>>;

/// Raw per-partition ring snapshots, keyed by slot time. It outlives fleet
/// attempts: it is what recovery restores from.
pub(super) struct RingStore {
    slots: BTreeMap<u64, Slot>,
    partitions: usize,
}

impl RingStore {
    pub(super) fn new(partitions: usize) -> Self {
        RingStore {
            slots: BTreeMap::new(),
            partitions,
        }
    }

    /// Store `partition`'s snapshot for slot `at`; `true` when that
    /// completes the slot.
    pub(super) fn insert(&mut self, at: u64, partition: &str, blob: Vec<u8>) -> bool {
        let slot = self.slots.entry(at).or_default();
        slot.insert(partition.to_string(), blob);
        slot.len() == self.partitions
    }

    /// The slots every partition has sent its snapshot for, newest first:
    /// the one scan behind restore selection, the checkpoint-damage faults
    /// and the `keep` bound.
    pub(super) fn complete(&self) -> impl Iterator<Item = (u64, &Slot)> {
        self.slots
            .iter()
            .rev()
            .filter(|(_, parts)| parts.len() == self.partitions)
            .map(|(at, parts)| (*at, parts))
    }

    /// Pick the newest complete slot whose every snapshot *decodes cleanly*.
    /// Corrupt or torn slots are recorded in the report and older slots
    /// tried, so an injected `corrupt_checkpoint` degrades recovery by one
    /// period instead of poisoning it.
    pub(super) fn select_restore(&self, report: &mut RecoveryReport) -> Option<(u64, Slot)> {
        for (at, parts) in self.complete() {
            let mut ok = true;
            for (p, blob) in parts {
                if let Err(e) = CheckpointFile::decode(blob) {
                    report
                        .rejected_entries
                        .push(format!("slot {at} ps, partition {p:?}: {e}"));
                    ok = false;
                }
            }
            if ok {
                return Some((at, parts.clone()));
            }
        }
        None
    }
}

/// Deterministically damage an encoded checkpoint: flip one bit mid-blob
/// (checksum rejection) or truncate to half length (a torn write).
pub(super) fn damage_blob(blob: &mut Vec<u8>, truncate: bool) {
    if truncate {
        blob.truncate(blob.len() / 2);
    } else if !blob.is_empty() {
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
    }
}

/// A fault that came due, for the orchestrator to carry out.
#[derive(Debug, PartialEq)]
pub(super) enum FaultAction {
    /// Kill this partition's worker process.
    Kill(String),
    /// Send `SEVER` for this link to both its ends; the attempt then fails
    /// with [`DistError::FaultSever`].
    Sever(String),
    /// Damage the merged on-disk ring entry of slot `at` as the in-memory
    /// copy already was.
    Damage { at: u64, truncate: bool },
}

/// Everything about a distributed run that outlives one fleet attempt — the
/// fault schedule with its fired flags, the ring store, the report, the
/// restart budget and the progress high water — and the decisions made
/// from it.
pub(super) struct Recovery {
    /// Partition names, in [`DistOptions::partitions`] order.
    partitions: Vec<String>,
    /// Component names in global build order, for merging ring slots.
    global_names: Vec<String>,
    /// Each scheduled fault and whether it has fired. The flag survives
    /// fleet restarts, so each fault injects exactly once per run — a
    /// restarted fleet re-simulating past a fault's threshold does not
    /// re-trigger it.
    faults: Vec<(FaultSpec, bool)>,
    store: RingStore,
    /// Complete slots kept in memory (0 = all), like the on-disk ring.
    keep: usize,
    max_restarts: u32,
    report: RecoveryReport,
    /// The fleet's newest minimum virtual time in this attempt.
    high_water: u64,
    /// The slot the current attempt restores from.
    restore: Option<(u64, Slot)>,
}

impl Recovery {
    pub(super) fn new(opts: &DistOptions, global_names: Vec<String>) -> Self {
        Recovery {
            partitions: opts.partitions.clone(),
            global_names,
            faults: opts.faults.iter().map(|f| (f.clone(), false)).collect(),
            store: RingStore::new(opts.partitions.len()),
            keep: opts.ring.as_ref().map_or(0, |r| r.keep),
            max_restarts: opts.max_restarts,
            report: RecoveryReport::default(),
            high_water: 0,
            restore: None,
        }
    }

    /// The ring slot the current attempt restores from, if any.
    pub(super) fn restore(&self) -> Option<&(u64, Slot)> {
        self.restore.as_ref()
    }

    pub(super) fn report(&self) -> &RecoveryReport {
        &self.report
    }

    pub(super) fn into_report(self) -> RecoveryReport {
        self.report
    }

    /// Record a ring entry that could not be used.
    pub(super) fn reject(&mut self, entry: String) {
        self.report.rejected_entries.push(entry);
    }

    /// One `RING` frame: `partition`'s snapshot for slot `at`. When it
    /// completes the slot, returns the slot merged into one
    /// whole-experiment container — byte-identical to a single-process
    /// checkpoint of the same slot, so the ring restores through the
    /// ordinary local path. A part that fails to decode or merge rejects the
    /// slot (recorded) instead of failing the run: restore selection applies
    /// the same check and falls back to an older slot. The store then keeps
    /// only the newest `keep` complete slots.
    pub(super) fn on_ring(
        &mut self,
        partition: &str,
        at: u64,
        blob: Vec<u8>,
    ) -> Option<CheckpointFile> {
        if !self.store.insert(at, partition, blob) {
            return None;
        }
        let merged = self.merge(at).map_err(|e| self.reject(e)).ok();
        while self.keep > 0 {
            let Some(at) = self.store.complete().nth(self.keep).map(|(at, _)| at) else {
                break;
            };
            self.store.slots.remove(&at);
        }
        merged
    }

    fn merge(&self, at: u64) -> Result<CheckpointFile, String> {
        let parts = &self.store.slots[&at];
        let mut files = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            let blob = parts.get(p).map_or(&[][..], Vec::as_slice);
            let file = CheckpointFile::decode(blob)
                .map_err(|e| format!("merge slot {at} ps, partition {p:?}: {e}"))?;
            files.push(file);
        }
        CheckpointFile::merge(&files, &self.global_names)
            .map_err(|e| format!("merge slot {at} ps: {e}"))
    }

    /// The fleet's minimum virtual time reached `min_virt`: advance the high
    /// water and fire every fault now due, in schedule order. Faults trigger
    /// on the *minimum* so the schedule is independent of which partition
    /// runs ahead. A sever ends the attempt, so faults after it wait for the
    /// next one.
    pub(super) fn on_progress(&mut self, min_virt: u64) -> Vec<FaultAction> {
        self.high_water = self.high_water.max(min_virt);
        let mut due = Vec::new();
        for (spec, fired) in &mut self.faults {
            let threshold = spec.at.as_ps();
            if *fired || min_virt < threshold {
                continue;
            }
            *fired = true;
            let injected = &mut self.report.faults_injected;
            match &spec.kind {
                FaultKind::KillWorker { partition } => {
                    injected.push(format!("kill_worker {partition:?} at {threshold} ps"));
                    due.push(FaultAction::Kill(partition.clone()));
                }
                FaultKind::SeverLink { link } => {
                    injected.push(format!("sever_link {link:?} at {threshold} ps"));
                    due.push(FaultAction::Sever(link.clone()));
                    break;
                }
                kind @ (FaultKind::CorruptCheckpoint | FaultKind::TruncateCheckpoint) => {
                    let truncate = *kind == FaultKind::TruncateCheckpoint;
                    let label = if truncate {
                        "truncate_checkpoint"
                    } else {
                        "corrupt_checkpoint"
                    };
                    let Some(at) = self.store.complete().next().map(|(at, _)| at) else {
                        injected.push(format!("{label}: no complete ring slot to damage"));
                        continue;
                    };
                    injected.push(format!("{label} ring slot at {at} ps"));
                    if let Some(parts) = self.store.slots.get_mut(&at) {
                        parts
                            .values_mut()
                            .for_each(|blob| damage_blob(blob, truncate));
                    }
                    due.push(FaultAction::Damage { at, truncate });
                }
            }
        }
        due
    }

    /// An attempt failed with `e`. A retryable failure with budget left
    /// restarts the fleet: returns the slot the next attempt restores from
    /// (`None`: from virtual time zero) and charges the report. Otherwise
    /// returns the final error — `e` itself, or
    /// [`DistError::RestartsExhausted`] carrying the report.
    pub(super) fn on_failure(&mut self, e: DistError) -> Result<Option<u64>, DistError> {
        if !e.retryable() {
            return Err(e);
        }
        if self.report.restarts >= self.max_restarts {
            return Err(DistError::RestartsExhausted {
                restarts: self.report.restarts,
                last: Box::new(e),
                report: std::mem::take(&mut self.report),
            });
        }
        self.report.restarts += 1;
        self.restore = self.store.select_restore(&mut self.report);
        let restore_at = self.restore.as_ref().map(|(at, _)| *at);
        let cut = restore_at.unwrap_or(0);
        self.report
            .ring_entries_used
            .push(restore_at.map(SimTime::from_ps));
        self.report.time_lost =
            SimTime::from_ps(self.report.time_lost.as_ps() + self.high_water.saturating_sub(cut));
        self.high_water = cut;
        // Slots past the restore point will be re-captured (bit-identically)
        // by the retry; dropping them keeps a later failure from restoring
        // past its own attempt's progress.
        self.store.slots.retain(|at, _| *at <= cut);
        Ok(restore_at)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::encoded_part;
    use super::*;

    fn recovery(keep: usize, max_restarts: u32, faults: Vec<FaultSpec>) -> Recovery {
        let opts = DistOptions::new(vec!["p0".into(), "p1".into()], "")
            .with_checkpoint_ring(SimTime::from_ps(100), keep, "ring")
            .with_faults(faults)
            .with_max_restarts(max_restarts);
        Recovery::new(&opts, Vec::new())
    }

    fn at(ps: u64, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            at: SimTime::from_ps(ps),
            kind,
        }
    }

    fn kill_p1() -> FaultKind {
        FaultKind::KillWorker {
            partition: "p1".into(),
        }
    }

    fn p1_exited() -> DistError {
        DistError::WorkerExited {
            partition: "p1".into(),
            status: "signal: 9".into(),
        }
    }

    /// Both partitions' `RING` frames for slot `at`; returns the merged slot.
    fn ring_slot(rec: &mut Recovery, at: u64) -> Option<CheckpointFile> {
        let part = || encoded_part("e", SimTime::from_ps(at));
        assert!(rec.on_ring("p0", at, part()).is_none(), "half a slot");
        rec.on_ring("p1", at, part())
    }

    fn complete_slots(rec: &Recovery) -> Vec<u64> {
        rec.store.complete().map(|(at, _)| at).collect()
    }

    #[test]
    fn kill_restores_the_newest_complete_slot() {
        let mut rec = recovery(0, 1, vec![at(250, kill_p1())]);
        for slot in [100, 200] {
            let merged = ring_slot(&mut rec, slot).expect("a complete slot merges");
            assert_eq!(merged.at, SimTime::from_ps(slot));
        }
        assert!(rec
            .on_ring("p0", 300, encoded_part("e", SimTime::from_ps(300)))
            .is_none());
        assert_eq!(rec.on_progress(240), vec![]);
        assert_eq!(rec.on_progress(260), vec![FaultAction::Kill("p1".into())]);
        assert_eq!(
            rec.report().faults_injected,
            vec!["kill_worker \"p1\" at 250 ps"]
        );

        assert_eq!(rec.on_failure(p1_exited()).unwrap(), Some(200));
        let (slot, blobs) = rec.restore().expect("restoring");
        assert_eq!(*slot, 200);
        assert_eq!(blobs.keys().collect::<Vec<_>>(), ["p0", "p1"]);
        let report = rec.report();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.ring_entries_used, vec![Some(SimTime::from_ps(200))]);
        assert!(report.rejected_entries.is_empty());
        assert_eq!(complete_slots(&rec), [200, 100], "slot 300 dropped");
    }

    #[test]
    fn corrupt_newest_slot_falls_back_one_slot() {
        let mut rec = recovery(0, 1, vec![at(250, FaultKind::CorruptCheckpoint)]);
        ring_slot(&mut rec, 100);
        ring_slot(&mut rec, 200);
        let damage = FaultAction::Damage {
            at: 200,
            truncate: false,
        };
        assert_eq!(rec.on_progress(250), vec![damage]);
        assert_eq!(
            rec.report().faults_injected,
            vec!["corrupt_checkpoint ring slot at 200 ps"]
        );

        assert_eq!(rec.on_failure(p1_exited()).unwrap(), Some(100));
        let rejected = &rec.report().rejected_entries;
        assert_eq!(rejected.len(), 2, "both parts of slot 200: {rejected:?}");
        assert!(rejected.iter().all(|r| r.contains("slot 200 ps")));
    }

    #[test]
    fn truncate_without_a_complete_slot_is_recorded() {
        let mut rec = recovery(0, 0, vec![at(10, FaultKind::TruncateCheckpoint)]);
        assert_eq!(rec.on_progress(10), vec![]);
        assert_eq!(
            rec.report().faults_injected,
            vec!["truncate_checkpoint: no complete ring slot to damage"]
        );
    }

    #[test]
    fn no_usable_slot_restarts_from_zero() {
        let mut rec = recovery(0, 1, Vec::new());
        rec.on_progress(500);
        assert_eq!(rec.on_failure(p1_exited()).unwrap(), None);
        assert!(rec.restore().is_none());
        assert_eq!(rec.report().ring_entries_used, vec![None]);
        assert_eq!(rec.report().time_lost, SimTime::from_ps(500));
    }

    #[test]
    fn a_fault_fires_once_across_restarts() {
        let mut rec = recovery(0, 2, vec![at(100, kill_p1())]);
        assert_eq!(rec.on_progress(100).len(), 1);
        rec.on_failure(p1_exited()).unwrap();
        assert_eq!(rec.on_progress(50), vec![]);
        assert_eq!(rec.on_progress(150), vec![], "re-simulating past it");
        assert_eq!(rec.report().faults_injected.len(), 1);
    }

    #[test]
    fn a_sever_defers_the_faults_after_it_to_the_next_attempt() {
        let sever = FaultKind::SeverLink { link: "up".into() };
        let mut rec = recovery(0, 1, vec![at(100, sever), at(100, kill_p1())]);
        assert_eq!(rec.on_progress(100), vec![FaultAction::Sever("up".into())]);
        rec.on_failure(DistError::FaultSever { link: "up".into() })
            .unwrap();
        assert_eq!(rec.on_progress(100), vec![FaultAction::Kill("p1".into())]);
    }

    #[test]
    fn time_lost_sums_high_water_minus_restore_point() {
        let mut rec = recovery(0, 2, Vec::new());
        ring_slot(&mut rec, 100);
        rec.on_progress(180);
        assert_eq!(rec.on_failure(p1_exited()).unwrap(), Some(100));
        assert_eq!(rec.report().time_lost, SimTime::from_ps(80));
        // The retry resumes at 100, gets to 330, and dies again.
        rec.on_progress(120);
        ring_slot(&mut rec, 200);
        rec.on_progress(330);
        rec.on_progress(300);
        assert_eq!(rec.on_failure(p1_exited()).unwrap(), Some(200));
        assert_eq!(rec.report().time_lost, SimTime::from_ps(80 + 130));
    }

    #[test]
    fn keep_bounds_the_in_memory_store() {
        let mut rec = recovery(2, 0, Vec::new());
        for slot in [100, 200, 300, 400, 500] {
            assert!(ring_slot(&mut rec, slot).is_some());
        }
        rec.on_ring("p0", 600, encoded_part("e", SimTime::from_ps(600)));
        assert_eq!(complete_slots(&rec), [500, 400]);
        assert_eq!(rec.store.slots.len(), 3, "the half slot 600 stays");
    }

    #[test]
    fn a_spent_budget_returns_restarts_exhausted_with_the_report() {
        let mut rec = recovery(0, 1, vec![at(10, kill_p1())]);
        rec.on_progress(10);
        assert_eq!(rec.on_failure(p1_exited()).unwrap(), None);
        match rec.on_failure(p1_exited()) {
            Err(DistError::RestartsExhausted {
                restarts,
                last,
                report,
            }) => {
                assert_eq!(restarts, 1);
                assert!(matches!(*last, DistError::WorkerExited { .. }));
                assert_eq!(report.restarts, 1);
                assert_eq!(report.faults_injected.len(), 1);
            }
            other => panic!("expected RestartsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn a_non_retryable_error_is_returned_unchanged() {
        let mut rec = recovery(0, 5, Vec::new());
        match rec.on_failure(DistError::Invalid("bad options".into())) {
            Err(DistError::Invalid(msg)) => assert_eq!(msg, "bad options"),
            other => panic!("expected the Invalid error back, got {other:?}"),
        }
        assert!(rec.report().is_trivial());
    }
}
