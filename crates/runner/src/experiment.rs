//! Experiment assembly and execution.

use std::any::Any;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use simbricks_base::spsc::DEFAULT_QUEUE_LEN;
use simbricks_base::{
    ChannelEnd, ChannelParams, EventLog, Impairment, Kernel, KernelStats, Model, PortId, SimTime,
    SyncLookahead,
};

use crate::checkpoint::CheckpointFile;
use crate::executor::{Config, Goal};
use crate::proxy::{pump_all, TcpPump};

/// A model that can also be downcast back to its concrete type after the run
/// (to read application reports, switch statistics, ...).
pub trait AnyModel: Model + Any {
    fn as_model(&mut self) -> &mut dyn Model;
    fn as_model_ref(&self) -> &dyn Model;
    fn as_any(&self) -> &dyn Any;
}

impl<T: Model + Any> AnyModel for T {
    fn as_model(&mut self) -> &mut dyn Model {
        self
    }
    fn as_model_ref(&self) -> &dyn Model {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

pub(crate) struct Component {
    pub(crate) name: String,
    pub(crate) kernel: Kernel,
    pub(crate) model: Box<dyn AnyModel>,
}

/// How to execute the components of an experiment.
///
/// Both executors run the same partition loop (see the `executor` module)
/// and produce identical simulation results (bit-identical event logs); they
/// differ only in how many threads step the kernels. See
/// `docs/ARCHITECTURE.md` for guidance on choosing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Execution {
    /// One partition: every component stepped round robin on the calling
    /// thread.
    Sequential,
    /// `min(workers, components)` partitions of contiguous components, each
    /// stepped round robin by its own thread; nothing moves a kernel between
    /// threads. `workers == 0` means the machine's available parallelism;
    /// `workers` equal to the component count is the paper's
    /// one-simulator-per-core layout.
    Sharded {
        /// Worker thread count (0 = auto).
        workers: usize,
    },
}

impl Execution {
    /// Parse an executor selection string: `sequential`, `sharded` (auto
    /// worker count), or `sharded:N`.
    pub fn parse(s: &str) -> Option<Execution> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "sequential" | "seq" => Some(Execution::Sequential),
            "sharded" => Some(Execution::Sharded { workers: 0 }),
            _ => {
                let n = s.strip_prefix("sharded:")?.parse().ok()?;
                Some(Execution::Sharded { workers: n })
            }
        }
    }

    /// Inverse of [`Execution::parse`]: the canonical selection string for
    /// this executor (used to hand the choice to distributed worker
    /// processes via their environment).
    pub fn to_arg(self) -> String {
        match self {
            Execution::Sequential => "sequential".into(),
            Execution::Sharded { workers: 0 } => "sharded".into(),
            Execution::Sharded { workers } => format!("sharded:{workers}"),
        }
    }

    /// Executor selected by the `SIMBRICKS_EXEC` environment variable
    /// (same syntax as [`Execution::parse`]), or `default` when unset. A
    /// value that does not parse is an error naming the accepted values.
    pub fn from_env_or(default: Execution) -> Result<Execution, String> {
        Ok(Execution::from_env("SIMBRICKS_EXEC")?.unwrap_or(default))
    }

    /// Executor named by the environment variable `var`: `None` when unset,
    /// an error naming the accepted values when set to anything else.
    pub(crate) fn from_env(var: &str) -> Result<Option<Execution>, String> {
        let Some(v) = std::env::var_os(var) else {
            return Ok(None);
        };
        let v = v.to_string_lossy();
        Execution::parse(&v).map(Some).ok_or_else(|| {
            format!("{var}={v:?} is not an executor (expected sequential, sharded or sharded:N)")
        })
    }
}

/// Results of a completed experiment.
pub struct RunResult {
    pub name: String,
    /// Wall-clock simulation time.
    pub wall: Duration,
    /// Largest virtual time reached by any component.
    pub virtual_time: SimTime,
    pub component_names: Vec<String>,
    pub stats: Vec<KernelStats>,
    pub logs: Vec<EventLog>,
    /// Checkpoints captured mid-run (quiesce time, encoded container),
    /// newest last, already pruned to the configured `keep_n`: one entry
    /// for [`Experiment::checkpoint_at`], one per slot for
    /// [`Experiment::with_checkpoint_ring`].
    pub ring: Vec<(SimTime, Vec<u8>)>,
    models: Vec<Box<dyn AnyModel>>,
    /// The experiment's tcp link pumps, handed back after the run so a
    /// distributed worker can keep its links flowing until every peer is
    /// done.
    pumps: Vec<TcpPump>,
}

impl RunResult {
    /// Downcast component `idx`'s model to its concrete type.
    pub fn model<T: 'static>(&self, idx: usize) -> Option<&T> {
        self.models.get(idx).and_then(|m| m.as_any().downcast_ref())
    }

    /// Aggregate statistics over all components.
    pub fn total_stats(&self) -> KernelStats {
        KernelStats::merged(&self.stats)
    }

    pub fn wall_seconds(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Merge the per-component event logs of this run into one named,
    /// time-ordered [`Trace`](simbricks_base::trace::Trace) for end-to-end latency breakdowns (§8.1).
    /// The experiment must have been built with [`Experiment::with_logging`];
    /// otherwise the trace is empty.
    pub fn trace(&self) -> simbricks_base::trace::Trace {
        simbricks_base::trace::Trace::from_logs(&self.component_names, &self.logs)
    }

    /// Merge the per-component event logs into one global, time-sorted log
    /// (ties broken by component order, so the result is comparable across
    /// executors and against the reassembled log of a distributed run).
    pub fn merged_log(&self) -> EventLog {
        let refs: Vec<&EventLog> = self.logs.iter().collect();
        EventLog::merge(&refs)
    }

    /// The statistics of the component with the given name, if any.
    pub fn stats_of(&self, name: &str) -> Option<&KernelStats> {
        self.component_names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.stats[i])
    }

    /// Take the experiment's tcp link pumps (see [`Experiment::add_pump`]).
    pub(crate) fn take_pumps(&mut self) -> Vec<TcpPump> {
        std::mem::take(&mut self.pumps)
    }
}

/// Sink receiving each encoded checkpoint-ring entry: (quiesce time, blob).
pub type RingSink = Box<dyn FnMut(SimTime, &[u8]) + Send>;

/// When a run quiesces and captures a checkpoint: at `first`, then every
/// `period` after it (`None`: only at `first`), keeping the newest `keep`
/// entries (0 = keep all).
struct QuiescePlan {
    first: SimTime,
    period: Option<SimTime>,
    keep: usize,
}

/// An experiment: a set of component simulators wired by channels.
pub struct Experiment {
    name: String,
    end: SimTime,
    synchronized: bool,
    link_latency: SimTime,
    pcie_latency: SimTime,
    sync_interval: SimTime,
    hier_sync: bool,
    log_enabled: bool,
    external_inputs: bool,
    components: Vec<Component>,
    /// Pumps of this partition's tcp cross links: every loop that steps the
    /// kernels also drives these, so a link needs no thread of its own.
    /// Empty for in-process experiments.
    pumps: Vec<TcpPump>,
    /// Checkpoint request: the quiesce times and how many entries to keep.
    ring: Option<QuiescePlan>,
    /// Directory ring entries are written to as `ck-<time_ps>.ckpt` (when
    /// set; distributed workers leave it unset and ship blobs instead).
    ring_dir: Option<PathBuf>,
    /// Epoch length for fingerprint-only event logging, when enabled.
    fp_epoch: Option<SimTime>,
    /// Virtual time a restore fast-forwarded this experiment to (reporting).
    restored_at: Option<SimTime>,
    /// Coarse virtual-time progress (picoseconds), raised periodically by
    /// the partition loop. Distributed workers read it from a heartbeat
    /// thread, so the orchestrator can trigger virtual-time fault schedules
    /// and detect stalled partitions.
    progress: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// Called with each checkpoint-ring entry as soon as it is encoded
    /// (distributed workers ship entries to the orchestrator mid-run, so a
    /// later crash can restore from every slot captured before it).
    ring_sink: Option<RingSink>,
    /// Shared stop flag. In unsynchronized (emulation) runs there is no common
    /// virtual end time: the run ends when the first component finishes (the
    /// workload driver calling `quit`), which raises this flag for everyone
    /// else — mirroring how emulation measurements end when the benchmark
    /// client completes.
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Experiment {
    /// Create an experiment simulating `end` of virtual time.
    pub fn new(name: impl Into<String>, end: SimTime) -> Self {
        Experiment {
            name: name.into(),
            end,
            synchronized: true,
            link_latency: SimTime::from_ns(500),
            pcie_latency: SimTime::from_ns(500),
            sync_interval: SimTime::from_ns(500),
            hier_sync: false,
            log_enabled: false,
            external_inputs: false,
            components: Vec::new(),
            pumps: Vec::new(),
            ring: None,
            ring_dir: None,
            fp_epoch: None,
            restored_at: None,
            progress: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            ring_sink: None,
            stop: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Disable synchronization (emulation mode, QEMU-KVM style runs).
    pub fn unsynchronized(mut self) -> Self {
        self.synchronized = false;
        self
    }

    /// Enable timestamped event logs on every component (accuracy /
    /// determinism experiments).
    pub fn with_logging(mut self) -> Self {
        self.log_enabled = true;
        self
    }

    /// Set the Ethernet link latency Δ (default 500 ns).
    pub fn with_link_latency(mut self, l: SimTime) -> Self {
        self.link_latency = l;
        if self.sync_interval > l {
            self.sync_interval = l;
        }
        self
    }

    /// Set the PCIe latency Δ (default 500 ns).
    pub fn with_pcie_latency(mut self, l: SimTime) -> Self {
        self.pcie_latency = l;
        if self.sync_interval > l {
            self.sync_interval = l;
        }
        self
    }

    /// Set the synchronization interval δ (default = link latency).
    pub fn with_sync_interval(mut self, d: SimTime) -> Self {
        self.sync_interval = d;
        self
    }

    /// Enable hierarchical sync domains (sync-protocol scale-out). Each
    /// kernel groups its synchronized ports into domains by link latency,
    /// maintains one aggregate horizon per domain, and emits SYNCs per
    /// domain epoch with promises widened through the earliest local cause
    /// of a future send. At run time the
    /// channel graph is reconstructed from connection ids and a static
    /// multi-hop lookahead floor is computed per port (Bellman-Ford-style
    /// relaxation over declared [`Model::sync_lookahead`] forwarding
    /// delays), which raises each port's adaptive sync-interval cap beyond
    /// the per-link Δ. Simulation results are bit-identical to the flat
    /// protocol; only SYNC volume and cadence change. Ignored for
    /// unsynchronized experiments.
    pub fn with_hier_sync(mut self) -> Self {
        self.hier_sync = true;
        self
    }

    pub fn is_synchronized(&self) -> bool {
        self.synchronized
    }

    /// Declare that some channels of this experiment are fed from outside
    /// it: by another OS process (distributed partitions, §5.4), or by a
    /// relay thread ([`ChannelEnd::is_external`], noted by
    /// [`Experiment::add`]). "Every component blocked" is then a normal
    /// transient state, not a deadlock, and the experiment has no deadlock
    /// detection: one that is truly stuck waits forever. Set automatically
    /// for distributed worker partitions.
    pub fn set_external_inputs(&mut self) {
        self.external_inputs = true;
    }

    /// Channel parameters for an Ethernet link in this experiment.
    pub fn eth_params(&self) -> ChannelParams {
        ChannelParams {
            latency: self.link_latency,
            sync_interval: self.sync_interval.min(self.link_latency),
            sync: self.synchronized,
            queue_len: DEFAULT_QUEUE_LEN,
            impairment: Impairment::none(),
        }
    }

    /// Channel parameters for a PCIe link in this experiment.
    pub fn pcie_params(&self) -> ChannelParams {
        ChannelParams {
            latency: self.pcie_latency,
            sync_interval: self.sync_interval.min(self.pcie_latency),
            sync: self.synchronized,
            queue_len: DEFAULT_QUEUE_LEN,
            impairment: Impairment::none(),
        }
    }

    /// Add a component simulator with its already-wired channel endpoints
    /// (port indices follow the order of `ports`). Returns the component id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        model: Box<dyn AnyModel>,
        ports: Vec<ChannelEnd>,
    ) -> usize {
        let name = name.into();
        // Synchronized runs share a common virtual end time. Unsynchronized
        // (emulation) runs have no meaningful global clock; components run
        // open-ended and the experiment ends via the shared stop flag once
        // the workload completes.
        let end = if self.synchronized {
            self.end
        } else {
            SimTime::MAX
        };
        let mut kernel = Kernel::new(name.clone(), end);
        kernel.set_stop_flag(self.stop.clone());
        if !self.synchronized {
            // Emulation mode: free-running components stay loosely aligned by
            // anchoring their virtual clocks to the wall clock (1:1).
            kernel.set_wall_clock(1.0);
        }
        if let Some(epoch) = self.fp_epoch {
            kernel.enable_fingerprint_log(epoch);
        } else if self.log_enabled {
            kernel.enable_log();
        }
        for p in ports {
            self.external_inputs |= p.is_external();
            kernel.add_port(p);
        }
        self.components.push(Component {
            name,
            kernel,
            model,
        });
        self.components.len() - 1
    }

    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Adopt the pump of a tcp cross link: partition 0 drives it between
    /// kernel steps, and [`RunResult`] hands it back after the run.
    pub(crate) fn add_pump(&mut self, pump: TcpPump) {
        self.pumps.push(pump);
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore
    // ------------------------------------------------------------------

    /// Request a deterministic checkpoint: a one-slot ring. The run
    /// quiesces every component at virtual time `at` (all events strictly
    /// below processed, nothing at or beyond touched, in-flight channel
    /// messages drained into port buffers), encodes the complete state as
    /// the one [`RunResult::ring`] entry, and then **continues** to the
    /// configured end time. The continuation — and any later run restored
    /// from the entry — is bit-identical to an uninterrupted run. A run
    /// restored at or after `at` captures nothing. Replaces any earlier
    /// checkpoint or ring request; to get a named file, write the blob with
    /// [`write_blob`](crate::checkpoint::write_blob).
    ///
    /// Requires every channel of the experiment to be synchronized (the
    /// quiesce phase itself is cooperative, whatever the executor); `run`
    /// panics with a descriptive message otherwise.
    pub fn checkpoint_at(&mut self, at: SimTime) {
        assert!(
            at < self.end,
            "checkpoint time {at} must lie before the experiment end {}",
            self.end
        );
        self.ring = Some(QuiescePlan {
            first: at,
            period: None,
            keep: 0,
        });
    }

    /// Request a checkpoint ring: quiesce and snapshot at every multiple of
    /// `period` before the end time, keeping only the newest `keep_n`
    /// entries (0 = keep all). Each entry is a complete SBCK container; the
    /// continuation after every quiesce — and any run restored from any
    /// entry — is bit-identical to an uninterrupted run. A run restored
    /// from a checkpoint captures only the slots after it. Same constraints
    /// as [`Experiment::checkpoint_at`], which it replaces. Entries land in
    /// [`RunResult::ring`], and on disk when a directory is set via
    /// [`Experiment::set_ring_dir`].
    pub fn with_checkpoint_ring(mut self, period: SimTime, keep_n: usize) -> Self {
        self.set_checkpoint_ring(period, keep_n);
        self
    }

    /// Non-consuming form of [`Experiment::with_checkpoint_ring`] (used when
    /// the experiment was built by a lowering that already returned it).
    pub fn set_checkpoint_ring(&mut self, period: SimTime, keep_n: usize) {
        assert!(
            period > SimTime::ZERO,
            "checkpoint ring period must be non-zero"
        );
        self.ring = Some(QuiescePlan {
            first: period,
            period: Some(period),
            keep: keep_n,
        });
    }

    /// Directory checkpoints are written to as they are captured, as
    /// [`ring_entry_path`](crate::checkpoint::ring_entry_path) (pruned on
    /// disk to the configured `keep_n` after each write).
    pub fn set_ring_dir(&mut self, dir: PathBuf) {
        self.ring_dir = Some(dir);
    }

    /// Handle on the experiment's coarse virtual-time progress counter
    /// (picoseconds). Raised periodically by the partition loop; other
    /// threads (a distributed worker's heartbeat pump) may read it at any
    /// wall-clock moment. Monotone per run; a restore resets it to the
    /// restore point.
    pub fn progress_handle(&self) -> std::sync::Arc<std::sync::atomic::AtomicU64> {
        self.progress.clone()
    }

    /// Install a sink invoked with every checkpoint-ring entry the moment it
    /// is encoded — before the run continues past the slot. Distributed
    /// workers use this to stream their partition's entries to the
    /// orchestrator, which is what makes mid-run recovery possible: after a
    /// worker crash the orchestrator already holds every slot captured
    /// before the failure.
    pub fn set_ring_sink(&mut self, sink: RingSink) {
        self.ring_sink = Some(sink);
    }

    // ------------------------------------------------------------------
    // Replay inspection (used by `crates/replay` after restore + freeze)
    // ------------------------------------------------------------------

    /// Component names in build order.
    pub fn component_names(&self) -> Vec<String> {
        self.components.iter().map(|c| c.name.clone()).collect()
    }

    /// The kernel of component `idx` (clock, stats, event log, ports).
    pub fn kernel(&self, idx: usize) -> &Kernel {
        &self.components[idx].kernel
    }

    /// Snapshot every component's *model* state (without the kernel record).
    /// The replay layer compares these across a seek and a fresh paused run:
    /// model state is simulation-visible and must match bit for bit, while
    /// kernel sync counters legitimately differ with the pause schedule.
    pub fn model_states(&self) -> SnapResult<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.components.len());
        for c in &self.components {
            let mut w = SnapWriter::new();
            c.model.as_model_ref().snapshot(&mut w)?;
            out.push(w.into_vec());
        }
        Ok(out)
    }

    /// Convert every component's (restored) event log to fingerprint-only
    /// mode in place — the prefix entries fold into the per-epoch
    /// accumulators and are dropped, so stepping on records fingerprints
    /// only.
    pub fn convert_logs_fingerprint_only(&mut self, epoch: SimTime) {
        for c in &mut self.components {
            c.kernel.event_log_mut().to_fingerprint_only(epoch);
        }
        self.fp_epoch = Some(epoch);
    }

    /// Replace every component's event log with a fresh materialized one,
    /// discarding any restored prefix. The replay pinpoint pass uses this to
    /// materialize only the window after a restore point.
    pub fn reset_logs_materialized(&mut self) {
        for c in &mut self.components {
            *c.kernel.event_log_mut() = EventLog::enabled();
        }
        self.fp_epoch = None;
        self.log_enabled = true;
    }

    /// Quiesce every component at exactly virtual time `at` (which must lie
    /// at or after the restore point and before the end) and leave the
    /// experiment frozen there for inspection via [`Experiment::kernel`] /
    /// [`Experiment::model_states`]. Returns the encoded SBCK container of
    /// the frozen state. Same constraints as a checkpoint — the quiesce is
    /// cooperative and single-threaded.
    pub fn freeze_at(&mut self, at: SimTime) -> SnapResult<Vec<u8>> {
        assert!(
            at < self.end,
            "freeze time {at} must lie before the experiment end {}",
            self.end
        );
        if let Some(r) = self.restored_at {
            assert!(
                at >= r,
                "freeze time {at} lies before the restore point {r}"
            );
        }
        self.quiesce_and_encode(at)
    }

    /// Restore this experiment from a checkpoint file: a ring entry, or a
    /// [`RunResult::ring`] blob written to disk. Must be called after every
    /// component has been added, with the experiment rebuilt by the same
    /// build code (same names, topology, and parameters — mismatches are
    /// rejected). Returns the checkpoint's virtual time; a following
    /// [`Experiment::run`] resumes from there, skipping everything already
    /// simulated.
    pub fn restore(&mut self, path: &std::path::Path) -> SnapResult<SimTime> {
        let file = CheckpointFile::read_from(path)?;
        self.apply_checkpoint(&file)
    }

    /// Like [`Experiment::restore`], from an in-memory encoded container
    /// (used by distributed workers receiving their partition's snapshot
    /// over the control socket).
    pub fn restore_from_blob(&mut self, blob: &[u8]) -> SnapResult<SimTime> {
        let file = CheckpointFile::decode(blob)?;
        self.apply_checkpoint(&file)
    }

    /// Virtual time this experiment was fast-forwarded to by a restore, if
    /// any (reporting; the run itself resumes there automatically).
    pub fn restored_at(&self) -> Option<SimTime> {
        self.restored_at
    }

    fn apply_checkpoint(&mut self, file: &CheckpointFile) -> SnapResult<SimTime> {
        if file.name != self.name {
            return Err(SnapError::Corrupt(format!(
                "experiment name mismatch: checkpoint is of {:?}, this experiment is {:?}",
                file.name, self.name
            )));
        }
        if file.components.len() != self.components.len() {
            return Err(SnapError::Corrupt(format!(
                "component count mismatch: checkpoint has {}, experiment built {}",
                file.components.len(),
                self.components.len()
            )));
        }
        for (c, (cname, blob)) in self.components.iter_mut().zip(&file.components) {
            if *cname != c.name {
                return Err(SnapError::Corrupt(format!(
                    "component order mismatch: checkpoint has {cname:?} where experiment built {:?}",
                    c.name
                )));
            }
            let mut r = SnapReader::new(blob);
            c.kernel.restore(&mut r)?;
            c.model.as_model().restore(&mut r).map_err(|e| match e {
                SnapError::Unsupported(_) => SnapError::Unsupported(format!(
                    "component {cname:?} cannot be restored: its model does not implement Model::restore"
                )),
                e => e,
            })?;
            if !r.is_empty() {
                return Err(SnapError::Corrupt(format!(
                    "component {cname:?}: {} trailing bytes after model state",
                    r.remaining()
                )));
            }
        }
        self.restored_at = Some(file.at);
        self.progress
            .store(file.at.as_ps(), std::sync::atomic::Ordering::Relaxed);
        Ok(file.at)
    }

    /// Quiesce every component at `at` and encode the checkpoint container.
    /// One partition on the calling thread: determinism of the saved state
    /// does not depend on the executor the surrounding run uses.
    fn quiesce_and_encode(&mut self, at: SimTime) -> SnapResult<Vec<u8>> {
        assert!(
            self.synchronized
                && self.components.iter().all(|c| {
                    (0..c.kernel.num_ports()).all(|p| c.kernel.port_sync_enabled(PortId(p)))
                }),
            "checkpointing requires pairwise-synchronized experiments \
             (a component with an unsynchronized channel has no quiescable \
             virtual time)"
        );
        for c in &mut self.components {
            c.kernel.set_pause_at(at);
        }
        if !self.drive(1, Goal::Quiesce(at)) {
            if self.external_inputs {
                return Err(SnapError::Io(
                    "timed out waiting for remote partitions to quiesce".into(),
                ));
            }
            let stuck: Vec<String> = self
                .components
                .iter()
                .filter(|c| !c.kernel.quiesced_at(at))
                .map(|c| {
                    let ports: Vec<String> = (0..c.kernel.num_ports())
                        .map(|i| format!("p{i}[{}]", c.kernel.port_sync_describe(PortId(i))))
                        .collect();
                    format!("{}@{} {}", c.name, c.kernel.now(), ports.join(" "))
                })
                .collect();
            return Err(SnapError::Io(format!(
                "experiment failed to quiesce at {at}: {}",
                stuck.join(", ")
            )));
        }

        let mut components = Vec::with_capacity(self.components.len());
        for c in &self.components {
            let mut w = SnapWriter::new();
            c.kernel.snapshot(&mut w)?;
            c.model.as_model_ref().snapshot(&mut w).map_err(|e| match e {
                SnapError::Unsupported(_) => SnapError::Unsupported(format!(
                    "component {:?} cannot be checkpointed: its model does not implement Model::snapshot",
                    c.name
                )),
                e => e,
            })?;
            components.push((c.name.clone(), w.into_vec()));
        }
        for c in &mut self.components {
            c.kernel.clear_pause();
        }
        let file = CheckpointFile {
            name: self.name.clone(),
            at,
            components,
        };
        Ok(file.encode())
    }

    /// Hierarchical sync setup: reconstruct the channel graph from the
    /// ports' connection ids, compute each port's static multi-hop lookahead
    /// floor, and switch every kernel to hierarchical (domain-batched,
    /// widened-promise) SYNC emission.
    ///
    /// The floor `F(c.p)` is a lower bound on how far ahead of its current
    /// clock component `c` can always promise on port `p`:
    /// - a model with no declared lookahead may send at any moment, so
    ///   `F = Δ_p`;
    /// - a port declaring [`SyncLookahead::ExcludeSelf`]`(l)` only carries
    ///   sends made in response to a timer or to input on another port, so
    ///   `F = Δ_p + l + min over other ports q of G(q)`, where `G(q)` is the
    ///   incoming guarantee of `q`'s link — the peer port's own floor, or
    ///   `Δ_q` when the peer is outside this process (distributed boundary);
    /// - a port declaring [`SyncLookahead::Reaction`]`(d)` reacts to input on
    ///   any port (itself included) no sooner than `d` later, so
    ///   `F = Δ_p + d + min over all ports q of G(q)`.
    ///
    /// The mutually recursive floors are solved by upward Bellman-Ford-style
    /// relaxation from the safe start `F = Δ`; each port's floor then raises
    /// its adaptive sync-interval cap, so idle cadence stretches to the
    /// multi-hop path latency instead of stopping at the per-link Δ. The
    /// floors only pace SYNC emission — correctness and liveness never
    /// depend on them (promises are widened dynamically, and blocked kernels
    /// forward horizon gains unconditionally).
    fn setup_hier_sync(&mut self) {
        use std::collections::HashMap;
        // (component, port) pairs per connection id; a connection with both
        // ends on local kernels is an internal link, one with a single end
        // crosses a partition boundary (its far side is a proxy).
        let mut by_conn: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
        for (ci, c) in self.components.iter().enumerate() {
            for p in 0..c.kernel.num_ports() {
                let pid = PortId(p);
                if c.kernel.port_sync_enabled(pid) {
                    by_conn
                        .entry(c.kernel.port_conn_id(pid))
                        .or_default()
                        .push((ci, p));
                }
            }
        }
        let mut peer: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for ends in by_conn.values() {
            if let [a, b] = ends[..] {
                peer.insert(a, b);
                peer.insert(b, a);
            }
        }
        let look: Vec<Vec<Option<SyncLookahead>>> = self
            .components
            .iter()
            .map(|c| {
                let m = c.model.as_model_ref();
                (0..c.kernel.num_ports())
                    .map(|p| m.sync_lookahead_on(PortId(p)))
                    .collect()
            })
            .collect();
        let delta = |ci: usize, p: usize| self.components[ci].kernel.port_latency(PortId(p));
        let mut floors: HashMap<(usize, usize), SimTime> = peer
            .keys()
            .chain(
                by_conn
                    .values()
                    .flatten()
                    .filter(|e| !peer.contains_key(*e)),
            )
            .map(|&(ci, p)| ((ci, p), delta(ci, p)))
            .collect();
        // Upward relaxation; monotone and bounded by the longest simple
        // path through declaring forwarders, so #components rounds suffice —
        // a source-free forwarder cycle (which would diverge) is cut off by
        // the round cap, leaving valid lower bounds.
        for _ in 0..self.components.len() + 2 {
            let mut changed = false;
            for (ci, c) in self.components.iter().enumerate() {
                if look[ci].iter().all(|l| l.is_none()) {
                    continue;
                }
                let nports = c.kernel.num_ports();
                // Incoming guarantee per port, min1/min2 for exclude-one.
                let (mut min1, mut min2, mut arg1) = (SimTime::MAX, SimTime::MAX, usize::MAX);
                for q in 0..nports {
                    if !c.kernel.port_sync_enabled(PortId(q)) {
                        continue;
                    }
                    let g = match peer.get(&(ci, q)) {
                        Some(far) => floors[far],
                        None => delta(ci, q),
                    };
                    if g < min1 {
                        min2 = min1;
                        min1 = g;
                        arg1 = q;
                    } else if g < min2 {
                        min2 = g;
                    }
                }
                for (p, &slot) in look[ci].iter().enumerate() {
                    let Some(la) = slot else { continue };
                    if !c.kernel.port_sync_enabled(PortId(p)) {
                        continue;
                    }
                    let (l, m) = match la {
                        SyncLookahead::ExcludeSelf(l) => (l, if arg1 == p { min2 } else { min1 }),
                        SyncLookahead::Reaction(d) => (d, min1),
                    };
                    if m.is_max() {
                        continue;
                    }
                    let f = delta(ci, p).saturating_add(l).saturating_add(m);
                    let slot = floors.get_mut(&(ci, p)).expect("floor seeded");
                    if f > *slot {
                        *slot = f;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (ci, c) in self.components.iter_mut().enumerate() {
            c.kernel.enable_hier_sync();
            for p in 0..c.kernel.num_ports() {
                if let Some(f) = floors.get(&(ci, p)) {
                    c.kernel.set_port_sync_cap(PortId(p), *f);
                }
            }
        }
    }

    /// Execute the experiment and collect results.
    pub fn run(mut self, mode: Execution) -> RunResult {
        if self.hier_sync && self.synchronized {
            self.setup_hier_sync();
        }

        let start = Instant::now();
        // Quiesce at every slot of the checkpoint plan, encode, hand the
        // blob to the sink and the ring directory, keep the newest `keep`.
        // Each quiesce is cooperative and the continuation after it is
        // bit-identical to not pausing at all, so the tail of this very run
        // doubles as the uninterrupted baseline. Slots at or before a
        // restore point belong to the run that was restored from.
        let mut ring = Vec::new();
        if let Some(plan) = self.ring.take() {
            if let Some(dir) = &self.ring_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    panic!("creating ring directory {}: {e}", dir.display());
                }
            }
            let mut next = Some(plan.first);
            while let Some(at) = next.filter(|&at| at < self.end) {
                next = plan.period.map(|p| at.saturating_add(p));
                if self.restored_at.is_some_and(|r| at <= r) {
                    continue;
                }
                let blob = match self.quiesce_and_encode(at) {
                    Ok(b) => b,
                    Err(e) => panic!("checkpoint of '{}' at {at} failed: {e}", self.name),
                };
                if let Some(dir) = &self.ring_dir {
                    let path = crate::checkpoint::ring_entry_path(dir, at);
                    if let Err(e) = crate::checkpoint::write_blob(&path, &blob) {
                        panic!("writing ring entry {}: {e}", path.display());
                    }
                    if let Err(e) = crate::checkpoint::prune_ring(dir, plan.keep) {
                        panic!("pruning ring {}: {e}", dir.display());
                    }
                }
                self.progress
                    .store(at.as_ps(), std::sync::atomic::Ordering::Relaxed);
                if let Some(sink) = &mut self.ring_sink {
                    sink(at, &blob);
                }
                ring.push((at, blob));
                if plan.keep > 0 && ring.len() > plan.keep {
                    ring.remove(0);
                }
            }
        }
        // Run (or continue) to the end under the requested executor.
        let parts = match mode {
            Execution::Sequential => 1,
            Execution::Sharded { workers: 0 } => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            Execution::Sharded { workers } => workers,
        };
        if !self.drive(parts, Goal::End) {
            let states: Vec<String> = self
                .components
                .iter()
                .filter(|c| !c.kernel.is_finished())
                .map(|c| format!("{}@{} {:?}", c.name, c.kernel.now(), c.kernel.stats()))
                .collect();
            panic!(
                "deadlock in experiment '{}': blocked components: {}",
                self.name,
                states.join(", ")
            );
        }
        let wall = start.elapsed();

        let mut virtual_time = SimTime::ZERO;
        let mut names = Vec::new();
        let mut stats = Vec::new();
        let mut logs = Vec::new();
        let mut models = Vec::new();
        for mut c in self.components {
            let s = c.kernel.stats();
            virtual_time = virtual_time.max(s.final_time);
            names.push(c.name);
            stats.push(s);
            logs.push(c.kernel.take_event_log());
            models.push(c.model);
        }
        // The kernels and their channel ends are gone: flush what they sent
        // last and tell the peers this side is done.
        let mut pumps = self.pumps;
        pump_all(&mut pumps);
        RunResult {
            name: self.name,
            wall,
            virtual_time,
            component_names: names,
            stats,
            logs,
            ring,
            models,
            pumps,
        }
    }

    /// Step the components towards `goal` in `parts` partitions; false when
    /// stuck (see [`crate::executor::run`]).
    fn drive(&mut self, parts: usize, goal: Goal) -> bool {
        let cfg = Config {
            synchronized: self.synchronized,
            external_inputs: self.external_inputs,
            stop: &self.stop,
            frontier: &self.progress,
            end: self.end,
        };
        crate::executor::run(&mut self.components, &mut self.pumps, parts, goal, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, OwnedMsg, PortId};

    /// Simple test model: sends `count` messages and records what it gets.
    struct Echoer {
        send_count: u64,
        received: u64,
        sent: u64,
    }

    impl Model for Echoer {
        fn init(&mut self, k: &mut Kernel) {
            if self.send_count > 0 {
                k.schedule_at(SimTime::from_ns(100), 0);
            }
        }
        fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {
            self.received += 1;
        }
        fn on_timer(&mut self, k: &mut Kernel, _t: u64) {
            k.send(PortId(0), 1, b"ping");
            self.sent += 1;
            if self.sent < self.send_count {
                k.schedule_in(SimTime::from_us(1), 0);
            }
        }
        fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
            w.u64(self.received);
            w.u64(self.sent);
            Ok(())
        }
        fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
            self.received = r.u64()?;
            self.sent = r.u64()?;
            Ok(())
        }
    }

    fn build_pair(end: SimTime, sync: bool) -> Experiment {
        let mut e = Experiment::new("pair", end);
        if !sync {
            e = e.unsynchronized();
        }
        let (a, b) = channel_pair(e.eth_params());
        e.add(
            "left",
            Box::new(Echoer {
                send_count: 10,
                received: 0,
                sent: 0,
            }),
            vec![a],
        );
        e.add(
            "right",
            Box::new(Echoer {
                send_count: 5,
                received: 0,
                sent: 0,
            }),
            vec![b],
        );
        e
    }

    #[test]
    fn sequential_execution_completes_and_reports() {
        let r = build_pair(SimTime::from_ms(1), true).run(Execution::Sequential);
        assert_eq!(r.component_names, vec!["left", "right"]);
        assert_eq!(r.virtual_time, SimTime::from_ms(1));
        let left: &Echoer = r.model(0).unwrap();
        let right: &Echoer = r.model(1).unwrap();
        assert_eq!(left.sent, 10);
        assert_eq!(right.received, 10);
        assert_eq!(left.received, 5);
        assert!(r.total_stats().syncs_sent > 0);
        assert!(r.wall_seconds() >= 0.0);
    }

    #[test]
    fn threaded_execution_matches_sequential_results() {
        let rs = build_pair(SimTime::from_ms(1), true).run(Execution::Sequential);
        let rt = build_pair(SimTime::from_ms(1), true).run(Execution::Sharded { workers: 2 });
        let ls: &Echoer = rs.model(0).unwrap();
        let lt: &Echoer = rt.model(0).unwrap();
        assert_eq!(ls.sent, lt.sent);
        assert_eq!(ls.received, lt.received);
        assert_eq!(
            rs.stats[1].msgs_delivered, rt.stats[1].msgs_delivered,
            "same deliveries regardless of executor"
        );
    }

    #[test]
    fn sharded_execution_matches_sequential_results() {
        let rs = build_pair(SimTime::from_ms(1), true).run(Execution::Sequential);
        for workers in [1usize, 2, 4] {
            let rw = build_pair(SimTime::from_ms(1), true).run(Execution::Sharded { workers });
            let ls: &Echoer = rs.model(0).unwrap();
            let lw: &Echoer = rw.model(0).unwrap();
            assert_eq!(ls.sent, lw.sent, "workers={workers}");
            assert_eq!(ls.received, lw.received, "workers={workers}");
            assert_eq!(
                rs.stats[1].msgs_delivered, rw.stats[1].msgs_delivered,
                "same deliveries regardless of executor (workers={workers})"
            );
            assert_eq!(rs.virtual_time, rw.virtual_time);
        }
    }

    #[test]
    fn sharded_execution_unsynchronized_completes() {
        // Emulation mode: the run ends when the workload driver quits, which
        // raises the stop flag for the free-running peer.
        struct Quitter {
            sent: u64,
        }
        impl Model for Quitter {
            fn init(&mut self, k: &mut Kernel) {
                k.schedule_at(SimTime::from_ns(100), 0);
            }
            fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
            fn on_timer(&mut self, k: &mut Kernel, _t: u64) {
                k.send(PortId(0), 1, b"x");
                self.sent += 1;
                if self.sent < 5 {
                    k.schedule_in(SimTime::from_us(1), 0);
                } else {
                    k.quit();
                }
            }
        }
        let mut e = Experiment::new("unsync-sharded", SimTime::from_ms(1)).unsynchronized();
        let (a, b) = channel_pair(e.eth_params());
        e.add("driver", Box::new(Quitter { sent: 0 }), vec![a]);
        e.add(
            "idle",
            Box::new(Echoer {
                send_count: 0,
                received: 0,
                sent: 0,
            }),
            vec![b],
        );
        let r = e.run(Execution::Sharded { workers: 2 });
        let driver: &Quitter = r.model(0).unwrap();
        assert_eq!(driver.sent, 5);
    }

    /// A synchronized port whose far end nobody polls never lets its kernel
    /// advance. Every executor reports the deadlock within a second, naming
    /// each blocked component with its clock.
    #[test]
    fn deadlock_is_reported_quickly_under_every_executor() {
        for exec in [Execution::Sequential, Execution::Sharded { workers: 2 }] {
            let mut e = Experiment::new("stuck", SimTime::from_ms(1));
            let (a, b) = channel_pair(e.eth_params());
            let (c, held) = channel_pair(e.eth_params());
            let echoer = |send_count| {
                Box::new(Echoer {
                    send_count,
                    received: 0,
                    sent: 0,
                })
            };
            e.add("left", echoer(10), vec![a]);
            e.add("right", echoer(0), vec![b, c]);
            let started = Instant::now();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.run(exec)))
                .err()
                .expect("a run that cannot progress panics");
            let elapsed = started.elapsed();
            drop(held);
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("deadlock") && msg.contains("left@") && msg.contains("right@"),
                "{exec:?}: {msg}"
            );
            assert!(
                elapsed < Duration::from_secs(1),
                "{exec:?}: deadlock reported after {elapsed:?}"
            );
        }
    }

    /// A component that quits early sends its final promise (time MAX) in
    /// its partition's last round, and its peer cannot reach `end` without
    /// it. The other partition, idle and waiting for that promise, must
    /// not read the finishing round as idle and call the run stuck.
    #[test]
    fn sharded_run_survives_a_partition_finishing_with_the_promise_its_peer_needs() {
        /// Quits at 2 µs, after lingering so the waiting side goes idle.
        struct Quitter;
        impl Model for Quitter {
            fn init(&mut self, k: &mut Kernel) {
                k.schedule_at(SimTime::from_us(2), 0);
            }
            fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
            fn on_timer(&mut self, k: &mut Kernel, _t: u64) {
                std::thread::sleep(Duration::from_micros(200));
                k.quit();
            }
        }
        struct Quiet;
        impl Model for Quiet {
            fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
        }
        // Partition 0: the quitter and port-less components that finish at
        // once. Partition 1: a chain hanging off the quitter, so each of its
        // rounds polls for a while before it checks for a deadlock.
        const HALF: usize = 16;
        let end = SimTime::from_us(50);
        for _ in 0..200 {
            let mut e = Experiment::new("finish-race", end);
            let (mut prev, first) = channel_pair(e.eth_params());
            e.add("quitter", Box::new(Quitter), vec![first]);
            for i in 1..HALF {
                e.add(format!("idle{i}"), Box::new(Quiet), vec![]);
            }
            for i in 0..HALF {
                let mut ports = vec![prev];
                if i + 1 < HALF {
                    let (next, far) = channel_pair(e.eth_params());
                    ports.push(next);
                    prev = far;
                } else {
                    prev = channel_pair(e.eth_params()).0;
                }
                e.add(format!("chain{i}"), Box::new(Quiet), ports);
            }
            let r = e.run(Execution::Sharded { workers: 2 });
            assert_eq!(r.virtual_time, end);
        }
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    fn times(r: &RunResult) -> Vec<SimTime> {
        r.ring.iter().map(|(at, _)| *at).collect()
    }

    /// A pair restored from the `at` entry of an earlier run's ring.
    fn restored_pair(ring: &[(SimTime, Vec<u8>)], at: SimTime) -> Experiment {
        let (_, blob) = ring.iter().find(|(t, _)| *t == at).expect("slot");
        let mut e = build_pair(SimTime::from_ms(1), true);
        assert_eq!(e.restore_from_blob(blob).expect("restore"), at);
        e
    }

    #[test]
    fn checkpoint_at_or_before_the_restore_point_captures_nothing() {
        let mut e = build_pair(SimTime::from_ms(1), true);
        e.checkpoint_at(us(300));
        let ring = e.run(Execution::Sequential).ring;
        assert_eq!(ring.len(), 1, "a one-shot checkpoint is a one-slot ring");
        for at in [us(100), us(300)] {
            let mut e = restored_pair(&ring, us(300));
            e.checkpoint_at(at);
            let r = e.run(Execution::Sequential);
            assert!(
                r.ring.is_empty(),
                "checkpoint at {at} after restoring at 300us"
            );
            assert_eq!(r.model::<Echoer>(0).unwrap().sent, 10);
        }
    }

    #[test]
    fn a_ring_resumed_after_a_restore_captures_only_later_slots() {
        let full = build_pair(SimTime::from_ms(1), true)
            .with_checkpoint_ring(us(200), 0)
            .run(Execution::Sequential);
        assert_eq!(times(&full), [us(200), us(400), us(600), us(800)]);
        let resumed = restored_pair(&full.ring, us(400))
            .with_checkpoint_ring(us(200), 0)
            .run(Execution::Sequential);
        assert_eq!(times(&resumed), [us(600), us(800)]);
        assert!(
            resumed.ring == full.ring[2..],
            "resumed slots are byte-identical to the uninterrupted ring's"
        );
    }

    #[test]
    fn checkpoint_at_writes_one_ring_entry_into_the_ring_dir() {
        let dir = std::env::temp_dir().join(format!("simbricks-exp-ring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = build_pair(SimTime::from_ms(1), true);
        e.checkpoint_at(us(300));
        e.set_ring_dir(dir.clone());
        let r = e.run(Execution::Sequential);
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .collect();
        assert_eq!(files, [crate::checkpoint::ring_entry_path(&dir, us(300))]);
        assert_eq!(std::fs::read(&files[0]).unwrap(), r.ring[0].1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execution_parse_roundtrip() {
        assert_eq!(Execution::parse("sequential"), Some(Execution::Sequential));
        assert_eq!(Execution::parse("seq"), Some(Execution::Sequential));
        assert_eq!(Execution::parse("Threads"), None);
        assert_eq!(Execution::parse("threads"), None);
        assert_eq!(
            Execution::parse("sharded"),
            Some(Execution::Sharded { workers: 0 })
        );
        assert_eq!(
            Execution::parse("sharded:8"),
            Some(Execution::Sharded { workers: 8 })
        );
        assert_eq!(Execution::parse("bogus"), None);
        assert_eq!(Execution::parse("sharded:x"), None);
        for e in [
            Execution::Sequential,
            Execution::Sharded { workers: 0 },
            Execution::Sharded { workers: 8 },
        ] {
            assert_eq!(Execution::parse(&e.to_arg()), Some(e), "to_arg roundtrip");
        }
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let r = build_pair(SimTime::from_us(10), true).run(Execution::Sequential);
        assert!(r.model::<String>(0).is_none());
        assert!(r.model::<Echoer>(5).is_none());
    }
}
