//! True multi-process distributed execution (§5.4, Fig. 6/Fig. 8).
//!
//! The paper's headline capability is that modular simulators run as
//! *separate OS processes* connected by message-queue channels, scaling out
//! across machines via socket/RDMA proxies. This module provides that
//! execution mode for one machine (loopback TCP), honestly extensible to
//! many:
//!
//! * An experiment is described once by a **build function**
//!   `fn(scenario, &mut PartitionBuilder)` that assigns every component to a
//!   named partition and declares every cross-partition channel by name.
//! * [`run_local`] instantiates all partitions in one process (the baseline
//!   the distributed run must reproduce bit for bit).
//! * [`run_distributed`] is the **orchestrator**: it self-`exec`s the running
//!   harness binary once per partition (hidden `--dist-worker` mode, see
//!   [`maybe_worker`]), performs listen/connect handshaking for every
//!   cross-partition proxy link, starts all workers behind a barrier,
//!   collects per-worker statistics and event logs over a control socket,
//!   and tears everything down cleanly.
//! * Each **worker** process rebuilds only its partition; every
//!   cross-partition channel is transparently replaced by one side of a
//!   shared-memory region (§5.2) or of a sockets proxy (§5.4), so components
//!   cannot tell they are talking to a different process.
//!
//! The §5.5 synchronization protocol makes simulation results independent of
//! message arrival wall-time, so a distributed run produces event logs
//! bit-identical to the in-process sequential run — the property
//! `tests/integration_determinism.rs` asserts and `fig08_distributed_scaling
//! --dist N` measures.
//!
//! ## Supervision, recovery and fault injection
//!
//! After `GO` each worker's control pump thread heartbeats its virtual-time
//! progress on a wall-clock period ([`DistOptions::heartbeat`]). The
//! orchestrator classifies every failure — worker exit, heartbeat silence,
//! control EOF, protocol violation — as a typed [`DistError`] instead of
//! hanging. A [`DistError::retryable`] failure with restarts left
//! ([`DistOptions::max_restarts`]) relaunches the whole fleet from the
//! newest checkpoint-ring slot that every partition sent and that decodes
//! cleanly, or from zero without one; a recovered run is bit-identical to
//! an undisturbed one (`tests/integration_faults.rs`). Scheduled faults
//! ([`DistOptions::faults`]) fire when the fleet's minimum virtual time
//! crosses their threshold, so a schedule replays identically. A worker
//! whose orchestrator vanishes mid-run exits rather than leak.
//!
//! ## Channel transports
//!
//! Each cross-partition link is a shared-memory region (the paper's
//! same-host design: the component's [`ChannelEnd`](simbricks_base::ChannelEnd)
//! sits on the mapping, nothing forwards) or a §5.4 sockets proxy whose pump
//! the partition's executor drives, so no link adds a thread
//! ([`crate::transport`], [`crate::shm`], [`crate::proxy`]). The owner of a
//! link advertises a scheme-prefixed address in `LINKS` (`tcp:HOST:PORT` or
//! `shm:PATH`) and the other side follows that scheme; `auto` resolves to
//! shared memory wherever the platform supports it. Region files live in a
//! per-run directory that the orchestrator removes when the workers are
//! reaped. `docs/ARCHITECTURE.md` has the full design.
//!
//! Limitations (documented, not silent): distributed runs require
//! synchronized experiments (the emulation-mode stop flag is
//! process-local), and the build function must be deterministic — it runs
//! once for discovery and once for instantiation.
//!
//! The submodules: `builder` ([`PartitionBuilder`]), `wire` (the control
//! protocol), `worker`, `orchestrator` ([`run_distributed`]) and `recovery`
//! (errors, faults, and the pure recovery core).

use std::path::PathBuf;
use std::time::Duration;

use simbricks_base::{EventLog, KernelStats, SimTime};

use crate::experiment::{Execution, RunResult};
use crate::transport::TransportKind;
use wire::DEFAULT_HEARTBEAT;

mod builder;
mod orchestrator;
mod recovery;
mod wire;
mod worker;

pub use builder::PartitionBuilder;
pub use orchestrator::run_distributed;
pub use recovery::{DistError, FaultKind, FaultSpec, RecoveryReport};

/// Environment variable carrying the orchestrator's control-socket address;
/// its presence is what makes [`maybe_worker`] take over the process.
pub const ENV_CONTROL: &str = "SIMBRICKS_DIST_CONTROL";
/// Environment variable naming the partition a worker instantiates.
pub const ENV_PARTITION: &str = "SIMBRICKS_DIST_PARTITION";
/// Environment variable carrying the opaque scenario string.
pub const ENV_SCENARIO: &str = "SIMBRICKS_DIST_SCENARIO";
/// Environment variable selecting the in-worker executor
/// ([`Execution::parse`] syntax).
pub const ENV_EXEC: &str = "SIMBRICKS_DIST_EXEC";
/// Environment variable carrying the orchestrator-resolved cross-partition
/// transport (`tcp` or `shm`) for the links a worker *owns*. The connecting
/// side of each link follows the owner's advertised address scheme instead,
/// so transport is negotiated per link over the existing control protocol.
pub const ENV_DIST_TRANSPORT: &str = "SIMBRICKS_DIST_TRANSPORT";
/// Environment variable naming the per-run directory for shared-memory
/// region files (created and removed by the orchestrator).
pub const ENV_SHM_DIR: &str = "SIMBRICKS_DIST_SHM_DIR";

/// The build function shared by the orchestrator, the workers, and the
/// in-process baseline: constructs the experiment for `scenario` into the
/// given [`PartitionBuilder`]. Must be deterministic (it runs more than once)
/// and must call [`PartitionBuilder::init`] before anything else.
pub type BuildFn = dyn Fn(&str, &mut PartitionBuilder);

/// Options for a distributed run.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Partition names; one worker OS process is launched per entry.
    pub partitions: Vec<String>,
    /// Opaque scenario string handed to the build function (workers receive
    /// it via [`ENV_SCENARIO`]).
    pub scenario: String,
    /// Executor each worker uses for its partition.
    pub exec: Execution,
    /// Cross-partition channel transport ([`TransportKind::Auto`] picks
    /// shared memory on platforms that support it, TCP otherwise). The
    /// orchestrator resolves this once and hands the result to every worker;
    /// the connecting side of each link then follows the owner's advertised
    /// address scheme, so mixed-transport topologies remain possible.
    pub transport: TransportKind,
    /// Extra command-line arguments for the self-`exec`ed worker processes.
    /// Harness binaries use the default hidden `--dist-worker` flag; test
    /// binaries route to their worker-entry test instead.
    pub worker_args: Vec<String>,
    /// Checkpoint ring, the one way a distributed run checkpoints: every
    /// worker quiesces at each multiple of the period and streams its
    /// partition's snapshot to the orchestrator as a `RING` frame. The
    /// orchestrator merges the partitions of each quiesce time into one
    /// whole-experiment SBCK container `<dir>/ck-<time_ps>.ckpt`, which an
    /// in-process build restores through [`Experiment::restore`] and fleet
    /// recovery restarts from. Only the newest `keep` entries survive
    /// (0 = keep all).
    ///
    /// [`Experiment::restore`]: crate::experiment::Experiment::restore
    pub ring: Option<RingOptions>,
    /// Deterministic fault schedule injected by the orchestrator (sorted or
    /// not — each fault fires once when the fleet's minimum virtual time
    /// reaches its threshold).
    pub faults: Vec<FaultSpec>,
    /// How many fleet restarts the supervisor may perform before giving up
    /// with [`DistError::RestartsExhausted`]. 0 = fail on first crash.
    pub max_restarts: u32,
    /// Wall-clock period between worker heartbeats. A worker silent for
    /// `max(20 × heartbeat, 15 s)` is declared dead.
    pub heartbeat: Duration,
}

/// Checkpoint-ring configuration for a distributed run.
#[derive(Clone, Debug)]
pub struct RingOptions {
    /// Virtual time between ring entries.
    pub period: SimTime,
    /// Newest entries kept (0 = keep all).
    pub keep: usize,
    /// Directory the merged whole-experiment containers are written into.
    pub dir: PathBuf,
}

impl DistOptions {
    /// Options for `partitions` workers running `scenario` with the
    /// sequential in-worker executor, the transport selected by
    /// `SIMBRICKS_TRANSPORT` (default `auto`), and the default
    /// `--dist-worker` argv.
    pub fn new(partitions: Vec<String>, scenario: impl Into<String>) -> Self {
        DistOptions {
            partitions,
            scenario: scenario.into(),
            exec: Execution::Sequential,
            transport: TransportKind::from_env_or(TransportKind::Auto),
            worker_args: vec!["--dist-worker".into()],
            ring: None,
            faults: Vec::new(),
            max_restarts: 0,
            heartbeat: DEFAULT_HEARTBEAT,
        }
    }

    /// Request a checkpoint ring: merged whole-experiment containers written
    /// into `dir` at every multiple of `period`, pruned to the newest `keep`.
    pub fn with_checkpoint_ring(
        mut self,
        period: SimTime,
        keep: usize,
        dir: impl Into<PathBuf>,
    ) -> Self {
        self.ring = Some(RingOptions {
            period,
            keep,
            dir: dir.into(),
        });
        self
    }

    /// Select the executor used inside each worker.
    pub fn with_exec(mut self, exec: Execution) -> Self {
        self.exec = exec;
        self
    }

    /// Select the cross-partition channel transport.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Replace the argv passed to spawned workers.
    pub fn with_worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Install a deterministic fault schedule.
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Allow up to `n` fleet restarts for retryable failures.
    pub fn with_max_restarts(mut self, n: u32) -> Self {
        self.max_restarts = n;
        self
    }

    /// Set the worker heartbeat period.
    pub fn with_heartbeat(mut self, period: Duration) -> Self {
        self.heartbeat = period;
        self
    }
}

/// Results of a completed distributed run, reassembled in the global
/// component order of the in-process baseline.
pub struct DistResult {
    /// Orchestrator-measured wall clock from barrier release (`GO`) until the
    /// last worker reported its result.
    pub wall: Duration,
    /// Partition names, in [`DistOptions::partitions`] order.
    pub partition_names: Vec<String>,
    /// Per-partition simulation wall seconds, as measured by each worker.
    pub partition_walls: Vec<f64>,
    /// Component names in global build order.
    pub component_names: Vec<String>,
    /// Per-component kernel statistics, parallel to `component_names`.
    pub stats: Vec<KernelStats>,
    /// Per-component event logs, parallel to `component_names`.
    pub logs: Vec<EventLog>,
    /// What supervision saw: faults injected, restarts performed, ring
    /// entries used. Trivial ([`RecoveryReport::is_trivial`]) for an
    /// undisturbed run.
    pub recovery: RecoveryReport,
}

impl DistResult {
    /// Merge all per-component logs into one global, time-sorted log —
    /// directly comparable (length and fingerprint) with
    /// [`RunResult::merged_log`] of the in-process baseline.
    pub fn merged_log(&self) -> EventLog {
        let refs: Vec<&EventLog> = self.logs.iter().collect();
        EventLog::merge(&refs)
    }

    /// Aggregate statistics over all components of all partitions.
    pub fn total_stats(&self) -> KernelStats {
        KernelStats::merged(&self.stats)
    }

    /// The largest per-partition simulation wall time — the distributed
    /// analogue of [`RunResult::wall_seconds`] (process spawn and handshake
    /// overheads excluded).
    pub fn max_partition_wall(&self) -> f64 {
        self.partition_walls.iter().copied().fold(0.0, f64::max)
    }
}

/// Run the experiment described by `build` entirely in this process (all
/// partitions instantiated, cross links as plain channels) — the baseline a
/// distributed run of the same build function must reproduce bit for bit.
pub fn run_local(scenario: &str, build: &BuildFn, exec: Execution) -> RunResult {
    let mut pb = PartitionBuilder::new_local();
    build(scenario, &mut pb);
    // io-ok: API contract (documented panic), not an I/O failure
    let exp = pb.exp.take().expect("build function must call init()");
    exp.run(exec)
}

/// Worker-process hook: call this first thing in `main` of every harness that
/// supports `--dist`. When the process was spawned by [`run_distributed`]
/// (detected via [`ENV_CONTROL`]), it runs the worker protocol for its
/// partition and **exits the process**; otherwise it returns immediately.
pub fn maybe_worker(build: &BuildFn) {
    if std::env::var_os(ENV_CONTROL).is_none() {
        return;
    }
    let code = match worker::run_worker(build) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("simbricks dist worker failed: {e}");
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::builder::BuildMode;
    use super::recovery::{damage_blob, RingStore};
    use super::*;
    use crate::experiment::Experiment;
    use simbricks_base::{Kernel, Model, OwnedMsg, PortId};

    /// Minimal ping model used to exercise the builder plumbing.
    pub(super) struct Pinger {
        pub(super) count: u64,
        pub(super) sent: u64,
        pub(super) received: u64,
    }

    impl Model for Pinger {
        fn init(&mut self, k: &mut Kernel) {
            if self.count > 0 {
                k.schedule_at(SimTime::from_ns(100), 0);
            }
        }
        fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {
            self.received += 1;
        }
        fn on_timer(&mut self, k: &mut Kernel, _t: u64) {
            k.send(PortId(0), 1, b"ping");
            self.sent += 1;
            if self.sent < self.count {
                k.schedule_in(SimTime::from_us(1), 0);
            }
        }
    }

    pub(super) fn two_partition_build(_scenario: &str, pb: &mut PartitionBuilder) {
        pb.init(Experiment::new("pb-test", SimTime::from_us(50)).with_logging());
        let params = pb.exp().eth_params();
        let (a, b) = pb.channel("x-link", "p0", "p1", params);
        pb.add(
            "p0",
            "left",
            Box::new(Pinger {
                count: 5,
                sent: 0,
                received: 0,
            }),
            vec![a],
        );
        pb.add(
            "p1",
            "right",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![b],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate cross-link name")]
    fn duplicate_link_names_are_rejected() {
        let mut pb = PartitionBuilder::new(BuildMode::Discover, None);
        pb.init(Experiment::new("dup", SimTime::from_us(1)));
        let params = pb.exp().eth_params();
        let _ = pb.channel("l", "a", "b", params);
        let _ = pb.channel("l", "a", "c", params);
    }

    #[test]
    fn dist_options_builders() {
        let o = DistOptions::new(vec!["p0".into()], "s")
            .with_exec(Execution::Sharded { workers: 2 })
            .with_worker_args(vec!["x".into()])
            .with_max_restarts(3)
            .with_heartbeat(Duration::from_millis(25))
            .with_faults(vec![FaultSpec {
                at: SimTime::from_us(1),
                kind: FaultKind::KillWorker {
                    partition: "p0".into(),
                },
            }]);
        assert_eq!(o.exec, Execution::Sharded { workers: 2 });
        assert_eq!(o.worker_args, vec!["x"]);
        assert_eq!(o.scenario, "s");
        assert_eq!(o.max_restarts, 3);
        assert_eq!(o.heartbeat, Duration::from_millis(25));
        assert_eq!(o.faults.len(), 1);
    }

    #[test]
    fn dist_error_retryability_classification() {
        assert!(DistError::WorkerExited {
            partition: "p".into(),
            status: "9".into()
        }
        .retryable());
        assert!(DistError::ControlLost {
            partition: "p".into(),
            error: "eof".into()
        }
        .retryable());
        assert!(DistError::HeartbeatTimeout {
            partition: "p".into(),
            silent: Duration::from_secs(1)
        }
        .retryable());
        assert!(DistError::FaultSever { link: "l".into() }.retryable());
        assert!(DistError::ConnectTimeout {
            missing: vec!["p".into()]
        }
        .retryable());
        assert!(!DistError::Invalid("x".into()).retryable());
        assert!(!DistError::Io("x".into()).retryable());
        assert!(!DistError::Protocol {
            partition: "p".into(),
            error: "x".into()
        }
        .retryable());
        let report = RecoveryReport::default();
        assert!(!DistError::RestartsExhausted {
            restarts: 2,
            last: Box::new(DistError::FaultSever { link: "l".into() }),
            report,
        }
        .retryable());
    }

    /// A partition-shaped checkpoint container encoded for ring-store tests.
    pub(super) fn encoded_part(name: &str, at: SimTime) -> Vec<u8> {
        use crate::checkpoint::CheckpointFile;
        CheckpointFile {
            name: name.to_string(),
            at,
            components: Vec::new(),
        }
        .encode()
    }

    #[test]
    fn select_restore_skips_corrupt_and_incomplete_slots() {
        let parts = ["p0", "p1"];
        let mut store = RingStore::new(parts.len());
        // Slot 100: complete and valid.
        for p in parts {
            store.insert(100, p, encoded_part("e", SimTime::from_ps(100)));
        }
        // Slot 200: complete but one blob corrupted (bit flip mid-blob).
        for p in parts {
            let mut blob = encoded_part("e", SimTime::from_ps(200));
            if p == "p1" {
                damage_blob(&mut blob, false);
            }
            store.insert(200, p, blob);
        }
        // Slot 300: incomplete (p1's snapshot never arrived).
        store.insert(300, "p0", encoded_part("e", SimTime::from_ps(300)));

        let mut report = RecoveryReport::default();
        let picked = store.select_restore(&mut report);
        let (at, blobs) = picked.expect("slot 100 is usable");
        assert_eq!(at, 100, "newest *valid and complete* slot wins");
        assert_eq!(blobs.len(), 2);
        assert_eq!(
            report.rejected_entries.len(),
            1,
            "corrupt slot 200 recorded"
        );
        assert!(report.rejected_entries[0].contains("200"));
        assert!(
            !report.is_trivial(),
            "rejections make the report non-trivial"
        );
    }

    #[test]
    fn select_restore_none_when_everything_torn() {
        let mut store = RingStore::new(1);
        let mut blob = encoded_part("e", SimTime::from_ps(50));
        damage_blob(&mut blob, true); // torn write: truncated to half
        store.insert(50, "p0", blob);
        let mut report = RecoveryReport::default();
        assert!(store.select_restore(&mut report).is_none());
        assert_eq!(report.rejected_entries.len(), 1);
    }

    #[test]
    fn damage_blob_is_deterministic_and_detected() {
        use crate::checkpoint::CheckpointFile;
        let clean = encoded_part("x", SimTime::from_ps(7));
        let mut a = clean.clone();
        let mut b = clean.clone();
        damage_blob(&mut a, false);
        damage_blob(&mut b, false);
        assert_eq!(a, b, "same fault schedule must damage identically");
        assert_ne!(a, clean);
        assert!(
            CheckpointFile::decode(&a).is_err(),
            "checksum catches the flip"
        );
        let mut t = clean.clone();
        damage_blob(&mut t, true);
        assert!(
            CheckpointFile::decode(&t).is_err(),
            "truncation is rejected"
        );
    }

    #[test]
    fn recovery_report_display_mentions_everything() {
        let r = RecoveryReport {
            faults_injected: vec!["kill_worker \"p1\" at 3000000 ps".into()],
            restarts: 1,
            ring_entries_used: vec![Some(SimTime::from_ps(2000000))],
            rejected_entries: vec!["slot 3000000 ps, partition \"p0\": bad checksum".into()],
            time_lost: SimTime::from_ps(1234),
        };
        let s = r.to_string();
        assert!(s.contains("kill_worker"));
        assert!(s.contains("restarts: 1"));
        assert!(s.contains("2000000"));
        assert!(s.contains("bad checksum") || s.contains("rejected"));
        assert!(s.contains("1234"));
    }
}
