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
//! ## Control protocol
//!
//! All control frames are `u32` length-prefixed, a one-byte type, then a
//! type-specific payload. The framing is the proxy handshake's
//! (`crate::proxy`'s frame splitter, with this protocol's own length
//! bounds), and every structured payload is encoded with `simbricks_base`'s
//! `SnapWriter`/`SnapReader` — the checkpoint codec — by one encoder and
//! one decoder per format, side by side. A decoder rejects truncated input
//! and trailing bytes with a typed error; none panics.
//!
//! | frame    | direction      | payload                                      |
//! |----------|----------------|----------------------------------------------|
//! | `HELLO`  | worker → orch  | partition name                               |
//! | `LINKS`  | worker → orch  | rendezvous address per owned cross link      |
//! | `ADDRS`  | orch → worker  | full link-name → address map                 |
//! | `CKPT`   | orch → worker  | checkpoint time, ring, heartbeat, restore blob |
//! | `READY`  | worker → orch  | (empty) partition built, cross links wired   |
//! | `GO`     | orch → worker  | (empty) barrier release, start simulating    |
//! | `CKPT_SAVE` | worker → orch | partition snapshot captured mid-run       |
//! | `RESULT` | worker → orch  | wall seconds + per-component stats and logs  |
//! | `DONE`   | orch → worker  | (empty) all results in, tear down            |
//! | `HEARTBEAT` | worker → orch | liveness + virtual-time progress (u64 ps) |
//! | `RING`   | worker → orch  | one ring snapshot (time + blob), streamed    |
//! | `SEVER`  | orch → worker  | link name whose proxy must be torn down      |
//!
//! ## Supervision and recovery
//!
//! After `GO` each worker starts a control **pump thread** that sends
//! `HEARTBEAT` frames on a wall-clock period ([`DistOptions::heartbeat`]) and
//! watches for orchestrator frames (`SEVER`, `DONE`) and control-channel EOF.
//! The orchestrator's supervisor loop classifies failures — worker process
//! exit, heartbeat silence, control EOF, protocol violations — as typed
//! [`DistError`]s instead of hanging. When a failure is
//! [`DistError::retryable`] and restarts remain
//! ([`DistOptions::max_restarts`]), the whole fleet is torn down and
//! relaunched from the newest checkpoint-ring slot for which every
//! partition's snapshot was received *and decodes cleanly* (torn or corrupt
//! blobs are rejected and older slots tried); with no usable slot the run
//! restarts from virtual time zero. Because §5.5 synchronization makes
//! results independent of wall time and snapshots carry the event logs, a
//! recovered run is bit-identical to an undisturbed one — the property
//! `tests/integration_faults.rs` asserts. A worker whose pump thread sees
//! control EOF before the run completes exits immediately, so an aborting
//! orchestrator never leaks orphan workers.
//!
//! Deterministic **fault injection** ([`DistOptions::faults`]) drives the
//! same machinery on purpose: the orchestrator injects each scheduled fault
//! when the fleet's minimum reported virtual time crosses the fault's
//! threshold — kill a worker, sever a proxy link, corrupt or truncate the
//! newest ring entry — so a fault schedule replays identically run over run.
//!
//! ## Channel transports
//!
//! Each cross-partition link is carried in one of two ways
//! ([`crate::transport`]). Over **shared memory** — the paper's same-host
//! design — the link *is* a channel: the owning worker creates a file-backed
//! region ([`crate::shm`]) during its build, the peer attaches to it during
//! its own, and each component gets a [`ChannelEnd`] whose rings sit in the
//! mapping. Nothing forwards and no thread is added; impairment, SYNC and
//! pause promises and back-pressure ride exactly the in-process path. Over
//! **TCP** the link is a §5.4 sockets proxy: a local channel stub per side
//! whose other end a non-blocking pump forwards. The pump belongs to the
//! partition's [`Experiment`] and its executor drives it between kernel
//! steps (and the worker, after the run, until `DONE`), so a link adds no
//! thread: the paper's busy-polled queues assume a core per poller, and a
//! worker is not given one per link. Selection (`--transport` in harnesses,
//! [`DistOptions::transport`], environment `SIMBRICKS_TRANSPORT`) is
//! negotiated per link over the existing control protocol: the owning side
//! advertises a scheme-prefixed rendezvous address in `LINKS`
//! (`tcp:127.0.0.1:PORT` or `shm:/path/to/region`), and the connecting side
//! follows that scheme; an address without a known scheme is an error.
//! `auto` resolves to shared memory whenever the platform supports it. After
//! `GO` — every partition has built — each owner checks that its regions
//! were attached, not rejected. Region files live in a per-run directory
//! that the orchestrator creates before spawning workers and removes when
//! workers are reaped (normally or on abort); the creating worker
//! additionally unlinks its regions on clean teardown. The §5.5
//! synchronization protocol makes the merged event log bit-identical under
//! either transport — the property the CI loopback smoke test pins for both.
//!
//! Limitations (documented, not silent): distributed runs require
//! synchronized experiments (the emulation-mode stop flag is
//! process-local), and the build function must be deterministic — it runs
//! once for discovery and once for instantiation.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simbricks_base::{
    channel_pair, ChannelEnd, ChannelParams, EventLog, KernelStats, SimTime, SnapError, SnapReader,
    SnapResult, SnapWriter, Snapshot,
};
use simbricks_hostsim::{Application, HostConfig};

use crate::experiment::{AnyModel, Execution, Experiment, RunResult};
use crate::proxy::{frame_len, pump_all, split_frame, write_handshake, ShutdownSignal, TcpPump};
use crate::shm;
use crate::transport::TransportKind;

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

const MSG_HELLO: u8 = 1;
const MSG_LINKS: u8 = 2;
const MSG_ADDRS: u8 = 3;
const MSG_READY: u8 = 4;
const MSG_GO: u8 = 5;
const MSG_RESULT: u8 = 6;
const MSG_DONE: u8 = 7;
/// Orchestrator → worker, after `ADDRS`: checkpoint configuration
/// (`CkptConfig`) — the virtual time to checkpoint at, if any, the
/// checkpoint-ring period and keep bound (0 = no ring), the heartbeat period
/// plus, when restoring, the partition's encoded snapshot container.
const MSG_CKPT: u8 = 8;
/// Worker → orchestrator, before `RESULT`: the partition's encoded snapshot
/// container captured at the configured checkpoint time.
const MSG_CKPT_SAVE: u8 = 9;
/// Worker → orchestrator, periodically after `GO`: liveness beacon carrying
/// the partition's virtual-time progress (u64 picoseconds). Sent by the
/// worker's pump thread on a wall-clock period, so it keeps flowing even
/// while the simulation stalls waiting on peers.
const MSG_HEARTBEAT: u8 = 10;
/// Worker → orchestrator, after each ring quiesce: one ring snapshot as
/// `time u64` + the partition's length-prefixed container. Streamed mid-run (not
/// batched at the end) so the orchestrator always holds the newest complete
/// slot when a worker dies.
const MSG_RING: u8 = 11;
/// Orchestrator → worker (fault injection): the named cross link is torn
/// down — its pump's shutdown signal raised, which also shuts the socket
/// (tcp), or its region closed and poisoned (shm). Payload: link name
/// (UTF-8).
const MSG_SEVER: u8 = 12;

/// Upper bound on one control frame (results carry whole event logs).
const MAX_FRAME: usize = 256 * 1024 * 1024;
/// How long control-socket reads may stall before the run is declared dead.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(600);
/// How long the orchestrator waits for all workers to connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(120);
/// Default wall-clock period between worker heartbeats.
const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(100);
/// Per-read poll interval used by the supervisor loop and the worker pump
/// thread (`SO_RCVTIMEO`, so the sockets stay blocking for writes).
const POLL_TIMEOUT: Duration = Duration::from_millis(2);
/// How long a worker whose run is over sleeps between idle pumps of its tcp
/// links while it waits for `DONE`.
const LINK_IDLE: Duration = Duration::from_micros(50);
/// Bounded connect retry: attempts and initial backoff (doubles per retry).
const CONNECT_RETRIES: u32 = 6;
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// The build function shared by the orchestrator, the workers, and the
/// in-process baseline: constructs the experiment for `scenario` into the
/// given [`PartitionBuilder`]. Must be deterministic (it runs more than once)
/// and must call [`PartitionBuilder::init`] before anything else.
pub type BuildFn = dyn Fn(&str, &mut PartitionBuilder);

// ---------------------------------------------------------------------------
// Errors, faults, recovery report
// ---------------------------------------------------------------------------

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
            DistError::WorkerExited { partition, status } => {
                write!(
                    f,
                    "worker {partition:?} exited ({status}) before its result"
                )
            }
            DistError::ControlLost { partition, error } => {
                write!(
                    f,
                    "control connection to worker {partition:?} lost: {error}"
                )
            }
            DistError::HeartbeatTimeout { partition, silent } => {
                write!(
                    f,
                    "worker {partition:?} silent for {silent:?} (heartbeat timeout)"
                )
            }
            DistError::Protocol { partition, error } => {
                write!(f, "protocol violation from worker {partition:?}: {error}")
            }
            DistError::FaultSever { link } => {
                write!(f, "injected fault severed link {link:?}")
            }
            DistError::RestartsExhausted { restarts, last, .. } => {
                write!(
                    f,
                    "gave up after {restarts} restart(s); last failure: {last}"
                )
            }
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
/// what recovery cost. Attached to every [`DistResult`] (trivial when the run
/// was undisturbed) and to [`DistError::RestartsExhausted`].
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Human-readable record of each injected fault, in injection order.
    /// The fleet time the heartbeats showed when a fault fired depends on
    /// wall-clock timing, so it is left out: two runs with one fault
    /// schedule record the same lines.
    pub faults_injected: Vec<String>,
    /// Fleet restarts performed.
    pub restarts: u32,
    /// Per restart: the ring slot restored from (`None` = restart from zero).
    pub ring_entries_used: Vec<Option<SimTime>>,
    /// Ring entries rejected as corrupt/torn during recovery or merging.
    pub rejected_entries: Vec<String>,
    /// Virtual time re-simulated: the sum over restarts of (progress high
    /// water at failure − restore point).
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

// ---------------------------------------------------------------------------
// Partition builder
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BuildMode {
    /// Instantiate every partition in this process (in-process baseline).
    Local,
    /// Record cross-link declarations only; drop all components.
    Discover,
    /// Instantiate one partition; bridge cross links with shm regions or
    /// tcp pumps.
    Worker,
}

/// A declared cross-partition channel. The channel parameters are not stored
/// here: each side re-derives them in its own build and the proxy handshake
/// verifies they agree.
#[derive(Clone, Debug)]
struct LinkDecl {
    name: String,
    a: String,
    b: String,
}

/// Builder handed to the experiment build function. It mirrors
/// [`Experiment`]'s assembly API but every component is placed into a named
/// partition and every channel that may cross partitions is declared by name
/// through [`PartitionBuilder::channel`]. The same build code then serves
/// three purposes: the in-process baseline, cross-link discovery, and worker
/// instantiation (where off-partition components are dropped and cross links
/// become shared-memory regions or sockets proxies).
pub struct PartitionBuilder {
    mode: BuildMode,
    local: Option<String>,
    exp: Option<Experiment>,
    links: Vec<LinkDecl>,
    next_global: usize,
    local_globals: Vec<usize>,
    /// Component names in global build order (recorded in every mode; the
    /// orchestrator needs them to merge per-partition ring checkpoints into
    /// whole-experiment containers).
    global_names: Vec<String>,
    listeners: HashMap<String, TcpListener>,
    addr_map: HashMap<String, String>,
    /// Transport for links this worker owns (resolved, never `Auto`).
    transport: TransportKind,
    /// Per-run directory for shm region files (worker mode with shm links).
    shm_dir: Option<PathBuf>,
    /// Cross-link wiring failures collected during a worker build. The build
    /// function's signature cannot carry a `Result`, so [`cross_end`]
    /// records failures here (returning a dangling end) and the worker turns
    /// them into one typed error after the build returns.
    ///
    /// [`cross_end`]: PartitionBuilder::cross_end
    build_errors: Vec<String>,
    /// Per cross link wired in this worker: how an injected `SEVER` tears it
    /// down by name — raise the pump's shutdown signal (tcp) or close and
    /// poison the region (shm).
    link_severs: Vec<(String, Box<dyn Fn() + Send>)>,
    /// Shm regions this worker created; checked for an attached peer after
    /// `GO`.
    owned_regions: Vec<(String, Arc<shm::ShmRegion>)>,
}

/// A channel endpoint whose peer is already gone (used as a placeholder for
/// ports of components that live in another partition).
fn dangling(params: ChannelParams) -> ChannelEnd {
    channel_pair(params).0
}

impl PartitionBuilder {
    fn new(mode: BuildMode, local: Option<String>) -> Self {
        PartitionBuilder {
            mode,
            local,
            exp: None,
            links: Vec::new(),
            next_global: 0,
            local_globals: Vec::new(),
            global_names: Vec::new(),
            listeners: HashMap::new(),
            addr_map: HashMap::new(),
            transport: TransportKind::Tcp,
            shm_dir: None,
            build_errors: Vec::new(),
            link_severs: Vec::new(),
            owned_regions: Vec::new(),
        }
    }

    /// A builder that assembles everything into one local in-process
    /// experiment (partition names are recorded but every component is
    /// instantiated). This is what scenario loaders and benches use to run a
    /// partition-aware build function single-process.
    pub fn new_local() -> Self {
        Self::new(BuildMode::Local, None)
    }

    /// Consume the builder and hand back the assembled [`Experiment`].
    /// Panics if the build function never called [`PartitionBuilder::init`].
    pub fn into_experiment(mut self) -> Experiment {
        // io-ok: API contract (documented panic), not an I/O failure
        self.exp.take().expect("build function must call init()")
    }

    /// Install the experiment this builder assembles into. Must be the first
    /// call the build function makes.
    pub fn init(&mut self, exp: Experiment) {
        assert!(self.exp.is_none(), "PartitionBuilder::init called twice");
        self.exp = Some(exp);
    }

    /// The experiment under assembly (for channel parameters etc.).
    /// Panics if [`PartitionBuilder::init`] has not been called.
    pub fn exp(&mut self) -> &mut Experiment {
        self.exp
            .as_mut()
            // io-ok: API contract (documented panic), not an I/O failure
            .expect("build function must call init() first")
    }

    /// The partition this builder instantiates, or `None` when every
    /// partition is built in-process.
    pub fn partition(&self) -> Option<&str> {
        match self.mode {
            BuildMode::Local => None,
            _ => self.local.as_deref(),
        }
    }

    fn is_local(&self, partition: &str) -> bool {
        match self.mode {
            BuildMode::Local => true,
            BuildMode::Discover => false,
            BuildMode::Worker => self.local.as_deref() == Some(partition),
        }
    }

    /// Add a component that lives in `partition`. Ports and model are
    /// dropped unless that partition is instantiated here. Returns the
    /// component's **global** id — stable across all build modes, so results
    /// collected from different worker processes can be reassembled in the
    /// exact order of the in-process baseline.
    pub fn add(
        &mut self,
        partition: &str,
        name: impl Into<String>,
        model: Box<dyn AnyModel>,
        ports: Vec<ChannelEnd>,
    ) -> usize {
        let global = self.next_global;
        self.next_global += 1;
        let name = name.into();
        self.global_names.push(name.clone());
        if self.is_local(partition) {
            self.exp().add(name, model, ports);
            self.local_globals.push(global);
        }
        global
    }

    /// Declare a named channel between partitions `a` and `b` and return its
    /// two endpoints (`a`-side first). When the partitions differ this is a
    /// **cross link**: in a worker it is one side of a shared-memory region
    /// or of a sockets proxy (the `a` side creates/listens, the `b` side
    /// attaches/connects, with a handshake verifying link name and
    /// parameters either way).
    /// Endpoints belonging to partitions not instantiated here are dangling
    /// placeholders that must not be attached to live components.
    pub fn channel(
        &mut self,
        link: &str,
        a: &str,
        b: &str,
        params: ChannelParams,
    ) -> (ChannelEnd, ChannelEnd) {
        if a != b {
            assert!(
                !self.links.iter().any(|l| l.name == link),
                "duplicate cross-link name {link:?}"
            );
            self.links.push(LinkDecl {
                name: link.to_string(),
                a: a.to_string(),
                b: b.to_string(),
            });
        }
        match self.mode {
            BuildMode::Local => channel_pair(params),
            BuildMode::Discover => (dangling(params), dangling(params)),
            BuildMode::Worker => {
                // io-ok: constructor invariant - worker mode always carries one
                let local = self.local.clone().expect("worker mode has a partition");
                if a == b {
                    if a == local {
                        channel_pair(params)
                    } else {
                        (dangling(params), dangling(params))
                    }
                } else if a == local {
                    (self.cross_end(link, params, true), dangling(params))
                } else if b == local {
                    (dangling(params), self.cross_end(link, params, false))
                } else {
                    (dangling(params), dangling(params))
                }
            }
        }
    }

    /// Worker-side half of a cross-partition link. The owning (`a`) side
    /// uses the worker's resolved transport and the connecting (`b`) side
    /// follows the scheme of the owner's advertised address, so the
    /// transport is negotiated per link:
    ///
    /// * `shm:` — the owner creates the region, the peer attaches to it, and
    ///   the returned endpoint sits directly on the mapping: no stub, no
    ///   thread. Attaching polls until the owner has created the region,
    ///   which cannot deadlock: every worker runs the same deterministic
    ///   build function, so links are visited in one global order and
    ///   creating never waits.
    /// * `tcp:` — a local channel stub whose other end a pump forwards over
    ///   a connection to the owner's pre-bound listener. The pump belongs to
    ///   the partition's experiment and the executor drives it: no thread.
    ///   The owner accepts lazily, once the run starts, so the build never
    ///   blocks on connection ordering.
    ///
    /// Failures are recorded in `build_errors` and yield a dangling end.
    fn cross_end(&mut self, link: &str, params: ChannelParams, listen: bool) -> ChannelEnd {
        self.wire_cross_end(link, params, listen)
            .unwrap_or_else(|e| {
                self.build_errors.push(e);
                dangling(params)
            })
    }

    fn wire_cross_end(
        &mut self,
        link: &str,
        params: ChannelParams,
        listen: bool,
    ) -> Result<ChannelEnd, String> {
        if listen {
            return match self.transport {
                TransportKind::Shm => self.shm_cross_end(link, params, None),
                _ => self.tcp_cross_end(link, params, None),
            };
        }
        let addr = self.addr_map.get(link).cloned();
        let addr = addr.ok_or_else(|| format!("no peer address for link {link:?}"))?;
        match addr.split_once(':') {
            Some(("shm", path)) => self.shm_cross_end(link, params, Some(Path::new(path))),
            Some(("tcp", peer)) => self.tcp_cross_end(link, params, Some(peer)),
            _ => Err(format!(
                "link {link:?}: address {addr:?} has no known scheme"
            )),
        }
    }

    /// One side of a shared-memory link: create the region (`peer_region`
    /// is `None`, the owner) or attach to the owner's, and hand the
    /// component the endpoint on the mapping.
    fn shm_cross_end(
        &mut self,
        link: &str,
        params: ChannelParams,
        peer_region: Option<&Path>,
    ) -> Result<ChannelEnd, String> {
        let endpoint = match peer_region {
            None => {
                let dir = self.shm_dir.clone().unwrap_or_else(std::env::temp_dir);
                let ep = shm::create_region(&shm::region_path(&dir, link), link, params)
                    .map_err(|e| format!("create shm region for link {link:?}: {e}"))?;
                self.owned_regions.push((link.to_string(), ep.region()));
                ep
            }
            Some(path) => {
                let deadline = Instant::now() + CONNECT_TIMEOUT;
                shm::attach_region(path, link, params, deadline, &ShutdownSignal::default())
                    .map_err(|e| format!("attach shm region for link {link:?}: {e}"))?
            }
        };
        let region = endpoint.region();
        self.link_severs
            .push((link.to_string(), Box::new(move || region.sever())));
        Ok(endpoint.into_channel_end())
    }

    /// One side of a sockets-proxy link: a local channel stub whose other end
    /// a `TcpPump` forwards, handed to the partition's experiment so its
    /// executor drives it — no thread. The owner's pump (`peer` is `None`)
    /// accepts on the pre-bound listener once the run starts; the peer's
    /// connect and handshake write complete against the listen backlog
    /// here, during the build, so no build waits for an accept.
    fn tcp_cross_end(
        &mut self,
        link: &str,
        params: ChannelParams,
        peer: Option<&str>,
    ) -> Result<ChannelEnd, String> {
        let (mut component_end, proxy_local) = channel_pair(params);
        // Impairment streams are seeded by logical link direction. A proxied
        // endpoint comes from a fresh local pair, so its tag must be forced
        // to the side it plays globally: the listening side is always the
        // link's `a` endpoint (dir 0), the connecting side `b` (dir 1).
        // Without this, both partitions would draw dir-0 streams and a
        // distributed run would diverge from the local one.
        component_end.set_dir(if peer.is_none() { 0 } else { 1 });
        let shutdown = Arc::new(ShutdownSignal::default());
        let sever = shutdown.clone();
        self.link_severs
            .push((link.to_string(), Box::new(move || sever.signal())));
        let pump = if let Some(addr) = peer {
            // A freshly advertised listener may not be accepting yet, and
            // transient refusals happen during fleet restarts — retry with
            // bounded exponential backoff instead of failing on the first
            // attempt.
            let mut stream = connect_with_backoff(addr)
                .map_err(|e| format!("connect cross link {link:?} at {addr}: {e}"))?;
            write_handshake(&mut stream, link, &params)
                .map_err(|e| format!("handshake on link {link:?}: {e}"))?;
            TcpPump::live(link, proxy_local, stream, Arc::default(), shutdown)
        } else {
            let listener = self
                .listeners
                .remove(link)
                .ok_or_else(|| format!("no pre-bound listener for owned link {link:?}"))?;
            let deadline = Instant::now() + CONNECT_TIMEOUT;
            let counters = Arc::default();
            TcpPump::accepting(
                link,
                params,
                proxy_local,
                listener,
                deadline,
                counters,
                shutdown,
            )
        };
        let pump = pump.map_err(|e| format!("tcp link {link:?}: {e}"))?;
        self.exp().add_pump(pump);
        Ok(component_end)
    }

    /// Add a host + NIC pair (PCIe-connected, as in
    /// [`crate::build::attach_host_nic`]) to `partition`. Returns the two
    /// global component ids plus the network-side Ethernet endpoint, which is
    /// only live when the partition is instantiated here and must stay within
    /// the same partition — use [`PartitionBuilder::attach_host_nic_on`] when
    /// the Ethernet link itself crosses partitions.
    pub fn attach_host_nic(
        &mut self,
        partition: &str,
        name: &str,
        cfg: HostConfig,
        app: Box<dyn Application>,
        rtl_nic: bool,
    ) -> (usize, usize, ChannelEnd) {
        let eth_params = self.exp().eth_params();
        let (eth_nic, eth_net) = channel_pair(eth_params);
        let (h, n) = self.attach_host_nic_on(partition, name, cfg, app, rtl_nic, eth_nic);
        (h, n, eth_net)
    }

    /// Like [`PartitionBuilder::attach_host_nic`], but the NIC's Ethernet
    /// endpoint is supplied by the caller — typically one side of a
    /// [`PartitionBuilder::channel`] whose other side is a network simulator
    /// in a different partition.
    pub fn attach_host_nic_on(
        &mut self,
        partition: &str,
        name: &str,
        mut cfg: HostConfig,
        app: Box<dyn Application>,
        rtl_nic: bool,
        eth_nic: ChannelEnd,
    ) -> (usize, usize) {
        let (pcie_params, synchronized) = {
            let e = self.exp();
            (e.pcie_params(), e.is_synchronized())
        };
        if !synchronized {
            cfg.quit_when_done = true;
        }
        let (pcie_host, pcie_nic) = channel_pair(pcie_params);
        let h = self.add(
            partition,
            format!("{name}.host"),
            crate::build::host_component(cfg, app),
            vec![pcie_host],
        );
        let n = self.add(
            partition,
            format!("{name}.nic"),
            crate::build::nic_model(cfg.nic, rtl_nic),
            vec![pcie_nic, eth_nic],
        );
        (h, n)
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

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
    /// Mid-run checkpoint: quiesce every partition at the given virtual time
    /// and write one region file per partition (`<dir>/<partition>.ckpt`)
    /// into the given directory. Snapshots travel from the workers to the
    /// orchestrator over the control socket.
    pub checkpoint: Option<(SimTime, PathBuf)>,
    /// Restore every partition from `<dir>/<partition>.ckpt` before the
    /// start barrier; the run then resumes at the checkpoint's virtual time.
    pub restore_from: Option<PathBuf>,
    /// Checkpoint ring: every worker quiesces at each multiple of the period
    /// and ships its partition's snapshots to the orchestrator, which merges
    /// the partitions of each quiesce time into one whole-experiment SBCK
    /// container `<dir>/ck-<time_ps>.ckpt` (restorable through the ordinary
    /// local path). Only the newest `keep` entries survive (0 = keep all).
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
            checkpoint: None,
            restore_from: None,
            ring: None,
            faults: Vec::new(),
            max_restarts: 0,
            heartbeat: DEFAULT_HEARTBEAT,
        }
    }

    /// Request a mid-run checkpoint at virtual time `at`, written as one
    /// file per partition into `dir`.
    pub fn with_checkpoint(mut self, at: SimTime, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some((at, dir.into()));
        self
    }

    /// Restore all partitions from the per-partition files in `dir`.
    pub fn with_restore(mut self, dir: impl Into<PathBuf>) -> Self {
        self.restore_from = Some(dir.into());
        self
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
    let mut pb = PartitionBuilder::new(BuildMode::Local, None);
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
    let code = match run_worker(build) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("simbricks dist worker failed: {e}");
            1
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Control frames and their payloads
// ---------------------------------------------------------------------------

fn write_frame(s: &mut TcpStream, ty: u8, payload: &[u8]) -> io::Result<()> {
    // Mirror the reader's bound so an oversized payload (e.g. a gigantic
    // event log in RESULT) fails loudly on the writer side instead of
    // wrapping the u32 length prefix and corrupting the protocol.
    if payload.len() + 1 > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("control frame too large ({} bytes)", payload.len()),
        ));
    }
    let mut frame = SnapWriter::new();
    frame.u32((payload.len() + 1) as u32);
    frame.u8(ty);
    frame.raw(payload);
    s.write_all(&frame.into_vec())
}

fn read_frame(s: &mut TcpStream) -> io::Result<(u8, Vec<u8>)> {
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix)?;
    let mut body = vec![0u8; frame_len(prefix, 1, MAX_FRAME)?];
    s.read_exact(&mut body)?;
    let payload = body.split_off(1);
    Ok((body[0], payload))
}

fn expect_frame(s: &mut TcpStream, ty: u8) -> io::Result<Vec<u8>> {
    let (got, payload) = read_frame(s)?;
    if got != ty {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected control frame {ty}, got {got}"),
        ));
    }
    Ok(payload)
}

/// Bounded retry-with-exponential-backoff TCP connect: [`CONNECT_RETRIES`]
/// attempts starting at [`CONNECT_BACKOFF`], doubling per retry. Transient
/// refusals are normal while a fleet is (re)starting — a listener may be
/// advertised before its accept loop runs.
fn connect_with_backoff(addr: &str) -> io::Result<TcpStream> {
    let mut backoff = CONNECT_BACKOFF;
    let mut last = None;
    for attempt in 0..CONNECT_RETRIES {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < CONNECT_RETRIES {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed"))) // io-ok: loop ran >= 1 time
}

/// Incremental reassembly buffer for control frames read from a socket
/// polled with a short `SO_RCVTIMEO` (partial reads are routine there).
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop one complete frame if buffered: `(type, payload)`.
    fn pop(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let Some(body) = split_frame(&self.buf, 1, MAX_FRAME)? else {
            return Ok(None);
        };
        let frame = (body[0], body[1..].to_vec());
        let used = 4 + body.len();
        self.buf.drain(..used);
        Ok(Some(frame))
    }
}

/// One poll-read from a control socket into `fb`. Returns `Ok(true)` on EOF.
/// The socket stays blocking (writes unaffected); a short read timeout makes
/// this a bounded poll.
fn drain_ctrl(s: &mut TcpStream, fb: &mut FrameBuf, scratch: &mut [u8]) -> io::Result<bool> {
    loop {
        match s.read(scratch) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                fb.push(&scratch[..n]);
                // A full scratch buffer usually means more is queued.
                if n < scratch.len() {
                    return Ok(false);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `value`, provided `r` consumed the whole payload.
fn finish<T>(r: SnapReader, value: T) -> SnapResult<T> {
    if !r.is_empty() {
        return Err(SnapError::Corrupt(format!(
            "{} trailing bytes in a control payload",
            r.remaining()
        )));
    }
    Ok(value)
}

/// `LINKS` (worker → orchestrator: the links the worker owns) and `ADDRS`
/// (orchestrator → every worker: all links): link name → scheme-prefixed
/// rendezvous address.
fn encode_addrs(addrs: &[(String, String)]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u32(addrs.len() as u32);
    for (name, addr) in addrs {
        w.str(name);
        w.str(addr);
    }
    w.into_vec()
}

fn decode_addrs(payload: &[u8]) -> SnapResult<Vec<(String, String)>> {
    let mut r = SnapReader::new(payload);
    let mut addrs = Vec::new();
    for _ in 0..r.u32()? {
        addrs.push((r.str()?, r.str()?));
    }
    finish(r, addrs)
}

/// `CKPT` (orchestrator → worker, after `ADDRS`): what the worker does about
/// checkpoints and heartbeats, and the snapshot it restores before `READY`.
#[derive(Debug, PartialEq)]
struct CkptConfig {
    /// Quiesce at this virtual time and ship the snapshot as `CKPT_SAVE`.
    checkpoint_at: Option<SimTime>,
    /// Checkpoint-ring period (zero: no ring) and the slots kept.
    ring_period: SimTime,
    ring_keep: usize,
    /// Wall-clock heartbeat period (sent in whole milliseconds; zero
    /// decodes as [`DEFAULT_HEARTBEAT`]).
    heartbeat: Duration,
    /// The partition's snapshot container to restore from.
    restore: Option<Vec<u8>>,
}

impl CkptConfig {
    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.opt_time(self.checkpoint_at);
        w.time(self.ring_period);
        w.usize(self.ring_keep);
        w.u64(self.heartbeat.as_millis() as u64);
        w.bool(self.restore.is_some());
        if let Some(blob) = &self.restore {
            w.bytes(blob);
        }
        w.into_vec()
    }

    fn decode(payload: &[u8]) -> SnapResult<CkptConfig> {
        let mut r = SnapReader::new(payload);
        let cfg = CkptConfig {
            checkpoint_at: r.opt_time()?,
            ring_period: r.time()?,
            ring_keep: r.usize()?,
            heartbeat: match r.u64()? {
                0 => DEFAULT_HEARTBEAT,
                ms => Duration::from_millis(ms),
            },
            restore: if r.bool()? { Some(r.bytes()?) } else { None },
        };
        finish(r, cfg)
    }
}

/// `HEARTBEAT` (worker → orchestrator, on a wall-clock period after `GO`):
/// the partition's virtual-time progress in picoseconds.
fn encode_heartbeat(progress_ps: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64(progress_ps);
    w.into_vec()
}

fn decode_heartbeat(payload: &[u8]) -> SnapResult<u64> {
    let mut r = SnapReader::new(payload);
    let progress_ps = r.u64()?;
    finish(r, progress_ps)
}

/// `RING` (worker → orchestrator, after each ring quiesce): the slot's
/// virtual time in picoseconds and the partition's snapshot container.
fn encode_ring(at: SimTime, blob: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.time(at);
    w.bytes(blob);
    w.into_vec()
}

fn decode_ring(payload: &[u8]) -> SnapResult<(u64, Vec<u8>)> {
    let mut r = SnapReader::new(payload);
    let at = r.u64()?;
    let blob = r.bytes()?;
    finish(r, (at, blob))
}

/// `RESULT` (worker → orchestrator, after the run): the partition's wall
/// seconds, then per component its global build index, name, stats and
/// event log, the last two in their checkpoint encoding.
fn encode_result(result: &RunResult, local_globals: &[usize]) -> SnapResult<Vec<u8>> {
    let mut w = SnapWriter::new();
    w.f64(result.wall_seconds());
    w.u32(result.component_names.len() as u32);
    for (i, name) in result.component_names.iter().enumerate() {
        w.usize(local_globals[i]);
        w.str(name);
        result.stats[i].snapshot(&mut w)?;
        result.logs[i].snapshot(&mut w)?;
    }
    Ok(w.into_vec())
}

/// The fewest bytes one `RESULT` component record takes: global index, name
/// length, the stats words, and an empty log's mode, flag and count.
const MIN_RESULT_RECORD: usize = 8 + 4 + KernelStats::ENCODED_WORDS * 8 + 10;

struct WorkerReport {
    wall_seconds: f64,
    /// (global id, name, stats, log) per component of the partition.
    components: Vec<(usize, String, KernelStats, EventLog)>,
}

fn decode_result(payload: &[u8]) -> SnapResult<WorkerReport> {
    let mut r = SnapReader::new(payload);
    let wall_seconds = r.f64()?;
    let ncomp = r.u32()? as usize;
    // Bound the untrusted count by what the payload can hold before
    // reserving for it.
    if ncomp > r.remaining() / MIN_RESULT_RECORD {
        return Err(SnapError::Corrupt(format!(
            "component count {ncomp} exceeds the result payload"
        )));
    }
    let mut components = Vec::with_capacity(ncomp);
    for _ in 0..ncomp {
        let global = r.usize()?;
        let name = r.str()?;
        let mut stats = KernelStats::default();
        stats.restore(&mut r)?;
        let mut log = EventLog::default();
        log.restore(&mut r)?;
        components.push((global, name, stats, log));
    }
    finish(
        r,
        WorkerReport {
            wall_seconds,
            components,
        },
    )
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn env_string(key: &str) -> io::Result<String> {
    std::env::var(key)
        .map_err(|_| io::Error::new(io::ErrorKind::NotFound, format!("{key} not set")))
}

fn run_worker(build: &BuildFn) -> io::Result<()> {
    let control_addr = env_string(ENV_CONTROL)?;
    let partition = env_string(ENV_PARTITION)?;
    let scenario = std::env::var(ENV_SCENARIO).unwrap_or_default();
    let exec = Execution::from_env(ENV_EXEC)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        .unwrap_or(Execution::Sequential);
    // The orchestrator hands every worker the resolved transport for the
    // links it owns. Workers are always self-exec'd from this same binary,
    // so anything but `tcp`/`shm` is a protocol error, not a default.
    let transport = match TransportKind::parse(&env_string(ENV_DIST_TRANSPORT)?) {
        Some(k @ (TransportKind::Tcp | TransportKind::Shm)) => k,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{ENV_DIST_TRANSPORT} must be tcp or shm"),
            ))
        }
    };
    let shm_dir = std::env::var_os(ENV_SHM_DIR)
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    // Discovery pass: learn the cross-link set so the rendezvous point for
    // every owned link — a bound TCP listener or an shm region path — can be
    // advertised before any partner tries to connect.
    let mut pb = PartitionBuilder::new(BuildMode::Discover, Some(partition.clone()));
    build(&scenario, &mut pb);
    let links = pb.links;

    let mut listeners = HashMap::new();
    let mut my_links = Vec::new();
    for l in &links {
        if l.a == partition && l.b != partition {
            match transport {
                TransportKind::Shm => {
                    let path = shm::region_path(&shm_dir, &l.name);
                    my_links.push((l.name.clone(), format!("shm:{}", path.display())));
                }
                _ => {
                    let listener = TcpListener::bind("127.0.0.1:0")?;
                    my_links.push((l.name.clone(), format!("tcp:{}", listener.local_addr()?)));
                    listeners.insert(l.name.clone(), listener);
                }
            }
        }
    }

    // The orchestrator binds its control socket before spawning workers, but
    // a restarting fleet can race it — bounded backoff instead of one shot.
    let mut ctrl = connect_with_backoff(&control_addr)?;
    ctrl.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    ctrl.set_nodelay(true)?;
    write_frame(&mut ctrl, MSG_HELLO, partition.as_bytes())?;
    write_frame(&mut ctrl, MSG_LINKS, &encode_addrs(&my_links))?;
    let addr_map = decode_addrs(&expect_frame(&mut ctrl, MSG_ADDRS)?)?;

    // Real build: instantiate this partition, bridging cross links.
    let mut pb = PartitionBuilder::new(BuildMode::Worker, Some(partition.clone()));
    pb.listeners = listeners;
    pb.addr_map = addr_map.into_iter().collect();
    pb.transport = transport;
    pb.shm_dir = Some(shm_dir);
    build(&scenario, &mut pb);
    if !pb.build_errors.is_empty() {
        return Err(io::Error::other(format!(
            "partition {partition:?} build failed: {}",
            pb.build_errors.join("; ")
        )));
    }
    let mut exp = pb.exp.take().expect("build function must call init()"); // io-ok: API contract
    if !exp.is_synchronized() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "distributed runs require a synchronized experiment",
        ));
    }
    // Remote promises arrive asynchronously: an all-blocked partition is a
    // normal transient state, not a deadlock.
    exp.set_external_inputs();
    let local_globals = std::mem::take(&mut pb.local_globals);
    let link_severs = std::mem::take(&mut pb.link_severs);
    let owned_regions = std::mem::take(&mut pb.owned_regions);

    // Checkpoint configuration: the orchestrator tells every worker whether
    // (and when) to quiesce, and hands it its restore snapshot, if any.
    let mut ckpt = CkptConfig::decode(&expect_frame(&mut ctrl, MSG_CKPT)?)?;
    if let Some(blob) = ckpt.restore.take() {
        exp.restore_from_blob(&blob).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("restoring partition {partition:?}: {e}"),
            )
        })?;
    }
    if let Some(at) = ckpt.checkpoint_at {
        exp.checkpoint_at(at, None);
    }
    if ckpt.ring_period != SimTime::ZERO {
        // Every worker quiesces at the same virtual times (pause promises
        // keep the partitions in lockstep across the cross links), so each
        // partition contributes a snapshot for every ring slot.
        exp.set_checkpoint_ring(ckpt.ring_period, ckpt.ring_keep);
    }

    // Barrier-synchronized start: report readiness, wait for the release.
    write_frame(&mut ctrl, MSG_READY, &[])?;
    expect_frame(&mut ctrl, MSG_GO)?;
    // Every partition has built by now, so the peer of each shm region this
    // worker created has attached — or rejected the handshake and poisoned
    // it. Never simulate against an unattached region.
    for (link, region) in &owned_regions {
        region
            .wait_attached(Instant::now(), &ShutdownSignal::default())
            .map_err(|e| io::Error::new(e.kind(), format!("shm link {link:?}: {e}")))?;
    }

    // Post-GO the control channel goes full duplex: a pump thread owns the
    // read side (heartbeats out, SEVER/DONE in, EOF detection) while the
    // main thread simulates and later ships results through a shared writer.
    let writer = Arc::new(Mutex::new(ctrl.try_clone()?));
    let progress = exp.progress_handle();
    let run_done = Arc::new(AtomicBool::new(false));
    let done_acked = Arc::new(AtomicBool::new(false));
    let ctrl_gone = Arc::new(AtomicBool::new(false));
    if ckpt.ring_period != SimTime::ZERO {
        // Stream each ring snapshot to the orchestrator as it is captured,
        // so the newest complete slot is already there when this worker (or
        // a peer) dies. Send failures are ignored here: the pump thread
        // classifies a dead control channel authoritatively.
        let w = writer.clone();
        exp.set_ring_sink(Box::new(move |at, blob| {
            let payload = encode_ring(at, blob);
            if let Ok(mut s) = w.lock() {
                let _ = write_frame(&mut s, MSG_RING, &payload);
            }
        }));
    }
    let ctrl_pump = {
        let writer = writer.clone();
        let run_done = run_done.clone();
        let done_acked = done_acked.clone();
        let ctrl_gone = ctrl_gone.clone();
        let reader = ctrl;
        std::thread::Builder::new()
            .name("dist-ctrl-pump".into())
            .spawn(move || {
                pump_control(
                    reader,
                    writer,
                    progress,
                    link_severs,
                    ckpt.heartbeat,
                    run_done,
                    done_acked,
                    ctrl_gone,
                )
            })?
    };

    // The executor pumps the tcp links while it steps the partition; the
    // pumps come back with the result.
    let mut result = exp.run(exec);
    run_done.store(true, Ordering::SeqCst);
    let mut links = result.take_pumps();

    {
        let mut w = writer
            .lock()
            .map_err(|_| io::Error::other("control writer poisoned"))?;
        if ckpt.checkpoint_at.is_some() {
            let blob = result.checkpoint.as_deref().unwrap_or(&[]);
            write_frame(&mut w, MSG_CKPT_SAVE, blob)?;
        }
        write_frame(&mut w, MSG_RESULT, &encode_result(&result, &local_globals)?)?;
    }
    // Our components are done, but a peer may still be waiting for the last
    // messages they sent: keep pumping the tcp links (flush, then shut the
    // write side down and wait for the peer's EOF) until the orchestrator's
    // DONE, observed by the control pump, confirms every worker has
    // reported. Dropping the pumps afterwards closes the sockets. (Shm links
    // need nothing: what our components sent is in the mapping.)
    let deadline = Instant::now() + CONTROL_TIMEOUT;
    while !done_acked.load(Ordering::SeqCst) {
        if ctrl_gone.load(Ordering::SeqCst) {
            return Err(io::Error::other("control connection closed before DONE"));
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for DONE",
            ));
        }
        if !pump_all(&mut links) {
            std::thread::sleep(LINK_IDLE);
        }
    }
    drop(links);
    let _ = ctrl_pump.join();
    Ok(())
}

/// The orchestrator is gone (control EOF / write failure mid-run): a worker
/// must never outlive it, so exit the whole process — this is the orphan
/// leak fix for self-exec'd workers whose orchestrator aborts.
fn orphan_exit(msg: &str) -> ! {
    eprintln!("simbricks dist worker: {msg}; exiting to avoid an orphan process");
    std::process::exit(3);
}

/// Worker control pump (post-`GO`): heartbeats out on a wall-clock period —
/// carrying the partition's virtual-time progress — plus `SEVER`/`DONE`
/// dispatch in, and EOF detection.
#[allow(clippy::too_many_arguments)]
fn pump_control(
    mut reader: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    progress: Arc<std::sync::atomic::AtomicU64>,
    link_severs: Vec<(String, Box<dyn Fn() + Send>)>,
    heartbeat: Duration,
    run_done: Arc<AtomicBool>,
    done_acked: Arc<AtomicBool>,
    ctrl_gone: Arc<AtomicBool>,
) {
    // SO_RCVTIMEO is shared with the writer clone, but only this thread
    // reads post-GO, so the short poll timeout is safe.
    reader.set_read_timeout(Some(POLL_TIMEOUT)).ok();
    let mut fb = FrameBuf::default();
    let mut scratch = [0u8; 16 * 1024];
    let mut last_beat: Option<Instant> = None;
    loop {
        let due = match last_beat {
            Some(t) => t.elapsed() >= heartbeat,
            None => true,
        };
        if due {
            let payload = encode_heartbeat(progress.load(Ordering::Relaxed));
            let sent = writer
                .lock()
                .map(|mut s| write_frame(&mut s, MSG_HEARTBEAT, &payload).is_ok())
                .unwrap_or(false);
            if !sent {
                if !run_done.load(Ordering::SeqCst) {
                    orphan_exit("control write failed mid-run");
                }
                ctrl_gone.store(true, Ordering::SeqCst);
                return;
            }
            last_beat = Some(Instant::now());
        }
        let eof = drain_ctrl(&mut reader, &mut fb, &mut scratch).unwrap_or(true);
        loop {
            match fb.pop() {
                Ok(Some((MSG_SEVER, payload))) => {
                    let link = String::from_utf8_lossy(&payload).into_owned();
                    for (name, sever) in &link_severs {
                        if *name == link {
                            sever();
                        }
                    }
                    eprintln!("dist worker: severed link {link:?}");
                }
                Ok(Some((MSG_DONE, _))) => {
                    done_acked.store(true, Ordering::SeqCst);
                    return;
                }
                // Unexpected frame types are ignored; the orchestrator is
                // the protocol authority.
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    if !run_done.load(Ordering::SeqCst) {
                        orphan_exit("control stream corrupt mid-run");
                    }
                    ctrl_gone.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
        if eof {
            if !run_done.load(Ordering::SeqCst) {
                orphan_exit("orchestrator closed the control connection mid-run");
            }
            ctrl_gone.store(true, Ordering::SeqCst);
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// Kills still-running workers when the orchestrator bails out early, and
/// removes the per-run shm region directory in every exit path — normal
/// completion, early error, and child reaping alike — so crashed or killed
/// runs never leak region files.
struct ChildGuard {
    children: Vec<(String, Child)>,
    shm_dir: Option<PathBuf>,
}

impl ChildGuard {
    fn disarm(&mut self) -> Vec<(String, Child)> {
        std::mem::take(&mut self.children)
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(dir) = self.shm_dir.take() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Resolve the requested transport for this run, creating the per-run shm
/// region directory when shared memory is selected. `Auto` falls back to TCP
/// when the directory cannot be created; an explicit `shm` request fails
/// loudly instead.
fn resolve_run_transport(requested: TransportKind) -> io::Result<(TransportKind, Option<PathBuf>)> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_RUN: AtomicU64 = AtomicU64::new(0);
    match requested.resolve_local() {
        TransportKind::Shm => {
            let dir = std::env::temp_dir().join(format!(
                "simbricks-dist-{}-{}",
                std::process::id(),
                NEXT_RUN.fetch_add(1, Ordering::Relaxed)
            ));
            match std::fs::create_dir_all(&dir) {
                Ok(()) => Ok((TransportKind::Shm, Some(dir))),
                Err(e) if requested == TransportKind::Auto => {
                    eprintln!("dist: shm region dir unavailable ({e}), falling back to tcp");
                    Ok((TransportKind::Tcp, None))
                }
                Err(e) => Err(e),
            }
        }
        kind => Ok((kind, None)),
    }
}

/// What the local discovery pass learned about the build function.
struct Discovery {
    links: Vec<LinkDecl>,
    expected_components: usize,
    global_names: Vec<String>,
}

/// One scheduled fault plus its fired flag. The flag survives fleet
/// restarts, so each fault injects exactly once per run — a restarted fleet
/// re-simulating past a fault's threshold does not re-trigger it.
struct FaultState {
    spec: FaultSpec,
    fired: bool,
}

/// Run the discovery build once and validate options against it.
fn discover(opts: &DistOptions, build: &BuildFn) -> Result<Discovery, DistError> {
    let mut pb = PartitionBuilder::new(BuildMode::Discover, None);
    build(&opts.scenario, &mut pb);
    for l in &pb.links {
        for p in [&l.a, &l.b] {
            if !opts.partitions.contains(p) {
                return Err(DistError::Invalid(format!(
                    "link {:?} references unknown partition {p:?}",
                    l.name
                )));
            }
        }
    }
    if let Some(ring) = &opts.ring {
        if ring.period == SimTime::ZERO {
            return Err(DistError::Invalid(
                "checkpoint ring period must be non-zero".into(),
            ));
        }
    }
    for f in &opts.faults {
        match &f.kind {
            FaultKind::KillWorker { partition } => {
                if !opts.partitions.contains(partition) {
                    return Err(DistError::Invalid(format!(
                        "kill_worker fault targets unknown partition {partition:?}"
                    )));
                }
            }
            FaultKind::SeverLink { link } => {
                if !pb.links.iter().any(|l| l.name == *link) {
                    return Err(DistError::Invalid(format!(
                        "sever_link fault targets unknown cross link {link:?}"
                    )));
                }
            }
            FaultKind::CorruptCheckpoint | FaultKind::TruncateCheckpoint => {
                if opts.ring.is_none() {
                    return Err(DistError::Invalid(
                        "corrupt/truncate_checkpoint faults require a checkpoint ring".into(),
                    ));
                }
            }
        }
    }
    Ok(Discovery {
        links: pb.links,
        expected_components: pb.next_global,
        global_names: std::mem::take(&mut pb.global_names),
    })
}

/// Raw per-partition ring snapshots, keyed slot time → partition name. This
/// outlives individual fleet attempts: it is the recovery store.
type RingStore = BTreeMap<u64, BTreeMap<String, Vec<u8>>>;

/// Pick the newest ring slot for which every partition's snapshot arrived
/// *and decodes cleanly*. Corrupt or torn slots are recorded in the report
/// and older slots tried, so an injected `corrupt_checkpoint` degrades
/// recovery by one period instead of poisoning it.
fn select_restore(
    ring_store: &RingStore,
    partitions: &[String],
    report: &mut RecoveryReport,
) -> Option<(u64, HashMap<String, Vec<u8>>)> {
    for (at, parts) in ring_store.iter().rev() {
        if !partitions.iter().all(|p| parts.contains_key(p)) {
            continue;
        }
        let mut ok = true;
        for (p, blob) in parts {
            if let Err(e) = crate::checkpoint::CheckpointFile::decode(blob) {
                report
                    .rejected_entries
                    .push(format!("slot {at} ps, partition {p:?}: {e}"));
                ok = false;
            }
        }
        if ok {
            return Some((
                *at,
                parts.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            ));
        }
    }
    None
}

fn control_lost(p: &str, e: io::Error) -> DistError {
    DistError::ControlLost {
        partition: p.to_string(),
        error: e.to_string(),
    }
}

fn conn_of<'a>(
    conns: &'a mut HashMap<String, TcpStream>,
    p: &str,
) -> Result<&'a mut TcpStream, DistError> {
    conns.get_mut(p).ok_or_else(|| DistError::Protocol {
        partition: p.to_string(),
        error: "no control connection".into(),
    })
}

/// Orchestrate a true multi-process distributed run: spawn one worker process
/// per partition (self-`exec` of the current binary; workers enter via
/// [`maybe_worker`]), wire every cross-partition link through proxies with
/// listen/connect handshaking, release all workers from a start barrier,
/// supervise them (heartbeats, crash detection, deterministic fault
/// injection), and collect per-worker statistics and event logs over the
/// control socket. On a retryable failure with restarts remaining
/// ([`DistOptions::max_restarts`]) the fleet is relaunched from the newest
/// valid checkpoint-ring slot (or from zero without one); §5.5 determinism
/// makes the recovered result bit-identical to an undisturbed run. Returns
/// the reassembled [`DistResult`] with its [`RecoveryReport`].
pub fn run_distributed(opts: &DistOptions, build: &BuildFn) -> Result<DistResult, DistError> {
    let disc = discover(opts, build)?;
    let mut report = RecoveryReport::default();
    let mut faults: Vec<FaultState> = opts
        .faults
        .iter()
        .map(|spec| FaultState {
            spec: spec.clone(),
            fired: false,
        })
        .collect();
    let mut ring_store: RingStore = RingStore::new();
    let mut restore: Option<(u64, HashMap<String, Vec<u8>>)> = None;
    let mut restarts: u32 = 0;
    loop {
        let mut high_water: u64 = restore.as_ref().map(|(at, _)| *at).unwrap_or(0);
        let attempt = run_attempt(
            opts,
            &disc,
            restore.as_ref(),
            &mut faults,
            &mut ring_store,
            &mut report,
            &mut high_water,
        );
        match attempt {
            Ok(mut res) => {
                res.recovery = report;
                return Ok(res);
            }
            Err(e) if e.retryable() && restarts < opts.max_restarts => {
                restarts += 1;
                report.restarts = restarts;
                restore = select_restore(&ring_store, &opts.partitions, &mut report);
                let cut = restore.as_ref().map(|(at, _)| *at).unwrap_or(0);
                report
                    .ring_entries_used
                    .push(restore.as_ref().map(|_| SimTime::from_ps(cut)));
                report.time_lost =
                    SimTime::from_ps(report.time_lost.as_ps() + high_water.saturating_sub(cut));
                // Slots past the restore point will be re-captured (bit-
                // identically) by the retry; dropping them keeps a later
                // failure from restoring past its own attempt's progress.
                ring_store.retain(|at, _| *at <= cut);
                match &restore {
                    Some((at, _)) => eprintln!(
                        "dist: {e}; restarting fleet from ring entry at {at} ps \
                         (restart {restarts}/{})",
                        opts.max_restarts
                    ),
                    None => eprintln!(
                        "dist: {e}; no usable ring entry, restarting fleet from zero \
                         (restart {restarts}/{})",
                        opts.max_restarts
                    ),
                }
            }
            Err(e) if e.retryable() => {
                return Err(DistError::RestartsExhausted {
                    restarts,
                    last: Box::new(e),
                    report,
                });
            }
            Err(e) => return Err(e),
        }
    }
}

/// Per-worker supervision state during one fleet attempt.
struct WorkerState {
    fb: FrameBuf,
    last_seen: Instant,
    /// Newest virtual-time progress reported (heartbeats / ring frames).
    virt: u64,
    ckpt_blob: Option<Vec<u8>>,
    report: Option<WorkerReport>,
}

/// One fleet launch: spawn, handshake, supervise to completion or failure.
/// The caller owns the retry policy; `ring_store` and `faults` persist
/// across attempts.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    opts: &DistOptions,
    disc: &Discovery,
    restore: Option<&(u64, HashMap<String, Vec<u8>>)>,
    faults: &mut [FaultState],
    ring_store: &mut RingStore,
    report: &mut RecoveryReport,
    high_water: &mut u64,
) -> Result<DistResult, DistError> {
    let (transport, shm_dir) = resolve_run_transport(opts.transport)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(DistError::from)?;
    let control_addr = listener.local_addr().map_err(DistError::from)?;
    let exe = std::env::current_exe().map_err(DistError::from)?;
    let mut guard = ChildGuard {
        children: Vec::new(),
        shm_dir: shm_dir.clone(),
    };
    for p in &opts.partitions {
        let mut cmd = Command::new(&exe);
        cmd.args(&opts.worker_args)
            .env(ENV_CONTROL, control_addr.to_string())
            .env(ENV_PARTITION, p)
            .env(ENV_SCENARIO, &opts.scenario)
            .env(ENV_EXEC, opts.exec.to_arg())
            .env(ENV_DIST_TRANSPORT, transport.to_arg())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(dir) = &shm_dir {
            cmd.env(ENV_SHM_DIR, dir);
        }
        let child = cmd
            .spawn()
            .map_err(|e| DistError::Io(format!("spawning worker {p:?}: {e}")))?;
        guard.children.push((p.clone(), child));
    }

    // Accept one control connection per worker (with a deadline so a worker
    // that dies before connecting fails the run instead of hanging it).
    listener.set_nonblocking(true).map_err(DistError::from)?;
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut conns: HashMap<String, TcpStream> = HashMap::new();
    while conns.len() < opts.partitions.len() {
        if Instant::now() > deadline {
            let missing: Vec<String> = opts
                .partitions
                .iter()
                .filter(|p| !conns.contains_key(*p))
                .cloned()
                .collect();
            return Err(DistError::ConnectTimeout { missing });
        }
        for (name, child) in &mut guard.children {
            if let Some(status) = child.try_wait().map_err(DistError::from)? {
                return Err(DistError::WorkerExited {
                    partition: name.clone(),
                    status: status.to_string(),
                });
            }
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                s.set_nonblocking(false).map_err(DistError::from)?;
                s.set_read_timeout(Some(CONTROL_TIMEOUT))
                    .map_err(DistError::from)?;
                s.set_nodelay(true).map_err(DistError::from)?;
                let hello = expect_frame(&mut s, MSG_HELLO)
                    .map_err(|e| control_lost("<handshaking>", e))?;
                let partition = String::from_utf8(hello).map_err(|_| DistError::Protocol {
                    partition: "<handshaking>".into(),
                    error: "non-utf8 HELLO".into(),
                })?;
                if !opts.partitions.contains(&partition) {
                    return Err(DistError::Protocol {
                        partition: partition.clone(),
                        error: "unknown worker partition".into(),
                    });
                }
                conns.insert(partition, s);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_TIMEOUT);
            }
            Err(e) => return Err(DistError::from(e)),
        }
    }

    // Gather every worker's listener addresses, then broadcast the full map.
    let mut addr_map: Vec<(String, String)> = Vec::new();
    for p in &opts.partitions {
        let payload =
            expect_frame(conn_of(&mut conns, p)?, MSG_LINKS).map_err(|e| control_lost(p, e))?;
        addr_map.extend(decode_addrs(&payload).map_err(|e| control_lost(p, e.into()))?);
    }
    let payload = encode_addrs(&addr_map);
    for p in &opts.partitions {
        write_frame(conn_of(&mut conns, p)?, MSG_ADDRS, &payload)
            .map_err(|e| control_lost(p, e))?;
    }

    // Checkpoint configuration: an explicit presence byte plus the quiesce
    // time, then — when restoring — each partition's snapshot shipped over
    // the control socket. Recovery restores (ring blobs held in memory) take
    // precedence over [`DistOptions::restore_from`]. A one-shot checkpoint
    // whose time the restore point has already passed is skipped for this
    // attempt — it was only capturable in the attempt that failed.
    if let Some((_, dir)) = &opts.checkpoint {
        std::fs::create_dir_all(dir).map_err(DistError::from)?;
    }
    if let Some(ring) = &opts.ring {
        std::fs::create_dir_all(&ring.dir).map_err(DistError::from)?;
    }
    let restore_at = restore.map(|(at, _)| *at);
    let expect_ckpt = match (&opts.checkpoint, restore_at) {
        (Some((at, _)), Some(r)) if r >= at.as_ps() => {
            eprintln!(
                "dist: one-shot checkpoint at {} ps predates the restore point ({r} ps); skipped",
                at.as_ps()
            );
            false
        }
        (Some(_), _) => true,
        (None, _) => false,
    };
    let (ring_period, ring_keep) = opts
        .ring
        .as_ref()
        .map_or((SimTime::ZERO, 0), |r| (r.period, r.keep));
    for p in &opts.partitions {
        let blob = match restore {
            Some((_, blobs)) => blobs.get(p).cloned(),
            None => match &opts.restore_from {
                Some(dir) => {
                    Some(std::fs::read(dir.join(format!("{p}.ckpt"))).map_err(DistError::from)?)
                }
                None => None,
            },
        };
        let cfg = CkptConfig {
            checkpoint_at: opts
                .checkpoint
                .as_ref()
                .map(|(at, _)| *at)
                .filter(|_| expect_ckpt),
            ring_period,
            ring_keep,
            heartbeat: opts.heartbeat,
            restore: blob,
        };
        write_frame(conn_of(&mut conns, p)?, MSG_CKPT, &cfg.encode())
            .map_err(|e| control_lost(p, e))?;
    }

    // Barrier-synchronized start: wait until every partition is built and
    // its proxies are wired, then release all workers together.
    for p in &opts.partitions {
        expect_frame(conn_of(&mut conns, p)?, MSG_READY).map_err(|e| control_lost(p, e))?;
    }
    let start = Instant::now();
    for p in &opts.partitions {
        write_frame(conn_of(&mut conns, p)?, MSG_GO, &[]).map_err(|e| control_lost(p, e))?;
    }

    let mut states_done = supervise(
        opts, disc, &mut conns, &mut guard, faults, ring_store, report, high_water, restore_at,
    )?;

    // All partitions reported. Persist the one-shot checkpoint blobs, then
    // acknowledge and reap.
    let wall = start.elapsed();
    let mut partition_walls = Vec::new();
    let mut all: Vec<(usize, String, KernelStats, EventLog)> = Vec::new();
    for p in &opts.partitions {
        let st = states_done.remove(p).ok_or_else(|| DistError::Protocol {
            partition: p.clone(),
            error: "supervision lost its state".into(),
        })?;
        if expect_ckpt {
            let blob = st.ckpt_blob.as_deref().unwrap_or(&[]);
            if blob.is_empty() {
                return Err(DistError::Protocol {
                    partition: p.clone(),
                    error: "reported an empty checkpoint".into(),
                });
            }
            if let Some((_, dir)) = &opts.checkpoint {
                crate::checkpoint::write_blob(&dir.join(format!("{p}.ckpt")), blob)
                    .map_err(|e| DistError::Io(format!("writing checkpoint of {p:?}: {e}")))?;
            }
        }
        let rep = st.report.ok_or_else(|| DistError::Protocol {
            partition: p.clone(),
            error: "no result".into(),
        })?;
        partition_walls.push(rep.wall_seconds);
        all.extend(rep.components);
    }

    // Clean teardown: acknowledge, then reap the worker processes.
    for p in &opts.partitions {
        write_frame(conn_of(&mut conns, p)?, MSG_DONE, &[]).map_err(|e| control_lost(p, e))?;
    }
    for (name, mut child) in guard.disarm() {
        let status = child.wait().map_err(DistError::from)?;
        if !status.success() {
            return Err(DistError::Protocol {
                partition: name,
                error: format!("exited with {status} after reporting"),
            });
        }
    }

    // Reassemble in global build order so logs and stats line up with the
    // in-process baseline.
    all.sort_by_key(|(global, _, _, _)| *global);
    if all.len() != disc.expected_components {
        return Err(DistError::Protocol {
            partition: "<all>".into(),
            error: format!(
                "workers reported {} components, build declares {}",
                all.len(),
                disc.expected_components
            ),
        });
    }
    let mut component_names = Vec::with_capacity(all.len());
    let mut stats = Vec::with_capacity(all.len());
    let mut logs = Vec::with_capacity(all.len());
    for (_, name, s, l) in all {
        component_names.push(name);
        stats.push(s);
        logs.push(l);
    }
    Ok(DistResult {
        wall,
        partition_names: opts.partitions.clone(),
        partition_walls,
        component_names,
        stats,
        logs,
        recovery: RecoveryReport::default(),
    })
}

/// Deterministically damage an encoded checkpoint: flip one bit mid-blob
/// (checksum rejection) or truncate to half length (a torn write).
fn damage_blob(blob: &mut Vec<u8>, truncate: bool) {
    if truncate {
        blob.truncate(blob.len() / 2);
    } else if !blob.is_empty() {
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
    }
}

/// Merge one completed ring slot's per-partition containers into a
/// whole-experiment container on disk — byte-identical to a single-process
/// checkpoint of the same slot, so the ring restores through the ordinary
/// local path. An undecodable part rejects the slot (recorded in the report)
/// instead of failing the run: recovery applies the same validation to the
/// in-memory copy and falls back to an older slot.
fn merge_ring_slot(
    at: u64,
    ring_store: &RingStore,
    opts: &DistOptions,
    global_names: &[String],
    report: &mut RecoveryReport,
) {
    let ring = match &opts.ring {
        Some(r) => r,
        None => return,
    };
    let parts = match ring_store.get(&at) {
        Some(p) => p,
        None => return,
    };
    let mut files = Vec::with_capacity(opts.partitions.len());
    for p in &opts.partitions {
        let blob = match parts.get(p) {
            Some(b) => b,
            None => return,
        };
        match crate::checkpoint::CheckpointFile::decode(blob) {
            Ok(f) => files.push(f),
            Err(e) => {
                report
                    .rejected_entries
                    .push(format!("merge slot {at} ps, partition {p:?}: {e}"));
                return;
            }
        }
    }
    let merged = match crate::checkpoint::CheckpointFile::merge(&files, global_names) {
        Ok(m) => m,
        Err(e) => {
            report
                .rejected_entries
                .push(format!("merge slot {at} ps: {e}"));
            return;
        }
    };
    let path = crate::checkpoint::ring_entry_path(&ring.dir, SimTime::from_ps(at));
    if let Err(e) = merged.write_to(&path) {
        report
            .rejected_entries
            .push(format!("write {}: {e}", path.display()));
        return;
    }
    let _ = crate::checkpoint::prune_ring(&ring.dir, ring.keep);
}

/// The post-`GO` supervisor loop: drain every worker's control socket
/// (heartbeats, streamed ring snapshots, checkpoint blobs, results), detect
/// failures (process exit, heartbeat silence, control EOF, protocol
/// violations) and classify them as typed errors, and inject scheduled
/// faults when the fleet's minimum virtual time crosses their thresholds.
/// Returns every partition's final state once all results are in.
#[allow(clippy::too_many_arguments)]
fn supervise(
    opts: &DistOptions,
    disc: &Discovery,
    conns: &mut HashMap<String, TcpStream>,
    guard: &mut ChildGuard,
    faults: &mut [FaultState],
    ring_store: &mut RingStore,
    report: &mut RecoveryReport,
    high_water: &mut u64,
    restore_at: Option<u64>,
) -> Result<HashMap<String, WorkerState>, DistError> {
    let base = restore_at.unwrap_or(0);
    for p in &opts.partitions {
        conn_of(conns, p)?
            .set_read_timeout(Some(POLL_TIMEOUT))
            .map_err(DistError::from)?;
    }
    let hb_timeout = std::cmp::max(opts.heartbeat.saturating_mul(20), Duration::from_secs(15));
    let mut states: HashMap<String, WorkerState> = opts
        .partitions
        .iter()
        .map(|p| {
            (
                p.clone(),
                WorkerState {
                    fb: FrameBuf::default(),
                    last_seen: Instant::now(),
                    virt: base,
                    ckpt_blob: None,
                    report: None,
                },
            )
        })
        .collect();
    let mut scratch = vec![0u8; 256 * 1024];
    loop {
        // 1. Drain every control socket; dispatch complete frames. Sockets
        // of partitions that already reported are still drained (their pump
        // threads heartbeat until DONE).
        let mut completed_slots: Vec<u64> = Vec::new();
        for p in &opts.partitions {
            let s = conn_of(conns, p)?;
            let st = match states.get_mut(p) {
                Some(st) => st,
                None => continue,
            };
            let eof = match drain_ctrl(s, &mut st.fb, &mut scratch) {
                Ok(eof) => eof,
                Err(e) => {
                    if st.report.is_none() {
                        return Err(control_lost(p, e));
                    }
                    false
                }
            };
            loop {
                match st.fb.pop() {
                    Ok(Some((MSG_HEARTBEAT, payload))) => {
                        st.virt = decode_heartbeat(&payload).map_err(|e| DistError::Protocol {
                            partition: p.clone(),
                            error: format!("bad heartbeat: {e}"),
                        })?;
                        st.last_seen = Instant::now();
                    }
                    Ok(Some((MSG_RING, payload))) => {
                        let (at, blob) =
                            decode_ring(&payload).map_err(|e| DistError::Protocol {
                                partition: p.clone(),
                                error: format!("bad ring frame: {e}"),
                            })?;
                        st.last_seen = Instant::now();
                        st.virt = st.virt.max(at);
                        let slot = ring_store.entry(at).or_default();
                        slot.insert(p.clone(), blob);
                        if slot.len() == opts.partitions.len() {
                            completed_slots.push(at);
                        }
                    }
                    Ok(Some((MSG_CKPT_SAVE, payload))) => {
                        st.ckpt_blob = Some(payload);
                        st.last_seen = Instant::now();
                    }
                    Ok(Some((MSG_RESULT, payload))) => {
                        let rep = decode_result(&payload).map_err(|e| DistError::Protocol {
                            partition: p.clone(),
                            error: format!("bad result: {e}"),
                        })?;
                        st.report = Some(rep);
                        st.last_seen = Instant::now();
                    }
                    Ok(Some((ty, _))) => {
                        return Err(DistError::Protocol {
                            partition: p.clone(),
                            error: format!("unexpected control frame type {ty}"),
                        });
                    }
                    Ok(None) => break,
                    Err(e) => {
                        return Err(DistError::Protocol {
                            partition: p.clone(),
                            error: e.to_string(),
                        });
                    }
                }
            }
            if eof && st.report.is_none() {
                return Err(DistError::ControlLost {
                    partition: p.clone(),
                    error: "control connection EOF".into(),
                });
            }
        }

        // 2. Merge newly completed ring slots into on-disk whole-experiment
        // containers, and bound the in-memory store like the on-disk ring.
        for at in completed_slots {
            merge_ring_slot(at, ring_store, opts, &disc.global_names, report);
        }
        if let Some(ring) = &opts.ring {
            if ring.keep > 0 {
                let complete: Vec<u64> = ring_store
                    .iter()
                    .filter(|(_, parts)| parts.len() == opts.partitions.len())
                    .map(|(at, _)| *at)
                    .collect();
                if complete.len() > ring.keep {
                    for at in &complete[..complete.len() - ring.keep] {
                        ring_store.remove(at);
                    }
                }
            }
        }

        // 3. Liveness: a worker that exited, or fell silent, before its
        // result is a classified failure, not a hang.
        for (name, child) in &mut guard.children {
            let done = states
                .get(name)
                .map(|s| s.report.is_some())
                .unwrap_or(false);
            if done {
                continue;
            }
            if let Some(status) = child.try_wait().map_err(DistError::from)? {
                return Err(DistError::WorkerExited {
                    partition: name.clone(),
                    status: status.to_string(),
                });
            }
            if let Some(st) = states.get(name) {
                let silent = st.last_seen.elapsed();
                if silent > hb_timeout {
                    return Err(DistError::HeartbeatTimeout {
                        partition: name.clone(),
                        silent,
                    });
                }
            }
        }

        // 4. Progress bookkeeping + deterministic fault injection. Faults
        // trigger on the fleet's *minimum* virtual time so the schedule is
        // independent of which partition happens to run ahead.
        let min_virt = states.values().map(|s| s.virt).min().unwrap_or(base);
        *high_water = (*high_water).max(min_virt);
        for f in faults.iter_mut() {
            if f.fired || min_virt < f.spec.at.as_ps() {
                continue;
            }
            f.fired = true;
            let threshold = f.spec.at.as_ps();
            match &f.spec.kind {
                FaultKind::KillWorker { partition } => {
                    report
                        .faults_injected
                        .push(format!("kill_worker {partition:?} at {threshold} ps"));
                    for (name, child) in &mut guard.children {
                        if name == partition {
                            let _ = child.kill();
                        }
                    }
                }
                FaultKind::SeverLink { link } => {
                    report
                        .faults_injected
                        .push(format!("sever_link {link:?} at {threshold} ps"));
                    let ends: Vec<String> = disc
                        .links
                        .iter()
                        .filter(|l| l.name == *link)
                        .flat_map(|l| [l.a.clone(), l.b.clone()])
                        .collect();
                    for p in &ends {
                        if let Ok(s) = conn_of(conns, p) {
                            let _ = write_frame(s, MSG_SEVER, link.as_bytes());
                        }
                    }
                    // Let the workers tear their links down before the
                    // fleet is reaped, so the failure is attributable to the
                    // sever rather than a racing teardown.
                    std::thread::sleep(Duration::from_millis(50));
                    return Err(DistError::FaultSever { link: link.clone() });
                }
                FaultKind::CorruptCheckpoint | FaultKind::TruncateCheckpoint => {
                    let truncate = matches!(f.spec.kind, FaultKind::TruncateCheckpoint);
                    let label = if truncate {
                        "truncate_checkpoint"
                    } else {
                        "corrupt_checkpoint"
                    };
                    let newest = ring_store
                        .iter()
                        .rev()
                        .find(|(_, parts)| parts.len() == opts.partitions.len())
                        .map(|(at, _)| *at);
                    match newest {
                        Some(at) => {
                            report
                                .faults_injected
                                .push(format!("{label} ring slot at {at} ps"));
                            if let Some(parts) = ring_store.get_mut(&at) {
                                for blob in parts.values_mut() {
                                    damage_blob(blob, truncate);
                                }
                            }
                            if let Some(ring) = &opts.ring {
                                let path = crate::checkpoint::ring_entry_path(
                                    &ring.dir,
                                    SimTime::from_ps(at),
                                );
                                if let Ok(mut data) = std::fs::read(&path) {
                                    damage_blob(&mut data, truncate);
                                    let _ = std::fs::write(&path, &data);
                                }
                            }
                        }
                        None => report
                            .faults_injected
                            .push(format!("{label}: no complete ring slot to damage")),
                    }
                }
            }
        }

        // 5. Done when every partition has reported.
        if states.values().all(|s| s.report.is_some()) {
            return Ok(states);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{Kernel, Model, OwnedMsg, PortId};

    /// Minimal ping model used to exercise the builder plumbing.
    struct Pinger {
        count: u64,
        sent: u64,
        received: u64,
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

    fn two_partition_build(_scenario: &str, pb: &mut PartitionBuilder) {
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
    fn local_mode_builds_and_runs_everything() {
        let r = run_local("", &two_partition_build, Execution::Sequential);
        assert_eq!(r.component_names, vec!["left", "right"]);
        let right: &Pinger = r.model(1).unwrap();
        assert_eq!(right.received, 5);
    }

    #[test]
    fn discover_mode_records_links_and_global_order_without_instantiating() {
        let mut pb = PartitionBuilder::new(BuildMode::Discover, None);
        two_partition_build("", &mut pb);
        assert_eq!(pb.next_global, 2, "both components counted");
        assert!(pb.local_globals.is_empty(), "nothing instantiated");
        assert_eq!(pb.links.len(), 1);
        assert_eq!(pb.links[0].name, "x-link");
        assert_eq!(
            (pb.links[0].a.as_str(), pb.links[0].b.as_str()),
            ("p0", "p1")
        );
        assert_eq!(pb.exp().num_components(), 0);
    }

    #[test]
    fn worker_mode_instantiates_only_its_partition() {
        // No sockets involved: an intra-partition channel plus a foreign
        // component exercise the filtering logic without cross links.
        let mut pb = PartitionBuilder::new(BuildMode::Worker, Some("p0".into()));
        pb.init(Experiment::new("w", SimTime::from_us(10)));
        let params = pb.exp().eth_params();
        let (a, b) = pb.channel("local-link", "p0", "p0", params);
        let g0 = pb.add(
            "p0",
            "mine-a",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![a],
        );
        let g1 = pb.add(
            "p1",
            "theirs",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![],
        );
        let g2 = pb.add(
            "p0",
            "mine-b",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![b],
        );
        assert_eq!((g0, g1, g2), (0, 1, 2), "global ids count every component");
        assert_eq!(
            pb.exp().num_components(),
            2,
            "only p0 components instantiated"
        );
        assert_eq!(pb.local_globals, vec![0, 2]);
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
    fn encoded_part(name: &str, at: SimTime) -> Vec<u8> {
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
        let parts = ["p0".to_string(), "p1".to_string()];
        let mut store = RingStore::new();
        // Slot 100: complete and valid.
        for p in &parts {
            store
                .entry(100)
                .or_default()
                .insert(p.clone(), encoded_part("e", SimTime::from_ps(100)));
        }
        // Slot 200: complete but one blob corrupted (bit flip mid-blob).
        for p in &parts {
            let mut blob = encoded_part("e", SimTime::from_ps(200));
            if p == "p1" {
                damage_blob(&mut blob, false);
            }
            store.entry(200).or_default().insert(p.clone(), blob);
        }
        // Slot 300: incomplete (p1's snapshot never arrived).
        store
            .entry(300)
            .or_default()
            .insert("p0".into(), encoded_part("e", SimTime::from_ps(300)));

        let mut report = RecoveryReport::default();
        let picked = select_restore(&store, &parts, &mut report);
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
        let parts = ["p0".to_string()];
        let mut store = RingStore::new();
        let mut blob = encoded_part("e", SimTime::from_ps(50));
        damage_blob(&mut blob, true); // torn write: truncated to half
        store.entry(50).or_default().insert("p0".into(), blob);
        let mut report = RecoveryReport::default();
        assert!(select_restore(&store, &parts, &mut report).is_none());
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
    fn frame_buf_reassembles_partial_and_batched_frames() {
        let mut wire = Vec::new();
        for (ty, payload) in [
            (MSG_HEARTBEAT, &[1u8, 0, 0, 0, 0, 0, 0, 0][..]),
            (MSG_DONE, &[]),
        ] {
            wire.extend_from_slice(&((payload.len() + 1) as u32).to_le_bytes());
            wire.push(ty);
            wire.extend_from_slice(payload);
        }
        let mut fb = FrameBuf::default();
        // Feed one byte at a time: pop must only yield complete frames.
        let mut got = Vec::new();
        for b in &wire {
            fb.push(&[*b]);
            while let Ok(Some((ty, payload))) = fb.pop() {
                got.push((ty, payload));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, MSG_HEARTBEAT);
        assert_eq!(got[0].1, vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(got[1], (MSG_DONE, Vec::new()));
        // A zero-length frame is a protocol error, not a hang.
        fb.push(&[0, 0, 0, 0]);
        assert!(fb.pop().is_err());
    }

    #[test]
    fn decode_result_rejects_a_count_the_payload_cannot_hold() {
        let mut frame = 1.5f64.to_bits().to_le_bytes().to_vec();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_result(&frame).is_err());
        let r = run_local("", &two_partition_build, Execution::Sequential);
        let rep =
            decode_result(&encode_result(&r, &[0, 1]).unwrap()).expect("a real result decodes");
        assert_eq!(rep.components.len(), 2);
    }

    #[test]
    fn decode_result_accepts_a_payload_of_minimal_records() {
        let n = 5;
        let mut w = SnapWriter::new();
        w.f64(0.25);
        w.u32(n as u32);
        for i in 0..n {
            w.usize(i);
            w.str("");
            KernelStats::default().snapshot(&mut w).unwrap();
            EventLog::default().snapshot(&mut w).unwrap();
        }
        let payload = w.into_vec();
        assert_eq!(payload.len(), 8 + 4 + n * MIN_RESULT_RECORD);
        let rep = decode_result(&payload).expect("minimal records decode");
        assert_eq!(rep.components.len(), n);
    }

    /// `decode(bytes)` must fail, without panicking, on every strict prefix.
    fn assert_prefixes_rejected<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> SnapResult<T>) {
        for n in 0..bytes.len() {
            assert!(
                decode(&bytes[..n]).is_err(),
                "prefix {n}/{} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn addrs_payload_roundtrips_and_rejects_every_prefix() {
        let addrs = vec![
            ("up0".to_string(), "tcp:127.0.0.1:4242".to_string()),
            ("up1".to_string(), "shm:/tmp/run/up1.shm".to_string()),
        ];
        let bytes = encode_addrs(&addrs);
        assert_eq!(decode_addrs(&bytes).unwrap(), addrs);
        assert_eq!(decode_addrs(&encode_addrs(&[])).unwrap(), vec![]);
        assert_prefixes_rejected(&bytes, decode_addrs);
        assert!(
            decode_addrs(&[bytes.as_slice(), &[0]].concat()).is_err(),
            "trailing byte"
        );
    }

    #[test]
    fn ckpt_payload_roundtrips_and_rejects_every_prefix() {
        let bare = CkptConfig {
            checkpoint_at: None,
            ring_period: SimTime::ZERO,
            ring_keep: 0,
            heartbeat: Duration::from_millis(25),
            restore: None,
        };
        let full = CkptConfig {
            checkpoint_at: Some(SimTime::from_us(7)),
            ring_period: SimTime::from_us(2),
            ring_keep: 3,
            heartbeat: Duration::from_millis(250),
            restore: Some(encoded_part("e", SimTime::from_us(4))),
        };
        for cfg in [bare, full] {
            let bytes = cfg.encode();
            assert_eq!(CkptConfig::decode(&bytes).unwrap(), cfg);
            assert_prefixes_rejected(&bytes, CkptConfig::decode);
        }
        // A zero heartbeat period asks for the default.
        let zero = CkptConfig {
            checkpoint_at: None,
            ring_period: SimTime::ZERO,
            ring_keep: 0,
            heartbeat: Duration::ZERO,
            restore: None,
        };
        assert_eq!(
            CkptConfig::decode(&zero.encode()).unwrap().heartbeat,
            DEFAULT_HEARTBEAT
        );
    }

    #[test]
    fn heartbeat_and_ring_payloads_roundtrip_and_reject_every_prefix() {
        let beat = encode_heartbeat(123_456_789);
        assert_eq!(decode_heartbeat(&beat).unwrap(), 123_456_789);
        assert_prefixes_rejected(&beat, decode_heartbeat);

        let blob = encoded_part("e", SimTime::from_us(5));
        let ring = encode_ring(SimTime::from_us(5), &blob);
        assert_eq!(decode_ring(&ring).unwrap(), (5_000_000, blob));
        assert_prefixes_rejected(&ring, decode_ring);
    }

    #[test]
    fn result_payload_roundtrips_and_rejects_every_prefix() {
        let mut r = run_local("", &two_partition_build, Execution::Sequential);
        for (i, log) in r.logs.iter_mut().enumerate() {
            log.record(SimTime::from_ns(10), "rx", i as u64, 2);
            log.record(SimTime::from_ns(20), "tx", 3, 4);
        }
        let bytes = encode_result(&r, &[4, 9]).unwrap();
        let rep = decode_result(&bytes).unwrap();
        assert_eq!(rep.wall_seconds, r.wall_seconds());
        assert_eq!(rep.components.len(), 2);
        for (i, (global, name, stats, log)) in rep.components.iter().enumerate() {
            assert_eq!((*global, name), ([4, 9][i], &r.component_names[i]));
            assert_eq!(*stats, r.stats[i]);
            assert_eq!(log.len(), 2);
            assert_eq!(log.entries(), r.logs[i].entries());
        }
        assert_prefixes_rejected(&bytes, decode_result);
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
