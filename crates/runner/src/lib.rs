//! # simbricks-runner
//!
//! Orchestration for SimBricks simulations (§A.1 of the paper): experiments
//! are assembled from component simulators and channels, then executed by
//! one partition loop (`executor`): a partition is a contiguous slice of the
//! components stepped round robin by one thread, and an experiment runs as
//! one partition on the caller's thread, as several on threads of their own
//! (one per component is the paper's one-simulator-per-core layout), or as
//! one per process in a distributed run (`dist`: partition builder, control
//! protocol, worker, orchestrator, and a recovery core that decides from
//! events alone what a failed attempt costs and where the next one starts).
//! The results (wall-clock simulation time, per-component statistics, event
//! logs, application reports) are collected for the evaluation harness.

// The runner is host-side orchestration, not simulated code: it measures real
// wall-clock time and keys transient tables by host-process identifiers, so
// the workspace-wide `clippy.toml` determinism bans (Instant::now, HashMap, …)
// are waived per module here. Simulation-path crates get no such waiver —
// `cargo run -p simcheck` enforces the same rules there at token level.
pub mod build;
pub mod checkpoint;
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod dist;
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod executor;
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod experiment;
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod proxy;
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod shm;
pub mod transport;

pub use build::{attach_host_nic, attach_host_nvme, host_component, nic_model, NetworkKind};
pub use checkpoint::{
    prune_ring, ring_entries, ring_entry_path, ring_prune_plan, write_blob, CheckpointFile,
    RingMeta, CKPT_MAGIC, CKPT_VERSION, RING_META_FILE, RING_SCENARIO_FILE,
};
pub use dist::{
    maybe_worker, run_distributed, run_local, DistError, DistOptions, DistResult, FaultKind,
    FaultSpec, PartitionBuilder, RecoveryReport, RingOptions,
};
pub use experiment::{Execution, Experiment, RunResult};
pub use proxy::{proxy_pair, write_handshake, ProxyHandle, ProxyKind, ProxyStats};
pub use shm::{shm_supported, ShmEndpoint};
pub use transport::{TransportKind, ENV_TRANSPORT};
