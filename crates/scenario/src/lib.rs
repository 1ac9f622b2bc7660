//! # simbricks-scenario
//!
//! Declarative scenario layer: a dependency-free TOML format describing a
//! full SimBricks experiment — hosts (with apps), switches (with AQM),
//! links (with latency and deterministic impairment models), partitions,
//! seeds, and run options — plus the lowering that turns a scenario into a
//! [`simbricks_runner::PartitionBuilder`]/[`simbricks_runner::Experiment`]
//! build, so the same file runs unchanged on every executor (sequential,
//! sharded, distributed over TCP or shared memory).
//!
//! The layer is split cleanly:
//!
//! * [`toml`] — a minimal, order-preserving TOML subset parser (no external
//!   crates; section order in the file is component build order),
//! * [`spec`] — typed scenario model with schema validation and actionable,
//!   line-numbered errors,
//! * [`lower()`] — lowering onto the partition builder, including per-link
//!   impairment seeds and per-port AQM overrides,
//! * [`topo`] — generators for the standard topologies (scale-up, fat-tree,
//!   racks, dctcp, the netperf pair).
//!
//! The TOML *text itself* is the opaque scenario string shipped to
//! distributed workers, so [`lower::build_from_toml`] is a drop-in
//! `BuildFn` for [`simbricks_runner::maybe_worker`] /
//! [`simbricks_runner::run_distributed`].

#![deny(missing_docs)]

pub mod lower;
pub mod spec;
pub mod toml;
pub mod topo;

pub use lower::{build_from_toml, fault_schedule, lower, Lowered};
pub use spec::{
    parse_bandwidth, parse_duration, AppSpec, AqmSpec, FaultDecl, FaultDeclKind, HostSpec,
    ImpairmentSpec, LinkSpec, Node, Scenario, ScenarioError, SwitchSpec,
};
pub use toml::{Doc, Section, TomlError, Value};
