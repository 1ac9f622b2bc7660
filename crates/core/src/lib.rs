//! # simbricks
//!
//! Facade crate of the SimBricks Rust reimplementation (Li, Li, Kaufmann,
//! "SimBricks: End-to-End Network System Evaluation with Modular Simulation",
//! SIGCOMM 2022). It re-exports the public API of every sub-crate:
//!
//! * [`base`] — channels, synchronization, component kernel.
//! * [`proto`] — Ethernet/ARP/IPv4/TCP/UDP wire formats.
//! * [`pcie`] / [`eth`] — the two SimBricks component interfaces.
//! * [`netstack`] — the simulated TCP (Reno/DCTCP) and UDP stack.
//! * [`nicsim`] — i40e / Corundum (behavioural + cycle-level) / e1000 NIC
//!   models and the packet generator.
//! * [`netsim`] — behavioural switch, discrete-event network, Tofino-style
//!   pipeline, RMT pipeline.
//! * [`nvmesim`] — NVMe storage device model (PCIe interface generality).
//! * [`hostsim`] — gem5-like / QEMU-like host models with drivers and an
//!   OS-lite kernel.
//! * [`apps`] — iperf, netperf, memcached, NOPaxos/Multi-Paxos workloads.
//! * [`runner`] — experiment orchestration, executors, proxies.
//! * [`scenario`] — declarative TOML scenarios: topologies, impaired links,
//!   AQM selection, apps, partitions; one builder for every harness.
//!
//! See `examples/quickstart.rs` for a complete end-to-end simulation in a few
//! dozen lines, and the `simbricks-bench` crate for the harnesses that
//! regenerate the paper's tables and figures.

#![deny(missing_docs)]

pub use simbricks_apps as apps;
pub use simbricks_base as base;
pub use simbricks_eth as eth;
pub use simbricks_hostsim as hostsim;
pub use simbricks_netsim as netsim;
pub use simbricks_netstack as netstack;
pub use simbricks_nicsim as nicsim;
pub use simbricks_nvmesim as nvmesim;
pub use simbricks_pcie as pcie;
pub use simbricks_proto as proto;
pub use simbricks_runner as runner;
pub use simbricks_scenario as scenario;

pub use simbricks_base::{bw, SimTime};
pub use simbricks_runner::{Execution, Experiment};
