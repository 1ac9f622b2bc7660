//! # simbricks-nicsim
//!
//! NIC device simulators speaking the SimBricks PCIe interface towards a host
//! simulator and the SimBricks Ethernet interface towards a network
//! simulator (§6.3 of the paper):
//!
//! * [`behavioral::I40eNic`] — behavioural model of an Intel X710/i40e-style
//!   40G NIC: multiple descriptor queue pairs, doorbell tail registers,
//!   descriptor write-back with DD bits polled by the driver in host memory,
//!   MSI-X with per-vector interrupt moderation (ITR), checksum offload.
//! * [`behavioral::CorundumNic`] — behavioural model of the Corundum FPGA
//!   NIC. The crucial difference (§8.1): completed descriptors are
//!   discovered by the driver *reading the queue head-index register via
//!   MMIO*, not by polling descriptors in memory, which stalls the CPU for a
//!   full PCIe round trip on the receive path.
//! * [`behavioral::E1000Nic`] — a simple single-queue legacy NIC (the model
//!   extracted from gem5 in §7.2/§7.5): DD write-back plus an interrupt
//!   cause register the driver reads on every interrupt.
//! * [`rtl::CorundumRtlNic`] — cycle-driven Corundum data path clocked at a
//!   configurable frequency (250 MHz by default), standing in for the
//!   Verilator RTL simulation: same driver-visible behaviour as the
//!   behavioural Corundum model but every active cycle is simulated, making
//!   it far more expensive to run (Tab. 1/3).
//! * [`pktgen::PktGen`] — the dummy packet-generator NIC used by the §7.3.2
//!   network-decomposition microbenchmark: Ethernet-only, injects packets at
//!   a configured rate and participates in synchronization.
//!
//! The register layout and descriptor formats shared with the host-side
//! drivers live in [`regs`]; common DMA / interrupt plumbing in [`nicbm`].

pub mod behavioral;
pub mod nicbm;
pub mod pktgen;
pub mod regs;
pub mod rtl;

pub use behavioral::{
    BehavioralNic, CorundumNic, E1000Nic, I40eNic, NicConfig, NicStats, NicVariant,
};
pub use pktgen::{PktGen, PktGenConfig};
pub use rtl::{CorundumRtlNic, RtlConfig};
