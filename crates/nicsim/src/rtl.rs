//! Cycle-driven Corundum data path ("RTL" model).
//!
//! Stand-in for the Verilator simulation of the unmodified Corundum Verilog
//! (§6.3). Driver-visible behaviour is identical to the behavioural Corundum
//! model ([`crate::behavioral`]), but the data path is clocked: every DMA
//! engine transfer, descriptor fetch, and MAC word crossing is charged in
//! cycles of a configurable core clock (250 MHz by default, as in the paper's
//! setup), and the active cycles are simulated individually. This gives the
//! same speed/accuracy trade-off position as RTL simulation in the paper:
//! much higher simulation cost per packet, lower throughput per simulated
//! second, and cycle-quantized latencies.

use simbricks_base::{Kernel, Model, OwnedMsg, PortId, SimTime};

use crate::behavioral::{BehavioralNic, NicConfig, NicStats, NicVariant};

/// RTL model configuration.
#[derive(Clone, Copy, Debug)]
pub struct RtlConfig {
    /// Core clock in Hz (paper: 250 MHz).
    pub clock_hz: u64,
    /// Pipeline cycles charged per descriptor fetch / write-back.
    pub cycles_per_desc: u64,
    /// Pipeline cycles charged per 64-byte word of packet data.
    pub cycles_per_word: u64,
    /// Fixed pipeline depth (cycles) added to every packet in each direction.
    pub pipeline_depth: u64,
    /// Ethernet line rate of the MAC.
    pub eth_bandwidth_bps: u64,
}

impl Default for RtlConfig {
    fn default() -> Self {
        RtlConfig {
            clock_hz: 250_000_000,
            cycles_per_desc: 8,
            cycles_per_word: 1,
            pipeline_depth: 64,
            eth_bandwidth_bps: simbricks_base::bw::B100G,
        }
    }
}

/// The cycle-driven Corundum model. It wraps the behavioural Corundum data
/// path and inserts clocked delay stages: messages from the host and the
/// network are only presented to the data path on clock edges, after the
/// configured number of active cycles has been simulated.
pub struct CorundumRtlNic {
    inner: BehavioralNic,
    cfg: RtlConfig,
    cycle: SimTime,
    /// Messages waiting to enter the data path: (ready time, port, message).
    staged: std::collections::VecDeque<(SimTime, PortId, OwnedMsg)>,
    /// Number of clock cycles this model has explicitly simulated.
    pub cycles_simulated: u64,
    clock_armed: bool,
}

const TOK_CLOCK: u64 = 0x7f << 56;

impl CorundumRtlNic {
    pub fn new(cfg: RtlConfig) -> Self {
        let mut nic_cfg = NicConfig::corundum();
        nic_cfg.eth_bandwidth_bps = cfg.eth_bandwidth_bps;
        // The behavioural processing latency is replaced by explicit cycles.
        nic_cfg.processing_latency = SimTime::ZERO;
        CorundumRtlNic {
            inner: BehavioralNic::new(nic_cfg),
            cfg,
            cycle: SimTime::from_ps(1_000_000_000_000u64 / cfg.clock_hz.max(1)),
            staged: std::collections::VecDeque::new(),
            cycles_simulated: 0,
            clock_armed: false,
        }
    }

    pub fn stats(&self) -> NicStats {
        self.inner.stats()
    }

    pub fn variant(&self) -> NicVariant {
        self.inner.variant()
    }

    /// Virtual duration of one core clock cycle.
    pub fn cycle_time(&self) -> SimTime {
        self.cycle
    }

    fn cycles_for(&self, msg: &OwnedMsg) -> u64 {
        // Descriptor-sized and control messages take a fixed handful of
        // cycles; packet payloads additionally pay per 64-byte word.
        let words = (msg.data.len() as u64).div_ceil(64);
        self.cfg.pipeline_depth + self.cfg.cycles_per_desc + words * self.cfg.cycles_per_word
    }

    fn arm_clock(&mut self, k: &mut Kernel) {
        if !self.clock_armed {
            self.clock_armed = true;
            k.schedule_in(self.cycle, TOK_CLOCK);
        }
    }

    fn tick(&mut self, k: &mut Kernel) {
        self.clock_armed = false;
        self.cycles_simulated += 1;
        let now = k.now();
        // Release every staged message whose pipeline traversal completed.
        loop {
            let ready = matches!(self.staged.front(), Some((t, _, _)) if *t <= now);
            if !ready {
                break;
            }
            let (_, port, msg) = self.staged.pop_front().unwrap();
            self.inner.on_msg(k, port, msg);
        }
        if !self.staged.is_empty() {
            self.arm_clock(k);
        }
    }
}

impl Model for CorundumRtlNic {
    fn init(&mut self, k: &mut Kernel) {
        self.inner.init(k);
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        let cycles = self.cycles_for(&msg);
        let ready = k.now() + self.cycle.mul(cycles);
        self.staged.push_back((ready, port, msg));
        self.arm_clock(k);
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        if token & (0xffu64 << 56) == TOK_CLOCK {
            self.tick(k);
        } else {
            self.inner.on_timer(k, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome, MSG_SYNC};
    use simbricks_eth::MSG_ETH_PACKET;
    use simbricks_pcie::{DevToHost, HostToDev};

    #[test]
    fn cycle_time_and_config() {
        let nic = CorundumRtlNic::new(RtlConfig::default());
        assert_eq!(nic.cycle_time(), SimTime::from_ns(4));
        assert_eq!(nic.variant(), NicVariant::Corundum);
    }

    #[test]
    fn rtl_model_processes_mmio_after_clocked_delay_and_simulates_cycles() {
        let (nic_pcie, mut host) = channel_pair(ChannelParams::default_sync());
        let (nic_eth, mut net) = channel_pair(ChannelParams::default_sync());
        let mut kernel = Kernel::new("corundum-rtl", SimTime::from_ms(1));
        kernel.add_port(nic_pcie);
        kernel.add_port(nic_eth);
        let mut nic = CorundumRtlNic::new(RtlConfig::default());

        // Enable the device and read the control register back.
        let (ty, p) = HostToDev::MmioWrite {
            req_id: 1,
            bar: 0,
            offset: REG_CTRL,
            data: 1u64.to_le_bytes().to_vec().into(),
        }
        .encode();
        host.send_raw(SimTime::from_us(1), ty, &p).unwrap();
        let (ty, p) = HostToDev::MmioRead {
            req_id: 2,
            bar: 0,
            offset: REG_CTRL,
            len: 8,
        }
        .encode();
        host.send_raw(SimTime::from_us(1), ty, &p).unwrap();
        host.send_raw(SimTime::from_us(500), MSG_SYNC, &[]).unwrap();
        net.send_raw(SimTime::from_us(500), MSG_SYNC, &[]).unwrap();

        while kernel.step(&mut nic, 4096) == StepOutcome::Progressed {}

        let mut dev_info_seen = false;
        let mut read_value = None;
        let mut completion_time = SimTime::ZERO;
        while let Some(m) = host.recv_raw() {
            match DevToHost::decode(m.ty, &m.data) {
                Some(DevToHost::DevInfo(info)) => {
                    dev_info_seen = true;
                    assert_eq!(info.vendor_id, ids::VENDOR_CORUNDUM);
                }
                Some(DevToHost::MmioComplete { req_id: 2, data }) => {
                    read_value = Some(u64::from_le_bytes(data[..8].try_into().unwrap()));
                    completion_time = m.timestamp;
                }
                _ => {}
            }
        }
        assert!(dev_info_seen);
        assert_eq!(read_value, Some(1), "CTRL readback sees the enable bit");
        // The raw-injected request is processed at 1 us; the pipeline adds at
        // least 64+8 cycles of 4 ns = 288 ns before the completion leaves,
        // and the reply carries the 500 ns PCIe channel latency.
        assert!(completion_time >= SimTime::from_ns(1000 + 288 + 500));
        assert!(nic.cycles_simulated > 0, "active cycles were stepped");
    }

    #[test]
    fn rx_without_buffers_is_held_then_dropped_after_pipeline() {
        // Frames arriving with no posted RX descriptors are held in the NIC's
        // internal FIFO; once it fills, further frames are tail-dropped.
        let (nic_pcie, mut host) = channel_pair(ChannelParams::default_sync());
        let (nic_eth, mut net) = channel_pair(ChannelParams::default_sync().with_queue_len(256));
        let mut kernel = Kernel::new("corundum-rtl", SimTime::from_us(400));
        kernel.add_port(nic_pcie);
        kernel.add_port(nic_eth);
        let mut nic = CorundumRtlNic::new(RtlConfig::default());
        // Enable, but never post RX buffers.
        let (ty, p) = HostToDev::MmioWrite {
            req_id: 1,
            bar: 0,
            offset: REG_CTRL,
            data: 1u64.to_le_bytes().to_vec().into(),
        }
        .encode();
        host.send_raw(SimTime::from_us(1), ty, &p).unwrap();
        let burst = crate::behavioral::RX_FIFO_FRAMES as u64 + 3;
        for i in 0..burst {
            net.send_raw(SimTime::from_us(2 + i), MSG_ETH_PACKET, &[0u8; 512])
                .unwrap();
        }
        host.send_raw(SimTime::from_us(400), MSG_SYNC, &[]).unwrap();
        net.send_raw(SimTime::from_us(400), MSG_SYNC, &[]).unwrap();
        while kernel.step(&mut nic, 4096) == StepOutcome::Progressed {}
        assert_eq!(nic.stats().rx_dropped_no_buffer, 3);
        assert_eq!(nic.stats().rx_packets, 0, "nothing reached host memory");
        // Every frame is 8 words: the pipeline simulated at least
        // 64 + 8 + 8 cycles for each.
        assert!(nic.cycles_simulated >= 1);
    }
}
