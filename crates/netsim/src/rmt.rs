//! Cycle-driven RMT packet-processing pipeline (Menshen stand-in).
//!
//! The paper integrates the Menshen RMT pipeline Verilog through Verilator
//! (§6.4) to show RTL network components plug into the same Ethernet
//! interface. This module provides a cycle-level Rust model with the same
//! role: packets advance through the pipeline one stage per clock cycle at a
//! configurable frequency, which makes the component considerably more
//! expensive to simulate per packet than the behavioural switch — the
//! property that matters for the speed/accuracy trade-off experiments
//! (Tab. 1/3).

use std::collections::{BTreeMap, VecDeque};

use simbricks_base::{Kernel, Model, OwnedMsg, PktBuf, PortId, SimTime, SyncLookahead};
use simbricks_eth::{send_packet, EthPacket};
use simbricks_proto::{frame_dst, frame_src, MacAddr};

/// Configuration of the RMT pipeline.
#[derive(Clone, Copy, Debug)]
pub struct RmtConfig {
    pub ports: usize,
    /// Clock frequency in Hz (the paper runs RTL models at 250 MHz).
    pub clock_hz: u64,
    /// Pipeline depth in stages; a packet occupies one stage per cycle.
    pub stages: u32,
    /// Additional per-32-byte-word ingress cycles (bus width modelling).
    pub cycles_per_word: u32,
}

impl Default for RmtConfig {
    fn default() -> Self {
        RmtConfig {
            ports: 2,
            clock_hz: 250_000_000,
            stages: 16,
            cycles_per_word: 1,
        }
    }
}

struct InFlight {
    remaining_cycles: u64,
    in_port: usize,
    frame: PktBuf,
}

/// The cycle-driven pipeline model.
pub struct RmtPipeline {
    cfg: RmtConfig,
    cycle_len: SimTime,
    mac_table: BTreeMap<MacAddr, usize>,
    pipeline: VecDeque<InFlight>,
    clock_running: bool,
    pub cycles_simulated: u64,
    pub packets_processed: u64,
}

const TOK_CLOCK: u64 = 1;

impl RmtPipeline {
    pub fn new(cfg: RmtConfig) -> Self {
        let cycle_len = SimTime::from_ps(1_000_000_000_000u64 / cfg.clock_hz.max(1));
        RmtPipeline {
            cfg,
            cycle_len,
            mac_table: BTreeMap::new(),
            pipeline: VecDeque::new(),
            clock_running: false,
            cycles_simulated: 0,
            packets_processed: 0,
        }
    }

    /// Virtual duration of one clock cycle.
    pub fn cycle_time(&self) -> SimTime {
        self.cycle_len
    }

    fn packet_cycles(&self, len: usize) -> u64 {
        let words = len.div_ceil(32) as u64;
        self.cfg.stages as u64 + words * self.cfg.cycles_per_word as u64
    }

    fn start_clock(&mut self, k: &mut Kernel) {
        if !self.clock_running {
            self.clock_running = true;
            k.schedule_in(self.cycle_len, TOK_CLOCK);
        }
    }

    fn tick(&mut self, k: &mut Kernel) {
        self.cycles_simulated += 1;
        let mut emitted = Vec::new();
        for pkt in &mut self.pipeline {
            pkt.remaining_cycles = pkt.remaining_cycles.saturating_sub(1);
        }
        while let Some(front) = self.pipeline.front() {
            if front.remaining_cycles > 0 {
                break;
            }
            let done = self.pipeline.pop_front().unwrap();
            emitted.push(done);
        }
        for done in emitted {
            self.packets_processed += 1;
            self.forward(k, done.in_port, done.frame);
        }
        if self.pipeline.is_empty() {
            // No packets in flight: gate the clock off (idle cycles are
            // skipped analytically; this is what keeps a cycle model usable
            // inside long simulations, while still charging every active
            // cycle as an event).
            self.clock_running = false;
        } else {
            k.schedule_in(self.cycle_len, TOK_CLOCK);
        }
    }

    fn forward(&mut self, k: &mut Kernel, in_port: usize, frame: PktBuf) {
        if let Some(src) = frame_src(&frame) {
            if !src.is_multicast() {
                self.mac_table.insert(src, in_port);
            }
        }
        let out = frame_dst(&frame).and_then(|d| {
            if d.is_broadcast() || d.is_multicast() {
                None
            } else {
                self.mac_table.get(&d).copied()
            }
        });
        match out {
            Some(p) if p != in_port => send_packet(k, PortId(p), &frame),
            Some(_) => {}
            None => {
                for p in 0..self.cfg.ports {
                    if p != in_port {
                        send_packet(k, PortId(p), &frame);
                    }
                }
            }
        }
    }
}

impl Model for RmtPipeline {
    // Forwarding filters the ingress port for unicast and flood alike, and
    // all emissions happen from the clock timer, never directly from
    // `on_msg`; an input pending on port p cannot cause a send on p.
    fn sync_lookahead(&self) -> Option<SyncLookahead> {
        Some(SyncLookahead::ExcludeSelf(SimTime::ZERO))
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        let Some(pkt) = EthPacket::decode_owned(msg) else {
            return;
        };
        let cycles = self.packet_cycles(pkt.len());
        self.pipeline.push_back(InFlight {
            remaining_cycles: cycles,
            in_port: port.0,
            frame: pkt.frame,
        });
        self.start_clock(k);
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        if token == TOK_CLOCK {
            self.tick(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome, MSG_SYNC};
    use simbricks_eth::MSG_ETH_PACKET;
    use simbricks_proto::{EthHeader, EtherType};

    fn frame(src: u64, dst: u64, len: usize) -> Vec<u8> {
        EthHeader::new(
            MacAddr::from_index(dst),
            MacAddr::from_index(src),
            EtherType::Other(0x900),
        )
        .build_frame(&vec![0u8; len])
    }

    #[test]
    fn cycle_time_matches_frequency() {
        let p = RmtPipeline::new(RmtConfig::default());
        assert_eq!(p.cycle_time(), SimTime::from_ns(4)); // 250 MHz
    }

    #[test]
    fn packets_take_pipeline_cycles_and_forward() {
        let cfg = RmtConfig::default();
        let mut kernel = Kernel::new("rmt", SimTime::from_ms(1));
        let (a0, mut p0) = channel_pair(ChannelParams::default_sync());
        let (a1, mut p1) = channel_pair(ChannelParams::default_sync());
        kernel.add_port(a0);
        kernel.add_port(a1);
        let mut rmt = RmtPipeline::new(cfg);
        let t_in = SimTime::from_us(1);
        p0.send_raw(t_in, MSG_ETH_PACKET, &frame(1, 2, 200))
            .unwrap();
        p0.send_raw(SimTime::from_us(100), MSG_SYNC, &[]).unwrap();
        p1.send_raw(SimTime::from_us(100), MSG_SYNC, &[]).unwrap();
        while kernel.step(&mut rmt, 256) == StepOutcome::Progressed {}
        let mut got = Vec::new();
        while let Some(m) = p1.recv_raw() {
            if m.ty == MSG_ETH_PACKET {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 1);
        // 16 stages + ceil(214/32)=7 words => 23 cycles of 4 ns = 92 ns, plus
        // the 500 ns channel latency on each side.
        assert!(got[0].timestamp >= t_in + SimTime::from_ns(92));
        assert!(
            rmt.cycles_simulated >= 23,
            "active cycles are simulated individually"
        );
        assert_eq!(rmt.packets_processed, 1);
    }

    #[test]
    fn clock_gates_off_when_idle() {
        let mut kernel = Kernel::new("rmt", SimTime::from_us(50));
        let (a0, mut p0) = channel_pair(ChannelParams::default_sync());
        let (a1, mut p1) = channel_pair(ChannelParams::default_sync());
        kernel.add_port(a0);
        kernel.add_port(a1);
        let mut rmt = RmtPipeline::new(RmtConfig::default());
        p0.send_raw(SimTime::from_us(1), MSG_ETH_PACKET, &frame(1, 2, 64))
            .unwrap();
        p0.send_raw(SimTime::from_us(50), MSG_SYNC, &[]).unwrap();
        p1.send_raw(SimTime::from_us(50), MSG_SYNC, &[]).unwrap();
        while kernel.step(&mut rmt, 4096) == StepOutcome::Progressed {}
        // 50 us at 4 ns/cycle would be 12500 cycles if free-running; the
        // gated clock only simulates the active window.
        assert!(rmt.cycles_simulated < 100);
        let _ = p1.recv_raw();
    }
}
