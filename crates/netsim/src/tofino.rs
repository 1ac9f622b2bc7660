//! Programmable match-action pipeline switch (Tofino stand-in).
//!
//! The paper integrates Intel's closed-source Tofino simulator to evaluate
//! in-network processing (§6.4, §8.2). This module provides an open
//! reimplementation of the part the evaluation depends on: a multi-stage
//! match-action pipeline with a per-stage latency and an egress queuing
//! model, programmable with either plain L2 forwarding or the NOPaxos
//! Ordered Unreliable Multicast (OUM) sequencer program: UDP packets sent to
//! the OUM group port receive a monotonically increasing sequence number
//! written into the first eight payload bytes and are then multicast to all
//! replica ports.

use std::collections::{BTreeMap, VecDeque};

use simbricks_base::{Kernel, Model, OwnedMsg, PktBuf, PortId, SimTime, SyncLookahead};
use simbricks_eth::{send_packet, serialization_delay, EthPacket};
use simbricks_proto::{
    frame_dst, frame_src, FrameBuilder, MacAddr, ParsedFrame, ParsedL4, UdpHeader,
};

/// Configuration of the OUM sequencer program.
#[derive(Clone, Debug)]
pub struct SequencerConfig {
    /// UDP destination port identifying OUM traffic.
    pub group_port: u16,
    /// Switch ports connected to the replicas that receive the multicast.
    pub replica_ports: Vec<usize>,
}

/// Tofino-style switch configuration.
#[derive(Clone, Debug)]
pub struct TofinoConfig {
    pub ports: usize,
    pub bandwidth_bps: u64,
    pub queue_capacity: usize,
    /// Number of match-action stages the pipeline applies to every packet.
    pub pipeline_stages: u32,
    /// Latency per pipeline stage.
    pub stage_latency: SimTime,
    /// Optional OUM sequencer program.
    pub sequencer: Option<SequencerConfig>,
}

impl Default for TofinoConfig {
    fn default() -> Self {
        TofinoConfig {
            ports: 4,
            bandwidth_bps: simbricks_base::bw::B10G,
            queue_capacity: 1024 * 1024,
            pipeline_stages: 12,
            stage_latency: SimTime::from_ns(50),
            sequencer: None,
        }
    }
}

/// Counters for experiment reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct TofinoStats {
    pub forwarded: u64,
    pub sequenced: u64,
    pub dropped: u64,
}

struct Egress {
    queue: VecDeque<PktBuf>,
    queued_bytes: usize,
    busy_until: SimTime,
    departing: bool,
}

/// The Tofino-style programmable switch model.
pub struct TofinoSwitch {
    cfg: TofinoConfig,
    mac_table: BTreeMap<MacAddr, usize>,
    egress: Vec<Egress>,
    /// Packets traversing the pipeline: ready time and (ingress, frame).
    in_pipeline: VecDeque<(SimTime, usize, PktBuf)>,
    next_seqno: u64,
    stats: TofinoStats,
}

const TOK_PIPE: u64 = 1 << 56;
const TOK_EGRESS: u64 = 2 << 56;

impl TofinoSwitch {
    pub fn new(cfg: TofinoConfig) -> Self {
        TofinoSwitch {
            egress: (0..cfg.ports)
                .map(|_| Egress {
                    queue: VecDeque::new(),
                    queued_bytes: 0,
                    busy_until: SimTime::ZERO,
                    departing: false,
                })
                .collect(),
            cfg,
            mac_table: BTreeMap::new(),
            in_pipeline: VecDeque::new(),
            next_seqno: 1,
            stats: TofinoStats::default(),
        }
    }

    pub fn stats(&self) -> TofinoStats {
        self.stats
    }

    fn pipeline_latency(&self) -> SimTime {
        self.cfg.stage_latency.mul(self.cfg.pipeline_stages as u64)
    }

    fn enqueue(&mut self, k: &mut Kernel, port: usize, frame: PktBuf) {
        if port >= self.egress.len() {
            return;
        }
        let q = &mut self.egress[port];
        if q.queued_bytes + frame.len() > self.cfg.queue_capacity {
            self.stats.dropped += 1;
            return;
        }
        q.queued_bytes += frame.len();
        q.queue.push_back(frame);
        self.schedule_departure(k, port);
    }

    fn schedule_departure(&mut self, k: &mut Kernel, port: usize) {
        let now = k.now();
        let q = &mut self.egress[port];
        if q.departing || q.queue.is_empty() {
            return;
        }
        let len = q.queue.front().unwrap().len();
        let start = now.max(q.busy_until);
        let done = start + serialization_delay(len, self.cfg.bandwidth_bps);
        q.busy_until = done;
        q.departing = true;
        k.schedule_at(done, TOK_EGRESS | port as u64);
    }

    /// The match-action program: returns the set of (port, frame) outputs.
    fn process(&mut self, k: &mut Kernel, in_port: usize, frame: PktBuf) -> Vec<(usize, PktBuf)> {
        // MAC learning happens regardless of the program.
        if let Some(src) = frame_src(&frame) {
            if !src.is_multicast() {
                self.mac_table.insert(src, in_port);
            }
        }

        // OUM sequencer: rewrite + multicast matching UDP packets.
        if let Some(seq_cfg) = self.cfg.sequencer.clone() {
            if let Ok(parsed) = ParsedFrame::parse(&frame) {
                if let ParsedL4::Udp { header, payload } = &parsed.l4 {
                    if header.dst_port == seq_cfg.group_port && payload.len() >= 8 {
                        let seqno = self.next_seqno;
                        self.next_seqno += 1;
                        self.stats.sequenced += 1;
                        k.log("oum_seq", seqno, payload.len() as u64);
                        // Rewrite the first 8 payload bytes with the sequence
                        // number and rebuild the datagram (fixes checksums).
                        let mut new_payload = payload.clone();
                        new_payload[..8].copy_from_slice(&seqno.to_le_bytes());
                        let ip = parsed.ipv4.unwrap();
                        let l4 =
                            UdpHeader::new(header.src_port, header.dst_port, new_payload.len())
                                .build_datagram(ip.src, ip.dst, &new_payload);
                        let out_frame = FrameBuilder::ipv4(
                            parsed.eth.src,
                            parsed.eth.dst,
                            ip.src,
                            ip.dst,
                            simbricks_proto::IpProto::Udp,
                            ip.ecn,
                            &l4,
                        );
                        // Replicate by refcount bump: one shared buffer,
                        // one reference per replica port.
                        let out_frame = PktBuf::from_vec(out_frame);
                        return seq_cfg
                            .replica_ports
                            .iter()
                            .filter(|&&p| p != in_port)
                            .map(|&p| (p, out_frame.clone()))
                            .collect();
                    }
                }
            }
        }

        // Default program: L2 forwarding with flooding.
        let out = frame_dst(&frame).and_then(|d| {
            if d.is_broadcast() || d.is_multicast() {
                None
            } else {
                self.mac_table.get(&d).copied()
            }
        });
        self.stats.forwarded += 1;
        match out {
            Some(p) if p != in_port => vec![(p, frame)],
            Some(_) => vec![],
            None => (0..self.cfg.ports)
                .filter(|&p| p != in_port)
                .map(|p| (p, frame.clone()))
                .collect(),
        }
    }
}

impl Model for TofinoSwitch {
    // Both the default L2 program and the OUM sequencer replicate only to
    // ports other than the ingress port, and every emission goes through the
    // pipeline/egress timers, so sends on port p are never caused by inputs
    // on p. Zero lookahead is therefore safe to declare.
    fn sync_lookahead(&self) -> Option<SyncLookahead> {
        Some(SyncLookahead::ExcludeSelf(SimTime::ZERO))
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        let Some(pkt) = EthPacket::decode_owned(msg) else {
            return;
        };
        // Every packet spends the pipeline latency before egress queueing,
        // modelling the multi-stage match-action traversal.
        let ready = k.now() + self.pipeline_latency();
        self.in_pipeline.push_back((ready, port.0, pkt.frame));
        k.schedule_at(ready, TOK_PIPE);
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        let kind = token & (0xffu64 << 56);
        if kind == TOK_PIPE {
            let now = k.now();
            while let Some((ready, _, _)) = self.in_pipeline.front() {
                if *ready > now {
                    break;
                }
                let (_, in_port, frame) = self.in_pipeline.pop_front().unwrap();
                let outputs = self.process(k, in_port, frame);
                for (p, f) in outputs {
                    self.enqueue(k, p, f);
                }
            }
        } else if kind == TOK_EGRESS {
            let port = (token & 0xffff_ffff) as usize;
            let frame = {
                let q = &mut self.egress[port];
                q.departing = false;
                match q.queue.pop_front() {
                    Some(f) => {
                        q.queued_bytes -= f.len();
                        f
                    }
                    None => return,
                }
            };
            send_packet(k, PortId(port), &frame);
            self.schedule_departure(k, port);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome, MSG_SYNC};
    use simbricks_eth::MSG_ETH_PACKET;
    use simbricks_proto::{Ecn, Ipv4Addr};

    struct Harness {
        kernel: Kernel,
        switch: TofinoSwitch,
        peers: Vec<simbricks_base::ChannelEnd>,
    }

    impl Harness {
        fn new(cfg: TofinoConfig) -> Self {
            let mut kernel = Kernel::new("tofino", SimTime::from_ms(10));
            let mut peers = Vec::new();
            for _ in 0..cfg.ports {
                let (a, b) = channel_pair(ChannelParams::default_sync());
                kernel.add_port(a);
                peers.push(b);
            }
            Harness {
                kernel,
                switch: TofinoSwitch::new(cfg),
                peers,
            }
        }

        fn run_until(&mut self, horizon: SimTime) {
            for p in &mut self.peers {
                p.send_raw(horizon, MSG_SYNC, &[]).unwrap();
            }
            while self.kernel.step(&mut self.switch, 256) == StepOutcome::Progressed {}
        }

        fn collect(&mut self, port: usize) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            while let Some(m) = self.peers[port].recv_raw() {
                if m.ty == MSG_ETH_PACKET {
                    out.push(m.data.to_vec());
                }
            }
            out
        }
    }

    fn udp_to_group(seq_placeholder: u64, extra: &[u8]) -> Vec<u8> {
        let mut payload = seq_placeholder.to_le_bytes().to_vec();
        payload.extend_from_slice(extra);
        FrameBuilder::udp(
            MacAddr::from_index(1),
            MacAddr::from_index(0xff),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 100),
            Ecn::NotEct,
            5000,
            7777,
            &payload,
        )
    }

    #[test]
    fn l2_forwarding_without_program() {
        let mut h = Harness::new(TofinoConfig::default());
        // Unknown destination floods to the other three ports.
        let f = FrameBuilder::udp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            1,
            2,
            b"x",
        );
        h.peers[0]
            .send_raw(SimTime::from_us(1), MSG_ETH_PACKET, &f)
            .unwrap();
        h.run_until(SimTime::from_us(100));
        assert_eq!(h.collect(1).len(), 1);
        assert_eq!(h.collect(2).len(), 1);
        assert_eq!(h.collect(3).len(), 1);
        assert_eq!(h.collect(0).len(), 0);
    }

    #[test]
    fn pipeline_latency_applied() {
        let cfg = TofinoConfig {
            pipeline_stages: 10,
            stage_latency: SimTime::from_ns(100),
            ..Default::default()
        };
        let mut h = Harness::new(cfg);
        let f = udp_to_group(0, b"payload");
        let t_in = SimTime::from_us(1);
        h.peers[0].send_raw(t_in, MSG_ETH_PACKET, &f).unwrap();
        h.run_until(SimTime::from_us(200));
        let mut min_out = SimTime::MAX;
        for port in 1..4 {
            while let Some(m) = h.peers[port].recv_raw() {
                if m.ty == MSG_ETH_PACKET {
                    min_out = min_out.min(m.timestamp);
                }
            }
        }
        // input arrives at 1us, pipeline 1us, serialization + channel latency on top
        assert!(
            min_out >= SimTime::from_us(2),
            "pipeline delay respected, got {min_out}"
        );
    }

    #[test]
    fn oum_sequencer_stamps_and_multicasts() {
        let cfg = TofinoConfig {
            sequencer: Some(SequencerConfig {
                group_port: 7777,
                replica_ports: vec![1, 2, 3],
            }),
            ..Default::default()
        };
        let mut h = Harness::new(cfg);
        for i in 0..3u64 {
            h.peers[0]
                .send_raw(
                    SimTime::from_us(1 + i),
                    MSG_ETH_PACKET,
                    &udp_to_group(0, b"req"),
                )
                .unwrap();
        }
        h.run_until(SimTime::from_ms(1));
        for replica in 1..4usize {
            let got = h.collect(replica);
            assert_eq!(got.len(), 3, "every replica sees every OUM packet");
            let mut seqs = Vec::new();
            for f in got {
                let p = ParsedFrame::parse(&f).unwrap();
                assert!(p.checksums_ok, "sequencer rewrites checksums correctly");
                match p.l4 {
                    ParsedL4::Udp { header, payload } => {
                        assert_eq!(header.dst_port, 7777);
                        seqs.push(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                    }
                    _ => panic!("expected UDP"),
                }
            }
            assert_eq!(
                seqs,
                vec![1, 2, 3],
                "sequence numbers are consecutive and ordered"
            );
        }
        assert_eq!(h.switch.stats().sequenced, 3);
    }

    #[test]
    fn non_group_traffic_unaffected_by_sequencer() {
        let cfg = TofinoConfig {
            sequencer: Some(SequencerConfig {
                group_port: 7777,
                replica_ports: vec![1, 2],
            }),
            ..Default::default()
        };
        let mut h = Harness::new(cfg);
        let f = FrameBuilder::udp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            1000,
            2000, // not the group port
            &42u64.to_le_bytes(),
        );
        h.peers[0]
            .send_raw(SimTime::from_us(1), MSG_ETH_PACKET, &f)
            .unwrap();
        h.run_until(SimTime::from_us(100));
        let got = h.collect(1);
        assert_eq!(got.len(), 1);
        let p = ParsedFrame::parse(&got[0]).unwrap();
        match p.l4 {
            ParsedL4::Udp { payload, .. } => {
                assert_eq!(
                    u64::from_le_bytes(payload[..8].try_into().unwrap()),
                    42,
                    "payload of non-OUM traffic is untouched"
                );
            }
            _ => panic!("expected UDP"),
        }
        assert_eq!(h.switch.stats().sequenced, 0);
    }
}
