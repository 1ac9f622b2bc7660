//! # simbricks-netstack
//!
//! A simulated TCP/UDP/IP network stack used by the simulated hosts (and by
//! the network simulator's built-in endpoints for the "ns-3 alone" baseline
//! of Fig. 1). The stack stands in for the guest Linux kernel networking of
//! the paper's full-system simulations.
//!
//! The stack is written sans-I/O: it never performs I/O or time queries
//! itself. The owner (the OS model of a simulated host, or a network
//! simulator node) feeds it received frames and timer callbacks, and drains
//! outgoing frames and socket events. This keeps it usable from any
//! simulation model and keeps all timing under the owner's control.
//!
//! Features: ARP resolution, UDP sockets, TCP with connection setup and
//! teardown, cumulative ACKs, retransmission (RTO and fast retransmit),
//! receive-window flow control, delayed ACKs, and two congestion-control
//! algorithms — Reno and DCTCP (ECN-based, with the α estimator from the
//! DCTCP paper), the latter being what the Fig. 1 experiment sweeps the
//! switch marking threshold K against.

pub mod gro;
pub mod socket;
pub mod stack;
pub mod tcp;
pub mod udp;

pub use gro::{coalesce as gro_coalesce, GroResult};
pub use socket::{SocketAddr, SocketEvent, SocketId};
pub use stack::{NetStack, StackConfig, StackStats};
pub use tcp::{CongestionControl, TcpState};

#[cfg(test)]
mod harness_tests {
    //! Whole-stack tests: two stacks connected by an in-test "wire" that can
    //! delay, reorder, drop, or ECN-mark frames.

    use super::*;
    use simbricks_base::{PktBuf, SimTime};
    use simbricks_proto::{Ecn, Ipv4Addr, Ipv4Header, MacAddr, ParsedFrame, ParsedL4};
    use std::collections::VecDeque;

    /// A simple two-endpoint harness with a configurable one-way delay and a
    /// per-direction queue, driving both stacks in virtual time.
    pub(crate) struct Wire {
        pub a: NetStack,
        pub b: NetStack,
        delay: SimTime,
        /// frames in flight: (deliver_time, to_a, frame)
        inflight: VecDeque<(SimTime, bool, PktBuf)>,
        pub now: SimTime,
        /// Mark CE on frames larger than this (simulates a marking queue).
        pub mark_above_bytes: Option<usize>,
        /// Drop every n-th data frame (for loss/retransmit tests).
        pub drop_every: Option<u64>,
        sent_frames: u64,
    }

    impl Wire {
        pub fn new(cc: CongestionControl) -> Self {
            let a_cfg = StackConfig {
                ip: Ipv4Addr::new(10, 0, 0, 1),
                mac: MacAddr::from_index(1),
                congestion: cc,
                ..StackConfig::default()
            };
            let b_cfg = StackConfig {
                ip: Ipv4Addr::new(10, 0, 0, 2),
                mac: MacAddr::from_index(2),
                congestion: cc,
                ..StackConfig::default()
            };
            Wire {
                a: NetStack::new(a_cfg),
                b: NetStack::new(b_cfg),
                delay: SimTime::from_us(5),
                inflight: VecDeque::new(),
                now: SimTime::ZERO,
                mark_above_bytes: None,
                drop_every: None,
                sent_frames: 0,
            }
        }

        fn pump_out(&mut self) {
            let delay = self.delay;
            let mut staged: Vec<(bool, PktBuf)> = Vec::new();
            while let Some(f) = self.a.poll_transmit() {
                staged.push((false, f));
            }
            while let Some(f) = self.b.poll_transmit() {
                staged.push((true, f));
            }
            for (to_a, mut f) in staged {
                self.sent_frames += 1;
                if let Some(n) = self.drop_every {
                    if self.sent_frames.is_multiple_of(n) && f.len() > 200 {
                        continue; // drop a data frame
                    }
                }
                if let Some(limit) = self.mark_above_bytes {
                    if f.len() > limit {
                        // Mark CE like a congested ECN queue would.
                        Ipv4Header::set_ecn_in_place(f.make_mut(), 14, Ecn::Ce);
                    }
                }
                self.inflight.push_back((self.now + delay, to_a, f));
            }
        }

        /// Advance virtual time by `dt`, delivering frames and firing timers.
        pub fn run_for(&mut self, dt: SimTime) {
            let end = self.now + dt;
            loop {
                self.pump_out();
                // next event: earliest in-flight delivery or stack timer
                let mut next = end;
                if let Some((t, _, _)) = self.inflight.front() {
                    next = next.min(*t);
                }
                if let Some(t) = self.a.poll_timeout() {
                    next = next.min(t);
                }
                if let Some(t) = self.b.poll_timeout() {
                    next = next.min(t);
                }
                if next > end || (next == end && self.now == end) {
                    self.now = end;
                    break;
                }
                self.now = next.max(self.now);
                // deliveries due now (queue is time-sorted by construction)
                loop {
                    let due = matches!(self.inflight.front(), Some((t, _, _)) if *t <= self.now);
                    if !due {
                        break;
                    }
                    let (_, to_a, f) = self.inflight.pop_front().unwrap();
                    if to_a {
                        self.a.handle_frame(self.now, &f);
                    } else {
                        self.b.handle_frame(self.now, &f);
                    }
                }
                self.a.on_timer(self.now);
                self.b.on_timer(self.now);
            }
            self.pump_out();
        }
    }

    #[test]
    fn tcp_connect_transfer_and_close() {
        let mut w = Wire::new(CongestionControl::Reno);
        let srv = w.b.tcp_listen(5201).unwrap();
        let cli =
            w.a.tcp_connect(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 5201);
        w.run_for(SimTime::from_ms(5));
        let accepted: Vec<_> = w.b.poll_events();
        let acc_id = accepted
            .iter()
            .find_map(|e| match e {
                SocketEvent::Accepted { listener, socket } if *listener == srv => Some(*socket),
                _ => None,
            })
            .expect("server accepted a connection");
        assert!(w
            .a
            .poll_events()
            .iter()
            .any(|e| matches!(e, SocketEvent::Connected(id) if *id == cli)));

        // Send 100 KiB from client to server.
        let data: Vec<u8> = (0..100 * 1024u32).map(|i| (i % 251) as u8).collect();
        let mut off = 0;
        let mut received = Vec::new();
        for _ in 0..2000 {
            if off < data.len() {
                off += w.a.tcp_send(cli, &data[off..]);
            }
            w.run_for(SimTime::from_us(200));
            loop {
                let chunk = w.b.tcp_recv(acc_id, usize::MAX);
                if chunk.is_empty() {
                    break;
                }
                received.extend_from_slice(&chunk);
            }
            if received.len() == data.len() {
                break;
            }
        }
        assert_eq!(received.len(), data.len(), "all bytes delivered");
        assert_eq!(received, data, "bytes delivered in order and uncorrupted");

        w.a.tcp_close(cli);
        w.run_for(SimTime::from_ms(50));
        assert!(w
            .b
            .poll_events()
            .iter()
            .any(|e| matches!(e, SocketEvent::PeerClosed(id) if *id == acc_id)));
    }

    #[test]
    fn tcp_recovers_from_packet_loss() {
        let mut w = Wire::new(CongestionControl::Reno);
        w.drop_every = Some(13);
        let srv = w.b.tcp_listen(80).unwrap();
        let cli =
            w.a.tcp_connect(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 80);
        w.run_for(SimTime::from_ms(5));
        let acc_id =
            w.b.poll_events()
                .iter()
                .find_map(|e| match e {
                    SocketEvent::Accepted { listener, socket } if *listener == srv => Some(*socket),
                    _ => None,
                })
                .unwrap();
        let data: Vec<u8> = (0..60 * 1024u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut off = 0;
        let mut received = Vec::new();
        for _ in 0..5000 {
            if off < data.len() {
                off += w.a.tcp_send(cli, &data[off..]);
            }
            w.run_for(SimTime::from_ms(1));
            loop {
                let chunk = w.b.tcp_recv(acc_id, usize::MAX);
                if chunk.is_empty() {
                    break;
                }
                received.extend_from_slice(&chunk);
            }
            if received.len() == data.len() {
                break;
            }
        }
        assert_eq!(received, data, "retransmissions repair every loss");
        let _ = cli;
        assert!(w.a.stats().tcp_retransmits > 0, "losses actually occurred");
    }

    #[test]
    fn dctcp_reduces_cwnd_under_ce_marks_but_reno_ignores_ece_capability() {
        // With persistent CE marking, a DCTCP sender's congestion window must
        // stay far below an unmarked run's window.
        let run = |mark: bool| -> u64 {
            let mut w = Wire::new(CongestionControl::Dctcp);
            if mark {
                w.mark_above_bytes = Some(200);
            }
            let srv = w.b.tcp_listen(9000).unwrap();
            let cli =
                w.a.tcp_connect(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 9000);
            w.run_for(SimTime::from_ms(2));
            let acc_id = w
                .b
                .poll_events()
                .iter()
                .find_map(|e| match e {
                    SocketEvent::Accepted { listener, socket } if *listener == srv => Some(*socket),
                    _ => None,
                })
                .unwrap();
            let data = vec![0xabu8; 4096];
            for _ in 0..400 {
                let _ = w.a.tcp_send(cli, &data);
                w.run_for(SimTime::from_us(500));
                loop {
                    if w.b.tcp_recv(acc_id, usize::MAX).is_empty() {
                        break;
                    }
                }
            }
            w.a.tcp_cwnd(cli).unwrap()
        };
        let marked_cwnd = run(true);
        let clean_cwnd = run(false);
        assert!(
            marked_cwnd * 2 < clean_cwnd,
            "DCTCP must back off under marking (marked={marked_cwnd} clean={clean_cwnd})"
        );
    }

    #[test]
    fn udp_exchange_with_arp_resolution() {
        let mut w = Wire::new(CongestionControl::Reno);
        let sa = w.a.udp_bind(7000).unwrap();
        let sb = w.b.udp_bind(7001).unwrap();
        w.a.udp_send_to(
            SimTime::ZERO,
            sa,
            SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 7001),
            b"ping",
        );
        w.run_for(SimTime::from_ms(1));
        let (from, data) = w.b.udp_recv_from(sb).expect("datagram arrives after ARP");
        assert_eq!(data, b"ping");
        assert_eq!(from, SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 7000));
        // Reply without further ARP traffic.
        w.b.udp_send_to(w.now, sb, from, b"pong");
        w.run_for(SimTime::from_ms(1));
        let (from_b, data_b) = w.a.udp_recv_from(sa).unwrap();
        assert_eq!(data_b, b"pong");
        assert_eq!(from_b.port, 7001);
        assert!(w.a.stats().arp_requests_sent >= 1);
        assert_eq!(
            w.b.stats().arp_requests_sent,
            0,
            "reply reuses learned entry"
        );
    }

    #[test]
    fn ecn_marked_dctcp_flow_sets_ect_on_data() {
        let mut w = Wire::new(CongestionControl::Dctcp);
        let _srv = w.b.tcp_listen(1234).unwrap();
        let cli =
            w.a.tcp_connect(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 1234);
        w.run_for(SimTime::from_ms(2));
        let _ = w.a.tcp_send(cli, &[0u8; 3000]);
        // Inspect frames leaving stack a for ECT(0).
        let mut saw_ect_data = false;
        while let Some(f) = w.a.poll_transmit() {
            let p = ParsedFrame::parse(&f).unwrap();
            if let ParsedL4::Tcp { payload, .. } = &p.l4 {
                if !payload.is_empty() {
                    assert_eq!(p.ipv4.unwrap().ecn, Ecn::Ect0);
                    saw_ect_data = true;
                }
            }
        }
        assert!(saw_ect_data);
    }
}
