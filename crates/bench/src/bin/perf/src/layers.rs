//! Layer drivers: the unit cost of one call of a public function of each
//! layer, with inputs shaped like the workloads' (64 B descriptors, 800 B
//! datagrams, MTU-4000 segments, 22-port switches).
//!
//! Every driver runs batches of 1024 calls and wraps each batch in one span,
//! so the two clock reads cost well under 1 % of what they time. A metric is
//! the median over a driver's batches, which a preempted batch cannot move.

use std::hint::black_box;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use simbricks::base::{
    channel_pair, BufPool, ChannelEnd, ChannelParams, EventLog, EventQueue, Kernel, Model,
    OwnedMsg, PortId, SimTime, SnapWriter, StepOutcome, SyncPort, MSG_SYNC,
};
use simbricks::eth::MSG_ETH_PACKET;
use simbricks::netsim::{Aqm, SwitchBm, SwitchConfig};
use simbricks::netstack::{CongestionControl, NetStack, SocketAddr, SocketEvent, StackConfig};
use simbricks::pcie::{DevToHost, HostToDev};
use simbricks::proto::checksum::checksum;
use simbricks::proto::{Ecn, FrameBuilder, Ipv4Addr, MacAddr, ParsedFrame, TcpFlags, TcpHeader};
use simbricks::runner::proxy::ShutdownSignal;
use simbricks::runner::shm::{attach_region, create_region};
use simbricks::runner::{proxy_pair, PartitionBuilder, ProxyKind, TransportKind};
use simbricks::scenario::{lower, Scenario};

use crate::simrun;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Workload, UDP_PAYLOAD};

/// Calls per batch, and so per span.
const BATCH: usize = 1024;
/// Fewest batches a driver times.
const MIN_BATCHES: usize = 9;
/// A driver stops adding batches once it has run this long, or has this many.
const DRIVER_BUDGET: Duration = Duration::from_millis(40);
const MAX_BATCHES: usize = 200;
/// Repeats of the drivers whose one call takes milliseconds.
const SLOW_REPEATS: usize = 3;
/// Payload of a descriptor-sized channel message.
const SMALL: usize = 64;
/// TCP payload of one MTU-4000 segment (MTU less IPv4 and TCP headers).
const MTU4000_PAYLOAD: usize = 4000 - 40;
/// Ports of the switch the forwarding drivers use (Fig. 7's 21 hosts + 1).
const SWITCH_PORTS: usize = 22;

/// Runs the drivers and collects their metrics.
pub struct Drivers<'a> {
    tr: &'a mut Tracer,
    seed: u64,
    tmp: std::path::PathBuf,
    /// `(metric name, value)` in the order the drivers ran.
    pub out: Vec<(&'static str, f64)>,
}

struct Idle;
impl Model for Idle {
    fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
}

/// xorshift64*: payload bytes and event times derived from `--seed`.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

impl<'a> Drivers<'a> {
    /// `tmp` is a directory inside the benchmark's checkout for region files.
    pub fn new(tr: &'a mut Tracer, seed: u64, tmp: &std::path::Path) -> Self {
        assert!(
            tr.enabled(),
            "layer drivers time their batches through spans"
        );
        Drivers {
            tr,
            seed,
            tmp: tmp.to_path_buf(),
            out: Vec::new(),
        }
    }

    fn rng(&self, salt: u64) -> Rng {
        Rng(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt | 1)
    }

    /// Time batches of `batch`, which returns how many calls it made; the
    /// result is the median nanoseconds per call. One batch runs untimed
    /// first so pools and caches are warm.
    fn measure(&mut self, span: &str, mut batch: impl FnMut() -> usize) -> f64 {
        batch();
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < MIN_BATCHES
            || (start.elapsed() < DRIVER_BUDGET && samples.len() < MAX_BATCHES)
        {
            let calls = self.tr.span(span, |_| batch());
            let ns = self.tr.last_duration_ns(span).unwrap_or(0);
            samples.push(ns as f64 / calls.max(1) as f64);
        }
        median(&samples)
    }

    /// `measure` for a driver whose batch is `BATCH` calls of `call`.
    fn per_call(&mut self, span: &str, mut call: impl FnMut()) -> f64 {
        self.measure(span, || {
            for _ in 0..BATCH {
                call();
            }
            BATCH
        })
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Run every driver.
    pub fn run_all(&mut self) -> Result<(), String> {
        self.channel();
        self.sync();
        self.kernel();
        self.event();
        self.pktbuf();
        self.log_and_snap();
        self.proto();
        self.netstack();
        self.switch();
        self.pcie();
        self.shm()?;
        self.transports()?;
        self.scenario()?;
        self.checkpoint()?;
        self.dist()?;
        Ok(())
    }

    // -- base::{slot, spsc, channel} ---------------------------------------

    fn channel(&mut self) {
        for (name, len) in [
            ("base.channel.send_recv_ns.64", SMALL),
            ("base.channel.send_recv_ns.4000", 4000),
        ] {
            let (mut tx, mut rx) = channel_pair(ChannelParams::default_sync().with_queue_len(64));
            rx.set_pool(BufPool::new());
            let payload = self.rng(len as u64).bytes(len);
            let mut ts = 0u64;
            // Ring-sized bursts: 32 sends, then 32 receives (pooled buffer
            // out, dropped back to the freelist).
            let v = self.measure(name, || {
                for _ in 0..BATCH / 32 {
                    for _ in 0..32 {
                        ts += 1;
                        tx.send_raw(SimTime::from_ps(ts), 5, &payload)
                            .expect("ring holds a full burst");
                    }
                    for _ in 0..32 {
                        black_box(rx.recv_raw().expect("every message sent is there"));
                    }
                }
                BATCH
            });
            self.put(name, v);
        }
    }

    // -- base::sync ----------------------------------------------------------

    fn sync(&mut self) {
        let params = ChannelParams::default_sync();
        let lat = params.latency;
        let pair = || {
            let (a, b) = channel_pair(params);
            (SyncPort::new(a), SyncPort::new(b))
        };

        let (mut a, mut b) = pair();
        let payload = self.rng(1).bytes(SMALL);
        let mut now = SimTime::ZERO;
        let v = self.per_call("base.sync.data_send_poll_ns", || {
            now += SimTime::from_ns(1);
            a.send_data(now, 5, &payload);
            b.poll();
            black_box(b.pop_due(SimTime::MAX));
        });
        self.put("base.sync.data_send_poll_ns", v);

        // One SYNC each way per call, always due: the clock moves a whole
        // link latency (the widest the adaptive interval gets) per call.
        let (mut a, mut b) = pair();
        let mut now = SimTime::ZERO;
        let v = self.per_call("base.sync.sync_roundtrip_ns", || {
            now += lat;
            a.maybe_send_sync(now);
            b.poll();
            b.maybe_send_sync(now);
            a.poll();
        });
        self.put("base.sync.sync_roundtrip_ns", v);

        // The hierarchical path: promises widened two latencies past the flat
        // floor, so each one raises the peer's horizon and reaches the wire.
        let (mut a, mut b) = pair();
        a.set_hier(true);
        b.set_hier(true);
        let mut now = SimTime::ZERO;
        let v = self.per_call("base.sync.sync_roundtrip_hier_ns", || {
            now += lat + lat + lat;
            let ts = now + lat + lat + lat;
            black_box(a.send_promise(now, ts, false));
            b.poll();
            black_box(b.send_promise(now, ts, false));
            a.poll();
        });
        self.put("base.sync.sync_roundtrip_hier_ns", v);
    }

    // -- base::kernel --------------------------------------------------------

    fn kernel(&mut self) {
        // Two kernels joined by two synchronised channels, a model that does
        // nothing, no data: every clock advance is pure SYNC bookkeeping,
        // stepped the way the sequential executor steps (512 per call).
        let idle_pair = || {
            let mut ka = Kernel::new("a", SimTime::MAX);
            let mut kb = Kernel::new("b", SimTime::MAX);
            for _ in 0..2 {
                let (ca, cb) = channel_pair(ChannelParams::default_sync());
                ka.add_port(ca);
                kb.add_port(cb);
            }
            (ka, kb)
        };
        let (mut ka, mut kb) = idle_pair();
        let v = self.measure("base.kernel.step_idle_ns", || {
            let before = ka.stats().advances + kb.stats().advances;
            loop {
                ka.step(&mut Idle, 512);
                kb.step(&mut Idle, 512);
                let done = ka.stats().advances + kb.stats().advances - before;
                if done >= BATCH as u64 {
                    return done as usize;
                }
            }
        });
        self.put("base.kernel.step_idle_ns", v);

        // A kernel whose peer never moves: every step finds nothing to do.
        let (mut ka, mut kb) = idle_pair();
        kb.step(&mut Idle, 1);
        while !matches!(ka.step(&mut Idle, 512), StepOutcome::Blocked(_)) {}
        let v = self.per_call("base.kernel.step_blocked_ns", || {
            black_box(ka.step(&mut Idle, 512));
        });
        self.put("base.kernel.step_blocked_ns", v);
    }

    // -- base::event ---------------------------------------------------------

    fn event(&mut self) {
        // Hold model: pop the earliest event, schedule one a pseudo-random
        // 0–1 ms later, at a steady population of 1 Ki and of 64 Ki events.
        for (name, fill) in [
            ("base.event.schedule_pop_ns.1k", 1usize << 10),
            ("base.event.schedule_pop_ns.64k", 1 << 16),
        ] {
            let mut rng = self.rng(fill as u64);
            let mut q = EventQueue::new();
            for i in 0..fill {
                q.schedule(SimTime::from_ps(rng.next() % 1_000_000_000), i as u64);
            }
            let v = self.per_call(name, || {
                let (t, x) = q.pop_due(SimTime::MAX).expect("population is steady");
                q.schedule(t + SimTime::from_ps(rng.next() % 1_000_000_000), x);
            });
            self.put(name, v);
        }

        // A TCP retransmit timer that is armed and disarmed without firing.
        let mut rng = self.rng(7);
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.schedule(SimTime::from_ps(rng.next() % 1_000_000_000), i);
        }
        let v = self.per_call("base.event.cancel_ns", || {
            let id = q.schedule(SimTime::from_ps(rng.next() % 1_000_000_000), 0);
            black_box(q.cancel(id));
        });
        self.put("base.event.cancel_ns", v);
    }

    // -- base::pktbuf --------------------------------------------------------

    fn pktbuf(&mut self) {
        let pool = BufPool::new();
        let payload = self.rng(2).bytes(UDP_PAYLOAD);
        let v = self.per_call("base.pktbuf.alloc_copy_ns", || {
            black_box(pool.copy_from_slice(&payload));
        });
        self.put("base.pktbuf.alloc_copy_ns", v);

        let shared = pool.copy_from_slice(&payload);
        let v = self.per_call("base.pktbuf.clone_ns", || {
            black_box(shared.clone());
        });
        self.put("base.pktbuf.clone_ns", v);

        // Writing through a shared view copies it first (a switch marking CE
        // on a frame it also flooded).
        let v = self.per_call("base.pktbuf.cow_make_mut_ns", || {
            let mut view = shared.clone();
            view.make_mut()[0] ^= 1;
            black_box(view);
        });
        self.put("base.pktbuf.cow_make_mut_ns", v);
        self.put("base.pktbuf.pool_hit_rate", pool.stats().hit_rate());
    }

    // -- base::{log, snap} ---------------------------------------------------

    fn log_and_snap(&mut self) {
        let mut t = 0u64;
        let mut log = EventLog::enabled();
        let v = self.per_call("base.log.record_ns", || {
            t += 1000;
            log.record(SimTime::from_ps(t), "sw_rx", t, 64);
        });
        self.put("base.log.record_ns", v);

        let mut t = 0u64;
        let mut log = EventLog::fingerprint_only(SimTime::from_ms(1));
        let v = self.per_call("base.log.record_fp_only_ns", || {
            t += 1000;
            log.record(SimTime::from_ps(t), "sw_rx", t, 64);
        });
        self.put("base.log.record_fp_only_ns", v);

        // Merging eight component logs of 4 Ki interleaved entries each.
        let logs: Vec<EventLog> = (0..8u64)
            .map(|c| {
                let mut l = EventLog::enabled();
                for i in 0..4096u64 {
                    l.record(SimTime::from_ps(i * 8000 + c * 1000), "sw_tx", c, i);
                }
                l
            })
            .collect();
        let refs: Vec<&EventLog> = logs.iter().collect();
        let v = self.measure("base.log.merge_ns_per_entry", || {
            black_box(EventLog::merge(&refs)).len()
        });
        self.put("base.log.merge_ns_per_entry", v);

        // Snapshot encoding of 256 records of two words and one 1500 B blob;
        // a call is one byte written, so MB/s is 1000 over ns per byte.
        let blob = self.rng(3).bytes(1500);
        let ns_per_byte = self.measure("base.snap.write_mb_per_s", || {
            let mut w = SnapWriter::new();
            for i in 0..256u64 {
                w.u64(i);
                w.time(SimTime::from_ps(i));
                w.bytes(&blob);
            }
            black_box(w.into_vec()).len()
        });
        self.put("base.snap.write_mb_per_s", 1000.0 / ns_per_byte);
    }

    // -- proto ---------------------------------------------------------------

    fn proto(&mut self) {
        let buf = self.rng(4).bytes(4096);
        let v = self.per_call("proto.checksum_ns_per_kb", || {
            black_box(checksum(black_box(&buf)));
        });
        self.put("proto.checksum_ns_per_kb", v / 4.0);

        let pool = BufPool::new();
        let (mac_a, mac_b) = (MacAddr::from_index(1), MacAddr::from_index(2));
        let (ip_a, ip_b) = (Ipv4Addr::from_index(1), Ipv4Addr::from_index(2));
        let hdr = TcpHeader {
            src_port: 40000,
            dst_port: 5000,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 65535,
            mss: None,
            wscale: None,
        };
        let segment = self.rng(5).bytes(MTU4000_PAYLOAD);
        let v = self.per_call("proto.frame.tcp_pooled_ns", || {
            black_box(FrameBuilder::tcp_pooled(
                &pool,
                mac_a,
                mac_b,
                ip_a,
                ip_b,
                Ecn::Ect0,
                &hdr,
                &segment,
            ));
        });
        self.put("proto.frame.tcp_pooled_ns", v);

        let datagram = self.rng(6).bytes(UDP_PAYLOAD);
        let v = self.per_call("proto.frame.udp_pooled_ns", || {
            black_box(FrameBuilder::udp_pooled(
                &pool,
                mac_a,
                mac_b,
                ip_a,
                ip_b,
                Ecn::NotEct,
                40000,
                9000,
                &datagram,
            ));
        });
        self.put("proto.frame.udp_pooled_ns", v);

        let frame =
            FrameBuilder::tcp_pooled(&pool, mac_a, mac_b, ip_a, ip_b, Ecn::Ect0, &hdr, &segment);
        let v = self.per_call("proto.frame.parse_ns", || {
            black_box(ParsedFrame::parse(black_box(&frame)).expect("a frame we built"));
        });
        self.put("proto.frame.parse_ns", v);
    }

    // -- netstack ------------------------------------------------------------

    fn netstack(&mut self) {
        let stack = |idx: u32, peer: u32| {
            let mut s = NetStack::new(StackConfig {
                ip: Ipv4Addr::from_index(idx),
                mac: MacAddr::from_index(idx as u64),
                mtu: 4000,
                congestion: CongestionControl::Dctcp,
                ..StackConfig::default()
            });
            s.add_arp_entry(Ipv4Addr::from_index(peer), MacAddr::from_index(peer as u64));
            s
        };
        // Carry every queued frame of `from` to `to`; returns frames moved.
        fn carry(now: SimTime, from: &mut NetStack, to: &mut NetStack) -> usize {
            let mut n = 0;
            while let Some(f) = from.poll_transmit() {
                to.handle_frame(now, &f);
                n += 1;
            }
            n
        }
        // Two stacks back to back with a connection set up between them.
        let connected = |now: &mut SimTime| {
            let (mut c, mut s) = (stack(1, 2), stack(2, 1));
            s.tcp_listen(5000).expect("port is free");
            let cs = c.tcp_connect(*now, s.ip(), 5000);
            let mut ss = None;
            while ss.is_none() {
                *now += SimTime::from_us(1);
                carry(*now, &mut c, &mut s);
                carry(*now, &mut s, &mut c);
                for ev in s.poll_events() {
                    if let SocketEvent::Accepted { socket, .. } = ev {
                        ss = Some(socket);
                    }
                }
            }
            c.poll_events();
            (c, s, cs, ss.expect("loop ends once accepted"))
        };

        // Bulk: the sender keeps its buffer full, every data segment crosses
        // to the receiver, which reads it and returns ACKs. A call is one
        // MTU-4000 data segment delivered.
        let mut now = SimTime::ZERO;
        let (mut c, mut s, cs, ss) = connected(&mut now);
        let chunk = self.rng(8).bytes(64 * 1024);
        let v = self.measure("netstack.tcp.bulk_ns_per_segment", || {
            let mut segments = 0;
            while segments < BATCH {
                now += SimTime::from_us(4);
                c.tcp_send(cs, &chunk);
                segments += carry(now, &mut c, &mut s);
                black_box(s.tcp_recv(ss, usize::MAX));
                for st in [&mut c, &mut s] {
                    if st.poll_timeout().is_some_and(|t| t <= now) {
                        st.on_timer(now);
                    }
                }
                carry(now, &mut s, &mut c);
                c.poll_events();
                s.poll_events();
            }
            segments
        });
        self.put("netstack.tcp.bulk_ns_per_segment", v);

        // RPC: a 64 B request and a 64 B reply over one connection. A call
        // is one exchange (send, deliver, read, reply, deliver, read).
        let mut now = SimTime::ZERO;
        let (mut c, mut s, cs, ss) = connected(&mut now);
        let req = self.rng(9).bytes(SMALL);
        let v = self.per_call("netstack.tcp.rpc_ns_per_exchange", || {
            now += SimTime::from_us(10);
            c.tcp_send(cs, &req);
            carry(now, &mut c, &mut s);
            black_box(s.tcp_recv(ss, usize::MAX));
            s.tcp_send(ss, &req);
            carry(now, &mut s, &mut c);
            black_box(c.tcp_recv(cs, usize::MAX));
            carry(now, &mut c, &mut s);
            c.poll_events();
            s.poll_events();
        });
        self.put("netstack.tcp.rpc_ns_per_exchange", v);

        // UDP in and out of one stack with an 800 B datagram.
        let mut host = stack(1, 2);
        let sock = host.udp_bind(9000).expect("port is free");
        let datagram = self.rng(10).bytes(UDP_PAYLOAD);
        let frame = FrameBuilder::udp_pooled(
            &BufPool::new(),
            MacAddr::from_index(2),
            host.mac(),
            Ipv4Addr::from_index(2),
            host.ip(),
            Ecn::NotEct,
            40000,
            9000,
            &datagram,
        );
        let now = SimTime::from_us(1);
        let v = self.per_call("netstack.stack.handle_frame_udp_ns", || {
            host.handle_frame(now, &frame);
            black_box(host.udp_recv_from(sock));
            host.poll_events();
        });
        self.put("netstack.stack.handle_frame_udp_ns", v);

        let to = SocketAddr::new(Ipv4Addr::from_index(2), 9000);
        let v = self.per_call("netstack.stack.udp_send_ns", || {
            host.udp_send_to(now, sock, to, &datagram);
            black_box(host.poll_transmit());
        });
        self.put("netstack.stack.udp_send_ns", v);
    }

    // -- netsim --------------------------------------------------------------

    fn switch(&mut self) {
        let pool = BufPool::new();
        let frame_between = |src: u64, dst: MacAddr, ecn: Ecn, payload: &[u8]| {
            let hdr = TcpHeader {
                src_port: 40000,
                dst_port: 5000,
                seq: 1,
                ack: 1,
                flags: TcpFlags::ACK,
                window: 65535,
                mss: None,
                wscale: None,
            };
            FrameBuilder::tcp_pooled(
                &pool,
                MacAddr::from_index(src),
                dst,
                Ipv4Addr::from_index(src as u32),
                Ipv4Addr::from_index(99),
                ecn,
                &hdr,
                payload,
            )
        };
        let datagram = self.rng(11).bytes(UDP_PAYLOAD);
        let segment = self.rng(12).bytes(MTU4000_PAYLOAD);

        // Learned unicast between two of 22 ports, both directions so neither
        // MAC entry ages out; frames spaced at the 10 G line rate, so the
        // egress queue stays short. A call is one frame in, queued, departed.
        let mut rig = SwitchRig::new(SwitchConfig {
            ports: SWITCH_PORTS,
            ..SwitchConfig::default()
        });
        let fwd = [
            frame_between(1, MacAddr::from_index(2), Ecn::NotEct, &datagram),
            frame_between(2, MacAddr::from_index(1), Ecn::NotEct, &datagram),
        ];
        let v = self.measure("netsim.switch.forward_ns", || {
            rig.batch(BATCH, SimTime::from_ns(800), |i| {
                (i % 2, fwd[i % 2].clone())
            })
        });
        self.put("netsim.switch.forward_ns", v);

        // Broadcast from one port to the 21 others, spaced so that every
        // egress port drains between floods.
        let mut rig = SwitchRig::new(SwitchConfig {
            ports: SWITCH_PORTS,
            ..SwitchConfig::default()
        });
        let bcast = frame_between(1, MacAddr::BROADCAST, Ecn::NotEct, &datagram[..SMALL]);
        let v = self.measure("netsim.switch.flood_ns", || {
            rig.batch(BATCH / 8, SimTime::from_ns(800), |_| (0, bcast.clone()))
        });
        self.put("netsim.switch.flood_ns", v);

        // DCTCP marking at K = 1: ECT segments from two ports converge on a
        // third faster than it drains, so nearly every one is CE-marked (a
        // copy-on-write of the shared frame plus a checksum fix-up).
        let mut rig = SwitchRig::new(SwitchConfig {
            ports: SWITCH_PORTS,
            aqm: Some(Aqm::DctcpThreshold { k_pkts: 1 }),
            queue_capacity: 64 << 20,
            ..SwitchConfig::default()
        });
        let learn = frame_between(3, MacAddr::BROADCAST, Ecn::NotEct, &datagram[..SMALL]);
        rig.batch(1, SimTime::from_us(10), |_| (2, learn.clone()));
        let ect = [
            frame_between(1, MacAddr::from_index(3), Ecn::Ect0, &segment),
            frame_between(2, MacAddr::from_index(3), Ecn::Ect0, &segment),
        ];
        let v = self.measure("netsim.switch.ecn_mark_ns", || {
            rig.batch(BATCH / 4, SimTime::from_ns(2000), |i| {
                (i % 2, ect[i % 2].clone())
            })
        });
        assert!(
            rig.sw.stats().ecn_marked * 2 > rig.sw.stats().forwarded,
            "the marking driver must mark most frames"
        );
        self.put("netsim.switch.ecn_mark_ns", v);
    }

    // -- pcie ----------------------------------------------------------------

    fn pcie(&mut self) {
        let pool = BufPool::new();
        let data = self.rng(13).bytes(MTU4000_PAYLOAD + 54);
        let mut id = 0u64;
        // A NIC delivering a received MTU-4000 frame: DMA write encoded into
        // a pooled buffer, decoded by the host (zero-copy view), completion
        // encoded and decoded on the way back.
        let v = self.per_call("pcie.dma_write_encode_decode_ns", || {
            id += 1;
            let (ty, buf) = DevToHost::encode_dma_write_pooled(&pool, id, 0x10_0000, &data);
            black_box(DevToHost::decode_buf(ty, &buf).expect("a message we encoded"));
            let (ty, buf) = HostToDev::encode_dma_complete_pooled(&pool, id, &[]);
            black_box(HostToDev::decode_buf(ty, &buf).expect("a message we encoded"));
        });
        self.put("pcie.dma_write_encode_decode_ns", v);
    }

    // -- runner::shm ---------------------------------------------------------

    fn shm(&mut self) -> Result<(), String> {
        let params = ChannelParams::default_sync().with_queue_len(64);
        let shutdown = ShutdownSignal::default();
        let deadline = || Instant::now() + Duration::from_secs(5);
        let io = |e: std::io::Error| format!("shm region: {e}");

        // Mapping a region pair: create on one side, attach on the other.
        let tmp = self.tmp.clone();
        let mut n = 0;
        let ns = self.measure("runner.shm.attach_ms", || {
            for _ in 0..16 {
                n += 1;
                let path = tmp.join(format!("attach-{n}.shm"));
                let a = create_region(&path, "attach", params).expect("create region");
                let b = attach_region(&path, "attach", params, deadline(), &shutdown)
                    .expect("attach region");
                drop((a, b));
                let _ = std::fs::remove_file(&path);
            }
            16
        });
        self.put("runner.shm.attach_ms", ns / 1e6);

        let path = self.tmp.join("push-pop.shm");
        let mut a = create_region(&path, "push-pop", params).map_err(io)?;
        let mut b = attach_region(&path, "push-pop", params, deadline(), &shutdown).map_err(io)?;
        let msg = OwnedMsg::new(SimTime::from_ns(1), 5, self.rng(14).bytes(SMALL));
        let v = self.measure("runner.shm.push_pop_ns", || {
            for _ in 0..BATCH / 32 {
                for _ in 0..32 {
                    a.push(&msg).expect("ring holds a full burst");
                }
                for _ in 0..32 {
                    black_box(b.pop().expect("every message pushed is there"));
                }
            }
            BATCH
        });
        drop((a, b));
        let _ = std::fs::remove_file(&path);
        self.put("runner.shm.push_pop_ns", v);
        Ok(())
    }

    // -- runner::{proxy, transport} ------------------------------------------

    fn transports(&mut self) -> Result<(), String> {
        // The bare TCP medium: four 32 B messages serialised, written, read
        // and parsed per loopback round, on one thread.
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let mut tx = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (mut rx, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        tx.set_nodelay(true).ok();
        let wire = OwnedMsg::new(SimTime::from_ns(1), 5, self.rng(15).bytes(32)).to_wire();
        let round: Vec<u8> = wire.iter().copied().cycle().take(wire.len() * 4).collect();
        let mut buf = vec![0u8; round.len()];
        let v = self.measure("runner.tcp.msg_ns", || {
            for _ in 0..BATCH / 4 {
                tx.write_all(&round).expect("loopback write");
                rx.read_exact(&mut buf).expect("loopback read");
                let mut at = 0;
                while let Some((m, used)) = OwnedMsg::from_wire(&buf[at..]) {
                    black_box(m);
                    at += used;
                }
            }
            BATCH
        });
        self.put("runner.tcp.msg_ns", v);

        // The whole proxied path in one process: channel → forwarder thread
        // → medium → forwarder thread → channel, 64 B messages, at most 32
        // in flight. Three threads share the machine's cores, as the two
        // forwarders and the simulator of a dist partition do.
        let payload = self.rng(16).bytes(SMALL);
        for (name, kind) in [
            ("runner.proxy.shm.msg_ns", ProxyKind::Shm),
            ("runner.proxy.tcp.msg_ns", ProxyKind::Tcp),
        ] {
            let (mut a, mut b, handle) = proxy_pair(kind, ChannelParams::default_sync())
                .map_err(|e| format!("proxy pair: {e}"))?;
            let mut ts = 0u64;
            let v = self.measure(name, || {
                let (mut sent, mut got) = (0, 0);
                while got < BATCH {
                    while sent < BATCH && sent - got < 32 {
                        ts += 1;
                        if a.send_raw(SimTime::from_ps(ts), 5, &payload).is_err() {
                            ts -= 1;
                            break;
                        }
                        sent += 1;
                    }
                    let before = got;
                    while b.recv_raw().is_some() {
                        got += 1;
                    }
                    if got == before {
                        std::thread::yield_now();
                    }
                }
                BATCH
            });
            self.put(name, v);
            drop((a, b));
            let stats = handle.join();
            if kind == ProxyKind::Shm {
                self.put("runner.proxy.mean_batch", stats.mean_batch());
                self.put(
                    "runner.proxy.wire_bytes_per_msg",
                    stats.bytes as f64 / stats.forwarded.max(1) as f64,
                );
            }
        }
        Ok(())
    }

    // -- scenario ------------------------------------------------------------

    fn scenario(&mut self) -> Result<(), String> {
        let ft = workloads::find("fattree128_hier").expect("workload table has it");
        let text = ft.toml(self.seed, ft.virtual_us, false);
        let spec = Scenario::from_toml_str(&text).map_err(|e| format!("fat-tree document: {e}"))?;
        let ns = self.measure("scenario.parse_ms", || {
            black_box(Scenario::from_toml_str(black_box(&text)).expect("parsed once already"));
            1
        });
        self.put("scenario.parse_ms", ns / 1e6);
        // Lowering builds every kernel and channel; freeing them again is not
        // part of it, so the experiment is dropped outside the span. The
        // first build, which also pays for the process's first touch of a
        // gigabyte of ring memory, is not timed.
        let build = || {
            let mut pb = PartitionBuilder::new_local();
            lower(&spec, &mut pb);
            pb.into_experiment()
        };
        drop(build());
        let mut lower_ns = Vec::new();
        for _ in 0..SLOW_REPEATS {
            let exp = self.tr.span("scenario.lower_ms", |_| build());
            lower_ns.push(self.tr.last_duration_ns("scenario.lower_ms").unwrap_or(0) as f64);
            drop(exp);
        }
        let ns = median(&lower_ns);
        self.put("scenario.lower_ms", ns / 1e6);
        Ok(())
    }

    // -- runner::checkpoint --------------------------------------------------

    fn checkpoint(&mut self) -> Result<(), String> {
        let racks = workloads::find("racks_inproc").expect("workload table has it");
        let text = racks.toml(self.seed, racks.virtual_us, false);
        let spec = Scenario::from_toml_str(&text).map_err(|e| format!("racks document: {e}"))?;
        let build = || {
            let mut pb = PartitionBuilder::new_local();
            lower(&spec, &mut pb);
            pb.into_experiment()
        };
        let at = SimTime::from_us(racks.virtual_us / 2);
        let (mut freeze, mut restore, mut blob_kb) = (Vec::new(), Vec::new(), 0.0);
        for _ in 0..SLOW_REPEATS {
            let mut exp = build();
            let blob = self
                .tr
                .span("runner.checkpoint.freeze", |_| exp.freeze_at(at))
                .map_err(|e| format!("freeze: {e}"))?;
            freeze.push(
                self.tr
                    .last_duration_ns("runner.checkpoint.freeze")
                    .unwrap_or(0) as f64,
            );
            blob_kb = blob.len() as f64 / 1024.0;
            let mut exp = build();
            self.tr
                .span("runner.checkpoint.restore", |_| {
                    exp.restore_from_blob(&blob)
                })
                .map_err(|e| format!("restore: {e}"))?;
            restore.push(
                self.tr
                    .last_duration_ns("runner.checkpoint.restore")
                    .unwrap_or(0) as f64,
            );
        }
        self.put("runner.checkpoint.freeze_ms", median(&freeze) / 1e6);
        self.put("runner.checkpoint.restore_ms", median(&restore) / 1e6);
        self.put("runner.checkpoint.blob_kb", blob_kb);
        Ok(())
    }

    // -- runner::dist --------------------------------------------------------

    fn dist(&mut self) -> Result<(), String> {
        let racks: &Workload = workloads::find("racks_dist_shm").expect("workload table has it");
        let text = racks.toml(self.seed, workloads::SMOKE_VIRTUAL_US, false);
        let (mut spawn, mut teardown) = (Vec::new(), Vec::new());
        for _ in 0..SLOW_REPEATS {
            let out = self.tr.span("runner.dist.orchestrate", |tr| {
                simrun::run_dist(&text, racks.partitions(), TransportKind::Shm, tr)
            })?;
            let (s, t) = out
                .dist_phases_ms
                .ok_or("dist workers left no time stamps")?;
            spawn.push(s);
            teardown.push(t);
        }
        self.put("runner.dist.spawn_handshake_ms", median(&spawn));
        self.put("runner.dist.teardown_ms", median(&teardown));
        Ok(())
    }
}

/// A `SwitchBm` stepped by a kernel whose ports end in raw channel ends the
/// driver holds: frames go in with explicit timestamps, promises keep every
/// port's horizon ahead, and whatever the switch sends is drained.
struct SwitchRig {
    k: Kernel,
    sw: SwitchBm,
    peers: Vec<ChannelEnd>,
    now: SimTime,
}

impl SwitchRig {
    fn new(cfg: SwitchConfig) -> Self {
        // A long latency keeps the kernel's own SYNC traffic (one per port
        // per latency) out of the per-frame cost.
        let params = ChannelParams::default_sync()
            .with_latency(SimTime::from_ms(1))
            .with_sync_interval(SimTime::from_ms(1))
            .with_queue_len(256);
        let mut k = Kernel::new("switch", SimTime::MAX);
        let mut peers = Vec::new();
        for _ in 0..cfg.ports {
            let (mine, theirs) = channel_pair(params);
            k.add_port(mine);
            peers.push(theirs);
        }
        SwitchRig {
            k,
            sw: SwitchBm::new(cfg),
            peers,
            now: SimTime::from_ms(1),
        }
    }

    /// Feed `n` frames `gap` apart — `frame(i)` gives the ingress port and
    /// the frame — then let the switch run until all have departed.
    fn batch(
        &mut self,
        n: usize,
        gap: SimTime,
        mut frame: impl FnMut(usize) -> (usize, simbricks::base::PktBuf),
    ) -> usize {
        for start in (0..n).step_by(64) {
            for i in start..(start + 64).min(n) {
                self.now += gap;
                let (port, f) = frame(i);
                self.peers[port]
                    .send_raw(self.now, MSG_ETH_PACKET, &f)
                    .expect("ring holds a burst of 64");
            }
            // Promise on every port that nothing earlier than the burst's
            // end plus a drain margin will arrive, then run up to there.
            let horizon = self.now + SimTime::from_us(400);
            for p in &mut self.peers {
                p.send_raw(horizon, MSG_SYNC, &[])
                    .expect("ring has room for a SYNC");
            }
            while matches!(self.k.step(&mut self.sw, 512), StepOutcome::Progressed) {
                self.drain();
            }
            self.drain();
            self.now = horizon;
        }
        n
    }

    fn drain(&mut self) {
        for p in &mut self.peers {
            while let Some(m) = p.recv_raw() {
                black_box(m);
            }
        }
    }
}
