//! Discrete-event network simulator (the ns-3 / OMNeT++ stand-in).
//!
//! A [`DesNetwork`] is one SimBricks component that internally simulates an
//! arbitrary topology of switches, links and (optionally) end hosts:
//!
//! * **Internal switches** do MAC learning and forwarding.
//! * **Links** model bandwidth, propagation delay, and a queue discipline —
//!   drop-tail or a DCTCP-style ECN marking threshold K (the quantity swept
//!   in Fig. 1).
//! * **Internal endpoints** run the full [`simbricks_netstack`] TCP/UDP stack
//!   and an [`EndpointApp`] directly inside the network simulator. This is
//!   how network-only ("ns-3 alone") baselines are built: protocol behaviour
//!   is simulated but there is *no host, NIC, driver or OS model*, which is
//!   exactly the shortcoming the paper's Fig. 1 measures.
//! * **External ports** attach the internal topology to other SimBricks
//!   components (NIC simulators, other network simulators) through the
//!   Ethernet interface; this is the SimBricks adapter role ns-3 plays in the
//!   paper's end-to-end configurations, and also what lets a network be
//!   decomposed into several cooperating network simulators (§7.3.2).

use std::collections::{BTreeMap, VecDeque};

use simbricks_base::{Kernel, Model, OwnedMsg, PktBuf, PortId, Rng, SimTime};
use simbricks_eth::{send_packet, serialization_delay, EthPacket};
use simbricks_netstack::{NetStack, SocketEvent, StackConfig};
use simbricks_proto::{frame_dst, frame_src, Ecn, Ipv4Header, MacAddr, ETH_HEADER_LEN};

/// Identifier of a node inside a [`DesNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Queueing discipline of a link direction.
#[derive(Clone, Copy, Debug)]
pub enum QueueDiscipline {
    /// Plain FIFO with a byte capacity.
    DropTail { capacity_bytes: usize },
    /// FIFO that marks ECN-capable packets CE once the queue holds at least
    /// `threshold_pkts` packets (DCTCP-style step marking).
    EcnThreshold {
        threshold_pkts: usize,
        capacity_bytes: usize,
    },
    /// Random Early Detection: below `min_pkts` nothing happens; between
    /// `min_pkts` and `max_pkts` packets are marked (ECN-capable traffic) or
    /// dropped with a probability growing linearly up to `max_prob_percent`;
    /// at or above `max_pkts` every packet is marked/dropped. The decision
    /// uses a per-link deterministic generator so simulations stay
    /// reproducible (§7.6). This is the classic AQM of the ns-3/OMNeT++
    /// comparisons.
    Red {
        min_pkts: usize,
        max_pkts: usize,
        max_prob_percent: u8,
        capacity_bytes: usize,
    },
    /// CoDel: drop (or CE-mark, for ECN-capable traffic) at dequeue when the
    /// head packet's sojourn time stays above `target` for `interval`, then
    /// repeatedly at `interval / sqrt(n)` (the standard control law).
    CoDel {
        target: SimTime,
        interval: SimTime,
        capacity_bytes: usize,
    },
    /// DualPI2 (L4S): a PI controller yields a base probability `p'`;
    /// ECT(1) traffic is CE-marked at `2·p'`, classic traffic is marked
    /// (ECT(0)) or dropped (Not-ECT) at the squared-coupled `p'²`.
    DualPi2 {
        target: SimTime,
        tupdate: SimTime,
        capacity_bytes: usize,
    },
}

impl QueueDiscipline {
    fn capacity(&self) -> usize {
        match self {
            QueueDiscipline::DropTail { capacity_bytes } => *capacity_bytes,
            QueueDiscipline::EcnThreshold { capacity_bytes, .. } => *capacity_bytes,
            QueueDiscipline::Red { capacity_bytes, .. } => *capacity_bytes,
            QueueDiscipline::CoDel { capacity_bytes, .. } => *capacity_bytes,
            QueueDiscipline::DualPi2 { capacity_bytes, .. } => *capacity_bytes,
        }
    }
    fn threshold(&self) -> Option<usize> {
        match self {
            QueueDiscipline::EcnThreshold { threshold_pkts, .. } => Some(*threshold_pkts),
            _ => None,
        }
    }
}

/// Parameters of one link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Link rate in bits per second; 0 means an ideal link with no
    /// serialization delay (used e.g. for the receiver-side attachment when a
    /// topology is split across two network simulators, §7.5).
    pub bandwidth_bps: u64,
    pub delay: SimTime,
    pub queue: QueueDiscipline,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            bandwidth_bps: simbricks_base::bw::B10G,
            delay: SimTime::from_us(1),
            queue: QueueDiscipline::DropTail {
                capacity_bytes: 512 * 1024,
            },
        }
    }
}

/// Context handed to an [`EndpointApp`] callback.
pub struct EndpointCtx<'a> {
    pub now: SimTime,
    pub stack: &'a mut NetStack,
    /// Absolute-time timer requests (time, app-defined token < 2^24).
    pub timers: &'a mut Vec<(SimTime, u64)>,
    /// Set to true when the application has finished its workload.
    pub done: &'a mut bool,
}

/// An application running on an internal endpoint of the network simulator
/// (used by network-only baselines such as the "ns-3 alone" dctcp run).
pub trait EndpointApp: Send {
    fn start(&mut self, ctx: &mut EndpointCtx);
    fn on_event(&mut self, ctx: &mut EndpointCtx, ev: SocketEvent);
    fn on_timer(&mut self, ctx: &mut EndpointCtx, token: u64);
    /// One-line result summary for experiment reports.
    fn report(&self) -> String {
        String::new()
    }
}

#[allow(clippy::large_enum_variant)]
enum NodeKind {
    Switch {
        mac_table: BTreeMap<MacAddr, usize>,
    },
    Endpoint {
        stack: NetStack,
        app: Box<dyn EndpointApp>,
        done: bool,
    },
    /// A SimBricks Ethernet port of the enclosing kernel.
    External {
        kernel_port: usize,
    },
}

struct Node {
    kind: NodeKind,
    /// Attached link endpoints: (link index, side) where side 0 = `a`.
    ports: Vec<(usize, u8)>,
}

struct LinkDir {
    /// Queued frames with enqueue time (for sojourn-based disciplines).
    queue: VecDeque<(SimTime, PktBuf)>,
    queued_bytes: usize,
    busy_until: SimTime,
    departing: bool,
    /// Deterministic per-direction generator for RED/DualPI2 decisions.
    red_rng: Rng,
    /// CoDel: when sojourn first exceeded target (ZERO = not above).
    first_above: SimTime,
    /// CoDel: next scheduled drop while in the dropping state.
    drop_next: SimTime,
    /// CoDel: drops in the current episode (control-law divisor).
    drop_count: u64,
    /// CoDel: currently in the dropping state.
    dropping: bool,
    /// DualPI2: base probability p' in parts per million.
    pi_prob_ppm: u64,
    /// DualPI2: virtual time of the last controller update.
    pi_last_update: SimTime,
    /// DualPI2: queue delay at the last update (derivative term).
    pi_prev_qdelay: SimTime,
}

impl LinkDir {
    fn new(seed: u64) -> Self {
        LinkDir {
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy_until: SimTime::ZERO,
            departing: false,
            red_rng: Rng::new(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1),
            first_above: SimTime::ZERO,
            drop_next: SimTime::ZERO,
            drop_count: 0,
            dropping: false,
            pi_prob_ppm: 0,
            pi_last_update: SimTime::ZERO,
            pi_prev_qdelay: SimTime::ZERO,
        }
    }

    /// Next value in [0, 100) from the per-direction generator.
    fn red_draw(&mut self) -> u64 {
        self.red_rng.below(100)
    }

    /// Next value in [0, 1_000_000) (parts per million).
    fn draw_ppm(&mut self) -> u64 {
        self.red_rng.below(1_000_000)
    }
}

/// The CoDel control law applied to the head of a link direction at dequeue
/// time `start`: non-ECT heads selected for drop are removed (possibly
/// several, per the sqrt schedule), an ECN-capable head is CE-marked instead
/// and left queued for transmission. Mirrors the switch implementation.
fn codel_head(
    q: &mut LinkDir,
    start: SimTime,
    target: SimTime,
    interval: SimTime,
    dropped: &mut u64,
    marked: &mut u64,
) {
    loop {
        let Some((enq, _)) = q.queue.front() else {
            q.dropping = false;
            return;
        };
        let sojourn = start.saturating_sub(*enq);
        let ok_to_drop = if sojourn < target {
            q.first_above = SimTime::ZERO;
            false
        } else if q.first_above == SimTime::ZERO {
            q.first_above = start.saturating_add(interval);
            false
        } else {
            start >= q.first_above
        };
        if q.dropping {
            if !ok_to_drop {
                q.dropping = false;
                return;
            }
            if start < q.drop_next {
                return;
            }
            q.drop_count += 1;
            q.drop_next = start.saturating_add(SimTime::from_ps(
                interval.as_ps() / crate::switch::isqrt(q.drop_count),
            ));
        } else {
            if !ok_to_drop {
                return;
            }
            q.dropping = true;
            q.drop_count = if q.drop_count > 2 {
                q.drop_count - 2
            } else {
                1
            };
            q.drop_next = start.saturating_add(SimTime::from_ps(
                interval.as_ps() / crate::switch::isqrt(q.drop_count),
            ));
        }
        let head = &mut q.queue.front_mut().unwrap().1;
        let is_ect = Ipv4Header::parse(&head[ETH_HEADER_LEN.min(head.len())..])
            .map(|(h, _, _)| h.ecn.is_ect())
            .unwrap_or(false);
        if is_ect && Ipv4Header::set_ecn_in_place(head.make_mut(), ETH_HEADER_LEN, Ecn::Ce) {
            *marked += 1;
            return;
        }
        let (_, frame) = q.queue.pop_front().unwrap();
        q.queued_bytes -= frame.len();
        *dropped += 1;
    }
}

struct Link {
    a: NodeId,
    b: NodeId,
    params: LinkParams,
    /// dirs[0]: a -> b, dirs[1]: b -> a.
    dirs: [LinkDir; 2],
}

/// Aggregate statistics of a network simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct DesStats {
    pub forwarded: u64,
    pub dropped: u64,
    pub ecn_marked: u64,
    pub delivered_to_endpoints: u64,
    pub delivered_to_external: u64,
}

// Timer token layout: | kind (8 bits) | payload (56 bits) |
const TOK_LINK: u64 = 1 << 56;
const TOK_STACK: u64 = 2 << 56;
const TOK_APP: u64 = 3 << 56;

/// The discrete-event network component.
pub struct DesNetwork {
    nodes: Vec<Node>,
    links: Vec<Link>,
    external_ports: BTreeMap<usize, NodeId>,
    /// Frames that left a link and are propagating: (arrival time,
    /// destination node, ingress port at the destination, frame).
    pending_deliveries: VecDeque<(SimTime, NodeId, usize, PktBuf)>,
    stats: DesStats,
    started: bool,
}

impl Default for DesNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl DesNetwork {
    pub fn new() -> Self {
        DesNetwork {
            nodes: Vec::new(),
            links: Vec::new(),
            external_ports: BTreeMap::new(),
            pending_deliveries: VecDeque::new(),
            stats: DesStats::default(),
            started: false,
        }
    }

    /// Add an internal learning switch.
    pub fn add_switch(&mut self) -> NodeId {
        self.nodes.push(Node {
            kind: NodeKind::Switch {
                mac_table: BTreeMap::new(),
            },
            ports: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add an internal endpoint running a network stack and application.
    pub fn add_endpoint(&mut self, cfg: StackConfig, app: Box<dyn EndpointApp>) -> NodeId {
        self.nodes.push(Node {
            kind: NodeKind::Endpoint {
                stack: NetStack::new(cfg),
                app,
                done: false,
            },
            ports: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Represent SimBricks Ethernet port `kernel_port` as a topology node.
    pub fn add_external_port(&mut self, kernel_port: usize) -> NodeId {
        self.nodes.push(Node {
            kind: NodeKind::External { kernel_port },
            ports: Vec::new(),
        });
        let id = NodeId(self.nodes.len() - 1);
        self.external_ports.insert(kernel_port, id);
        id
    }

    /// Connect two nodes with a bidirectional link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        let link_idx = self.links.len();
        self.links.push(Link {
            a,
            b,
            params,
            dirs: [
                LinkDir::new(link_idx as u64 * 2 + 1),
                LinkDir::new(link_idx as u64 * 2 + 2),
            ],
        });
        self.nodes[a.0].ports.push((link_idx, 0));
        self.nodes[b.0].ports.push((link_idx, 1));
    }

    pub fn stats(&self) -> DesStats {
        self.stats
    }

    /// Result line of an internal endpoint's application.
    pub fn endpoint_report(&self, node: NodeId) -> String {
        match &self.nodes[node.0].kind {
            NodeKind::Endpoint { app, .. } => app.report(),
            _ => String::new(),
        }
    }

    /// Whether every internal endpoint application reported completion.
    pub fn all_endpoints_done(&self) -> bool {
        self.nodes.iter().all(|n| match &n.kind {
            NodeKind::Endpoint { done, .. } => *done,
            _ => true,
        })
    }

    // ------------------------------------------------------------------
    // Frame movement
    // ------------------------------------------------------------------

    /// Send a frame out of `node` on its `port_idx`-th attachment.
    fn emit(&mut self, k: &mut Kernel, node: NodeId, port_idx: usize, frame: PktBuf) {
        let Some(&(link_idx, side)) = self.nodes[node.0].ports.get(port_idx) else {
            return;
        };
        self.enqueue_on_link(k, link_idx, side as usize, frame);
    }

    fn enqueue_on_link(&mut self, k: &mut Kernel, link_idx: usize, dir: usize, mut frame: PktBuf) {
        let link = &mut self.links[link_idx];
        let q = &mut link.dirs[dir];
        if q.queued_bytes + frame.len() > link.params.queue.capacity() {
            self.stats.dropped += 1;
            k.log("net_drop", link_idx as u64, frame.len() as u64);
            return;
        }
        let is_ect = Ipv4Header::parse(&frame[ETH_HEADER_LEN.min(frame.len())..])
            .map(|(h, _, _)| h.ecn.is_ect())
            .unwrap_or(false);
        match link.params.queue {
            QueueDiscipline::DropTail { .. } => {}
            QueueDiscipline::EcnThreshold { .. } => {
                let thresh = link.params.queue.threshold().unwrap_or(usize::MAX);
                if q.queue.len() >= thresh
                    && is_ect
                    && Ipv4Header::set_ecn_in_place(frame.make_mut(), ETH_HEADER_LEN, Ecn::Ce)
                {
                    self.stats.ecn_marked += 1;
                    k.log("net_mark", link_idx as u64, q.queue.len() as u64);
                }
            }
            QueueDiscipline::Red {
                min_pkts,
                max_pkts,
                max_prob_percent,
                ..
            } => {
                let depth = q.queue.len();
                let congested = if depth >= max_pkts {
                    true
                } else if depth >= min_pkts && max_pkts > min_pkts {
                    let prob = (depth - min_pkts) as u64 * max_prob_percent as u64
                        / (max_pkts - min_pkts) as u64;
                    q.red_draw() < prob
                } else {
                    false
                };
                if congested {
                    if is_ect
                        && Ipv4Header::set_ecn_in_place(frame.make_mut(), ETH_HEADER_LEN, Ecn::Ce)
                    {
                        self.stats.ecn_marked += 1;
                        k.log("net_mark", link_idx as u64, depth as u64);
                    } else {
                        // Not ECN-capable: RED falls back to an early drop.
                        self.stats.dropped += 1;
                        k.log("net_drop", link_idx as u64, frame.len() as u64);
                        return;
                    }
                }
            }
            // CoDel acts at dequeue (see schedule_departure).
            QueueDiscipline::CoDel { .. } => {}
            QueueDiscipline::DualPi2 {
                target, tupdate, ..
            } => {
                // Lazy PI update, bounded catch-up; queueing delay derived
                // from the backlog at the link rate.
                if tupdate > SimTime::ZERO
                    && k.now() >= q.pi_last_update.saturating_add(tupdate)
                    && link.params.bandwidth_bps > 0
                {
                    let steps =
                        ((k.now() - q.pi_last_update).as_ps() / tupdate.as_ps()).min(4) as u32;
                    let qdelay = SimTime::from_ps(
                        (q.queued_bytes as u128 * 8 * 1_000_000_000_000
                            / link.params.bandwidth_bps as u128) as u64,
                    );
                    for _ in 0..steps {
                        let err_ns = qdelay.as_ps() as i64 / 1000 - target.as_ps() as i64 / 1000;
                        let diff_ns =
                            qdelay.as_ps() as i64 / 1000 - q.pi_prev_qdelay.as_ps() as i64 / 1000;
                        let delta = err_ns / 16 + diff_ns / 4;
                        q.pi_prob_ppm = (q.pi_prob_ppm as i64 + delta).clamp(0, 1_000_000) as u64;
                        q.pi_prev_qdelay = qdelay;
                    }
                    q.pi_last_update =
                        SimTime::from_ps(q.pi_last_update.as_ps() + steps as u64 * tupdate.as_ps());
                }
                let p = q.pi_prob_ppm;
                let l4s = Ipv4Header::parse(&frame[ETH_HEADER_LEN.min(frame.len())..])
                    .map(|(h, _, _)| h.ecn == Ecn::Ect1)
                    .unwrap_or(false);
                let prob_ppm = if l4s {
                    (2 * p).min(1_000_000)
                } else {
                    p * p / 1_000_000
                };
                if prob_ppm > 0 && q.draw_ppm() < prob_ppm {
                    if is_ect
                        && Ipv4Header::set_ecn_in_place(frame.make_mut(), ETH_HEADER_LEN, Ecn::Ce)
                    {
                        self.stats.ecn_marked += 1;
                        k.log("net_mark", link_idx as u64, q.queue.len() as u64);
                    } else {
                        self.stats.dropped += 1;
                        k.log("net_drop", link_idx as u64, frame.len() as u64);
                        return;
                    }
                }
            }
        }
        q.queued_bytes += frame.len();
        q.queue.push_back((k.now(), frame));
        self.schedule_departure(k, link_idx, dir);
    }

    fn schedule_departure(&mut self, k: &mut Kernel, link_idx: usize, dir: usize) {
        let now = k.now();
        let link = &mut self.links[link_idx];
        let q = &mut link.dirs[dir];
        if q.departing || q.queue.is_empty() {
            return;
        }
        let start = now.max(q.busy_until);
        // CoDel inspects (and may drop or mark) the head at the moment its
        // transmission would begin.
        if let QueueDiscipline::CoDel {
            target, interval, ..
        } = link.params.queue
        {
            let mut codel_dropped = 0u64;
            let mut codel_marked = 0u64;
            codel_head(
                q,
                start,
                target,
                interval,
                &mut codel_dropped,
                &mut codel_marked,
            );
            self.stats.dropped += codel_dropped;
            self.stats.ecn_marked += codel_marked;
            for _ in 0..codel_dropped {
                k.log("net_drop", link_idx as u64, 0);
            }
            for _ in 0..codel_marked {
                k.log("net_mark", link_idx as u64, 0);
            }
            if q.queue.is_empty() {
                return;
            }
        }
        let len = q.queue.front().unwrap().1.len();
        let done = if link.params.bandwidth_bps == 0 {
            start
        } else {
            start + serialization_delay(len, link.params.bandwidth_bps)
        };
        q.busy_until = done;
        q.departing = true;
        k.schedule_at(done, TOK_LINK | ((link_idx as u64) << 1) | dir as u64);
    }

    fn link_departure(&mut self, k: &mut Kernel, link_idx: usize, dir: usize) {
        let (frame, dst_node, delay) = {
            let link = &mut self.links[link_idx];
            let q = &mut link.dirs[dir];
            q.departing = false;
            let Some((_, frame)) = q.queue.pop_front() else {
                return;
            };
            q.queued_bytes -= frame.len();
            let dst = if dir == 0 { link.b } else { link.a };
            (frame, dst, link.params.delay)
        };
        self.schedule_departure(k, link_idx, dir);
        // Which local port of the destination node does this link attach to?
        let dst_side = if dir == 0 { 1u8 } else { 0u8 };
        let ingress_port = self.nodes[dst_node.0]
            .ports
            .iter()
            .position(|&(l, s)| l == link_idx && s == dst_side)
            .unwrap_or(0);
        if delay == SimTime::ZERO {
            self.deliver_from(k, dst_node, ingress_port, frame);
        } else {
            // Propagation delay: park the frame until its arrival time.
            let at = k.now() + delay;
            self.pending_deliveries
                .push_back((at, dst_node, ingress_port, frame));
            k.schedule_at(at, TOK_DELIVER);
        }
    }

    fn deliver_from(&mut self, k: &mut Kernel, node: NodeId, ingress_port: usize, frame: PktBuf) {
        enum Action {
            External(usize),
            Endpoint,
            Forward(Option<usize>),
        }
        let action = match &mut self.nodes[node.0].kind {
            NodeKind::External { kernel_port } => Action::External(*kernel_port),
            NodeKind::Endpoint { .. } => Action::Endpoint,
            NodeKind::Switch { mac_table } => {
                if let Some(src) = frame_src(&frame) {
                    if !src.is_multicast() {
                        mac_table.insert(src, ingress_port);
                    }
                }
                let out = frame_dst(&frame).and_then(|d| {
                    if d.is_broadcast() || d.is_multicast() {
                        None
                    } else {
                        mac_table.get(&d).copied()
                    }
                });
                Action::Forward(out)
            }
        };
        match action {
            Action::External(p) => {
                self.stats.delivered_to_external += 1;
                k.log("net_to_ext", p as u64, frame.len() as u64);
                send_packet(k, PortId(p), &frame);
            }
            Action::Endpoint => {
                self.stats.delivered_to_endpoints += 1;
                self.endpoint_rx(k, node, frame);
            }
            Action::Forward(out) => {
                self.stats.forwarded += 1;
                match out {
                    Some(p) if p != ingress_port => self.emit(k, node, p, frame),
                    Some(_) => {}
                    None => {
                        let nports = self.nodes[node.0].ports.len();
                        for p in 0..nports {
                            if p != ingress_port {
                                self.emit(k, node, p, frame.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Endpoint plumbing
    // ------------------------------------------------------------------

    fn endpoint_rx(&mut self, k: &mut Kernel, node: NodeId, frame: PktBuf) {
        let now = k.now();
        // Timestamped per-endpoint packet log: this is what the §7.5 accuracy
        // check compares between a monolithic network simulation and the same
        // topology split across two network simulators.
        k.log("ep_rx", node.0 as u64, frame.len() as u64);
        if let NodeKind::Endpoint { stack, .. } = &mut self.nodes[node.0].kind {
            stack.handle_frame(now, &frame);
        }
        self.endpoint_pump(k, node);
    }

    /// Run application callbacks and flush stack output for one endpoint.
    fn endpoint_pump(&mut self, k: &mut Kernel, node: NodeId) {
        let now = k.now();
        let mut frames = Vec::new();
        let mut timer_reqs = Vec::new();
        if let NodeKind::Endpoint { stack, app, done } = &mut self.nodes[node.0].kind {
            // Application callbacks for pending socket events.
            loop {
                let events = stack.poll_events();
                if events.is_empty() {
                    break;
                }
                for ev in events {
                    let mut ctx = EndpointCtx {
                        now,
                        stack,
                        timers: &mut timer_reqs,
                        done,
                    };
                    app.on_event(&mut ctx, ev);
                }
            }
            while let Some(f) = stack.poll_transmit() {
                frames.push(f);
            }
            if let Some(t) = stack.poll_timeout() {
                timer_reqs.push((t.max(now), u64::MAX)); // stack timer sentinel
            }
        }
        for (at, tok) in timer_reqs {
            if tok == u64::MAX {
                k.schedule_at(at, TOK_STACK | node.0 as u64);
            } else {
                k.schedule_at(at, TOK_APP | ((node.0 as u64) << 24) | (tok & 0xff_ffff));
            }
        }
        for f in frames {
            // Endpoints have exactly one attachment (port 0).
            k.log("ep_tx", node.0 as u64, f.len() as u64);
            self.emit(k, node, 0, f);
        }
    }

    fn endpoint_app_timer(&mut self, k: &mut Kernel, node: NodeId, token: u64) {
        let now = k.now();
        let mut timer_reqs = Vec::new();
        if let NodeKind::Endpoint { stack, app, done } = &mut self.nodes[node.0].kind {
            let mut ctx = EndpointCtx {
                now,
                stack,
                timers: &mut timer_reqs,
                done,
            };
            app.on_timer(&mut ctx, token);
        }
        for (at, tok) in timer_reqs {
            if tok == u64::MAX {
                k.schedule_at(at, TOK_STACK | node.0 as u64);
            } else {
                k.schedule_at(at, TOK_APP | ((node.0 as u64) << 24) | (tok & 0xff_ffff));
            }
        }
        self.endpoint_pump(k, node);
    }

    fn endpoint_stack_timer(&mut self, k: &mut Kernel, node: NodeId) {
        let now = k.now();
        if let NodeKind::Endpoint { stack, .. } = &mut self.nodes[node.0].kind {
            stack.on_timer(now);
        }
        self.endpoint_pump(k, node);
    }
}

// Delivery of frames after a propagation delay needs per-frame storage; kept
// out of the main struct definition above for readability.
const TOK_DELIVER: u64 = 4 << 56;

impl DesNetwork {
    fn process_pending_deliveries(&mut self, k: &mut Kernel) {
        let now = k.now();
        // Delays differ per link, so the deque is not globally sorted: take
        // every due entry, preserving relative order of equal-time arrivals.
        let mut due = Vec::new();
        let mut rest = VecDeque::new();
        while let Some(entry) = self.pending_deliveries.pop_front() {
            if entry.0 <= now {
                due.push(entry);
            } else {
                rest.push_back(entry);
            }
        }
        self.pending_deliveries = rest;
        for (_, node, ingress, frame) in due {
            self.deliver_from(k, node, ingress, frame);
        }
    }
}

impl Model for DesNetwork {
    fn init(&mut self, k: &mut Kernel) {
        if self.started {
            return;
        }
        self.started = true;
        // Endpoint stacks allocate from this component's arena so pooled
        // transmit allocations land in its `KernelStats::pool_*` counters.
        for node in &mut self.nodes {
            if let NodeKind::Endpoint { stack, .. } = &mut node.kind {
                stack.set_pool(k.pool().clone());
            }
        }
        // Start all endpoint applications.
        let ids: Vec<NodeId> = (0..self.nodes.len()).map(NodeId).collect();
        for id in ids {
            let now = k.now();
            let mut timer_reqs = Vec::new();
            if let NodeKind::Endpoint { stack, app, done } = &mut self.nodes[id.0].kind {
                let mut ctx = EndpointCtx {
                    now,
                    stack,
                    timers: &mut timer_reqs,
                    done,
                };
                app.start(&mut ctx);
            } else {
                continue;
            }
            for (at, tok) in timer_reqs {
                if tok == u64::MAX {
                    k.schedule_at(at, TOK_STACK | id.0 as u64);
                } else {
                    k.schedule_at(at, TOK_APP | ((id.0 as u64) << 24) | (tok & 0xff_ffff));
                }
            }
            self.endpoint_pump(k, id);
        }
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        let Some(pkt) = EthPacket::decode_owned(msg) else {
            return;
        };
        k.log("net_from_ext", port.0 as u64, pkt.len() as u64);
        let Some(&node) = self.external_ports.get(&port.0) else {
            return;
        };
        // The frame enters the topology at the external node's single link.
        self.emit(k, node, 0, pkt.frame);
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        let kind = token & (0xff << 56);
        let payload = token & !(0xffu64 << 56);
        match kind {
            TOK_LINK => {
                let link_idx = (payload >> 1) as usize;
                let dir = (payload & 1) as usize;
                self.link_departure(k, link_idx, dir);
            }
            TOK_STACK => self.endpoint_stack_timer(k, NodeId(payload as usize)),
            TOK_APP => {
                let node = NodeId((payload >> 24) as usize);
                let tok = payload & 0xff_ffff;
                self.endpoint_app_timer(k, node, tok);
            }
            TOK_DELIVER => self.process_pending_deliveries(k),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome};
    use simbricks_eth::MSG_ETH_PACKET;
    use simbricks_proto::{Ecn, FrameBuilder, Ipv4Addr, MacAddr};

    /// A DES network with one external SimBricks port (port 0 of the kernel)
    /// driven directly through a channel end, so frames can be injected into
    /// and collected from arbitrary topologies.
    struct Harness {
        kernel: Kernel,
        net: DesNetwork,
        peer: simbricks_base::ChannelEnd,
    }

    impl Harness {
        fn new(net: DesNetwork) -> Self {
            let (a, b) = channel_pair(ChannelParams::default_sync().with_queue_len(512));
            let mut kernel = Kernel::new("des", SimTime::from_ms(100));
            kernel.enable_log();
            kernel.add_port(a);
            Harness {
                kernel,
                net,
                peer: b,
            }
        }

        fn inject(&mut self, frame: &[u8], at: SimTime) {
            self.peer.send_raw(at, MSG_ETH_PACKET, frame).unwrap();
        }

        fn run_until(&mut self, horizon: SimTime) {
            self.peer
                .send_raw(horizon, simbricks_base::MSG_SYNC, &[])
                .unwrap();
            loop {
                match self.kernel.step(&mut self.net, 512) {
                    StepOutcome::Blocked(_) | StepOutcome::Paused | StepOutcome::Finished => break,
                    StepOutcome::Progressed => {}
                }
            }
        }
    }

    fn udp_frame(ecn: Ecn, len: usize) -> Vec<u8> {
        FrameBuilder::udp(
            MacAddr::from_index(10),
            MacAddr::from_index(20),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            ecn,
            5555,
            6666,
            &vec![0u8; len],
        )
    }

    /// Topology: external port -> bottleneck link -> external port is not
    /// possible (one port), so tests use ext -> link -> second ext... instead
    /// a single external port connected to itself is meaningless; use
    /// ext -> switch -> ext loop-free alternative: ext(0) -> link -> switch,
    /// and a second external port for egress.
    fn two_port_net(bottleneck: LinkParams) -> (DesNetwork, NodeId) {
        let mut net = DesNetwork::new();
        let in_port = net.add_external_port(0);
        let sw = net.add_switch();
        // Only one kernel port exists in the harness; to observe egress the
        // tests read the link/drop/mark statistics instead of frames. The
        // bottleneck is the ingress link.
        net.connect(in_port, sw, bottleneck);
        (net, sw)
    }

    #[test]
    fn droptail_drops_when_capacity_exceeded() {
        let (net, _) = two_port_net(LinkParams {
            bandwidth_bps: simbricks_base::bw::GBPS,
            delay: SimTime::from_us(1),
            queue: QueueDiscipline::DropTail {
                capacity_bytes: 3000,
            },
        });
        let mut h = Harness::new(net);
        for _ in 0..10 {
            h.inject(&udp_frame(Ecn::NotEct, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(10));
        let stats = h.net.stats();
        assert!(stats.dropped > 0, "overflow must drop");
        assert!(stats.forwarded > 0, "some frames still go through");
        assert_eq!(stats.dropped + stats.forwarded, 10);
    }

    #[test]
    fn ecn_threshold_marks_ect_traffic_beyond_k() {
        let (net, _) = two_port_net(LinkParams {
            bandwidth_bps: simbricks_base::bw::GBPS,
            delay: SimTime::from_us(1),
            queue: QueueDiscipline::EcnThreshold {
                threshold_pkts: 2,
                capacity_bytes: 1 << 20,
            },
        });
        let mut h = Harness::new(net);
        for _ in 0..8 {
            h.inject(&udp_frame(Ecn::Ect0, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(10));
        let stats = h.net.stats();
        assert!(stats.ecn_marked > 0, "queue beyond K must mark");
        assert!(stats.ecn_marked < 8, "early packets stay unmarked");
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn red_marks_ect_and_drops_non_ect() {
        let red = |_| LinkParams {
            bandwidth_bps: simbricks_base::bw::GBPS,
            delay: SimTime::from_us(1),
            queue: QueueDiscipline::Red {
                min_pkts: 1,
                max_pkts: 4,
                max_prob_percent: 100,
                capacity_bytes: 1 << 20,
            },
        };
        // ECN-capable burst: marked, never dropped.
        let (net, _) = two_port_net(red(()));
        let mut h = Harness::new(net);
        for _ in 0..16 {
            h.inject(&udp_frame(Ecn::Ect0, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(10));
        let s = h.net.stats();
        assert!(s.ecn_marked > 0, "RED marks ECT traffic under congestion");
        assert_eq!(s.dropped, 0, "ECT traffic is not dropped by RED");

        // Non-ECN burst: early-dropped instead.
        let (net, _) = two_port_net(red(()));
        let mut h = Harness::new(net);
        for _ in 0..16 {
            h.inject(&udp_frame(Ecn::NotEct, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(10));
        let s = h.net.stats();
        assert!(s.dropped > 0, "RED early-drops non-ECT traffic");
        assert_eq!(s.ecn_marked, 0);
    }

    #[test]
    fn codel_drops_standing_queue_and_marks_ect() {
        let codel = || LinkParams {
            bandwidth_bps: simbricks_base::bw::GBPS,
            delay: SimTime::from_us(1),
            queue: QueueDiscipline::CoDel {
                target: SimTime::from_us(10),
                interval: SimTime::from_us(100),
                capacity_bytes: 1 << 20,
            },
        };
        // 100 × 1000 B at 1 Gbps = 8 us each: a standing queue of ~800 us,
        // far beyond target for longer than the interval.
        let (net, _) = two_port_net(codel());
        let mut h = Harness::new(net);
        for _ in 0..100 {
            h.inject(&udp_frame(Ecn::NotEct, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(10));
        let s = h.net.stats();
        assert!(s.dropped > 0, "CoDel must drop a persistent non-ECT queue");
        assert_eq!(s.dropped + s.forwarded, 100);
        // The same burst with ECT(0): marked instead of dropped.
        let (net, _) = two_port_net(codel());
        let mut h = Harness::new(net);
        for _ in 0..100 {
            h.inject(&udp_frame(Ecn::Ect0, 1000), SimTime::from_us(10));
        }
        h.run_until(SimTime::from_ms(10));
        let s = h.net.stats();
        assert!(s.ecn_marked > 0, "CoDel marks ECT instead of dropping");
        assert_eq!(s.dropped, 0);
        assert_eq!(s.forwarded, 100);
    }

    #[test]
    fn dualpi2_marks_scalable_traffic_under_load() {
        let (net, _) = two_port_net(LinkParams {
            bandwidth_bps: simbricks_base::bw::GBPS,
            delay: SimTime::from_us(1),
            queue: QueueDiscipline::DualPi2 {
                target: SimTime::from_us(5),
                tupdate: SimTime::from_us(20),
                capacity_bytes: 1 << 20,
            },
        });
        let mut h = Harness::new(net);
        // Sustained overload: arrivals every 4 us vs 8 us service, so the
        // backlog grows across many controller periods and p' ramps up.
        for i in 0..300u64 {
            h.inject(
                &udp_frame(Ecn::Ect1, 1000),
                SimTime::from_us(10) + SimTime::from_us(4 * i),
            );
        }
        h.run_until(SimTime::from_ms(20));
        let s = h.net.stats();
        assert!(s.ecn_marked > 0, "L4S queue must CE-mark under load");
        assert_eq!(s.dropped, 0, "ECT(1) traffic is never dropped by DualPI2");
        assert_eq!(s.forwarded, 300);
    }

    #[test]
    fn red_decisions_are_deterministic_across_runs() {
        let build = || {
            let (net, _) = two_port_net(LinkParams {
                bandwidth_bps: simbricks_base::bw::GBPS,
                delay: SimTime::from_us(1),
                queue: QueueDiscipline::Red {
                    min_pkts: 1,
                    max_pkts: 8,
                    max_prob_percent: 50,
                    capacity_bytes: 1 << 20,
                },
            });
            let mut h = Harness::new(net);
            for _ in 0..32 {
                h.inject(&udp_frame(Ecn::Ect0, 800), SimTime::from_us(10));
            }
            h.run_until(SimTime::from_ms(10));
            h.net.stats().ecn_marked
        };
        assert_eq!(build(), build(), "same seed, same marking decisions");
    }

    #[test]
    fn endpoints_exchange_traffic_inside_the_network() {
        // Two endpoints connected by one link; the client sends a burst of
        // UDP-free TCP traffic through the internal stacks.
        use crate::des::tests_support::OneShotSender;
        let mut net = DesNetwork::new();
        let a_cfg = simbricks_netstack::StackConfig {
            ip: Ipv4Addr::new(192, 168, 0, 1),
            mac: MacAddr::from_index(91),
            ..Default::default()
        };
        let b_cfg = simbricks_netstack::StackConfig {
            ip: Ipv4Addr::new(192, 168, 0, 2),
            mac: MacAddr::from_index(92),
            ..Default::default()
        };
        let b_ip = b_cfg.ip;
        let a = net.add_endpoint(a_cfg, Box::new(OneShotSender::new(b_ip, 4000, 50_000)));
        let b = net.add_endpoint(b_cfg, Box::new(OneShotSender::sink(4000)));
        net.connect(a, b, LinkParams::default());
        let mut h = Harness::new(net);
        h.run_until(SimTime::from_ms(50));
        let report = h.net.endpoint_report(b);
        let received: usize = report
            .strip_prefix("received=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        assert_eq!(received, 50_000, "all bytes arrived: {report}");
        assert!(h.net.all_endpoints_done());
    }

    #[test]
    fn ideal_link_adds_no_serialization_delay() {
        // bandwidth 0 = ideal link: two back-to-back frames arrive with only
        // the propagation delay between injection and delivery.
        let mut net = DesNetwork::new();
        let in_port = net.add_external_port(0);
        let out_sw = net.add_switch();
        net.connect(
            in_port,
            out_sw,
            LinkParams {
                bandwidth_bps: 0,
                delay: SimTime::from_us(3),
                queue: QueueDiscipline::DropTail {
                    capacity_bytes: 1 << 20,
                },
            },
        );
        let mut h = Harness::new(net);
        h.inject(&udp_frame(Ecn::NotEct, 1500), SimTime::from_us(10));
        h.inject(&udp_frame(Ecn::NotEct, 1500), SimTime::from_us(10));
        h.run_until(SimTime::from_ms(1));
        // Both frames were forwarded (flooded back is impossible: only one
        // other port exists, the ingress) — check via stats and the mark/drop
        // counters staying zero.
        let s = h.net.stats();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.forwarded, 2);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Minimal endpoint application used by the DES unit tests.

    use super::{EndpointApp, EndpointCtx};
    use simbricks_netstack::{SocketEvent, SocketId};
    use simbricks_proto::Ipv4Addr;

    pub(crate) struct OneShotSender {
        target: Option<(Ipv4Addr, u16)>,
        listen: Option<u16>,
        to_send: usize,
        sent: usize,
        pub received: usize,
        sock: Option<SocketId>,
    }

    impl OneShotSender {
        pub(crate) fn new(target: Ipv4Addr, port: u16, bytes: usize) -> Self {
            OneShotSender {
                target: Some((target, port)),
                listen: None,
                to_send: bytes,
                sent: 0,
                received: 0,
                sock: None,
            }
        }

        pub(crate) fn sink(port: u16) -> Self {
            OneShotSender {
                target: None,
                listen: Some(port),
                to_send: 0,
                sent: 0,
                received: 0,
                sock: None,
            }
        }

        fn pump(&mut self, ctx: &mut EndpointCtx) {
            if let Some(s) = self.sock {
                while self.sent < self.to_send {
                    let chunk = (self.to_send - self.sent).min(8192);
                    let n = ctx.stack.tcp_send(s, &vec![0x5a; chunk]);
                    self.sent += n;
                    if n < chunk {
                        break;
                    }
                }
                if self.sent >= self.to_send {
                    *ctx.done = true;
                }
            }
        }
    }

    impl EndpointApp for OneShotSender {
        fn start(&mut self, ctx: &mut EndpointCtx) {
            if let Some(port) = self.listen {
                ctx.stack.tcp_listen(port);
            }
            if let Some((ip, port)) = self.target {
                self.sock = Some(ctx.stack.tcp_connect(ctx.now, ip, port));
            }
        }
        fn on_event(&mut self, ctx: &mut EndpointCtx, ev: SocketEvent) {
            match ev {
                SocketEvent::Connected(_) | SocketEvent::SendSpace(_) if self.target.is_some() => {
                    self.pump(ctx)
                }
                SocketEvent::DataAvailable(s) | SocketEvent::Accepted { socket: s, .. }
                    if self.listen.is_some() =>
                {
                    self.received += ctx.stack.tcp_recv(s, usize::MAX).len();
                    if self.received > 0 {
                        *ctx.done = true;
                    }
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, _ctx: &mut EndpointCtx, _token: u64) {}
        fn report(&self) -> String {
            format!("received={}", self.received)
        }
    }
}
