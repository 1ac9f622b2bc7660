//! NOPaxos-style replication (Fig. 10) and a Multi-Paxos baseline.
//!
//! Three deployment modes mirror the paper's §8.2 configurations:
//!
//! * **Switch sequencer** — clients address the replica group (broadcast);
//!   the Tofino-style switch's OUM program stamps a global sequence number
//!   into the first eight payload bytes and multicasts to all replicas, which
//!   execute in sequence-number order and reply directly to the client.
//! * **End-host sequencer** — a normal host receives the request, stamps the
//!   sequence number and relays it to the replicas (one extra network hop and
//!   host processing on the critical path).
//! * **Multi-Paxos** — the classic leader-based protocol: the client sends to
//!   the leader, the leader runs an accept round with the other replicas and
//!   answers after a majority.
//!
//! Client requests complete after a reply from the designated leader replica
//! plus `f` matching replicas (we simulate 3 replicas, `f = 1`).

use std::collections::BTreeMap;

use simbricks_base::SimTime;
use simbricks_hostsim::{Application, OsServices};
use simbricks_netstack::{SocketAddr, SocketEvent, SocketId};
use simbricks_proto::Ipv4Addr;

/// UDP port of the OUM group (what the switch sequencer matches on).
pub const OUM_PORT: u16 = 7777;
/// Port replicas listen on for sequenced requests relayed by an end-host
/// sequencer.
pub const SEQUENCED_PORT: u16 = 7778;
/// Port clients receive replies on.
pub const CLIENT_PORT: u16 = 7900;
/// Leader port for Multi-Paxos client requests.
pub const PAXOS_LEADER_PORT: u16 = 7780;
/// Port for Multi-Paxos accept messages between replicas.
pub const PAXOS_ACCEPT_PORT: u16 = 7781;

/// Deployment mode of the replication group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaxosMode {
    SwitchSequencer,
    EndHostSequencer,
    MultiPaxos,
}

fn encode_req(seq: u64, client: u64, req: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&client.to_le_bytes());
    v.extend_from_slice(&req.to_le_bytes());
    v
}

fn decode_req(data: &[u8]) -> Option<(u64, u64, u64)> {
    if data.len() < 24 {
        return None;
    }
    Some((
        u64::from_le_bytes(data[0..8].try_into().unwrap()),
        u64::from_le_bytes(data[8..16].try_into().unwrap()),
        u64::from_le_bytes(data[16..24].try_into().unwrap()),
    ))
}

/// A replica (NOPaxos modes) or leader/follower (Multi-Paxos).
pub struct Replica {
    pub index: u8,
    mode: PaxosMode,
    peers: Vec<Ipv4Addr>,
    sock_oum: Option<SocketId>,
    sock_seq: Option<SocketId>,
    sock_leader: Option<SocketId>,
    sock_accept: Option<SocketId>,
    last_seq: u64,
    pub executed: u64,
    pub sequence_gaps: u64,
    /// Per-request execution cost.
    pub exec_cost: SimTime,
    // Multi-Paxos leader state: pending client replies keyed by seq.
    // Ordered map so any iteration (snapshots, sweeps, diagnostics added
    // later) observes slots in sequence order, never hash order.
    next_seq: u64,
    pending: BTreeMap<u64, (SocketAddr, u64, u64, u32)>,
}

impl Replica {
    pub fn new(index: u8, mode: PaxosMode, peers: Vec<Ipv4Addr>) -> Self {
        Replica {
            index,
            mode,
            peers,
            sock_oum: None,
            sock_seq: None,
            sock_leader: None,
            sock_accept: None,
            last_seq: 0,
            executed: 0,
            sequence_gaps: 0,
            exec_cost: SimTime::from_us(3),
            next_seq: 1,
            pending: BTreeMap::new(),
        }
    }

    fn execute_and_reply(
        &mut self,
        os: &mut OsServices,
        sock: SocketId,
        seq: u64,
        client: u64,
        req: u64,
        reply_to: SocketAddr,
    ) {
        if seq > 0 {
            if self.last_seq != 0 && seq > self.last_seq + 1 {
                self.sequence_gaps += seq - self.last_seq - 1;
            }
            if seq > self.last_seq {
                self.last_seq = seq;
            }
        }
        os.consume_cpu(self.exec_cost);
        self.executed += 1;
        let mut reply = encode_req(seq, client, req);
        reply.push(self.index);
        os.udp_send_to(sock, reply_to, &reply);
    }
}

impl Application for Replica {
    fn start(&mut self, os: &mut OsServices) {
        match self.mode {
            PaxosMode::SwitchSequencer => {
                self.sock_oum = os.udp_bind(OUM_PORT);
            }
            PaxosMode::EndHostSequencer => {
                self.sock_seq = os.udp_bind(SEQUENCED_PORT);
            }
            PaxosMode::MultiPaxos => {
                self.sock_leader = os.udp_bind(PAXOS_LEADER_PORT);
                self.sock_accept = os.udp_bind(PAXOS_ACCEPT_PORT);
            }
        }
    }

    fn on_socket_event(&mut self, os: &mut OsServices, ev: SocketEvent) {
        let SocketEvent::DataAvailable(s) = ev else {
            return;
        };
        while let Some((from, data)) = os.udp_recv_from(s) {
            let Some((seq, client, req)) = decode_req(&data) else {
                continue;
            };
            match self.mode {
                // Sequenced request (either by the switch or by the end-host
                // sequencer): execute in order and reply to the client.
                PaxosMode::SwitchSequencer | PaxosMode::EndHostSequencer => {
                    let client_ip = Ipv4Addr::from_u32(client as u32);
                    let reply_to = SocketAddr::new(client_ip, CLIENT_PORT);
                    self.execute_and_reply(os, s, seq, client, req, reply_to);
                }
                PaxosMode::MultiPaxos => {
                    if Some(s) == self.sock_leader && self.index == 0 {
                        // Client request at the leader: assign a slot and run
                        // an accept round.
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.pending.insert(seq, (from, client, req, 0));
                        let msg = encode_req(seq, client, req);
                        for peer in self.peers.clone() {
                            os.udp_send_to(s, SocketAddr::new(peer, PAXOS_ACCEPT_PORT), &msg);
                        }
                    } else if Some(s) == self.sock_accept {
                        if self.index == 0 {
                            // AcceptOk from a follower.
                            if let Some(entry) = self.pending.get_mut(&seq) {
                                entry.3 += 1;
                                if entry.3 >= 1 {
                                    // Majority of 3 (leader + 1): reply.
                                    let (client_addr, client, req, _) =
                                        self.pending.remove(&seq).unwrap();
                                    os.consume_cpu(self.exec_cost);
                                    self.executed += 1;
                                    let client_ip = Ipv4Addr::from_u32(client as u32);
                                    let _ = client_addr;
                                    let mut reply = encode_req(seq, client, req);
                                    reply.push(self.index);
                                    os.udp_send_to(
                                        s,
                                        SocketAddr::new(client_ip, CLIENT_PORT),
                                        &reply,
                                    );
                                }
                            }
                        } else {
                            // Follower: accept and acknowledge to the leader's
                            // accept port (the accept was sent from the
                            // leader's client-facing socket, so `from` carries
                            // the wrong port).
                            os.consume_cpu(self.exec_cost);
                            self.executed += 1;
                            os.udp_send_to(
                                s,
                                SocketAddr::new(from.ip, PAXOS_ACCEPT_PORT),
                                &encode_req(seq, client, req),
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _os: &mut OsServices, _token: u64) {}

    fn report(&self) -> String {
        format!(
            "replica{} executed={} gaps={}",
            self.index, self.executed, self.sequence_gaps
        )
    }
}

/// End-host sequencer: stamps sequence numbers and relays to the replicas.
pub struct SequencerHost {
    replicas: Vec<Ipv4Addr>,
    sock: Option<SocketId>,
    next_seq: u64,
    pub sequenced: u64,
    pub relay_cost: SimTime,
}

impl SequencerHost {
    pub fn new(replicas: Vec<Ipv4Addr>) -> Self {
        SequencerHost {
            replicas,
            sock: None,
            next_seq: 1,
            sequenced: 0,
            relay_cost: SimTime::from_us(2),
        }
    }
}

impl Application for SequencerHost {
    fn start(&mut self, os: &mut OsServices) {
        self.sock = os.udp_bind(OUM_PORT);
    }

    fn on_socket_event(&mut self, os: &mut OsServices, ev: SocketEvent) {
        let SocketEvent::DataAvailable(s) = ev else {
            return;
        };
        while let Some((_from, data)) = os.udp_recv_from(s) {
            let Some((_seq, client, req)) = decode_req(&data) else {
                continue;
            };
            os.consume_cpu(self.relay_cost);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.sequenced += 1;
            let msg = encode_req(seq, client, req);
            for r in self.replicas.clone() {
                os.udp_send_to(s, SocketAddr::new(r, SEQUENCED_PORT), &msg);
            }
        }
    }

    fn on_timer(&mut self, _os: &mut OsServices, _token: u64) {}

    fn report(&self) -> String {
        format!("sequencer sequenced={}", self.sequenced)
    }
}

/// Closed-loop replication client.
pub struct PaxosClient {
    mode: PaxosMode,
    /// Where requests are sent: the group/broadcast address, the sequencer
    /// host, or the Multi-Paxos leader.
    target: SocketAddr,
    duration: SimTime,
    concurrency: usize,
    sock: Option<SocketId>,
    my_ip_key: u64,
    next_req: u64,
    /// outstanding request id -> (issue time, replies seen, leader replied).
    /// Ordered map: the retry sweep iterates in request-id order
    /// structurally, never in hash order.
    outstanding: BTreeMap<u64, (SimTime, u32, bool)>,
    pub completed: u64,
    latency_total: SimTime,
    stopped: bool,
}

const TOK_STOP: u64 = 1;
const TOK_RETRY: u64 = 2;

impl PaxosClient {
    pub fn new(mode: PaxosMode, target: SocketAddr, concurrency: usize, duration: SimTime) -> Self {
        PaxosClient {
            mode,
            target,
            duration,
            concurrency: concurrency.max(1),
            sock: None,
            my_ip_key: 0,
            next_req: 1,
            outstanding: BTreeMap::new(),
            completed: 0,
            latency_total: SimTime::ZERO,
            stopped: false,
        }
    }

    pub fn throughput_rps(&self) -> f64 {
        if self.duration == SimTime::ZERO {
            return 0.0;
        }
        self.completed as f64 / self.duration.as_secs_f64()
    }

    pub fn mean_latency_us(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.latency_total.as_ps() as f64 / self.completed as f64 / 1e6
    }

    fn issue(&mut self, os: &mut OsServices) {
        if self.stopped {
            return;
        }
        let Some(s) = self.sock else { return };
        while self.outstanding.len() < self.concurrency {
            let req = self.next_req;
            self.next_req += 1;
            let msg = encode_req(0, self.my_ip_key, req);
            os.udp_send_to(s, self.target, &msg);
            self.outstanding.insert(req, (os.now(), 0, false));
        }
    }

    fn required_replies(&self) -> u32 {
        match self.mode {
            // Leader + f matching replicas (f = 1 of 3).
            PaxosMode::SwitchSequencer | PaxosMode::EndHostSequencer => 2,
            // The leader's reply already encodes a majority.
            PaxosMode::MultiPaxos => 1,
        }
    }
}

impl Application for PaxosClient {
    fn start(&mut self, os: &mut OsServices) {
        self.my_ip_key = os.local_ip().to_u32() as u64;
        self.sock = os.udp_bind(CLIENT_PORT);
        os.set_timer_in(self.duration, TOK_STOP);
        os.set_timer_in(SimTime::from_ms(1), TOK_RETRY);
        self.issue(os);
    }

    fn on_socket_event(&mut self, os: &mut OsServices, ev: SocketEvent) {
        if self.stopped {
            return;
        }
        let SocketEvent::DataAvailable(s) = ev else {
            return;
        };
        while let Some((_from, data)) = os.udp_recv_from(s) {
            let Some((_seq, _client, req)) = decode_req(&data) else {
                continue;
            };
            let replica = data.get(24).copied().unwrap_or(0);
            let needed = self.required_replies();
            if let Some(entry) = self.outstanding.get_mut(&req) {
                entry.1 += 1;
                if replica == 0 {
                    entry.2 = true;
                }
                if entry.1 >= needed && (entry.2 || self.mode == PaxosMode::MultiPaxos) {
                    let (t0, _, _) = self.outstanding.remove(&req).unwrap();
                    self.completed += 1;
                    self.latency_total += os.now() - t0;
                }
            }
        }
        self.issue(os);
    }

    fn on_timer(&mut self, os: &mut OsServices, token: u64) {
        match token {
            TOK_STOP => {
                self.stopped = true;
                os.finish();
            }
            TOK_RETRY if !self.stopped => {
                // Drop requests stuck for too long (OUM is unreliable) and
                // keep the closed loop full.
                let now = os.now();
                self.outstanding
                    .retain(|_, (t0, _, _)| now - *t0 < SimTime::from_ms(20));
                self.issue(os);
                os.set_timer_in(SimTime::from_ms(5), TOK_RETRY);
            }
            _ => {}
        }
    }

    fn report(&self) -> String {
        format!(
            "paxos-client mode={:?} completed={} tput={:.0}req/s latency={:.1}us",
            self.mode,
            self.completed,
            self.throughput_rps(),
            self.mean_latency_us()
        )
    }

    fn done(&self) -> bool {
        self.stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_encoding_roundtrip() {
        let m = encode_req(7, 42, 99);
        assert_eq!(decode_req(&m), Some((7, 42, 99)));
        assert!(decode_req(&m[..10]).is_none());
    }

    /// Determinism regression: the client's stuck-request sweep must keep
    /// exactly the young requests and leave them observable in request-id
    /// order, independent of the order they entered the table. Under the
    /// pre-fix `HashMap` table, iteration order (and thus any future
    /// order-sensitive use of it) depended on the per-instance hash seed.
    #[test]
    fn stuck_request_sweep_is_history_independent() {
        let mk = || {
            PaxosClient::new(
                PaxosMode::MultiPaxos,
                SocketAddr::new(Ipv4Addr::new(10, 0, 0, 9), PAXOS_LEADER_PORT),
                4,
                SimTime::from_ms(1),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for id in [9u64, 2, 17, 4, 11] {
            a.outstanding.insert(id, (SimTime::from_ms(id), 0, false));
        }
        for id in [4u64, 17, 11, 2, 9] {
            b.outstanding.insert(id, (SimTime::from_ms(id), 0, false));
        }
        let now = SimTime::from_ms(25);
        for c in [&mut a, &mut b] {
            c.outstanding
                .retain(|_, (t0, _, _)| now - *t0 < SimTime::from_ms(20));
        }
        let ka: Vec<u64> = a.outstanding.keys().copied().collect();
        let kb: Vec<u64> = b.outstanding.keys().copied().collect();
        assert_eq!(ka, vec![9, 11, 17], "young requests, ascending id order");
        assert_eq!(ka, kb, "insertion history does not leak");
    }

    #[test]
    fn required_replies_by_mode() {
        let c = |m| {
            PaxosClient::new(
                m,
                SocketAddr::new(Ipv4Addr::new(10, 0, 0, 9), OUM_PORT),
                1,
                SimTime::from_ms(1),
            )
        };
        assert_eq!(c(PaxosMode::SwitchSequencer).required_replies(), 2);
        assert_eq!(c(PaxosMode::EndHostSequencer).required_replies(), 2);
        assert_eq!(c(PaxosMode::MultiPaxos).required_replies(), 1);
    }
}
