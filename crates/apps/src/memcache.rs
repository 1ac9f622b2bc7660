//! memcached-style key-value server and memaslap-style closed-loop client
//! (the Fig. 8 scale-out workload), using a compact UDP request/response
//! protocol: `G<key>` / `S<key>=<value>` requests, `V<value>` / `OK` replies.

use std::collections::BTreeMap;

use simbricks_base::snap::{SnapReader, SnapResult, SnapWriter};
use simbricks_base::SimTime;
use simbricks_hostsim::{Application, OsServices};
use simbricks_netstack::{SocketAddr, SocketEvent, SocketId};

use crate::netperf::{restore_sock, snap_sock};

pub const MEMCACHE_PORT: u16 = 11211;

const TOK_STOP: u64 = 1;
const TOK_RETRY: u64 = 2;

/// The key-value server.
pub struct MemcachedServer {
    sock: Option<SocketId>,
    /// Key-value store. Ordered map: snapshot encoding and any future scan
    /// iterate in key order structurally — hash order can never leak.
    store: BTreeMap<Vec<u8>, Vec<u8>>,
    pub requests: u64,
    /// Modelled per-request CPU time (hash lookup, allocation, ...).
    pub service_time: SimTime,
}

impl MemcachedServer {
    pub fn new() -> Self {
        MemcachedServer {
            sock: None,
            store: BTreeMap::new(),
            requests: 0,
            service_time: SimTime::from_us(2),
        }
    }
}

impl Default for MemcachedServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for MemcachedServer {
    fn start(&mut self, os: &mut OsServices) {
        self.sock = os.udp_bind(MEMCACHE_PORT);
    }

    fn on_socket_event(&mut self, os: &mut OsServices, ev: SocketEvent) {
        if let SocketEvent::DataAvailable(s) = ev {
            while let Some((from, req)) = os.udp_recv_from(s) {
                self.requests += 1;
                os.consume_cpu(self.service_time);
                let reply = match req.split_first() {
                    Some((b'G', key)) => match self.store.get(key) {
                        Some(v) => {
                            let mut r = vec![b'V'];
                            r.extend_from_slice(v);
                            r
                        }
                        None => b"MISS".to_vec(),
                    },
                    Some((b'S', rest)) => {
                        if let Some(eq) = rest.iter().position(|&b| b == b'=') {
                            self.store
                                .insert(rest[..eq].to_vec(), rest[eq + 1..].to_vec());
                        }
                        b"OK".to_vec()
                    }
                    _ => b"ERR".to_vec(),
                };
                os.udp_send_to(s, from, &reply);
            }
        }
    }

    fn on_timer(&mut self, _os: &mut OsServices, _token: u64) {}

    fn report(&self) -> String {
        format!(
            "memcached requests={} keys={}",
            self.requests,
            self.store.len()
        )
    }

    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        snap_sock(w, self.sock);
        w.u64(self.requests);
        w.time(self.service_time);
        // Ascending key order, straight off the ordered map.
        w.usize(self.store.len());
        for (k, v) in &self.store {
            w.bytes(k);
            w.bytes(v);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.sock = restore_sock(r)?;
        self.requests = r.u64()?;
        self.service_time = r.time()?;
        self.store.clear();
        for _ in 0..r.usize()? {
            let k = r.bytes()?;
            let v = r.bytes()?;
            self.store.insert(k, v);
        }
        Ok(())
    }
}

/// memaslap-style closed-loop client: keeps `concurrency` requests in flight
/// against a set of servers (picked round-robin, mixing GET and SET), for a
/// fixed duration, reporting throughput and mean latency.
pub struct MemaslapClient {
    servers: Vec<SocketAddr>,
    concurrency: usize,
    duration: SimTime,
    value_size: usize,
    sock: Option<SocketId>,
    /// In-flight request id -> issue time. Ordered map: the FIFO reply
    /// match and the periodic retry sweep iterate in id order structurally.
    outstanding: BTreeMap<u64, SimTime>,
    next_req: u64,
    started: SimTime,
    stopped: bool,
    pub completed: u64,
    latency_total: SimTime,
}

impl MemaslapClient {
    pub fn new(
        servers: Vec<SocketAddr>,
        concurrency: usize,
        value_size: usize,
        duration: SimTime,
    ) -> Self {
        MemaslapClient {
            servers,
            concurrency: concurrency.max(1),
            duration,
            value_size,
            sock: None,
            outstanding: BTreeMap::new(),
            next_req: 0,
            started: SimTime::ZERO,
            stopped: false,
            completed: 0,
            latency_total: SimTime::ZERO,
        }
    }

    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration == SimTime::ZERO {
            return 0.0;
        }
        self.completed as f64 / self.duration.as_secs_f64()
    }

    /// Mean request latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.latency_total.as_ps() as f64 / self.completed as f64 / 1e6
    }

    fn issue(&mut self, os: &mut OsServices) {
        if self.stopped || self.servers.is_empty() {
            return;
        }
        let Some(s) = self.sock else { return };
        while self.outstanding.len() < self.concurrency {
            let id = self.next_req;
            self.next_req += 1;
            let server = self.servers[(id as usize) % self.servers.len()];
            // 10% SETs, 90% GETs (typical memaslap mix).
            let key = format!("key-{}", id % 1000);
            let req = if id.is_multiple_of(10) {
                let mut r = format!("S{key}=").into_bytes();
                r.extend(std::iter::repeat_n(b'v', self.value_size));
                r
            } else {
                format!("G{key}").into_bytes()
            };
            // The request id travels implicitly: one request per server at a
            // time is not guaranteed, so tag the key space by id modulo; for
            // latency we only need issue order (replies are matched FIFO).
            os.udp_send_to(s, server, &req);
            self.outstanding.insert(id, os.now());
        }
    }
}

impl Application for MemaslapClient {
    fn start(&mut self, os: &mut OsServices) {
        self.started = os.now();
        self.sock = os.udp_bind(20000);
        os.set_timer_in(self.duration, TOK_STOP);
        os.set_timer_in(SimTime::from_us(10), TOK_RETRY);
        self.issue(os);
    }

    fn on_socket_event(&mut self, os: &mut OsServices, ev: SocketEvent) {
        if self.stopped {
            return;
        }
        if let SocketEvent::DataAvailable(s) = ev {
            while let Some((_, _reply)) = os.udp_recv_from(s) {
                // Match the oldest outstanding request (FIFO completion),
                // ties broken by request id. Request ids are issued in time
                // order, so the id-ordered map makes (time, id) order
                // structural — iteration order can never decide the match,
                // which would diverge across processes and across
                // checkpoint/restore.
                if let Some((&id, _)) = self.outstanding.iter().min_by_key(|(id, t)| (**t, **id)) {
                    let t0 = self.outstanding.remove(&id).unwrap();
                    self.completed += 1;
                    self.latency_total += os.now() - t0;
                }
            }
            self.issue(os);
        }
    }

    fn on_timer(&mut self, os: &mut OsServices, token: u64) {
        match token {
            TOK_STOP => {
                self.stopped = true;
                os.finish();
            }
            TOK_RETRY if !self.stopped => {
                // UDP requests can be dropped: periodically top up the
                // request window so the closed loop never wedges.
                self.outstanding
                    .retain(|_, t0| os.now() - *t0 < SimTime::from_ms(10));
                self.issue(os);
                os.set_timer_in(SimTime::from_ms(1), TOK_RETRY);
            }
            _ => {}
        }
    }

    fn report(&self) -> String {
        format!(
            "memaslap completed={} tput={:.0}req/s latency={:.1}us",
            self.completed,
            self.throughput_rps(),
            self.mean_latency_us()
        )
    }

    fn done(&self) -> bool {
        self.stopped
    }

    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        snap_sock(w, self.sock);
        // Ascending id order, straight off the ordered map.
        w.usize(self.outstanding.len());
        for (id, t) in &self.outstanding {
            w.u64(*id);
            w.time(*t);
        }
        w.u64(self.next_req);
        w.time(self.started);
        w.bool(self.stopped);
        w.u64(self.completed);
        w.time(self.latency_total);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.sock = restore_sock(r)?;
        self.outstanding.clear();
        for _ in 0..r.usize()? {
            let id = r.u64()?;
            let t = r.time()?;
            self.outstanding.insert(id, t);
        }
        self.next_req = r.u64()?;
        self.started = r.time()?;
        self.stopped = r.bool()?;
        self.completed = r.u64()?;
        self.latency_total = r.time()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> MemaslapClient {
        MemaslapClient::new(Vec::new(), 8, 64, SimTime::from_ms(1))
    }

    /// Determinism regression: two clients holding the same in-flight
    /// request set — reached through different insertion/removal histories —
    /// must produce byte-identical snapshots and match replies to the same
    /// request. Under the pre-fix `HashMap` table (with the per-site sort
    /// removed, as this fix does), the snapshot encodings differ between
    /// the two instances and this test fails.
    #[test]
    fn outstanding_table_is_history_independent() {
        let mut a = client();
        let mut b = client();
        // Same final set {0..24 odd ids at t=id}, different histories.
        for id in 0..24u64 {
            a.outstanding.insert(id, SimTime::from_us(id));
        }
        for id in (0..24u64).step_by(2) {
            a.outstanding.remove(&id);
        }
        for id in (1..24u32).step_by(2).rev().map(u64::from) {
            b.outstanding.insert(id, SimTime::from_us(id));
        }
        let snap = |c: &MemaslapClient| {
            let mut w = SnapWriter::new();
            c.snapshot(&mut w).unwrap();
            w.into_vec()
        };
        assert_eq!(snap(&a), snap(&b), "same set, same snapshot bytes");
        // The FIFO match is (issue time, id)-deterministic: with id==time
        // here, both clients would complete request 1 first.
        let first_a = a.outstanding.iter().min_by_key(|(id, t)| (**t, **id));
        let first_b = b.outstanding.iter().min_by_key(|(id, t)| (**t, **id));
        assert_eq!(first_a.map(|(id, _)| *id), Some(1));
        assert_eq!(first_a.map(|(id, _)| *id), first_b.map(|(id, _)| *id));
    }

    /// The retry sweep (`on_timer` TOK_RETRY) must keep exactly the young
    /// requests, independent of iteration order.
    #[test]
    fn retry_sweep_is_order_independent() {
        let mut c = client();
        for id in [7u64, 3, 15, 1, 12, 5] {
            c.outstanding.insert(id, SimTime::from_ms(id));
        }
        let now = SimTime::from_ms(16);
        c.outstanding
            .retain(|_, t0| now - *t0 < SimTime::from_ms(10));
        let kept: Vec<u64> = c.outstanding.keys().copied().collect();
        assert_eq!(kept, vec![7, 12, 15], "young requests, ascending id order");
    }
}
