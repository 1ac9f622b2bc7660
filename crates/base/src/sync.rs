//! Per-channel synchronization (§5.5 of the paper).
//!
//! SimBricks avoids global synchronization: each pair of connected simulators
//! synchronizes only with each other, through the messages they already
//! exchange. Every message carries the virtual time at which the receiver
//! must process it (send time plus the channel's link latency Δ). Because
//! per-channel timestamps are monotonic, a received timestamp is an implicit
//! promise that nothing earlier will arrive, so the receiver may advance its
//! clock up to the most recent timestamp seen on every channel. SYNC messages
//! are emitted whenever a simulator has not sent anything for the
//! synchronization interval δ ≤ Δ, guaranteeing liveness.
//!
//! [`SyncPort`] wraps a [`ChannelEnd`] with this protocol; the component
//! [`Kernel`](crate::kernel::Kernel) aggregates one `SyncPort` per peer.

use std::collections::VecDeque;

use crate::channel::ChannelEnd;
use crate::impair::ImpairState;
use crate::pktbuf::PktBuf;
use crate::slot::{MsgType, OwnedMsg, MSG_SYNC};
use crate::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
use crate::spsc::SendError;
use crate::time::SimTime;

/// Statistics kept per synchronized port.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Data messages sent on this port.
    pub data_sent: u64,
    /// Data messages received on this port.
    pub data_received: u64,
    /// SYNC messages emitted on this port.
    pub syncs_sent: u64,
    /// SYNC messages received on this port.
    pub syncs_received: u64,
    /// Number of sends that had to be buffered locally because the shared
    /// queue was momentarily full.
    pub backpressured: u64,
    /// SYNC messages that were emitted ahead of their due time because the
    /// kernel was already awake emitting a SYNC on a sibling port (batched
    /// emission; a subset of `syncs_sent`).
    pub syncs_coalesced: u64,
    /// SYNC emissions that were suppressed entirely because the promise they
    /// would have carried did not exceed the one already sent (hierarchical
    /// sync domains only; these never reach the wire).
    pub syncs_suppressed: u64,
}

/// A channel endpoint participating in SimBricks synchronization.
pub struct SyncPort {
    // snap-skip: transport endpoint; reattached by the executor on restore
    chan: ChannelEnd,
    /// Highest receiver-side timestamp observed on the incoming queue; the
    /// peer promises not to send anything earlier than this.
    in_horizon: SimTime,
    /// Received data messages not yet delivered to the model.
    pending: VecDeque<OwnedMsg>,
    /// Local time at which a SYNC must be sent if nothing else was sent.
    next_sync_due: SimTime,
    /// Locally buffered outgoing messages that did not fit in the shared
    /// queue yet (drained opportunistically, preserving order). Payloads are
    /// pooled buffers: overflowing the queue costs a refcount move (or one
    /// pooled copy for borrowed payloads), never a heap allocation.
    outbox: VecDeque<(SimTime, MsgType, PktBuf)>,
    /// Set once the final (end-of-simulation) sync has been emitted.
    finalized: bool,
    /// Effective synchronization interval. Starts at the configured δ and
    /// widens (doubling per idle SYNC) up to [`SyncPort::sync_cap`] while no
    /// data flows, snapping back to δ on the next data message. This cuts
    /// pure-SYNC traffic on idle channels without affecting simulation
    /// results (promises are only ever emitted earlier or at a coarser
    /// cadence, never late).
    cur_interval: SimTime,
    /// Upper bound for adaptive widening of `cur_interval`. Defaults to the
    /// link latency Δ (the flat-protocol liveness bound); hierarchical sync
    /// raises it to the static multi-hop path floor of this port, which is a
    /// safe cadence because widened promises keep peers live in between.
    // snap-skip: static per-topology bound, recomputed at setup
    sync_cap: SimTime,
    /// Highest receiver-side timestamp ever sent on this port (data or SYNC).
    /// Promises must be monotonic, so every emission ratchets through this
    /// value; hierarchical sync additionally uses it to suppress SYNCs that
    /// would not raise the peer's horizon.
    last_promise: SimTime,
    /// Hierarchical sync domains active on this port's kernel. Under the
    /// hierarchical protocol a data send does *not* snap `cur_interval` back
    /// to δ: promises are widened explicitly every domain epoch, so paying
    /// the doubling ladder again after every data message only multiplies
    /// SYNC traffic on active paths (configuration, not dynamic state — not
    /// part of the snapshot).
    // snap-skip: protocol configuration, set at setup, never mutated mid-run
    hier: bool,
    /// Link impairment applied to outgoing data (loss, jitter, reordering,
    /// rate variation). The PRNG advances only on data sends, so impaired
    /// traffic is a pure function of the virtual-time send history and stays
    /// bit-identical across executors and transports.
    impair: ImpairState,
    stats: PortStats,
}

impl SyncPort {
    /// Wrap a channel endpoint in the synchronization protocol.
    pub fn new(chan: ChannelEnd) -> Self {
        let cur_interval = chan.params().sync_interval;
        let sync_cap = chan.latency();
        let impair = ImpairState::new(chan.params().impairment, chan.dir());
        SyncPort {
            chan,
            in_horizon: SimTime::ZERO,
            pending: VecDeque::new(),
            next_sync_due: SimTime::ZERO,
            outbox: VecDeque::new(),
            finalized: false,
            cur_interval,
            sync_cap,
            last_promise: SimTime::ZERO,
            hier: false,
            impair,
            stats: PortStats::default(),
        }
    }

    /// Switch this port to hierarchical-sync pacing (see the `hier` field).
    pub fn set_hier(&mut self, hier: bool) {
        self.hier = hier;
    }

    /// Raise the adaptive-widening cap from the default Δ to `cap` (clamped
    /// to at least Δ). Used by hierarchical sync, which computes a static
    /// multi-hop path floor per port: the peer provably cannot be starved at
    /// this cadence because every emitted promise covers at least that far
    /// ahead.
    pub fn set_sync_cap(&mut self, cap: SimTime) {
        self.sync_cap = cap.max(self.latency());
    }

    /// Highest receiver-side timestamp ever emitted on this port (the
    /// standing promise the peer currently holds from us).
    pub fn last_promise(&self) -> SimTime {
        self.last_promise
    }

    /// Link latency Δ of this channel.
    pub fn latency(&self) -> SimTime {
        self.chan.latency()
    }

    /// Process-wide unique id shared with the peer endpoint (see
    /// [`crate::channel::ChannelEnd::conn_id`]).
    pub fn conn_id(&self) -> u64 {
        self.chan.conn_id()
    }

    /// Configured (base) synchronization interval δ of this channel.
    pub fn sync_interval(&self) -> SimTime {
        self.chan.params().sync_interval
    }

    /// Effective synchronization interval right now: equals δ while data
    /// flows, widened up to the sync cap on idle channels.
    pub fn effective_sync_interval(&self) -> SimTime {
        self.cur_interval
    }

    /// Whether this channel participates in synchronization.
    pub fn sync_enabled(&self) -> bool {
        self.chan.sync_enabled()
    }

    /// Counters accumulated by this port so far.
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Drain the incoming queue: SYNC messages only raise the horizon, data
    /// messages are buffered for delivery to the model. Also flushes any
    /// locally buffered outgoing messages. Returns whether any message moved
    /// in either direction.
    pub fn poll(&mut self) -> bool {
        let mut moved = self.flush_outbox();
        while let Some(msg) = self.chan.recv_raw() {
            moved = true;
            debug_assert!(
                msg.timestamp >= self.in_horizon || !self.sync_enabled(),
                "per-channel timestamps must be monotonic ({} < {})",
                msg.timestamp,
                self.in_horizon
            );
            if msg.timestamp > self.in_horizon {
                self.in_horizon = msg.timestamp;
            }
            if msg.ty == MSG_SYNC {
                self.stats.syncs_received += 1;
            } else {
                self.stats.data_received += 1;
                self.pending.push_back(msg);
            }
        }
        moved
    }

    /// The peer's promise: no message with a timestamp below this will ever
    /// arrive. Unsynchronized channels report "end of time".
    pub fn horizon(&self) -> SimTime {
        if self.sync_enabled() {
            if self.peer_gone() && self.pending.is_empty() && !self.has_raw_input() {
                // A departed peer can never send anything again. The close
                // flag is read first: everything the peer sent before going
                // (another process, for a mapped ring) is in the ring by then.
                SimTime::MAX
            } else {
                self.in_horizon
            }
        } else {
            SimTime::MAX
        }
    }

    /// Timestamp of the next data message awaiting delivery, if any.
    pub fn next_pending(&self) -> Option<SimTime> {
        self.pending.front().map(|m| m.timestamp)
    }

    /// Deliver the next pending data message if it is due at `now`.
    /// Unsynchronized ports deliver regardless of timestamp.
    pub fn pop_due(&mut self, now: SimTime) -> Option<OwnedMsg> {
        match self.pending.front() {
            Some(m) if !self.sync_enabled() || m.timestamp <= now => self.pending.pop_front(),
            _ => None,
        }
    }

    /// Local time at which the next SYNC message is due (None when the
    /// channel is unsynchronized or already finalized).
    pub fn next_sync_due(&self) -> Option<SimTime> {
        if self.sync_enabled() && !self.finalized {
            Some(self.next_sync_due)
        } else {
            None
        }
    }

    /// Send a data message at local time `now`; the receiver will process it
    /// at `now + Δ`. Resets the sync timer (any message doubles as a sync)
    /// and — under the flat protocol — snaps the adaptive sync interval back
    /// to the configured δ: an active channel synchronizes at full
    /// resolution again. Hierarchical sync keeps the widened interval (see
    /// the `hier` field).
    pub fn send_data(&mut self, now: SimTime, ty: MsgType, payload: &[u8]) {
        debug_assert!(ty != MSG_SYNC, "type 0 is reserved for SYNC messages");
        if self.impair.active() {
            let buf = if payload.is_empty() {
                PktBuf::empty()
            } else {
                self.chan.pool().copy_from_slice(payload)
            };
            self.send_data_impaired(now, ty, buf);
            return;
        }
        let ts = now.saturating_add(self.latency());
        debug_assert!(
            ts >= self.last_promise || !self.sync_enabled(),
            "data send at {ts} violates standing promise {}",
            self.last_promise
        );
        self.last_promise = self.last_promise.max(ts);
        self.enqueue(ts, ty, payload);
        self.stats.data_sent += 1;
        if !self.hier {
            self.cur_interval = self.sync_interval();
        }
        self.next_sync_due = now.saturating_add(self.cur_interval);
    }

    /// Like [`SyncPort::send_data`], but takes an owned [`PktBuf`]: if the
    /// shared queue is momentarily full, the buffer moves into the outbox
    /// without any copy.
    pub fn send_data_buf(&mut self, now: SimTime, ty: MsgType, payload: PktBuf) {
        debug_assert!(ty != MSG_SYNC, "type 0 is reserved for SYNC messages");
        if self.impair.active() {
            self.send_data_impaired(now, ty, payload);
            return;
        }
        let ts = now.saturating_add(self.latency());
        debug_assert!(
            ts >= self.last_promise || !self.sync_enabled(),
            "data send at {ts} violates standing promise {}",
            self.last_promise
        );
        self.last_promise = self.last_promise.max(ts);
        self.enqueue_buf(ts, ty, payload);
        self.stats.data_sent += 1;
        if !self.hier {
            self.cur_interval = self.sync_interval();
        }
        self.next_sync_due = now.saturating_add(self.cur_interval);
    }

    /// Impaired data send (see [`crate::impair`]). Every decision draws from
    /// the per-direction seeded stream, which advances only here — never on
    /// SYNC paths, whose emission timing is executor-dependent — so the
    /// impaired packet sequence is deterministic.
    ///
    /// Wire monotonicity is preserved throughout: impairments only add delay
    /// (`arrival = now + Δ + extra`), a lost packet is replaced by a SYNC at
    /// the un-jittered base promise `now + Δ` (a jittered promise could
    /// overshoot a later packet's arrival), a reorder-deferred packet leaves
    /// the same SYNC in its slot (the send resets the sync timer, so silence
    /// would strand the peer on a stale horizon and can deadlock the pairwise
    /// protocol), and every emission still ratchets through `last_promise`.
    fn send_data_impaired(&mut self, now: SimTime, ty: MsgType, payload: PktBuf) {
        let base = now.saturating_add(self.latency());
        let had_deferred = self.impair.has_deferred();
        if self.impair.decide_loss() {
            // Dropped — but the peer still needs liveness: promise the base
            // arrival time the packet would have had.
            self.impair.lost += 1;
            if self.sync_enabled() {
                let ts = base.max(self.last_promise);
                self.enqueue(ts, MSG_SYNC, &[]);
                self.stats.syncs_sent += 1;
                self.last_promise = ts;
            }
        } else {
            let ts = base
                .saturating_add(self.impair.extra_delay(base))
                .max(self.last_promise);
            if !had_deferred && self.impair.decide_defer() {
                // Hold this packet back one slot: the next data message
                // overtakes it. last_promise deliberately does not ratchet to
                // the packet's own (jittered) timestamp — it has not reached
                // the wire yet — but the peer still needs liveness, exactly
                // as on the loss path: this send resets the sync timer below,
                // so without a promise here the peer would hold a stale
                // horizon for a whole interval and a pairwise wait cycle
                // could close (both sides blocked with t_sync > bound). The
                // un-jittered base arrival is honest: the held packet flushes
                // at `dts.max(last_promise)` with `dts >= base`.
                self.impair.defer(ts, ty, payload);
                if self.sync_enabled() {
                    let pts = base.max(self.last_promise);
                    self.enqueue(pts, MSG_SYNC, &[]);
                    self.stats.syncs_sent += 1;
                    self.last_promise = pts;
                }
            } else {
                self.last_promise = ts;
                self.enqueue_buf(ts, ty, payload);
                self.stats.data_sent += 1;
            }
        }
        // Flush a packet deferred on an *earlier* send right behind this one
        // (that is the reordering): it goes out at its own arrival time,
        // clamped up to the standing promise.
        if had_deferred {
            if let Some((dts, dty, dbuf)) = self.impair.take_deferred() {
                let ts = dts.max(self.last_promise);
                self.last_promise = ts;
                self.enqueue_buf(ts, dty, dbuf);
                self.stats.data_sent += 1;
            }
        }
        if !self.hier {
            self.cur_interval = self.sync_interval();
        }
        self.next_sync_due = now.saturating_add(self.cur_interval);
    }

    /// Impairment counters of this port: (lost, delayed, reordered).
    pub fn impair_counters(&self) -> (u64, u64, u64) {
        (self.impair.lost, self.impair.delayed, self.impair.reordered)
    }

    /// True while a packet is held back for reordering, waiting for the next
    /// data send to overtake it.
    pub fn has_deferred(&self) -> bool {
        self.impair.has_deferred()
    }

    /// Emit a SYNC message if one is due at local time `now` (§5.5: liveness).
    pub fn maybe_send_sync(&mut self, now: SimTime) {
        self.maybe_send_sync_batched(now, SimTime::ZERO);
    }

    /// Emit a SYNC message if one is due at local time `now`, or becomes due
    /// within `slack` (batched emission). The kernel passes a non-zero slack
    /// when it is already awake emitting a SYNC on a sibling port, so ports
    /// with staggered due times piggyback on a single wakeup instead of each
    /// forcing its own clock advance. Early emission is always safe: the
    /// promise carried by the SYNC is `now + Δ`, which is monotonic in `now`.
    pub fn maybe_send_sync_batched(&mut self, now: SimTime, slack: SimTime) {
        if !self.sync_enabled() || self.finalized {
            return;
        }
        if now.saturating_add(slack) >= self.next_sync_due {
            if now < self.next_sync_due {
                self.stats.syncs_coalesced += 1;
            }
            // Promises must be monotonic: never regress below an earlier
            // (possibly widened) promise.
            let ts = now.saturating_add(self.latency()).max(self.last_promise);
            self.enqueue(ts, MSG_SYNC, &[]);
            self.stats.syncs_sent += 1;
            self.last_promise = ts;
            self.widen_interval();
            self.next_sync_due = now.saturating_add(self.cur_interval);
        }
    }

    /// Adaptive widening: a SYNC emitted from the idle timer means the
    /// channel carried no data for a whole interval, so back off — double the
    /// interval, capped at `sync_cap` (Δ under the flat protocol).
    fn widen_interval(&mut self) {
        self.cur_interval =
            SimTime::from_ps(self.cur_interval.as_ps().saturating_mul(2)).min(self.sync_cap);
    }

    /// Hierarchical-sync promise emission at local time `now`: send a SYNC
    /// carrying the widened receiver-side timestamp `ts` (clamped up to the
    /// flat `now + Δ` floor) unless it would not raise the peer's horizon
    /// beyond the standing promise, in which case nothing reaches the wire
    /// and the attempt is counted as suppressed. Returns true when a SYNC was
    /// actually sent. `coalesced` marks emissions batched ahead of this
    /// port's own due time (domain epoch batching).
    ///
    /// A successful emission reschedules the port's sync timer to when the
    /// flat promise would catch up with the widened one (`ts - Δ`), so a
    /// single SYNC covers a whole idle gap instead of creeping through it at
    /// δ steps.
    pub fn send_promise(&mut self, now: SimTime, ts: SimTime, coalesced: bool) -> bool {
        if !self.sync_enabled() || self.finalized {
            return false;
        }
        let ts = ts.max(now.saturating_add(self.latency()));
        if ts <= self.last_promise {
            self.stats.syncs_suppressed += 1;
            // No gain to promise: push the timer out a full interval so a
            // stuck horizon is not retried on every advance.
            self.next_sync_due = now.saturating_add(self.cur_interval);
            return false;
        }
        if coalesced {
            self.stats.syncs_coalesced += 1;
        }
        self.enqueue(ts, MSG_SYNC, &[]);
        self.stats.syncs_sent += 1;
        self.last_promise = ts;
        self.widen_interval();
        self.next_sync_due = now
            .saturating_add(self.cur_interval)
            .max(ts.saturating_sub(self.latency()));
        true
    }

    /// Skip a due SYNC whose promise gain is not yet worth a message
    /// (hierarchical sync): count it as suppressed and push the due timer out
    /// a full interval so the gain can accumulate. Safe at any cadence up to
    /// the sync cap — the peer already holds `last_promise`, and a blocked
    /// fabric falls back to unconditional gain forwarding.
    pub fn defer_sync(&mut self, now: SimTime) {
        self.stats.syncs_suppressed += 1;
        self.next_sync_due = now.saturating_add(self.cur_interval);
    }

    /// Half the effective sync interval: the slack the kernel uses to batch
    /// sibling-port SYNC emission.
    pub fn coalesce_slack(&self) -> SimTime {
        SimTime::from_ps(self.cur_interval.as_ps() / 2)
    }

    /// Whether a raw (not yet polled) message is waiting on the incoming
    /// queue (a peek at its head slot).
    pub fn has_raw_input(&self) -> bool {
        self.next_raw().is_some()
    }

    /// Timestamp of the raw (not yet polled) message at the head of the
    /// incoming queue, if any.
    pub fn next_raw(&self) -> Option<SimTime> {
        self.chan.peek_timestamp()
    }

    /// Unconditionally emit a SYNC promise at local time `now` (checkpoint
    /// quiesce): the peer learns nothing will be sent before `now + Δ`, so it
    /// can deliver every event strictly below `now` and then pause too.
    /// Early emission is always safe (the promise is monotonic in `now`); the
    /// adaptive interval is left untouched so the post-restore cadence
    /// matches the saved state.
    pub fn emit_promise(&mut self, now: SimTime) {
        if !self.sync_enabled() || self.finalized {
            return;
        }
        let ts = now.saturating_add(self.latency()).max(self.last_promise);
        self.enqueue(ts, MSG_SYNC, &[]);
        self.stats.syncs_sent += 1;
        self.last_promise = ts;
        self.next_sync_due = self
            .next_sync_due
            .max(now.saturating_add(self.cur_interval));
    }

    /// Send the final "end of time" promise so the peer never waits for this
    /// component again after it finishes.
    pub fn finalize(&mut self) {
        // A packet still held back for reordering when the simulation ends is
        // dropped deterministically (it counts as lost): flushing it here
        // would make delivery depend on *when* finalize runs, which differs
        // across executors.
        if self.impair.take_deferred().is_some() {
            self.impair.lost += 1;
        }
        if self.sync_enabled() && !self.finalized {
            self.enqueue(SimTime::MAX, MSG_SYNC, &[]);
            self.stats.syncs_sent += 1;
            self.last_promise = SimTime::MAX;
        }
        self.finalized = true;
    }

    /// True once the peer endpoint has been dropped.
    pub fn peer_gone(&self) -> bool {
        self.chan.peer_closed()
    }

    /// True if all outgoing messages have reached the shared queue.
    pub fn flushed(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Number of received data messages polled off the channel but not yet
    /// delivered to the model — the port's instantaneous queue depth.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn enqueue(&mut self, ts: SimTime, ty: MsgType, payload: &[u8]) {
        if self.try_send_direct(ts, ty, payload) {
            return;
        }
        // Overflow: park a pooled copy (no heap traffic on a warm pool).
        let buf = if payload.is_empty() {
            PktBuf::empty()
        } else {
            self.chan.pool().copy_from_slice(payload)
        };
        self.outbox.push_back((ts, ty, buf));
    }

    fn enqueue_buf(&mut self, ts: SimTime, ty: MsgType, payload: PktBuf) {
        if self.try_send_direct(ts, ty, &payload) {
            return;
        }
        // Overflow: the owned buffer moves into the outbox, zero copies.
        self.outbox.push_back((ts, ty, payload));
    }

    /// Try to place a message directly into the shared queue. Returns true
    /// when the message needs no outbox entry (sent, or peer gone); false on
    /// backpressure.
    fn try_send_direct(&mut self, ts: SimTime, ty: MsgType, payload: &[u8]) -> bool {
        if !self.outbox.is_empty() {
            return false;
        }
        match self.chan.send_raw(ts, ty, payload) {
            Ok(()) => true,
            Err(SendError::Disconnected) => true,
            Err(SendError::TooLarge) => {
                panic!(
                    "message payload of {} bytes exceeds slot size",
                    payload.len()
                )
            }
            Err(SendError::Full) => {
                self.stats.backpressured += 1;
                false
            }
        }
    }

    /// Whether this port is fully quiesced for a checkpoint at time `t`:
    /// every outgoing message reached the shared queue, nothing raw is
    /// waiting to be polled, and the peer has promised at least `t + Δ`
    /// (its own pause promise), so every in-flight message is already in
    /// this port's pending buffer.
    pub fn quiesced_at(&self, t: SimTime) -> bool {
        if !self.sync_enabled() {
            return true;
        }
        self.flushed()
            && !self.has_raw_input()
            && self.horizon() >= t.saturating_add(self.latency())
    }

    /// Move buffered sends into the shared queue while it has room. Returns
    /// whether any was sent.
    fn flush_outbox(&mut self) -> bool {
        let mut sent = false;
        while let Some((ts, ty, payload)) = self.outbox.front() {
            match self.chan.send_raw(*ts, *ty, payload) {
                Ok(()) => {
                    self.outbox.pop_front();
                    sent = true;
                }
                Err(SendError::Disconnected) => {
                    self.outbox.clear();
                }
                Err(_) => break,
            }
        }
        sent
    }
}

impl Snapshot for SyncPort {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.time(self.in_horizon);
        w.usize(self.pending.len());
        for m in &self.pending {
            w.time(m.timestamp);
            w.u8(m.ty);
            w.bytes(&m.data);
        }
        w.time(self.next_sync_due);
        w.usize(self.outbox.len());
        for (ts, ty, payload) in &self.outbox {
            w.time(*ts);
            w.u8(*ty);
            w.bytes(payload);
        }
        w.bool(self.finalized);
        w.time(self.cur_interval);
        w.time(self.last_promise);
        self.stats.snapshot(w)?;
        self.impair.snapshot(w)
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.in_horizon = r.time()?;
        let n = r.usize()?;
        if n > 1 << 24 {
            return Err(SnapError::Corrupt(format!("absurd pending count {n}")));
        }
        self.pending.clear();
        for _ in 0..n {
            let timestamp = r.time()?;
            let ty = r.u8()?;
            let data = r.bytes()?;
            self.pending.push_back(OwnedMsg::new(timestamp, ty, data));
        }
        self.next_sync_due = r.time()?;
        let n = r.usize()?;
        if n > 1 << 24 {
            return Err(SnapError::Corrupt(format!("absurd outbox count {n}")));
        }
        self.outbox.clear();
        for _ in 0..n {
            let ts = r.time()?;
            let ty = r.u8()?;
            let payload = r.bytes()?;
            self.outbox.push_back((ts, ty, PktBuf::from_vec(payload)));
        }
        self.finalized = r.bool()?;
        self.cur_interval = r.time()?;
        self.last_promise = r.time()?;
        self.stats.restore(r)?;
        self.impair.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel_pair, ChannelParams};

    fn pair() -> (SyncPort, SyncPort) {
        let (a, b) = channel_pair(ChannelParams::default_sync());
        (SyncPort::new(a), SyncPort::new(b))
    }

    #[test]
    fn data_message_carries_latency_timestamp() {
        let (mut a, mut b) = pair();
        a.send_data(SimTime::from_ns(100), 3, b"xyz");
        b.poll();
        assert_eq!(b.horizon(), SimTime::from_ns(600));
        let m = b.pop_due(SimTime::from_ns(600)).unwrap();
        assert_eq!(m.ty, 3);
        assert_eq!(m.timestamp, SimTime::from_ns(600));
    }

    #[test]
    fn message_not_delivered_before_due_time() {
        let (mut a, mut b) = pair();
        a.send_data(SimTime::from_ns(0), 3, b"p");
        b.poll();
        assert!(b.pop_due(SimTime::from_ns(499)).is_none());
        assert!(b.pop_due(SimTime::from_ns(500)).is_some());
    }

    #[test]
    fn sync_messages_raise_horizon_but_are_not_delivered() {
        let (mut a, mut b) = pair();
        a.maybe_send_sync(SimTime::ZERO);
        b.poll();
        assert_eq!(b.horizon(), SimTime::from_ns(500));
        assert!(b.next_pending().is_none());
        assert!(b.pop_due(SimTime::MAX).is_none());
        assert_eq!(b.stats().syncs_received, 1);
    }

    #[test]
    fn sync_due_tracking() {
        let (mut a, _b) = pair();
        // Initially due immediately (initial sync of Fig. 5 Init).
        assert_eq!(a.next_sync_due(), Some(SimTime::ZERO));
        a.maybe_send_sync(SimTime::ZERO);
        assert_eq!(a.next_sync_due(), Some(SimTime::from_ns(500)));
        // Not due yet: nothing happens.
        a.maybe_send_sync(SimTime::from_ns(100));
        assert_eq!(a.next_sync_due(), Some(SimTime::from_ns(500)));
        // Sending data also resets the timer.
        a.send_data(SimTime::from_ns(300), 1, &[]);
        assert_eq!(a.next_sync_due(), Some(SimTime::from_ns(800)));
        assert_eq!(a.stats().syncs_sent, 1);
        assert_eq!(a.stats().data_sent, 1);
    }

    #[test]
    fn unsync_port_has_infinite_horizon_and_immediate_delivery() {
        let (a, b) = channel_pair(ChannelParams::default_unsync());
        let (mut a, mut b) = (SyncPort::new(a), SyncPort::new(b));
        assert_eq!(b.horizon(), SimTime::MAX);
        assert!(a.next_sync_due().is_none());
        a.send_data(SimTime::from_ns(1000), 2, b"k");
        b.poll();
        // Delivered even though the local clock is "behind" the timestamp.
        assert!(b.pop_due(SimTime::ZERO).is_some());
    }

    #[test]
    fn finalize_promises_end_of_time() {
        let (mut a, mut b) = pair();
        a.finalize();
        b.poll();
        assert_eq!(b.horizon(), SimTime::MAX);
        // Finalized port no longer schedules syncs.
        assert!(a.next_sync_due().is_none());
    }

    #[test]
    fn horizon_is_max_once_peer_dropped_and_drained() {
        let (mut a, mut b) = pair();
        a.send_data(SimTime::ZERO, 1, &[1]);
        drop(a);
        b.poll();
        // Still has a pending message: horizon stays at its timestamp.
        assert_eq!(b.horizon(), SimTime::from_ns(500));
        b.pop_due(SimTime::MAX).unwrap();
        assert_eq!(b.horizon(), SimTime::MAX);
    }

    /// A peer that sends and then goes away at once (a worker process that
    /// finishes first) must not look like "end of time" while what it sent is
    /// still in the ring, unpolled.
    #[test]
    fn departed_peer_is_not_end_of_time_until_ring_is_polled_empty() {
        let (mut a, mut b) = pair();
        a.send_data(SimTime::ZERO, 1, &[1]);
        a.emit_promise(SimTime::from_ns(1000));
        drop(a);
        assert!(b.peer_gone() && b.pending_len() == 0 && b.has_raw_input());
        assert_eq!(b.horizon(), SimTime::ZERO, "two messages wait in the ring");
        b.poll();
        assert_eq!(b.horizon(), SimTime::from_ns(1500));
        b.pop_due(SimTime::MAX).unwrap();
        assert_eq!(b.horizon(), SimTime::MAX);
    }

    #[test]
    fn outbox_absorbs_full_queue_and_preserves_order() {
        let (a, b) = channel_pair(ChannelParams::default_sync().with_queue_len(2));
        let (mut a, mut b) = (SyncPort::new(a), SyncPort::new(b));
        for i in 0..10u8 {
            a.send_data(SimTime::from_ns(i as u64), 1, &[i]);
        }
        assert!(!a.flushed());
        assert!(a.stats().backpressured > 0);
        let mut got = Vec::new();
        for _ in 0..20 {
            a.poll(); // flushes outbox as space frees up
            b.poll();
            while let Some(m) = b.pop_due(SimTime::MAX) {
                got.push(m.data[0]);
            }
        }
        assert_eq!(got, (0..10u8).collect::<Vec<_>>());
        assert!(a.flushed());
    }

    #[test]
    fn snapshot_roundtrip_preserves_protocol_state() {
        let (mut a, mut b) = pair();
        a.send_data(SimTime::from_ns(10), 1, b"one");
        a.send_data(SimTime::from_ns(20), 2, b"two");
        a.maybe_send_sync(SimTime::from_ns(600));
        b.poll();
        // b now holds pending messages and a raised horizon.
        let mut w = SnapWriter::new();
        b.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        // Restore into a freshly built port over a new channel pair.
        let (_a2, b2) = channel_pair(ChannelParams::default_sync());
        let mut b2 = SyncPort::new(b2);
        b2.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(b2.horizon(), b.horizon());
        assert_eq!(b2.next_pending(), b.next_pending());
        assert_eq!(b2.stats(), b.stats());
        let m1 = b2.pop_due(SimTime::MAX).unwrap();
        assert_eq!((m1.ty, m1.data.as_slice()), (1, b"one".as_slice()));
        let m2 = b2.pop_due(SimTime::MAX).unwrap();
        assert_eq!((m2.ty, m2.data.as_slice()), (2, b"two".as_slice()));
    }

    /// The hierarchical-sync promise ratchet must survive checkpoints: a
    /// restored port remembers the furthest promise it made and keeps
    /// suppressing emissions that would not raise the peer's horizon.
    #[test]
    fn snapshot_roundtrip_preserves_promise_ratchet() {
        let (mut a, _b) = pair();
        assert!(a.send_promise(SimTime::from_ns(100), SimTime::from_us(5), false));
        assert_eq!(a.last_promise(), SimTime::from_us(5));
        let mut w = SnapWriter::new();
        a.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let (a2, _b2) = channel_pair(ChannelParams::default_sync());
        let mut a2 = SyncPort::new(a2);
        a2.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(a2.last_promise(), SimTime::from_us(5));
        assert_eq!(a2.stats(), a.stats());
        // A promise at or below the restored ratchet is suppressed, exactly
        // as it would have been without the checkpoint.
        assert!(!a2.send_promise(SimTime::from_ns(200), SimTime::from_us(5), false));
        assert_eq!(a2.stats().syncs_suppressed, 1);
        // A higher promise still goes out.
        assert!(a2.send_promise(SimTime::from_ns(300), SimTime::from_us(6), false));
    }

    /// Truncating the port snapshot anywhere (including inside the appended
    /// `last_promise` field) fails with a clean error, never a panic or a
    /// silent misparse.
    #[test]
    fn truncated_port_snapshot_is_rejected() {
        let (mut a, _b) = pair();
        a.send_data(SimTime::from_ns(10), 1, b"x");
        a.send_promise(SimTime::from_ns(20), SimTime::from_us(2), false);
        let mut w = SnapWriter::new();
        a.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        for cut in 0..buf.len() {
            let (fresh, _peer) = channel_pair(ChannelParams::default_sync());
            let mut fresh = SyncPort::new(fresh);
            let err = fresh.restore(&mut SnapReader::new(&buf[..cut]));
            assert!(
                matches!(err, Err(SnapError::Truncated) | Err(SnapError::Corrupt(_))),
                "cut at {cut}: unexpected result {err:?}"
            );
        }
    }

    #[test]
    fn emit_promise_raises_peer_horizon_and_keeps_interval() {
        let (mut a, mut b) = pair();
        let before = a.effective_sync_interval();
        a.emit_promise(SimTime::from_ns(100));
        assert_eq!(a.effective_sync_interval(), before, "no adaptive widening");
        b.poll();
        assert_eq!(b.horizon(), SimTime::from_ns(600));
        assert!(b.quiesced_at(SimTime::from_ns(100)));
        assert!(!b.quiesced_at(SimTime::from_ns(101)));
    }

    #[test]
    fn multiple_data_same_timestamp_kept_fifo() {
        let (mut a, mut b) = pair();
        a.send_data(SimTime::from_ns(10), 1, &[1]);
        a.send_data(SimTime::from_ns(10), 2, &[2]);
        b.poll();
        assert_eq!(b.pop_due(SimTime::MAX).unwrap().ty, 1);
        assert_eq!(b.pop_due(SimTime::MAX).unwrap().ty, 2);
    }

    use crate::impair::Impairment;

    fn impaired_pair(imp: Impairment) -> (SyncPort, SyncPort) {
        let params = ChannelParams::default_sync()
            .with_latency(SimTime::from_ns(500))
            .with_queue_len(256)
            .with_impairment(imp);
        let (a, b) = channel_pair(params);
        (SyncPort::new(a), SyncPort::new(b))
    }

    /// Drive `n` sends through an impaired port and return the delivered
    /// (timestamp, ty) sequence plus the sender's impairment counters.
    fn run_impaired(imp: Impairment, n: u64) -> (Vec<(SimTime, MsgType)>, (u64, u64, u64)) {
        let (mut a, mut b) = impaired_pair(imp);
        for i in 0..n {
            a.send_data(SimTime::from_ns(i * 100), (1 + (i % 100)) as u8, &[i as u8]);
            b.poll();
        }
        a.finalize();
        b.poll();
        let mut out = Vec::new();
        while let Some(m) = b.pop_due(SimTime::MAX) {
            out.push((m.timestamp, m.ty));
        }
        (out, a.impair_counters())
    }

    #[test]
    fn impaired_send_is_deterministic_and_seed_sensitive() {
        let imp = Impairment::none()
            .with_bernoulli_loss(100)
            .with_jitter(SimTime::from_ns(50))
            .with_reorder(100)
            .with_seed(7);
        let (run1, c1) = run_impaired(imp, 200);
        let (run2, c2) = run_impaired(imp, 200);
        assert_eq!(run1, run2, "same seed must replay bit-identically");
        assert_eq!(c1, c2);
        assert!(c1.0 > 0, "expected some losses at 10%");
        let (run3, _) = run_impaired(imp.with_seed(8), 200);
        assert_ne!(run1, run3, "different seed must change the trace");
    }

    #[test]
    fn impaired_timestamps_stay_monotonic_and_delayed() {
        let imp = Impairment::none()
            .with_bernoulli_loss(150)
            .with_jitter(SimTime::from_ns(400))
            .with_reorder(200)
            .with_seed(3);
        let (out, counters) = run_impaired(imp, 300);
        let mut last = SimTime::ZERO;
        for (ts, _) in &out {
            assert!(*ts >= last, "wire timestamps must never regress");
            last = *ts;
        }
        let (lost, delayed, reordered) = counters;
        assert!(lost > 0 && delayed > 0 && reordered > 0);
        // Every surviving packet arrives (losses may include a deferred one
        // dropped at finalize).
        assert_eq!(out.len() as u64, 300 - lost);
    }

    #[test]
    fn lost_packet_still_promises_progress() {
        // Loss rate 100%: nothing is delivered, but the peer's horizon must
        // still advance via replacement SYNCs.
        let imp = Impairment::none().with_bernoulli_loss(1000).with_seed(1);
        let (mut a, mut b) = impaired_pair(imp);
        a.send_data(SimTime::from_ns(100), 1, &[1]);
        b.poll();
        assert!(b.pop_due(SimTime::MAX).is_none());
        assert_eq!(
            b.horizon(),
            SimTime::from_ns(600),
            "SYNC at un-jittered base"
        );
        assert_eq!(a.impair_counters().0, 1);
    }

    #[test]
    fn deferred_packet_survives_snapshot_restore() {
        let imp = Impairment::none().with_reorder(1000).with_seed(5);
        let (mut a, _b) = impaired_pair(imp);
        // reorder probability 1000‰: the first send is always deferred.
        a.send_data(SimTime::from_ns(10), 7, &[42]);
        assert_eq!(
            a.stats().data_sent,
            0,
            "deferred packet not yet on the wire"
        );
        let mut w = SnapWriter::new();
        a.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let (a2, mut b2) = impaired_pair(imp);
        let mut a2 = {
            let mut p = a2;
            p.restore(&mut SnapReader::new(&buf)).unwrap();
            p
        };
        // The next send flushes the restored deferred packet behind it.
        a2.send_data(SimTime::from_ns(20), 8, &[43]);
        b2.poll();
        let first = b2.pop_due(SimTime::MAX).unwrap();
        let second = b2.pop_due(SimTime::MAX).unwrap();
        assert_eq!(first.ty, 8, "current packet overtakes the deferred one");
        assert_eq!(second.ty, 7, "deferred packet restored across snapshot");
        assert!(second.timestamp >= first.timestamp);
    }

    #[test]
    fn deferred_packet_still_promises_progress() {
        // Reorder probability 1000‰: the first send is always deferred. The
        // send still resets the sync timer, so it must leave a SYNC at the
        // un-jittered base arrival — a silent deferral strands the peer on a
        // stale horizon and can close a pairwise deadlock cycle (both sides
        // blocked with t_sync > bound). Regression test for a livelock found
        // by checkpoint-ring recording over a reorder-impaired link.
        let imp = Impairment::none()
            .with_reorder(1000)
            .with_jitter(SimTime::from_ns(200))
            .with_seed(5);
        let (mut a, mut b) = impaired_pair(imp);
        a.send_data(SimTime::from_ns(100), 7, &[42]);
        b.poll();
        assert!(b.pop_due(SimTime::MAX).is_none(), "packet held back");
        assert_eq!(
            b.horizon(),
            SimTime::from_ns(600),
            "deferral must promise the un-jittered base arrival"
        );
        assert!(a.last_promise() >= SimTime::from_ns(600));
    }

    #[test]
    fn finalize_drops_deferred_deterministically() {
        let imp = Impairment::none().with_reorder(1000).with_seed(9);
        let (mut a, mut b) = impaired_pair(imp);
        a.send_data(SimTime::from_ns(10), 7, &[42]);
        a.finalize();
        b.poll();
        assert!(
            b.pop_due(SimTime::MAX).is_none(),
            "deferred packet dropped at end"
        );
        assert_eq!(a.impair_counters().0, 1, "counted as lost");
        assert_eq!(b.horizon(), SimTime::MAX);
    }
}
