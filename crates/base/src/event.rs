//! Discrete-event queue used by component simulators and the kernel.
//!
//! Events are ordered by time; ties are broken by schedule order so that
//! repeated runs process same-time events identically (a requirement for the
//! determinism property evaluated in §7.6). The schedule-order sequence
//! numbers are preserved across checkpoint/restore, so a restored run breaks
//! same-time ties exactly like the uninterrupted one.
//!
//! The queue is a binary heap keyed on (time, sequence number). `schedule`
//! and `pop_due` are O(log n) in the events the queue holds, `next_time` is
//! O(1) unless cancelled events reach the top, and an empty queue owns no
//! heap memory. A heap suffices because a kernel holds few timers: on the
//! benchmark's workloads no queue ever held more than 22 live events
//! (`fattree128_hier` 13, `dctcp_bulk` 16, `scaleup_udp` 22, the three racks
//! rows 13), so a pop sifts through at most five levels. What grows with the
//! fabric is the number of kernels, so each queue costs only the events it
//! holds.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::snap::{SnapReader, SnapResult, SnapWriter};
use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation on the queue
/// that issued it. Each queue numbers its events in schedule order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Entry<T> {
    time: SimTime,
    seq: u64,
    data: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed (time, seq): `BinaryHeap` is a max-heap, so the earliest
    /// entry is its top. Seqs are unique within a queue, so no two entries
    /// compare equal and the pop order is total.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered event queue with stable ordering, backed by a binary heap.
///
/// Bookkeeping is sized for the overwhelmingly common never-cancelled case:
/// `schedule` and `pop_due` touch only the heap and a live-event counter —
/// no per-event set insert/remove. Cancellation is the rare path: it
/// validates the id against the heap itself (an already-fired id simply is
/// not found) and records it in a small set; cancelled entries are dropped
/// when they reach the top of the heap.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Number of live (non-cancelled) events.
    live: usize,
    /// Ids cancelled while still queued (removed lazily; empty in the
    /// never-cancelled steady state). Ordered set: only membership is
    /// queried today, but an ordered container keeps any future iteration
    /// (e.g. a diagnostic dump) deterministic by construction.
    cancelled: BTreeSet<u64>,
    /// Sequence number of the next scheduled event: same-time events pop in
    /// schedule order.
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue. It allocates nothing until the first `schedule`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: 0,
            cancelled: BTreeSet::new(),
            next_seq: 1,
        }
    }

    /// Schedule `data` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, data: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, data });
        self.live += 1;
        EventId(seq)
    }

    /// Cancel an event scheduled on this queue. Returns true iff the event
    /// was still pending: cancelling an id that already fired or was already
    /// cancelled is a no-op that returns false. Ids from another queue, or
    /// ids that fired before a snapshot this queue was restored from, are
    /// outside the contract.
    ///
    /// This is the rare path: validity is established by scanning the heap
    /// for the id, so the hot `schedule`/`pop_due` pair carries no per-event
    /// set bookkeeping. O(n) in the number of queued events, which is small
    /// for every component model.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.cancelled.contains(&id.0) || !self.heap.iter().any(|e| e.seq == id.0) {
            return false;
        }
        self.cancelled.insert(id.0);
        self.live -= 1;
        true
    }

    /// Time of the earliest pending (non-cancelled) event.
    pub fn next_time(&mut self) -> Option<SimTime> {
        // Lazily-cancelled entries are dropped once they reach the top.
        while let Some(top) = self.heap.peek() {
            if !self.cancelled.remove(&top.seq) {
                return Some(top.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Pop the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.next_time()? > now {
            return None;
        }
        let e = self.heap.pop()?;
        self.live -= 1;
        Some((e.time, e.data))
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Encode the pending events (time, sequence number, payload via `enc`)
    /// in deterministic (time, seq) order, dropping already-cancelled
    /// entries. Sequence numbers are preserved so restored events keep their
    /// same-time tie-break order; restore continues numbering after the
    /// largest one, so post-restore events order behind them.
    pub fn snapshot_with(
        &self,
        w: &mut SnapWriter,
        enc: impl Fn(&T, &mut SnapWriter),
    ) -> SnapResult<()> {
        let mut live: Vec<&Entry<T>> = self
            .heap
            .iter()
            .filter(|e| !self.cancelled.contains(&e.seq))
            .collect();
        live.sort_by_key(|e| (e.time, e.seq));
        w.usize(live.len());
        for e in live {
            w.time(e.time);
            w.u64(e.seq);
            enc(&e.data, w);
        }
        Ok(())
    }

    /// Rebuild a queue from [`EventQueue::snapshot_with`] output.
    pub fn restore_with(
        r: &mut SnapReader,
        dec: impl Fn(&mut SnapReader) -> SnapResult<T>,
    ) -> SnapResult<Self> {
        let n = r.usize()?;
        let mut q = EventQueue::new();
        let mut max_seq = 0u64;
        for _ in 0..n {
            let time = r.time()?;
            let seq = r.u64()?;
            let data = dec(r)?;
            max_seq = max_seq.max(seq);
            q.heap.push(Entry { time, seq, data });
        }
        q.live = q.heap.len();
        q.next_seq = max_seq.saturating_add(1);
        Ok(q)
    }
}

/// The reference queue for the differential tests: a `Vec` scanned linearly
/// for the least (time, seq), with cancelled entries removed on the spot.
/// Obviously correct and sharing no code with [`EventQueue`]; same public
/// surface, same per-queue sequence numbering and the same cancel contract.
#[cfg(test)]
pub mod oracle {
    use super::EventId;
    use crate::snap::{SnapReader, SnapResult, SnapWriter};
    use crate::time::SimTime;

    /// Reference event queue: unordered `(time, seq, data)` entries.
    pub struct ScanEventQueue<T> {
        entries: Vec<(SimTime, u64, T)>,
        next_seq: u64,
    }

    impl<T> Default for ScanEventQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> ScanEventQueue<T> {
        /// An empty reference queue.
        pub fn new() -> Self {
            ScanEventQueue {
                entries: Vec::new(),
                next_seq: 1,
            }
        }

        /// Schedule `data` at `time`.
        pub fn schedule(&mut self, time: SimTime, data: T) -> EventId {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((time, seq, data));
            EventId(seq)
        }

        /// Remove the pending event `id`; false if it is not pending.
        pub fn cancel(&mut self, id: EventId) -> bool {
            match self.entries.iter().position(|e| e.1 == id.0) {
                Some(i) => {
                    self.entries.swap_remove(i);
                    true
                }
                None => false,
            }
        }

        /// Index of the entry with the least (time, seq).
        fn earliest(&self) -> Option<usize> {
            (0..self.entries.len()).min_by_key(|&i| (self.entries[i].0, self.entries[i].1))
        }

        /// Time of the earliest pending event.
        pub fn next_time(&mut self) -> Option<SimTime> {
            self.earliest().map(|i| self.entries[i].0)
        }

        /// Pop the earliest event due at or before `now`.
        pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
            let i = self.earliest().filter(|&i| self.entries[i].0 <= now)?;
            let (time, _, data) = self.entries.swap_remove(i);
            Some((time, data))
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether no events are pending.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Encode pending events in (time, seq) order.
        pub fn snapshot_with(
            &self,
            w: &mut SnapWriter,
            enc: impl Fn(&T, &mut SnapWriter),
        ) -> SnapResult<()> {
            let mut order: Vec<&(SimTime, u64, T)> = self.entries.iter().collect();
            order.sort_by_key(|e| (e.0, e.1));
            w.usize(order.len());
            for (time, seq, data) in order {
                w.time(*time);
                w.u64(*seq);
                enc(data, w);
            }
            Ok(())
        }

        /// Rebuild from [`ScanEventQueue::snapshot_with`] output.
        pub fn restore_with(
            r: &mut SnapReader,
            dec: impl Fn(&mut SnapReader) -> SnapResult<T>,
        ) -> SnapResult<Self> {
            let n = r.usize()?;
            let mut q = ScanEventQueue::new();
            for _ in 0..n {
                let time = r.time()?;
                let seq = r.u64()?;
                q.entries.push((time, seq, dec(r)?));
                q.next_seq = q.next_seq.max(seq + 1);
            }
            Ok(q)
        }
    }
}

/// Model-based equivalence of the heap against the linear-scan reference:
/// random interleaved schedule/pop_due/cancel/snapshot/restore tapes must
/// produce identical pop sequences, cancel outcomes, lengths, and next-event
/// times, and restored queues must encode the same (time, seq, payload)
/// order.
#[cfg(test)]
mod properties {
    use super::oracle::ScanEventQueue;
    use super::*;
    use crate::impair::check_cases;
    use crate::snap::{SnapReader, SnapWriter};

    /// Decode a snapshot into its (time, seq, payload) sequence. Both
    /// queues number their events the same way, so the seqs must agree too.
    fn decode(buf: &[u8]) -> Vec<(SimTime, u64, u64)> {
        let mut r = SnapReader::new(buf);
        let n = r.usize().unwrap();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.time().unwrap();
            let seq = r.u64().unwrap();
            out.push((t, seq, r.u64().unwrap()));
        }
        assert!(r.is_empty());
        out
    }

    /// Tapes of up to 299 operations, weighted 4 : 3 : 2 : 1:
    /// - schedule at `now + delta` (saturating; one in three deltas is
    ///   small, one reaches far into the future, one is `u64::MAX`);
    /// - advance `now` by `0..100_000` and pop everything due on both;
    /// - cancel a random id-pair among those scheduled so far;
    /// - snapshot both queues and replace them by their restored copies.
    #[test]
    fn heap_equals_scan_oracle() {
        check_cases("heap_equals_scan_oracle", 0xe7e47, 256, |rng| {
            let mut heap: EventQueue<u64> = EventQueue::new();
            let mut scan: ScanEventQueue<u64> = ScanEventQueue::new();
            let mut ids: Vec<(EventId, EventId)> = Vec::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for _ in 0..1 + rng.below(299) {
                match rng.below(10) {
                    0..=3 => {
                        let delta = match rng.below(3) {
                            0 => rng.below(5_000),
                            1 => rng.below(u64::MAX / 2),
                            _ => u64::MAX,
                        };
                        let t = SimTime(now.saturating_add(delta));
                        let hid = heap.schedule(t, payload);
                        let sid = scan.schedule(t, payload);
                        payload += 1;
                        ids.push((hid, sid));
                    }
                    4..=6 => {
                        now = now.saturating_add(rng.below(100_000));
                        loop {
                            let h = heap.pop_due(SimTime(now));
                            let s = scan.pop_due(SimTime(now));
                            assert_eq!(h, s, "pop divergence at now={now}");
                            if h.is_none() {
                                break;
                            }
                        }
                    }
                    7 | 8 => {
                        let i = rng.next_u64() as usize;
                        if !ids.is_empty() {
                            let (hid, sid) = ids[i % ids.len()];
                            assert_eq!(heap.cancel(hid), scan.cancel(sid), "cancel divergence");
                        }
                    }
                    _ => {
                        let mut hw = SnapWriter::new();
                        heap.snapshot_with(&mut hw, |v, w| w.u64(*v)).unwrap();
                        let hbuf = hw.into_vec();
                        let mut sw = SnapWriter::new();
                        scan.snapshot_with(&mut sw, |v, w| w.u64(*v)).unwrap();
                        let sbuf = sw.into_vec();
                        // Identical live sets in identical (time, seq)
                        // order — the restored tie-break ordering.
                        assert_eq!(decode(&hbuf), decode(&sbuf));
                        let mut r = SnapReader::new(&hbuf);
                        heap = EventQueue::restore_with(&mut r, |r| r.u64()).unwrap();
                        let mut r = SnapReader::new(&sbuf);
                        scan = ScanEventQueue::restore_with(&mut r, |r| r.u64()).unwrap();
                        // Pre-snapshot ids stay cancellable on both restored
                        // queues (seqs are preserved by the encoding).
                    }
                }
                assert_eq!(heap.len(), scan.len(), "len divergence");
                assert_eq!(heap.next_time(), scan.next_time(), "next_time divergence");
            }
            // Full drain: the tails must agree event for event.
            loop {
                let h = heap.pop_due(SimTime::MAX);
                let s = scan.pop_due(SimTime::MAX);
                assert_eq!(h, s, "drain divergence");
                if h.is_none() {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(q.next_time(), Some(SimTime::from_ns(10)));
        let mut out = Vec::new();
        while let Some((_, d)) = q.pop_due(SimTime::MAX) {
            out.push(d);
        }
        assert_eq!(out, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(5), i);
        }
        let mut out = Vec::new();
        while let Some((_, d)) = q.pop_due(SimTime::from_ns(5)) {
            out.push(d);
        }
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        assert!(q.pop_due(SimTime::from_ns(5)).is_none());
        assert_eq!(q.pop_due(SimTime::from_ns(10)).unwrap().1, 1);
        assert!(q.pop_due(SimTime::from_ns(15)).is_none());
        assert_eq!(q.pop_due(SimTime::from_ns(25)).unwrap().1, 2);
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ns(10), "a");
        let b = q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel returns false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time(), Some(SimTime::from_ns(20)));
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().1, "b");
        assert!(!q.cancel(b), "cancel after pop is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_then_reschedule_is_independent() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ns(10), 1);
        q.cancel(a);
        let _b = q.schedule(SimTime::from_ns(10), 2);
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().1, 2);
        assert!(q.pop_due(SimTime::MAX).is_none());
    }

    /// Regression (checkpoint hardening): cancelling an event that already
    /// fired must be a no-op returning false — it used to return true and
    /// corrupt the live-event count, leaking a phantom entry into the
    /// cancelled set.
    #[test]
    fn cancel_of_already_fired_event_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ns(10), "a");
        let b = q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(q.pop_due(SimTime::from_ns(15)).unwrap().1, "a");
        assert!(!q.cancel(a), "already-fired id cannot be cancelled");
        assert_eq!(q.len(), 1, "live count untouched by the bogus cancel");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_preserves_order_and_drops_cancelled() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1u64);
        let c = q.schedule(SimTime::from_ns(10), 2u64);
        q.schedule(SimTime::from_ns(10), 3u64);
        q.schedule(SimTime::from_ns(5), 4u64);
        q.cancel(c);
        let mut w = SnapWriter::new();
        q.snapshot_with(&mut w, |v, w| w.u64(*v)).unwrap();
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        let mut back: EventQueue<u64> = EventQueue::restore_with(&mut r, |r| r.u64()).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.len(), 3);
        let mut order = Vec::new();
        while let Some((_, v)) = back.pop_due(SimTime::MAX) {
            order.push(v);
        }
        assert_eq!(
            order,
            vec![4, 1, 3],
            "time order, then original schedule order"
        );
    }

    /// Same-time tie-break order must survive a snapshot: events scheduled
    /// *after* a restore always order behind restored events at the same
    /// time, exactly as in the uninterrupted run.
    #[test]
    fn post_restore_events_order_behind_restored_same_time_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(50), "restored-1");
        q.schedule(SimTime::from_ns(50), "restored-2");
        let mut w = SnapWriter::new();
        q.snapshot_with(&mut w, |v, w| w.str(v)).unwrap();
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        let mut back: EventQueue<String> = EventQueue::restore_with(&mut r, |r| r.str()).unwrap();
        back.schedule(SimTime::from_ns(50), "new".to_string());
        let mut order = Vec::new();
        while let Some((_, v)) = back.pop_due(SimTime::MAX) {
            order.push(v);
        }
        assert_eq!(order, vec!["restored-1", "restored-2", "new"]);
    }

    /// Ticks spread over the whole 64-bit range, every power of 64 and its
    /// neighbours up to the `SimTime::MAX` promise, scheduled latest first,
    /// pop in exact time order.
    #[test]
    fn far_future_ticks_pop_in_time_order() {
        let mut q = EventQueue::new();
        let mut ticks: Vec<u64> = (0..11u32)
            .flat_map(|k| {
                let base = 1u64 << (6 * k);
                [base, base + 1, base * 3 + 7]
            })
            .collect();
        ticks.push(u64::MAX); // SimTime::MAX promise
        ticks.push(0);
        for &t in ticks.iter().rev() {
            q.schedule(SimTime(t), t);
        }
        let mut out = Vec::new();
        while let Some((t, v)) = q.pop_due(SimTime::MAX) {
            assert_eq!(t.0, v);
            out.push(v);
        }
        ticks.sort_unstable();
        assert_eq!(out, ticks);
    }

    /// Scheduling an event earlier than one already popped still delivers
    /// it in correct relative order with the events still queued.
    #[test]
    fn schedule_behind_cursor_pops_before_frontier() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100), "frontier");
        q.schedule(SimTime::from_ns(200), "later");
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().1, "frontier");
        q.schedule(SimTime::from_ns(10), "past");
        q.schedule(SimTime::from_ns(150), "mid");
        assert_eq!(q.next_time(), Some(SimTime::from_ns(10)));
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop_due(SimTime::MAX) {
            out.push(v);
        }
        assert_eq!(out, vec!["past", "mid", "later"]);
    }

    /// Interleaved schedule/pop at a single tick keeps FIFO order even as
    /// entries arrive while that tick's events are being drained.
    #[test]
    fn same_tick_schedule_during_drain_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop_due(t).unwrap().1, 0);
        q.schedule(t, 2); // arrives while the tick is half-drained
        assert_eq!(q.pop_due(t).unwrap().1, 1);
        assert_eq!(q.pop_due(t).unwrap().1, 2);
        assert!(q.pop_due(t).is_none());
    }

    /// Differential check against the linear-scan oracle: a fixed
    /// pseudo-random operation tape produces identical pop sequences and
    /// cancel outcomes. (`properties::heap_equals_scan_oracle` drives the
    /// same comparison with seeded random tapes.)
    #[test]
    fn heap_matches_scan_oracle_on_fixed_tape() {
        let mut heap = EventQueue::new();
        let mut scan = oracle::ScanEventQueue::new();
        let mut ids: Vec<(EventId, EventId)> = Vec::new();
        let mut x = 0x2545f4914f6cdd1du64; // splitmix-ish LCG tape
        let mut rand = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut now = 0u64;
        for op in 0..2000 {
            match rand() % 4 {
                0 | 1 => {
                    let t = now + rand() % 2_000_000;
                    let hid = heap.schedule(SimTime(t), op);
                    let sid = scan.schedule(SimTime(t), op);
                    ids.push((hid, sid));
                }
                2 => {
                    now += rand() % 500_000;
                    loop {
                        let h = heap.pop_due(SimTime(now));
                        let s = scan.pop_due(SimTime(now));
                        match (h, s) {
                            (None, None) => break,
                            (Some(h), Some(s)) => assert_eq!(h, s, "pop divergence"),
                            (h, s) => panic!("pop presence divergence: {h:?} vs {s:?}"),
                        }
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let (hid, sid) = ids[(rand() % ids.len() as u64) as usize];
                        assert_eq!(heap.cancel(hid), scan.cancel(sid), "cancel divergence");
                    }
                }
            }
            assert_eq!(heap.len(), scan.len(), "len divergence");
            assert_eq!(heap.next_time(), scan.next_time(), "next_time divergence");
        }
    }
}
