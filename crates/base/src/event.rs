//! Discrete-event queue used by component simulators and the kernel.
//!
//! Events are ordered by time; ties are broken by schedule order so that
//! repeated runs process same-time events identically (a requirement for the
//! determinism property evaluated in §7.6). The schedule-order sequence
//! numbers are preserved across checkpoint/restore, so a restored run breaks
//! same-time ties exactly like the uninterrupted one.
//!
//! The queue is a hashed hierarchical timing wheel (Varghese & Lauck scheme,
//! deadline-ordered variant): `LEVELS` levels of `SLOTS` slots each, where a
//! level-`k` slot spans `SLOTS^k` picosecond ticks. `schedule` is O(1), and
//! popping advances a cursor to the earliest occupied slot (found via
//! per-level occupancy bitmasks), cascading far-future slots downward at
//! most `LEVELS` times per event. With 11 levels of 64 slots the wheel spans
//! the full 64-bit tick range, so `SimTime::MAX` promises need no overflow
//! list. Unlike a binary heap, cost per event is independent of the number
//! of queued events — the property that keeps datacenter-scale event rates
//! (fat-tree fabrics with thousands of timers per kernel) constant-time.

use std::collections::BTreeSet;

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

/// Bits per wheel level: 64 slots each.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// 11 levels × 6 bits = 66 bits ≥ 64: the wheel covers every `u64` tick, so
/// even `SimTime::MAX` promises live in a (topmost) slot.
const LEVELS: usize = 11;

/// A time-ordered event queue with stable ordering, backed by a hierarchical
/// timing wheel.
///
/// Bookkeeping is sized for the overwhelmingly common never-cancelled case:
/// `schedule` and `pop_due` touch only the wheel and a live-event counter —
/// no per-event hash-set insert/remove. Cancellation is the rare path: it
/// validates the id against the queue itself (an already-fired id simply is
/// not found) and records it in a small lazily-drained cancelled set.
///
/// # Invariant
///
/// Every entry stored at `(level, slot)` satisfies
/// `level == level_for(cursor, tick)` and `slot == slot_index(tick, level)`.
/// The cursor only ever advances to the *start* of the earliest occupied
/// slot (which is then drained), and a case analysis over the hashed level
/// assignment shows every other slot's placement stays valid across such an
/// advance — so cascading touches exactly one slot per advance.
pub struct EventQueue<T> {
    /// `levels[k][s]`: entries whose tick first differs from `cursor` in bit
    /// range `[6k, 6k+6)` and whose level-`k` slot index is `s`. Entries
    /// within a slot are in insertion order, *not* (time, seq) order.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level slot occupancy bitmask (bit `s` set ⇒ `levels[k][s]` may be
    /// non-empty). Cleared only when a slot is drained.
    occupied: [u64; LEVELS],
    /// All wheel entries have tick strictly greater than `cursor`; entries
    /// at or before it live in `ready`.
    cursor: u64,
    /// Due/frontier entries, sorted by (time, seq) *descending* so popping
    /// takes from the back. `ready_sorted == false` after an out-of-order
    /// push (schedule at or before the cursor).
    ready: Vec<Entry<T>>,
    ready_sorted: bool,
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

/// Level whose bit range contains the highest bit where `tick` differs from
/// `cursor`. Caller guarantees `tick > cursor`.
#[inline]
fn level_for(cursor: u64, tick: u64) -> usize {
    let diff = cursor ^ tick;
    debug_assert!(diff != 0);
    ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
}

/// Slot index of `tick` at `level` (depends on the tick alone).
#[inline]
fn slot_index(tick: u64, level: usize) -> usize {
    ((tick >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

/// Earliest tick a `(level, slot)` pair can hold given the current cursor:
/// cursor's bits above the level, the slot index at the level, zeros below.
#[inline]
fn slot_deadline(cursor: u64, level: usize, slot: usize) -> u64 {
    let shift = SLOT_BITS as usize * level;
    let high = if shift + SLOT_BITS as usize >= 64 {
        0
    } else {
        cursor & (u64::MAX << (shift + SLOT_BITS as usize))
    };
    high | ((slot as u64) << shift)
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            ready: Vec::new(),
            ready_sorted: true,
            live: 0,
            cancelled: BTreeSet::new(),
            next_seq: 1,
        }
    }

    /// Schedule `data` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, data: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { time, seq, data });
        self.live += 1;
        EventId(seq)
    }

    fn insert(&mut self, e: Entry<T>) {
        let tick = e.time.0;
        if tick <= self.cursor {
            // At or behind the frontier: due immediately. Keep `ready` in
            // descending (time, seq) order lazily.
            if self
                .ready
                .last()
                .is_some_and(|l| (e.time, e.seq) > (l.time, l.seq))
            {
                self.ready_sorted = false;
            }
            self.ready.push(e);
            return;
        }
        let level = level_for(self.cursor, tick);
        let slot = slot_index(tick, level);
        self.levels[level][slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Move entries to `ready` until it holds the earliest live event (or
    /// the wheel is exhausted). Drains at most one level-0 slot; cascades
    /// higher-level slots downward as the cursor reaches them.
    fn ensure_ready(&mut self) {
        loop {
            // Drop lazily-cancelled entries from the back (next to pop).
            while let Some(last) = self.ready.last() {
                if self.cancelled.remove(&last.seq) {
                    self.ready.pop();
                } else {
                    break;
                }
            }
            if !self.ready.is_empty() {
                if !self.ready_sorted {
                    self.ready
                        .sort_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                    self.ready_sorted = true;
                    continue; // re-run the cancelled sweep on the new order
                }
                return;
            }
            // Earliest occupied slot across levels. Levels partition the
            // tick range beyond the cursor into ordered, disjoint windows,
            // so the minimum slot deadline identifies the slot holding the
            // globally earliest entry.
            let mut best: Option<(u64, usize, usize)> = None;
            for (level, &occ) in self.occupied.iter().enumerate() {
                if occ == 0 {
                    continue;
                }
                let slot = occ.trailing_zeros() as usize;
                let deadline = slot_deadline(self.cursor, level, slot);
                if best.is_none_or(|(d, _, _)| deadline < d) {
                    best = Some((deadline, level, slot));
                }
            }
            let Some((deadline, level, slot)) = best else {
                return; // queue empty
            };
            let entries = std::mem::take(&mut self.levels[level][slot]);
            self.occupied[level] &= !(1 << slot);
            self.cursor = deadline;
            if level == 0 {
                // A level-0 slot holds exactly one tick value; order its
                // entries by seq (descending — popped from the back).
                self.ready = entries;
                self.ready
                    .sort_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                self.ready_sorted = true;
            } else {
                // Cascade: with the cursor at the slot's start, every entry
                // re-hashes to a strictly lower level (or to `ready` for the
                // deadline tick itself). Filter cancelled entries here so
                // they don't cascade repeatedly.
                for e in entries {
                    if self.cancelled.remove(&e.seq) {
                        continue;
                    }
                    self.insert(e);
                }
            }
        }
    }

    /// Cancel an event scheduled on this queue. Returns true iff the event
    /// was still pending: cancelling an id that already fired or was already
    /// cancelled is a no-op that returns false. Ids from another queue, or
    /// ids that fired before a snapshot this queue was restored from, are
    /// outside the contract.
    ///
    /// This is the rare path: validity is established by scanning the wheel
    /// for the id, so the hot `schedule`/`pop_due` pair
    /// carries no per-event set bookkeeping. O(n) in the number of queued
    /// events, which is small for every component model.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.cancelled.contains(&id.0) {
            return false;
        }
        let queued = self.ready.iter().any(|e| e.seq == id.0)
            || self
                .levels
                .iter()
                .flatten()
                .flatten()
                .any(|e| e.seq == id.0);
        if !queued {
            return false;
        }
        self.cancelled.insert(id.0);
        self.live -= 1;
        true
    }

    /// Time of the earliest pending (non-cancelled) event.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.ensure_ready();
        self.ready.last().map(|e| e.time)
    }

    /// Pop the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        self.ensure_ready();
        match self.ready.last() {
            Some(e) if e.time <= now => {
                let e = self.ready.pop().unwrap();
                self.live -= 1;
                Some((e.time, e.data))
            }
            _ => None,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// All live entries in (time, seq) order — shared by snapshotting and
    /// the wheel's own audits.
    fn live_sorted(&self) -> Vec<&Entry<T>> {
        let mut live: Vec<&Entry<T>> = self
            .ready
            .iter()
            .chain(self.levels.iter().flatten().flatten())
            .filter(|e| !self.cancelled.contains(&e.seq))
            .collect();
        live.sort_by_key(|e| (e.time, e.seq));
        live
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
        let live = self.live_sorted();
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
            q.insert(Entry { time, seq, data });
            q.live += 1;
        }
        q.next_seq = max_seq.saturating_add(1);
        Ok(q)
    }
}

/// The pre-wheel binary-heap implementation, kept verbatim as the oracle for
/// the model-based wheel-vs-heap property test (`proptest` feature) and for
/// the in-crate differential tests. Same public surface, same per-queue
/// sequence numbering — only the internal data structure differs.
#[cfg(any(test, feature = "proptest"))]
// The oracle deliberately uses a hash set: it must not share an ordering bias
// with the implementation it checks.
#[allow(clippy::disallowed_types)]
pub mod oracle {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use std::collections::HashSet;

    use super::EventId;
    use crate::snap::{SnapReader, SnapResult, SnapWriter};
    use crate::time::SimTime;

    struct Entry<T> {
        time: SimTime,
        seq: u64,
        data: T,
    }

    impl<T> PartialEq for Entry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<T> Eq for Entry<T> {}
    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for Entry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest is on top.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Reference event queue: `BinaryHeap` + lazy cancellation.
    pub struct HeapEventQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        live: usize,
        cancelled: HashSet<u64>,
        next_seq: u64,
    }

    impl<T> Default for HeapEventQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> HeapEventQueue<T> {
        /// An empty reference queue.
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                live: 0,
                cancelled: HashSet::new(),
                next_seq: 1,
            }
        }

        /// Schedule `data` at `time`.
        pub fn schedule(&mut self, time: SimTime, data: T) -> EventId {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, data });
            self.live += 1;
            EventId(seq)
        }

        /// Lazy cancel with heap-scan validation (reference semantics).
        pub fn cancel(&mut self, id: EventId) -> bool {
            if self.cancelled.contains(&id.0) {
                return false;
            }
            if !self.heap.iter().any(|e| e.seq == id.0) {
                return false;
            }
            self.cancelled.insert(id.0);
            self.live -= 1;
            true
        }

        /// Time of the earliest pending event.
        pub fn next_time(&mut self) -> Option<SimTime> {
            self.skip_cancelled();
            self.heap.peek().map(|e| e.time)
        }

        /// Pop the earliest event due at or before `now`.
        pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
            self.skip_cancelled();
            match self.heap.peek() {
                Some(e) if e.time <= now => {
                    let e = self.heap.pop().unwrap();
                    self.live -= 1;
                    Some((e.time, e.data))
                }
                _ => None,
            }
        }

        /// Number of live events.
        pub fn len(&self) -> usize {
            self.live
        }

        /// Whether no live events remain.
        pub fn is_empty(&self) -> bool {
            self.live == 0
        }

        fn skip_cancelled(&mut self) {
            while let Some(e) = self.heap.peek() {
                if self.cancelled.contains(&e.seq) {
                    let e = self.heap.pop().unwrap();
                    self.cancelled.remove(&e.seq);
                } else {
                    break;
                }
            }
        }

        /// Encode pending events in (time, seq) order.
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

        /// Rebuild from [`HeapEventQueue::snapshot_with`] output.
        pub fn restore_with(
            r: &mut SnapReader,
            dec: impl Fn(&mut SnapReader) -> SnapResult<T>,
        ) -> SnapResult<Self> {
            let n = r.usize()?;
            let mut q = HeapEventQueue::new();
            let mut max_seq = 0u64;
            for _ in 0..n {
                let time = r.time()?;
                let seq = r.u64()?;
                let data = dec(r)?;
                max_seq = max_seq.max(seq);
                q.heap.push(Entry { time, seq, data });
                q.live += 1;
            }
            q.next_seq = max_seq.saturating_add(1);
            Ok(q)
        }
    }
}

/// Model-based equivalence of the timing wheel against the retained
/// binary-heap implementation: random interleaved
/// schedule/pop_due/cancel/snapshot/restore tapes must produce identical pop
/// sequences, cancel outcomes, lengths, and next-event times, and restored
/// queues must encode the same (time, payload) order. This is the
/// load-bearing test for the EventQueue swap.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use proptest::prelude::*;

    use super::oracle::HeapEventQueue;
    use super::*;
    use crate::snap::{SnapReader, SnapWriter};

    #[derive(Clone, Debug)]
    enum Op {
        /// Schedule at `now + delta` (saturating; huge deltas exercise the
        /// upper wheel levels, including the `SimTime::MAX` slot).
        Schedule(u64),
        /// Advance `now` by the delta and pop everything due on both queues.
        Advance(u64),
        /// Cancel the id-pair at this index (mod the live list).
        Cancel(usize),
        /// Snapshot both queues and replace them by their restored copies.
        SnapRestore,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => prop_oneof![
                (0u64..5_000).prop_map(Op::Schedule),
                (0u64..u64::MAX / 2).prop_map(Op::Schedule),
                Just(Op::Schedule(u64::MAX)),
            ],
            3 => (0u64..100_000).prop_map(Op::Advance),
            2 => any::<usize>().prop_map(Op::Cancel),
            1 => Just(Op::SnapRestore),
        ]
    }

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

    proptest! {
        #[test]
        fn wheel_equals_heap_oracle(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut ids: Vec<(EventId, EventId)> = Vec::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for op in ops {
                match op {
                    Op::Schedule(delta) => {
                        let t = SimTime(now.saturating_add(delta));
                        let wid = wheel.schedule(t, payload);
                        let hid = heap.schedule(t, payload);
                        payload += 1;
                        ids.push((wid, hid));
                    }
                    Op::Advance(delta) => {
                        now = now.saturating_add(delta);
                        loop {
                            let w = wheel.pop_due(SimTime(now));
                            let h = heap.pop_due(SimTime(now));
                            prop_assert_eq!(w, h, "pop divergence at now={}", now);
                            if w.is_none() {
                                break;
                            }
                        }
                    }
                    Op::Cancel(i) => {
                        if !ids.is_empty() {
                            let (wid, hid) = ids[i % ids.len()];
                            prop_assert_eq!(
                                wheel.cancel(wid),
                                heap.cancel(hid),
                                "cancel divergence"
                            );
                        }
                    }
                    Op::SnapRestore => {
                        let mut ww = SnapWriter::new();
                        wheel.snapshot_with(&mut ww, |v, w| w.u64(*v)).unwrap();
                        let wbuf = ww.into_vec();
                        let mut hw = SnapWriter::new();
                        heap.snapshot_with(&mut hw, |v, w| w.u64(*v)).unwrap();
                        let hbuf = hw.into_vec();
                        // Identical live sets in identical (time, seq)
                        // order — the restored tie-break ordering.
                        prop_assert_eq!(decode(&wbuf), decode(&hbuf));
                        let mut r = SnapReader::new(&wbuf);
                        wheel = EventQueue::restore_with(&mut r, |r| r.u64()).unwrap();
                        let mut r = SnapReader::new(&hbuf);
                        heap = HeapEventQueue::restore_with(&mut r, |r| r.u64()).unwrap();
                        // Pre-snapshot ids stay cancellable on both restored
                        // queues (seqs are preserved by the encoding).
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len(), "len divergence");
                prop_assert_eq!(wheel.next_time(), heap.next_time(), "next_time divergence");
            }
            // Full drain: the tails must agree event for event.
            loop {
                let w = wheel.pop_due(SimTime::MAX);
                let h = heap.pop_due(SimTime::MAX);
                prop_assert_eq!(w, h, "drain divergence");
                if w.is_none() {
                    break;
                }
            }
        }
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

    // --- Wheel-specific coverage ------------------------------------------

    /// Ticks that straddle every level boundary of the wheel (including the
    /// topmost level via `SimTime::MAX`) pop in exact time order.
    #[test]
    fn wheel_orders_across_all_level_boundaries() {
        let mut q = EventQueue::new();
        let mut ticks: Vec<u64> = (0..LEVELS as u32)
            .flat_map(|k| {
                let base = 1u64 << (SLOT_BITS * k);
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

    /// Scheduling behind an already-advanced cursor (an event earlier than
    /// one already popped) still delivers in correct relative order with
    /// frontier events — the heap allowed this and the wheel must too.
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
    /// entries arrive while the frontier slot is being drained.
    #[test]
    fn same_tick_schedule_during_drain_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop_due(t).unwrap().1, 0);
        q.schedule(t, 2); // arrives while the slot is half-drained
        assert_eq!(q.pop_due(t).unwrap().1, 1);
        assert_eq!(q.pop_due(t).unwrap().1, 2);
        assert!(q.pop_due(t).is_none());
    }

    /// Differential check against the retained binary-heap oracle: a fixed
    /// pseudo-random operation tape produces identical pop sequences and
    /// cancel outcomes. (The `proptest` feature drives the same comparison
    /// with random tapes.)
    #[test]
    fn wheel_matches_heap_oracle_on_fixed_tape() {
        let mut wheel = EventQueue::new();
        let mut heap = oracle::HeapEventQueue::new();
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
                    let wid = wheel.schedule(SimTime(t), op);
                    let hid = heap.schedule(SimTime(t), op);
                    ids.push((wid, hid));
                }
                2 => {
                    now += rand() % 500_000;
                    loop {
                        let w = wheel.pop_due(SimTime(now));
                        let h = heap.pop_due(SimTime(now));
                        match (w, h) {
                            (None, None) => break,
                            (Some((wt, wv)), Some((ht, hv))) => {
                                assert_eq!((wt, wv), (ht, hv), "pop divergence");
                            }
                            (w, h) => panic!("pop presence divergence: {w:?} vs {h:?}"),
                        }
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let (wid, hid) = ids[(rand() % ids.len() as u64) as usize];
                        assert_eq!(wheel.cancel(wid), heap.cancel(hid), "cancel divergence");
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len(), "len divergence");
            assert_eq!(wheel.next_time(), heap.next_time(), "next_time divergence");
        }
    }
}
