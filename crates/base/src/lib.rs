//! # simbricks-base
//!
//! Core building blocks of the SimBricks modular simulation framework
//! (Rust reimplementation of Li, Li, Kaufmann, SIGCOMM 2022):
//!
//! * [`time`] — virtual time ([`SimTime`], picosecond resolution).
//! * [`slot`] — fixed-size message slots with the ownership/type control byte.
//! * [`spsc`] — single-producer/single-consumer polled message queues (§A.2),
//!   one ring over private or caller-supplied (shared) mapped slot memory.
//! * [`pages`] — large memory mapped from the OS: private zeroed blocks and
//!   shared file mappings.
//! * [`channel`] — bidirectional channels built from two SPSC queues (§5.2).
//! * [`impair`] — deterministic link impairments (loss, jitter, reordering,
//!   rate variation) applied by the sending endpoint of a channel.
//! * [`sync`] — the pairwise synchronization protocol exploiting link
//!   latency for slack (§5.5).
//! * [`event`] — deterministic discrete-event queue.
//! * [`kernel`] — the component kernel ("SimBricks adapter" + event loop)
//!   driving a [`Model`].
//! * [`log`] — timestamped event logs for the accuracy/determinism checks.
//! * [`pktbuf`] — pooled, reference-counted packet buffers ([`PktBuf`]):
//!   the zero-copy payload type carried by every message on the hot path.
//! * [`snap`] — deterministic checkpoint/restore wire format and the
//!   [`Snapshot`] trait implemented by every stateful component.
//! * [`stats`] — per-component run statistics.
//!
//! Component simulators (hosts, NICs, networks, storage) live in the other
//! `simbricks-*` crates and only interact with each other through messages
//! exchanged via this crate.

#![deny(missing_docs)]

pub mod channel;
pub mod event;
pub mod impair;
pub mod kernel;
pub mod log;
pub mod pages;
pub mod pktbuf;
pub mod slot;
pub mod snap;
pub mod spsc;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use channel::{channel_pair, ChannelEnd, ChannelParams};
pub use event::{EventId, EventQueue};
pub use impair::{fnv1a_str, mix_seed, ImpairState, Impairment, LossModel};
pub use kernel::{Kernel, Model, PortId, StepOutcome, SyncLookahead, WakeHint};
pub use log::{intern_tag, EventLog, LogEntry};
pub use pktbuf::{BufPool, PktBuf, PoolStats, DEFAULT_HEADROOM, SEG_CAPACITY};
pub use slot::{MsgType, OwnedMsg, MAX_PAYLOAD, MSG_SYNC};
pub use snap::{fnv1a, SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
pub use spsc::{Consumer, Producer, SendError};
pub use stats::KernelStats;
pub use sync::{PortStats, SyncPort};
pub use time::{bw, transmission_time, SimTime};

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The SPSC queue never reorders, drops, or duplicates messages.
        #[test]
        fn spsc_fifo_property(msgs in proptest::collection::vec((0u64..1_000_000, 1u8..=127, proptest::collection::vec(any::<u8>(), 0..64)), 1..200),
                              qlen in 2usize..16) {
            let (mut p, mut c) = spsc::queue(qlen);
            let mut received = Vec::new();
            let mut it = msgs.iter();
            let mut pending: Option<&(u64, u8, Vec<u8>)> = None;
            loop {
                // try to push as much as possible
                loop {
                    let next = match pending.take().or_else(|| it.next()) {
                        Some(m) => m,
                        None => break,
                    };
                    match p.try_send(SimTime::from_ps(next.0), next.1, &next.2) {
                        Ok(()) => {}
                        Err(SendError::Full) => { pending = Some(next); break; }
                        Err(e) => panic!("unexpected error {e:?}"),
                    }
                }
                // drain
                let mut drained = false;
                while let Some(m) = c.try_recv() {
                    received.push((m.timestamp.as_ps(), m.ty, m.data.as_slice().to_vec()));
                    drained = true;
                }
                if pending.is_none() && !drained && received.len() == msgs.len() {
                    break;
                }
                if pending.is_none() && received.len() == msgs.len() {
                    break;
                }
            }
            prop_assert_eq!(received, msgs);
        }

        /// Wire encoding round-trips arbitrary messages.
        #[test]
        fn owned_msg_wire_roundtrip(ts in any::<u64>(), ty in 0u8..=127,
                                    data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let m = OwnedMsg::new(SimTime::from_ps(ts), ty, data);
            let (back, used) = OwnedMsg::from_wire(&m.to_wire()).unwrap();
            prop_assert_eq!(used, m.to_wire().len());
            prop_assert_eq!(back, m);
        }

        /// The event queue pops in non-decreasing time order regardless of
        /// insertion order.
        #[test]
        fn event_queue_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut n = 0;
            while let Some((t, _)) = q.pop_due(SimTime::MAX) {
                prop_assert!(t >= last);
                last = t;
                n += 1;
            }
            prop_assert_eq!(n, times.len());
        }

        /// Snapshot round trip: an [`EventLog`] with arbitrary entries
        /// decodes back bit-identically (`decode(encode(s)) == s`).
        #[test]
        fn event_log_snapshot_roundtrip(entries in proptest::collection::vec(
            (any::<u64>(), 0usize..4, any::<u64>(), any::<u64>()), 0..100)) {
            let tags = ["tx", "rx", "irq", "mark"];
            let mut log = EventLog::enabled();
            for (t, tag, a, b) in &entries {
                log.record(SimTime::from_ps(*t), tags[*tag], *a, *b);
            }
            let mut w = SnapWriter::new();
            log.snapshot(&mut w).unwrap();
            let buf = w.into_vec();
            let mut back = EventLog::disabled();
            back.restore(&mut SnapReader::new(&buf)).unwrap();
            prop_assert_eq!(back.entries(), log.entries());
            prop_assert_eq!(back.fingerprint(), log.fingerprint());
        }

        /// Snapshot round trip: any 16 `u64`s decode as [`KernelStats`] and
        /// re-encode to the same bytes, so every counter survives exactly
        /// (without this test naming the fields).
        #[test]
        fn kernel_stats_snapshot_roundtrip(f in proptest::collection::vec(any::<u64>(), 16)) {
            let mut bytes = SnapWriter::new();
            for v in &f {
                bytes.u64(*v);
            }
            let bytes = bytes.into_vec();
            let mut s = KernelStats::default();
            s.restore(&mut SnapReader::new(&bytes)).unwrap();
            let mut w = SnapWriter::new();
            s.snapshot(&mut w).unwrap();
            prop_assert_eq!(w.into_vec(), bytes);
        }

        /// Snapshot round trip: an [`EventQueue`] preserves content and —
        /// crucially for determinism — the (time, schedule-order) pop order
        /// of same-time events.
        #[test]
        fn event_queue_snapshot_roundtrip(times in proptest::collection::vec(0u64..1000, 1..64)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(*t), i as u64);
            }
            let mut w = SnapWriter::new();
            q.snapshot_with(&mut w, |v, w| w.u64(*v)).unwrap();
            let buf = w.into_vec();
            let mut back: EventQueue<u64> =
                EventQueue::restore_with(&mut SnapReader::new(&buf), |r| r.u64()).unwrap();
            let mut expect = Vec::new();
            while let Some(e) = q.pop_due(SimTime::MAX) { expect.push(e); }
            let mut got = Vec::new();
            while let Some(e) = back.pop_due(SimTime::MAX) { got.push(e); }
            prop_assert_eq!(got, expect);
        }

        /// Snapshot round trip: a [`SyncPort`] with arbitrary pending
        /// messages and horizon state restores exactly.
        #[test]
        fn sync_port_snapshot_roundtrip(msgs in proptest::collection::vec(
            (0u64..1_000_000u64, 1u8..=127, proptest::collection::vec(any::<u8>(), 0..64)), 0..32)) {
            let params = ChannelParams::default_sync().with_queue_len(256);
            let (a, b) = channel_pair(params);
            let mut a = SyncPort::new(a);
            let mut b = SyncPort::new(b);
            let mut sorted = msgs.clone();
            sorted.sort_by_key(|(t, _, _)| *t);
            for (t, ty, data) in &sorted {
                a.send_data(SimTime::from_ns(*t), *ty, data);
            }
            b.poll();
            let mut w = SnapWriter::new();
            b.snapshot(&mut w).unwrap();
            let buf = w.into_vec();
            let (_a2, b2) = channel_pair(params);
            let mut back = SyncPort::new(b2);
            back.restore(&mut SnapReader::new(&buf)).unwrap();
            prop_assert_eq!(back.horizon(), b.horizon());
            prop_assert_eq!(back.stats(), b.stats());
            loop {
                let (x, y) = (back.pop_due(SimTime::MAX), b.pop_due(SimTime::MAX));
                prop_assert_eq!(&x, &y);
                if x.is_none() { break; }
            }
        }

        /// Fingerprint-only logging is exact: for an arbitrary time-sorted
        /// entry sequence and epoch length, a fingerprint-only log produces
        /// the same per-epoch FNV fingerprints as a fully materialized log —
        /// including when the log is converted to fingerprint-only midway,
        /// folding the already-materialized prefix into the accumulators.
        /// Each epoch's fingerprint equals [`EventLog::fingerprint`] of that
        /// epoch's materialized slice.
        #[test]
        fn fingerprint_only_matches_materialized(entries in proptest::collection::vec(
            (0u64..1_000_000, 0usize..4, any::<u64>(), any::<u64>()), 0..200),
            epoch_ps in 1u64..200_000,
            split in 0usize..200) {
            let tags = ["tx", "rx", "irq", "mark"];
            let mut sorted = entries.clone();
            sorted.sort_by_key(|(t, _, _, _)| *t);
            let epoch = SimTime::from_ps(epoch_ps);

            let mut full = EventLog::enabled();
            let mut fp_only = EventLog::fingerprint_only(epoch);
            let mut converted = EventLog::enabled();
            for (i, (t, tag, a, b)) in sorted.iter().enumerate() {
                if i == split.min(sorted.len()) {
                    converted.to_fingerprint_only(epoch);
                }
                full.record(SimTime::from_ps(*t), tags[*tag], *a, *b);
                fp_only.record(SimTime::from_ps(*t), tags[*tag], *a, *b);
                converted.record(SimTime::from_ps(*t), tags[*tag], *a, *b);
            }
            let epochs = sorted.last().map_or(1, |(t, _, _, _)| t / epoch_ps + 1) as usize;
            let want = full.epoch_fingerprints(epoch, epochs).unwrap();
            prop_assert_eq!(fp_only.epoch_fingerprints(epoch, epochs).unwrap(), want.clone());
            prop_assert_eq!(converted.epoch_fingerprints(epoch, epochs).unwrap(), want.clone());
            prop_assert_eq!(fp_only.recorded(), full.recorded());

            // Every epoch fingerprint equals the plain fingerprint of a log
            // holding exactly that epoch's entries.
            for (e, fp) in want.iter().enumerate() {
                let mut slice = EventLog::enabled();
                for (t, tag, a, b) in sorted.iter().filter(|(t, _, _, _)|
                    t / epoch_ps == e as u64) {
                    slice.record(SimTime::from_ps(*t), tags[*tag], *a, *b);
                }
                prop_assert_eq!(*fp, slice.fingerprint());
            }
        }

        /// Sending over a synchronized port always stamps messages with the
        /// configured latency and keeps per-channel timestamps monotonic.
        #[test]
        fn sync_port_timestamps_monotonic(sends in proptest::collection::vec(0u64..1_000_000u64, 1..100),
                                          latency_ns in 1u64..10_000) {
            let params = ChannelParams::default_sync()
                .with_latency(SimTime::from_ns(latency_ns))
                .with_queue_len(256);
            let (a, b) = channel_pair(params);
            let mut a = SyncPort::new(a);
            let mut b = SyncPort::new(b);
            let mut sorted = sends.clone();
            sorted.sort_unstable();
            for t in &sorted {
                a.send_data(SimTime::from_ns(*t), 1, &[]);
            }
            b.poll();
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(m) = b.pop_due(SimTime::MAX) {
                prop_assert_eq!(m.timestamp, SimTime::from_ns(sorted[count] + latency_ns));
                prop_assert!(m.timestamp >= last);
                last = m.timestamp;
                count += 1;
            }
            prop_assert_eq!(count, sorted.len());
        }
    }
}
