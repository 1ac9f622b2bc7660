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
pub use impair::{fnv1a_str, mix_seed, ImpairState, Impairment, LossModel, Rng};
pub use kernel::{Kernel, Model, PortId, StepOutcome, SyncLookahead, WakeHint};
pub use log::{intern_tag, EventLog, LogEntry};
pub use pktbuf::{BufPool, PktBuf, PoolStats, DEFAULT_HEADROOM, SEG_CAPACITY};
pub use slot::{MsgType, OwnedMsg, MAX_PAYLOAD, MSG_SYNC};
pub use snap::{fnv1a, SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
pub use spsc::{Consumer, Producer, SendError};
pub use stats::KernelStats;
pub use sync::{PortStats, SyncPort};
pub use time::{bw, transmission_time, SimTime};

#[cfg(test)]
mod properties {
    use super::*;
    use impair::check_cases;

    const SEED: u64 = 0xba5e;
    const CASES: u64 = 256;

    /// `n` bytes of generator output.
    fn bytes(rng: &mut Rng, n: u64) -> Vec<u8> {
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    /// `(time, type, payload)` messages: times in `0..max_t`, types
    /// `1..=127`, payloads of up to 63 bytes.
    fn msgs(rng: &mut Rng, n: u64, max_t: u64) -> Vec<(u64, u8, Vec<u8>)> {
        (0..n)
            .map(|_| {
                let t = rng.below(max_t);
                let ty = 1 + rng.below(127) as u8;
                let len = rng.below(64);
                (t, ty, bytes(rng, len))
            })
            .collect()
    }

    /// The SPSC queue never reorders, drops, or duplicates messages.
    #[test]
    fn spsc_fifo_property() {
        check_cases("spsc_fifo_property", SEED, CASES, |rng| {
            let n = 1 + rng.below(199);
            let msgs = msgs(rng, n, 1_000_000);
            let qlen = 2 + rng.below(14) as usize;
            let (mut p, mut c) = spsc::queue(qlen);
            let mut received = Vec::new();
            let mut it = msgs.iter();
            let mut pending: Option<&(u64, u8, Vec<u8>)> = None;
            loop {
                // try to push as much as possible
                while let Some(next) = pending.take().or_else(|| it.next()) {
                    match p.try_send(SimTime::from_ps(next.0), next.1, &next.2) {
                        Ok(()) => {}
                        Err(SendError::Full) => {
                            pending = Some(next);
                            break;
                        }
                        Err(e) => panic!("unexpected error {e:?}"),
                    }
                }
                // drain
                while let Some(m) = c.try_recv() {
                    received.push((m.timestamp.as_ps(), m.ty, m.data.as_slice().to_vec()));
                }
                if pending.is_none() && received.len() == msgs.len() {
                    break;
                }
            }
            assert_eq!(received, msgs);
        });
    }

    /// Wire encoding round-trips arbitrary messages.
    #[test]
    fn owned_msg_wire_roundtrip() {
        check_cases("owned_msg_wire_roundtrip", SEED, CASES, |rng| {
            let ts = rng.next_u64();
            let ty = rng.below(128) as u8;
            let len = rng.below(512);
            let m = OwnedMsg::new(SimTime::from_ps(ts), ty, bytes(rng, len));
            let (back, used) = OwnedMsg::from_wire(&m.to_wire()).unwrap();
            assert_eq!(used, m.to_wire().len());
            assert_eq!(back, m);
        });
    }

    /// The event queue pops in non-decreasing time order regardless of
    /// insertion order.
    #[test]
    fn event_queue_sorted() {
        check_cases("event_queue_sorted", SEED, CASES, |rng| {
            let times: Vec<u64> = (0..1 + rng.below(199))
                .map(|_| rng.below(1_000_000))
                .collect();
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut n = 0;
            while let Some((t, _)) = q.pop_due(SimTime::MAX) {
                assert!(t >= last);
                last = t;
                n += 1;
            }
            assert_eq!(n, times.len());
        });
    }

    const TAGS: [&str; 4] = ["tx", "rx", "irq", "mark"];

    /// `(time, tag index, a, b)` log entries: times in `0..max_t`, one of
    /// [`TAGS`].
    fn entries(rng: &mut Rng, n: u64, max_t: u64) -> Vec<(u64, usize, u64, u64)> {
        (0..n)
            .map(|_| {
                let t = rng.below(max_t);
                let tag = rng.below(TAGS.len() as u64) as usize;
                (t, tag, rng.next_u64(), rng.next_u64())
            })
            .collect()
    }

    /// Snapshot round trip: an [`EventLog`] with arbitrary entries
    /// decodes back bit-identically (`decode(encode(s)) == s`).
    #[test]
    fn event_log_snapshot_roundtrip() {
        check_cases("event_log_snapshot_roundtrip", SEED, CASES, |rng| {
            let n = rng.below(100);
            let entries = entries(rng, n, u64::MAX);
            let mut log = EventLog::enabled();
            for (t, tag, a, b) in &entries {
                log.record(SimTime::from_ps(*t), TAGS[*tag], *a, *b);
            }
            let mut w = SnapWriter::new();
            log.snapshot(&mut w).unwrap();
            let buf = w.into_vec();
            let mut back = EventLog::disabled();
            back.restore(&mut SnapReader::new(&buf)).unwrap();
            assert_eq!(back.entries(), log.entries());
            assert_eq!(back.fingerprint(), log.fingerprint());
        });
    }

    /// Snapshot round trip: any [`KernelStats::ENCODED_WORDS`] `u64`s
    /// decode as [`KernelStats`] and re-encode to the same bytes, so every
    /// counter survives exactly (without this test naming the fields).
    #[test]
    fn kernel_stats_snapshot_roundtrip() {
        check_cases("kernel_stats_snapshot_roundtrip", SEED, CASES, |rng| {
            let mut bytes = SnapWriter::new();
            for _ in 0..KernelStats::ENCODED_WORDS {
                bytes.u64(rng.next_u64());
            }
            let bytes = bytes.into_vec();
            let mut s = KernelStats::default();
            let mut r = SnapReader::new(&bytes);
            s.restore(&mut r).unwrap();
            assert!(r.is_empty(), "every word consumed");
            let mut w = SnapWriter::new();
            s.snapshot(&mut w).unwrap();
            assert_eq!(w.into_vec(), bytes);
        });
    }

    /// Snapshot round trip: an [`EventQueue`] preserves content and —
    /// crucially for determinism — the (time, schedule-order) pop order
    /// of same-time events.
    #[test]
    fn event_queue_snapshot_roundtrip() {
        check_cases("event_queue_snapshot_roundtrip", SEED, CASES, |rng| {
            let mut q = EventQueue::new();
            for i in 0..1 + rng.below(63) {
                q.schedule(SimTime::from_ps(rng.below(1000)), i);
            }
            let mut w = SnapWriter::new();
            q.snapshot_with(&mut w, |v, w| w.u64(*v)).unwrap();
            let buf = w.into_vec();
            let mut back: EventQueue<u64> =
                EventQueue::restore_with(&mut SnapReader::new(&buf), |r| r.u64()).unwrap();
            let mut expect = Vec::new();
            while let Some(e) = q.pop_due(SimTime::MAX) {
                expect.push(e);
            }
            let mut got = Vec::new();
            while let Some(e) = back.pop_due(SimTime::MAX) {
                got.push(e);
            }
            assert_eq!(got, expect);
        });
    }

    /// Snapshot round trip: a [`SyncPort`] with arbitrary pending
    /// messages and horizon state restores exactly.
    #[test]
    fn sync_port_snapshot_roundtrip() {
        check_cases("sync_port_snapshot_roundtrip", SEED, CASES, |rng| {
            let n = rng.below(32);
            let mut sorted = msgs(rng, n, 1_000_000);
            sorted.sort_by_key(|(t, _, _)| *t);
            let params = ChannelParams::default_sync().with_queue_len(256);
            let (a, b) = channel_pair(params);
            let mut a = SyncPort::new(a);
            let mut b = SyncPort::new(b);
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
            assert_eq!(back.horizon(), b.horizon());
            assert_eq!(back.stats(), b.stats());
            loop {
                let (x, y) = (back.pop_due(SimTime::MAX), b.pop_due(SimTime::MAX));
                assert_eq!(&x, &y);
                if x.is_none() {
                    break;
                }
            }
        });
    }

    /// Fingerprint-only logging is exact: for an arbitrary time-sorted
    /// entry sequence and epoch length, a fingerprint-only log produces
    /// the same per-epoch FNV fingerprints as a fully materialized log —
    /// including when the log is converted to fingerprint-only midway,
    /// folding the already-materialized prefix into the accumulators.
    /// Each epoch's fingerprint equals [`EventLog::fingerprint`] of that
    /// epoch's materialized slice.
    #[test]
    fn fingerprint_only_matches_materialized() {
        check_cases(
            "fingerprint_only_matches_materialized",
            SEED,
            CASES,
            |rng| {
                let n = rng.below(200);
                let mut sorted = entries(rng, n, 1_000_000);
                sorted.sort_by_key(|(t, _, _, _)| *t);
                let epoch_ps = 1 + rng.below(199_999);
                let split = rng.below(200) as usize;
                let epoch = SimTime::from_ps(epoch_ps);

                let mut full = EventLog::enabled();
                let mut fp_only = EventLog::fingerprint_only(epoch);
                let mut converted = EventLog::enabled();
                for (i, (t, tag, a, b)) in sorted.iter().enumerate() {
                    if i == split.min(sorted.len()) {
                        converted.to_fingerprint_only(epoch);
                    }
                    full.record(SimTime::from_ps(*t), TAGS[*tag], *a, *b);
                    fp_only.record(SimTime::from_ps(*t), TAGS[*tag], *a, *b);
                    converted.record(SimTime::from_ps(*t), TAGS[*tag], *a, *b);
                }
                let epochs = sorted.last().map_or(1, |(t, _, _, _)| t / epoch_ps + 1) as usize;
                let want = full.epoch_fingerprints(epoch, epochs).unwrap();
                assert_eq!(fp_only.epoch_fingerprints(epoch, epochs).unwrap(), want);
                assert_eq!(converted.epoch_fingerprints(epoch, epochs).unwrap(), want);
                assert_eq!(fp_only.recorded(), full.recorded());

                // Every epoch fingerprint equals the plain fingerprint of a log
                // holding exactly that epoch's entries.
                for (e, fp) in want.iter().enumerate() {
                    let mut slice = EventLog::enabled();
                    for (t, tag, a, b) in sorted.iter().filter(|(t, ..)| t / epoch_ps == e as u64) {
                        slice.record(SimTime::from_ps(*t), TAGS[*tag], *a, *b);
                    }
                    assert_eq!(*fp, slice.fingerprint());
                }
            },
        );
    }

    /// Sending over a synchronized port always stamps messages with the
    /// configured latency and keeps per-channel timestamps monotonic.
    #[test]
    fn sync_port_timestamps_monotonic() {
        check_cases("sync_port_timestamps_monotonic", SEED, CASES, |rng| {
            let mut sorted: Vec<u64> = (0..1 + rng.below(99))
                .map(|_| rng.below(1_000_000))
                .collect();
            sorted.sort_unstable();
            let latency_ns = 1 + rng.below(9_999);
            let params = ChannelParams::default_sync()
                .with_latency(SimTime::from_ns(latency_ns))
                .with_queue_len(256);
            let (a, b) = channel_pair(params);
            let mut a = SyncPort::new(a);
            let mut b = SyncPort::new(b);
            for t in &sorted {
                a.send_data(SimTime::from_ns(*t), 1, &[]);
            }
            b.poll();
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(m) = b.pop_due(SimTime::MAX) {
                assert_eq!(m.timestamp, SimTime::from_ns(sorted[count] + latency_ns));
                assert!(m.timestamp >= last);
                last = m.timestamp;
                count += 1;
            }
            assert_eq!(count, sorted.len());
        });
    }
}
