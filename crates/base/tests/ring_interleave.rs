//! Concurrency validation for the SPSC ring control-byte protocol (§A.2):
//!
//! 1. An *exhaustive* enumeration of every producer/consumer operation
//!    interleaving on tiny rings, checked against a sequential oracle. At
//!    operation granularity this covers every reachable ownership-handoff
//!    state of the protocol (each `try_send`/`try_recv` is one atomic
//!    acquire/release exchange on the slot's control byte, so op-level
//!    interleaving is exactly slot-state interleaving). Payload sizes run
//!    from SYNCs to [`MAX_PAYLOAD`], so the payload arena of these tiny
//!    rings wraps over and over, and the oracle checks that the arena never
//!    makes a send fail: `Full` exactly when `len` messages are in flight.
//! 2. Two genuinely concurrent stress tests (real threads, seeded
//!    pseudo-random pacing) that double as the ThreadSanitizer targets for
//!    the nightly TSan CI job: any missing release/acquire edge on the
//!    control byte shows up as a data race on the slot header/payload.
//!
//! There is one ring; every test runs on both of its backings with the same
//! oracle: the private mapping of `queue(len)`, and caller-supplied slot
//! memory — an aligned, zero-filled block holding the close flags too,
//! which is exactly what a fresh shared region hands the ring (the
//! `*_mapped_backing` tests).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use simbricks_base::pages::Pages;
use simbricks_base::spsc::{queue, ring_bytes, Consumer, Producer, RingMem, SendError, SLOT_ALIGN};
use simbricks_base::{SimTime, MAX_PAYLOAD};

/// Which memory the ring under test lives in.
#[derive(Clone, Copy, Debug)]
enum Backing {
    /// `queue(len)`: slots in a private mapping, as for an in-process
    /// channel.
    Heap,
    /// The raw-memory constructors on a zeroed block laid out like an shm
    /// region: two close bytes in a header, then the slots.
    Mapped,
}

fn ring(backing: Backing, cap: usize) -> (Producer, Consumer) {
    match backing {
        Backing::Heap => queue(cap),
        Backing::Mapped => {
            // Stand-in for a mapped region: a zero-filled block whose first
            // bytes are the close flags and whose slots start one alignment
            // unit in.
            let block = Pages::zeroed(SLOT_ALIGN + ring_bytes(cap).unwrap());
            let ptr = block.as_ptr();
            let at = |off: usize| unsafe { ptr.add(off) };
            let mem = RingMem {
                slots: at(SLOT_ALIGN),
                len: cap,
                producer_closed: at(0).cast::<AtomicU8>(),
                consumer_closed: at(1).cast::<AtomicU8>(),
                owner: Arc::new(block),
            };
            // Safety: a zeroed, aligned block of the right size, kept alive
            // by `owner` and never borrowed as a slice, with exactly these
            // two ends on it.
            unsafe { (Producer::over(mem.clone()), Consumer::over(mem)) }
        }
    }
}

/// Deterministic pacing for the stress tests (never `thread_rng`: the test
/// itself must be reproducible).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// `len` payload bytes of message `seq`.
fn body(seq: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

fn payload_for(seq: u64) -> Vec<u8> {
    body(seq, (seq % 257) as usize) // covers empty (SYNC-like) through 256 B
}

/// Payload sizes of the exhaustive enumeration, message `seq` carrying
/// `pattern[seq % 4]` bytes: every order of a SYNC, one cache line, a span
/// that is not a whole number of lines and the largest payload, then the
/// largest payload only, which wraps the arena soonest.
const SIZE_PATTERNS: [[usize; 4]; 5] = [
    [0, 64, 1000, MAX_PAYLOAD],
    [64, 1000, MAX_PAYLOAD, 0],
    [1000, MAX_PAYLOAD, 0, 64],
    [MAX_PAYLOAD, 0, 64, 1000],
    [MAX_PAYLOAD; 4],
];

/// Enumerate every interleaving of `ops` producer attempts and `ops`
/// consumer attempts on a `cap`-slot ring, as bitmask schedules (bit set =
/// producer's turn), once for each payload size pattern. A `VecDeque`
/// oracle predicts exactly which operations succeed and what the consumer
/// observes.
fn exhaustive_op_interleavings(backing: Backing) {
    const OPS: u32 = 6;
    // The queue constructor requires at least two slots.
    for cap in [2usize, 3, 4] {
        for pattern in SIZE_PATTERNS {
            let bodies: Vec<Vec<u8>> = (0..OPS as u64)
                .map(|seq| body(seq, pattern[seq as usize % pattern.len()]))
                .collect();
            let mut schedules = 0u64;
            for schedule in 0u32..(1 << (2 * OPS)) {
                if schedule.count_ones() != OPS {
                    continue; // exactly `OPS` producer turns
                }
                schedules += 1;
                run_schedule(backing, cap, schedule, &bodies);
            }
            assert_eq!(schedules, 924, "C(12,6) schedules per capacity");
        }
    }
}

/// One schedule of [`exhaustive_op_interleavings`]: message `seq` carries
/// `bodies[seq]`.
fn run_schedule(backing: Backing, cap: usize, schedule: u32, bodies: &[Vec<u8>]) {
    let ctx = |seq: u64| format!("cap={cap} sched={schedule:b} seq={seq}");
    let (mut tx, mut rx) = ring(backing, cap);
    let mut oracle: VecDeque<u64> = VecDeque::new();
    let mut next_seq = 0u64;
    let check = |m: simbricks_base::OwnedMsg, want: u64| {
        assert_eq!(m.timestamp, SimTime::from_ps(want), "{}", ctx(want));
        assert_eq!(m.ty, (want % 100 + 1) as u8, "{}", ctx(want));
        assert!(
            m.data == bodies[want as usize][..],
            "{}: payload differs",
            ctx(want)
        );
    };
    for bit in 0..2 * bodies.len() {
        if schedule >> bit & 1 == 1 {
            // Producer's turn.
            let seq = next_seq;
            let r = tx.try_send(
                SimTime::from_ps(seq),
                (seq % 100 + 1) as u8,
                &bodies[seq as usize],
            );
            if oracle.len() < cap {
                assert_eq!(r, Ok(()), "{}", ctx(seq));
                oracle.push_back(seq);
                next_seq += 1;
            } else {
                assert_eq!(r, Err(SendError::Full), "{}", ctx(seq));
            }
        } else {
            // Consumer's turn.
            match rx.try_recv() {
                Some(m) => check(m, oracle.pop_front().expect("recv from empty ring")),
                None => assert!(oracle.is_empty(), "message lost: {oracle:?}"),
            }
        }
    }
    // Drain: everything the oracle still holds must come out in order.
    while let Some(want) = oracle.pop_front() {
        check(rx.try_recv().expect("drain"), want);
    }
    assert!(rx.try_recv().is_none());
}

#[test]
fn exhaustive_op_interleavings_match_sequential_oracle() {
    exhaustive_op_interleavings(Backing::Heap);
}

#[test]
fn exhaustive_op_interleavings_mapped_backing() {
    exhaustive_op_interleavings(Backing::Mapped);
}

/// Payload lengths around whole cache lines and up to the largest, through
/// a three-slot ring: each length lands in a different slot and at a
/// different arena offset on each of three laps, and a full ring holds
/// messages of three different lengths at once.
fn payload_lengths_round_trip(backing: Backing) {
    let lens = [0, 1, 63, 64, 65, 1000, MAX_PAYLOAD];
    let (mut tx, mut rx) = ring(backing, 3);
    let body = |seq: usize, len: usize| -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(7) ^ seq.wrapping_mul(13)) as u8)
            .collect()
    };
    let msgs: Vec<(usize, usize)> = (0..3 * lens.len())
        .map(|seq| (seq, lens[seq % lens.len()]))
        .collect();
    for batch in msgs.chunks(3) {
        for &(seq, len) in batch {
            let r = tx.try_send(SimTime::from_ps(seq as u64), 1, &body(seq, len));
            assert_eq!(r, Ok(()), "send {seq} of {len} B");
        }
        for &(seq, len) in batch {
            let m = rx.try_recv().expect("sent message");
            assert_eq!(m.timestamp, SimTime::from_ps(seq as u64));
            assert_eq!(m.data.len(), len, "message {seq}");
            assert!(
                m.data == body(seq, len)[..],
                "message {seq}: {len} B differ"
            );
        }
    }
    assert!(rx.try_recv().is_none());
}

#[test]
fn payload_lengths_round_trip_heap_backing() {
    payload_lengths_round_trip(Backing::Heap);
}

#[test]
fn payload_lengths_round_trip_mapped_backing() {
    payload_lengths_round_trip(Backing::Mapped);
}

/// Real-thread stress: one producer thread, one consumer thread, every
/// message checked for sequence, timestamp, type, and payload integrity.
/// The seeded pacing varies batch sizes so the ring oscillates between
/// empty, partially full, and full (both wrap-around edges).
fn stress(backing: Backing, cap: usize, n_msgs: u64, seed: u64) {
    let (mut tx, mut rx) = ring(backing, cap);
    let failed = Arc::new(AtomicBool::new(false));
    let failed_p = failed.clone();

    let producer = std::thread::spawn(move || {
        let mut rng = Lcg(seed);
        let mut seq = 0u64;
        while seq < n_msgs {
            let body = payload_for(seq);
            match tx.try_send(SimTime::from_ps(seq), (seq % 100 + 1) as u8, &body) {
                Ok(()) => seq += 1,
                Err(SendError::Full) => {
                    for _ in 0..rng.next() % 64 {
                        std::hint::spin_loop();
                    }
                }
                Err(e) => {
                    eprintln!("producer error: {e:?}");
                    failed_p.store(true, Ordering::Relaxed);
                    return;
                }
            }
            if rng.next().is_multiple_of(16) {
                std::thread::yield_now();
            }
        }
    });

    let mut rng = Lcg(seed ^ 0x5eed);
    let mut expect = 0u64;
    while expect < n_msgs {
        match rx.try_recv() {
            Some(m) => {
                assert_eq!(m.timestamp, SimTime::from_ps(expect), "sequence hole");
                assert_eq!(m.ty, (expect % 100 + 1) as u8);
                assert_eq!(
                    &m.data[..],
                    &payload_for(expect)[..],
                    "payload torn at {expect}"
                );
                expect += 1;
            }
            None => {
                assert!(!failed.load(Ordering::Relaxed), "producer died");
                for _ in 0..rng.next() % 64 {
                    std::hint::spin_loop();
                }
                if rng.next().is_multiple_of(16) {
                    std::thread::yield_now();
                }
            }
        }
    }
    producer.join().unwrap();
    assert!(rx.try_recv().is_none(), "spurious trailing message");
    assert!(
        rx.is_drained(),
        "producer end dropped with its thread: close flag seen"
    );
}

#[test]
fn two_thread_stress_default_ring() {
    stress(Backing::Heap, 64, 50_000, 0xC0FFEE);
}

#[test]
fn two_thread_stress_default_ring_mapped_backing() {
    stress(Backing::Mapped, 64, 50_000, 0xC0FFEE);
}

/// Capacity-2 ring: maximum contention on the ownership handoff — the
/// producer and consumer fight over the same two control bytes the whole
/// run, so every release/acquire edge is exercised millions of times.
#[test]
fn two_thread_stress_tiny_ring_wraparound() {
    stress(Backing::Heap, 2, 50_000, 0xBEEF);
}

#[test]
fn two_thread_stress_tiny_ring_wraparound_mapped_backing() {
    stress(Backing::Mapped, 2, 50_000, 0xBEEF);
}
