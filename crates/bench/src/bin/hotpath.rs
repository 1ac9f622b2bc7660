//! Hot-path microbenchmark: per-message cost of the in-process SimBricks
//! channel (slot copy in, pooled buffer out) and of buffer-pool primitives.
//!
//! This is the steady-state cost every simulated hop pays; the pooled
//! packet-buffer arena (`simbricks::base::PktBuf`) turns its dominant term —
//! per-hop malloc/memcpy — into freelist reuse and refcount handoffs. The
//! benchmark reports messages/second, ns/message, and the pool hit rate. The
//! committed reference numbers are the repository benchmark's
//! `base.channel.send_recv_ns.*` and `base.pktbuf.*` metrics
//! (`crates/bench/src/bin/perf/README.md`).
//!
//! Usage: hotpath [--msgs N] [--payload BYTES]

// Benchmarks measure real wall-clock throughput by design.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::time::Instant;

use simbricks::base::{channel_pair, BufPool, ChannelParams, PktBuf, SimTime};

/// Messages per measured run.
const DEFAULT_MSGS: usize = 500_000;
/// Payload of one message (a typical descriptor/doorbell-sized message).
const DEFAULT_PAYLOAD: usize = 64;
/// Channel ring depth (matches the default queue length).
const BATCH: usize = 32;

/// Per-message cost of a channel round: send (copy into the slot) + recv
/// (slot into a pooled buffer) + drop (freelist recycle), in ring-sized
/// batches. Returns (ns/msg, pool hit rate).
fn channel_roundtrip(msgs: usize, payload_len: usize) -> (f64, f64) {
    let params = ChannelParams::default_sync().with_queue_len(BATCH.max(2));
    let (mut tx, mut rx) = channel_pair(params);
    let pool = BufPool::new();
    rx.set_pool(pool.clone());
    let payload = vec![0xa5u8; payload_len];
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < msgs {
        for i in 0..BATCH {
            tx.send_raw(SimTime::from_ps((sent + i) as u64), 5, &payload)
                .expect("ring sized for a full batch");
        }
        for _ in 0..BATCH {
            let m = rx.recv_raw().expect("all sent");
            assert_eq!(m.data.len(), payload_len);
        }
        sent += BATCH;
    }
    let ns = start.elapsed().as_nanos() as f64 / sent as f64;
    (ns, pool.stats().hit_rate())
}

/// Per-operation cost of a pooled copy + drop (alloc/copy/recycle cycle).
fn pool_copy_cycle(msgs: usize, payload_len: usize) -> (f64, f64) {
    let pool = BufPool::new();
    let payload = vec![0x5au8; payload_len];
    // Warm the freelist so the measurement reflects steady state.
    drop(pool.copy_from_slice(&payload));
    let start = Instant::now();
    for _ in 0..msgs {
        let b = pool.copy_from_slice(&payload);
        assert_eq!(b.len(), payload_len);
    }
    let ns = start.elapsed().as_nanos() as f64 / msgs as f64;
    (ns, pool.stats().hit_rate())
}

/// Per-clone cost of sharing a buffer (a switch flooding a frame): refcount
/// bump + drop, no bytes moved.
fn clone_cycle(msgs: usize, payload_len: usize) -> f64 {
    let pool = BufPool::new();
    let payload = vec![0x3cu8; payload_len];
    let b = pool.copy_from_slice(&payload);
    let start = Instant::now();
    for _ in 0..msgs {
        let c = b.clone();
        std::hint::black_box(&c);
    }
    let _keep: PktBuf = b;
    start.elapsed().as_nanos() as f64 / msgs as f64
}

fn main() {
    let mut msgs = DEFAULT_MSGS;
    let mut payload = DEFAULT_PAYLOAD;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |args: &[String], i: usize| {
            if i + 1 >= args.len() {
                eprintln!("{} requires a value", args[i]);
                std::process::exit(2);
            }
        };
        match args[i].as_str() {
            "--msgs" => {
                need(&args, i);
                i += 1;
                msgs = args[i].parse().expect("--msgs number");
            }
            "--payload" => {
                need(&args, i);
                i += 1;
                payload = args[i].parse().expect("--payload bytes");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (chan_ns, chan_hit) = channel_roundtrip(msgs, payload);
    let (pool_ns, pool_hit) = pool_copy_cycle(msgs, payload);
    let clone_ns = clone_cycle(msgs, payload);
    let msgs_per_sec = 1e9 / chan_ns;

    println!("# hot path microbenchmark ({msgs} msgs, {payload} B payload)");
    println!(
        "channel send+recv+drop: {chan_ns:.1} ns/msg ({msgs_per_sec:.0} msgs/s, pool hit rate {:.2}%)",
        chan_hit * 100.0
    );
    println!(
        "pooled copy cycle:      {pool_ns:.1} ns/op (hit rate {:.2}%)",
        pool_hit * 100.0
    );
    println!("clone (refcount bump):  {clone_ns:.1} ns/clone");
    if chan_hit < 0.99 {
        eprintln!(
            "WARNING: steady-state channel pool hit rate below 99% ({:.2}%)",
            chan_hit * 100.0
        );
    }
}
