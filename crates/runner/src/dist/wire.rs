//! The control protocol on the wire.
//!
//! All control frames are `u32` length-prefixed, a one-byte type, then a
//! type-specific payload. The framing is the proxy handshake's
//! (`crate::proxy`'s frame splitter, with this protocol's own length
//! bounds), and every structured payload is encoded with `simbricks_base`'s
//! `SnapWriter`/`SnapReader` — the checkpoint codec — by one encoder and
//! one decoder per format, side by side. A decoder rejects truncated input
//! and trailing bytes with a typed error; none panics.
//!
//! | frame    | direction      | payload                                      |
//! |----------|----------------|----------------------------------------------|
//! | `HELLO`  | worker → orch  | partition name                               |
//! | `LINKS`  | worker → orch  | rendezvous address per owned cross link      |
//! | `ADDRS`  | orch → worker  | full link-name → address map                 |
//! | `CKPT`   | orch → worker  | ring, heartbeat, restore blob                |
//! | `READY`  | worker → orch  | (empty) partition built, cross links wired   |
//! | `GO`     | orch → worker  | (empty) barrier release, start simulating    |
//! | `RESULT` | worker → orch  | wall seconds + per-component stats and logs  |
//! | `DONE`   | orch → worker  | (empty) all results in, tear down            |
//! | `HEARTBEAT` | worker → orch | liveness + virtual-time progress (u64 ps) |
//! | `RING`   | worker → orch  | one ring snapshot (time + blob), streamed    |
//! | `SEVER`  | orch → worker  | link name whose proxy must be torn down      |
//!
//! `HEARTBEAT` comes from the worker's pump thread on a wall-clock period,
//! so it keeps flowing while the simulation waits on peers. `RING` frames
//! stream as each slot is captured, so the orchestrator already holds the
//! newest complete slot when a worker dies. Type 9 is unassigned, so a frame
//! carrying it is a protocol error like any other unknown type.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use simbricks_base::{
    EventLog, KernelStats, SimTime, SnapError, SnapReader, SnapResult, SnapWriter, Snapshot,
};

use crate::experiment::RunResult;
use crate::proxy::{frame_len, split_frame};

// Frame types, as in the table above.
pub(super) const MSG_HELLO: u8 = 1;
pub(super) const MSG_LINKS: u8 = 2;
pub(super) const MSG_ADDRS: u8 = 3;
pub(super) const MSG_READY: u8 = 4;
pub(super) const MSG_GO: u8 = 5;
pub(super) const MSG_RESULT: u8 = 6;
pub(super) const MSG_DONE: u8 = 7;
pub(super) const MSG_CKPT: u8 = 8;
pub(super) const MSG_HEARTBEAT: u8 = 10;
pub(super) const MSG_RING: u8 = 11;
pub(super) const MSG_SEVER: u8 = 12;

/// Upper bound on one control frame (results carry whole event logs).
const MAX_FRAME: usize = 256 * 1024 * 1024;
/// How long control-socket reads may stall before the run is declared dead.
pub(super) const CONTROL_TIMEOUT: Duration = Duration::from_secs(600);
/// How long the orchestrator waits for all workers to connect.
pub(super) const CONNECT_TIMEOUT: Duration = Duration::from_secs(120);
/// Default wall-clock period between worker heartbeats.
pub(super) const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(100);
/// Per-read poll interval used by the supervisor loop and the worker pump
/// thread (`SO_RCVTIMEO`, so the sockets stay blocking for writes).
pub(super) const POLL_TIMEOUT: Duration = Duration::from_millis(2);
/// How long the orchestrator sleeps between polls of its listener while it
/// waits for the workers' control connections: every run's set-up waits
/// through this, so it is far below `POLL_TIMEOUT`.
pub(super) const ACCEPT_POLL: Duration = Duration::from_micros(100);
/// How long a worker whose run is over sleeps between idle pumps of its tcp
/// links while it waits for `DONE`.
pub(super) const LINK_IDLE: Duration = Duration::from_micros(50);
/// Bounded connect retry: attempts and initial backoff (doubles per retry).
const CONNECT_RETRIES: u32 = 6;
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

pub(super) fn write_frame(s: &mut impl Write, ty: u8, payload: &[u8]) -> io::Result<()> {
    // Mirror the reader's bound so an oversized payload (e.g. a gigantic
    // event log in RESULT) fails loudly on the writer side instead of
    // wrapping the u32 length prefix and corrupting the protocol.
    if payload.len() + 1 > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("control frame too large ({} bytes)", payload.len()),
        ));
    }
    let mut frame = SnapWriter::new();
    frame.u32((payload.len() + 1) as u32);
    frame.u8(ty);
    frame.raw(payload);
    s.write_all(&frame.into_vec())
}

fn read_frame(s: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix)?;
    let mut body = vec![0u8; frame_len(prefix, 1, MAX_FRAME)?];
    s.read_exact(&mut body)?;
    let payload = body.split_off(1);
    Ok((body[0], payload))
}

pub(super) fn expect_frame(s: &mut impl Read, ty: u8) -> io::Result<Vec<u8>> {
    let (got, payload) = read_frame(s)?;
    if got != ty {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected control frame {ty}, got {got}"),
        ));
    }
    Ok(payload)
}

/// Bounded retry-with-exponential-backoff TCP connect: [`CONNECT_RETRIES`]
/// attempts starting at [`CONNECT_BACKOFF`], doubling per retry. Transient
/// refusals are normal while a fleet is (re)starting — a listener may be
/// advertised before its accept loop runs.
pub(super) fn connect_with_backoff(addr: &str) -> io::Result<TcpStream> {
    let mut backoff = CONNECT_BACKOFF;
    let mut last = None;
    for attempt in 0..CONNECT_RETRIES {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < CONNECT_RETRIES {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed"))) // io-ok: loop ran >= 1 time
}

/// Incremental reassembly buffer for control frames read from a socket
/// polled with a short `SO_RCVTIMEO` (partial reads are routine there).
#[derive(Default)]
pub(super) struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    pub(super) fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop one complete frame if buffered: `(type, payload)`.
    pub(super) fn pop(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let Some(body) = split_frame(&self.buf, 1, MAX_FRAME)? else {
            return Ok(None);
        };
        let frame = (body[0], body[1..].to_vec());
        let used = 4 + body.len();
        self.buf.drain(..used);
        Ok(Some(frame))
    }
}

/// One poll-read from a control socket into `fb`. Returns `Ok(true)` on EOF.
/// The socket stays blocking (writes unaffected); a short read timeout makes
/// this a bounded poll.
pub(super) fn drain_ctrl(
    s: &mut TcpStream,
    fb: &mut FrameBuf,
    scratch: &mut [u8],
) -> io::Result<bool> {
    loop {
        match s.read(scratch) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                fb.push(&scratch[..n]);
                // A full scratch buffer usually means more is queued.
                if n < scratch.len() {
                    return Ok(false);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `value`, provided `r` consumed the whole payload.
fn finish<T>(r: SnapReader, value: T) -> SnapResult<T> {
    if !r.is_empty() {
        return Err(SnapError::Corrupt(format!(
            "{} trailing bytes in a control payload",
            r.remaining()
        )));
    }
    Ok(value)
}

/// `LINKS` (worker → orchestrator: the links the worker owns) and `ADDRS`
/// (orchestrator → every worker: all links): link name → scheme-prefixed
/// rendezvous address.
pub(super) fn encode_addrs(addrs: &[(String, String)]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u32(addrs.len() as u32);
    for (name, addr) in addrs {
        w.str(name);
        w.str(addr);
    }
    w.into_vec()
}

pub(super) fn decode_addrs(payload: &[u8]) -> SnapResult<Vec<(String, String)>> {
    let mut r = SnapReader::new(payload);
    let mut addrs = Vec::new();
    for _ in 0..r.u32()? {
        addrs.push((r.str()?, r.str()?));
    }
    finish(r, addrs)
}

/// `CKPT` (orchestrator → worker, after `ADDRS`): what the worker does about
/// checkpoints and heartbeats, and the snapshot it restores before `READY`.
#[derive(Debug, PartialEq)]
pub(super) struct CkptConfig {
    /// Checkpoint-ring period (zero: no ring) and the slots kept.
    pub(super) ring_period: SimTime,
    pub(super) ring_keep: usize,
    /// Wall-clock heartbeat period (sent in whole milliseconds; zero
    /// decodes as [`DEFAULT_HEARTBEAT`]).
    pub(super) heartbeat: Duration,
    /// The partition's snapshot container to restore from.
    pub(super) restore: Option<Vec<u8>>,
}

impl CkptConfig {
    pub(super) fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.time(self.ring_period);
        w.usize(self.ring_keep);
        w.u64(self.heartbeat.as_millis() as u64);
        w.bool(self.restore.is_some());
        if let Some(blob) = &self.restore {
            w.bytes(blob);
        }
        w.into_vec()
    }

    pub(super) fn decode(payload: &[u8]) -> SnapResult<CkptConfig> {
        let mut r = SnapReader::new(payload);
        let cfg = CkptConfig {
            ring_period: r.time()?,
            ring_keep: r.usize()?,
            heartbeat: match r.u64()? {
                0 => DEFAULT_HEARTBEAT,
                ms => Duration::from_millis(ms),
            },
            restore: if r.bool()? { Some(r.bytes()?) } else { None },
        };
        finish(r, cfg)
    }
}

/// `HEARTBEAT` (worker → orchestrator, on a wall-clock period after `GO`):
/// the partition's virtual-time progress in picoseconds.
pub(super) fn encode_heartbeat(progress_ps: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64(progress_ps);
    w.into_vec()
}

pub(super) fn decode_heartbeat(payload: &[u8]) -> SnapResult<u64> {
    let mut r = SnapReader::new(payload);
    let progress_ps = r.u64()?;
    finish(r, progress_ps)
}

/// `RING` (worker → orchestrator, after each ring quiesce): the slot's
/// virtual time in picoseconds and the partition's snapshot container.
pub(super) fn encode_ring(at: SimTime, blob: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.time(at);
    w.bytes(blob);
    w.into_vec()
}

pub(super) fn decode_ring(payload: &[u8]) -> SnapResult<(u64, Vec<u8>)> {
    let mut r = SnapReader::new(payload);
    let at = r.u64()?;
    let blob = r.bytes()?;
    finish(r, (at, blob))
}

/// `RESULT` (worker → orchestrator, after the run): the partition's wall
/// seconds, then per component its global build index, name, stats and
/// event log, the last two in their checkpoint encoding.
pub(super) fn encode_result(result: &RunResult, local_globals: &[usize]) -> SnapResult<Vec<u8>> {
    let mut w = SnapWriter::new();
    w.f64(result.wall_seconds());
    w.u32(result.component_names.len() as u32);
    for (i, name) in result.component_names.iter().enumerate() {
        w.usize(local_globals[i]);
        w.str(name);
        result.stats[i].snapshot(&mut w)?;
        result.logs[i].snapshot(&mut w)?;
    }
    Ok(w.into_vec())
}

/// The fewest bytes one `RESULT` component record takes: global index, name
/// length, the stats words, and an empty log's mode, flag and count.
pub(super) const MIN_RESULT_RECORD: usize = 8 + 4 + KernelStats::ENCODED_WORDS * 8 + 10;

pub(super) struct WorkerReport {
    pub(super) wall_seconds: f64,
    /// (global id, name, stats, log) per component of the partition.
    pub(super) components: Vec<(usize, String, KernelStats, EventLog)>,
}

pub(super) fn decode_result(payload: &[u8]) -> SnapResult<WorkerReport> {
    let mut r = SnapReader::new(payload);
    let wall_seconds = r.f64()?;
    let ncomp = r.u32()? as usize;
    // Bound the untrusted count by what the payload can hold before
    // reserving for it.
    if ncomp > r.remaining() / MIN_RESULT_RECORD {
        return Err(SnapError::Corrupt(format!(
            "component count {ncomp} exceeds the result payload"
        )));
    }
    let mut components = Vec::with_capacity(ncomp);
    for _ in 0..ncomp {
        let global = r.usize()?;
        let name = r.str()?;
        let mut stats = KernelStats::default();
        stats.restore(&mut r)?;
        let mut log = EventLog::default();
        log.restore(&mut r)?;
        components.push((global, name, stats, log));
    }
    finish(
        r,
        WorkerReport {
            wall_seconds,
            components,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::run_local;
    use super::super::tests::{encoded_part, two_partition_build};
    use super::*;
    use crate::experiment::Execution;

    #[test]
    fn frame_buf_reassembles_partial_and_batched_frames() {
        let mut wire = Vec::new();
        for (ty, payload) in [
            (MSG_HEARTBEAT, &[1u8, 0, 0, 0, 0, 0, 0, 0][..]),
            (MSG_DONE, &[]),
        ] {
            wire.extend_from_slice(&((payload.len() + 1) as u32).to_le_bytes());
            wire.push(ty);
            wire.extend_from_slice(payload);
        }
        let mut fb = FrameBuf::default();
        // Feed one byte at a time: pop must only yield complete frames.
        let mut got = Vec::new();
        for b in &wire {
            fb.push(&[*b]);
            while let Ok(Some((ty, payload))) = fb.pop() {
                got.push((ty, payload));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, MSG_HEARTBEAT);
        assert_eq!(got[0].1, vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(got[1], (MSG_DONE, Vec::new()));
        // A zero-length frame is a protocol error, not a hang.
        fb.push(&[0, 0, 0, 0]);
        assert!(fb.pop().is_err());
    }

    #[test]
    fn decode_result_rejects_a_count_the_payload_cannot_hold() {
        let mut frame = 1.5f64.to_bits().to_le_bytes().to_vec();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_result(&frame).is_err());
        let r = run_local("", &two_partition_build, Execution::Sequential);
        let rep =
            decode_result(&encode_result(&r, &[0, 1]).unwrap()).expect("a real result decodes");
        assert_eq!(rep.components.len(), 2);
    }

    #[test]
    fn decode_result_accepts_a_payload_of_minimal_records() {
        let n = 5;
        let mut w = SnapWriter::new();
        w.f64(0.25);
        w.u32(n as u32);
        for i in 0..n {
            w.usize(i);
            w.str("");
            KernelStats::default().snapshot(&mut w).unwrap();
            EventLog::default().snapshot(&mut w).unwrap();
        }
        let payload = w.into_vec();
        assert_eq!(payload.len(), 8 + 4 + n * MIN_RESULT_RECORD);
        let rep = decode_result(&payload).expect("minimal records decode");
        assert_eq!(rep.components.len(), n);
    }

    /// `decode(bytes)` must fail, without panicking, on every strict prefix.
    fn assert_prefixes_rejected<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> SnapResult<T>) {
        for n in 0..bytes.len() {
            assert!(
                decode(&bytes[..n]).is_err(),
                "prefix {n}/{} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn addrs_payload_roundtrips_and_rejects_every_prefix() {
        let addrs = vec![
            ("up0".to_string(), "tcp:127.0.0.1:4242".to_string()),
            ("up1".to_string(), "shm:/tmp/run/up1.shm".to_string()),
        ];
        let bytes = encode_addrs(&addrs);
        assert_eq!(decode_addrs(&bytes).unwrap(), addrs);
        assert_eq!(decode_addrs(&encode_addrs(&[])).unwrap(), vec![]);
        assert_prefixes_rejected(&bytes, decode_addrs);
        assert!(
            decode_addrs(&[bytes.as_slice(), &[0]].concat()).is_err(),
            "trailing byte"
        );
    }

    #[test]
    fn ckpt_payload_roundtrips_and_rejects_every_prefix() {
        let bare = CkptConfig {
            ring_period: SimTime::ZERO,
            ring_keep: 0,
            heartbeat: Duration::from_millis(25),
            restore: None,
        };
        let full = CkptConfig {
            ring_period: SimTime::from_us(2),
            ring_keep: 3,
            heartbeat: Duration::from_millis(250),
            restore: Some(encoded_part("e", SimTime::from_us(4))),
        };
        for cfg in [bare, full] {
            let bytes = cfg.encode();
            assert_eq!(CkptConfig::decode(&bytes).unwrap(), cfg);
            assert_prefixes_rejected(&bytes, CkptConfig::decode);
        }
        // A zero heartbeat period asks for the default.
        let zero = CkptConfig {
            ring_period: SimTime::ZERO,
            ring_keep: 0,
            heartbeat: Duration::ZERO,
            restore: None,
        };
        assert_eq!(
            CkptConfig::decode(&zero.encode()).unwrap().heartbeat,
            DEFAULT_HEARTBEAT
        );
    }

    #[test]
    fn heartbeat_and_ring_payloads_roundtrip_and_reject_every_prefix() {
        let beat = encode_heartbeat(123_456_789);
        assert_eq!(decode_heartbeat(&beat).unwrap(), 123_456_789);
        assert_prefixes_rejected(&beat, decode_heartbeat);

        let blob = encoded_part("e", SimTime::from_us(5));
        let ring = encode_ring(SimTime::from_us(5), &blob);
        assert_eq!(decode_ring(&ring).unwrap(), (5_000_000, blob));
        assert_prefixes_rejected(&ring, decode_ring);
    }

    #[test]
    fn result_payload_roundtrips_and_rejects_every_prefix() {
        let mut r = run_local("", &two_partition_build, Execution::Sequential);
        for (i, log) in r.logs.iter_mut().enumerate() {
            log.record(SimTime::from_ns(10), "rx", i as u64, 2);
            log.record(SimTime::from_ns(20), "tx", 3, 4);
        }
        let bytes = encode_result(&r, &[4, 9]).unwrap();
        let rep = decode_result(&bytes).unwrap();
        assert_eq!(rep.wall_seconds, r.wall_seconds());
        assert_eq!(rep.components.len(), 2);
        for (i, (global, name, stats, log)) in rep.components.iter().enumerate() {
            assert_eq!((*global, name), ([4, 9][i], &r.component_names[i]));
            assert_eq!(*stats, r.stats[i]);
            assert_eq!(log.len(), 2);
            assert_eq!(log.entries(), r.logs[i].entries());
        }
        assert_prefixes_rejected(&bytes, decode_result);
    }
}
