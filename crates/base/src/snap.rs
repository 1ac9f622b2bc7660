//! Deterministic checkpoint/restore, and the workspace's one byte codec.
//!
//! A checkpoint captures the complete dynamic state of a simulation at a
//! quiesced virtual time so a later run can resume from it and produce the
//! **bit-identical** continuation (same event logs, same results) as an
//! uninterrupted run — the property `tests/integration_checkpoint.rs` proves
//! across executors and transports. Everything here is plain little-endian
//! byte encoding with no external dependencies:
//!
//! * [`SnapWriter`] / [`SnapReader`] — bounded, length-checked primitive
//!   encode/decode. Every read is validated; truncated or corrupt input
//!   yields a [`SnapError`], never a panic or undefined behaviour. The same
//!   pair encodes the channel parameter block
//!   ([`ChannelParams::encode`](crate::channel::ChannelParams::encode)), the
//!   proxy handshake and every structured control payload of a distributed
//!   run; only the per-message slot framing of
//!   [`OwnedMsg`](crate::slot::OwnedMsg) has a hand-written hot-path codec.
//! * [`Snapshot`] — the trait every stateful component implements: write the
//!   dynamic state (not static configuration, which the experiment builder
//!   reconstructs) and read it back in place.
//!
//! Encoding conventions, so files are deterministic and comparable:
//! integers are little-endian; byte strings are `u32` length-prefixed;
//! collections are length-prefixed and emitted in a canonical order (maps
//! sorted by key — hash-map iteration order never leaks into a snapshot).

use std::fmt;

use crate::time::SimTime;

/// Errors surfaced while decoding a snapshot. Corrupt, truncated, or
/// version-mismatched input must fail with one of these — loudly, with
/// context — rather than panicking or silently misrestoring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the expected data (truncated file).
    Truncated,
    /// The leading magic bytes did not match (not a checkpoint file).
    BadMagic,
    /// The format version is not one this build can decode.
    Version {
        /// Version found in the input.
        found: u16,
        /// Version this build writes and understands.
        expected: u16,
    },
    /// The input decoded structurally but the content is inconsistent
    /// (failed checksum, impossible field value, mismatched topology).
    Corrupt(String),
    /// A component in the experiment does not implement snapshotting.
    Unsupported(String),
    /// An I/O error while reading or writing the checkpoint file.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "checkpoint truncated: input ended mid-record"),
            SnapError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            SnapError::Version { found, expected } => write!(
                f,
                "checkpoint format version {found} not supported (this build reads version {expected})"
            ),
            SnapError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            SnapError::Unsupported(what) => {
                write!(f, "checkpointing unsupported: {what}")
            }
            SnapError::Io(why) => write!(f, "checkpoint i/o error: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e.to_string())
    }
}

/// A decode failure on a socket or shared-memory path is malformed input:
/// `InvalidData`, carrying the decoder's message.
impl From<SnapError> for std::io::Error {
    fn from(e: SnapError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Result alias for snapshot operations.
pub type SnapResult<T> = Result<T, SnapError>;

/// Append-only encoder for snapshot data.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a boolean as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write an `f64` via its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a virtual time (picoseconds).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_ps());
    }

    /// Write an optional virtual time (presence byte + value).
    pub fn opt_time(&mut self, t: Option<SimTime>) {
        match t {
            Some(t) => {
                self.bool(true);
                self.time(t);
            }
            None => self.bool(false),
        }
    }

    /// Write a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Write a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append raw bytes with no length prefix (caller frames them).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked decoder over snapshot bytes.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, off: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    /// Take `N` raw bytes as an array.
    fn array<const N: usize>(&mut self) -> SnapResult<[u8; N]> {
        let (head, _) = self.buf[self.off..]
            .split_first_chunk::<N>()
            .ok_or(SnapError::Truncated)?;
        self.off += N;
        Ok(*head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> SnapResult<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> SnapResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> SnapResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a `usize` encoded as `u64`, rejecting values beyond this
    /// platform's address range.
    pub fn usize(&mut self) -> SnapResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize out of range: {v}")))
    }

    /// Read a boolean, rejecting anything but 0/1.
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError::Corrupt(format!("bad bool byte {v:#x}"))),
        }
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a virtual time.
    pub fn time(&mut self) -> SnapResult<SimTime> {
        Ok(SimTime::from_ps(self.u64()?))
    }

    /// Read an optional virtual time.
    pub fn opt_time(&mut self) -> SnapResult<Option<SimTime>> {
        Ok(if self.bool()? {
            Some(self.time()?)
        } else {
            None
        })
    }

    /// Read a `u32`-length-prefixed byte string. The length is validated
    /// against the remaining input before any allocation, so a corrupted
    /// length cannot trigger an absurd allocation.
    pub fn bytes(&mut self) -> SnapResult<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("non-utf8 string".into()))
    }
}

/// The checkpoint interface of a stateful component: encode the dynamic
/// state, and load it back into a freshly rebuilt instance. Static
/// configuration (addresses, link parameters, cost models) is **not**
/// encoded — the experiment build function reconstructs it, and restore only
/// overwrites what evolves during a run. `restore(decode(encode(x)))`
/// followed by continued execution must be indistinguishable from never
/// having snapshotted: that is what the round-trip property tests and the
/// bit-identity integration matrix pin down.
pub trait Snapshot {
    /// Append this component's dynamic state to `w`.
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()>;
    /// Load state previously written by [`Snapshot::snapshot`] into `self`
    /// (which must have been rebuilt with the same static configuration).
    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()>;
}

/// FNV-1a over a byte slice — the integrity checksum trailing every
/// checkpoint file (cheap, deterministic, dependency-free).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.usize(12);
        w.bool(true);
        w.bool(false);
        w.f64(0.125);
        w.time(SimTime::from_ns(42));
        w.opt_time(Some(SimTime::from_us(1)));
        w.opt_time(None);
        w.bytes(b"hello");
        w.str("world");
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.usize().unwrap(), 12);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), 0.125);
        assert_eq!(r.time().unwrap(), SimTime::from_ns(42));
        assert_eq!(r.opt_time().unwrap(), Some(SimTime::from_us(1)));
        assert_eq!(r.opt_time().unwrap(), None);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "world");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
        // A length prefix pointing past the end is caught, with no
        // allocation of the bogus length.
        let mut w = SnapWriter::new();
        w.u32(u32::MAX);
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn decode_errors_become_invalid_data() {
        let e = std::io::Error::from(SnapError::Truncated);
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(e.to_string(), SnapError::Truncated.to_string());
    }

    #[test]
    fn bad_bool_and_usize_are_corrupt() {
        let buf = [9u8];
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
