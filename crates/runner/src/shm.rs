//! Shared-memory channels between co-located processes (§5.2, §A.2).
//!
//! The paper's core mechanism connects co-located simulator processes
//! through shared-memory message queues that both sides poll; sockets are
//! only for cross-host links. This module provides the mapping for that:
//! one memory-mapped file per cross-partition link holding the slot memory
//! of two rings (one per direction). The rings themselves are
//! `simbricks_base::spsc` — the same producer, consumer and slot layout an
//! in-process channel uses, placed on a shared mapping instead of a private
//! one — so a component's [`ChannelEnd`] sits directly on the shared region:
//!
//! ```text
//! component ↔ ring in mapping ↔ component
//! ```
//!
//! What is left here is what is specific to a link's region: the header,
//! the create/attach handshake and its validation, poisoning, and cleanup.
//! The mapping itself is a `simbricks_base::pages::SharedMap`.
//!
//! ## Region layout
//!
//! ```text
//! offset 0    magic "SBSH", version, state, a_closed, b_closed
//! offset 8    link-name length (u16 LE) + name bytes (max 256)
//! offset 266  ChannelParams wire encoding (67 bytes incl. impairment)
//! offset 333  slots per ring (u32 LE)
//! offset 4096 ring A→B: ring_bytes(slots)
//! ...         ring B→A: ring_bytes(slots)
//! ```
//!
//! Each ring (`simbricks_base::spsc::ring_bytes`) is its descriptors (control
//! byte at +0, length at +2, arena offset at +4, timestamp at +8; four to a
//! cache line), then its payload arena of `slots + 1` maximum payloads. A
//! message's payload lies whole in the arena, at the offset its descriptor
//! names:
//!
//! ```text
//! ring + 0                 descriptors: slots × 16
//! ring + slots × 16        arena: (slots + 1) × MAX_PAYLOAD
//! ```
//!
//! `set_len` zero-fills the file, so a fresh region is two empty rings, and
//! a page no message has used is never written.
//!
//! The per-side `closed` bytes are the rings' close flags: side A's byte is
//! the producer flag of ring A→B and the consumer flag of ring B→A, side B's
//! the mirror image, so dropping a [`ChannelEnd`] is seen by the peer
//! process exactly as in-process.
//!
//! ## Handshake
//!
//! The creating side (the link owner, mirroring the listening side of the
//! TCP proxy) writes the header — the same metadata the SBPX socket
//! handshake frame carries: link name plus serialized
//! [`ChannelParams`] — then publishes `state = READY` with release ordering.
//! The attaching side polls for the file, validates magic, version, link
//! name, parameters and ring geometry against its own build-derived values,
//! and flips `state` to `ATTACHED`; on any mismatch it poisons the region
//! (`state = POISONED`) so the creator fails fast instead of simulating
//! against mis-wired queues. Everything read from the header is input from
//! outside the program: an inconsistent or hostile header is an
//! `InvalidData` error, never a panic or an out-of-bounds mapping.
//!
//! Cleanup: the creator unlinks the region file when the last handle to its
//! mapping drops; the `dist` orchestrator additionally removes the per-run
//! region directory when workers are reaped (normally or on abort), so
//! crashed runs never leak regions.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simbricks_base::pages::SharedMap;
use simbricks_base::spsc::{ring_bytes, Consumer, Producer, RingMem};
use simbricks_base::{ChannelEnd, ChannelParams, OwnedMsg, SendError, SnapReader, SnapWriter};

use crate::proxy::ShutdownSignal;

/// Magic bytes opening every shm region header.
const SHM_MAGIC: [u8; 4] = *b"SBSH";
/// Version of the region layout (6: each ring holds its 16-byte slot
/// descriptors, then one payload arena that the descriptors point into;
/// close bytes shared with the rings; no slot stride in the header).
/// Version 5 kept per-slot payload areas, a 1 KiB head and an 8 KiB tail
/// for each slot, and its descriptors held no offset.
const SHM_VERSION: u8 = 6;
/// Size reserved for the region header (one page).
const HEADER_LEN: usize = 4096;
/// Upper bound on the link name stored in the header.
const MAX_NAME: usize = 256;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_STATE: usize = 5;
const OFF_A_CLOSED: usize = 6;
const OFF_B_CLOSED: usize = 7;
const OFF_NAME_LEN: usize = 8;
const OFF_NAME: usize = 10;
const OFF_PARAMS: usize = OFF_NAME + MAX_NAME; // 266
const OFF_SLOTS: usize = OFF_PARAMS + ChannelParams::WIRE_LEN; // 333

// Region handshake states.
const STATE_READY: u8 = 1;
const STATE_ATTACHED: u8 = 2;
const STATE_POISONED: u8 = 3;

/// Bytes of one ring and of the whole region for a (possibly
/// header-supplied) number of slots per ring, or `None` when no ring has
/// that many.
fn region_geometry(slots: usize) -> Option<(usize, usize)> {
    let ring = ring_bytes(slots)?;
    Some((ring, ring.checked_mul(2)?.checked_add(HEADER_LEN)?))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Whether this platform supports the shared-memory transport.
pub fn shm_supported() -> bool {
    cfg!(unix)
}

// ---------------------------------------------------------------------------
// Region
// ---------------------------------------------------------------------------

/// A mapped shm region. The creating side owns the file and unlinks it on
/// drop; the mapping unmaps itself. Kept alive by the ring ends placed on it.
#[derive(Debug)]
pub(crate) struct ShmRegion {
    map: SharedMap,
    path: PathBuf,
    owner: bool,
    slots: usize,
    /// `ring_bytes(slots)`, computed where the geometry was validated.
    ring_bytes: usize,
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

// All shared mutation of the region goes through atomics — the header's
// state and close bytes here, the per-slot ownership protocol in
// `simbricks_base` — and the header's other bytes are written only before
// `READY` is published.
impl ShmRegion {
    fn atomic_at(&self, off: usize) -> &AtomicU8 {
        debug_assert!(off < HEADER_LEN);
        // SAFETY: the byte is mapped and only accessed as an AtomicU8 by
        // both processes.
        unsafe { self.map.at(off).cast::<AtomicU8>().as_ref() }
    }

    fn write_bytes(&self, off: usize, data: &[u8]) {
        debug_assert!(off + data.len() <= HEADER_LEN);
        // SAFETY: inside the header, which every region maps; only the
        // creator writes it, before publishing.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.map.at(off).as_ptr(), data.len())
        }
    }

    fn read_bytes(&self, off: usize, out: &mut [u8]) {
        debug_assert!(off + out.len() <= HEADER_LEN);
        // SAFETY: inside the header; the creator published it with `READY`.
        unsafe {
            std::ptr::copy_nonoverlapping(self.map.at(off).as_ptr(), out.as_mut_ptr(), out.len())
        }
    }

    fn poison(&self) {
        self.atomic_at(OFF_STATE)
            .store(STATE_POISONED, Ordering::Release);
    }

    /// Tear the link down from outside the simulation (an injected `SEVER`):
    /// poison the region and raise both close bytes, so each side's ring
    /// ends see their peer as gone.
    pub(crate) fn sever(&self) {
        self.poison();
        self.atomic_at(OFF_A_CLOSED).store(1, Ordering::Release);
        self.atomic_at(OFF_B_CLOSED).store(1, Ordering::Release);
    }

    /// Creator side: wait until the peer attached (or poisoned the region /
    /// the deadline passed / shutdown was signalled). With a deadline that
    /// has already passed this is a one-shot check.
    pub(crate) fn wait_attached(
        &self,
        deadline: Instant,
        shutdown: &ShutdownSignal,
    ) -> io::Result<()> {
        loop {
            match self.atomic_at(OFF_STATE).load(Ordering::Acquire) {
                STATE_ATTACHED => return Ok(()),
                STATE_POISONED => return Err(bad("peer rejected the shm region handshake")),
                _ => {}
            }
            if shutdown.is_set() {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "shutdown during attach",
                ));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "shm peer never attached",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Create the region file for `link` (the owning / listening side),
/// returning the A-side endpoint. The header carries the same metadata as
/// the SBPX socket handshake and is published with `state = READY`.
pub fn create_region(path: &Path, link: &str, params: ChannelParams) -> io::Result<ShmEndpoint> {
    if link.len() > MAX_NAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "link name too long",
        ));
    }
    let slots = params.queue_len.max(2);
    let (ring_bytes, len) = region_geometry(slots)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "queue length too large"))?;
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.set_len(len as u64)?;
    let region = ShmRegion {
        map: SharedMap::new(&file, len)?,
        path: path.to_path_buf(),
        owner: true,
        slots,
        ring_bytes,
    };
    region.write_bytes(OFF_MAGIC, &SHM_MAGIC);
    region.write_bytes(OFF_VERSION, &[SHM_VERSION]);
    region.write_bytes(OFF_NAME_LEN, &(link.len() as u16).to_le_bytes());
    region.write_bytes(OFF_NAME, link.as_bytes());
    let mut block = SnapWriter::new();
    params.encode(&mut block);
    region.write_bytes(OFF_PARAMS, &block.into_vec());
    region.write_bytes(OFF_SLOTS, &(slots as u32).to_le_bytes());
    // Publish: everything above must be visible before READY is observed.
    region
        .atomic_at(OFF_STATE)
        .store(STATE_READY, Ordering::Release);
    Ok(ShmEndpoint::new(Arc::new(region), Side::A, params))
}

/// Attach to the region `create_region` publishes at `path` (the connecting
/// side), validating the handshake metadata against this side's own `link`
/// name and build-derived `params`. Polls until the creator has published
/// the header or `deadline` passes; a metadata mismatch poisons the region
/// so the creator fails fast too.
pub fn attach_region(
    path: &Path,
    link: &str,
    params: ChannelParams,
    deadline: Instant,
    shutdown: &ShutdownSignal,
) -> io::Result<ShmEndpoint> {
    let slots = params.queue_len.max(2);
    loop {
        if shutdown.is_set() {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "shutdown during attach",
            ));
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("shm region {} never became ready", path.display()),
            ));
        }
        match probe_region(path)? {
            Some(region) => {
                let mut magic = [0u8; 4];
                region.read_bytes(OFF_MAGIC, &mut magic);
                if magic != SHM_MAGIC {
                    region.poison();
                    return Err(bad("shm region magic mismatch"));
                }
                let mut version = [0u8];
                region.read_bytes(OFF_VERSION, &mut version);
                if version[0] != SHM_VERSION {
                    region.poison();
                    return Err(bad("shm region version mismatch"));
                }
                let mut nlen = [0u8; 2];
                region.read_bytes(OFF_NAME_LEN, &mut nlen);
                let nlen = u16::from_le_bytes(nlen) as usize;
                let mut name = vec![0u8; nlen.min(MAX_NAME)];
                region.read_bytes(OFF_NAME, &mut name);
                if nlen > MAX_NAME || name != link.as_bytes() {
                    region.poison();
                    return Err(bad("shm region link name mismatch"));
                }
                let mut pwire = [0u8; ChannelParams::WIRE_LEN];
                region.read_bytes(OFF_PARAMS, &mut pwire);
                if ChannelParams::decode(&mut SnapReader::new(&pwire)).ok() != Some(params) {
                    region.poison();
                    return Err(bad("shm region channel params mismatch"));
                }
                if region.slots != slots {
                    // Covers queue_len mismatches too: geometry is read from
                    // the creator's header, so a differently-sized region is
                    // rejected (and poisoned) here instead of hanging the
                    // attach poll until the connect timeout. Past this check
                    // the rings are laid over exactly `ring_bytes(slots)`
                    // mapped bytes each.
                    region.poison();
                    return Err(bad("shm region ring geometry mismatch"));
                }
                region
                    .atomic_at(OFF_STATE)
                    .store(STATE_ATTACHED, Ordering::Release);
                return Ok(ShmEndpoint::new(Arc::new(region), Side::B, params));
            }
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Open and map the region at `path` if the creator has fully published it
/// (file exists, `state == READY`, and its size matches the geometry in its
/// own header). `Ok(None)` means "not yet" — the attacher keeps polling. The
/// geometry is taken from the creator's header, never from the attacher's
/// expectations, so a creator/attacher parameter mismatch surfaces as a fast
/// validation failure in [`attach_region`] rather than an endless poll.
fn probe_region(path: &Path) -> io::Result<Option<ShmRegion>> {
    let mut file = match File::options().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN as u64 {
        return Ok(None);
    }
    // Peek the state byte through the file before paying for the mapping;
    // the creator publishes it (with release ordering) only after the whole
    // header — including the geometry fields — is written.
    let mut state = [0u8];
    file.seek(SeekFrom::Start(OFF_STATE as u64))?;
    file.read_exact(&mut state)?;
    if state[0] == 0 {
        return Ok(None);
    }
    let mut geom = [0u8; 4];
    file.seek(SeekFrom::Start(OFF_SLOTS as u64))?;
    file.read_exact(&mut geom)?;
    let slots = u32::from_le_bytes(geom) as usize;
    // The mapping length must come from the header the creator wrote; an
    // inconsistent file (truncated, a ring too large for any region, or not
    // a SimBricks region at all) is an error, not a "keep polling".
    let (ring_bytes, len) = match region_geometry(slots) {
        Some((ring, len)) if slots >= 2 && len as u64 == file_len => (ring, len),
        _ => return Err(bad("shm region size inconsistent with its header")),
    };
    Ok(Some(ShmRegion {
        map: SharedMap::new(&file, len)?,
        path: path.to_path_buf(),
        owner: false,
        slots,
        ring_bytes,
    }))
}

// ---------------------------------------------------------------------------
// Endpoint: one side's producer/consumer on the two rings
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    /// The creating side: produces into ring A→B, consumes ring B→A.
    A,
    /// The attaching side.
    B,
}

/// One side of an shm link: the producer of its transmit ring and the
/// consumer of its receive ring, both sitting on the mapping.
/// [`ShmEndpoint::into_channel_end`] turns it into the component's channel
/// endpoint.
pub struct ShmEndpoint {
    region: Arc<ShmRegion>,
    side: Side,
    /// The parameters the handshake agreed on.
    params: ChannelParams,
    tx: Producer,
    rx: Consumer,
}

impl std::fmt::Debug for ShmEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmEndpoint")
            .field("region", &self.region)
            .field("side", &self.side)
            .finish_non_exhaustive()
    }
}

impl ShmEndpoint {
    fn new(region: Arc<ShmRegion>, side: Side, params: ChannelParams) -> Self {
        // Ring A→B first, then B→A; side A's close byte is the producer flag
        // of the former and the consumer flag of the latter.
        let a_to_b = RingMem {
            slots: region.map.at(HEADER_LEN),
            len: region.slots,
            producer_closed: region.map.at(OFF_A_CLOSED).cast(),
            consumer_closed: region.map.at(OFF_B_CLOSED).cast(),
            owner: region.clone(),
        };
        let b_to_a = RingMem {
            slots: region.map.at(HEADER_LEN + region.ring_bytes),
            producer_closed: a_to_b.consumer_closed,
            consumer_closed: a_to_b.producer_closed,
            ..a_to_b.clone()
        };
        let (tx_mem, rx_mem) = match side {
            Side::A => (a_to_b, b_to_a),
            Side::B => (b_to_a, a_to_b),
        };
        // SAFETY: create/attach validated that the mapping holds two rings
        // of `ring_bytes(slots)` 16-byte-aligned bytes, zero-filled by
        // `set_len`; `owner` keeps it mapped; and the handshake admits
        // exactly one creator (producer of A→B, consumer of B→A) and one
        // attacher (the mirror image).
        let (tx, rx) = unsafe { (Producer::over(tx_mem), Consumer::over(rx_mem)) };
        ShmEndpoint {
            region,
            side,
            params,
            tx,
            rx,
        }
    }

    /// Enqueue one message into the transmit ring. Non-blocking.
    pub fn push(&mut self, msg: &OwnedMsg) -> Result<(), SendError> {
        self.tx.try_send(msg.timestamp, msg.ty, &msg.data)
    }

    /// Dequeue the next message from the receive ring, if any.
    pub fn pop(&mut self) -> Option<OwnedMsg> {
        self.rx.try_recv()
    }

    /// The mapping behind this endpoint, for checks and teardown that
    /// outlive the endpoint's conversion into a [`ChannelEnd`].
    pub(crate) fn region(&self) -> Arc<ShmRegion> {
        self.region.clone()
    }

    /// The channel endpoint a component uses: its rings are this endpoint's,
    /// in the mapping, so sync, impairment and back-pressure behave exactly
    /// as on an in-process channel. Side A is the link's `a` end (direction
    /// tag 0), side B its `b` end (tag 1).
    pub fn into_channel_end(self) -> ChannelEnd {
        let mut end = ChannelEnd::new(self.tx, self.rx, self.params);
        end.set_dir(match self.side {
            Side::A => 0,
            Side::B => 1,
        });
        end
    }
}

/// A unique region path for `link` under `dir` (sanitized so arbitrary link
/// names cannot escape the directory).
pub(crate) fn region_path(dir: &Path, link: &str) -> PathBuf {
    let mut name: String = link
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    // Distinct links must get distinct files even after sanitization.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in link.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    name.push_str(&format!("-{h:016x}.shm"));
    dir.join(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{SimTime, MAX_PAYLOAD, MSG_SYNC};

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "simbricks-shm-test-{}-{tag}-{n}.shm",
            std::process::id()
        ))
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    /// What only these tests need of an endpoint.
    impl ShmEndpoint {
        /// Mark this side closed without dropping it.
        fn set_closed(&self) {
            let off = match self.side {
                Side::A => OFF_A_CLOSED,
                Side::B => OFF_B_CLOSED,
            };
            self.region.atomic_at(off).store(1, Ordering::Release);
        }

        fn peer_closed(&self) -> bool {
            self.rx.peer_closed()
        }

        fn wait_attached(&self, deadline: Instant, sd: &ShutdownSignal) -> io::Result<()> {
            self.region.wait_attached(deadline, sd)
        }
    }

    #[test]
    fn create_attach_push_pop_roundtrip() {
        let path = temp_path("roundtrip");
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l0", params).unwrap();
        let mut b = attach_region(&path, "l0", params, soon(), &sd).unwrap();
        for i in 0..20u64 {
            // Interleave so the ring wraps.
            a.push(&OwnedMsg::new(
                SimTime::from_ns(i),
                5,
                i.to_le_bytes().to_vec(),
            ))
            .unwrap();
            let m = b.pop().unwrap();
            assert_eq!(m.timestamp, SimTime::from_ns(i));
            assert_eq!(m.ty, 5);
            assert_eq!(m.data, i.to_le_bytes().to_vec());
        }
        // Reverse direction, including a SYNC.
        b.push(&OwnedMsg::sync(SimTime::from_ns(7))).unwrap();
        let m = a.pop().unwrap();
        assert_eq!(m.ty, MSG_SYNC);
        assert!(m.data.is_empty());
    }

    #[test]
    fn ring_fills_and_drains_in_fifo_order() {
        let path = temp_path("fifo");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l1", params).unwrap();
        let mut b = attach_region(&path, "l1", params, soon(), &sd).unwrap();
        for i in 0..4u64 {
            a.push(&OwnedMsg::new(SimTime::from_ns(i), 1, vec![i as u8]))
                .unwrap();
        }
        assert_eq!(
            a.push(&OwnedMsg::new(SimTime::ZERO, 1, vec![])),
            Err(SendError::Full)
        );
        for i in 0..4u64 {
            assert_eq!(b.pop().unwrap().data, vec![i as u8]);
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn attach_validates_handshake_metadata() {
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();

        // Wrong link name.
        let path = temp_path("name");
        let _a = create_region(&path, "left", params).unwrap();
        let deadline = Instant::now() + Duration::from_millis(500);
        let err = attach_region(&path, "right", params, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Wrong channel parameters (latency differs).
        let path = temp_path("params");
        let a = create_region(&path, "l", params).unwrap();
        let other = params.with_latency(SimTime::from_ns(9));
        let deadline = Instant::now() + Duration::from_millis(500);
        let err = attach_region(&path, "l", other, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The rejection poisoned the region, so the creator fails fast too.
        let err = a
            .wait_attached(Instant::now() + Duration::from_millis(200), &sd)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Differing queue lengths change the region size; the attacher must
        // reject fast from the creator's header geometry, not poll the
        // wrong expected size until the connect timeout.
        let path = temp_path("qlen");
        let _a = create_region(&path, "l", params).unwrap();
        let other = ChannelParams::default_sync().with_queue_len(32);
        let deadline = Instant::now() + Duration::from_millis(500);
        let before = Instant::now();
        let err = attach_region(&path, "l", other, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            before.elapsed() < Duration::from_millis(400),
            "failed fast, no timeout poll"
        );

        // Missing region times out instead of hanging.
        let path = temp_path("missing");
        let deadline = Instant::now() + Duration::from_millis(100);
        let err = attach_region(&path, "l", params, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn creator_drop_unlinks_the_region_file() {
        let path = temp_path("unlink");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let a = create_region(&path, "l", params).unwrap();
        let b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        assert!(path.exists());
        drop(b);
        assert!(path.exists(), "attacher drop keeps the file");
        drop(a);
        assert!(!path.exists(), "creator drop unlinks the region");
    }

    #[test]
    fn closed_flags_propagate_between_sides() {
        let path = temp_path("close");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let a = create_region(&path, "l", params).unwrap();
        let b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        assert!(!a.peer_closed());
        assert!(!b.peer_closed());
        b.set_closed();
        assert!(a.peer_closed());
        assert!(!b.peer_closed());
        a.set_closed();
        assert!(b.peer_closed());
    }

    #[test]
    fn cross_thread_transfer_with_wrapping() {
        let path = temp_path("threads");
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l", params).unwrap();
        let mut b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u64;
            while sent < n {
                let msg = OwnedMsg::new(SimTime::from_ps(sent), 5, sent.to_le_bytes().to_vec());
                match a.push(&msg) {
                    Ok(()) => sent += 1,
                    Err(SendError::Full) => std::thread::yield_now(),
                    Err(e) => panic!("push failed: {e:?}"),
                }
            }
        });
        let mut expect = 0u64;
        while expect < n {
            match b.pop() {
                Some(m) => {
                    assert_eq!(m.data, expect.to_le_bytes().to_vec());
                    assert_eq!(m.timestamp, SimTime::from_ps(expect));
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
    }

    /// A published header (`state = READY`) claiming `slots` per ring,
    /// followed by `body` bytes of ring space.
    fn write_header(path: &Path, version: u8, slots: u32, body: usize) {
        let mut f = vec![0u8; HEADER_LEN + body];
        f[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(&SHM_MAGIC);
        f[OFF_VERSION] = version;
        f[OFF_STATE] = STATE_READY;
        f[OFF_SLOTS..OFF_SLOTS + 4].copy_from_slice(&slots.to_le_bytes());
        std::fs::write(path, f).unwrap();
    }

    /// Shm headers are input from outside the program: whatever they hold,
    /// attaching is a typed error — no overflow panic (this runs with
    /// overflow checks on), no mapping past the end of the file.
    #[test]
    fn hostile_headers_are_errors_not_panics() {
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();
        let attach = |path: &Path| {
            let err = attach_region(path, "l", params, soon(), &sd).expect_err("rejected");
            let _ = std::fs::remove_file(path);
            err.kind()
        };
        let ring = ring_bytes(8).unwrap();

        // More slots than any ring can have: the arena's offsets would not
        // fit a descriptor.
        let path = temp_path("overflow");
        write_header(&path, SHM_VERSION, u32::MAX, 0);
        assert_eq!(attach(&path), io::ErrorKind::InvalidData);

        // The file is shorter than the geometry its own header declares.
        let path = temp_path("short");
        write_header(&path, SHM_VERSION, 8, ring + ring / 2);
        assert_eq!(attach(&path), io::ErrorKind::InvalidData);

        // Regions of earlier layout versions are refused, not reinterpreted:
        // they are written here with today's size, and v2 to v5 differ from
        // today in the ring interior alone (v4 had one 9 KiB payload area per
        // slot, v5 a 1 KiB head and an 8 KiB tail per slot, and neither had
        // an arena offset in its descriptors).
        for old in [1, 2, 3, 4, 5] {
            let path = temp_path(&format!("v{old}"));
            write_header(&path, old, 8, 2 * ring);
            assert_eq!(attach(&path), io::ErrorKind::InvalidData);
        }
    }

    /// A descriptor is input from the peer process: one whose length
    /// exceeds `MAX_PAYLOAD`, whose offset lies past the arena, or whose
    /// span crosses the arena's end is delivered clamped into the arena,
    /// never read out of bounds. The clamped read keeps the (clamped)
    /// length and ends at the arena's last byte.
    #[test]
    #[cfg(unix)]
    fn oversized_slot_length_is_clamped() {
        use std::os::unix::fs::FileExt;
        let path = temp_path("len");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let _a = create_region(&path, "l", params).unwrap();
        let mut b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        let file = File::options().write(true).open(&path).unwrap();
        // Ring A→B: four descriptors (control byte at +0, length at +2,
        // offset at +4, timestamp at +8), then an arena of five maximum
        // payloads whose last bytes are marked here.
        let ring = HEADER_LEN as u64;
        let arena = ring + 4 * 16;
        let arena_len = 5 * MAX_PAYLOAD;
        let tail: Vec<u8> = (0..MAX_PAYLOAD).map(|i| (i % 253) as u8).collect();
        file.write_all_at(&tail, arena + (arena_len - MAX_PAYLOAD) as u64)
            .unwrap();
        let cases: [(u16, u32, usize); 3] = [
            (u16::MAX, (arena_len - MAX_PAYLOAD) as u32, MAX_PAYLOAD),
            (100, u32::MAX, 100),
            (200, (arena_len - 10) as u32, 200),
        ];
        for (slot, (len, off, want)) in cases.into_iter().enumerate() {
            let desc = ring + 16 * slot as u64;
            file.write_all_at(&len.to_le_bytes(), desc + 2).unwrap();
            file.write_all_at(&off.to_le_bytes(), desc + 4).unwrap();
            file.write_all_at(&[0x80 | 5], desc).unwrap();
            let m = b.pop().expect("published slot is delivered");
            assert_eq!(m.ty, 5);
            assert_eq!(m.data.len(), want, "len {len} at {off}");
            assert!(m.data == tail[MAX_PAYLOAD - want..], "len {len} at {off}");
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn region_path_sanitizes_and_distinguishes() {
        let dir = PathBuf::from("/tmp/x");
        let p1 = region_path(&dir, "a/b");
        let p2 = region_path(&dir, "a_b");
        assert_ne!(p1, p2, "sanitized collisions disambiguated by hash");
        assert!(p1.starts_with(&dir));
        assert!(p1.file_name().unwrap().to_str().unwrap().ends_with(".shm"));
        assert!(!p1.to_str().unwrap().contains("a/b"));
    }

    /// Random push/pop interleavings through the mmap ring behave exactly
    /// like a VecDeque model: FIFO order, no loss, no duplication, Full
    /// exactly when the model holds `queue_len` messages. 64 cases, few
    /// enough for the ThreadSanitizer job.
    #[test]
    fn ring_matches_vecdeque_model() {
        use simbricks_base::impair::check_cases;
        use std::collections::VecDeque;

        check_cases("ring_matches_vecdeque_model", 0x5a3, 64, |rng| {
            let ops = 1 + rng.below(399);
            let qlen = 2 + rng.below(14) as usize;
            let payload_len = rng.below(64) as usize;
            let path = temp_path("prop");
            let params = ChannelParams::default_sync().with_queue_len(qlen);
            let sd = ShutdownSignal::default();
            let mut a = create_region(&path, "prop", params).unwrap();
            let mut b = attach_region(&path, "prop", params, soon(), &sd).unwrap();
            let mut model: VecDeque<OwnedMsg> = VecDeque::new();
            let mut seq = 0u64;
            for _ in 0..ops {
                if rng.below(2) == 1 {
                    let msg = OwnedMsg::new(
                        SimTime::from_ps(seq),
                        (seq % 127 + 1) as u8,
                        vec![(seq % 251) as u8; payload_len],
                    );
                    seq += 1;
                    match a.push(&msg) {
                        Ok(()) => model.push_back(msg),
                        Err(SendError::Full) => {
                            assert_eq!(model.len(), qlen, "Full only when the model is full");
                        }
                        Err(e) => panic!("unexpected push error {e:?}"),
                    }
                } else {
                    assert_eq!(b.pop(), model.pop_front(), "pop matches the model exactly");
                }
            }
            // Drain: everything still queued comes out in order.
            while let Some(want) = model.pop_front() {
                assert_eq!(b.pop(), Some(want));
            }
            assert_eq!(b.pop(), None);
        });
    }
}
