//! Simulated host physical memory, the target of device DMA.
//!
//! Resident memory follows the bytes the guest wrote, not the pages they
//! landed on. Guest memory is split into 256-byte chunks, and a chunk
//! gets backing storage only when it is first written: the next free slot of
//! a densely packed backing area. A `u32` map with one entry per guest chunk
//! says where each chunk lives (0: never written, otherwise 1 + its slot).
//! The driver's receive buffers are 4 352 B apart and its i40e transmit
//! buffers 9 216 B, so with a flat layout every frame, however small, made a
//! fresh 4 KiB page resident; packed, a 60-byte ARP frame costs one chunk.
//!
//! The map and the backing share one demand-zero mapping
//! (`simbricks_base::pages::Pages`, like every ring): creating a memory
//! writes nothing, and only the map pages and backing slots a simulation
//! uses become resident, in a process's first experiment as in its fifth.

use simbricks_base::pages::Pages;
use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};

/// Bytes per chunk: the unit of backing allocation and of the snapshot.
/// Smaller chunks waste less of a partly written chunk, larger ones need
/// fewer map entries and copy in fewer runs. Peak RSS of `perf`'s
/// `fattree128_hier` by chunk size (seeds 1 and 2, 2-core x86-64 Linux):
///
/// | chunk            | peak RSS       |
/// |------------------|----------------|
/// | 128 B            | 47.8, 48.0 MiB |
/// | 256 B            | 47.9, 47.8 MiB |
/// | 512 B            | 49.3, 49.3 MiB |
/// | 1024 B           | 51.9, 51.8 MiB |
/// | flat 4 KiB pages | 71.3 MiB       |
const CHUNK: usize = 256;

/// Page size the backing area is aligned to, so that slots pack into as few
/// pages as possible.
const PAGE: usize = 4096;

/// Bytes of snapshot header per encoded chunk: its `u64` index and the
/// `u32` length prefix of its bytes.
const SNAP_ENTRY_HEADER: usize = 12;

/// A physical memory of fixed size. Descriptor rings and packet buffers
/// allocated by drivers live here; NIC and NVMe models read and write it via
/// DMA messages which the host adapter services against it.
pub struct PhysMem {
    /// The chunk map (`chunks` native-endian `u32`s) at offset 0, then the
    /// backing slots from `backing_off` on.
    mem: Pages,
    /// Guest-visible size in bytes.
    size: usize,
    /// Offset of slot 0 in `mem`: the map's length rounded up to a page.
    backing_off: usize,
    /// Backing slots handed out so far; the next written chunk takes this
    /// one.
    used_slots: usize,
    /// Simple bump allocator for driver data structures.
    next_alloc: u64,
}

impl PhysMem {
    pub fn new(size: usize) -> Self {
        let chunks = size.div_ceil(CHUNK);
        assert!(
            u32::try_from(chunks).is_ok_and(|c| c < u32::MAX),
            "simulated physical memory of {size} bytes has too many chunks for a u32 map"
        );
        let backing_off = (chunks * 4).next_multiple_of(PAGE);
        PhysMem {
            mem: Pages::zeroed(backing_off + chunks * CHUNK),
            size,
            backing_off,
            used_slots: 0,
            // Keep the first page unused so address 0 never appears in rings.
            next_alloc: 0x1000,
        }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Allocate `len` bytes aligned to `align`; returns the physical address.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        let align = align.max(1);
        let addr = self.next_alloc.div_ceil(align) * align;
        assert!(
            (addr + len) as usize <= self.size,
            "simulated physical memory exhausted ({} of {} bytes)",
            addr + len,
            self.size
        );
        self.next_alloc = addr + len;
        addr
    }

    /// Copy `buf.len()` bytes starting at `addr` into `buf`. Chunks never
    /// written read as zeros.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        let start = self.offset(addr, buf.len());
        let mut done = 0;
        while done < buf.len() {
            let (backing, n) = self.run(start + done, buf.len() - done);
            let out = &mut buf[done..done + n];
            match backing {
                Some(b) => out.copy_from_slice(&self.mem[b..b + n]),
                None => out.fill(0),
            }
            done += n;
        }
    }

    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let start = self.offset(addr, data.len());
        if data.is_empty() {
            return;
        }
        // Back every chunk first: chunks first written together take
        // consecutive slots, and later accesses copy them in one run.
        for chunk in start / CHUNK..(start + data.len()).div_ceil(CHUNK) {
            if self.slot(chunk).is_none() {
                self.assign_slot(chunk);
            }
        }
        let mut done = 0;
        while done < data.len() {
            let (backing, n) = self.run(start + done, data.len() - done);
            let b = backing.expect("every chunk was backed above");
            self.mem[b..b + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// `addr` as a byte offset, checked so that `len` bytes from it lie
    /// inside the memory (a device model addressing past it is a bug, as
    /// indexing out of bounds would be).
    fn offset(&self, addr: u64, len: usize) -> usize {
        usize::try_from(addr)
            .ok()
            .filter(|a| a.checked_add(len).is_some_and(|end| end <= self.size))
            .unwrap_or_else(|| {
                panic!(
                    "guest access of {len} bytes at {addr:#x} beyond physical memory of {} bytes",
                    self.size
                )
            })
    }

    /// The longest stretch of the `len` bytes from guest offset `at` that
    /// one copy serves: chunks in consecutive backing slots, or chunks never
    /// written. Returns where the stretch starts in `mem` (`None`: it reads
    /// as zeros) and its length.
    fn run(&self, at: usize, len: usize) -> (Option<usize>, usize) {
        let (chunk, off) = (at / CHUNK, at % CHUNK);
        let slot = self.slot(chunk);
        let mut n = (CHUNK - off).min(len);
        let mut next = chunk + 1;
        while n < len && self.slot(next) == slot.map(|s| s + (next - chunk)) {
            n += CHUNK.min(len - n);
            next += 1;
        }
        (slot.map(|s| self.backing_off + s * CHUNK + off), n)
    }

    /// The backing slot of `chunk`, or `None` if it was never written.
    fn slot(&self, chunk: usize) -> Option<usize> {
        let entry = &self.mem[chunk * 4..chunk * 4 + 4];
        let entry = u32::from_ne_bytes(entry.try_into().expect("four map bytes"));
        entry.checked_sub(1).map(|slot| slot as usize)
    }

    /// Give `chunk` the next free backing slot (which is still zero).
    fn assign_slot(&mut self, chunk: usize) {
        // `new` bounds the chunk count, and each chunk takes one slot.
        let entry = u32::try_from(self.used_slots + 1).expect("fewer slots than chunks");
        self.mem[chunk * 4..chunk * 4 + 4].copy_from_slice(&entry.to_ne_bytes());
        self.used_slots += 1;
    }
}

impl Snapshot for PhysMem {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.u64(self.next_alloc);
        w.usize(self.size);
        // Sparse chunk encoding: (chunk index, raw chunk) for every written
        // chunk holding a non-zero byte, in index order, so the bytes depend
        // on the contents alone and not on the order chunks were written in.
        let chunks: Vec<(usize, &[u8])> = (0..self.size.div_ceil(CHUNK))
            .filter_map(|chunk| {
                let at = self.backing_off + self.slot(chunk)? * CHUNK;
                let bytes = &self.mem[at..at + CHUNK.min(self.size - chunk * CHUNK)];
                bytes.iter().any(|b| *b != 0).then_some((chunk, bytes))
            })
            .collect();
        w.usize(chunks.len());
        for (chunk, bytes) in chunks {
            w.u64(chunk as u64);
            w.bytes(bytes);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        let next_alloc = r.u64()?;
        let size = r.usize()?;
        if size != self.size {
            return Err(SnapError::Corrupt(format!(
                "physical memory size mismatch (snapshot {size}, built {})",
                self.size
            )));
        }
        let count = r.usize()?;
        // Every entry carries at least its header, so the bytes left bound
        // the count: a larger one is a snapshot that ends before its chunks.
        if count > r.remaining() / SNAP_ENTRY_HEADER {
            return Err(SnapError::Truncated);
        }
        *self = PhysMem {
            next_alloc,
            ..PhysMem::new(size)
        };
        for _ in 0..count {
            let chunk = r.u64()?;
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let start = usize::try_from(chunk)
                .ok()
                .and_then(|c| c.checked_mul(CHUNK))
                .filter(|&start| len <= CHUNK && len <= size.saturating_sub(start))
                .ok_or_else(|| {
                    SnapError::Corrupt(format!(
                        "chunk {chunk} of {len} bytes out of bounds of {size} bytes"
                    ))
                })?;
            self.write(start as u64, bytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::Rng;

    /// `len` bytes at `addr`, read out.
    fn read(m: &PhysMem, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0xeeu8; len];
        m.read_into(addr, &mut buf);
        buf
    }

    #[test]
    fn alloc_is_aligned_and_non_overlapping() {
        let mut m = PhysMem::new(1 << 20);
        let a = m.alloc(100, 64);
        let b = m.alloc(100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert!(a >= 0x1000);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMem::new(1 << 16);
        let a = m.alloc(16, 8);
        m.write(a, &[1, 2, 3, 4]);
        assert_eq!(read(&m, a, 4), [1, 2, 3, 4]);
        m.write_u64(a, 0xdead_beef);
        assert_eq!(m.read_u64(a), 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut m = PhysMem::new(0x2000);
        let _ = m.alloc(0x2000, 8);
    }

    #[test]
    #[should_panic(expected = "beyond physical memory")]
    fn access_past_the_end_panics() {
        let m = PhysMem::new(0x2000);
        read(&m, 0x1ff0, 0x20);
    }

    /// Random writes and reads of 0 to 9 216 bytes, crossing chunk edges,
    /// behave exactly like a flat byte array, before and after a snapshot
    /// round trip. The size is not a multiple of a chunk, so the short last
    /// chunk is covered too.
    #[test]
    fn matches_a_flat_model_through_snapshot() {
        const SIZE: usize = (1 << 18) + 100;
        let mut m = PhysMem::new(SIZE);
        let mut model = vec![0u8; SIZE];
        let mut rng = Rng::new(0x5eed);
        for step in 0..4000u32 {
            let len = rng.below(9217) as usize;
            let addr = rng.below((SIZE - len + 1) as u64) as usize;
            if step % 3 == 0 {
                assert_eq!(read(&m, addr as u64, len), model[addr..addr + len]);
            } else {
                // Every tenth write is zeros, so some written chunks hold
                // nothing the snapshot must keep.
                let fill = if step % 10 == 0 { 0 } else { step as u8 | 1 };
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                m.write(addr as u64, &data);
                model[addr..addr + len].copy_from_slice(&data);
            }
        }
        assert_eq!(read(&m, 0, SIZE), model);

        let mut w = SnapWriter::new();
        m.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let mut back = PhysMem::new(SIZE);
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(read(&back, 0, SIZE), model);
        let mut again = SnapWriter::new();
        back.snapshot(&mut again).unwrap();
        assert_eq!(again.into_vec(), buf, "a restored memory snapshots alike");
    }

    /// A 60-byte frame in each of 32 receive buffers 4 352 B apart holds 32
    /// chunks (8 KiB), where flat pages held 32 pages (128 KiB).
    #[test]
    fn small_frames_at_the_rx_stride_take_one_chunk_each() {
        let mut m = PhysMem::new(8 << 20);
        let bufs = m.alloc(256 * 4352, 4096);
        for i in 0..32 {
            m.write(bufs + i * 4352, &[0xa5; 60]);
        }
        assert_eq!(m.used_slots, 32);
    }

    #[test]
    fn snapshot_is_sparse_and_roundtrips() {
        let mut m = PhysMem::new(1 << 20);
        let a = m.alloc(256, 64);
        m.write(a, &[0xabu8; 256]);
        m.write(1 << 19, &[7u8; 10]);
        let mut w = SnapWriter::new();
        m.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        assert!(
            buf.len() < 3 * CHUNK + 64,
            "sparse encoding: {} bytes for 1 MiB with 3 touched chunks",
            buf.len()
        );
        let mut back = PhysMem::new(1 << 20);
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(read(&back, a, 256), read(&m, a, 256));
        assert_eq!(read(&back, 1 << 19, 10), [7u8; 10]);
        assert_eq!(read(&back, 0, 16), [0u8; 16], "untouched chunks stay zero");
        // Allocator position carries over: new allocations do not overlap.
        let b = back.alloc(64, 64);
        assert!(b >= a + 256);
        // Restoring over a used memory clears what the snapshot does not
        // hold, and the result snapshots to the same bytes.
        m.write(3 << 18, &[9u8; 4]);
        m.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(read(&m, 3 << 18, 4), [0u8; 4]);
        let mut again = SnapWriter::new();
        m.snapshot(&mut again).unwrap();
        assert_eq!(again.into_vec(), buf);
        // Size mismatch is rejected.
        let mut wrong = PhysMem::new(1 << 19);
        assert!(wrong.restore(&mut SnapReader::new(&buf)).is_err());
    }

    /// Hostile snapshots are rejected with a typed error: a count beyond
    /// the bytes left, a chunk index past the end, a chunk longer than
    /// [`CHUNK`].
    #[test]
    fn restore_rejects_malformed_chunks() {
        const SIZE: usize = 1 << 16;
        let encode = |count: u64, entries: &[(u64, usize)]| {
            let mut w = SnapWriter::new();
            w.u64(0x1000);
            w.usize(SIZE);
            w.u64(count);
            for &(chunk, len) in entries {
                w.u64(chunk);
                w.bytes(&vec![1u8; len]);
            }
            w.into_vec()
        };
        let restore = |buf: Vec<u8>| PhysMem::new(SIZE).restore(&mut SnapReader::new(&buf));
        assert!(restore(encode(1, &[(3, CHUNK)])).is_ok());
        assert!(matches!(
            restore(encode(u64::MAX >> 1, &[(3, CHUNK)])),
            Err(SnapError::Truncated)
        ));
        for (chunk, len) in [
            ((SIZE / CHUNK) as u64, 1),
            (u64::MAX, 1),
            (u64::MAX / CHUNK as u64, 1),
            (3, CHUNK + 1),
        ] {
            assert!(
                matches!(
                    restore(encode(1, &[(chunk, len)])),
                    Err(SnapError::Corrupt(_))
                ),
                "chunk {chunk} of {len} bytes"
            );
        }
    }
}
