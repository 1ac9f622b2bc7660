//! Simulated host physical memory, the target of device DMA.

use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};

/// Snapshot page granularity: only pages containing a non-zero byte are
/// encoded, so a checkpoint of a mostly-untouched multi-megabyte memory
/// stays proportional to the memory actually used.
const SNAP_PAGE: usize = 4096;

/// A flat physical memory of fixed size. Descriptor rings and packet buffers
/// allocated by drivers live here; NIC and NVMe models read and write it via
/// DMA messages which the host adapter services against this array.
pub struct PhysMem {
    mem: pages::Pages,
    /// End of the highest byte ever written: every byte from here on is
    /// still zero, so a snapshot never reads (or maps) the untouched rest.
    written_end: usize,
    /// Simple bump allocator for driver data structures.
    next_alloc: u64,
}

impl PhysMem {
    pub fn new(size: usize) -> Self {
        PhysMem {
            mem: pages::zeroed(size),
            written_end: 0,
            // Keep the first page unused so address 0 never appears in rings.
            next_alloc: 0x1000,
        }
    }

    pub fn size(&self) -> usize {
        self.mem.len()
    }

    /// Allocate `len` bytes aligned to `align`; returns the physical address.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        let align = align.max(1);
        let addr = self.next_alloc.div_ceil(align) * align;
        assert!(
            (addr + len) as usize <= self.mem.len(),
            "simulated physical memory exhausted ({} of {} bytes)",
            addr + len,
            self.mem.len()
        );
        self.next_alloc = addr + len;
        addr
    }

    pub fn read(&self, addr: u64, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let end = addr as usize + data.len();
        self.mem[addr as usize..end].copy_from_slice(data);
        self.written_end = self.written_end.max(end);
    }

    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read(addr, 8).try_into().unwrap())
    }

    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

/// Zeroed memory for [`PhysMem`]. On Linux it is mapped straight from the
/// OS: creating a memory writes nothing, and only the pages the simulation
/// touches become resident. (`calloc` does that only for fresh memory; a
/// block it recycles from an earlier experiment in the same process is
/// cleared in full, megabytes per host.)
#[cfg(target_os = "linux")]
mod pages {
    use std::ops::{Deref, DerefMut};
    use std::os::raw::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// `len` bytes of private anonymous pages, which the kernel zero-fills.
    pub(super) struct Pages {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `Pages` owns its mapping exclusively, like a `Vec<u8>`.
    unsafe impl Send for Pages {}

    pub(super) fn zeroed(len: usize) -> Pages {
        if len == 0 {
            return Pages {
                ptr: NonNull::dangling(),
                len,
            };
        }
        // SAFETY: a new private anonymous mapping aliases nothing.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            ptr as isize != -1,
            "mapping {len} bytes of simulated physical memory: {}",
            std::io::Error::last_os_error()
        );
        Pages {
            ptr: NonNull::new(ptr.cast()).expect("mmap returned a null mapping"),
            len,
        }
    }

    impl Deref for Pages {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: `len` initialised bytes (zero-filled by the kernel or
            // written through `deref_mut`), mapped until `drop`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl DerefMut for Pages {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Pages {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: the mapping `zeroed` made, unmapped only here.
                unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod pages {
    pub(super) type Pages = Vec<u8>;

    pub(super) fn zeroed(len: usize) -> Pages {
        vec![0u8; len]
    }
}

impl Snapshot for PhysMem {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.u64(self.next_alloc);
        w.usize(self.mem.len());
        // Sparse page encoding: (page index, raw page) for non-zero pages.
        let pages: Vec<usize> = self.mem[..self.written_end]
            .chunks(SNAP_PAGE)
            .enumerate()
            .filter(|(_, page)| page.iter().any(|b| *b != 0))
            .map(|(i, _)| i)
            .collect();
        w.usize(pages.len());
        for i in pages {
            let start = i * SNAP_PAGE;
            let end = (start + SNAP_PAGE).min(self.mem.len());
            w.u64(i as u64);
            w.bytes(&self.mem[start..end]);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.next_alloc = r.u64()?;
        let size = r.usize()?;
        if size != self.mem.len() {
            return Err(SnapError::Corrupt(format!(
                "physical memory size mismatch (snapshot {size}, built {})",
                self.mem.len()
            )));
        }
        self.mem = pages::zeroed(size);
        self.written_end = 0;
        for _ in 0..r.usize()? {
            let i = r.u64()? as usize;
            let page = r.bytes()?;
            let start = i.checked_mul(SNAP_PAGE).ok_or(SnapError::Truncated)?;
            let end = start.checked_add(page.len()).ok_or(SnapError::Truncated)?;
            if end > self.mem.len() || page.len() > SNAP_PAGE {
                return Err(SnapError::Corrupt(format!("page {i} out of bounds")));
            }
            self.mem[start..end].copy_from_slice(&page);
            self.written_end = self.written_end.max(end);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(m.read(a, 4), &[1, 2, 3, 4]);
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
    fn snapshot_is_sparse_and_roundtrips() {
        let mut m = PhysMem::new(1 << 20);
        let a = m.alloc(256, 64);
        m.write(a, &[0xabu8; 256]);
        m.write(1 << 19, &[7u8; 10]);
        let mut w = SnapWriter::new();
        m.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        assert!(
            buf.len() < 3 * SNAP_PAGE,
            "sparse encoding: {} bytes for 1 MiB with 2 touched pages",
            buf.len()
        );
        let mut back = PhysMem::new(1 << 20);
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(back.read(a, 256), m.read(a, 256));
        assert_eq!(back.read(1 << 19, 10), &[7u8; 10]);
        assert_eq!(back.read(0, 16), &[0u8; 16], "untouched pages stay zero");
        // Allocator position carries over: new allocations do not overlap.
        let b = back.alloc(64, 64);
        assert!(b >= a + 256);
        // Restoring over a used memory clears what the snapshot does not
        // hold, and the result snapshots to the same bytes.
        m.write(3 << 18, &[9u8; 4]);
        m.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(m.read(3 << 18, 4), &[0u8; 4]);
        let mut again = SnapWriter::new();
        m.snapshot(&mut again).unwrap();
        assert_eq!(again.into_vec(), buf);
        // Size mismatch is rejected.
        let mut wrong = PhysMem::new(1 << 19);
        assert!(wrong.restore(&mut SnapReader::new(&buf)).is_err());
    }
}
