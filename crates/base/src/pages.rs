//! Large memory mapped straight from the OS: the one place the workspace
//! calls `mmap` and `munmap`.
//!
//! [`Pages`] is private zeroed memory: in-process rings and simulated
//! physical memory. On Linux it is an anonymous mapping, so creating it
//! writes nothing and only the pages a simulation touches become resident,
//! however many experiments the process built before. (`calloc` does that
//! only for fresh memory; a block it recycles from an earlier experiment is
//! cleared in full, hundreds of MiB for a fat-tree's rings.) Elsewhere it
//! falls back to `alloc_zeroed`.
//!
//! [`SharedMap`] is a file mapped shared read-write: the region two
//! processes exchange ring messages through. It hands out raw pointers
//! only, since the other process writes the same bytes.

use std::fs::File;
use std::io;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment of every [`Pages`] block: a page, as a mapping has, also where
/// the block comes from the allocator or has length zero.
const ALIGN: usize = 4096;

/// `len` bytes of private memory that start zeroed, aligned to a page.
pub struct Pages {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: `Pages` owns its memory exclusively and hands it out through
// `&self`/`&mut self` borrows, like a `Vec<u8>`; releasing it on any thread
// is sound.
unsafe impl Send for Pages {}
unsafe impl Sync for Pages {}

impl Pages {
    /// `len` zero bytes. Panics if the OS refuses the memory.
    pub fn zeroed(len: usize) -> Pages {
        let ptr = if len == 0 {
            NonNull::new(std::ptr::without_provenance_mut(ALIGN)).expect("non-zero address")
        } else {
            alloc_zeroed(len)
        };
        Pages { ptr, len }
    }

    /// The first byte. Writing through it is sound wherever no borrow from
    /// `Deref`/`DerefMut` is live.
    pub fn as_ptr(&self) -> NonNull<u8> {
        self.ptr
    }
}

impl Deref for Pages {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `len` initialised bytes (zeroed at creation), owned until
        // `drop`.
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
            // SAFETY: `alloc_zeroed(self.len)` returned `ptr`, released only
            // here.
            unsafe { free_zeroed(self.ptr, self.len) };
        }
    }
}

#[cfg(target_os = "linux")]
fn alloc_zeroed(len: usize) -> NonNull<u8> {
    const MAP_PRIVATE_ANONYMOUS: std::os::raw::c_int = 0x02 | 0x20;
    // SAFETY: a new private anonymous mapping aliases nothing, and the
    // kernel zero-fills it.
    unsafe { ffi::map(len, MAP_PRIVATE_ANONYMOUS, -1) }
        .unwrap_or_else(|e| panic!("mapping {len} zeroed bytes: {e}"))
}

#[cfg(target_os = "linux")]
use ffi::unmap as free_zeroed;

#[cfg(not(target_os = "linux"))]
fn layout(len: usize) -> std::alloc::Layout {
    std::alloc::Layout::from_size_align(len, ALIGN).expect("block size fits a layout")
}

#[cfg(not(target_os = "linux"))]
fn alloc_zeroed(len: usize) -> NonNull<u8> {
    let layout = layout(len);
    // SAFETY: `layout` has a non-zero size (`Pages::zeroed` checks).
    NonNull::new(unsafe { std::alloc::alloc_zeroed(layout) })
        .unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
}

/// # Safety
/// `ptr` must come from `alloc_zeroed(len)` and not be used afterwards.
#[cfg(not(target_os = "linux"))]
unsafe fn free_zeroed(ptr: NonNull<u8>, len: usize) {
    // SAFETY: the caller's contract; `alloc_zeroed` used this layout.
    unsafe { std::alloc::dealloc(ptr.as_ptr(), layout(len)) }
}

/// The first `len` bytes of a file, mapped shared read-write: what either
/// process writes there, the other sees. Unmapped on drop.
#[derive(Debug)]
pub struct SharedMap {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the map hands out addresses only; every access through them is
// the caller's unsafe code, which other processes race with anyway.
// Unmapping on any thread is sound.
unsafe impl Send for SharedMap {}
unsafe impl Sync for SharedMap {}

impl SharedMap {
    /// Map `len` bytes of `file` (opened read-write, at least `len` long).
    /// `Unsupported` on platforms without `mmap`.
    pub fn new(file: &File, len: usize) -> io::Result<SharedMap> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            const MAP_SHARED: std::os::raw::c_int = 1;
            // SAFETY: a new mapping; what aliases it is other mappings of
            // `file`, which the caller's protocol governs.
            let ptr = unsafe { ffi::map(len, MAP_SHARED, file.as_raw_fd())? };
            Ok(SharedMap { ptr, len })
        }
        #[cfg(not(unix))]
        {
            let _ = (file, len);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "shared-memory transport requires a unix platform (use --transport tcp)",
            ))
        }
    }

    /// The mapped byte at `off`. Panics if `off` is outside the mapping.
    pub fn at(&self, off: usize) -> NonNull<u8> {
        assert!(off < self.len, "offset outside the mapping");
        // SAFETY: in bounds (checked above).
        unsafe { self.ptr.add(off) }
    }
}

impl Drop for SharedMap {
    fn drop(&mut self) {
        // SAFETY: the mapping `new` made, unmapped only here. (No map exists
        // where `mmap` does not.)
        #[cfg(unix)]
        unsafe {
            ffi::unmap(self.ptr, self.len)
        }
    }
}

/// `mmap`/`munmap` from the platform C library, which is linked already.
#[cfg(unix)]
mod ffi {
    use std::io;
    use std::os::raw::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ_WRITE: c_int = 1 | 2;

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

    /// Map `len` bytes read-write with `flags`, from offset 0 of `fd`.
    ///
    /// # Safety
    /// The caller answers for what else aliases the mapping.
    pub(super) unsafe fn map(len: usize, flags: c_int, fd: c_int) -> io::Result<NonNull<u8>> {
        // SAFETY: the kernel picks the address; the caller's contract
        // covers aliasing.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, flags, fd, 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        NonNull::new(ptr.cast()).ok_or_else(|| io::Error::other("mmap returned a null mapping"))
    }

    /// # Safety
    /// `ptr`/`len` must be a mapping `map` returned, not used afterwards.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract. A failure leaves the mapping in
        // place, which only leaks it.
        unsafe { munmap(ptr.as_ptr().cast(), len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::SLOT_ALIGN;

    #[test]
    fn zero_length_block_is_empty_and_aligned() {
        assert_eq!(ALIGN % SLOT_ALIGN, 0, "a page holds ring memory");
        let p = Pages::zeroed(0);
        assert!(p.is_empty());
        assert_eq!(p.as_ptr().as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn fresh_block_is_zeroed_aligned_and_writable() {
        for len in [1, 4096, 3 * 4096 + 17] {
            let mut p = Pages::zeroed(len);
            assert_eq!(p.len(), len);
            assert_eq!(p.as_ptr().as_ptr() as usize % ALIGN, 0);
            assert!(p.iter().all(|b| *b == 0));
            p[len - 1] = 7;
            assert_eq!(p[len - 1], 7);
        }
    }

    #[cfg(unix)]
    #[test]
    fn two_shared_maps_of_one_file_see_each_others_writes() {
        let path =
            std::env::temp_dir().join(format!("simbricks-pages-test-{}.shm", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        let len = 2 * 4096;
        file.set_len(len as u64).unwrap();
        let a = SharedMap::new(&file, len).unwrap();
        let b = SharedMap::new(&file, len).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_ne!(a.at(0), b.at(0), "two mappings");
        // SAFETY: both maps are `len` bytes, used by this thread alone.
        unsafe {
            assert_eq!(*b.at(len - 1).as_ptr(), 0, "set_len zero-fills");
            *a.at(len - 1).as_ptr() = 0xa5;
            *b.at(5).as_ptr() = 0x5a;
            assert_eq!(*b.at(len - 1).as_ptr(), 0xa5);
            assert_eq!(*a.at(5).as_ptr(), 0x5a);
        }
        let out_of_bounds = std::panic::catch_unwind(|| a.at(len));
        assert!(out_of_bounds.is_err(), "`at` checks its offset");
    }
}
