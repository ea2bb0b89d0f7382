//! Linear memory: a contiguous, bounds-checked, page-granular byte array.
//!
//! This is the cornerstone of the paper's zero-copy design (§3.5): the
//! embedder records the base of this buffer and converts 32-bit guest
//! offsets to host pointers by plain addition. [`Memory::slice`] /
//! [`Memory::slice_mut`] are the safe Rust rendering of that conversion —
//! the returned slice *is* host memory of the guest region, no copy made.

use crate::error::Trap;
use crate::types::Limits;
use crate::{MAX_PAGES, PAGE_SIZE};

/// A 32-bit addressed linear memory.
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    max_pages: u32,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        // Preserve the full-capacity reservation (a derived clone would
        // copy only the contents, losing the pinning guarantee).
        let mut bytes = vec![0u8; self.max_pages as usize * PAGE_SIZE];
        bytes.truncate(self.bytes.len());
        bytes.copy_from_slice(&self.bytes);
        Memory { bytes, max_pages: self.max_pages }
    }
}

impl Memory {
    /// Create a memory honoring the module's declared limits.
    ///
    /// The backing buffer's full capacity (up to the declared or spec
    /// maximum) is reserved up front, so [`Memory::grow`] never
    /// reallocates and the base address is stable for the life of the
    /// instance. This is the *pinning* guarantee the MPI embedder's
    /// zero-copy pending requests rely on (raw pointers into linear
    /// memory stay valid across `memory.grow`). The reservation is
    /// zeroed lazily (calloc-style): it costs virtual address space, not
    /// resident memory or memset time — which assumes an overcommitting
    /// OS (standard Linux); strict-commit platforms would need an
    /// mmap-reserve here instead.
    pub fn new(limits: Limits) -> Self {
        let max_pages = limits.max.unwrap_or(MAX_PAGES).min(MAX_PAGES);
        let mut bytes = vec![0u8; max_pages as usize * PAGE_SIZE];
        bytes.truncate(limits.min as usize * PAGE_SIZE);
        Self { bytes, max_pages }
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.bytes.len() / PAGE_SIZE) as u32
    }

    /// Lower the growth ceiling to `cap` pages (embedder resource limit).
    /// Clamped to never fall below the current size, so existing contents
    /// and the pinned base address are untouched; only future
    /// [`Memory::grow`] calls see the tighter limit. Raising the ceiling
    /// is not possible — the backing reservation was sized at creation.
    pub fn cap_max_pages(&mut self, cap: u32) {
        self.max_pages = self.max_pages.min(cap.max(self.size_pages()));
    }

    /// The current growth ceiling in pages.
    pub fn max_pages(&self) -> u32 {
        self.max_pages
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Grow by `delta` pages. Returns the previous size in pages, or -1 if
    /// the grow would exceed the declared maximum (the Wasm failure mode).
    /// Never moves the backing buffer (see [`Memory::new`]).
    pub fn grow(&mut self, delta: u32) -> i32 {
        let old = self.size_pages();
        let Some(new) = old.checked_add(delta) else { return -1 };
        if new > self.max_pages {
            return -1;
        }
        let base = self.bytes.as_ptr();
        self.bytes.resize(new as usize * PAGE_SIZE, 0);
        debug_assert_eq!(base, self.bytes.as_ptr(), "linear memory must stay pinned");
        old as i32
    }

    #[inline]
    fn check(&self, addr: u32, len: u32) -> Result<usize, Trap> {
        let start = addr as u64;
        let end = start + len as u64;
        if end > self.bytes.len() as u64 {
            return Err(Trap::MemoryOutOfBounds {
                addr: start,
                len: len as u64,
                memory_size: self.bytes.len() as u64,
            });
        }
        Ok(start as usize)
    }

    /// Effective address of a memory instruction: dynamic address plus the
    /// instruction's constant offset, checked without overflow.
    #[inline]
    pub fn effective(&self, dynamic: u32, offset: u32, len: u32) -> Result<usize, Trap> {
        let start = dynamic as u64 + offset as u64;
        let end = start + len as u64;
        if end > self.bytes.len() as u64 {
            return Err(Trap::MemoryOutOfBounds {
                addr: start,
                len: len as u64,
                memory_size: self.bytes.len() as u64,
            });
        }
        Ok(start as usize)
    }

    /// The address of a `len`-byte access at `base + offset`: computed in
    /// `u64`, so no guest integer can wrap it, and checked against the
    /// current size. Host functions (the MPI and WASI imports) combine a
    /// guest pointer with anything only through here.
    #[inline]
    pub fn guest_addr(&self, base: u32, offset: u64, len: u64) -> Result<u32, Trap> {
        let addr = base as u64 + offset;
        let memory_size = self.bytes.len() as u64;
        if addr + len > memory_size {
            return Err(Trap::MemoryOutOfBounds { addr, len, memory_size });
        }
        Ok(addr as u32)
    }

    /// Zero-copy read view of guest memory `[addr, addr+len)`.
    pub fn slice(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = self.check(addr, len)?;
        Ok(&self.bytes[start..start + len as usize])
    }

    /// Zero-copy write view of guest memory `[addr, addr+len)`.
    pub fn slice_mut(&mut self, addr: u32, len: u32) -> Result<&mut [u8], Trap> {
        let start = self.check(addr, len)?;
        Ok(&mut self.bytes[start..start + len as usize])
    }

    /// Raw base pointer of the linear memory in the embedder's address
    /// space. This is the "base address" of the paper's Figure 2; adding a
    /// 32-bit guest offset yields the 64-bit host address of a guest byte.
    /// Exposed for the embedder's address-translation documentation and
    /// diagnostics. Host functions access guest bytes through
    /// [`Memory::slice`]; the register executors load and store off
    /// [`Memory::as_mut_ptr`], which is the same address.
    pub fn base_ptr(&self) -> *const u8 {
        self.bytes.as_ptr()
    }

    /// The base as a pointer that may write, taken without a reference to
    /// the bytes, so other borrows of this memory leave it usable. It stays
    /// valid across [`Memory::grow`] (the buffer never moves) until the
    /// memory is dropped or replaced.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut u8 {
        self.bytes.as_mut_ptr()
    }

    pub fn read_u8(&self, addr: usize) -> u8 {
        self.bytes[addr]
    }

    // Typed accessors used by the interpreter (addr already bounds-checked
    // via `effective`).
    #[inline]
    pub fn load<const N: usize>(&self, start: usize) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[start..start + N]);
        out
    }

    #[inline]
    pub fn store(&mut self, start: usize, bytes: &[u8]) {
        self.bytes[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Typed convenience reads with bounds checking, used by host functions.
    pub fn read_u32_at(&self, addr: u32) -> Result<u32, Trap> {
        let s = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.load::<4>(s)))
    }

    pub fn read_i32_at(&self, addr: u32) -> Result<i32, Trap> {
        self.read_u32_at(addr).map(|v| v as i32)
    }

    pub fn read_u64_at(&self, addr: u32) -> Result<u64, Trap> {
        let s = self.check(addr, 8)?;
        Ok(u64::from_le_bytes(self.load::<8>(s)))
    }

    pub fn read_f64_at(&self, addr: u32) -> Result<f64, Trap> {
        self.read_u64_at(addr).map(f64::from_bits)
    }

    pub fn write_u32_at(&mut self, addr: u32, v: u32) -> Result<(), Trap> {
        let s = self.check(addr, 4)?;
        self.store(s, &v.to_le_bytes());
        Ok(())
    }

    pub fn write_i32_at(&mut self, addr: u32, v: i32) -> Result<(), Trap> {
        self.write_u32_at(addr, v as u32)
    }

    pub fn write_u64_at(&mut self, addr: u32, v: u64) -> Result<(), Trap> {
        let s = self.check(addr, 8)?;
        self.store(s, &v.to_le_bytes());
        Ok(())
    }

    pub fn write_f64_at(&mut self, addr: u32, v: f64) -> Result<(), Trap> {
        self.write_u64_at(addr, v.to_bits())
    }

    /// Read a NUL-terminated string (bounded by `max_len`).
    pub fn read_cstr(&self, addr: u32, max_len: u32) -> Result<String, Trap> {
        let avail = (self.size_bytes() as u64).saturating_sub(addr as u64);
        let region = self.slice(addr, (max_len as u64).min(avail) as u32)?;
        let end = region.iter().position(|&b| b == 0).unwrap_or(region.len());
        String::from_utf8(region[..end].to_vec())
            .map_err(|_| Trap::host("guest string is not valid UTF-8"))
    }

    /// Borrow two disjoint guest regions at once: `read` immutably and
    /// `write` mutably. This is what lets the embedder hand an MPI
    /// library a send buffer and a receive buffer that both live in guest
    /// memory, with zero copies. Overlapping regions are rejected (MPI
    /// requires disjoint buffers).
    pub fn disjoint_pair(
        &mut self,
        read: (u32, u32),
        write: (u32, u32),
    ) -> Result<(&[u8], &mut [u8]), Trap> {
        let r_start = self.check(read.0, read.1)?;
        let w_start = self.check(write.0, write.1)?;
        let r_end = r_start + read.1 as usize;
        let w_end = w_start + write.1 as usize;
        if read.1 == 0 {
            return Ok((&[], &mut self.bytes[w_start..w_end]));
        }
        if write.1 == 0 {
            return Ok((&self.bytes[r_start..r_end], &mut []));
        }
        if r_start < w_end && w_start < r_end {
            return Err(Trap::host("overlapping send/receive buffers"));
        }
        if r_end <= w_start {
            let (left, right) = self.bytes.split_at_mut(w_start);
            Ok((&left[r_start..r_end], &mut right[..write.1 as usize]))
        } else {
            let (left, right) = self.bytes.split_at_mut(r_start);
            Ok((&right[..read.1 as usize], &mut left[w_start..w_end]))
        }
    }

    /// `memory.copy` semantics: overlapping ranges behave like `memmove`.
    pub fn copy_within(&mut self, dst: u32, src: u32, len: u32) -> Result<(), Trap> {
        let d = self.check(dst, len)?;
        let s = self.check(src, len)?;
        self.bytes.copy_within(s..s + len as usize, d);
        Ok(())
    }

    /// `memory.fill` semantics.
    pub fn fill(&mut self, dst: u32, value: u8, len: u32) -> Result<(), Trap> {
        let d = self.check(dst, len)?;
        self.bytes[d..d + len as usize].fill(value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_memory_is_zeroed_at_min_pages() {
        let m = Memory::new(Limits::new(2, Some(4)));
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.size_bytes(), 2 * PAGE_SIZE);
        assert!(m.slice(0, 16).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn grow_respects_max() {
        let mut m = Memory::new(Limits::new(1, Some(3)));
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.grow(1), 2);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.size_pages(), 3);
    }

    #[test]
    fn grow_keeps_base_address_pinned() {
        // The MPI embedder stores raw pointers into linear memory across
        // host calls; growing must never move the allocation.
        let mut m = Memory::new(Limits::new(1, Some(64)));
        let base = m.base_ptr();
        for _ in 0..63 {
            assert_ne!(m.grow(1), -1);
            assert_eq!(m.base_ptr(), base);
        }
    }

    #[test]
    fn grow_overflow_is_rejected() {
        let mut m = Memory::new(Limits::new(1, None));
        assert_eq!(m.grow(u32::MAX), -1);
    }

    #[test]
    fn bounds_check_rejects_oob() {
        let m = Memory::new(Limits::new(1, None));
        assert!(m.slice(PAGE_SIZE as u32 - 4, 4).is_ok());
        assert!(m.slice(PAGE_SIZE as u32 - 3, 4).is_err());
        assert!(m.slice(u32::MAX, 1).is_err());
    }

    #[test]
    fn effective_address_overflow_checked() {
        let m = Memory::new(Limits::new(1, None));
        // u32::MAX dynamic + large static offset must not wrap around.
        assert!(m.effective(u32::MAX, u32::MAX, 8).is_err());
    }

    #[test]
    fn typed_roundtrip() {
        let mut m = Memory::new(Limits::new(1, None));
        m.write_u32_at(16, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32_at(16).unwrap(), 0xdead_beef);
        m.write_f64_at(24, -1.25).unwrap();
        assert_eq!(m.read_f64_at(24).unwrap(), -1.25);
        assert!(m.write_u32_at(PAGE_SIZE as u32 - 2, 1).is_err());
    }

    #[test]
    fn copy_within_handles_overlap() {
        let mut m = Memory::new(Limits::new(1, None));
        m.slice_mut(0, 8).unwrap().copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        m.copy_within(2, 0, 6).unwrap();
        assert_eq!(m.slice(0, 8).unwrap(), &[1, 2, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn fill_and_cstr() {
        let mut m = Memory::new(Limits::new(1, None));
        m.fill(0, b'a', 3).unwrap();
        // byte 3 is already zero -> terminator.
        assert_eq!(m.read_cstr(0, 64).unwrap(), "aaa");
    }

    #[test]
    fn disjoint_pair_borrows_both_directions() {
        let mut m = Memory::new(Limits::new(1, None));
        m.slice_mut(0, 4).unwrap().copy_from_slice(&[1, 2, 3, 4]);
        // Read before write region.
        {
            let (r, w) = m.disjoint_pair((0, 4), (100, 4)).unwrap();
            w.copy_from_slice(r);
        }
        assert_eq!(m.slice(100, 4).unwrap(), &[1, 2, 3, 4]);
        // Read after write region.
        {
            let (r, w) = m.disjoint_pair((100, 4), (8, 4)).unwrap();
            w.copy_from_slice(r);
        }
        assert_eq!(m.slice(8, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn disjoint_pair_rejects_overlap_and_oob() {
        let mut m = Memory::new(Limits::new(1, None));
        assert!(m.disjoint_pair((0, 8), (4, 8)).is_err());
        assert!(m.disjoint_pair((4, 8), (0, 8)).is_err());
        assert!(m.disjoint_pair((0, 8), (0, 8)).is_err());
        assert!(m.disjoint_pair((0, 8), (PAGE_SIZE as u32, 8)).is_err());
        // Zero-length regions never overlap.
        assert!(m.disjoint_pair((4, 0), (4, 8)).is_ok());
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let mut m = Memory::new(Limits::new(1, None));
        m.slice_mut(100, 4).unwrap().copy_from_slice(&[9, 9, 9, 9]);
        let base = m.base_ptr();
        let view = m.slice(100, 4).unwrap();
        // The view points into the same allocation at base + 100.
        assert_eq!(view.as_ptr() as usize, base as usize + 100);
    }
}
