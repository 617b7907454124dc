//! Byte-addressable main-memory model (the off-chip DRAM behind the memory
//! controller in Fig. 3). Functional only — timing lives in [`crate::bus`].
//!
//! The backing store is paged: a [`PAGE_SIZE`] page is allocated, zeroed, on
//! its first write, and bytes on pages never written read as 0. A job staged
//! high in the address space (a driver's output window sits at 16 MiB, a
//! second lane's at 48 MiB) therefore costs only the pages it touches, not a
//! zero-fill of everything below it.

use std::ops::Range;

/// Bytes per backing page.
pub const PAGE_SIZE: usize = 1 << 16;

/// Paged byte-addressable memory, backed on demand up to a configured cap.
#[derive(Debug, Clone)]
pub struct MainMemory {
    /// `pages[i]` backs bytes `i * PAGE_SIZE..(i + 1) * PAGE_SIZE`; `None`
    /// (or an index past the end) reads as zeros.
    pages: Vec<Option<Box<[u8]>>>,
    cap: usize,
}

impl MainMemory {
    /// Memory with a capacity cap (accesses beyond it panic — catching
    /// runaway DMA programming errors in tests).
    pub fn new(cap: usize) -> Self {
        MainMemory {
            pages: Vec::new(),
            cap,
        }
    }

    /// A comfortably large default (256 MiB cap, lazily allocated).
    pub fn with_default_cap() -> Self {
        Self::new(256 << 20)
    }

    /// The capacity cap, in bytes (devices validate DMA ranges against it).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Does `[addr, addr + len)` lie inside the cap?
    fn in_cap(&self, addr: u64, len: usize) -> bool {
        (addr as usize)
            .checked_add(len)
            .is_some_and(|end| end <= self.cap)
    }

    /// Bytes currently backed by pages (a multiple of [`PAGE_SIZE`]).
    pub fn len(&self) -> usize {
        self.pages.iter().flatten().count() * PAGE_SIZE
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.pages.iter().all(Option::is_none)
    }

    /// Write a byte slice at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        assert!(
            self.in_cap(addr, bytes.len()),
            "memory access beyond the {}B cap",
            self.cap
        );
        for (page, off, src) in pieces(addr as usize, bytes.len()) {
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            let backing = self.pages[page].get_or_insert_with(|| vec![0; PAGE_SIZE].into());
            backing[off..off + src.len()].copy_from_slice(&bytes[src]);
        }
    }

    /// The page backing `page`, if it was ever written.
    fn page(&self, page: usize) -> Option<&[u8]> {
        self.pages.get(page).and_then(Option::as_deref)
    }

    /// Copy the backed bytes of `[addr, addr + out.len())` into the zeroed
    /// `out` (the caller has checked the cap).
    fn copy_out(&self, addr: usize, out: &mut [u8]) {
        for (page, off, dst) in pieces(addr, out.len()) {
            if let Some(src) = self.page(page) {
                let n = dst.len();
                out[dst].copy_from_slice(&src[off..off + n]);
            }
        }
    }

    /// Read `len` bytes at `addr` (unbacked bytes read as 0).
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        assert!(self.in_cap(addr, len), "memory read beyond the cap");
        let (page, off) = (addr as usize / PAGE_SIZE, addr as usize % PAGE_SIZE);
        if off + len <= PAGE_SIZE {
            // One page: a single copy (or a zeroed buffer), no page walk.
            return match self.page(page) {
                Some(src) => src[off..off + len].to_vec(),
                None => vec![0; len],
            };
        }
        let mut out = vec![0; len];
        self.copy_out(addr as usize, &mut out);
        out
    }

    /// Read a fixed-size array at `addr` without allocating.
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        assert!(self.in_cap(addr, N), "memory read beyond the cap");
        let mut out = [0; N];
        self.copy_out(addr as usize, &mut out);
        out
    }

    /// Read into a fixed 16-byte section.
    pub fn read_section(&self, addr: u64) -> [u8; 16] {
        self.read_array(addr)
    }

    /// Little-endian u32 accessors.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Little-endian u64 accessors.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }
}

/// Split `[addr, addr + len)` at page boundaries: for each piece, its page,
/// its offset in that page, and its range within the `len`-byte buffer.
fn pieces(addr: usize, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = addr + done;
        let (page, off) = (at / PAGE_SIZE, at % PAGE_SIZE);
        let n = (len - done).min(PAGE_SIZE - off);
        done += n;
        Some((page, off, done - n..done))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut m = MainMemory::new(1 << 20);
        m.write(100, b"hello");
        assert_eq!(m.read(100, 5), b"hello");
        assert_eq!(m.read(99, 1), [0]);
    }

    #[test]
    fn unbacked_reads_zero() {
        let m = MainMemory::new(1024);
        assert_eq!(m.read(512, 4), [0, 0, 0, 0]);
        assert!(m.is_empty());
    }

    #[test]
    fn u32_u64_roundtrip() {
        let mut m = MainMemory::new(1024);
        m.write_u32(0, 0xDEADBEEF);
        assert_eq!(m.read_u32(0), 0xDEADBEEF);
        m.write_u64(8, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(8), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn section_read() {
        let mut m = MainMemory::new(1024);
        m.write(16, &[7u8; 16]);
        assert_eq!(m.read_section(16), [7u8; 16]);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn cap_enforced() {
        let mut m = MainMemory::new(64);
        m.write(60, &[0u8; 8]);
    }

    #[test]
    fn write_straddling_a_page_boundary() {
        let mut m = MainMemory::with_default_cap();
        let at = 3 * PAGE_SIZE as u64 - 5;
        let bytes: Vec<u8> = (1..=10).collect();
        m.write(at, &bytes);
        assert_eq!(m.read(at, 10), bytes);
        assert_eq!(
            m.read_u64(at + 1),
            u64::from_le_bytes([2, 3, 4, 5, 6, 7, 8, 9])
        );
        assert_eq!(m.len(), 2 * PAGE_SIZE, "exactly the two touched pages");
    }

    #[test]
    fn read_straddling_backed_and_unbacked_pages() {
        let mut m = MainMemory::with_default_cap();
        let edge = 2 * PAGE_SIZE as u64;
        m.write(edge - 4, &[9; 4]);
        assert_eq!(m.read(edge - 4, 8), [9, 9, 9, 9, 0, 0, 0, 0]);
        assert_eq!(
            m.read_section(edge - 8),
            [0, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        // An unbacked page below a backed one reads as zeros too.
        assert_eq!(m.read(PAGE_SIZE as u64 - 2, 4), [0; 4]);
        assert_eq!(m.len(), PAGE_SIZE);
    }

    #[test]
    fn write_ending_exactly_at_the_cap() {
        let cap = 2 * PAGE_SIZE + 100;
        let mut m = MainMemory::new(cap);
        m.write(cap as u64 - 8, &[5; 8]);
        assert_eq!(m.read(cap as u64 - 8, 8), [5; 8]);
        assert_eq!(m.cap(), cap);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn write_one_byte_past_the_cap() {
        let cap = 2 * PAGE_SIZE + 100;
        let mut m = MainMemory::new(cap);
        m.write(cap as u64 - 7, &[5; 8]);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn read_past_the_cap() {
        MainMemory::new(64).read_u32(62);
    }

    #[test]
    fn clones_are_independent() {
        let mut a = MainMemory::with_default_cap();
        a.write(16 << 20, b"lane");
        let mut b = a.clone();
        b.write(16 << 20, b"LANE");
        b.write(48 << 20, b"other");
        assert_eq!(a.read(16 << 20, 4), b"lane");
        assert_eq!(b.read(16 << 20, 4), b"LANE");
        assert_eq!(a.read(48 << 20, 5), [0; 5]);
        assert_eq!((a.len(), b.len()), (PAGE_SIZE, 2 * PAGE_SIZE));
    }

    #[test]
    fn a_high_write_backs_only_its_page() {
        let mut m = MainMemory::with_default_cap();
        m.write_u32(16 << 20, 7);
        assert_eq!(m.len(), PAGE_SIZE);
        assert_eq!(m.read_u32(16 << 20), 7);
    }

    #[test]
    fn random_accesses_agree_with_a_flat_model() {
        // Small cap over a few pages, so writes often straddle and overlap.
        const CAP: usize = 4 * PAGE_SIZE + 123;
        wfa_core::prop::cases(64, 0x3E3_0A6E, |rng, _| {
            let mut m = MainMemory::new(CAP);
            let mut flat = vec![0u8; CAP];
            for _ in 0..rng.gen_range(1, 24) {
                let len = rng.gen_range(0, 2 * PAGE_SIZE + 1).min(CAP);
                let addr = rng.gen_range(0, CAP - len + 1);
                if rng.gen_bool(0.5) {
                    let mut bytes = vec![0u8; len];
                    rng.fill_bytes(&mut bytes);
                    m.write(addr as u64, &bytes);
                    flat[addr..addr + len].copy_from_slice(&bytes);
                } else {
                    assert_eq!(m.read(addr as u64, len), &flat[addr..addr + len]);
                }
                if addr + 16 <= CAP {
                    assert_eq!(m.read_section(addr as u64), flat[addr..addr + 16]);
                }
            }
            assert_eq!(m.read(0, CAP), flat);
        });
    }
}
