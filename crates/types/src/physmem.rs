//! The [`PhysMem`] interface between OS-level code and the simulated machine.
//!
//! Kernel code (frame allocators, page tables, checkpoint engines, migration
//! engines) never touches host memory directly. It reads and writes simulated
//! physical memory through this trait, and every call *charges simulated
//! time*: the implementation routes the access through the simulated cache
//! hierarchy and memory controllers, so a page table hosted in NVM really
//! pays NVM latency — exactly the effect the paper measures.

use crate::sanitize::{self, Event};
use crate::{AccessKind, Cycles, PhysAddr, CACHE_LINE, LINES_PER_PAGE, PAGE_SIZE};

/// Access to simulated physical memory with time accounting.
///
/// Implementations must guarantee:
///
/// * data written with [`write_u64`](PhysMem::write_u64)/[`write_bytes`](PhysMem::write_bytes)
///   is readable back until overwritten;
/// * NVM contents become durable (survive crash-like events) only once
///   the containing cache line has been written back, either by eviction
///   or an explicit [`clwb`](PhysMem::clwb);
/// * every method advances the simulated clock by the modelled latency.
pub trait PhysMem {
    /// Charges the timing of one cache-line access at `pa` without moving
    /// data, returning the latency paid. Used for bulk trace replay where
    /// only timing matters.
    fn touch(&mut self, pa: PhysAddr, kind: AccessKind) -> Cycles;

    /// Reads a little-endian `u64`, charging one read access.
    fn read_u64(&mut self, pa: PhysAddr) -> u64;

    /// Writes a little-endian `u64`, charging one write access.
    fn write_u64(&mut self, pa: PhysAddr, value: u64);

    /// Reads `buf.len()` bytes starting at `pa`, charging one read access per
    /// touched cache line.
    fn read_bytes(&mut self, pa: PhysAddr, buf: &mut [u8]);

    /// Writes `data` starting at `pa`, charging one write access per touched
    /// cache line.
    fn write_bytes(&mut self, pa: PhysAddr, data: &[u8]);

    /// Writes back (without invalidating) the cache line containing `pa`,
    /// making its contents durable if the line lives in NVM. Models `clwb`.
    fn clwb(&mut self, pa: PhysAddr);

    /// Store fence: orders preceding write-backs. Charges a small fixed cost.
    fn sfence(&mut self);

    /// Durability barrier: when this returns, every previously accepted NVM
    /// write-back is on media — the device write buffer has fully drained.
    /// A plain `sfence` only orders write-backs into the buffer; on a
    /// non-ADR platform the buffer contents are still lost on power cut.
    /// The default implementation is `sfence` (suits memories with no
    /// buffer, like [`FlatMem`]); buffered implementations must override it
    /// and charge the drain latency.
    fn persist_barrier(&mut self) {
        self.sfence();
    }

    /// Charges `cost` of pure compute time (instructions that perform no
    /// memory traffic).
    fn advance(&mut self, cost: Cycles);

    /// Current simulated time.
    fn now(&self) -> Cycles;

    /// Copies one 4 KiB page from `src` to `dst` line by line, charging a
    /// read and a write per line. Both addresses must be page-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not page aligned.
    fn copy_page(&mut self, src: PhysAddr, dst: PhysAddr) {
        assert!(src.is_page_aligned(), "copy_page src must be page aligned");
        assert!(dst.is_page_aligned(), "copy_page dst must be page aligned");
        let mut buf = [0u8; CACHE_LINE];
        for line in 0..LINES_PER_PAGE {
            let off = (line * CACHE_LINE) as u64;
            self.read_bytes(src + off, &mut buf);
            self.write_bytes(dst + off, &buf);
        }
    }

    /// Zeroes one 4 KiB page, charging a write per line.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page aligned.
    fn zero_page(&mut self, pa: PhysAddr) {
        assert!(pa.is_page_aligned(), "zero_page target must be page aligned");
        let zeros = [0u8; CACHE_LINE];
        for line in 0..LINES_PER_PAGE {
            self.write_bytes(pa + (line * CACHE_LINE) as u64, &zeros);
        }
    }

    /// Flushes every line of a page with `clwb`. Used by persistence code to
    /// make a whole page durable.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page aligned.
    fn clwb_page(&mut self, pa: PhysAddr) {
        assert!(pa.is_page_aligned(), "clwb_page target must be page aligned");
        for line in 0..LINES_PER_PAGE {
            self.clwb(pa + (line * CACHE_LINE) as u64);
        }
        debug_assert_eq!(PAGE_SIZE, LINES_PER_PAGE * CACHE_LINE);
    }
}

/// A trivial [`PhysMem`] backed by a host `Vec<u8>` with flat fixed latencies.
///
/// Useful for unit-testing OS-level code without the full machine; it is also
/// the reference implementation for the trait's data semantics (everything is
/// instantly durable, so crash semantics cannot be tested against it).
#[derive(Debug)]
pub struct FlatMem {
    data: Vec<u8>,
    now: Cycles,
    read_latency: Cycles,
    write_latency: Cycles,
}

impl FlatMem {
    /// Creates a flat memory of `size` bytes with 1-cycle accesses.
    pub fn new(size: usize) -> Self {
        FlatMem {
            data: vec![0; size],
            now: Cycles::ZERO,
            read_latency: Cycles::new(1),
            write_latency: Cycles::new(1),
        }
    }

    /// Sets distinct read/write latencies (in cycles).
    pub fn with_latencies(mut self, read: u64, write: u64) -> Self {
        self.read_latency = Cycles::new(read);
        self.write_latency = Cycles::new(write);
        self
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn lat(&self, kind: AccessKind) -> Cycles {
        match kind {
            AccessKind::Read => self.read_latency,
            AccessKind::Write => self.write_latency,
        }
    }
}

impl PhysMem for FlatMem {
    fn touch(&mut self, _pa: PhysAddr, kind: AccessKind) -> Cycles {
        let lat = self.lat(kind);
        self.now += lat;
        lat
    }

    fn read_u64(&mut self, pa: PhysAddr) -> u64 {
        self.touch(pa, AccessKind::Read);
        let i = pa.as_usize();
        u64::from_le_bytes(self.data[i..i + 8].try_into().expect("8-byte slice"))
    }

    fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        self.touch(pa, AccessKind::Write);
        sanitize::emit(|| Event::NvmWrite {
            line: pa.line_base().as_u64(),
            cycle: self.now.as_u64(),
        });
        let i = pa.as_usize();
        self.data[i..i + 8].copy_from_slice(&value.to_le_bytes());
    }

    fn read_bytes(&mut self, pa: PhysAddr, buf: &mut [u8]) {
        let lines = touched_lines(pa, buf.len());
        for _ in 0..lines {
            self.touch(pa, AccessKind::Read);
        }
        let i = pa.as_usize();
        buf.copy_from_slice(&self.data[i..i + buf.len()]);
    }

    fn write_bytes(&mut self, pa: PhysAddr, data: &[u8]) {
        let lines = touched_lines(pa, data.len());
        for _ in 0..lines {
            self.touch(pa, AccessKind::Write);
        }
        if sanitize::installed() {
            let first = pa.line_base().as_u64();
            for n in 0..lines as u64 {
                sanitize::emit(|| Event::NvmWrite {
                    line: first + n * CACHE_LINE as u64,
                    cycle: self.now.as_u64(),
                });
            }
        }
        let i = pa.as_usize();
        self.data[i..i + data.len()].copy_from_slice(data);
    }

    fn clwb(&mut self, pa: PhysAddr) {
        self.now += Cycles::new(1);
        sanitize::emit(|| Event::NvmCommit { line: pa.line_base().as_u64() });
    }

    fn sfence(&mut self) {
        self.now += Cycles::new(1);
    }

    fn advance(&mut self, cost: Cycles) {
        self.now += cost;
    }

    fn now(&self) -> Cycles {
        self.now
    }
}

/// Number of distinct cache lines covered by `[pa, pa + len)`.
pub fn touched_lines(pa: PhysAddr, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let first = pa.as_u64() / CACHE_LINE as u64;
    let last = (pa.as_u64() + len as u64 - 1) / CACHE_LINE as u64;
    (last - first + 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_mem_round_trips_u64() {
        let mut m = FlatMem::new(4096);
        m.write_u64(PhysAddr::new(16), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr::new(16)), 0xdead_beef_cafe_f00d);
        assert!(m.now() > Cycles::ZERO);
    }

    #[test]
    fn flat_mem_round_trips_bytes() {
        let mut m = FlatMem::new(4096);
        m.write_bytes(PhysAddr::new(100), b"hello kindle");
        let mut buf = [0u8; 12];
        m.read_bytes(PhysAddr::new(100), &mut buf);
        assert_eq!(&buf, b"hello kindle");
    }

    #[test]
    fn touched_lines_counts_straddles() {
        assert_eq!(touched_lines(PhysAddr::new(0), 0), 0);
        assert_eq!(touched_lines(PhysAddr::new(0), 1), 1);
        assert_eq!(touched_lines(PhysAddr::new(0), 64), 1);
        assert_eq!(touched_lines(PhysAddr::new(0), 65), 2);
        assert_eq!(touched_lines(PhysAddr::new(60), 8), 2);
        assert_eq!(touched_lines(PhysAddr::new(64), 64), 1);
    }

    #[test]
    fn copy_page_moves_data_and_charges_time() {
        let mut m = FlatMem::new(3 * PAGE_SIZE).with_latencies(2, 3);
        m.write_bytes(PhysAddr::new(0), &[0xab; 64]);
        let before = m.now();
        m.copy_page(PhysAddr::new(0), PhysAddr::new(PAGE_SIZE as u64));
        let elapsed = m.now() - before;
        // 64 reads * 2cy + 64 writes * 3cy.
        assert_eq!(elapsed.as_u64(), 64 * 2 + 64 * 3);
        let mut buf = [0u8; 64];
        m.read_bytes(PhysAddr::new(PAGE_SIZE as u64), &mut buf);
        assert_eq!(buf, [0xab; 64]);
    }

    #[test]
    fn zero_page_clears() {
        let mut m = FlatMem::new(2 * PAGE_SIZE);
        m.write_bytes(PhysAddr::new(128), &[0xff; 64]);
        m.zero_page(PhysAddr::new(0));
        let mut buf = [0u8; 64];
        m.read_bytes(PhysAddr::new(128), &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn copy_page_rejects_misaligned() {
        let mut m = FlatMem::new(2 * PAGE_SIZE);
        m.copy_page(PhysAddr::new(1), PhysAddr::new(PAGE_SIZE as u64));
    }
}
