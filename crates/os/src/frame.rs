//! Physical frame allocators.
//!
//! [`FrameAllocator`] is a plain bump-plus-free-stack allocator with an
//! allocation bitmap for double-free detection. The NVM pool is wrapped in
//! [`PersistentFrameAllocator`], which mirrors the allocation bitmap into a
//! reserved NVM region on every alloc/free (with `clwb` + fence), so that —
//! as §II-A requires — page-allocation metadata survives a crash and can be
//! rebuilt during recovery.

use kindle_types::sanitize::{self, Event};
use kindle_types::{AccessKind, KindleError, Pfn, PhysAddr, PhysMem, Result};

use crate::layout::Region;

/// A volatile frame allocator over a contiguous PFN range.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    pool: &'static str,
    start: Pfn,
    count: u64,
    next: u64,
    free: Vec<Pfn>,
    /// One bit per frame in the range; set = allocated.
    bitmap: Vec<u64>,
    allocated: u64,
}

impl FrameAllocator {
    /// Creates an allocator managing `count` frames starting at `start`.
    pub fn new(pool: &'static str, start: Pfn, count: u64) -> Self {
        FrameAllocator {
            pool,
            start,
            count,
            next: 0,
            free: Vec::new(),
            bitmap: vec![0u64; ((count + 63) / 64) as usize],
            allocated: 0,
        }
    }

    /// Pool label ("dram" / "nvm").
    pub fn pool(&self) -> &'static str {
        self.pool
    }

    #[inline]
    fn index_of(&self, pfn: Pfn) -> u64 {
        debug_assert!(self.contains(pfn), "pfn outside pool");
        pfn - self.start
    }

    #[inline]
    fn bit(&self, idx: u64) -> bool {
        self.bitmap[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    }

    /// Flips one allocation bit. This is the designated NVM-visible
    /// mutation primitive for frame state: the static pass (KD009)
    /// requires every call to be covered by a `FrameAlloc`/`FrameFree`/
    /// `FrameRetired` sanitize event in the same function.
    fn set_frame_bit(&mut self, idx: u64, value: bool) {
        let word = &mut self.bitmap[(idx / 64) as usize];
        if value {
            *word |= 1 << (idx % 64);
        } else {
            *word &= !(1 << (idx % 64));
        }
    }

    /// True if `pfn` belongs to this pool's range.
    pub fn contains(&self, pfn: Pfn) -> bool {
        pfn >= self.start && pfn - self.start < self.count
    }

    /// True if `pfn` is currently allocated.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.contains(pfn) && self.bit(self.index_of(pfn))
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// [`KindleError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&mut self) -> Result<Pfn> {
        if let Some(pfn) = self.free.pop() {
            let idx = self.index_of(pfn);
            debug_assert!(!self.bit(idx), "frame on free stack but marked allocated");
            self.set_frame_bit(idx, true);
            self.allocated += 1;
            sanitize::emit(|| Event::FrameAlloc { pool: self.pool, pfn: pfn.as_u64() });
            return Ok(pfn);
        }
        while self.next < self.count && self.bit(self.next) {
            self.next += 1;
        }
        if self.next >= self.count {
            return Err(KindleError::OutOfMemory { pool: self.pool });
        }
        let idx = self.next;
        self.next += 1;
        self.set_frame_bit(idx, true);
        self.allocated += 1;
        let pfn = self.start + idx;
        sanitize::emit(|| Event::FrameAlloc { pool: self.pool, pfn: pfn.as_u64() });
        Ok(pfn)
    }

    /// Returns a frame to the pool.
    ///
    /// # Panics
    ///
    /// Panics on double free or on a frame outside the pool.
    pub fn free(&mut self, pfn: Pfn) {
        // Report before the asserts so an installed checker records the
        // defect even when the assert aborts the operation.
        sanitize::emit(|| Event::FrameFree { pool: self.pool, pfn: pfn.as_u64() });
        assert!(self.contains(pfn), "freeing frame outside pool {}", self.pool);
        let idx = self.index_of(pfn);
        assert!(self.bit(idx), "double free of {pfn} in pool {}", self.pool);
        self.set_frame_bit(idx, false);
        self.allocated -= 1;
        self.free.push(pfn);
    }

    /// Permanently removes a frame from circulation (media wear-out). The
    /// frame's bit stays set forever: it is never handed out again and must
    /// not be freed. Call after any mapping of the frame has been unmapped.
    pub fn retire(&mut self, pfn: Pfn) {
        sanitize::emit(|| Event::FrameRetired { pool: self.pool, pfn: pfn.as_u64() });
        assert!(self.contains(pfn), "retiring frame outside pool {}", self.pool);
        let idx = self.index_of(pfn);
        if !self.bit(idx) {
            self.set_frame_bit(idx, true);
            self.allocated += 1;
            self.free.retain(|&f| f != pfn);
        }
    }

    /// Forces `pfn` to allocated state, returning true if the bit was
    /// clear (a repair). Recovery uses this to heal bitmap words whose
    /// persist was lost in the NVM write buffer at the crash.
    pub fn ensure_allocated(&mut self, pfn: Pfn) -> bool {
        assert!(self.contains(pfn), "repairing frame outside pool {}", self.pool);
        let idx = self.index_of(pfn);
        if self.bit(idx) {
            return false;
        }
        self.set_frame_bit(idx, true);
        self.allocated += 1;
        self.free.retain(|&f| f != pfn);
        sanitize::emit(|| Event::FrameAlloc { pool: self.pool, pfn: pfn.as_u64() });
        true
    }

    /// Frames currently allocated.
    pub fn used(&self) -> u64 {
        self.allocated
    }

    /// Frames still available.
    pub fn available(&self) -> u64 {
        self.count - self.allocated
    }

    /// Total managed frames.
    pub fn capacity(&self) -> u64 {
        self.count
    }

    /// First managed PFN.
    pub fn start(&self) -> Pfn {
        self.start
    }

    /// Raw bitmap words (for persistence mirroring).
    fn bitmap_words(&self) -> &[u64] {
        &self.bitmap
    }

    /// Overwrites allocation state from raw bitmap words (recovery).
    fn load_bitmap(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.bitmap.len(), "bitmap size mismatch");
        self.bitmap.copy_from_slice(words);
        // Mask out bits past `count` defensively: they name no frame, but a
        // stuck cell in the persisted bitmap can set them.
        let tail = self.count % 64;
        if tail != 0 {
            if let Some(last) = self.bitmap.last_mut() {
                *last &= (1 << tail) - 1;
            }
        }
        self.allocated = self.bitmap.iter().map(|w| u64::from(w.count_ones())).sum();
        self.free.clear();
        self.next = 0;
    }
}

/// An NVM frame allocator whose bitmap is mirrored into NVM.
#[derive(Clone, Debug)]
pub struct PersistentFrameAllocator {
    inner: FrameAllocator,
    bitmap_region: Region,
}

impl PersistentFrameAllocator {
    /// Creates the allocator; `bitmap_region` must be large enough for one
    /// bit per managed frame.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small.
    pub fn new(inner: FrameAllocator, bitmap_region: Region) -> Self {
        let needed = inner.bitmap_words().len() as u64 * 8;
        assert!(bitmap_region.size >= needed, "alloc bitmap region too small: need {needed} bytes");
        PersistentFrameAllocator { inner, bitmap_region }
    }

    fn word_pa(&self, idx: u64) -> PhysAddr {
        self.bitmap_region.base + (idx / 64) * 8
    }

    /// Persists the bitmap word covering `pfn` (write + clwb + fence).
    fn persist_word(&mut self, mem: &mut dyn PhysMem, pfn: Pfn) {
        let idx = self.inner.index_of(pfn);
        let pa = self.word_pa(idx);
        let word = self.inner.bitmap_words()[(idx / 64) as usize];
        mem.write_u64(pa, word);
        mem.clwb(pa);
        mem.sfence();
    }

    /// Allocates one frame, persisting the allocation metadata.
    ///
    /// # Errors
    ///
    /// [`KindleError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&mut self, mem: &mut dyn PhysMem) -> Result<Pfn> {
        let pfn = self.inner.alloc()?;
        self.persist_word(mem, pfn);
        Ok(pfn)
    }

    /// Frees one frame, persisting the allocation metadata.
    ///
    /// # Panics
    ///
    /// Panics on double free (see [`FrameAllocator::free`]).
    pub fn free(&mut self, mem: &mut dyn PhysMem, pfn: Pfn) {
        self.inner.free(pfn);
        self.persist_word(mem, pfn);
    }

    /// Permanently retires a frame, persisting the allocation metadata.
    pub fn retire(&mut self, mem: &mut dyn PhysMem, pfn: Pfn) {
        self.inner.retire(pfn);
        self.persist_word(mem, pfn);
    }

    /// Forces `pfn` to allocated state (recovery bitmap repair), persisting
    /// the repaired word. Returns true if a repair happened.
    pub fn ensure_allocated(&mut self, mem: &mut dyn PhysMem, pfn: Pfn) -> bool {
        let repaired = self.inner.ensure_allocated(pfn);
        if repaired {
            self.persist_word(mem, pfn);
        }
        repaired
    }

    /// Rebuilds in-memory allocation state from the persisted bitmap
    /// (crash recovery). Charges the bitmap reads. Every allocated frame is
    /// re-announced to an installed sanitizer so post-recovery page-table
    /// state can be checked against the recovered frame set.
    pub fn recover(&mut self, mem: &mut dyn PhysMem) {
        let words = self.inner.bitmap_words().len();
        let mut loaded = vec![0u64; words];
        for (i, w) in loaded.iter_mut().enumerate() {
            *w = mem.read_u64(self.bitmap_region.base + i as u64 * 8);
        }
        self.inner.load_bitmap(&loaded);
        // Walk only the set bits, in ascending frame order.
        for (w, &word) in self.inner.bitmap.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let pfn = self.inner.start + (w as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
                sanitize::emit(|| Event::FrameAlloc { pool: self.inner.pool, pfn: pfn.as_u64() });
            }
        }
    }

    /// Access to the wrapped allocator's read-only queries.
    pub fn inner(&self) -> &FrameAllocator {
        &self.inner
    }

    /// Convenience: is this frame allocated?
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.inner.is_allocated(pfn)
    }

    /// Frames currently allocated.
    pub fn used(&self) -> u64 {
        self.inner.used()
    }

    /// Frames still available.
    pub fn available(&self) -> u64 {
        self.inner.available()
    }
}

/// The kernel's two pools, bundled so page-table code can allocate table
/// frames from either technology.
#[derive(Clone, Debug)]
pub struct FramePools {
    /// Volatile DRAM pool.
    pub dram: FrameAllocator,
    /// NVM pool with persistent allocation metadata.
    pub nvm: PersistentFrameAllocator,
}

impl FramePools {
    /// Allocates from the pool for `kind`, charging metadata persistence for
    /// NVM.
    ///
    /// # Errors
    ///
    /// [`KindleError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&mut self, mem: &mut dyn PhysMem, kind: kindle_types::MemKind) -> Result<Pfn> {
        match kind {
            kindle_types::MemKind::Dram => self.dram.alloc(),
            kindle_types::MemKind::Nvm => self.nvm.alloc(mem),
        }
    }

    /// Frees into the pool that owns `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` belongs to neither pool, or on double free.
    pub fn free(&mut self, mem: &mut dyn PhysMem, pfn: Pfn) {
        if self.dram.contains(pfn) {
            self.dram.free(pfn);
        } else {
            self.nvm.free(mem, pfn);
        }
    }

    /// Memory kind of the pool owning `pfn`.
    pub fn kind_of(&self, pfn: Pfn) -> Option<kindle_types::MemKind> {
        if self.dram.contains(pfn) {
            Some(kindle_types::MemKind::Dram)
        } else if self.nvm.inner().contains(pfn) {
            Some(kindle_types::MemKind::Nvm)
        } else {
            None
        }
    }
}

/// Charges the timing of reading `n` bitmap words (used by recovery paths
/// that only need the cost, not the data).
pub fn charge_bitmap_scan(mem: &mut dyn PhysMem, region: Region, words: usize) {
    for i in 0..words {
        mem.touch(region.base + i as u64 * 8, AccessKind::Read);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::physmem::FlatMem;
    use kindle_types::sanitize::{Sanitizer, ThreadId};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records the frames announced by `FrameAlloc` events.
    struct Collect(Rc<RefCell<Vec<u64>>>);

    impl Sanitizer for Collect {
        fn on_event(&mut self, _: ThreadId, ev: &Event) {
            if let Event::FrameAlloc { pfn, .. } = ev {
                self.0.borrow_mut().push(*pfn);
            }
        }
    }

    #[test]
    fn alloc_free_cycle() {
        let mut a = FrameAllocator::new("dram", Pfn::new(10), 4);
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_ne!(f1, f2);
        assert_eq!(a.used(), 2);
        a.free(f1);
        assert_eq!(a.available(), 3);
        let f3 = a.alloc().unwrap();
        assert_eq!(f3, f1, "free stack reuses most recent");
    }

    #[test]
    fn exhaustion_errors() {
        let mut a = FrameAllocator::new("nvm", Pfn::new(0), 2);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc().unwrap_err(), KindleError::OutOfMemory { pool: "nvm" });
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new("dram", Pfn::new(0), 2);
        let f = a.alloc().unwrap();
        a.free(f);
        a.free(f);
    }

    #[test]
    fn allocation_bits_track_state() {
        let mut a = FrameAllocator::new("dram", Pfn::new(100), 128);
        let f = a.alloc().unwrap();
        assert!(a.is_allocated(f));
        assert!(!a.is_allocated(f + 1));
        a.free(f);
        assert!(!a.is_allocated(f));
    }

    #[test]
    fn persistent_allocator_survives_recovery() {
        let mut mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0x1000), size: 0x1000 };
        let inner = FrameAllocator::new("nvm", Pfn::new(64), 256);
        let mut a = PersistentFrameAllocator::new(inner, region);

        let f1 = a.alloc(&mut mem).unwrap();
        let f2 = a.alloc(&mut mem).unwrap();
        a.free(&mut mem, f1);

        // Simulate reboot: fresh allocator over the same bitmap region.
        let inner2 = FrameAllocator::new("nvm", Pfn::new(64), 256);
        let mut b = PersistentFrameAllocator::new(inner2, region);
        b.recover(&mut mem);
        assert!(!b.is_allocated(f1), "freed frame must be free after recovery");
        assert!(b.is_allocated(f2), "allocated frame must stay allocated");
        assert_eq!(b.used(), 1);
        // And the recovered allocator never hands out f2 again.
        for _ in 0..255 {
            let f = b.alloc(&mut mem).unwrap();
            assert_ne!(f, f2);
        }
        assert!(b.alloc(&mut mem).is_err());
    }

    #[test]
    fn load_bitmap_ignores_bits_past_the_pool() {
        let mut a = FrameAllocator::new("nvm", Pfn::new(0), 100);
        // Word 1 covers frames 64..100; its top 28 bits name no frame.
        a.load_bitmap(&[0, u64::MAX]);
        assert_eq!(a.used(), 36, "only the 36 real frames of word 1 count");
        assert_eq!(a.available(), 64);
        assert_eq!(a.bitmap_words()[1], (1 << 36) - 1, "stray bits are cleared");
    }

    #[test]
    fn recovery_masks_stray_bitmap_bits_read_from_nvm() {
        let mut mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0x1000), size: 0x1000 };
        let mut a =
            PersistentFrameAllocator::new(FrameAllocator::new("nvm", Pfn::new(64), 100), region);
        let f = a.alloc(&mut mem).unwrap();
        // A stuck cell sets a bit past the pool's last frame in the
        // persisted copy of the last word.
        let last = region.base + 8;
        mem.write_u64(last, 1 << 40);
        let mut b =
            PersistentFrameAllocator::new(FrameAllocator::new("nvm", Pfn::new(64), 100), region);
        let announced = Rc::new(RefCell::new(Vec::new()));
        let guard = sanitize::install(Box::new(Collect(announced.clone())));
        b.recover(&mut mem);
        drop(guard);
        assert_eq!(b.used(), 1, "the stray bit is no allocated frame");
        assert_eq!(b.available(), 99);
        assert_eq!(*announced.borrow(), vec![f.as_u64()], "only real frames are announced");
    }

    #[test]
    fn recovery_announces_allocated_frames_in_ascending_order() {
        let mut mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0x1000), size: 0x1000 };
        let mut a =
            PersistentFrameAllocator::new(FrameAllocator::new("nvm", Pfn::new(64), 200), region);
        let frames: Vec<Pfn> = (0..200).map(|_| a.alloc(&mut mem).unwrap()).collect();
        for (i, &f) in frames.iter().enumerate() {
            if i % 3 != 0 && i != 63 && i != 64 {
                a.free(&mut mem, f);
            }
        }
        let want: Vec<u64> =
            frames.iter().filter(|&&f| a.is_allocated(f)).map(|f| f.as_u64()).collect();
        let mut b =
            PersistentFrameAllocator::new(FrameAllocator::new("nvm", Pfn::new(64), 200), region);
        let announced = Rc::new(RefCell::new(Vec::new()));
        let guard = sanitize::install(Box::new(Collect(announced.clone())));
        b.recover(&mut mem);
        drop(guard);
        assert_eq!(*announced.borrow(), want);
        assert_eq!(b.used(), want.len() as u64);
    }

    #[test]
    fn pools_dispatch_by_kind_and_owner() {
        let mut mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0), size: 0x1000 };
        let mut pools = FramePools {
            dram: FrameAllocator::new("dram", Pfn::new(0), 16),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new("nvm", Pfn::new(1000), 16),
                region,
            ),
        };
        let d = pools.alloc(&mut mem, kindle_types::MemKind::Dram).unwrap();
        let n = pools.alloc(&mut mem, kindle_types::MemKind::Nvm).unwrap();
        assert_eq!(pools.kind_of(d), Some(kindle_types::MemKind::Dram));
        assert_eq!(pools.kind_of(n), Some(kindle_types::MemKind::Nvm));
        assert_eq!(pools.kind_of(Pfn::new(500)), None);
        pools.free(&mut mem, d);
        pools.free(&mut mem, n);
        assert_eq!(pools.dram.used(), 0);
        assert_eq!(pools.nvm.used(), 0);
    }
}
