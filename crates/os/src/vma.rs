//! Virtual memory areas with Kindle's DRAM/NVM tagging.

use kindle_types::{KindleError, MapFlags, MemKind, Prot, Result, VirtAddr, PAGE_SIZE};

/// One virtual memory area. Kindle tags each VMA as DRAM or NVM based on the
/// `MAP_NVM` flag; demand paging allocates frames from the matching pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vma {
    /// Inclusive start (page aligned).
    pub start: VirtAddr,
    /// Exclusive end (page aligned).
    pub end: VirtAddr,
    /// Protection bits.
    pub prot: Prot,
    /// Backing pool selected at mmap time.
    pub kind: MemKind,
}

impl Vma {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for a degenerate empty area.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Number of pages covered.
    pub fn pages(&self) -> u64 {
        self.len() / PAGE_SIZE as u64
    }

    /// True if `va` lies inside.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end
    }

    /// True if `[start, end)` intersects this area.
    pub fn overlaps(&self, start: VirtAddr, end: VirtAddr) -> bool {
        start < self.end && self.start < end
    }
}

/// Lowest address handed out by the region search.
pub const MMAP_BASE: VirtAddr = VirtAddr::new(0x4000_0000);
/// Highest usable user address (47-bit canonical space).
pub const USER_TOP: VirtAddr = VirtAddr::new(0x7fff_ffff_f000);

/// A sorted, non-overlapping list of VMAs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VmaList {
    vmas: Vec<Vma>,
}

impl VmaList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// All areas, sorted by start address.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter()
    }

    /// Number of areas.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// True if no areas exist.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// The area containing `va`, if any.
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        let idx = self.vmas.partition_point(|v| v.end <= va);
        self.vmas.get(idx).filter(|v| v.contains(va))
    }

    /// Finds a free gap of `len` bytes at or above [`MMAP_BASE`].
    ///
    /// # Errors
    ///
    /// [`KindleError::NoVirtualSpace`] when the address space is exhausted.
    pub fn find_free(&self, len: u64) -> Result<VirtAddr> {
        let mut candidate = MMAP_BASE;
        for v in &self.vmas {
            if v.end <= candidate {
                continue;
            }
            if v.start >= candidate && v.start - candidate >= len {
                return Ok(candidate);
            }
            candidate = v.end;
        }
        if USER_TOP - candidate >= len {
            Ok(candidate)
        } else {
            Err(KindleError::NoVirtualSpace { len })
        }
    }

    /// Inserts a new area.
    ///
    /// # Errors
    ///
    /// [`KindleError::Overlap`] if it intersects an existing area.
    pub fn insert(&mut self, vma: Vma) -> Result<()> {
        debug_assert!(vma.start.is_page_aligned() && vma.end.is_page_aligned());
        if vma.is_empty() {
            return Err(KindleError::InvalidArgument("empty vma"));
        }
        let idx = self.vmas.partition_point(|v| v.start < vma.start);
        let clash = |v: &Vma| v.overlaps(vma.start, vma.end);
        if idx > 0 && clash(&self.vmas[idx - 1]) {
            return Err(KindleError::Overlap(vma.start));
        }
        if idx < self.vmas.len() && clash(&self.vmas[idx]) {
            return Err(KindleError::Overlap(vma.start));
        }
        self.vmas.insert(idx, vma);
        Ok(())
    }

    /// Removes `[start, end)` from the list, splitting areas as needed.
    /// Returns the removed sub-areas (so the kernel can unmap their pages).
    pub fn remove(&mut self, start: VirtAddr, end: VirtAddr) -> Vec<Vma> {
        let mut removed = Vec::new();
        let mut result = Vec::with_capacity(self.vmas.len());
        for v in self.vmas.drain(..) {
            if !v.overlaps(start, end) {
                result.push(v);
                continue;
            }
            let cut_start = if v.start > start { v.start } else { start };
            let cut_end = if v.end < end { v.end } else { end };
            if v.start < cut_start {
                result.push(Vma { end: cut_start, ..v });
            }
            removed.push(Vma { start: cut_start, end: cut_end, ..v });
            if cut_end < v.end {
                result.push(Vma { start: cut_end, ..v });
            }
        }
        self.vmas = result;
        removed
    }

    /// Changes protection on `[start, end)`, splitting areas at the edges.
    /// Returns the number of areas affected.
    pub fn protect(&mut self, start: VirtAddr, end: VirtAddr, prot: Prot) -> usize {
        let affected = self.remove(start, end);
        let n = affected.len();
        for mut v in affected {
            v.prot = prot;
            // The carved sub-areas come from `remove` over this very range,
            // so they cannot overlap anything still in the list: insert at
            // the sorted position directly rather than round-tripping
            // through the fallible `insert`.
            let idx = self.vmas.partition_point(|w| w.start < v.start);
            self.vmas.insert(idx, v);
        }
        self.coalesce();
        n
    }

    /// Merges adjacent areas with identical attributes.
    pub fn coalesce(&mut self) {
        let mut merged: Vec<Vma> = Vec::with_capacity(self.vmas.len());
        for v in self.vmas.drain(..) {
            if let Some(last) = merged.last_mut() {
                if last.end == v.start && last.prot == v.prot && last.kind == v.kind {
                    last.end = v.end;
                    continue;
                }
            }
            merged.push(v);
        }
        self.vmas = merged;
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.vmas.iter().map(Vma::len).sum()
    }
}

/// Builds a [`Vma`] from an mmap request (start must be page aligned).
pub fn vma_from_request(start: VirtAddr, len: u64, prot: Prot, flags: MapFlags) -> Vma {
    Vma { start, end: start + len, prot, kind: flags.mem_kind() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(start: u64, end: u64) -> Vma {
        Vma {
            start: VirtAddr::new(start),
            end: VirtAddr::new(end),
            prot: Prot::RW,
            kind: MemKind::Dram,
        }
    }

    #[test]
    fn insert_and_find() {
        let mut l = VmaList::new();
        l.insert(v(0x1000, 0x3000)).unwrap();
        l.insert(v(0x5000, 0x6000)).unwrap();
        assert_eq!(l.find(VirtAddr::new(0x1000)).unwrap().end.as_u64(), 0x3000);
        assert_eq!(l.find(VirtAddr::new(0x2fff)).unwrap().start.as_u64(), 0x1000);
        assert!(l.find(VirtAddr::new(0x3000)).is_none());
        assert!(l.find(VirtAddr::new(0x4000)).is_none());
    }

    #[test]
    fn insert_rejects_overlap() {
        let mut l = VmaList::new();
        l.insert(v(0x1000, 0x3000)).unwrap();
        assert!(matches!(l.insert(v(0x2000, 0x4000)), Err(KindleError::Overlap(_))));
        assert!(matches!(l.insert(v(0x0, 0x2000)), Err(KindleError::Overlap(_))));
        l.insert(v(0x3000, 0x4000)).unwrap(); // adjacent is fine
    }

    #[test]
    fn find_free_skips_existing() {
        let mut l = VmaList::new();
        let base = MMAP_BASE.as_u64();
        l.insert(v(base, base + 0x2000)).unwrap();
        let free = l.find_free(0x1000).unwrap();
        assert_eq!(free.as_u64(), base + 0x2000);
        l.insert(v(base + 0x3000, base + 0x4000)).unwrap();
        // A 0x1000 hole exists between the two areas.
        let free = l.find_free(0x1000).unwrap();
        assert_eq!(free.as_u64(), base + 0x2000);
        let free = l.find_free(0x2000).unwrap();
        assert_eq!(free.as_u64(), base + 0x4000);
    }

    #[test]
    fn remove_splits_areas() {
        let mut l = VmaList::new();
        l.insert(v(0x1000, 0x8000)).unwrap();
        let removed = l.remove(VirtAddr::new(0x3000), VirtAddr::new(0x5000));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].start.as_u64(), 0x3000);
        assert_eq!(removed[0].end.as_u64(), 0x5000);
        assert_eq!(l.len(), 2);
        assert!(l.find(VirtAddr::new(0x2000)).is_some());
        assert!(l.find(VirtAddr::new(0x3000)).is_none());
        assert!(l.find(VirtAddr::new(0x5000)).is_some());
    }

    #[test]
    fn remove_spanning_multiple_areas() {
        let mut l = VmaList::new();
        l.insert(v(0x1000, 0x2000)).unwrap();
        l.insert(v(0x3000, 0x4000)).unwrap();
        l.insert(v(0x5000, 0x6000)).unwrap();
        let removed = l.remove(VirtAddr::new(0x1000), VirtAddr::new(0x6000));
        assert_eq!(removed.len(), 3);
        assert!(l.is_empty());
    }

    #[test]
    fn protect_splits_and_updates() {
        let mut l = VmaList::new();
        l.insert(v(0x1000, 0x5000)).unwrap();
        let n = l.protect(VirtAddr::new(0x2000), VirtAddr::new(0x3000), Prot::READ);
        assert_eq!(n, 1);
        assert_eq!(l.find(VirtAddr::new(0x2000)).unwrap().prot, Prot::READ);
        assert_eq!(l.find(VirtAddr::new(0x1000)).unwrap().prot, Prot::RW);
        assert_eq!(l.find(VirtAddr::new(0x3000)).unwrap().prot, Prot::RW);
    }

    #[test]
    fn coalesce_merges_identical_neighbours() {
        let mut l = VmaList::new();
        l.insert(v(0x1000, 0x2000)).unwrap();
        l.insert(v(0x2000, 0x3000)).unwrap();
        l.coalesce();
        assert_eq!(l.len(), 1);
        assert_eq!(l.total_bytes(), 0x2000);
    }

    #[test]
    fn nvm_tagging_from_flags() {
        let a = vma_from_request(VirtAddr::new(0x1000), 0x1000, Prot::RW, MapFlags::NVM);
        assert_eq!(a.kind, MemKind::Nvm);
        let b = vma_from_request(VirtAddr::new(0x2000), 0x1000, Prot::RW, MapFlags::EMPTY);
        assert_eq!(b.kind, MemKind::Dram);
    }
}
