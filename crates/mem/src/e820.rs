//! e820-style BIOS memory map.
//!
//! Kindle partitions the physical address range between NVM and DRAM and
//! inserts corresponding entries in the (simulated) BIOS memory map, which
//! the OS reads at boot to set up its frame allocators.

use kindle_types::{KindleError, MemKind, PhysAddr, Result, PAGE_SIZE};

/// One contiguous physical range and its backing technology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct E820Entry {
    /// First physical address of the range.
    pub base: PhysAddr,
    /// Size of the range in bytes.
    pub size: u64,
    /// Backing memory technology.
    pub kind: MemKind,
}

impl E820Entry {
    /// One-past-the-end address.
    pub fn end(&self) -> PhysAddr {
        self.base + self.size
    }

    /// True if `pa` lies inside this range.
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa >= self.base && pa < self.end()
    }

    /// Number of whole page frames in the range.
    pub fn frames(&self) -> u64 {
        self.size / PAGE_SIZE as u64
    }
}

/// The BIOS memory map: an ordered list of non-overlapping ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct E820Map {
    entries: Vec<E820Entry>,
}

impl E820Map {
    /// Builds a map from explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if entries overlap, are unsorted, or are not page aligned.
    pub fn new(entries: Vec<E820Entry>) -> Self {
        let mut prev_end = 0u64;
        for e in &entries {
            assert!(e.base.is_page_aligned(), "e820 entry base must be page aligned");
            assert_eq!(e.size % PAGE_SIZE as u64, 0, "e820 entry size must be page aligned");
            assert!(e.base.as_u64() >= prev_end, "e820 entries must be sorted and disjoint");
            prev_end = e.end().as_u64();
        }
        E820Map { entries }
    }

    /// The flat layout Kindle uses: DRAM at `[0, dram)`, NVM right after.
    pub fn flat(dram_bytes: u64, nvm_bytes: u64) -> Self {
        E820Map::new(vec![
            E820Entry { base: PhysAddr::new(0), size: dram_bytes, kind: MemKind::Dram },
            E820Entry { base: PhysAddr::new(dram_bytes), size: nvm_bytes, kind: MemKind::Nvm },
        ])
    }

    /// All entries, sorted by base address.
    pub fn entries(&self) -> &[E820Entry] {
        &self.entries
    }

    /// Backing kind of a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`KindleError::BadPhysAddr`] if `pa` is outside every range.
    pub fn kind_of(&self, pa: PhysAddr) -> Result<MemKind> {
        self.entries
            .iter()
            .find(|e| e.contains(pa))
            .map(|e| e.kind)
            .ok_or(KindleError::BadPhysAddr(pa))
    }

    /// The first (and in the flat layout, only) range of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if no range of `kind` exists.
    pub fn range(&self, kind: MemKind) -> E820Entry {
        *self
            .entries
            .iter()
            .find(|e| e.kind == kind)
            .expect("memory map must contain the requested kind")
    }

    /// Total bytes of `kind` memory.
    pub fn total(&self, kind: MemKind) -> u64 {
        self.entries.iter().filter(|e| e.kind == kind).map(|e| e.size).sum()
    }

    /// One past the highest mapped physical address.
    pub fn end(&self) -> PhysAddr {
        self.entries.last().map(|e| e.end()).unwrap_or(PhysAddr::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_layout_dispatch() {
        let m = E820Map::flat(3 << 30, 2 << 30);
        assert_eq!(m.kind_of(PhysAddr::new(0)).unwrap(), MemKind::Dram);
        assert_eq!(m.kind_of(PhysAddr::new((3 << 30) - 1)).unwrap(), MemKind::Dram);
        assert_eq!(m.kind_of(PhysAddr::new(3 << 30)).unwrap(), MemKind::Nvm);
        assert_eq!(m.kind_of(PhysAddr::new((5u64 << 30) - 1)).unwrap(), MemKind::Nvm);
        assert!(m.kind_of(PhysAddr::new(5 << 30)).is_err());
    }

    #[test]
    fn totals_and_frames() {
        let m = E820Map::flat(1 << 30, 1 << 29);
        assert_eq!(m.total(MemKind::Dram), 1 << 30);
        assert_eq!(m.total(MemKind::Nvm), 1 << 29);
        assert_eq!(m.range(MemKind::Nvm).frames(), (1 << 29) / 4096);
        assert_eq!(m.end().as_u64(), (1 << 30) + (1 << 29));
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn rejects_overlap() {
        E820Map::new(vec![
            E820Entry { base: PhysAddr::new(0), size: 8192, kind: MemKind::Dram },
            E820Entry { base: PhysAddr::new(4096), size: 8192, kind: MemKind::Nvm },
        ]);
    }
}
