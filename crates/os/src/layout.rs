//! Reserved-region layout of the NVM range.
//!
//! The kernel reserves the head of the NVM physical range for persistent
//! metadata; everything after [`NvmLayout::general`] is handed to the NVM
//! frame allocator for application pages.

use kindle_mem::E820Map;
use kindle_types::{MemKind, PhysAddr, PAGE_SIZE};

/// One contiguous reserved physical region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First byte of the region.
    pub base: PhysAddr,
    /// Size in bytes (page-aligned).
    pub size: u64,
}

impl Region {
    /// One-past-the-end address.
    pub fn end(&self) -> PhysAddr {
        self.base + self.size
    }

    /// True if `pa` lies inside the region.
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa >= self.base && pa < self.end()
    }

    /// Number of whole frames.
    pub fn frames(&self) -> u64 {
        self.size / PAGE_SIZE as u64
    }
}

/// Carve-up of the NVM range into persistent metadata regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmLayout {
    /// Frame-allocator persistence bitmap (1 bit per general NVM frame).
    pub alloc_bitmap: Region,
    /// Ring buffer used to consistency-wrap PTE stores (persistent scheme).
    pub pt_log: Region,
    /// Redo log of OS metadata modifications (process persistence).
    pub meta_log: Region,
    /// Saved-state area: per-process consistent/working context copies and
    /// the virtual-to-NVM-frame mapping lists.
    pub saved_state: Region,
    /// SSP metadata cache (original/shadow pairs and bitmaps).
    pub ssp_cache: Region,
    /// General-purpose NVM frames (application pages, NVM page tables).
    pub general: Region,
}

impl NvmLayout {
    /// Builds the layout from the machine's memory map. NVM ranges below
    /// 512 MiB get proportionally smaller reserved regions (useful for unit
    /// tests); full-size machines use the production sizes.
    ///
    /// # Panics
    ///
    /// Panics if the NVM range is smaller than 16 MiB.
    pub fn from_map(map: &E820Map) -> Self {
        let nvm = map.range(MemKind::Nvm);
        const MIB: u64 = 1 << 20;
        const KIB: u64 = 1 << 10;
        assert!(nvm.size >= 16 * MIB, "NVM range must be at least 16 MiB");
        let full = nvm.size >= 512 * MIB;
        let mut cursor = nvm.base;
        let mut take = |size: u64| {
            let r = Region { base: cursor, size };
            cursor += size;
            r
        };
        let (bitmap_sz, log_sz, meta_sz, saved_sz, ssp_sz, align) = if full {
            (MIB / 4, MIB / 4, 4 * MIB, 40 * MIB, 16 * MIB, 2 * MIB)
        } else {
            (64 * KIB, 64 * KIB, 512 * KIB, 4 * MIB, 2 * MIB, 64 * KIB)
        };
        let alloc_bitmap = take(bitmap_sz);
        let pt_log = take(log_sz);
        let meta_log = take(meta_sz);
        let saved_state = take(saved_sz);
        let ssp_cache = take(ssp_sz);
        // Align the general pool for tidiness.
        let used = cursor - nvm.base;
        let aligned = (used + align - 1) & !(align - 1);
        let general = Region { base: nvm.base + aligned, size: nvm.size - aligned };
        NvmLayout { alloc_bitmap, pt_log, meta_log, saved_state, ssp_cache, general }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let map = E820Map::flat(3 << 30, 2 << 30);
        let l = NvmLayout::from_map(&map);
        let regions = [l.alloc_bitmap, l.pt_log, l.meta_log, l.saved_state, l.ssp_cache, l.general];
        for w in regions.windows(2) {
            assert!(w[0].end() <= w[1].base, "{:?} overlaps {:?}", w[0], w[1]);
        }
        assert_eq!(l.alloc_bitmap.base, map.range(MemKind::Nvm).base);
        assert_eq!(l.general.end(), map.range(MemKind::Nvm).end());
        assert!(l.general.frames() > 400_000, "most NVM must stay general purpose");
    }

    #[test]
    #[should_panic(expected = "16 MiB")]
    fn rejects_tiny_nvm() {
        let map = E820Map::flat(1 << 30, 8 << 20);
        NvmLayout::from_map(&map);
    }

    #[test]
    fn compact_layout_for_small_nvm() {
        let map = E820Map::flat(48 << 20, 48 << 20);
        let l = NvmLayout::from_map(&map);
        assert!(l.general.frames() > 8_000, "small NVM still mostly general");
        assert_eq!(l.general.end(), map.range(MemKind::Nvm).end());
    }

    #[test]
    fn region_contains() {
        let r = Region { base: PhysAddr::new(0x1000), size: 0x2000 };
        assert!(r.contains(PhysAddr::new(0x1000)));
        assert!(r.contains(PhysAddr::new(0x2fff)));
        assert!(!r.contains(PhysAddr::new(0x3000)));
        assert_eq!(r.frames(), 2);
    }
}
