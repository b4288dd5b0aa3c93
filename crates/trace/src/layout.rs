//! The virtual-memory layout captured alongside the trace.
//!
//! Stands in for reading `/proc/pid/maps` (and SniP for per-thread stacks):
//! every heap/stack area the application touches is named here, and the
//! image generator attributes each traced access to one area.

use kindle_types::{VirtAddr, PAGE_SIZE};

use crate::record::AreaId;

/// What kind of area this is in the original process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AreaKind {
    /// Heap allocation (malloc arena, mmap'd data).
    Heap,
    /// A thread stack (captured via the SniP-analog path).
    Stack,
}

/// One named memory area.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Area {
    /// Table index.
    pub id: AreaId,
    /// Human-readable name ("vertex_scores", "kv_store", "stack.0"...).
    pub name: String,
    /// Heap or stack.
    pub kind: AreaKind,
    /// Size in bytes (page aligned).
    pub size: u64,
    /// Whether the replay should place this area in NVM (`MAP_NVM`).
    pub nvm: bool,
}

impl Area {
    /// Pages covered by the area.
    pub fn pages(&self) -> u64 {
        self.size / PAGE_SIZE as u64
    }
}

/// The ordered area table of a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryLayout {
    areas: Vec<Area>,
}

impl MemoryLayout {
    /// Empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an area, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a positive multiple of the page size.
    pub fn add(&mut self, name: &str, kind: AreaKind, size: u64, nvm: bool) -> AreaId {
        assert!(size > 0 && size.is_multiple_of(PAGE_SIZE as u64), "area size must be whole pages");
        let id = AreaId(self.areas.len() as u16);
        self.areas.push(Area { id, name: name.to_string(), kind, size, nvm });
        id
    }

    /// All areas in id order.
    pub fn areas(&self) -> &[Area] {
        &self.areas
    }

    /// Area by id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn area(&self, id: AreaId) -> &Area {
        &self.areas[id.0 as usize]
    }

    /// Total bytes across all areas.
    pub fn total_bytes(&self) -> u64 {
        self.areas.iter().map(|a| a.size).sum()
    }

    /// Attributes a virtual address to an area given the per-area base
    /// addresses chosen at replay time — the image-generator step of
    /// labelling each access with an area name.
    pub fn classify(&self, bases: &[VirtAddr], va: VirtAddr) -> Option<(AreaId, u64)> {
        for (i, area) in self.areas.iter().enumerate() {
            let base = bases.get(i)?;
            if va >= *base && va < *base + area.size {
                return Some((area.id, va - *base));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut l = MemoryLayout::new();
        let heap = l.add("kv_store", AreaKind::Heap, 64 * PAGE_SIZE as u64, true);
        let stack = l.add("stack.0", AreaKind::Stack, 4 * PAGE_SIZE as u64, false);
        assert_eq!(l.areas().len(), 2);
        assert_eq!(l.area(heap).pages(), 64);
        assert!(l.area(heap).nvm);
        assert!(!l.area(stack).nvm);
        assert_eq!(l.total_bytes(), 68 * PAGE_SIZE as u64);
    }

    #[test]
    fn classify_attributes_accesses() {
        let mut l = MemoryLayout::new();
        let a = l.add("a", AreaKind::Heap, 2 * PAGE_SIZE as u64, true);
        let b = l.add("b", AreaKind::Heap, PAGE_SIZE as u64, false);
        let bases = vec![VirtAddr::new(0x10000), VirtAddr::new(0x40000)];
        assert_eq!(l.classify(&bases, VirtAddr::new(0x10010)), Some((a, 0x10)));
        assert_eq!(l.classify(&bases, VirtAddr::new(0x40fff)), Some((b, 0xfff)));
        assert_eq!(l.classify(&bases, VirtAddr::new(0x9000)), None);
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn rejects_unaligned_area() {
        MemoryLayout::new().add("x", AreaKind::Heap, 100, false);
    }
}
