//! Legacy ordered-map stores for the controller's hot-path state.
//!
//! These are the original `BTreeMap`-backed implementations of the page
//! image, the per-line checksum table and the undo snapshots, kept — byte
//! for byte in behaviour — behind `MemConfig::legacy_maps` so the flat
//! direct-indexed stores in [`crate::store`] can be proven observation
//! equivalent and benchmarked against them (`hotpath` bench). This module
//! is the allowlisted cold path for the KD012 lint: ordered maps are
//! banned everywhere else in `kindle-mem`.

use std::collections::{BTreeMap, BTreeSet};

use kindle_types::PAGE_SIZE;

use crate::store::{LineSnap, PageBox};

/// The original sparse volatile page image: pfn → page, O(log n) per touch.
#[derive(Clone, Debug, Default)]
pub struct LegacyPages {
    map: BTreeMap<u64, PageBox>,
}

impl LegacyPages {
    pub fn get(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.map.get(&pfn).map(|p| &**p)
    }

    pub fn get_mut(&mut self, pfn: u64) -> Option<&mut [u8; PAGE_SIZE]> {
        self.map.get_mut(&pfn).map(|p| &mut **p)
    }

    pub fn page_count(&self) -> usize {
        self.map.len()
    }

    pub fn get_mut_or_alloc(&mut self, pfn: u64) -> &mut [u8; PAGE_SIZE] {
        self.map.entry(pfn).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    pub fn remove(&mut self, pfn: u64) -> Option<PageBox> {
        self.map.remove(&pfn)
    }

    pub fn insert(&mut self, pfn: u64, page: PageBox) {
        self.map.insert(pfn, page);
    }

    pub fn retain_frames(&mut self, keep: impl Fn(u64) -> bool) {
        self.map.retain(|&pfn, _| keep(pfn));
    }
}

/// The original reference-checksum map: line base address → FNV sum.
#[derive(Clone, Debug, Default)]
pub struct LegacySums {
    map: BTreeMap<u64, u64>,
}

impl LegacySums {
    pub fn get(&self, line: u64) -> Option<u64> {
        self.map.get(&line).copied()
    }

    pub fn contains(&self, line: u64) -> bool {
        self.map.contains_key(&line)
    }

    pub fn insert(&mut self, line: u64, sum: u64) {
        self.map.insert(line, sum);
    }
}

/// The original undo-snapshot map: line base address → previous durable
/// 64-byte image, with first-write-wins inserts.
#[derive(Clone, Debug, Default)]
pub struct LegacyUndo {
    map: BTreeMap<u64, LineSnap>,
}

impl LegacyUndo {
    pub fn contains(&self, line: u64) -> bool {
        self.map.contains_key(&line)
    }

    pub fn insert_absent(&mut self, line: u64, snap: LineSnap) {
        self.map.entry(line).or_insert(snap);
    }

    pub fn remove(&mut self, line: u64) -> Option<LineSnap> {
        self.map.remove(&line)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Takes every entry in ascending line order, leaving the map empty.
    pub fn drain_sorted(&mut self) -> Vec<(u64, LineSnap)> {
        std::mem::take(&mut self.map).into_iter().collect()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Keeps only the lines present in `pending` (the original
    /// `prune_wbuf_undo` set-membership retain).
    pub fn retain_pending(&mut self, pending: &[u64]) {
        let pending: BTreeSet<u64> = pending.iter().copied().collect();
        self.map.retain(|line, _| pending.contains(line));
    }
}
