//! Direct-indexed hot-path stores for the memory controller.
//!
//! Every simulated access funnels through the controller's page image,
//! and — when persistence or media faults are armed — through the undo
//! snapshots and per-line checksum table as well. Storing those in
//! ordered maps costs an O(log n) pointer-chase per touch on the single
//! hottest path of the framework. This module flattens them:
//!
//! * [`PageArena`] — a pfn-indexed chunked arena for the volatile page
//!   image (two array indexings per page lookup),
//! * [`SumStore`] — the checksum store, built on [`kindle_types::SumTable`]
//!   (validity bit, because 0 is a legal FNV digest),
//! * [`UndoTable`] — an epoch-tagged flat slot table plus a dirty-line
//!   list, so arming a power cut costs O(dirty lines) and a store's
//!   insert-if-absent is O(1); rollback iterates the dirty list.
//!
//! Everything observable — event order, iteration order at
//! commit/rollback, byte images — is what an ordered map keyed by pfn or
//! line would give: wherever such a map would iterate in key order, the
//! flat stores sort the (small) live set before iterating.
//! `tests/store_model.rs` and `tests/undo_model.rs` check the stores
//! against `BTreeMap` reference models.

use kindle_types::{LineTable, SumTable, CACHE_LINE_SHIFT, PAGE_SIZE};

/// A whole simulated page, boxed so map/arena moves are pointer-sized.
pub type PageBox = Box<[u8; PAGE_SIZE]>;

/// One cache line's previous durable image.
pub type LineSnap = [u8; 64];

/// Page frames per lazily allocated chunk of a [`PageArena`] (a chunk
/// spine entry covers 2 MiB of simulated memory).
const PAGES_PER_CHUNK: usize = 512;

/// A pfn-indexed chunked arena for the sparse volatile page image. The
/// spine is sized from the pool map up front; chunks allocate on first
/// touch so a machine that only ever uses a few megabytes stays small,
/// and cloning a controller (snapshot-forked sweeps) walks only the
/// chunks that exist.
#[derive(Clone, Debug, Default)]
pub struct PageArena {
    chunks: Vec<Option<Box<[Option<PageBox>; PAGES_PER_CHUNK]>>>,
}

impl PageArena {
    /// An arena covering `frames` page frames.
    pub fn with_frames(frames: u64) -> Self {
        let spine = (frames as usize).div_ceil(PAGES_PER_CHUNK);
        let mut chunks = Vec::new();
        chunks.resize_with(spine, || None);
        PageArena { chunks }
    }

    fn empty_chunk() -> Box<[Option<PageBox>; PAGES_PER_CHUNK]> {
        Box::new(std::array::from_fn(|_| None))
    }

    pub fn get(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE]> {
        match self.chunks.get(pfn as usize / PAGES_PER_CHUNK) {
            Some(Some(chunk)) => chunk[pfn as usize % PAGES_PER_CHUNK].as_deref(),
            _ => None,
        }
    }

    fn slot_mut(&mut self, pfn: u64) -> &mut Option<PageBox> {
        let c = pfn as usize / PAGES_PER_CHUNK;
        if c >= self.chunks.len() {
            // Defensive: the spine is pre-sized from the pool map, but an
            // out-of-map pfn must degrade to the map semantics, not panic.
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(Self::empty_chunk);
        &mut chunk[pfn as usize % PAGES_PER_CHUNK]
    }

    pub fn get_mut(&mut self, pfn: u64) -> Option<&mut [u8; PAGE_SIZE]> {
        match self.chunks.get_mut(pfn as usize / PAGES_PER_CHUNK) {
            Some(Some(chunk)) => chunk[pfn as usize % PAGES_PER_CHUNK].as_deref_mut(),
            _ => None,
        }
    }

    pub fn get_mut_or_alloc(&mut self, pfn: u64) -> &mut [u8; PAGE_SIZE] {
        self.slot_mut(pfn).get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Number of pages holding an image.
    pub fn page_count(&self) -> usize {
        self.chunks.iter().flatten().map(|c| c.iter().filter(|p| p.is_some()).count()).sum()
    }

    pub fn remove(&mut self, pfn: u64) -> Option<PageBox> {
        match self.chunks.get_mut(pfn as usize / PAGES_PER_CHUNK) {
            Some(Some(chunk)) => chunk[pfn as usize % PAGES_PER_CHUNK].take(),
            _ => None,
        }
    }

    pub fn insert(&mut self, pfn: u64, page: PageBox) {
        *self.slot_mut(pfn) = Some(page);
    }

    /// Drops every page whose pfn fails `keep` (the crash-wipe retain).
    pub fn retain_frames(&mut self, keep: impl Fn(u64) -> bool) {
        for (c, chunk) in self.chunks.iter_mut().enumerate() {
            let Some(chunk) = chunk else { continue };
            for (i, slot) in chunk.iter_mut().enumerate() {
                if slot.is_some() && !keep((c * PAGES_PER_CHUNK + i) as u64) {
                    *slot = None;
                }
            }
        }
    }
}

/// The per-line reference checksums: a [`SumTable`] indexed by the line's
/// offset into the NVM range. Sums are only ever recorded for NVM lines,
/// so out-of-range reads simply miss.
#[derive(Clone, Debug)]
pub struct SumStore {
    base: u64,
    table: SumTable,
}

impl SumStore {
    /// An empty store for an NVM range starting at `nvm_base`.
    pub fn with_base(nvm_base: u64) -> Self {
        SumStore { base: nvm_base, table: SumTable::default() }
    }

    fn index(&self, line: u64) -> Option<usize> {
        line.checked_sub(self.base).map(|off| (off >> CACHE_LINE_SHIFT) as usize)
    }

    pub fn get(&self, line: u64) -> Option<u64> {
        self.index(line).and_then(|i| self.table.get(i))
    }

    pub fn contains(&self, line: u64) -> bool {
        self.get(line).is_some()
    }

    pub fn insert(&mut self, line: u64, sum: u64) {
        let Some(i) = self.index(line) else {
            debug_assert!(false, "checksum recorded for non-NVM line {line:#x}");
            return;
        };
        self.table.set(i, sum);
    }
}

/// Snapshot index of an all-zero image: such a snapshot is not stored.
const ZERO_SNAP: u32 = u32::MAX;

/// True when every byte of `bytes` is zero. An OR over the words, as
/// `line_sum` tests a line: a byte-wise search or a compare against a zero
/// slice is several times slower on a whole page.
pub(crate) fn is_zero(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    let any = words
        .by_ref()
        .fold(0, |any, w| any | u64::from_le_bytes(w.try_into().expect("8-byte word")));
    any == 0 && words.remainder().iter().all(|&b| b == 0)
}

/// One undo record: the line, where its previous durable image lives
/// (an index into [`UndoTable::snaps`], or [`ZERO_SNAP`]), and whether the
/// record is still live (remove tombstones instead of shifting the list).
/// Sixteen bytes: the image itself is stored apart, and only when it is
/// not all zero.
#[derive(Clone, Copy, Debug)]
struct UndoEntry {
    line: u64,
    snap: u32,
    live: bool,
}

/// Epoch-tagged flat undo store: a [`LineTable`] slot per NVM line packing
/// `(epoch << 32) | (list position + 1)`, plus the dirty-line list itself.
/// Insert-if-absent, membership and remove are O(1); `clear` is an epoch
/// bump (no per-line walk), which is what makes arming a power cut O(dirty
/// lines); rollback and commit-all iterate the live list, sorted to match
/// the ordered map's key order exactly. All-zero snapshots — every line of
/// a freshly zero-filled frame — cost only their 16-byte entry.
#[derive(Clone, Debug)]
pub struct UndoTable {
    /// Base address of the NVM range; lines below it (DRAM write-backs
    /// probing `remove`) are simply absent.
    base: u64,
    epoch: u32,
    slots: LineTable,
    entries: Vec<UndoEntry>,
    /// The non-zero snapshot images, in step with `entries`: cleared and
    /// compacted with it.
    snaps: Vec<LineSnap>,
    live: usize,
}

impl UndoTable {
    pub fn with_base(base: u64) -> Self {
        UndoTable {
            base,
            epoch: 0,
            slots: LineTable::default(),
            entries: Vec::new(),
            snaps: Vec::new(),
            live: 0,
        }
    }

    fn index(&self, line: u64) -> Option<usize> {
        line.checked_sub(self.base).map(|off| (off >> CACHE_LINE_SHIFT) as usize)
    }

    fn pack(&self, pos: usize) -> u64 {
        (u64::from(self.epoch) << 32) | (pos as u64 + 1)
    }

    /// The live-list position of `line`, if present this epoch.
    fn pos(&self, line: u64) -> Option<usize> {
        let v = self.slots.get(self.index(line)?);
        if v >> 32 == u64::from(self.epoch) && v & 0xffff_ffff != 0 {
            Some((v & 0xffff_ffff) as usize - 1)
        } else {
            None
        }
    }

    /// The image an entry refers to.
    fn image(&self, e: &UndoEntry) -> LineSnap {
        if e.snap == ZERO_SNAP {
            [0; 64]
        } else {
            self.snaps[e.snap as usize]
        }
    }

    pub fn contains(&self, line: u64) -> bool {
        self.pos(line).is_some()
    }

    /// First-write-wins insert: a line already snapshotted keeps its
    /// original (oldest) image.
    pub fn insert_absent(&mut self, line: u64, snap: LineSnap) {
        if self.contains(line) {
            return;
        }
        if self.entries.len() >= 64 && self.live * 2 < self.entries.len() {
            self.compact();
        }
        let Some(idx) = self.index(line) else {
            debug_assert!(false, "undo snapshot for non-NVM line {line:#x}");
            return;
        };
        let snap = if is_zero(&snap) {
            ZERO_SNAP
        } else {
            self.snaps.push(snap);
            (self.snaps.len() - 1) as u32
        };
        self.entries.push(UndoEntry { line, snap, live: true });
        self.slots.set(idx, self.pack(self.entries.len() - 1));
        self.live += 1;
    }

    pub fn remove(&mut self, line: u64) -> Option<LineSnap> {
        let pos = self.pos(line)?;
        let idx = self.index(line).expect("pos implies in-range");
        self.slots.set(idx, 0);
        self.entries[pos].live = false;
        self.live -= 1;
        Some(self.image(&self.entries[pos]))
    }

    pub fn len(&self) -> usize {
        self.live
    }

    /// Records in the list (live and tombstoned) and non-zero images
    /// stored beside them. For tests of compaction and zero snapshots.
    #[doc(hidden)]
    pub fn footprint(&self) -> (usize, usize) {
        (self.entries.len(), self.snaps.len())
    }

    /// Takes every live entry in ascending line order, leaving the table
    /// empty (matching the ordered map's drain order byte for byte).
    pub fn drain_sorted(&mut self) -> Vec<(u64, LineSnap)> {
        let mut out: Vec<(u64, LineSnap)> =
            self.entries.iter().filter(|e| e.live).map(|e| (e.line, self.image(e))).collect();
        out.sort_unstable_by_key(|&(line, _)| line);
        self.clear();
        out
    }

    /// Forgets everything by bumping the epoch: stale slots fail the epoch
    /// check, so no per-line wipe is needed.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.snaps.clear();
        self.live = 0;
        if self.epoch == u32::MAX {
            // One epoch wrap per 2^32 clears: pay for a real wipe so old
            // epochs can never alias.
            self.slots.clear();
            self.epoch = 0;
        } else {
            self.epoch += 1;
        }
    }

    /// Keeps only the lines present in `pending`, tombstoning the rest.
    pub fn retain_pending(&mut self, pending: &[u64]) {
        let mut pending = pending.to_vec();
        pending.sort_unstable();
        for pos in 0..self.entries.len() {
            let UndoEntry { line, live, .. } = self.entries[pos];
            if live && pending.binary_search(&line).is_err() {
                let idx = self.index(line).expect("live entry is in range");
                self.slots.set(idx, 0);
                self.entries[pos].live = false;
                self.live -= 1;
            }
        }
    }

    /// Rebuilds the live list without tombstones, re-pointing the slots.
    /// Triggered from `insert_absent` once tombstones outnumber live
    /// entries, which keeps the list O(live) amortized even under long
    /// store/commit churn between clears.
    fn compact(&mut self) {
        self.entries.retain(|e| e.live);
        let mut kept = 0;
        for e in &mut self.entries {
            if e.snap != ZERO_SNAP {
                self.snaps[kept] = self.snaps[e.snap as usize];
                e.snap = kept as u32;
                kept += 1;
            }
        }
        self.snaps.truncate(kept);
        if self.epoch == u32::MAX {
            self.slots.clear();
            self.epoch = 0;
        } else {
            self.epoch += 1;
        }
        for pos in 0..self.entries.len() {
            let idx = self.index(self.entries[pos].line).expect("live entry is in range");
            self.slots.set(idx, self.pack(pos));
        }
    }
}

/// A flat set of page frames (failed-frame dedup): a bitmap over the NVM
/// range plus a sorted overflow list for anything outside it, replacing
/// the old ordered set unconditionally — the failure path is cold, but
/// the controller is a KD012 hot-path module.
#[derive(Clone, Debug)]
pub struct FrameSet {
    base_pfn: u64,
    bits: Vec<u64>,
    overflow: Vec<u64>,
}

impl FrameSet {
    pub fn with_base(base_pfn: u64) -> Self {
        FrameSet { base_pfn, bits: Vec::new(), overflow: Vec::new() }
    }

    /// Inserts `pfn`, returning whether it was newly added.
    pub fn insert(&mut self, pfn: u64) -> bool {
        match pfn.checked_sub(self.base_pfn) {
            Some(off) => {
                let (word, bit) = (off as usize / 64, off % 64);
                if word >= self.bits.len() {
                    self.bits.resize(word + 1, 0);
                }
                let fresh = self.bits[word] >> bit & 1 == 0;
                self.bits[word] |= 1 << bit;
                fresh
            }
            None => match self.overflow.binary_search(&pfn) {
                Ok(_) => false,
                Err(at) => {
                    self.overflow.insert(at, pfn);
                    true
                }
            },
        }
    }

    pub fn clear(&mut self) {
        self.bits.clear();
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_matches_map_semantics() {
        let mut a = PageArena::with_frames(1024);
        assert!(a.get(0).is_none());
        assert!(a.get(5000).is_none(), "reads past the spine never allocate");
        a.get_mut_or_alloc(3)[7] = 9;
        assert_eq!(a.get(3).expect("allocated")[7], 9);
        let taken = a.remove(3).expect("present");
        assert_eq!(taken[7], 9);
        assert!(a.get(3).is_none());
        a.insert(700, taken);
        assert_eq!(a.get(700).expect("inserted")[7], 9);
        a.get_mut_or_alloc(2000); // past the pre-sized spine: grows, no panic
        assert!(a.get(2000).is_some());
        a.retain_frames(|pfn| pfn == 700);
        assert!(a.get(2000).is_none());
        assert!(a.get(700).is_some());
    }

    #[test]
    fn undo_table_matches_map_semantics() {
        let mut t = UndoTable::with_base(1 << 20);
        let line = |i: u64| (1 << 20) + 64 * i;
        assert!(!t.contains(line(0)));
        assert!(t.remove(64).is_none(), "DRAM probe below base is absent");
        t.insert_absent(line(2), [2; 64]);
        t.insert_absent(line(0), [0; 64]);
        t.insert_absent(line(2), [9; 64]); // first write wins
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(line(2)), Some([2; 64]));
        assert!(t.remove(line(2)).is_none(), "second remove misses");
        t.insert_absent(line(2), [9; 64]); // re-dirty after commit
        t.insert_absent(line(7), [7; 64]);
        assert_eq!(
            t.drain_sorted().iter().map(|&(l, s)| (l, s[0])).collect::<Vec<_>>(),
            vec![(line(0), 0), (line(2), 9), (line(7), 7)],
            "drain is ascending by line with the live images"
        );
        assert_eq!(t.len(), 0);
        assert!(!t.contains(line(0)), "epoch bump forgets old slots");
        t.insert_absent(line(1), [1; 64]);
        t.insert_absent(line(3), [3; 64]);
        t.retain_pending(&[line(3)]);
        assert_eq!(t.len(), 1);
        assert!(!t.contains(line(1)));
        assert_eq!(t.remove(line(3)), Some([3; 64]));
    }

    #[test]
    fn undo_table_compacts_tombstones() {
        let mut t = UndoTable::with_base(0);
        // Churn far past the compaction threshold: insert+remove the same
        // few lines many times. Without compaction the entry list would
        // hold one record per iteration.
        for round in 0..1000u64 {
            let line = 64 * (round % 4);
            t.insert_absent(line, [round as u8; 64]);
            assert_eq!(t.remove(line), Some([round as u8; 64]));
        }
        assert_eq!(t.len(), 0);
        assert!(t.entries.len() <= 130, "tombstones bounded, got {}", t.entries.len());
        t.insert_absent(64, [1; 64]);
        assert_eq!(t.drain_sorted().len(), 1);
    }

    #[test]
    fn frame_set_dedupes_in_and_out_of_range() {
        let mut s = FrameSet::with_base(100);
        assert!(s.insert(100));
        assert!(!s.insert(100));
        assert!(s.insert(163));
        assert!(s.insert(3), "below-base pfn goes to the overflow list");
        assert!(!s.insert(3));
        s.clear();
        assert!(s.insert(100), "clear forgets everything");
        assert!(s.insert(3));
    }
}
