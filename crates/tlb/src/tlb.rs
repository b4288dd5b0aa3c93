//! Set-associative TLBs and the two-level TLB stack.

use kindle_types::{Cycles, Vpn};

use crate::entry::TlbEntry;

/// Geometry/timing of one TLB level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Ways per set (must divide `entries` into a power-of-two set count).
    pub assoc: usize,
    /// Latency of a hit at this level, in cycles.
    pub hit_cycles: u64,
}

impl TlbConfig {
    /// Typical L1 DTLB: 64 entries, 4-way, effectively free on hit.
    pub fn l1_default() -> Self {
        TlbConfig { entries: 64, assoc: 4, hit_cycles: 1 }
    }

    /// Typical L2 STLB: 1536 entries, 12-way, a few cycles.
    pub fn l2_default() -> Self {
        TlbConfig { entries: 1536, assoc: 12, hit_cycles: 7 }
    }

    fn sets(&self) -> usize {
        let sets = self.entries / self.assoc;
        assert!(sets.is_power_of_two(), "TLB set count must be a power of two");
        sets
    }
}

/// Hit/miss counters for one TLB level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by capacity/conflict.
    pub evictions: u64,
}

#[derive(Clone, Debug)]
struct Slot {
    entry: TlbEntry,
    stamp: u64,
}

/// One set-associative TLB level with LRU replacement.
#[derive(Clone, Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: Vec<Vec<Slot>>,
    set_mask: u64,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        let sets = cfg.sets();
        Tlb {
            sets: vec![Vec::with_capacity(cfg.assoc); sets],
            set_mask: sets as u64 - 1,
            cfg,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Level configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.as_u64() & self.set_mask) as usize
    }

    /// Looks up a translation, updating LRU and counting hit/miss.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<&mut TlbEntry> {
        let pos = self.lookup_pos(vpn)?;
        Some(self.entry_at(pos))
    }

    /// One-pass lookup returning the entry's `(set, way)` position instead
    /// of a borrow, updating LRU and counting hit/miss. Callers that need
    /// the entry after further `&mut self` work (the two-level promotion
    /// dance) re-materialize the borrow with [`entry_at`](Self::entry_at) —
    /// a direct indexing, not a second scan.
    fn lookup_pos(&mut self, vpn: Vpn) -> Option<(usize, usize)> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        match self.sets[set].iter().position(|s| s.entry.vpn == vpn) {
            Some(way) => {
                self.sets[set][way].stamp = tick;
                self.stats.hits += 1;
                Some((set, way))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The entry's `(set, way)` position without disturbing LRU or stats.
    fn pos_of(&self, vpn: Vpn) -> Option<(usize, usize)> {
        let set = self.set_of(vpn);
        self.sets[set].iter().position(|s| s.entry.vpn == vpn).map(|way| (set, way))
    }

    /// Direct access to a position returned by
    /// [`lookup_pos`](Self::lookup_pos) / [`pos_of`](Self::pos_of).
    fn entry_at(&mut self, (set, way): (usize, usize)) -> &mut TlbEntry {
        &mut self.sets[set][way].entry
    }

    /// Peeks without disturbing LRU or stats.
    pub fn peek(&self, vpn: Vpn) -> Option<&TlbEntry> {
        let set = self.set_of(vpn);
        self.sets[set].iter().map(|s| &s.entry).find(|e| e.vpn == vpn)
    }

    /// Inserts (or replaces) a translation; returns the evicted entry if the
    /// set was full.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.tick += 1;
        let tick = self.tick;
        let assoc = self.cfg.assoc;
        let set = self.set_of(entry.vpn);
        let slots = &mut self.sets[set];
        if let Some(slot) = slots.iter_mut().find(|s| s.entry.vpn == entry.vpn) {
            slot.entry = entry;
            slot.stamp = tick;
            return None;
        }
        if slots.len() < assoc {
            slots.push(Slot { entry, stamp: tick });
            return None;
        }
        let victim_idx = slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.stamp)
            .map(|(i, _)| i)
            .expect("assoc >= 1");
        let victim = std::mem::replace(&mut slots[victim_idx], Slot { entry, stamp: tick });
        self.stats.evictions += 1;
        Some(victim.entry)
    }

    /// Removes and returns the translation for `vpn` if present.
    pub fn invalidate(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        let set = self.set_of(vpn);
        let slots = &mut self.sets[set];
        let idx = slots.iter().position(|s| s.entry.vpn == vpn)?;
        Some(slots.swap_remove(idx).entry)
    }

    /// Removes every translation, returning them (metadata write-back).
    pub fn flush_all(&mut self) -> Vec<TlbEntry> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            out.extend(set.drain(..).map(|s| s.entry));
        }
        out
    }

    /// Iterates over all resident entries mutably (interval-end scans).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut TlbEntry> {
        self.sets.iter_mut().flatten().map(|s| &mut s.entry)
    }

    /// Number of resident translations.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Configuration of the L1+L2 TLB stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoLevelTlbConfig {
    /// First-level (fast, small) TLB.
    pub l1: TlbConfig,
    /// Second-level (slower, large) TLB.
    pub l2: TlbConfig,
}

impl Default for TwoLevelTlbConfig {
    fn default() -> Self {
        TwoLevelTlbConfig { l1: TlbConfig::l1_default(), l2: TlbConfig::l2_default() }
    }
}

/// The L1 + L2 TLB stack.
///
/// On an L2 hit the entry is promoted to L1; entries evicted from L1 demote
/// to L2; entries evicted from L2 leave the hierarchy and are returned so
/// the prototypes can write their metadata (SSP bitmaps, HSCC counters)
/// back to memory, as the paper's hardware does on TLB eviction.
#[derive(Clone, Debug)]
pub struct TwoLevelTlb {
    l1: Tlb,
    l2: Tlb,
}

impl TwoLevelTlb {
    /// Creates an empty stack.
    pub fn new(cfg: &TwoLevelTlbConfig) -> Self {
        TwoLevelTlb { l1: Tlb::new(cfg.l1.clone()), l2: Tlb::new(cfg.l2.clone()) }
    }

    /// Looks up `vpn`. Returns the latency of the lookup, a mutable
    /// reference to the entry if found, and any entry that fell out of the
    /// hierarchy during promotion.
    pub fn lookup(&mut self, vpn: Vpn) -> (Cycles, Option<&mut TlbEntry>, Option<TlbEntry>) {
        let l1_lat = Cycles::new(self.l1.config().hit_cycles);
        let l2_lat = Cycles::new(self.l2.config().hit_cycles);
        // One pass over the set: the position re-materializes the borrow.
        if let Some(pos) = self.l1.lookup_pos(vpn) {
            return (l1_lat, Some(self.l1.entry_at(pos)), None);
        }
        if let Some(entry) = self.l2.invalidate(vpn) {
            self.l2.stats.hits += 1;
            let mut dropped = None;
            if let Some(demoted) = self.l1.insert(entry) {
                if let Some(out) = self.l2.insert(demoted) {
                    dropped = Some(out);
                }
            }
            let pos = self.l1.pos_of(vpn).expect("entry promoted to L1 just above");
            return (l1_lat + l2_lat, Some(self.l1.entry_at(pos)), dropped);
        }
        self.l2.stats.misses += 1;
        (l1_lat + l2_lat, None, None)
    }

    /// Installs a fresh translation (after a page walk); returns any entry
    /// pushed out of the hierarchy entirely. A stale copy of the same vpn
    /// in L2 is replaced, never duplicated.
    pub fn install(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.l2.invalidate(entry.vpn);
        if let Some(demoted) = self.l1.insert(entry) {
            return self.l2.insert(demoted);
        }
        None
    }

    /// Invalidates one translation everywhere, returning the L1-or-L2 copy.
    pub fn invalidate(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        let a = self.l1.invalidate(vpn);
        let b = self.l2.invalidate(vpn);
        a.or(b)
    }

    /// Flushes everything, returning all entries (full TLB shootdown).
    pub fn flush_all(&mut self) -> Vec<TlbEntry> {
        let mut v = self.l1.flush_all();
        v.extend(self.l2.flush_all());
        v
    }

    /// Iterates all resident entries mutably, L1 first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut TlbEntry> {
        self.l1.iter_mut().chain(self.l2.iter_mut())
    }

    /// Mutable access to a resident entry without touching LRU state or
    /// hit/miss counters (hardware-internal updates like access counting).
    pub fn peek_mut(&mut self, vpn: Vpn) -> Option<&mut TlbEntry> {
        if let Some(pos) = self.l1.pos_of(vpn) {
            return Some(self.l1.entry_at(pos));
        }
        if let Some(pos) = self.l2.pos_of(vpn) {
            return Some(self.l2.entry_at(pos));
        }
        None
    }

    /// (L1, L2) statistics.
    pub fn stats(&self) -> (TlbStats, TlbStats) {
        (self.l1.stats().clone(), self.l2.stats().clone())
    }

    /// Total resident translations.
    pub fn occupancy(&self) -> usize {
        self.l1.occupancy() + self.l2.occupancy()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the TLB's own tests drop entries directly
mod tests {
    use super::*;
    use kindle_types::{MemKind, Pfn};

    fn e(v: u64) -> TlbEntry {
        TlbEntry::new(Vpn::new(v), Pfn::new(v + 100), true, MemKind::Dram)
    }

    #[test]
    fn insert_lookup_invalidate() {
        let mut t = Tlb::new(TlbConfig { entries: 8, assoc: 2, hit_cycles: 1 });
        t.insert(e(1));
        assert!(t.lookup(Vpn::new(1)).is_some());
        assert!(t.lookup(Vpn::new(2)).is_none());
        assert_eq!(t.invalidate(Vpn::new(1)).unwrap().pfn, Pfn::new(101));
        assert!(t.peek(Vpn::new(1)).is_none());
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut t = Tlb::new(TlbConfig { entries: 4, assoc: 2, hit_cycles: 1 });
        // Set index = vpn & 1; vpns 0,2,4 share set 0.
        t.insert(e(0));
        t.insert(e(2));
        t.lookup(Vpn::new(0)); // 0 becomes MRU
        let ev = t.insert(e(4)).expect("set full");
        assert_eq!(ev.vpn, Vpn::new(2));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(TlbConfig { entries: 4, assoc: 2, hit_cycles: 1 });
        t.insert(e(1));
        let mut e2 = e(1);
        e2.pfn = Pfn::new(999);
        assert!(t.insert(e2).is_none());
        assert_eq!(t.peek(Vpn::new(1)).unwrap().pfn, Pfn::new(999));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn two_level_promotes_from_l2() {
        let mut t = TwoLevelTlb::new(&TwoLevelTlbConfig::default());
        t.install(e(7));
        // Push entry 7 out of L1 by filling its set (L1: 16 sets, 4 ways;
        // vpns congruent to 7 mod 16 share the set).
        for i in 1..=4u64 {
            t.install(e(7 + i * 16));
        }
        // 7 must now be in L2; a lookup promotes it back to L1.
        let (lat, hit, _) = t.lookup(Vpn::new(7));
        assert!(hit.is_some());
        assert!(lat >= Cycles::new(8), "L2 hit pays both latencies: {lat}");
        let (lat2, hit2, _) = t.lookup(Vpn::new(7));
        assert!(hit2.is_some());
        assert_eq!(lat2, Cycles::new(1), "promoted entry hits in L1");
    }

    #[test]
    fn miss_costs_both_levels() {
        let mut t = TwoLevelTlb::new(&TwoLevelTlbConfig::default());
        let (lat, hit, _) = t.lookup(Vpn::new(42));
        assert!(hit.is_none());
        assert_eq!(lat, Cycles::new(1 + 7));
    }

    #[test]
    fn single_pass_lookup_charges_and_counts_like_before() {
        // Pins the observable contract of the one-pass lookup/touch path:
        // the same cycle charges and hit/miss counters the old
        // presence-check-then-rescan code produced, through a full
        // hit/miss cycle (L1 hit, L2 promote, cold miss, peek_mut).
        let mut t = TwoLevelTlb::new(&TwoLevelTlbConfig::default());
        t.install(e(7));
        let (lat, hit, _) = t.lookup(Vpn::new(7));
        assert!(hit.is_some());
        assert_eq!(lat, Cycles::new(1), "L1 hit pays the L1 latency only");
        let (lat, hit, _) = t.lookup(Vpn::new(42));
        assert!(hit.is_none());
        assert_eq!(lat, Cycles::new(1 + 7), "cold miss pays both levels");
        // Demote 7 to L2, then hit it there.
        for i in 1..=4u64 {
            t.install(e(7 + i * 16));
        }
        let (lat, hit, _) = t.lookup(Vpn::new(7));
        assert!(hit.is_some());
        assert_eq!(lat, Cycles::new(1 + 7), "L2 hit pays both levels");
        let (l1, l2) = t.stats();
        assert_eq!((l1.hits, l1.misses), (1, 2), "L1: one hit, two misses");
        assert_eq!((l2.hits, l2.misses), (1, 1), "L2: one promote-hit, one miss");
        // peek_mut finds entries at either level without touching counters.
        assert!(t.peek_mut(Vpn::new(7)).is_some(), "L1-resident after promote");
        assert!(t.peek_mut(Vpn::new(7 + 16)).is_some());
        assert!(t.peek_mut(Vpn::new(999)).is_none());
        let (l1_after, l2_after) = t.stats();
        assert_eq!((l1_after.hits, l1_after.misses), (l1.hits, l1.misses));
        assert_eq!((l2_after.hits, l2_after.misses), (l2.hits, l2.misses));
    }

    #[test]
    fn flush_all_returns_everything() {
        let mut t = TwoLevelTlb::new(&TwoLevelTlbConfig::default());
        for i in 0..10 {
            t.install(e(i));
        }
        let all = t.flush_all();
        assert_eq!(all.len(), 10);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn eviction_cascade_returns_dropped_entry() {
        // Tiny stack: 2-entry direct-ish L1, 2-entry L2 forces drops fast.
        let cfg = TwoLevelTlbConfig {
            l1: TlbConfig { entries: 2, assoc: 2, hit_cycles: 1 },
            l2: TlbConfig { entries: 2, assoc: 2, hit_cycles: 7 },
        };
        let mut t = TwoLevelTlb::new(&cfg);
        let mut dropped = 0;
        for i in 0..16u64 {
            if t.install(e(i)).is_some() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "overflow must surface dropped entries");
        assert!(t.occupancy() <= 4);
    }
}
