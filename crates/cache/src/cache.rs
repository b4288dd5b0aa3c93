//! A single set-associative, write-back cache with LRU replacement.

use kindle_types::{AccessKind, PhysAddr, CACHE_LINE_SHIFT};

/// Geometry and timing of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "L2", "LLC").
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Latency of a hit at this level, in cycles.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / 64;
        let sets = lines / self.assoc;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        sets
    }
}

/// A line evicted to make room: its base address and whether it was dirty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Base physical address of the evicted line.
    pub line: PhysAddr,
    /// True if the line held modified data that must be written back.
    pub dirty: bool,
}

/// Hit/miss counters for one level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// One cache level. Addresses are tracked at line granularity only (tags, no
/// data — the memory controller owns the byte image).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set in one contiguous, set-major allocation: set
    /// `s` owns `ways[s * assoc .. (s + 1) * assoc]`. A flat array keeps
    /// construction, full-cache sweeps (flush/invalidate) and — above all —
    /// clones (machine snapshots fork thousands of machines per crash
    /// sweep) at memcpy speed instead of one heap allocation per set.
    ways: Vec<Way>,
    assoc: usize,
    set_mask: u64,
    /// `log2(sets)`: the shift from a line number to its tag.
    set_bits: u32,
    tick: u64,
    /// Running count of valid ways, maintained on every fill/evict so
    /// [`occupancy`](Self::occupancy) is O(1) instead of a full-array
    /// recount (telemetry reads it per report, and the LLC has 98k ways).
    occupied: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            ways: vec![Way::default(); sets * cfg.assoc],
            assoc: cfg.assoc,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            cfg,
            tick: 0,
            occupied: 0,
            stats: CacheStats::default(),
        }
    }

    /// Level configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn index(&self, pa: PhysAddr) -> (usize, u64) {
        let line = pa.as_u64() >> CACHE_LINE_SHIFT;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Looks up `pa`; on hit updates LRU (and dirtiness for writes) and
    /// returns `true`. Counts the access in the stats.
    pub fn lookup(&mut self, pa: PhysAddr, kind: AccessKind) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(pa);
        let base = set * self.assoc;
        for way in &mut self.ways[base..base + self.assoc] {
            if way.valid && way.tag == tag {
                way.stamp = tick;
                if kind.is_write() {
                    way.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts the line containing `pa` (after a miss), evicting the LRU way
    /// if the set is full. `dirty` marks the inserted line as modified.
    pub fn insert(&mut self, pa: PhysAddr, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(pa);
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        // Reuse an invalid way if present.
        if let Some(way) = ways.iter_mut().find(|w| !w.valid) {
            *way = Way { tag, valid: true, dirty, stamp: tick };
            self.occupied += 1;
            return None;
        }
        let victim = ways.iter_mut().min_by_key(|w| w.stamp).expect("associativity >= 1");
        let evicted_line = ((victim.tag << self.set_bits) | set as u64) << CACHE_LINE_SHIFT;
        let ev = Eviction { line: PhysAddr::new(evicted_line), dirty: victim.dirty };
        if ev.dirty {
            self.stats.dirty_evictions += 1;
        }
        *victim = Way { tag, valid: true, dirty, stamp: tick };
        Some(ev)
    }

    /// True if the line is present (does not update LRU or stats).
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.index(pa);
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Clears the dirty bit of the line if present; returns whether it was
    /// dirty (i.e. a write-back is needed). The line stays valid (`clwb`).
    pub fn writeback_line(&mut self, pa: PhysAddr) -> bool {
        let (set, tag) = self.index(pa);
        let base = set * self.assoc;
        for way in &mut self.ways[base..base + self.assoc] {
            if way.valid && way.tag == tag {
                let was = way.dirty;
                way.dirty = false;
                return was;
            }
        }
        false
    }

    /// Invalidates the line if present; returns whether it was dirty.
    pub fn invalidate_line(&mut self, pa: PhysAddr) -> bool {
        let (set, tag) = self.index(pa);
        let base = set * self.assoc;
        for way in &mut self.ways[base..base + self.assoc] {
            if way.valid && way.tag == tag {
                way.valid = false;
                self.occupied -= 1;
                return way.dirty;
            }
        }
        false
    }

    /// Clears all dirty bits, returning the base addresses of lines that
    /// were dirty (a full write-back flush).
    pub fn writeback_all(&mut self) -> Vec<PhysAddr> {
        let (assoc, set_bits) = (self.assoc, self.set_bits);
        let mut out = Vec::new();
        for (set, ways) in self.ways.chunks_mut(assoc).enumerate() {
            for way in ways.iter_mut() {
                if way.valid && way.dirty {
                    way.dirty = false;
                    let line = ((way.tag << set_bits) | set as u64) << CACHE_LINE_SHIFT;
                    out.push(PhysAddr::new(line));
                }
            }
        }
        out
    }

    /// Drops every line (power loss). Dirty data is *lost*, which is exactly
    /// the hazard NVM consistency mechanisms guard against.
    pub fn invalidate_all(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
            way.dirty = false;
        }
        self.occupied = 0;
    }

    /// Number of valid lines currently held (a maintained counter, not a
    /// recount; [`recount_occupancy`](Self::recount_occupancy) is the
    /// oracle the tests hold it against).
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Recounts valid ways from scratch. Test oracle for the maintained
    /// [`occupancy`](Self::occupancy) counter.
    #[doc(hidden)]
    pub fn recount_occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            name: "T".into(),
            size_bytes: 4 * 64, // 4 lines
            assoc: 2,           // 2 sets x 2 ways
            hit_cycles: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let pa = PhysAddr::new(0x1000);
        assert!(!c.lookup(pa, AccessKind::Read));
        c.insert(pa, false);
        assert!(c.lookup(pa, AccessKind::Read));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = 2 lines = 128B).
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(128);
        let d = PhysAddr::new(256);
        c.insert(a, false);
        c.insert(b, false);
        c.lookup(a, AccessKind::Read); // a is now MRU
        let ev = c.insert(d, false).expect("set full");
        assert_eq!(ev.line, b, "LRU way (b) must be evicted");
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        c.insert(a, false);
        c.lookup(a, AccessKind::Write); // dirty it
        c.insert(PhysAddr::new(128), false);
        let ev = c.insert(PhysAddr::new(256), false).unwrap();
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn writeback_line_clears_dirty_keeps_valid() {
        let mut c = tiny();
        let a = PhysAddr::new(64);
        c.insert(a, true);
        assert!(c.writeback_line(a));
        assert!(!c.writeback_line(a), "second writeback is a no-op");
        assert!(c.probe(a), "clwb keeps the line cached");
    }

    #[test]
    fn invalidate_line_reports_dirty() {
        let mut c = tiny();
        let a = PhysAddr::new(64);
        c.insert(a, true);
        assert!(c.invalidate_line(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate_line(a));
    }

    #[test]
    fn writeback_all_returns_exactly_dirty_lines() {
        let mut c = tiny();
        c.insert(PhysAddr::new(0), true);
        c.insert(PhysAddr::new(64), false);
        c.insert(PhysAddr::new(128), true);
        let mut dirty = c.writeback_all();
        dirty.sort();
        assert_eq!(dirty, vec![PhysAddr::new(0), PhysAddr::new(128)]);
        assert!(c.writeback_all().is_empty());
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = Cache::new(CacheConfig {
            name: "T2".into(),
            size_bytes: 64 * 64,
            assoc: 1,
            hit_cycles: 1,
        });
        let pa = PhysAddr::new(0xabcd * 64);
        c.insert(pa, true);
        // Same set, different tag: set count = 64 lines, stride 64*64 bytes.
        let conflicting = PhysAddr::new(pa.as_u64() + 64 * 64 * 64);
        let ev = c.insert(conflicting, false).unwrap();
        assert_eq!(ev.line, pa);
    }

    #[test]
    fn occupancy_counter_matches_recount_through_mixed_workload() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        // Deterministic mixed fill/evict/invalidate traffic: addresses
        // collide across both sets, so inserts exercise both the
        // invalid-way-reuse branch (+1) and the replace branch (+0).
        let mut state = 0x9e37_79b9_u64;
        for step in 0..200u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pa = PhysAddr::new((state >> 33) % 8 * 64);
            match step % 5 {
                0 | 1 => {
                    if !c.lookup(pa, AccessKind::Read) {
                        c.insert(pa, step % 2 == 0);
                    }
                }
                2 => {
                    c.insert(pa, false);
                }
                3 => {
                    c.invalidate_line(pa);
                }
                _ => {
                    c.writeback_line(pa);
                }
            }
            assert_eq!(
                c.occupancy(),
                c.recount_occupancy(),
                "counter drifted from recount at step {step}"
            );
        }
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.occupancy(), c.recount_occupancy());
        c.insert(PhysAddr::new(0), true);
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.occupancy(), c.recount_occupancy());
    }

    #[test]
    fn invalidate_all_drops_everything() {
        let mut c = tiny();
        c.insert(PhysAddr::new(0), true);
        c.insert(PhysAddr::new(64), true);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert!(c.writeback_all().is_empty(), "dirty data lost on power failure");
    }
}
