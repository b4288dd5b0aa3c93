//! Lockstep reference-model test for [`Cache`].
//!
//! `StampCache` below is the stamp-based LRU cache `kindle_cache` used
//! before every set was kept in recency order: each way carried a
//! `(tag, valid, dirty, stamp)` record, every hit and fill stamped its way
//! from a per-level tick, and a fill into a full set evicted the way with
//! the smallest stamp. It is kept here verbatim as the reference. Both
//! caches are driven with the same fixed-seed random operations across a
//! grid of geometries, and every return value, eviction, counter and
//! occupancy must agree after every operation.

use kindle_cache::{Cache, CacheConfig, CacheStats, Eviction};
use kindle_types::{AccessKind, PhysAddr, Rng64, CACHE_LINE_SHIFT};

const SEED: u64 = 0x7e57_0016;

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
pub struct StampCache {
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

impl StampCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        StampCache {
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

/// Drives `new` and `model` through the same operation and checks that
/// they agree on its result and on every counter afterwards.
struct Lockstep {
    new: Cache,
    model: StampCache,
    sets: u64,
    assoc: u64,
}

impl Lockstep {
    fn new(sets: u64, assoc: u64) -> Self {
        let cfg = CacheConfig {
            name: format!("{sets}x{assoc}"),
            size_bytes: ((sets * assoc) as usize) << CACHE_LINE_SHIFT,
            assoc: assoc as usize,
            hit_cycles: 1,
        };
        let (new, model) = (Cache::new(cfg.clone()), StampCache::new(cfg));
        assert_eq!(new.config(), model.config());
        Lockstep { new, model, sets, assoc }
    }

    /// A line address that collides often: half the draws go to the
    /// first or last set, tags range over about twice the associativity,
    /// and one draw in eight carries a tag high above the rest.
    fn addr(&self, rng: &mut Rng64) -> PhysAddr {
        let set = match rng.gen_below(4) {
            0 => 0,
            1 => self.sets - 1,
            _ => rng.gen_below(self.sets),
        };
        let mut tag = rng.gen_below(2 * self.assoc + 2);
        if rng.gen_below(8) == 0 {
            tag |= 1 << 40;
        }
        PhysAddr::new((tag * self.sets + set) << CACHE_LINE_SHIFT)
    }

    /// Runs one random operation and compares both caches. `ctx` names
    /// the geometry, case, step and seed.
    fn step(&mut self, rng: &mut Rng64, ctx: &str) {
        let pa = self.addr(rng);
        match rng.gen_below(100) {
            0..=54 => {
                let kind = if rng.gen_below(2) == 0 { AccessKind::Read } else { AccessKind::Write };
                let hit = self.new.lookup(pa, kind);
                assert_eq!(hit, self.model.lookup(pa, kind), "{ctx}: lookup {pa:?} {kind:?}");
                if !hit && rng.gen_below(4) != 0 {
                    let dirty = rng.gen_below(2) == 0;
                    let ev = self.new.insert(pa, dirty);
                    assert_eq!(
                        ev,
                        self.model.insert(pa, dirty),
                        "{ctx}: insert {pa:?} dirty {dirty}"
                    );
                }
            }
            55..=69 => {
                assert_eq!(self.new.probe(pa), self.model.probe(pa), "{ctx}: probe {pa:?}");
            }
            70..=81 => {
                let (a, b) = (self.new.writeback_line(pa), self.model.writeback_line(pa));
                assert_eq!(a, b, "{ctx}: writeback_line {pa:?}");
            }
            82..=96 => {
                let (a, b) = (self.new.invalidate_line(pa), self.model.invalidate_line(pa));
                assert_eq!(a, b, "{ctx}: invalidate_line {pa:?}");
            }
            97..=98 => {
                let mut a = self.new.writeback_all();
                let mut b = self.model.writeback_all();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{ctx}: writeback_all");
            }
            _ => {
                self.new.invalidate_all();
                self.model.invalidate_all();
            }
        }
        assert_eq!(self.new.stats(), self.model.stats(), "{ctx}: stats");
        assert_eq!(self.new.occupancy(), self.model.occupancy(), "{ctx}: occupancy");
        assert_eq!(self.new.recount_occupancy(), self.model.recount_occupancy(), "{ctx}: recount");
        assert_eq!(self.new.occupancy(), self.new.recount_occupancy(), "{ctx}: counter drift");
    }
}

/// The recency-ordered cache and the stamp-based model agree on every
/// operation across associativity {1, 2, 4, 8, 16} and sets {1, 2, 64,
/// 512}.
#[test]
fn recency_order_matches_stamp_lru() {
    let mut rng = Rng64::new(SEED);
    for assoc in [1, 2, 4, 8, 16] {
        for sets in [1, 2, 64, 512] {
            for case in 0..6 {
                let mut pair = Lockstep::new(sets, assoc);
                for step in 0..1_500 {
                    let ctx = format!(
                        "{sets} sets x {assoc} ways, case {case}, step {step}, seed {SEED:#x}"
                    );
                    pair.step(&mut rng, &ctx);
                }
            }
        }
    }
}
