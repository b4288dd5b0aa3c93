//! Three-level cache hierarchy (L1D → L2 → LLC).

use kindle_types::{AccessKind, Cycles, PhysAddr};

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Configuration of the three levels, defaulting to the paper's gem5 setup
/// (32 KiB L1, 512 KiB L2, 2 MiB LLC per core).
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { name: "L1D".into(), size_bytes: 32 << 10, assoc: 8, hit_cycles: 4 },
            l2: CacheConfig { name: "L2".into(), size_bytes: 512 << 10, assoc: 8, hit_cycles: 12 },
            llc: CacheConfig { name: "LLC".into(), size_bytes: 2 << 20, assoc: 16, hit_cycles: 40 },
        }
    }
}

/// Outcome of one hierarchy access: latency of the cache portion plus the
/// memory traffic the caller must now charge to the devices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycles spent in the cache levels (memory latency not included).
    pub latency: Cycles,
    /// True if the access missed everywhere and a line fill from memory is
    /// required.
    pub needs_fill: bool,
    /// True if the access missed in the LLC (HSCC counts these per page).
    pub llc_miss: bool,
    /// Dirty lines evicted all the way out of the LLC; each must be written
    /// back to memory (and committed in the durability image).
    pub writebacks: Writebacks,
}

/// The dirty lines one access pushes out of the LLC, held inline. There
/// are at most three: the fill's own LLC victim plus one per spill chain
/// from L1 and from L2. Dereferences to the lines in eviction order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Writebacks {
    lines: [PhysAddr; 3],
    len: u8,
}

impl Writebacks {
    fn push(&mut self, line: PhysAddr) {
        self.lines[usize::from(self.len)] = line;
        self.len += 1;
    }
}

impl std::ops::Deref for Writebacks {
    type Target = [PhysAddr];

    fn deref(&self) -> &[PhysAddr] {
        &self.lines[..usize::from(self.len)]
    }
}

/// Per-level statistics snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// Total lines written back to memory.
    pub memory_writebacks: u64,
}

/// The L1/L2/LLC stack. Mostly-inclusive: a line filled from memory is
/// installed at every level; evictions from an upper level write dirty data
/// into the level below.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    llc: Cache,
    memory_writebacks: u64,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: &HierarchyConfig) -> Self {
        Hierarchy {
            l1: Cache::new(cfg.l1.clone()),
            l2: Cache::new(cfg.l2.clone()),
            llc: Cache::new(cfg.llc.clone()),
            memory_writebacks: 0,
        }
    }

    /// Performs one cache-line access.
    pub fn access(&mut self, pa: PhysAddr, kind: AccessKind) -> AccessResult {
        let mut latency = Cycles::new(self.l1.config().hit_cycles);
        let mut writebacks = Writebacks::default();

        if self.l1.lookup(pa, kind) {
            return AccessResult { latency, needs_fill: false, llc_miss: false, writebacks };
        }

        latency += Cycles::new(self.l2.config().hit_cycles);
        if self.l2.lookup(pa, kind) {
            self.fill_l1(pa, kind, &mut writebacks);
            self.count_wb(&writebacks);
            return AccessResult { latency, needs_fill: false, llc_miss: false, writebacks };
        }

        latency += Cycles::new(self.llc.config().hit_cycles);
        if self.llc.lookup(pa, kind) {
            self.fill_l2(pa, &mut writebacks);
            self.fill_l1(pa, kind, &mut writebacks);
            self.count_wb(&writebacks);
            return AccessResult { latency, needs_fill: false, llc_miss: true, writebacks };
        }

        // Full miss: fill every level from memory.
        if let Some(ev) = self.llc.insert(pa, false) {
            if ev.dirty {
                // Purge stale copies above so dirtiness is not resurrected.
                self.l1.invalidate_line(ev.line);
                self.l2.invalidate_line(ev.line);
                writebacks.push(ev.line);
            }
        }
        self.fill_l2(pa, &mut writebacks);
        self.fill_l1(pa, kind, &mut writebacks);
        self.count_wb(&writebacks);
        AccessResult { latency, needs_fill: true, llc_miss: true, writebacks }
    }

    /// Installs into L1; evicted dirty lines are pushed into L2 (which may in
    /// turn push into the LLC, which may write back to memory).
    fn fill_l1(&mut self, pa: PhysAddr, kind: AccessKind, wb: &mut Writebacks) {
        if let Some(ev) = self.l1.insert(pa, kind.is_write()) {
            if ev.dirty {
                self.spill_to_l2(ev.line, wb);
            }
        }
    }

    fn fill_l2(&mut self, pa: PhysAddr, wb: &mut Writebacks) {
        if let Some(ev) = self.l2.insert(pa, false) {
            if ev.dirty {
                self.spill_to_llc(ev.line, wb);
            }
        }
    }

    /// A dirty line leaving L1 lands in L2 (present or not).
    fn spill_to_l2(&mut self, line: PhysAddr, wb: &mut Writebacks) {
        if self.l2.probe(line) {
            self.l2.lookup(line, AccessKind::Write);
            return;
        }
        if let Some(ev) = self.l2.insert(line, true) {
            if ev.dirty {
                self.spill_to_llc(ev.line, wb);
            }
        }
    }

    fn spill_to_llc(&mut self, line: PhysAddr, wb: &mut Writebacks) {
        if self.llc.probe(line) {
            self.llc.lookup(line, AccessKind::Write);
            return;
        }
        if let Some(ev) = self.llc.insert(line, true) {
            if ev.dirty {
                self.l1.invalidate_line(ev.line);
                self.l2.invalidate_line(ev.line);
                wb.push(ev.line);
            }
        }
    }

    fn count_wb(&mut self, wb: &Writebacks) {
        self.memory_writebacks += wb.len() as u64;
    }

    /// `clwb pa`: writes the line back at every level without invalidating.
    /// Returns `true` if any level held it dirty (a memory write-back is
    /// then required).
    pub fn clwb(&mut self, pa: PhysAddr) -> bool {
        let mut dirty = false;
        dirty |= self.l1.writeback_line(pa);
        dirty |= self.l2.writeback_line(pa);
        dirty |= self.llc.writeback_line(pa);
        if dirty {
            self.memory_writebacks += 1;
        }
        dirty
    }

    /// Invalidates one line everywhere; returns whether dirty data was
    /// dropped (callers that need it written back should `clwb` first).
    pub fn invalidate_line(&mut self, pa: PhysAddr) -> bool {
        let a = self.l1.invalidate_line(pa);
        let b = self.l2.invalidate_line(pa);
        let c = self.llc.invalidate_line(pa);
        a | b | c
    }

    /// Full write-back flush (e.g. `wbinvd` minus the invalidate): clears all
    /// dirty bits and returns every line that must be written to memory.
    pub fn writeback_all(&mut self) -> Vec<PhysAddr> {
        let mut lines = self.l1.writeback_all();
        lines.extend(self.l2.writeback_all());
        lines.extend(self.llc.writeback_all());
        lines.sort();
        lines.dedup();
        self.memory_writebacks += lines.len() as u64;
        lines
    }

    /// Power failure: every cached line (including dirty data) is lost.
    pub fn invalidate_all(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
        self.llc.invalidate_all();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats().clone(),
            l2: self.l2.stats().clone(),
            llc: self.llc.stats().clone(),
            memory_writebacks: self.memory_writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(&HierarchyConfig::default())
    }

    #[test]
    fn cold_miss_fills_all_levels() {
        let mut h = h();
        let pa = PhysAddr::new(0x4000);
        let r = h.access(pa, AccessKind::Read);
        assert!(r.needs_fill);
        assert!(r.llc_miss);
        let r2 = h.access(pa, AccessKind::Read);
        assert!(!r2.needs_fill);
        assert_eq!(r2.latency, Cycles::new(4));
    }

    #[test]
    fn latency_grows_with_depth() {
        let mut h = h();
        let pa = PhysAddr::new(0x8000);
        let miss = h.access(pa, AccessKind::Read);
        let hit = h.access(pa, AccessKind::Read);
        assert!(miss.latency > hit.latency);
        assert_eq!(miss.latency, Cycles::new(4 + 12 + 40));
    }

    #[test]
    fn clwb_reports_dirty_once() {
        let mut h = h();
        let pa = PhysAddr::new(0x1000);
        h.access(pa, AccessKind::Write);
        assert!(h.clwb(pa));
        assert!(!h.clwb(pa));
    }

    #[test]
    fn writeback_all_collects_dirty_lines() {
        let mut h = h();
        h.access(PhysAddr::new(0), AccessKind::Write);
        h.access(PhysAddr::new(64), AccessKind::Write);
        h.access(PhysAddr::new(128), AccessKind::Read);
        let wb = h.writeback_all();
        assert_eq!(wb, vec![PhysAddr::new(0), PhysAddr::new(64)]);
    }

    #[test]
    fn dirty_writeback_emerges_under_capacity_pressure() {
        // Write far more lines than the LLC holds; dirty evictions must
        // surface as memory writebacks.
        let mut h = h();
        let llc_lines = (2 << 20) / 64;
        let mut spilled = 0usize;
        for i in 0..(llc_lines as u64 * 2) {
            let r = h.access(PhysAddr::new(i * 64), AccessKind::Write);
            spilled += r.writebacks.len();
        }
        assert!(spilled > 0, "capacity pressure must force dirty writebacks");
        assert_eq!(h.stats().memory_writebacks, spilled as u64);
    }

    #[test]
    fn llc_miss_flag_tracks_llc_only() {
        let mut h = h();
        let pa = PhysAddr::new(0x2000);
        h.access(pa, AccessKind::Read);
        // Evict from L1 by filling its set; L1 is 32KiB/8-way => 64 sets,
        // stride for same set = 64 sets * 64B = 4096.
        for i in 1..=8u64 {
            h.access(PhysAddr::new(0x2000 + i * 4096), AccessKind::Read);
        }
        let r = h.access(pa, AccessKind::Read);
        assert!(!r.llc_miss, "line should still hit in L2/LLC");
    }

    #[test]
    fn invalidate_all_loses_dirty_data() {
        let mut h = h();
        h.access(PhysAddr::new(0x40), AccessKind::Write);
        h.invalidate_all();
        assert!(h.writeback_all().is_empty());
        let r = h.access(PhysAddr::new(0x40), AccessKind::Read);
        assert!(r.needs_fill, "post-crash access must miss");
    }
}
