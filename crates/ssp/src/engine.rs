//! The SSP engine: FASE state, interval commits, consolidation thread.

use std::collections::BTreeSet;

use kindle_os::{FramePools, KernelCosts, NvmLayout};
use kindle_tlb::{SspTlbExt, TlbEntry, TwoLevelTlb};
use kindle_types::{
    Cycles, MemKind, Pfn, PhysAddr, PhysMem, Result, Vpn, CACHE_LINE, LINES_PER_PAGE,
};

use crate::cache::SspCache;

/// SSP engine parameters (paper §III-B).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SspConfig {
    /// Consistency interval (paper sweeps 1, 5, 10 ms).
    pub consistency_interval: Cycles,
    /// Consolidation-thread period (paper fixes 1 ms).
    pub consolidation_interval: Cycles,
}

impl Default for SspConfig {
    fn default() -> Self {
        SspConfig {
            consistency_interval: Cycles::from_millis(5),
            consolidation_interval: Cycles::from_millis(1),
        }
    }
}

/// SSP activity counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SspStats {
    /// Pages registered (original+shadow pairs created).
    pub pages_registered: u64,
    /// Consistency intervals committed.
    pub intervals: u64,
    /// TLB bitmap write-outs to the metadata cache.
    pub bitmap_writeouts: u64,
    /// Data lines flushed with `clwb` at interval ends.
    pub data_lines_flushed: u64,
    /// Consolidation-thread invocations.
    pub consolidations: u64,
    /// Metadata entries inspected at interval ends.
    pub metadata_inspections: u64,
    /// Pages merged by the consolidation thread.
    pub pages_consolidated: u64,
    /// Cache lines copied during consolidation.
    pub lines_merged: u64,
    /// TLB evictions that spilled bitmaps to the metadata cache.
    pub tlb_evictions: u64,
}

/// The SSP engine. The simulator calls into it from the access path (write
/// routing bookkeeping, TLB-eviction spills) and from the timer loop
/// (interval ends, consolidation-thread wakeups).
#[derive(Clone, Debug)]
pub struct SspEngine {
    cfg: SspConfig,
    cache: SspCache,
    /// Next consistency-interval deadline.
    next_interval: Cycles,
    /// Next consolidation-thread wakeup.
    next_consolidation: Cycles,
    /// Inside a failure-atomic section?
    in_fase: bool,
    /// NVM data lines written during the open interval (need clwb).
    written_lines: BTreeSet<u64>,
    /// Entries flagged by TLB eviction, queued for consolidation (the
    /// hardware keeps this list so the thread need not scan the whole
    /// metadata cache every wakeup).
    pending_consolidation: BTreeSet<u64>,
    stats: SspStats,
}

impl SspEngine {
    /// Creates the engine over the kernel's reserved SSP region.
    pub fn new(layout: &NvmLayout, cfg: SspConfig) -> Self {
        SspEngine {
            next_interval: cfg.consistency_interval,
            next_consolidation: cfg.consolidation_interval,
            cache: SspCache::new(layout.ssp_cache),
            cfg,
            in_fase: false,
            written_lines: BTreeSet::new(),
            pending_consolidation: BTreeSet::new(),
            stats: SspStats::default(),
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> &SspConfig {
        &self.cfg
    }

    /// The metadata cache.
    pub fn cache(&self) -> &SspCache {
        &self.cache
    }

    /// Counters.
    pub fn stats(&self) -> &SspStats {
        &self.stats
    }

    /// `checkpoint_start`: enables the custom hardware paths.
    pub fn fase_begin(&mut self, now: Cycles) {
        self.in_fase = true;
        self.next_interval = now + self.cfg.consistency_interval;
        self.next_consolidation = now + self.cfg.consolidation_interval;
    }

    /// `checkpoint_end`: closes the FASE (the caller should run one final
    /// [`SspEngine::end_interval`] first).
    pub fn fase_end(&mut self) {
        self.in_fase = false;
    }

    /// Inside a FASE?
    pub fn in_fase(&self) -> bool {
        self.in_fase
    }

    /// Registers an NVM page on first touch inside a FASE: allocates the
    /// supplementary physical page and the metadata entry. Returns the TLB
    /// extension to install.
    ///
    /// # Errors
    ///
    /// Propagates NVM pool exhaustion and metadata-region overflow.
    pub fn register_page(
        &mut self,
        mem: &mut dyn PhysMem,
        pools: &mut FramePools,
        vpn: Vpn,
        orig: Pfn,
    ) -> Result<SspTlbExt> {
        if let Some(idx) = self.cache.lookup(vpn) {
            let e = self.cache.read(mem, idx);
            return Ok(SspTlbExt { shadow_pfn: e.shadow, updated: e.updated, current: e.current });
        }
        let shadow = pools.alloc(mem, MemKind::Nvm)?;
        self.cache.register(mem, vpn, orig, shadow)?;
        self.stats.pages_registered += 1;
        Ok(SspTlbExt { shadow_pfn: shadow, updated: 0, current: 0 })
    }

    /// Records that a routed NVM write dirtied `line_pa` (flushed at the
    /// interval end).
    pub fn on_write(&mut self, line_pa: PhysAddr) {
        self.written_lines.insert(line_pa.line_base().as_u64());
    }

    /// Handles a TLB eviction of an SSP-extended entry: the hardware issues
    /// a memory request writing the bitmaps to the metadata cache and flags
    /// the entry for consolidation.
    pub fn on_tlb_evict(&mut self, mem: &mut dyn PhysMem, entry: &TlbEntry) {
        let Some(ext) = entry.ssp else { return };
        let Some(idx) = self.cache.lookup(entry.vpn) else { return };
        let mut e = self.cache.read(mem, idx);
        e.current = ext.current;
        e.updated = ext.updated;
        e.evicted = true;
        self.cache.write(mem, idx, &e);
        self.pending_consolidation.insert(idx);
        self.stats.tlb_evictions += 1;
    }

    /// Is an interval end due?
    pub fn interval_due(&self, now: Cycles) -> bool {
        self.in_fase && now >= self.next_interval
    }

    /// Is a consolidation-thread wakeup due?
    pub fn consolidation_due(&self, now: Cycles) -> bool {
        self.in_fase && now >= self.next_consolidation
    }

    /// Ends the current consistency interval:
    ///
    /// 1. every SSP-extended TLB entry's `updated` bitmap is sent to the
    ///    metadata cache (a memory request per entry) and committed
    ///    (`current ^= updated`);
    /// 2. all data lines written during the interval are `clwb`-ed;
    /// 3. a fence orders everything.
    ///
    /// Returns the set of data lines that were flushed so the caller can
    /// drive its cache hierarchy / durability image.
    pub fn end_interval(
        &mut self,
        mem: &mut dyn PhysMem,
        tlb: &mut TwoLevelTlb,
        costs: &KernelCosts,
    ) -> Vec<PhysAddr> {
        mem.advance(Cycles::new(costs.kthread_switch));
        // 1. The kernel instructs the translation hardware, entry by entry,
        //    to send the modified bitmaps in the TLBs to the metadata
        //    region: a per-entry kernel/hardware handshake (MSR pokes plus
        //    the posted memory request) followed by a metadata inspection
        //    and clwb. This per-interval-end pass over the TLB is the
        //    interval-frequency-dependent cost behind Fig. 5.
        for entry in tlb.iter_mut() {
            let Some(ext) = entry.ssp.as_mut() else { continue };
            let Some(idx) = self.cache.lookup(entry.vpn) else { continue };
            let pa = self.cache.entry_pa(idx);
            mem.advance(Cycles::new(costs.ssp_inspect_op));
            mem.read_u64(pa + 24);
            self.stats.metadata_inspections += 1;
            if ext.updated != 0 {
                ext.commit();
                mem.write_u64(pa + 24, ext.current);
                mem.write_u64(pa + 32, 0);
                self.stats.bitmap_writeouts += 1;
            }
            mem.clwb(pa);
        }
        // 2. clwb every data line written this interval.
        let mut flushed: Vec<PhysAddr> = Vec::with_capacity(self.written_lines.len());
        for &line in &self.written_lines {
            let pa = PhysAddr::new(line);
            mem.clwb(pa);
            flushed.push(pa);
        }
        self.stats.data_lines_flushed += flushed.len() as u64;
        self.written_lines.clear();
        // 3. Order everything.
        mem.sfence();
        self.stats.intervals += 1;
        self.next_interval = mem.now() + self.cfg.consistency_interval;
        flushed
    }

    /// One consolidation-thread pass: merges the page pairs of entries
    /// flagged evicted by copying committed shadow lines back to the
    /// original page and clearing `current`.
    pub fn consolidate(&mut self, mem: &mut dyn PhysMem, costs: &KernelCosts) {
        mem.advance(Cycles::new(costs.kthread_switch));
        self.stats.consolidations += 1;
        let pending: Vec<u64> =
            std::mem::take(&mut self.pending_consolidation).into_iter().collect();
        for idx in pending {
            let mut e = self.cache.read(mem, idx);
            let mut merged_lines = 0u64;
            for line in 0..LINES_PER_PAGE {
                if e.current >> line & 1 == 1 {
                    let off = (line * CACHE_LINE) as u64;
                    let mut buf = [0u8; CACHE_LINE];
                    mem.read_bytes(e.shadow.base() + off, &mut buf);
                    mem.write_bytes(e.orig.base() + off, &buf);
                    mem.clwb(e.orig.base() + off);
                    merged_lines += 1;
                }
            }
            e.current = 0;
            e.evicted = false;
            self.cache.write(mem, idx, &e);
            self.stats.pages_consolidated += 1;
            self.stats.lines_merged += merged_lines;
        }
        self.next_consolidation = mem.now() + self.cfg.consolidation_interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_mem::E820Map;
    use kindle_os::{FrameAllocator, PersistentFrameAllocator};
    use kindle_tlb::TwoLevelTlbConfig;
    use kindle_types::physmem::FlatMem;
    use kindle_types::MemKind;

    fn setup() -> (FlatMem, FramePools, SspEngine, TwoLevelTlb) {
        let mem = FlatMem::new(128 << 20);
        let map = E820Map::flat(64 << 20, 64 << 20);
        let layout = NvmLayout::from_map(&map);
        let pools = FramePools {
            dram: FrameAllocator::new("dram", Pfn::new(16), 1024),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new(
                    "nvm",
                    layout.general.base.page_number(),
                    layout.general.frames(),
                ),
                layout.alloc_bitmap,
            ),
        };
        let engine = SspEngine::new(&layout, SspConfig::default());
        let tlb = TwoLevelTlb::new(&TwoLevelTlbConfig::default());
        (mem, pools, engine, tlb)
    }

    #[test]
    fn register_allocates_shadow_once() {
        let (mut mem, mut pools, mut engine, _tlb) = setup();
        let orig = pools.alloc(&mut mem, MemKind::Nvm).unwrap();
        let used = pools.nvm.used();
        let ext = engine.register_page(&mut mem, &mut pools, Vpn::new(0x40), orig).unwrap();
        assert_eq!(pools.nvm.used(), used + 1);
        assert_ne!(ext.shadow_pfn, orig);
        // Second registration reuses the entry.
        let ext2 = engine.register_page(&mut mem, &mut pools, Vpn::new(0x40), orig).unwrap();
        assert_eq!(ext2.shadow_pfn, ext.shadow_pfn);
        assert_eq!(pools.nvm.used(), used + 1);
        assert_eq!(engine.stats().pages_registered, 1);
    }

    #[test]
    fn interval_commits_tlb_bitmaps() {
        let (mut mem, mut pools, mut engine, mut tlb) = setup();
        engine.fase_begin(Cycles::ZERO);
        let vpn = Vpn::new(0x40);
        let orig = pools.alloc(&mut mem, MemKind::Nvm).unwrap();
        let ext = engine.register_page(&mut mem, &mut pools, vpn, orig).unwrap();
        let mut entry = TlbEntry::new(vpn, orig, true, MemKind::Nvm);
        entry.ssp = Some(ext);
        tlb.install(entry);

        // Simulate writes to lines 2 and 7.
        {
            let (_, hit, _) = tlb.lookup(vpn);
            let e = hit.unwrap();
            let x = e.ssp.as_mut().unwrap();
            x.updated |= (1 << 2) | (1 << 7);
        }
        engine.on_write(orig.base() + 2 * 64);
        engine.on_write(orig.base() + 7 * 64);

        let flushed = engine.end_interval(&mut mem, &mut tlb, &KernelCosts::for_test());
        assert_eq!(flushed.len(), 2);
        assert_eq!(engine.stats().bitmap_writeouts, 1);
        assert_eq!(engine.stats().intervals, 1);

        // TLB ext committed.
        let (_, hit, _) = tlb.lookup(vpn);
        let x = hit.unwrap().ssp.unwrap();
        assert_eq!(x.updated, 0);
        assert_eq!(x.current, (1 << 2) | (1 << 7));
        // Metadata mirrors the commit.
        let idx = engine.cache().lookup(vpn).unwrap();
        let e = engine.cache().read(&mut mem, idx);
        assert_eq!(e.current, (1 << 2) | (1 << 7));
        assert_eq!(e.updated, 0);
    }

    #[test]
    fn eviction_then_consolidation_merges_lines() {
        let (mut mem, mut pools, mut engine, _tlb) = setup();
        engine.fase_begin(Cycles::ZERO);
        let vpn = Vpn::new(0x80);
        let orig = pools.alloc(&mut mem, MemKind::Nvm).unwrap();
        let ext = engine.register_page(&mut mem, &mut pools, vpn, orig).unwrap();
        let shadow = ext.shadow_pfn;

        // Committed data for line 3 lives on the shadow page.
        mem.write_bytes(shadow.base() + 3 * 64, &[0xaa; 64]);
        let mut entry = TlbEntry::new(vpn, orig, true, MemKind::Nvm);
        entry.ssp = Some(SspTlbExt { shadow_pfn: shadow, updated: 0, current: 1 << 3 });
        engine.on_tlb_evict(&mut mem, &entry);
        assert_eq!(engine.stats().tlb_evictions, 1);

        engine.consolidate(&mut mem, &KernelCosts::for_test());
        assert_eq!(engine.stats().pages_consolidated, 1);
        assert_eq!(engine.stats().lines_merged, 1);

        // Line 3 now lives on the original page; current cleared.
        let mut buf = [0u8; 64];
        mem.read_bytes(orig.base() + 3 * 64, &mut buf);
        assert_eq!(buf, [0xaa; 64]);
        let idx = engine.cache().lookup(vpn).unwrap();
        let e = engine.cache().read(&mut mem, idx);
        assert_eq!(e.current, 0);
        assert!(!e.evicted);
    }

    #[test]
    fn timers_respect_fase() {
        let (_mem, _pools, mut engine, _tlb) = setup();
        assert!(!engine.interval_due(Cycles::from_secs(10)), "no FASE, no intervals");
        engine.fase_begin(Cycles::ZERO);
        assert!(!engine.interval_due(Cycles::from_millis(4)));
        assert!(engine.interval_due(Cycles::from_millis(5)));
        assert!(engine.consolidation_due(Cycles::from_millis(1)));
        engine.fase_end();
        assert!(!engine.interval_due(Cycles::from_secs(10)));
    }
}
