//! The HSCC migration engine.

use kindle_os::Kernel;
use kindle_types::{Cycles, MemKind, Pfn, PhysMem, Pte, Result, Vpn, CACHE_LINE, LINES_PER_PAGE};

use crate::pool::{DramPool, ListKind, Occupant};
use crate::table::MappingTable;

/// HSCC parameters (paper §III-C).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HsccConfig {
    /// DRAM fetch threshold: NVM pages whose per-interval access count
    /// reaches this value migrate to DRAM (paper sweeps 5, 25, 50).
    pub fetch_threshold: u64,
    /// Migration interval; the paper's 10⁸ cycles ≙ 31.25 ms at 3.2 GHz,
    /// quoted as 31.25 ms in the Kindle prototype.
    pub migration_interval: Cycles,
    /// DRAM pool size in pages (paper: 512).
    pub pool_pages: usize,
}

impl Default for HsccConfig {
    fn default() -> Self {
        HsccConfig {
            fetch_threshold: 25,
            migration_interval: Cycles::from_nanos(31_250_000),
            pool_pages: 512,
        }
    }
}

/// Counters of migration activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HsccStats {
    /// Migration intervals executed.
    pub intervals: u64,
    /// Pages migrated NVM → DRAM.
    pub pages_migrated: u64,
    /// Destination pages taken from the free list.
    pub free_uses: u64,
    /// Destination pages recycled from the clean list (no copy-back).
    pub clean_reuses: u64,
    /// Destination pages recycled from the dirty list (DRAM→NVM copy-back).
    pub copybacks: u64,
    /// Slots recycled mid-interval after all lists drained (treated dirty).
    pub recycled: u64,
    /// Simulated time in destination-page selection.
    pub selection_cycles: Cycles,
    /// Simulated time in page copies (flush + 4 KiB copy + remap).
    pub copy_cycles: Cycles,
    /// Simulated time in the candidate page-table scan and count resets.
    /// The fold of the TLB's live counts into the PTEs is not included:
    /// it happens in the TLB flush before each pass.
    pub scan_cycles: Cycles,
    /// TLB access counters written back to PTEs.
    pub count_writebacks: u64,
}

impl HsccStats {
    /// Total OS migration time.
    pub fn os_cycles(&self) -> Cycles {
        self.selection_cycles + self.copy_cycles + self.scan_cycles
    }

    /// Fraction of OS migration time spent in page selection (Table VI,
    /// computed over selection + copy as in the paper).
    pub fn selection_share(&self) -> f64 {
        let sel = self.selection_cycles.as_u64() as f64;
        let copy = self.copy_cycles.as_u64() as f64;
        if sel + copy == 0.0 {
            0.0
        } else {
            sel / (sel + copy)
        }
    }
}

/// Result of one migration interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Candidate pages over the threshold.
    pub candidates: u64,
    /// Pages actually migrated.
    pub migrated: u64,
    /// Dirty copy-backs performed to make room.
    pub copybacks: u64,
}

/// The HSCC engine. The simulator calls [`HsccEngine::migrate`] from its
/// timer loop and [`HsccEngine::on_tlb_evict`] for every TLB entry it
/// drops. The engine never touches the TLB: the simulator flushes it before
/// each pass, which folds the live access counts into the PTEs and drops
/// every translation the pass may remap.
#[derive(Clone, Debug)]
pub struct HsccEngine {
    cfg: HsccConfig,
    table: MappingTable,
    pool: DramPool,
    next_migration: Cycles,
    recycle_cursor: usize,
    stats: HsccStats,
}

impl HsccEngine {
    /// Builds the engine: allocates the DRAM pool pages and the lookup
    /// table from the kernel's DRAM frame pool.
    ///
    /// # Errors
    ///
    /// Propagates DRAM exhaustion.
    pub fn new(mem: &mut dyn PhysMem, kernel: &mut Kernel, cfg: HsccConfig) -> Result<Self> {
        let nvm_start = kernel.pools.nvm.inner().start();
        let nvm_frames = kernel.pools.nvm.inner().capacity();
        let table = MappingTable::new(
            mem,
            &mut kernel.pools,
            nvm_start,
            nvm_frames,
            cfg.pool_pages as u64,
        )?;
        let mut pages = Vec::with_capacity(cfg.pool_pages);
        for _ in 0..cfg.pool_pages {
            pages.push(kernel.pools.alloc(mem, MemKind::Dram)?);
        }
        Ok(HsccEngine {
            next_migration: cfg.migration_interval,
            cfg,
            table,
            pool: DramPool::new(pages),
            recycle_cursor: 0,
            stats: HsccStats::default(),
        })
    }

    /// Engine configuration.
    pub fn config(&self) -> &HsccConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &HsccStats {
        &self.stats
    }

    /// The DRAM pool (inspection).
    pub fn pool(&self) -> &DramPool {
        &self.pool
    }

    /// The lookup table (inspection).
    pub fn table(&self) -> &MappingTable {
        &self.table
    }

    /// Is a migration interval due?
    pub fn due(&self, now: Cycles) -> bool {
        now >= self.next_migration
    }

    /// Hardware spills a dropped TLB entry's access `count` into the PTE
    /// of `pid`'s page `vpn` (one PTE store).
    pub fn on_tlb_evict(
        &mut self,
        mem: &mut dyn PhysMem,
        kernel: &mut Kernel,
        pid: u32,
        vpn: Vpn,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        let costs = kernel.costs.clone();
        let va = vpn.base();
        if let Ok(proc) = kernel.process_mut(pid) {
            let _ = proc
                .aspace
                .update_leaf(mem, &costs, va, |p| p.with_access_count(p.access_count() + count));
            self.stats.count_writebacks += 1;
        }
    }

    /// Runs one migration interval for `pid`. The caller holds
    /// `LOCK_MIGRATION` and has flushed the TLB, so every live access
    /// count is in a PTE and no remapped page stays cached.
    ///
    /// # Errors
    ///
    /// Propagates page-table errors (which indicate simulation bugs).
    pub fn migrate(
        &mut self,
        mem: &mut dyn PhysMem,
        kernel: &mut Kernel,
        pid: u32,
    ) -> Result<MigrationOutcome> {
        let costs = kernel.costs.clone();
        let mut outcome = MigrationOutcome::default();

        // --- scan phase -------------------------------------------------
        let scan_start = mem.now();
        // 1. Refresh the pool lists (classify occupied slots by PTE dirty
        //    bit — a software walk per slot).
        let occupied: Vec<(usize, Occupant)> = self.pool.occupied().map(|(i, o)| (i, *o)).collect();
        let mut dirtiness = vec![false; self.pool.capacity()];
        {
            let proc = kernel.process(pid)?;
            for (slot, occ) in &occupied {
                let dirty = proc
                    .aspace
                    .translate(mem, occ.vpn.base())
                    .map(|p| p.is_dirty())
                    .unwrap_or(false);
                dirtiness[*slot] = dirty;
            }
        }
        self.pool.refresh(|slot, _| dirtiness[slot]);

        // 2. Software page-table walk collecting candidates.
        let mut candidates: Vec<(Vpn, Pfn, u64)> = Vec::new();
        let threshold = self.cfg.fetch_threshold;
        let nvm_alloc = &kernel.pools.nvm;
        {
            let proc = kernel.process(pid)?;
            proc.aspace.for_each_leaf(mem, |_, vpn, pte: Pte, _| {
                if pte.mem_kind() == MemKind::Nvm
                    && nvm_alloc.inner().contains(pte.pfn())
                    && pte.access_count() >= threshold
                {
                    candidates.push((vpn, pte.pfn(), pte.access_count()));
                }
            });
        }
        outcome.candidates = candidates.len() as u64;
        // Hottest first, so pool pressure drops the coolest candidates.
        candidates.sort_by_key(|&(_, _, c)| std::cmp::Reverse(c));
        self.stats.scan_cycles += mem.now() - scan_start;

        // --- migration phase ---------------------------------------------
        for (vpn, nvm_pfn, _count) in candidates {
            // Page selection.
            let sel_start = mem.now();
            mem.advance(Cycles::new(costs.migration_page_op));
            let (slot, prev, from) = match self.pool.take() {
                Some(t) => t,
                None => {
                    // All lists consumed this interval: recycle round-robin,
                    // treating the victim as dirty.
                    let slot = self.recycle_cursor % self.pool.capacity();
                    self.recycle_cursor += 1;
                    let prev = self.pool.occupant(slot);
                    self.stats.recycled += 1;
                    (slot, prev, ListKind::Dirty)
                }
            };
            let dram_pfn = self.pool.frame(slot);
            if let Some(old) = prev {
                // Evict the previous occupant: restore its PTE to NVM...
                if from == ListKind::Dirty {
                    // ...after copying the modified contents back.
                    for line in 0..LINES_PER_PAGE {
                        mem.clwb(dram_pfn.base() + (line * CACHE_LINE) as u64);
                    }
                    mem.copy_page(dram_pfn.base(), old.nvm.base());
                    self.stats.copybacks += 1;
                    outcome.copybacks += 1;
                } else {
                    self.stats.clean_reuses += 1;
                }
                let proc = kernel.process_mut(old.pid)?;
                let _ = proc.aspace.update_leaf(mem, &costs, old.vpn.base(), |p| {
                    p.with_pfn(old.nvm).without_flags(Pte::DIRTY).with_access_count(0)
                });
                self.table.set(mem, old.nvm, None);
                self.table.clear_reverse(mem, slot as u64);
            } else {
                self.stats.free_uses += 1;
            }
            self.stats.selection_cycles += mem.now() - sel_start;

            // Page copy.
            let copy_start = mem.now();
            // Flush cache lines of the NVM page under migration.
            for line in 0..LINES_PER_PAGE {
                mem.clwb(nvm_pfn.base() + (line * CACHE_LINE) as u64);
            }
            mem.copy_page(nvm_pfn.base(), dram_pfn.base());
            {
                let proc = kernel.process_mut(pid)?;
                proc.aspace.update_leaf(mem, &costs, vpn.base(), |p| {
                    p.with_pfn(dram_pfn).without_flags(Pte::DIRTY).with_access_count(0)
                })?;
            }
            self.table.set(mem, nvm_pfn, Some(dram_pfn));
            self.table.set_reverse(mem, slot as u64, nvm_pfn, vpn);
            self.pool.occupy(slot, Occupant { nvm: nvm_pfn, vpn, pid });
            self.stats.pages_migrated += 1;
            outcome.migrated += 1;
            self.stats.copy_cycles += mem.now() - copy_start;
        }

        // --- reset phase ---------------------------------------------------
        let reset_start = mem.now();
        let mut to_reset: Vec<Vpn> = Vec::new();
        {
            let proc = kernel.process(pid)?;
            proc.aspace.for_each_leaf(mem, |_, vpn, pte: Pte, _| {
                if pte.access_count() != 0 {
                    to_reset.push(vpn);
                }
            });
        }
        {
            let proc = kernel.process_mut(pid)?;
            for vpn in to_reset {
                proc.aspace.update_leaf(mem, &costs, vpn.base(), |p| p.with_access_count(0))?;
            }
        }
        self.stats.scan_cycles += mem.now() - reset_start;

        self.stats.intervals += 1;
        self.next_migration = mem.now() + self.cfg.migration_interval;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_os::KernelConfig;
    use kindle_types::physmem::FlatMem;
    use kindle_types::{MapFlags, Prot, VirtAddr, PAGE_SIZE};

    fn setup(pool_pages: usize, threshold: u64) -> (FlatMem, Kernel, HsccEngine, u32) {
        let mut mem = FlatMem::new(160 << 20);
        let mut kernel = Kernel::new(KernelConfig::for_test(160 << 20), &mut mem).unwrap();
        let pid = kernel.create_process(&mut mem).unwrap();
        let cfg = HsccConfig { fetch_threshold: threshold, pool_pages, ..Default::default() };
        let engine = HsccEngine::new(&mut mem, &mut kernel, cfg).unwrap();
        (mem, kernel, engine, pid)
    }

    /// Maps `n` NVM pages and sets each PTE's access count.
    fn hot_pages(mem: &mut FlatMem, kernel: &mut Kernel, pid: u32, n: u64, count: u64) -> VirtAddr {
        let va = kernel
            .sys_mmap(
                mem,
                pid,
                None,
                n * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let costs = kernel.costs.clone();
        let proc = kernel.process_mut(pid).unwrap();
        for i in 0..n {
            proc.aspace
                .update_leaf(mem, &costs, va + i * PAGE_SIZE as u64, |p| p.with_access_count(count))
                .unwrap();
        }
        va
    }

    #[test]
    fn hot_pages_migrate_to_dram() {
        let (mut mem, mut kernel, mut engine, pid) = setup(8, 5);
        let va = hot_pages(&mut mem, &mut kernel, pid, 4, 10);
        let before = kernel.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        assert!(kernel.pools.nvm.inner().contains(before));

        let out = engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        assert_eq!(out.candidates, 4);
        assert_eq!(out.migrated, 4);
        assert_eq!(engine.stats().free_uses, 4);

        let after = kernel.translate(&mut mem, pid, va).unwrap().unwrap();
        assert!(kernel.pools.dram.contains(after.pfn()), "PTE now points to DRAM");
        assert_eq!(after.access_count(), 0, "count reset after migration");
        assert_eq!(engine.table().lookup(&mut mem, before), Some(after.pfn()));
        // Data travelled with the page.
        assert_eq!(engine.stats().pages_migrated, 4);
    }

    #[test]
    fn cold_pages_stay_in_nvm() {
        let (mut mem, mut kernel, mut engine, pid) = setup(8, 25);
        let va = hot_pages(&mut mem, &mut kernel, pid, 4, 10); // below threshold
        let out = engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        assert_eq!(out.candidates, 0);
        assert_eq!(out.migrated, 0);
        let pte = kernel.translate(&mut mem, pid, va).unwrap().unwrap();
        assert!(kernel.pools.nvm.inner().contains(pte.pfn()));
        assert_eq!(pte.access_count(), 0, "counts reset even without migration");
    }

    #[test]
    fn pool_pressure_forces_copybacks() {
        let (mut mem, mut kernel, mut engine, pid) = setup(2, 5);
        let va = hot_pages(&mut mem, &mut kernel, pid, 2, 10);
        engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        assert_eq!(engine.stats().pages_migrated, 2);

        // Dirty the two cached pages (set PTE dirty bits as the walker
        // would on write), then make two new pages hot.
        let costs = kernel.costs.clone();
        {
            let proc = kernel.process_mut(pid).unwrap();
            for i in 0..2u64 {
                proc.aspace
                    .update_leaf(&mut mem, &costs, va + i * PAGE_SIZE as u64, |p| {
                        p.with_flags(Pte::DIRTY)
                    })
                    .unwrap();
            }
        }
        hot_pages(&mut mem, &mut kernel, pid, 2, 10);
        let out = engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        assert_eq!(out.migrated, 2);
        assert_eq!(out.copybacks, 2, "dirty occupants must be copied back");
        // The evicted pages' PTEs point at NVM again.
        let pte = kernel.translate(&mut mem, pid, va).unwrap().unwrap();
        assert!(kernel.pools.nvm.inner().contains(pte.pfn()));
        assert!(engine.stats().selection_cycles > Cycles::ZERO);
        assert!(engine.stats().copy_cycles > engine.stats().selection_cycles);
    }

    #[test]
    fn clean_occupants_reused_without_copyback() {
        let (mut mem, mut kernel, mut engine, pid) = setup(2, 5);
        hot_pages(&mut mem, &mut kernel, pid, 2, 10);
        engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        // Do not dirty the cached pages; hot two more.
        hot_pages(&mut mem, &mut kernel, pid, 2, 10);
        let out = engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        assert_eq!(out.migrated, 2);
        assert_eq!(out.copybacks, 0);
        assert_eq!(engine.stats().clean_reuses, 2);
    }

    #[test]
    fn tlb_evict_adds_count_to_pte() {
        let (mut mem, mut kernel, mut engine, pid) = setup(4, 100);
        let va = hot_pages(&mut mem, &mut kernel, pid, 1, 3);
        let vpn = va.page_number();
        engine.on_tlb_evict(&mut mem, &mut kernel, pid, vpn, 7);
        assert_eq!(engine.stats().count_writebacks, 1);
        let pte = kernel.translate(&mut mem, pid, va).unwrap().unwrap();
        assert_eq!(pte.access_count(), 10, "the dropped count adds to the PTE's");
        // A zero count and an unknown process store nothing.
        engine.on_tlb_evict(&mut mem, &mut kernel, pid, vpn, 0);
        engine.on_tlb_evict(&mut mem, &mut kernel, pid + 1, vpn, 5);
        assert_eq!(engine.stats().count_writebacks, 1);
        assert_eq!(kernel.translate(&mut mem, pid, va).unwrap().unwrap().access_count(), 10);
    }

    #[test]
    fn migration_moves_page_contents() {
        let (mut mem, mut kernel, mut engine, pid) = setup(4, 5);
        let va = hot_pages(&mut mem, &mut kernel, pid, 1, 10);
        let nvm_pfn = kernel.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        mem.write_bytes(nvm_pfn.base() + 100, b"hot data!");
        engine.migrate(&mut mem, &mut kernel, pid).unwrap();
        let dram_pfn = kernel.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        let mut buf = [0u8; 9];
        mem.read_bytes(dram_pfn.base() + 100, &mut buf);
        assert_eq!(&buf, b"hot data!");
    }
}
