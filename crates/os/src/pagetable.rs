//! 4-level page tables stored in simulated physical memory.
//!
//! The paper's §III-A compares two ways of keeping translation information
//! consistent across crashes:
//!
//! * **Rebuild** ([`PtMode::Rebuild`]): tables live in DRAM and are written
//!   with plain stores; after a crash they are reconstructed from the
//!   virtual→NVM-frame mapping list in the saved state.
//! * **Persistent** ([`PtMode::Persistent`]): tables live in NVM and every
//!   PTE store is wrapped in an NVM consistency mechanism (log append +
//!   `clwb` + fence on both log and entry), so after a crash it suffices to
//!   restore the PTBR.
//!
//! Both cost structures fall out of this module: table frames come from the
//! corresponding pool, and all traffic flows through `PhysMem`.

use std::collections::BTreeMap;

use kindle_types::pte::pte_addr;
use kindle_types::sanitize::{self, Event};
use kindle_types::{
    KindleError, MemKind, Pfn, PhysAddr, PhysMem, Pte, Result, VirtAddr, Vpn, PAGE_SHIFT,
};

use crate::costs::KernelCosts;
use crate::frame::FramePools;
use crate::layout::Region;

/// Page-table maintenance scheme (paper §III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PtMode {
    /// DRAM-hosted tables, plain stores, rebuilt after crash.
    Rebuild,
    /// NVM-hosted tables, consistency-wrapped stores, PTBR-restore recovery.
    Persistent,
}

impl PtMode {
    /// Pool that table frames are allocated from.
    pub fn table_pool(self) -> MemKind {
        match self {
            PtMode::Rebuild => MemKind::Dram,
            PtMode::Persistent => MemKind::Nvm,
        }
    }
}

/// A process address space: the root table plus bookkeeping.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    root: Pfn,
    mode: PtMode,
    /// Every table frame ever allocated (root first), for teardown.
    table_frames: Vec<Pfn>,
    /// PTE-store consistency log ring (persistent mode only).
    log: Option<PteLog>,
    /// Leaf mappings currently present.
    mapped_pages: u64,
    /// Consistency-wrapped PTE stores performed.
    pub wrapped_stores: u64,
    /// Host-side mirror of present-entry counts per table frame, used to
    /// reclaim empty tables on unmap.
    entry_counts: BTreeMap<u64, u32>,
    /// Reclamation is disabled for adopted (recovered) NVM tables whose
    /// counts are unknown.
    reclaim: bool,
    /// Shadow of each table frame's *intended* 512 entries, keyed by frame
    /// number and maintained by every [`write_pte`](Self::write_pte). This
    /// is the kernel-metadata ground truth scrubd verifies NVM table frames
    /// against — media corruption (stuck cells) changes the stored bits but
    /// never the shadow — and the source for content-preserving frame
    /// retirement. Empty for adopted tables until
    /// [`rehydrate_tables`](Self::rehydrate_tables) runs.
    shadow: BTreeMap<u64, Box<[u64; 512]>>,
}

#[derive(Clone, Debug)]
struct PteLog {
    region: Region,
    cursor: u64,
}

impl PteLog {
    /// Appends one (address, value) record and makes it durable.
    fn append(&mut self, mem: &mut dyn PhysMem, pa: PhysAddr, value: u64) {
        let slot = self.region.base + self.cursor;
        mem.write_u64(slot, pa.as_u64());
        mem.write_u64(slot + 8, value);
        mem.clwb(slot);
        mem.sfence();
        self.cursor = (self.cursor + 16) % self.region.size;
    }
}

impl AddressSpace {
    /// Allocates a zeroed root table from the pool dictated by `mode`.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(
        mem: &mut dyn PhysMem,
        pools: &mut FramePools,
        mode: PtMode,
        pt_log: Region,
    ) -> Result<Self> {
        let root = pools.alloc(mem, mode.table_pool())?;
        mem.zero_page(root.base());
        let log = match mode {
            PtMode::Rebuild => None,
            PtMode::Persistent => Some(PteLog { region: pt_log, cursor: 0 }),
        };
        Ok(AddressSpace {
            root,
            mode,
            table_frames: vec![root],
            log,
            mapped_pages: 0,
            wrapped_stores: 0,
            entry_counts: BTreeMap::new(),
            reclaim: true,
            shadow: BTreeMap::from([(root.as_u64(), Box::new([0u64; 512]))]),
        })
    }

    /// Adopts an existing NVM-resident table after crash recovery
    /// (persistent scheme: "just restore the PTBR").
    pub fn adopt_persistent(root: Pfn, pt_log: Region, mapped_pages: u64) -> Self {
        AddressSpace {
            root,
            mode: PtMode::Persistent,
            table_frames: vec![root],
            log: Some(PteLog { region: pt_log, cursor: 0 }),
            mapped_pages,
            wrapped_stores: 0,
            entry_counts: BTreeMap::new(),
            reclaim: false,
            shadow: BTreeMap::new(),
        }
    }

    /// Re-learns the adopted tables by walking them in memory: fills
    /// `table_frames` with every reachable table and rebuilds the shadow
    /// from the stored entries. Charges every table-entry read. Only
    /// machines running scrubd call this (after recovery) — the plain
    /// persistent scheme's "just restore the PTBR" stays as cheap as ever.
    ///
    /// The rebuilt shadow trusts the bits currently on media, so corruption
    /// that happened *before* rehydration is adopted as ground truth;
    /// scrubd guards the frames from that point on.
    pub fn rehydrate_tables(&mut self, mem: &mut dyn PhysMem) {
        if !self.shadow.is_empty() {
            return;
        }
        let mut frames = vec![self.root];
        let mut i = 0;
        // The root sits at depth 0; entries of depth-3 tables are leaves.
        let mut depth = BTreeMap::from([(self.root.as_u64(), 0u8)]);
        while i < frames.len() {
            let frame = frames[i];
            i += 1;
            let d = depth.get(&frame.as_u64()).copied().unwrap_or(3);
            let mut words = Box::new([0u64; 512]);
            for (idx, word) in words.iter_mut().enumerate() {
                let bits = mem.read_u64(frame.base() + idx as u64 * 8);
                *word = bits;
                let pte = Pte::from_bits(bits);
                if d < 3 && pte.is_present() && !depth.contains_key(&pte.pfn().as_u64()) {
                    // The depth map doubles as the visited set, so a
                    // corrupted entry cannot send the walk in circles.
                    depth.insert(pte.pfn().as_u64(), d + 1);
                    frames.push(pte.pfn());
                }
            }
            self.shadow.insert(frame.as_u64(), words);
        }
        self.table_frames = frames;
    }

    /// Root table frame (the PTBR value).
    pub fn root(&self) -> Pfn {
        self.root
    }

    /// Maintenance scheme.
    pub fn mode(&self) -> PtMode {
        self.mode
    }

    /// Leaf mappings currently present.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Table frames allocated so far (root + intermediates).
    pub fn table_frame_count(&self) -> usize {
        self.table_frames.len()
    }

    /// The table frames themselves (root first), for scrub passes.
    pub fn table_frames(&self) -> &[Pfn] {
        &self.table_frames
    }

    /// The intended 512 entries of table frame `frame`, if it belongs to
    /// this space and its shadow is known.
    pub fn expected_table_words(&self, frame: Pfn) -> Option<&[u64; 512]> {
        self.shadow.get(&frame.as_u64()).map(|b| &**b)
    }

    /// True when `frame` is one of this space's table frames.
    pub fn owns_table_frame(&self, frame: Pfn) -> bool {
        self.table_frames.contains(&frame)
    }

    /// Moves the table held in `old` into the freshly allocated frame `new`,
    /// preserving content: every intended entry is rewritten into `new`
    /// under the scheme's write discipline, and the parent entry (or the
    /// PTBR, when `old` is the root) is repointed. The caller allocates
    /// `new` and retires `old` afterwards; leaf mappings are untouched, so
    /// no process-visible translation changes.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` when `old`'s shadow is unknown (an adopted table
    /// that was never rehydrated); `Corrupted` when no parent entry points
    /// at `old`.
    pub fn relocate_table_frame(
        &mut self,
        mem: &mut dyn PhysMem,
        costs: &KernelCosts,
        old: Pfn,
        new: Pfn,
    ) -> Result<()> {
        let words = self
            .shadow
            .remove(&old.as_u64())
            .ok_or(KindleError::InvalidArgument("no shadow for retired table frame"))?;
        mem.zero_page(new.base());
        self.shadow.insert(new.as_u64(), Box::new([0u64; 512]));
        for (idx, &bits) in words.iter().enumerate() {
            if bits != 0 {
                self.write_pte(mem, costs, new.base() + idx as u64 * 8, Pte::from_bits(bits));
            }
        }
        if let Some(pos) = self.table_frames.iter().position(|&f| f == old) {
            self.table_frames[pos] = new;
        }
        if let Some(count) = self.entry_counts.remove(&old.as_u64()) {
            self.entry_counts.insert(new.as_u64(), count);
        }
        if self.root == old {
            self.root = new;
            return Ok(());
        }
        // Table frames have exactly one parent entry; find it through the
        // shadow (data-frame PTEs cannot collide with a live table frame).
        let parent = self.shadow.iter().find_map(|(&frame, page)| {
            page.iter()
                .position(|&b| {
                    let p = Pte::from_bits(b);
                    p.is_present() && p.pfn() == old
                })
                .map(|idx| (frame, idx))
        });
        let Some((parent_frame, idx)) = parent else {
            return Err(KindleError::Corrupted("retired table frame has no parent entry"));
        };
        let parent_pa = Pfn::new(parent_frame).base() + idx as u64 * 8;
        let parent_pte = Pte::from_bits(self.shadow[&parent_frame][idx]);
        self.write_pte(mem, costs, parent_pa, parent_pte.with_pfn(new));
        Ok(())
    }

    /// Rewrites the eight entries of cache line `line_idx` (0..64) of table
    /// frame `frame` from the shadow, through the scheme's write discipline
    /// — scrubd's in-place repair of a corrupted line. The stores route
    /// through the media correction layer, so the line comes back verified
    /// only if correction entries covered every stuck cell.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` when the frame's shadow is unknown.
    pub fn rewrite_table_line(
        &mut self,
        mem: &mut dyn PhysMem,
        costs: &KernelCosts,
        frame: Pfn,
        line_idx: usize,
    ) -> Result<()> {
        let base = line_idx * 8;
        let words: [u64; 8] = {
            let page = self
                .shadow
                .get(&frame.as_u64())
                .ok_or(KindleError::InvalidArgument("no shadow for scrubbed table frame"))?;
            let mut w = [0u64; 8];
            w.copy_from_slice(&page[base..base + 8]);
            w
        };
        for (j, &bits) in words.iter().enumerate() {
            self.write_pte(
                mem,
                costs,
                frame.base() + ((base + j) * 8) as u64,
                Pte::from_bits(bits),
            );
        }
        Ok(())
    }

    /// Records the intended value of the table entry at `pa` in the shadow.
    fn shadow_store(&mut self, pa: PhysAddr, bits: u64) {
        let frame = pa.as_u64() >> PAGE_SHIFT;
        let slot = ((pa.as_u64() >> 3) & 511) as usize;
        let words = self.shadow.entry(frame).or_insert_with(|| Box::new([0u64; 512]));
        words[slot] = bits;
    }

    /// Stores a PTE with the scheme's write discipline.
    fn write_pte(&mut self, mem: &mut dyn PhysMem, costs: &KernelCosts, pa: PhysAddr, pte: Pte) {
        self.shadow_store(pa, pte.bits());
        match self.mode {
            PtMode::Rebuild => {
                mem.write_u64(pa, pte.bits());
            }
            PtMode::Persistent => {
                mem.advance(kindle_types::Cycles::new(costs.pt_consistency_op));
                self.wrapped_stores += 1;
                if let Some(log) = self.log.as_mut() {
                    log.append(mem, pa, pte.bits());
                }
                mem.write_u64(pa, pte.bits());
                mem.clwb(pa);
                mem.sfence();
            }
        }
    }

    /// Stores a *leaf* PTE. This is the designated NVM-mutating primitive
    /// for mapping changes: the static pass (KD009) requires every call to
    /// be covered by a `PteInstall`/`PteClear` sanitize event in the same
    /// function. Intermediate-table entries go through [`Self::write_pte`]
    /// directly — they carry no per-entry events.
    fn store_leaf(&mut self, mem: &mut dyn PhysMem, costs: &KernelCosts, pa: PhysAddr, pte: Pte) {
        self.write_pte(mem, costs, pa, pte);
    }

    /// Maps `va → pfn` with `extra_flags` OR-ed into the leaf PTE, creating
    /// intermediate tables on demand.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion; returns `InvalidArgument` if the page is
    /// already mapped.
    pub fn map(
        &mut self,
        mem: &mut dyn PhysMem,
        pools: &mut FramePools,
        costs: &KernelCosts,
        va: VirtAddr,
        pfn: Pfn,
        extra_flags: u64,
    ) -> Result<()> {
        let mut table = self.root;
        for level in (2..=4u8).rev() {
            mem.advance(kindle_types::Cycles::new(costs.pte_op));
            let pa = pte_addr(table, va, level);
            let pte = Pte::from_bits(mem.read_u64(pa));
            if pte.is_present() {
                table = pte.pfn();
            } else {
                let frame = pools.alloc(mem, self.mode.table_pool())?;
                mem.zero_page(frame.base());
                self.shadow.insert(frame.as_u64(), Box::new([0u64; 512]));
                if self.mode == PtMode::Persistent {
                    // Initialising a table page *is* a page-table
                    // modification: every line of it is zeroed under the
                    // NVM consistency discipline (logged + flushed), so
                    // creating levels at sparse strides is expensive.
                    for line in 0..kindle_types::LINES_PER_PAGE as u64 {
                        self.write_pte(mem, costs, frame.base() + line * 64, Pte::EMPTY);
                    }
                }
                self.table_frames.push(frame);
                let table_flags = Pte::WRITABLE | Pte::USER;
                self.write_pte(mem, costs, pa, Pte::new(frame, table_flags));
                *self.entry_counts.entry(table.as_u64()).or_insert(0) += 1;
                table = frame;
            }
        }
        mem.advance(kindle_types::Cycles::new(costs.pte_op));
        let leaf_pa = pte_addr(table, va, 1);
        let existing = Pte::from_bits(mem.read_u64(leaf_pa));
        if existing.is_present() {
            return Err(KindleError::InvalidArgument("page already mapped"));
        }
        self.store_leaf(mem, costs, leaf_pa, Pte::new(pfn, Pte::USER | extra_flags));
        sanitize::emit(|| Event::PteInstall { pfn: pfn.as_u64(), vpn: va.page_number().as_u64() });
        *self.entry_counts.entry(table.as_u64()).or_insert(0) += 1;
        self.mapped_pages += 1;
        Ok(())
    }

    /// Unmaps `va`, returning the leaf PTE that was present. Intermediate
    /// tables left empty are reclaimed (their parent entries cleared with
    /// the scheme's write discipline), so re-mapping at sparse strides pays
    /// the full table-creation cost again — the effect the paper's stride
    /// experiment measures.
    ///
    /// # Errors
    ///
    /// [`KindleError::Unmapped`] if no mapping exists.
    pub fn unmap(
        &mut self,
        mem: &mut dyn PhysMem,
        pools: &mut FramePools,
        costs: &KernelCosts,
        va: VirtAddr,
    ) -> Result<Pte> {
        // path[i] = (table frame, pte address within it) from level 4 down.
        let mut path: [(Pfn, PhysAddr); 4] = [(self.root, PhysAddr::new(0)); 4];
        let mut table = self.root;
        for level in (2..=4u8).rev() {
            mem.advance(kindle_types::Cycles::new(costs.pte_op));
            let pa = pte_addr(table, va, level);
            path[(4 - level) as usize] = (table, pa);
            let pte = Pte::from_bits(mem.read_u64(pa));
            if !pte.is_present() {
                return Err(KindleError::Unmapped(va));
            }
            table = pte.pfn();
        }
        mem.advance(kindle_types::Cycles::new(costs.pte_op));
        let leaf_pa = pte_addr(table, va, 1);
        path[3] = (table, leaf_pa);
        let pte = Pte::from_bits(mem.read_u64(leaf_pa));
        if !pte.is_present() {
            return Err(KindleError::Unmapped(va));
        }
        self.store_leaf(mem, costs, leaf_pa, Pte::EMPTY);
        sanitize::emit(|| Event::PteClear {
            pfn: pte.pfn().as_u64(),
            vpn: va.page_number().as_u64(),
        });
        self.mapped_pages -= 1;

        if self.reclaim {
            // Walk back up, freeing tables that became empty.
            let mut child = table;
            for i in (0..3).rev() {
                let count = self.entry_counts.entry(child.as_u64()).or_insert(1);
                *count -= 1;
                if *count > 0 {
                    break;
                }
                self.entry_counts.remove(&child.as_u64());
                let (parent, parent_pa) = path[i];
                self.write_pte(mem, costs, parent_pa, Pte::EMPTY);
                self.shadow.remove(&child.as_u64());
                if let Some(pos) = self.table_frames.iter().position(|&f| f == child) {
                    self.table_frames.swap_remove(pos);
                }
                pools.free(mem, child);
                mem.advance(kindle_types::Cycles::new(costs.frame_op));
                child = parent;
            }
        }
        Ok(pte)
    }

    /// Software walk (no accessed/dirty updates), charging the PTE reads.
    pub fn translate(&self, mem: &mut dyn PhysMem, va: VirtAddr) -> Option<Pte> {
        let mut table = self.root;
        for level in (2..=4u8).rev() {
            let pte = Pte::from_bits(mem.read_u64(pte_addr(table, va, level)));
            if !pte.is_present() {
                return None;
            }
            table = pte.pfn();
        }
        let pte = Pte::from_bits(mem.read_u64(pte_addr(table, va, 1)));
        pte.is_present().then_some(pte)
    }

    /// Replaces the leaf PTE for `va` in place (used by HSCC remapping and
    /// accessed/dirty manipulation). Returns the previous entry.
    ///
    /// # Errors
    ///
    /// [`KindleError::Unmapped`] if no mapping exists.
    pub fn update_leaf(
        &mut self,
        mem: &mut dyn PhysMem,
        costs: &KernelCosts,
        va: VirtAddr,
        f: impl FnOnce(Pte) -> Pte,
    ) -> Result<Pte> {
        let mut table = self.root;
        for level in (2..=4u8).rev() {
            let pte = Pte::from_bits(mem.read_u64(pte_addr(table, va, level)));
            if !pte.is_present() {
                return Err(KindleError::Unmapped(va));
            }
            table = pte.pfn();
        }
        let leaf_pa = pte_addr(table, va, 1);
        let old = Pte::from_bits(mem.read_u64(leaf_pa));
        if !old.is_present() {
            return Err(KindleError::Unmapped(va));
        }
        let new = f(old);
        if new != old {
            self.store_leaf(mem, costs, leaf_pa, new);
            if new.pfn() != old.pfn() {
                let vpn = va.page_number().as_u64();
                sanitize::emit(|| Event::PteClear { pfn: old.pfn().as_u64(), vpn });
                sanitize::emit(|| Event::PteInstall { pfn: new.pfn().as_u64(), vpn });
            }
        }
        Ok(old)
    }

    /// Walks the whole table depth-first, invoking `f(vpn, pte, leaf_pa)`
    /// for every present leaf mapping. Charges every table-entry read — this
    /// is the traversal the rebuild checkpoint and the HSCC migration scan
    /// pay for.
    pub fn for_each_leaf(
        &self,
        mem: &mut dyn PhysMem,
        mut f: impl FnMut(&mut dyn PhysMem, Vpn, Pte, PhysAddr),
    ) {
        self.walk_table(mem, self.root, 4, 0, &mut f);
    }

    fn walk_table(
        &self,
        mem: &mut dyn PhysMem,
        table: Pfn,
        level: u8,
        vpn_prefix: u64,
        f: &mut impl FnMut(&mut dyn PhysMem, Vpn, Pte, PhysAddr),
    ) {
        for idx in 0..512u64 {
            let pa = table.base() + idx * 8;
            let pte = Pte::from_bits(mem.read_u64(pa));
            if !pte.is_present() {
                continue;
            }
            let vpn = (vpn_prefix << 9) | idx;
            if level == 1 {
                f(mem, Vpn::new(vpn), pte, pa);
            } else {
                self.walk_table(mem, pte.pfn(), level - 1, vpn, f);
            }
        }
    }

    /// Frees every table frame (process teardown). Leaf data frames must be
    /// freed by the caller beforehand (via unmap + pool free).
    pub fn destroy(self, mem: &mut dyn PhysMem, pools: &mut FramePools) {
        for frame in self.table_frames {
            pools.free(mem, frame);
        }
    }
}

/// Convenience: virtual address of a VPN.
pub fn vpn_va(vpn: Vpn) -> VirtAddr {
    VirtAddr::new(vpn.as_u64() << PAGE_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameAllocator, PersistentFrameAllocator};
    use kindle_types::physmem::FlatMem;
    use kindle_types::PAGE_SIZE;

    fn setup() -> (FlatMem, FramePools, Region) {
        let mem = FlatMem::new(8 << 20);
        let pools = FramePools {
            dram: FrameAllocator::new("dram", Pfn::new(16), 512),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new("nvm", Pfn::new(1024), 512),
                Region { base: PhysAddr::new(0x2000), size: 0x1000 },
            ),
        };
        let log = Region { base: PhysAddr::new(0x4000), size: 0x4000 };
        (mem, pools, log)
    }

    #[test]
    fn map_translate_unmap_round_trip() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        let va = VirtAddr::new(0x4000_1000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(77), Pte::WRITABLE).unwrap();
        let pte = asp.translate(&mut mem, va).unwrap();
        assert_eq!(pte.pfn(), Pfn::new(77));
        assert!(pte.is_writable());
        assert_eq!(asp.mapped_pages(), 1);
        let old = asp.unmap(&mut mem, &mut pools, &costs, va).unwrap();
        assert_eq!(old.pfn(), Pfn::new(77));
        assert!(asp.translate(&mut mem, va).is_none());
        assert_eq!(asp.mapped_pages(), 0);
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        let va = VirtAddr::new(0x5000_0000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(1), 0).unwrap();
        assert!(asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(2), 0).is_err());
    }

    #[test]
    fn rebuild_tables_come_from_dram_persistent_from_nvm() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        assert!(pools.dram.contains(asp.root()));
        let asp2 = AddressSpace::new(&mut mem, &mut pools, PtMode::Persistent, log).unwrap();
        assert!(pools.nvm.inner().contains(asp2.root()));
        let _ = costs;
    }

    #[test]
    fn persistent_mode_wraps_stores() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Persistent, log).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(5), 0).unwrap();
        // 3 intermediate tables, each consistency-initialised line by line
        // (64 wrapped stores) plus its parent entry, plus 1 leaf store.
        assert_eq!(asp.wrapped_stores, 3 * 64 + 3 + 1);
        // Log region holds the last record: (pa, value) pair at cursor-16.
        let rec_pa = PhysAddr::new(log.base.as_u64() + 3 * 16);
        let logged_addr = mem.read_u64(rec_pa);
        assert_ne!(logged_addr, 0, "log record must be written");
    }

    #[test]
    fn sparse_strides_allocate_more_tables() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut dense = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        for i in 0..10u64 {
            let va = VirtAddr::new(0x4000_0000 + i * PAGE_SIZE as u64);
            dense.map(&mut mem, &mut pools, &costs, va, Pfn::new(100 + i), 0).unwrap();
        }
        let mut sparse = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        for i in 0..10u64 {
            let va = VirtAddr::new(0x4000_0000 + i * (1 << 30)); // 1 GiB stride
            sparse.map(&mut mem, &mut pools, &costs, va, Pfn::new(200 + i), 0).unwrap();
        }
        assert!(
            sparse.table_frame_count() > dense.table_frame_count(),
            "1 GiB stride must touch more page-table levels"
        );
    }

    #[test]
    fn for_each_leaf_enumerates_all_mappings() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        let mut expect = Vec::new();
        for i in 0..20u64 {
            let va = VirtAddr::new(0x4000_0000 + i * 2 * PAGE_SIZE as u64);
            asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(300 + i), 0).unwrap();
            expect.push((va.page_number(), Pfn::new(300 + i)));
        }
        let mut seen = Vec::new();
        asp.for_each_leaf(&mut mem, |_, vpn, pte, _| seen.push((vpn, pte.pfn())));
        seen.sort();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn update_leaf_changes_pfn() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        let va = VirtAddr::new(0x6000_0000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(10), 0).unwrap();
        let old = asp.update_leaf(&mut mem, &costs, va, |p| p.with_pfn(Pfn::new(99))).unwrap();
        assert_eq!(old.pfn(), Pfn::new(10));
        assert_eq!(asp.translate(&mut mem, va).unwrap().pfn(), Pfn::new(99));
    }

    #[test]
    fn relocate_table_frame_preserves_translations() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Persistent, log).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(5), Pte::WRITABLE).unwrap();
        // Relocate every table frame in turn, root included.
        for old in asp.table_frames().to_vec() {
            let new = pools.alloc(&mut mem, MemKind::Nvm).unwrap();
            asp.relocate_table_frame(&mut mem, &costs, old, new).unwrap();
            assert!(!asp.owns_table_frame(old));
            assert!(asp.owns_table_frame(new));
            pools.free(&mut mem, old);
            let pte = asp.translate(&mut mem, va).expect("still mapped");
            assert_eq!(pte.pfn(), Pfn::new(5));
            assert!(pte.is_writable());
        }
        assert!(asp.translate(&mut mem, VirtAddr::new(0x5000_0000)).is_none());
    }

    #[test]
    fn adopted_tables_need_rehydration_before_relocation() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Persistent, log).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(5), 0).unwrap();
        let frames: Vec<Pfn> = asp.table_frames().to_vec();
        let mut adopted = AddressSpace::adopt_persistent(asp.root(), log, asp.mapped_pages());
        assert!(
            adopted.relocate_table_frame(&mut mem, &costs, asp.root(), Pfn::new(2000)).is_err(),
            "no shadow yet"
        );
        adopted.rehydrate_tables(&mut mem);
        let mut rehydrated: Vec<Pfn> = adopted.table_frames().to_vec();
        let mut expect = frames;
        rehydrated.sort();
        expect.sort();
        assert_eq!(rehydrated, expect, "walk must find every table frame");
        let new = pools.alloc(&mut mem, MemKind::Nvm).unwrap();
        let leaf_table = *adopted.table_frames().last().unwrap();
        adopted.relocate_table_frame(&mut mem, &costs, leaf_table, new).unwrap();
        assert_eq!(adopted.translate(&mut mem, va).unwrap().pfn(), Pfn::new(5));
    }

    #[test]
    fn destroy_returns_table_frames() {
        let (mut mem, mut pools, log) = setup();
        let costs = KernelCosts::for_test();
        let before = pools.dram.used();
        let mut asp = AddressSpace::new(&mut mem, &mut pools, PtMode::Rebuild, log).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        asp.map(&mut mem, &mut pools, &costs, va, Pfn::new(50), 0).unwrap();
        asp.unmap(&mut mem, &mut pools, &costs, va).unwrap();
        asp.destroy(&mut mem, &mut pools);
        assert_eq!(pools.dram.used(), before);
    }
}
