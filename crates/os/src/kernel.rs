//! The kernel: pools, processes, system calls and demand paging.

use std::collections::BTreeMap;

use kindle_mem::E820Map;
use kindle_types::sanitize::{self, Event, KillReason};
use kindle_types::{
    checksum64, AccessKind, Cycles, KindleError, MapFlags, MemKind, Pfn, PhysMem, Prot, Pte,
    Result, VirtAddr, Vpn, CACHE_LINE, LINES_PER_PAGE, PAGE_SIZE,
};

use crate::costs::KernelCosts;
use crate::frame::{FrameAllocator, FramePools, PersistentFrameAllocator};
use crate::layout::NvmLayout;
use crate::meta::MetaRecord;
use crate::pagetable::{vpn_va, AddressSpace, PtMode};
use crate::process::{ProcState, Process};
use crate::sched::Scheduler;
use crate::scrub::ScrubPassOutcome;
use crate::vma::{vma_from_request, Vma};

/// Kernel construction parameters.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Physical memory map the BIOS hands over.
    pub memory_map: E820Map,
    /// Page-table maintenance scheme for new processes.
    pub pt_mode: PtMode,
    /// Instruction-cost table.
    pub costs: KernelCosts,
    /// DRAM frames reserved at the bottom for the kernel image.
    pub dram_reserved_frames: u64,
}

impl KernelConfig {
    /// Small split-in-half map with cheap costs for unit tests.
    pub fn for_test(total_bytes: u64) -> Self {
        let half = (total_bytes / 2) & !(PAGE_SIZE as u64 - 1);
        KernelConfig {
            memory_map: E820Map::flat(half, half),
            pt_mode: PtMode::Rebuild,
            costs: KernelCosts::for_test(),
            dram_reserved_frames: 16,
        }
    }
}

/// Counters of kernel activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// `mmap` calls served.
    pub mmaps: u64,
    /// `munmap` calls served.
    pub munmaps: u64,
    /// `mremap` calls served.
    pub mremaps: u64,
    /// `mprotect` calls served.
    pub mprotects: u64,
    /// Demand-paging faults handled.
    pub page_faults: u64,
    /// Pages given frames.
    pub pages_mapped: u64,
    /// Pages whose frames were reclaimed.
    pub pages_unmapped: u64,
    /// NVM frames permanently retired after media-fault retry exhaustion.
    pub frames_retired: u64,
    /// Retired frames that were live page tables (relocated, not remapped).
    pub pt_frames_retired: u64,
    /// Mapped pages poisoned because their frame was uncorrectable.
    pub pages_poisoned: u64,
    /// Processes killed after touching poisoned memory.
    pub procs_killed: u64,
}

/// What retiring a failing NVM frame did (see [`Kernel::retire_nvm_frame`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetireOutcome {
    /// The frame was unmapped (quarantined in place) or outside the general
    /// pool (reserved-region frames cannot be retired — ignored). Either
    /// way no translation changed.
    Quarantined,
    /// A mapped data frame: contents were copied to `new_pfn` and the
    /// mapping moved. The caller must shoot down the stale translation for
    /// `vpn`.
    Remapped {
        /// Owning process.
        pid: u32,
        /// Virtual page whose translation changed.
        vpn: Vpn,
        /// Replacement frame now backing `vpn`.
        new_pfn: Pfn,
    },
    /// A live page-table frame: the table was relocated to a fresh frame
    /// and its parent entry (or PTBR) repointed. The caller must flush all
    /// of `pid`'s cached translations — any walk may have gone through the
    /// old frame.
    TableRelocated {
        /// Process whose address space was restructured.
        pid: u32,
    },
}

/// What [`Kernel::poison_or_retire_frame`] did with an *uncorrectable*
/// NVM frame — one whose content is already lost, so the content-copying
/// remap in [`RetireOutcome::Remapped`] is not an option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityOutcome {
    /// The frame held no user data (unmapped, outside the pool, or a live
    /// page table whose intended entries the shadow metadata preserves):
    /// the existing retirement path applied.
    Retired(RetireOutcome),
    /// The frame backed a mapped user page. Its PTE was poisoned and the
    /// owning process killed rather than ever serving corrupt bytes. The
    /// caller must flush `pid`'s cached translations.
    Poisoned {
        /// Process that was killed with [`KillReason::MemoryPoison`].
        pid: u32,
        /// Virtual page that was backed by the lost frame.
        vpn: Vpn,
    },
}

/// Result of an munmap/mremap: pages whose translations must be shot down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnmapOutcome {
    /// Virtual pages that lost their mapping (TLB shootdown list).
    pub unmapped: Vec<Vpn>,
}

/// The gemOS-analog kernel.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Instruction-cost table (public: experiments tune it).
    pub costs: KernelCosts,
    pt_mode: PtMode,
    /// NVM reserved-region layout.
    pub layout: NvmLayout,
    /// Physical frame pools.
    pub pools: FramePools,
    /// Simulated kernel threads (main + background daemons).
    pub sched: Scheduler,
    procs: BTreeMap<u32, Process>,
    next_pid: u32,
    meta_records: Vec<MetaRecord>,
    stats: KernelStats,
}

impl Kernel {
    /// Boots the kernel: reads the memory map, carves the NVM layout and
    /// builds the frame pools.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for future BIOS
    /// validation.
    pub fn new(cfg: KernelConfig, _mem: &mut dyn PhysMem) -> Result<Self> {
        let layout = NvmLayout::from_map(&cfg.memory_map);
        let dram = cfg.memory_map.range(MemKind::Dram);
        let dram_start = dram.base.page_number() + cfg.dram_reserved_frames;
        let dram_frames = dram.frames() - cfg.dram_reserved_frames;
        let nvm_start = layout.general.base.page_number();
        let nvm_frames = layout.general.frames();
        let pools = FramePools {
            dram: FrameAllocator::new("dram", dram_start, dram_frames),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new("nvm", nvm_start, nvm_frames),
                layout.alloc_bitmap,
            ),
        };
        Ok(Kernel {
            costs: cfg.costs,
            pt_mode: cfg.pt_mode,
            layout,
            pools,
            sched: Scheduler::new(),
            procs: BTreeMap::new(),
            next_pid: 1,
            meta_records: Vec::new(),
            stats: KernelStats::default(),
        })
    }

    /// Page-table scheme in force.
    pub fn pt_mode(&self) -> PtMode {
        self.pt_mode
    }

    /// Kernel counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Live process ids.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.keys().copied().collect()
    }

    /// Immutable process access.
    ///
    /// # Errors
    ///
    /// [`KindleError::NoSuchProcess`] for unknown pids.
    pub fn process(&self, pid: u32) -> Result<&Process> {
        self.procs.get(&pid).ok_or(KindleError::NoSuchProcess(pid))
    }

    /// Mutable process access.
    ///
    /// # Errors
    ///
    /// [`KindleError::NoSuchProcess`] for unknown pids.
    pub fn process_mut(&mut self, pid: u32) -> Result<&mut Process> {
        self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))
    }

    /// Inserts an externally built process (crash recovery).
    pub fn adopt_process(&mut self, proc: Process) {
        self.next_pid = self.next_pid.max(proc.pid + 1);
        self.procs.insert(proc.pid, proc);
    }

    /// Drains metadata modification records for the persistence redo log.
    pub fn take_meta_records(&mut self) -> Vec<MetaRecord> {
        std::mem::take(&mut self.meta_records)
    }

    /// Creates a process with an empty address space.
    ///
    /// # Errors
    ///
    /// Propagates frame-pool exhaustion.
    pub fn create_process(&mut self, mem: &mut dyn PhysMem) -> Result<u32> {
        mem.advance(Cycles::new(self.costs.syscall_entry));
        let pid = self.next_pid;
        let aspace = AddressSpace::new(mem, &mut self.pools, self.pt_mode, self.layout.pt_log)?;
        self.procs.insert(pid, Process::new(pid, aspace));
        self.next_pid += 1;
        self.meta_records.push(MetaRecord::ProcessCreate { pid });
        Ok(pid)
    }

    /// Destroys a process, reclaiming data and table frames.
    ///
    /// # Errors
    ///
    /// [`KindleError::NoSuchProcess`] for unknown pids.
    pub fn destroy_process(&mut self, mem: &mut dyn PhysMem, pid: u32) -> Result<()> {
        let mut proc = self.procs.remove(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        // Free every mapped data frame.
        let mut leaves = Vec::new();
        proc.aspace.for_each_leaf(mem, |_, vpn, pte, _| leaves.push((vpn, pte.pfn())));
        for (vpn, pfn) in leaves {
            proc.aspace.unmap(mem, &mut self.pools, &self.costs, vpn_va(vpn))?;
            self.pools.free(mem, pfn);
        }
        proc.aspace.destroy(mem, &mut self.pools);
        Ok(())
    }

    /// The extended `mmap`: `MAP_NVM` directs the area to the NVM pool.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for zero length, [`KindleError::Overlap`] for FIXED
    /// collisions, [`KindleError::NoVirtualSpace`] when out of addresses.
    pub fn sys_mmap(
        &mut self,
        mem: &mut dyn PhysMem,
        pid: u32,
        hint: Option<VirtAddr>,
        len: u64,
        prot: Prot,
        flags: MapFlags,
    ) -> Result<VirtAddr> {
        mem.advance(Cycles::new(self.costs.syscall_entry) + Cycles::new(self.costs.vma_op));
        if len == 0 {
            return Err(KindleError::InvalidArgument("mmap length must be non-zero"));
        }
        let len = round_up(len);
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let start = match (hint, flags.contains(MapFlags::FIXED)) {
            (Some(va), true) => {
                if !va.is_page_aligned() {
                    return Err(KindleError::InvalidArgument("FIXED address must be aligned"));
                }
                va
            }
            (Some(va), false) if va.is_page_aligned() => {
                // Honour the hint when free, else search.
                let candidate = vma_from_request(va, len, prot, flags);
                if proc.vmas.iter().all(|v| !v.overlaps(candidate.start, candidate.end)) {
                    va
                } else {
                    proc.vmas.find_free(len)?
                }
            }
            _ => proc.vmas.find_free(len)?,
        };
        let vma = vma_from_request(start, len, prot, flags);
        proc.vmas.insert(vma)?;
        self.meta_records.push(MetaRecord::VmaAdd {
            pid,
            start: vma.start,
            end: vma.end,
            prot,
            kind: vma.kind,
        });
        self.stats.mmaps += 1;
        if flags.contains(MapFlags::POPULATE) {
            for i in 0..vma.pages() {
                let va = vma.start + i * PAGE_SIZE as u64;
                self.map_page(mem, pid, va)?;
            }
        }
        Ok(start)
    }

    /// Demand-paging fault handler: allocates a frame from the VMA's pool
    /// and installs the mapping.
    ///
    /// # Errors
    ///
    /// [`KindleError::Unmapped`] outside all VMAs,
    /// [`KindleError::ProtectionFault`] on protection violation, or pool
    /// exhaustion.
    pub fn handle_fault(
        &mut self,
        mem: &mut dyn PhysMem,
        pid: u32,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Pte> {
        mem.advance(Cycles::new(self.costs.fault_entry));
        let proc = self.procs.get(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let vma = *proc.vmas.find(va).ok_or(KindleError::Unmapped(va))?;
        if !vma.prot.allows(kind) {
            return Err(KindleError::ProtectionFault(va));
        }
        self.stats.page_faults += 1;
        self.map_page(mem, pid, va)
    }

    /// Allocates and maps one page of the VMA covering `va`.
    fn map_page(&mut self, mem: &mut dyn PhysMem, pid: u32, va: VirtAddr) -> Result<Pte> {
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let vma = *proc.vmas.find(va).ok_or(KindleError::Unmapped(va))?;
        mem.advance(Cycles::new(self.costs.frame_op));
        let pfn = self.pools.alloc(mem, vma.kind)?;
        if self.costs.zero_new_frames {
            mem.zero_page(pfn.base());
        }
        let mut flags = 0u64;
        if vma.prot.allows(AccessKind::Write) {
            flags |= Pte::WRITABLE;
        }
        if vma.kind == MemKind::Nvm {
            flags |= Pte::NVM;
        }
        proc.aspace.map(mem, &mut self.pools, &self.costs, va.page_base(), pfn, flags)?;
        self.stats.pages_mapped += 1;
        self.meta_records.push(MetaRecord::PageMapped {
            pid,
            vpn: va.page_number(),
            pfn,
            kind: vma.kind,
        });
        Ok(Pte::new(pfn, Pte::PRESENT | flags))
    }

    /// `munmap`: removes the range, reclaims frames, reports the shootdown
    /// list.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for misaligned or empty ranges.
    pub fn sys_munmap(
        &mut self,
        mem: &mut dyn PhysMem,
        pid: u32,
        addr: VirtAddr,
        len: u64,
    ) -> Result<UnmapOutcome> {
        mem.advance(Cycles::new(self.costs.syscall_entry) + Cycles::new(self.costs.vma_op));
        if len == 0 || !addr.is_page_aligned() {
            return Err(KindleError::InvalidArgument("munmap range must be aligned"));
        }
        let len = round_up(len);
        let end = addr + len;
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let removed = proc.vmas.remove(addr, end);
        let mut outcome = UnmapOutcome::default();
        for vma in &removed {
            for i in 0..vma.pages() {
                let va = vma.start + i * PAGE_SIZE as u64;
                match proc.aspace.unmap(mem, &mut self.pools, &self.costs, va) {
                    Ok(pte) => {
                        self.pools.free(mem, pte.pfn());
                        self.stats.pages_unmapped += 1;
                        outcome.unmapped.push(va.page_number());
                        self.meta_records.push(MetaRecord::PageUnmapped {
                            pid,
                            vpn: va.page_number(),
                            pfn: pte.pfn(),
                        });
                    }
                    Err(KindleError::Unmapped(_)) => {} // never faulted in
                    Err(e) => return Err(e),
                }
            }
            self.meta_records.push(MetaRecord::VmaRemove { pid, start: vma.start, end: vma.end });
        }
        self.stats.munmaps += 1;
        Ok(outcome)
    }

    /// `mprotect`: updates VMA protection and the writable bit of existing
    /// leaf PTEs in the range.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for misaligned ranges.
    pub fn sys_mprotect(
        &mut self,
        mem: &mut dyn PhysMem,
        pid: u32,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> Result<UnmapOutcome> {
        mem.advance(Cycles::new(self.costs.syscall_entry) + Cycles::new(self.costs.vma_op));
        if len == 0 || !addr.is_page_aligned() {
            return Err(KindleError::InvalidArgument("mprotect range must be aligned"));
        }
        let len = round_up(len);
        let end = addr + len;
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        proc.vmas.protect(addr, end, prot);
        let writable = prot.allows(AccessKind::Write);
        let mut outcome = UnmapOutcome::default();
        let pages = len / PAGE_SIZE as u64;
        for i in 0..pages {
            let va = addr + i * PAGE_SIZE as u64;
            let update = proc.aspace.update_leaf(mem, &self.costs, va, |p| {
                if writable {
                    p.with_flags(Pte::WRITABLE)
                } else {
                    p.without_flags(Pte::WRITABLE)
                }
            });
            match update {
                Ok(_) => outcome.unmapped.push(va.page_number()),
                Err(KindleError::Unmapped(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.meta_records.push(MetaRecord::VmaProtect { pid, start: addr, end, prot });
        self.stats.mprotects += 1;
        Ok(outcome)
    }

    /// `mremap` (move semantics): relocates `[old, old+old_len)` to a new
    /// region of `new_len` bytes, carrying existing frames over.
    ///
    /// # Errors
    ///
    /// `Unmapped` if the old range has no VMA; otherwise as `mmap`.
    pub fn sys_mremap(
        &mut self,
        mem: &mut dyn PhysMem,
        pid: u32,
        old_addr: VirtAddr,
        old_len: u64,
        new_len: u64,
    ) -> Result<(VirtAddr, UnmapOutcome)> {
        mem.advance(Cycles::new(self.costs.syscall_entry) + Cycles::new(2 * self.costs.vma_op));
        let old_len = round_up(old_len);
        let new_len = round_up(new_len);
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let old_vma = *proc.vmas.find(old_addr).ok_or(KindleError::Unmapped(old_addr))?;
        let new_start = proc.vmas.find_free(new_len)?;
        let new_vma = Vma {
            start: new_start,
            end: new_start + new_len,
            prot: old_vma.prot,
            kind: old_vma.kind,
        };
        proc.vmas.insert(new_vma)?;
        // Move mapped frames across.
        let move_pages = (old_len.min(new_len)) / PAGE_SIZE as u64;
        let mut outcome = UnmapOutcome::default();
        let mut flags = 0u64;
        if old_vma.prot.allows(AccessKind::Write) {
            flags |= Pte::WRITABLE;
        }
        if old_vma.kind == MemKind::Nvm {
            flags |= Pte::NVM;
        }
        for i in 0..move_pages {
            let src = old_addr + i * PAGE_SIZE as u64;
            let dst = new_start + i * PAGE_SIZE as u64;
            match proc.aspace.unmap(mem, &mut self.pools, &self.costs, src) {
                Ok(pte) => {
                    outcome.unmapped.push(src.page_number());
                    proc.aspace.map(mem, &mut self.pools, &self.costs, dst, pte.pfn(), flags)?;
                }
                Err(KindleError::Unmapped(_)) => {}
                Err(e) => return Err(e),
            }
        }
        proc.vmas.remove(old_addr, old_addr + old_len);
        self.meta_records.push(MetaRecord::VmaRemove {
            pid,
            start: old_addr,
            end: old_addr + old_len,
        });
        self.meta_records.push(MetaRecord::VmaAdd {
            pid,
            start: new_vma.start,
            end: new_vma.end,
            prot: new_vma.prot,
            kind: new_vma.kind,
        });
        self.stats.mremaps += 1;
        Ok((new_start, outcome))
    }

    /// `fork`: duplicates a process — VMA layout, register file and every
    /// mapped page (eager copy, no copy-on-write, as in gemOS). Returns the
    /// child pid.
    ///
    /// # Errors
    ///
    /// [`KindleError::NoSuchProcess`] for unknown pids; propagates pool
    /// exhaustion (partially built children are torn down by the caller
    /// destroying the pid).
    pub fn sys_fork(&mut self, mem: &mut dyn PhysMem, parent: u32) -> Result<u32> {
        mem.advance(Cycles::new(self.costs.syscall_entry * 2));
        // Snapshot the parent's layout and mappings first.
        let (regs, vmas, mappings) = {
            let proc = self.procs.get(&parent).ok_or(KindleError::NoSuchProcess(parent))?;
            let mut mappings: Vec<(Vpn, kindle_types::Pfn, Pte)> = Vec::new();
            proc.aspace.for_each_leaf(mem, |_, vpn, pte, _| mappings.push((vpn, pte.pfn(), pte)));
            (proc.regs, proc.vmas.clone(), mappings)
        };
        let child = self.create_process(mem)?;
        {
            let proc = self.procs.get_mut(&child).ok_or(KindleError::NoSuchProcess(child))?;
            proc.regs = regs;
            proc.vmas = vmas.clone();
        }
        for vma in vmas.iter() {
            self.meta_records.push(MetaRecord::VmaAdd {
                pid: child,
                start: vma.start,
                end: vma.end,
                prot: vma.prot,
                kind: vma.kind,
            });
        }
        // Copy every mapped page into a fresh frame of the same kind.
        for (vpn, src_pfn, pte) in mappings {
            let kind = self
                .pools
                .kind_of(src_pfn)
                .ok_or(KindleError::Corrupted("parent page outside both pools"))?;
            mem.advance(Cycles::new(self.costs.frame_op));
            let dst = self.pools.alloc(mem, kind)?;
            mem.copy_page(src_pfn.base(), dst.base());
            let mut flags = 0u64;
            if pte.is_writable() {
                flags |= Pte::WRITABLE;
            }
            if kind == MemKind::Nvm {
                flags |= Pte::NVM;
            }
            let proc = self.procs.get_mut(&child).ok_or(KindleError::NoSuchProcess(child))?;
            proc.aspace.map(mem, &mut self.pools, &self.costs, vpn.base(), dst, flags)?;
            self.stats.pages_mapped += 1;
            self.meta_records.push(MetaRecord::PageMapped { pid: child, vpn, pfn: dst, kind });
        }
        Ok(child)
    }

    /// Retires a failing NVM frame reported by the memory controller (write
    /// retries exhausted, or a scrub pass giving up on a line): the frame
    /// is permanently removed from the pool, and its role decides the
    /// recovery. A mapped data frame has its contents copied to a fresh NVM
    /// frame and the mapping moved; a live *page-table* frame is relocated
    /// content-preservingly (intended entries rewritten into a fresh frame,
    /// parent entry or PTBR repointed) — retiring it like a data frame
    /// would silently orphan every translation below it. The
    /// [`RetireOutcome`] tells the caller which TLB scope to shoot down.
    ///
    /// # Errors
    ///
    /// Propagates NVM pool exhaustion while allocating the replacement.
    pub fn retire_nvm_frame(&mut self, mem: &mut dyn PhysMem, pfn: Pfn) -> Result<RetireOutcome> {
        if !self.pools.nvm.inner().contains(pfn) {
            return Ok(RetireOutcome::Quarantined);
        }
        mem.advance(Cycles::new(self.costs.frame_retire_op));
        // A live table frame never shows up as a leaf mapping: route it to
        // the relocation path before the leaf-owner scan below.
        if let Some(pid) = self.table_frame_owner(pfn) {
            self.retire_pt_frame(mem, pid, pfn)?;
            return Ok(RetireOutcome::TableRelocated { pid });
        }
        let Some((pid, vpn, pte)) = self.leaf_frame_owner(mem, pfn) else {
            // Unmapped: just take it out of circulation.
            self.pools.nvm.retire(mem, pfn);
            self.stats.frames_retired += 1;
            return Ok(RetireOutcome::Quarantined);
        };
        mem.advance(Cycles::new(self.costs.frame_op));
        let new_pfn = self.pools.nvm.alloc(mem)?;
        mem.copy_page(pfn.base(), new_pfn.base());
        let flags = if pte.is_writable() { Pte::WRITABLE | Pte::NVM } else { Pte::NVM };
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let va = vpn_va(vpn);
        proc.aspace.unmap(mem, &mut self.pools, &self.costs, va)?;
        self.pools.nvm.retire(mem, pfn);
        proc.aspace.map(mem, &mut self.pools, &self.costs, va, new_pfn, flags)?;
        self.stats.frames_retired += 1;
        self.meta_records.push(MetaRecord::PageUnmapped { pid, vpn, pfn });
        self.meta_records.push(MetaRecord::PageMapped {
            pid,
            vpn,
            pfn: new_pfn,
            kind: MemKind::Nvm,
        });
        Ok(RetireOutcome::Remapped { pid, vpn, new_pfn })
    }

    /// Relocates `pid`'s page-table frame `pfn` into a fresh NVM frame and
    /// quarantines the old one.
    fn retire_pt_frame(&mut self, mem: &mut dyn PhysMem, pid: u32, pfn: Pfn) -> Result<()> {
        mem.advance(Cycles::new(self.costs.frame_op));
        let new_pfn = self.pools.nvm.alloc(mem)?;
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        proc.aspace.relocate_table_frame(mem, &self.costs, pfn, new_pfn)?;
        self.pools.nvm.retire(mem, pfn);
        self.stats.frames_retired += 1;
        self.stats.pt_frames_retired += 1;
        sanitize::emit(|| Event::ScrubRetire { pfn: pfn.as_u64() });
        Ok(())
    }

    /// Pid whose address space uses `pfn` as a page-*table* frame, if any.
    /// Patrold skips these: scrubd's shadow verify both detects and repairs
    /// table corruption, which a content checksum alone cannot.
    pub fn table_frame_owner(&self, pfn: Pfn) -> Option<u32> {
        self.procs.iter().find(|(_, p)| p.aspace.owns_table_frame(pfn)).map(|(&pid, _)| pid)
    }

    /// The (single) leaf mapping of `pfn` across all processes, if any.
    fn leaf_frame_owner(&self, mem: &mut dyn PhysMem, pfn: Pfn) -> Option<(u32, Vpn, Pte)> {
        let mut owner: Option<(u32, Vpn, Pte)> = None;
        for (&pid, proc) in &self.procs {
            proc.aspace.for_each_leaf(mem, |_, vpn, pte: Pte, _| {
                if pte.pfn() == pfn && owner.is_none() {
                    owner = Some((pid, vpn, pte));
                }
            });
            if owner.is_some() {
                break;
            }
        }
        owner
    }

    /// Degrades gracefully on an *uncorrectable* NVM frame — one the patrol
    /// pass could not heal, meaning its stored bytes no longer match what
    /// the application wrote. Unlike [`retire_nvm_frame`], the content
    /// cannot be copied out: a mapped page is marked [`Pte::POISONED`] (so
    /// any future walk faults instead of returning bytes) and the owning
    /// process is killed; an unmapped or table-owned frame takes the
    /// existing retirement paths. The caller must shoot down cached
    /// translations for a poisoned or relocated scope.
    ///
    /// # Errors
    ///
    /// Propagates NVM pool exhaustion while relocating a table frame, and
    /// page-walk errors while poisoning the mapping.
    ///
    /// [`retire_nvm_frame`]: Self::retire_nvm_frame
    pub fn poison_or_retire_frame(
        &mut self,
        mem: &mut dyn PhysMem,
        pfn: Pfn,
    ) -> Result<IntegrityOutcome> {
        if !self.pools.nvm.inner().contains(pfn) {
            return Ok(IntegrityOutcome::Retired(RetireOutcome::Quarantined));
        }
        mem.advance(Cycles::new(self.costs.frame_retire_op));
        // Table frames keep their intended entries in shadow metadata, so
        // relocation loses nothing even when the stored copy is corrupt.
        if let Some(pid) = self.table_frame_owner(pfn) {
            self.retire_pt_frame(mem, pid, pfn)?;
            return Ok(IntegrityOutcome::Retired(RetireOutcome::TableRelocated { pid }));
        }
        let Some((pid, vpn, _)) = self.leaf_frame_owner(mem, pfn) else {
            // Unmapped: nobody can observe the lost content. Quarantine.
            self.pools.nvm.retire(mem, pfn);
            self.stats.frames_retired += 1;
            return Ok(IntegrityOutcome::Retired(RetireOutcome::Quarantined));
        };
        let va = vpn_va(vpn);
        let proc = self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        proc.aspace.update_leaf(mem, &self.costs, va, |pte| pte.with_flags(Pte::POISONED))?;
        self.stats.pages_poisoned += 1;
        sanitize::emit(|| Event::PagePoison { pfn: pfn.as_u64(), vpn: vpn.as_u64() });
        self.kill_process(mem, pid, KillReason::MemoryPoison)?;
        Ok(IntegrityOutcome::Poisoned { pid, vpn })
    }

    /// Kills a process with a SIGBUS-style `reason`: like
    /// [`destroy_process`](Self::destroy_process), but frames behind
    /// poisoned PTEs are *retired*, never returned to the free pool — their
    /// media is unhealable and must not back a future allocation.
    ///
    /// # Errors
    ///
    /// [`KindleError::NoSuchProcess`] for unknown pids.
    pub fn kill_process(
        &mut self,
        mem: &mut dyn PhysMem,
        pid: u32,
        reason: KillReason,
    ) -> Result<()> {
        let mut proc = self.procs.remove(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        let mut leaves = Vec::new();
        proc.aspace.for_each_leaf(mem, |_, vpn, pte: Pte, _| leaves.push((vpn, pte)));
        for (vpn, pte) in leaves {
            proc.aspace.unmap(mem, &mut self.pools, &self.costs, vpn_va(vpn))?;
            if pte.is_poisoned() {
                self.pools.nvm.retire(mem, pte.pfn());
                self.stats.frames_retired += 1;
            } else {
                self.pools.free(mem, pte.pfn());
            }
        }
        proc.aspace.destroy(mem, &mut self.pools);
        self.stats.procs_killed += 1;
        sanitize::emit(|| Event::ProcessKilled { pid, reason });
        Ok(())
    }

    /// Rebuilds every adopted process's shadow table metadata by walking
    /// its live tables (crash recovery only reconstructs the PTBR; the
    /// scrub daemon needs the intended entry values to verify against).
    pub fn rehydrate_all_tables(&mut self, mem: &mut dyn PhysMem) {
        for proc in self.procs.values_mut() {
            proc.aspace.rehydrate_tables(mem);
        }
    }

    /// One scrubd verify pass: reads back every NVM page-table frame and
    /// checksums its 512 stored entries against the kernel's shadow
    /// metadata. Hardware-managed bits ([`Pte::HW_MANAGED`] — accessed,
    /// dirty, HSCC count) are excluded from the compare, since the walker
    /// updates those in the stored entries without informing the kernel.
    /// A mismatching line is flagged, rewritten from the shadow
    /// through the scheme's consistency discipline (which routes it through
    /// the media correction layer) and re-verified; a line that stays
    /// corrupted retires the whole frame content-preservingly. Frames
    /// without shadow metadata (adopted spaces before
    /// [`rehydrate_all_tables`](Self::rehydrate_all_tables)) are skipped.
    ///
    /// # Errors
    ///
    /// Propagates NVM pool exhaustion while relocating a retired frame.
    pub fn scrub_pt_frames(&mut self, mem: &mut dyn PhysMem) -> Result<ScrubPassOutcome> {
        let mut out = ScrubPassOutcome::default();
        for pid in self.pids() {
            // Snapshot the frame list first: retirement rewrites it.
            let frames: Vec<Pfn> = match self.procs.get(&pid) {
                Some(proc) => proc
                    .aspace
                    .table_frames()
                    .iter()
                    .copied()
                    .filter(|&f| self.pools.nvm.inner().contains(f))
                    .collect(),
                None => continue,
            };
            for frame in frames {
                let Some(expected) = self
                    .procs
                    .get(&pid)
                    .and_then(|p| p.aspace.expected_table_words(frame))
                    .copied()
                else {
                    continue;
                };
                mem.advance(Cycles::new(self.costs.scrub_frame_op));
                // Verify kernel intent only: the walker sets accessed/dirty
                // (and HSCC count) bits directly in the stored entries, so
                // those hardware-managed bits are masked out of the compare.
                let mut actual = [0u64; 512];
                for (line_idx, chunk) in actual.chunks_mut(WORDS_PER_LINE).enumerate() {
                    mem.advance(Cycles::new(self.costs.scrub_line_op));
                    for (j, word) in chunk.iter_mut().enumerate() {
                        *word = scrub_mask(mem.read_u64(line_pa(frame, line_idx) + j as u64 * 8));
                    }
                }
                let expected = expected.map(scrub_mask);
                if checksum64(&actual) == checksum64(&expected) {
                    out.frames_clean += 1;
                    continue;
                }
                let mut retire = false;
                for line_idx in 0..LINES_PER_PAGE {
                    let span = line_idx * WORDS_PER_LINE..(line_idx + 1) * WORDS_PER_LINE;
                    if actual[span.clone()] == expected[span.clone()] {
                        continue;
                    }
                    out.lines_detected += 1;
                    let line = line_pa(frame, line_idx).as_u64();
                    sanitize::emit(|| Event::ScrubDetect { line });
                    {
                        let proc =
                            self.procs.get_mut(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
                        proc.aspace.rewrite_table_line(mem, &self.costs, frame, line_idx)?;
                    }
                    mem.advance(Cycles::new(self.costs.scrub_line_op));
                    let healed = (0..WORDS_PER_LINE).all(|j| {
                        scrub_mask(mem.read_u64(line_pa(frame, line_idx) + j as u64 * 8))
                            == expected[line_idx * WORDS_PER_LINE + j]
                    });
                    if healed {
                        out.lines_corrected += 1;
                        sanitize::emit(|| Event::ScrubCorrect { line });
                    } else {
                        // Correction budget exhausted: the frame is beyond
                        // in-place repair.
                        retire = true;
                        break;
                    }
                }
                if retire {
                    if let RetireOutcome::TableRelocated { pid } =
                        self.retire_nvm_frame(mem, frame)?
                    {
                        out.frames_retired.push((pid, frame));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Software translation for a process (charges the walk).
    ///
    /// # Errors
    ///
    /// [`KindleError::NoSuchProcess`] for unknown pids.
    pub fn translate(&self, mem: &mut dyn PhysMem, pid: u32, va: VirtAddr) -> Result<Option<Pte>> {
        let proc = self.procs.get(&pid).ok_or(KindleError::NoSuchProcess(pid))?;
        Ok(proc.aspace.translate(mem, va))
    }

    /// Marks a process recovered (used by the persistence layer).
    pub fn set_state(&mut self, pid: u32, state: ProcState) -> Result<()> {
        self.process_mut(pid)?.state = state;
        Ok(())
    }
}

fn round_up(len: u64) -> u64 {
    (len + PAGE_SIZE as u64 - 1) & !(PAGE_SIZE as u64 - 1)
}

const WORDS_PER_LINE: usize = CACHE_LINE / 8;

/// Strips the hardware-managed PTE bits before a scrub compare: the walker
/// sets accessed/dirty (and the HSCC count) in the stored entries without
/// going through the kernel shadow, so those bits legitimately diverge.
fn scrub_mask(word: u64) -> u64 {
    word & !Pte::HW_MANAGED
}

fn line_pa(frame: Pfn, line_idx: usize) -> kindle_types::PhysAddr {
    frame.base() + (line_idx * CACHE_LINE) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::physmem::FlatMem;

    fn boot() -> (FlatMem, Kernel, u32) {
        let mut mem = FlatMem::new(96 << 20);
        let mut k = Kernel::new(KernelConfig::for_test(96 << 20), &mut mem).unwrap();
        let pid = k.create_process(&mut mem).unwrap();
        (mem, k, pid)
    }

    #[test]
    fn mmap_fault_access_cycle() {
        let (mut mem, mut k, pid) = boot();
        let va =
            k.sys_mmap(&mut mem, pid, None, 3 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        // Nothing mapped yet.
        assert!(k.translate(&mut mem, pid, va).unwrap().is_none());
        let pte = k.handle_fault(&mut mem, pid, va, AccessKind::Write).unwrap();
        assert!(pte.is_present());
        assert_eq!(pte.mem_kind(), MemKind::Nvm);
        assert!(k.pools.nvm.is_allocated(pte.pfn()));
        assert_eq!(k.stats().page_faults, 1);
    }

    #[test]
    fn nvm_flag_selects_pool() {
        let (mut mem, mut k, pid) = boot();
        let d = k.sys_mmap(&mut mem, pid, None, 4096, Prot::RW, MapFlags::EMPTY).unwrap();
        let n = k.sys_mmap(&mut mem, pid, None, 4096, Prot::RW, MapFlags::NVM).unwrap();
        let dp = k.handle_fault(&mut mem, pid, d, AccessKind::Write).unwrap();
        let np = k.handle_fault(&mut mem, pid, n, AccessKind::Write).unwrap();
        assert!(k.pools.dram.contains(dp.pfn()));
        assert!(k.pools.nvm.inner().contains(np.pfn()));
    }

    #[test]
    fn fault_outside_vma_is_unmapped_error() {
        let (mut mem, mut k, pid) = boot();
        let err = k
            .handle_fault(&mut mem, pid, VirtAddr::new(0x1234_5000), AccessKind::Read)
            .unwrap_err();
        assert!(matches!(err, KindleError::Unmapped(_)));
    }

    #[test]
    fn write_to_readonly_is_protection_fault() {
        let (mut mem, mut k, pid) = boot();
        let va = k.sys_mmap(&mut mem, pid, None, 4096, Prot::READ, MapFlags::EMPTY).unwrap();
        let err = k.handle_fault(&mut mem, pid, va, AccessKind::Write).unwrap_err();
        assert!(matches!(err, KindleError::ProtectionFault(_)));
        // Reads still work.
        k.handle_fault(&mut mem, pid, va, AccessKind::Read).unwrap();
    }

    #[test]
    fn munmap_reclaims_frames_and_reports_shootdowns() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                4 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let used = k.pools.nvm.used();
        assert_eq!(k.stats().pages_mapped, 4);
        let out = k.sys_munmap(&mut mem, pid, va, 4 * PAGE_SIZE as u64).unwrap();
        assert_eq!(out.unmapped.len(), 4);
        assert_eq!(k.pools.nvm.used(), used - 4);
        assert!(k.translate(&mut mem, pid, va).unwrap().is_none());
    }

    #[test]
    fn munmap_partial_splits_vma() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(&mut mem, pid, None, 4 * PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY)
            .unwrap();
        k.sys_munmap(&mut mem, pid, va + PAGE_SIZE as u64, PAGE_SIZE as u64).unwrap();
        let proc = k.process(pid).unwrap();
        assert_eq!(proc.vmas.len(), 2);
        assert!(proc.vmas.find(va).is_some());
        assert!(proc.vmas.find(va + PAGE_SIZE as u64).is_none());
    }

    #[test]
    fn mprotect_flips_writable_bit() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::EMPTY | MapFlags::POPULATE,
            )
            .unwrap();
        assert!(k.translate(&mut mem, pid, va).unwrap().unwrap().is_writable());
        k.sys_mprotect(&mut mem, pid, va, PAGE_SIZE as u64, Prot::READ).unwrap();
        assert!(!k.translate(&mut mem, pid, va).unwrap().unwrap().is_writable());
        assert_eq!(k.process(pid).unwrap().vmas.find(va).unwrap().prot, Prot::READ);
    }

    #[test]
    fn mremap_moves_frames() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                2 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let old_pfn = k.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        let (new_va, out) =
            k.sys_mremap(&mut mem, pid, va, 2 * PAGE_SIZE as u64, 4 * PAGE_SIZE as u64).unwrap();
        assert_ne!(new_va, va);
        assert_eq!(out.unmapped.len(), 2);
        let new_pfn = k.translate(&mut mem, pid, new_va).unwrap().unwrap().pfn();
        assert_eq!(new_pfn, old_pfn, "frames move with the mapping");
        assert!(k.translate(&mut mem, pid, va).unwrap().is_none());
    }

    #[test]
    fn fixed_mmap_at_exact_address() {
        let (mut mem, mut k, pid) = boot();
        let want = VirtAddr::new(0x7000_0000);
        let got = k
            .sys_mmap(&mut mem, pid, Some(want), PAGE_SIZE as u64, Prot::RW, MapFlags::FIXED)
            .unwrap();
        assert_eq!(got, want);
        let err = k
            .sys_mmap(&mut mem, pid, Some(want), PAGE_SIZE as u64, Prot::RW, MapFlags::FIXED)
            .unwrap_err();
        assert!(matches!(err, KindleError::Overlap(_)));
    }

    #[test]
    fn meta_records_flow() {
        let (mut mem, mut k, pid) = boot();
        k.take_meta_records(); // drop boot records
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        k.sys_munmap(&mut mem, pid, va, PAGE_SIZE as u64).unwrap();
        let recs = k.take_meta_records();
        assert!(recs.iter().any(|r| matches!(r, MetaRecord::VmaAdd { .. })));
        assert!(recs.iter().any(|r| matches!(r, MetaRecord::PageMapped { .. })));
        assert!(recs.iter().any(|r| matches!(r, MetaRecord::PageUnmapped { .. })));
        assert!(recs.iter().any(|r| matches!(r, MetaRecord::VmaRemove { .. })));
        assert!(k.take_meta_records().is_empty());
    }

    #[test]
    fn fork_duplicates_layout_and_pages() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                3 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        k.process_mut(pid).unwrap().regs.rip = 0x77;
        // Plant data in the parent's first page.
        let ppfn = k.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        mem.write_bytes(ppfn.base() + 10, b"inherit");

        let child = k.sys_fork(&mut mem, pid).unwrap();
        assert_ne!(child, pid);
        let cp = k.process(child).unwrap();
        assert_eq!(cp.regs.rip, 0x77);
        assert_eq!(cp.vmas.len(), 1);
        let cpfn = k.translate(&mut mem, child, va).unwrap().unwrap().pfn();
        assert_ne!(cpfn, ppfn, "child gets its own frame");
        let mut buf = [0u8; 7];
        mem.read_bytes(cpfn.base() + 10, &mut buf);
        assert_eq!(&buf, b"inherit", "page contents copied");
        // Writes diverge after the fork.
        mem.write_bytes(cpfn.base() + 10, b"childs!");
        let mut pb = [0u8; 7];
        mem.read_bytes(ppfn.base() + 10, &mut pb);
        assert_eq!(&pb, b"inherit");
    }

    #[test]
    fn retire_remaps_and_quarantines_frame() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let old = k.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        mem.write_bytes(old.base() + 5, b"keep");

        let RetireOutcome::Remapped { pid: rpid, vpn: rvpn, new_pfn } =
            k.retire_nvm_frame(&mut mem, old).unwrap()
        else {
            panic!("mapped data frame must be remapped");
        };
        assert_eq!(rpid, pid);
        assert_eq!(rvpn, va.page_number());
        assert_ne!(new_pfn, old);
        let pte = k.translate(&mut mem, pid, va).unwrap().unwrap();
        assert_eq!(pte.pfn(), new_pfn, "mapping moved to the replacement frame");
        assert!(pte.is_writable(), "protection carried over");
        let mut buf = [0u8; 4];
        mem.read_bytes(new_pfn.base() + 5, &mut buf);
        assert_eq!(&buf, b"keep", "contents copied before the remap");
        assert!(k.pools.nvm.is_allocated(old), "retired frame never returns to the pool");
        assert_eq!(k.stats().frames_retired, 1);
        let recs = k.take_meta_records();
        assert!(recs.iter().any(|r| matches!(r, MetaRecord::PageUnmapped { .. })));
        assert!(recs.iter().any(|r| matches!(r, MetaRecord::PageMapped { .. })));
    }

    #[test]
    fn retire_outside_general_pool_is_ignored() {
        let (mut mem, mut k, _pid) = boot();
        // A DRAM pfn is outside the NVM general pool.
        let out = k.retire_nvm_frame(&mut mem, Pfn::new(0)).unwrap();
        assert_eq!(out, RetireOutcome::Quarantined);
        assert_eq!(k.stats().frames_retired, 0);
    }

    fn boot_persistent() -> (FlatMem, Kernel, u32) {
        let mut mem = FlatMem::new(96 << 20);
        let mut cfg = KernelConfig::for_test(96 << 20);
        cfg.pt_mode = PtMode::Persistent;
        let mut k = Kernel::new(cfg, &mut mem).unwrap();
        let pid = k.create_process(&mut mem).unwrap();
        (mem, k, pid)
    }

    #[test]
    fn retiring_live_table_frame_relocates_it() {
        let (mut mem, mut k, pid) = boot_persistent();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let data_pfn = k.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        let root = k.process(pid).unwrap().aspace.root();
        let out = k.retire_nvm_frame(&mut mem, root).unwrap();
        assert_eq!(out, RetireOutcome::TableRelocated { pid });
        let new_root = k.process(pid).unwrap().aspace.root();
        assert_ne!(new_root, root, "PTBR moved to the replacement frame");
        assert!(k.pools.nvm.is_allocated(root), "retired table frame never returns to the pool");
        let pte = k.translate(&mut mem, pid, va).unwrap().unwrap();
        assert_eq!(pte.pfn(), data_pfn, "translations survive the relocation");
        assert_eq!(k.stats().pt_frames_retired, 1);
    }

    #[test]
    fn scrub_pass_detects_and_heals_corrupted_table_line() {
        let (mut mem, mut k, pid) = boot_persistent();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        // Flip one bit of a stored table entry behind the kernel's back
        // (what a stuck NVM cell does to a PTE store). Bit 63 is ignored by
        // the walker but covered by the scrub verify.
        let frame = *k.process(pid).unwrap().aspace.table_frames().last().unwrap();
        let pa = frame.base() + 8;
        let orig = mem.read_u64(pa);
        mem.write_u64(pa, orig ^ (1 << 63));

        // A divergence confined to hardware-managed bits is not corruption:
        // the walker owns accessed/dirty, so scrub must leave it alone.
        let hw_pa = frame.base() + (CACHE_LINE as u64) + 8;
        let hw_word = mem.read_u64(hw_pa) | Pte::ACCESSED | Pte::DIRTY;
        mem.write_u64(hw_pa, hw_word);

        let out = k.scrub_pt_frames(&mut mem).unwrap();
        assert_eq!(out.lines_detected, 1);
        assert_eq!(out.lines_corrected, 1);
        assert!(out.frames_retired.is_empty());
        assert_eq!(mem.read_u64(pa), orig, "line rewritten from the shadow");
        assert_eq!(mem.read_u64(hw_pa), hw_word, "hardware-managed bits untouched");
        assert!(k.translate(&mut mem, pid, va).unwrap().is_some());

        // A clean image scrubs clean.
        let out = k.scrub_pt_frames(&mut mem).unwrap();
        assert_eq!(out.lines_detected, 0);
        assert_eq!(out.frames_clean, 4, "root + three levels all verified");
    }

    #[test]
    fn destroy_process_reclaims_everything() {
        let (mut mem, mut k, pid) = boot();
        let dram_used = k.pools.dram.used();
        let nvm_used = k.pools.nvm.used();
        let pid2 = k.create_process(&mut mem).unwrap();
        k.sys_mmap(
            &mut mem,
            pid2,
            None,
            8 * PAGE_SIZE as u64,
            Prot::RW,
            MapFlags::NVM | MapFlags::POPULATE,
        )
        .unwrap();
        k.destroy_process(&mut mem, pid2).unwrap();
        assert_eq!(k.pools.dram.used(), dram_used);
        assert_eq!(k.pools.nvm.used(), nvm_used);
        assert!(k.process(pid2).is_err());
        let _ = pid;
    }

    #[test]
    fn poisoning_mapped_frame_kills_owner_and_retires_frame() {
        let (mut mem, mut k, pid) = boot();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                2 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let pfn = k.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        let other = k.translate(&mut mem, pid, va + PAGE_SIZE as u64).unwrap().unwrap().pfn();

        let out = k.poison_or_retire_frame(&mut mem, pfn).unwrap();
        let vpn = Vpn::new(va.as_u64() >> kindle_types::PAGE_SHIFT);
        assert_eq!(out, IntegrityOutcome::Poisoned { pid, vpn });
        assert!(k.process(pid).is_err(), "owner killed, not left running");
        assert!(k.pools.nvm.is_allocated(pfn), "poisoned frame never re-enters the pool");
        assert!(!k.pools.nvm.is_allocated(other), "the process's healthy frames were freed");
        assert_eq!(k.stats().pages_poisoned, 1);
        assert_eq!(k.stats().procs_killed, 1);
        assert_eq!(k.stats().frames_retired, 1, "only the poisoned frame was retired");

        // The retired frame must never be handed out again.
        for _ in 0..32 {
            assert_ne!(k.pools.nvm.alloc(&mut mem).unwrap(), pfn);
        }
    }

    #[test]
    fn poisoning_unmapped_frame_quarantines_in_place() {
        let (mut mem, mut k, pid) = boot();
        let pfn = k.pools.nvm.alloc(&mut mem).unwrap();
        let out = k.poison_or_retire_frame(&mut mem, pfn).unwrap();
        assert_eq!(out, IntegrityOutcome::Retired(RetireOutcome::Quarantined));
        assert!(k.pools.nvm.is_allocated(pfn));
        assert!(k.process(pid).is_ok(), "no mapping, so nobody dies");
        assert_eq!(k.stats().pages_poisoned, 0);
        assert_eq!(k.stats().frames_retired, 1);
    }

    #[test]
    fn poisoning_table_frame_relocates_instead_of_killing() {
        let (mut mem, mut k, pid) = boot_persistent();
        let va = k
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let root = k.process(pid).unwrap().aspace.root();
        let out = k.poison_or_retire_frame(&mut mem, root).unwrap();
        assert_eq!(out, IntegrityOutcome::Retired(RetireOutcome::TableRelocated { pid }));
        assert!(k.process(pid).is_ok(), "shadow metadata preserved the table: no kill");
        assert!(k.translate(&mut mem, pid, va).unwrap().is_some());
        assert_eq!(k.stats().procs_killed, 0);
    }

    #[test]
    fn kill_process_rejects_unknown_pid() {
        let (mut mem, mut k, _pid) = boot();
        let err = k.kill_process(&mut mem, 999, KillReason::MemoryPoison).unwrap_err();
        assert!(matches!(err, KindleError::NoSuchProcess(999)));
    }
}
