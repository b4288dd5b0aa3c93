//! Crash recovery: rebuilding processes from the saved-state area.
//!
//! The recovery procedure scans the saved-state slots and, for each one
//! with a consistent copy, recreates the execution context: registers and
//! VMA layout from the context copy, and the address space either by
//! remapping every entry of the virtual→NVM-frame mapping list (*rebuild*
//! scheme) or by restoring the PTBR (*persistent* scheme). DRAM-backed
//! mappings are discarded — their frames were volatile.
//!
//! Against *torn* crashes (8-byte persist granularity, write-buffer
//! contents lost mid-flight) recovery additionally:
//!
//! - checksum-verifies the valid copy and falls back to the other copy
//!   when it is corrupt (a process is lost only when both copies fail);
//! - repairs allocation-bitmap bits whose persist was torn away, before
//!   installing any mapping that needs the frame;
//! - replays the redo log's valid prefix idempotently on top of the
//!   checkpointed state, dropping the torn tail.

use kindle_os::{AddressSpace, Kernel, MetaRecord, ProcState, Process, PtMode, VmaList};
use kindle_types::{AccessKind, Cycles, KindleError, MapFlags, MemKind, PhysMem, Pte, Result, Vpn};

use crate::log::RedoLog;
use crate::slot::{SavedContext, SavedStateArea, SlotHandle};

/// Summary of a completed recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Pids successfully recovered.
    pub recovered_pids: Vec<u32>,
    /// Pages remapped from mapping lists (rebuild scheme).
    pub pages_remapped: u64,
    /// Stale DRAM leaf entries dropped from NVM-resident tables
    /// (persistent scheme).
    pub dram_entries_dropped: u64,
    /// Slots whose valid copy failed its checksum and were recovered from
    /// the other copy.
    pub copy_fallbacks: u64,
    /// Pids lost because no copy of their slot passed verification.
    pub lost_pids: Vec<u32>,
    /// Allocation-bitmap bits repaired (set) because a recovered mapping
    /// referenced a frame the persisted bitmap had lost.
    pub frames_repaired: u64,
    /// Redo-log records replayed on top of the checkpointed state.
    pub log_records_replayed: u64,
    /// Redo-log records dropped as torn (invalid checksum and after).
    pub torn_log_records: u64,
    /// Simulated time the recovery took.
    pub cycles: Cycles,
}

/// Loads and checksum-verifies one copy of a slot: the context, plus (for
/// the rebuild scheme) the mapping list. `None` means the copy is torn.
fn load_copy(
    mem: &mut dyn PhysMem,
    slot: &SlotHandle,
    copy: u64,
    mode: PtMode,
) -> Option<(SavedContext, Vec<(Vpn, kindle_types::Pfn)>)> {
    let ctx = slot.read_context_checked(mem, copy)?;
    let list = if mode == PtMode::Rebuild {
        slot.read_mapping_list_checked(mem, copy)?
    } else {
        Vec::new()
    };
    Some((ctx, list))
}

/// Recovers every process with a consistent saved state into `kernel`,
/// then replays the redo log's valid prefix idempotently on top.
///
/// `kernel` must be freshly booted (post-crash) with the same memory map;
/// its NVM allocator is re-synchronised from the persisted bitmap first.
/// The log is *not* truncated here — the next checkpoint truncates it, so
/// a crash during recovery simply replays again.
///
/// # Errors
///
/// Propagates pool exhaustion while rebuilding page tables.
pub fn recover_all(
    mem: &mut dyn PhysMem,
    kernel: &mut Kernel,
    area: &SavedStateArea,
    log: &RedoLog,
) -> Result<RecoveryReport> {
    let start = mem.now();
    let mut report = RecoveryReport::default();

    // Re-synchronise NVM allocation state from the persisted bitmap.
    kernel.pools.nvm.recover(mem);

    for idx in area.occupied(mem) {
        let slot = area.slot(idx);
        let Some(valid) = slot.valid_copy(mem) else {
            // Crashed before the first checkpoint: the process is lost.
            continue;
        };
        let pid = slot.pid(mem) as u32;
        let mode = kernel.pt_mode();
        let (ctx, list) = match load_copy(mem, &slot, valid, mode) {
            Some(loaded) => loaded,
            None => match load_copy(mem, &slot, 1 - valid, mode) {
                // The flagged copy is torn; the previous checkpoint's copy
                // is still intact.
                Some(loaded) => {
                    report.copy_fallbacks += 1;
                    loaded
                }
                None => {
                    report.lost_pids.push(pid);
                    continue;
                }
            },
        };

        let mut vmas = VmaList::new();
        for vma in &ctx.vmas {
            vmas.insert(*vma)?;
        }

        let aspace = match mode {
            PtMode::Persistent => {
                let mut aspace = AddressSpace::adopt_persistent(
                    ctx.root,
                    kernel.layout.pt_log,
                    ctx.mapped_pages,
                );
                // Drop leaf entries whose frames lived in volatile DRAM,
                // and heal bitmap bits for surviving NVM frames whose
                // persisted word was lost in the write buffer.
                let mut stale: Vec<Vpn> = Vec::new();
                let mut nvm_frames: Vec<kindle_types::Pfn> = Vec::new();
                aspace.for_each_leaf(mem, |_, vpn, pte: Pte, _| {
                    if pte.mem_kind() == MemKind::Dram {
                        stale.push(vpn);
                    } else {
                        nvm_frames.push(pte.pfn());
                    }
                });
                for pfn in nvm_frames {
                    if kernel.pools.nvm.inner().contains(pfn)
                        && kernel.pools.nvm.ensure_allocated(mem, pfn)
                    {
                        report.frames_repaired += 1;
                    }
                }
                for vpn in stale {
                    aspace.unmap(mem, &mut kernel.pools, &kernel.costs, vpn.base())?;
                    report.dram_entries_dropped += 1;
                }
                aspace
            }
            PtMode::Rebuild => {
                let mut aspace = AddressSpace::new(
                    mem,
                    &mut kernel.pools,
                    PtMode::Rebuild,
                    kernel.layout.pt_log,
                )?;
                for (vpn, pfn) in list {
                    let va = vpn.base();
                    let writable =
                        vmas.find(va).map(|v| v.prot.allows(AccessKind::Write)).unwrap_or(false);
                    let mut flags = Pte::NVM;
                    if writable {
                        flags |= Pte::WRITABLE;
                    }
                    // Heal the allocation bit *before* installing the
                    // mapping, so no PTE ever points into an unallocated
                    // frame.
                    if kernel.pools.nvm.inner().contains(pfn)
                        && kernel.pools.nvm.ensure_allocated(mem, pfn)
                    {
                        report.frames_repaired += 1;
                    }
                    aspace.map(mem, &mut kernel.pools, &kernel.costs, va, pfn, flags)?;
                    report.pages_remapped += 1;
                }
                aspace
            }
        };

        let mut proc = Process::new(pid, aspace);
        proc.regs = ctx.regs;
        proc.vmas = vmas;
        proc.state = ProcState::Recovered;
        kernel.adopt_process(proc);
        report.recovered_pids.push(pid);
    }

    // Replay the redo log's valid prefix on top of the checkpointed state.
    // Replay goes through the regular syscall paths, which are idempotent
    // against already-applied records: a VmaAdd that overlaps is a no-op,
    // a VmaRemove of an absent range removes nothing.
    let (records, torn) = log.read_valid(mem);
    report.torn_log_records = torn;
    for rec in records {
        if kernel.process(rec.pid()).is_err() {
            // The owner was lost or never checkpointed; nothing to replay
            // onto.
            continue;
        }
        match rec {
            MetaRecord::ProcessCreate { .. } | MetaRecord::RegsUpdated { .. } => {}
            MetaRecord::VmaAdd { pid, start, end, prot, kind } => {
                let mut flags = MapFlags::FIXED;
                if kind == MemKind::Nvm {
                    flags |= MapFlags::NVM;
                }
                match kernel.sys_mmap(mem, pid, Some(start), end - start, prot, flags) {
                    Ok(_) => {}
                    Err(KindleError::Overlap(_)) => {} // applied before the crash
                    Err(e) => return Err(e),
                }
            }
            MetaRecord::VmaRemove { pid, start, end } => {
                kernel.sys_munmap(mem, pid, start, end - start)?;
            }
            MetaRecord::VmaProtect { pid, start, end, prot } => {
                kernel.sys_mprotect(mem, pid, start, end - start, prot)?;
            }
            // Page map/unmap records are never logged (see the checkpoint
            // engine); decoding them here would be a stale-log bug, not
            // state to replay.
            MetaRecord::PageMapped { .. } | MetaRecord::PageUnmapped { .. } => {}
        }
        report.log_records_replayed += 1;
    }
    // Replay must not re-log: discard records the syscalls emitted.
    kernel.take_meta_records();

    report.cycles = mem.now() - start;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointEngine, CheckpointScheme};
    use kindle_os::KernelConfig;
    use kindle_types::physmem::FlatMem;
    use kindle_types::{MapFlags, Prot, VirtAddr, PAGE_SIZE};

    /// FlatMem cannot lose data, so these tests exercise the *logic* of
    /// recovery (bitmap resync, list replay, PTBR adoption); true crash
    /// semantics are integration-tested against the full machine in `sim`.
    fn run_scheme(
        scheme: CheckpointScheme,
    ) -> (FlatMem, Kernel, SavedStateArea, RedoLog, u32, VirtAddr) {
        let mut mem = FlatMem::new(128 << 20);
        let mut cfg = KernelConfig::for_test(128 << 20);
        cfg.pt_mode = scheme;
        let mut kernel = Kernel::new(cfg, &mut mem).unwrap();
        let layout = kernel.layout;
        let mut engine = CheckpointEngine::new(&layout, scheme, Cycles::from_millis(10), 4);
        let pid = kernel.create_process(&mut mem).unwrap();
        let va = kernel
            .sys_mmap(
                &mut mem,
                pid,
                None,
                6 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        kernel.process_mut(pid).unwrap().regs.rip = 0xabcd;
        let recs = kernel.take_meta_records();
        engine.on_meta_records(&mut mem, &mut kernel, recs).unwrap();
        engine.checkpoint(&mut mem, &mut kernel).unwrap();
        let area = *engine.area();
        let log = *engine.log();
        (mem, kernel, area, log, pid, va)
    }

    fn reboot(scheme: CheckpointScheme, mem: &mut FlatMem) -> Kernel {
        let mut cfg = KernelConfig::for_test(128 << 20);
        cfg.pt_mode = scheme;
        Kernel::new(cfg, mem).unwrap()
    }

    #[test]
    fn rebuild_recovery_replays_mapping_list() {
        let (mut mem, old_kernel, area, log, pid, va) = run_scheme(CheckpointScheme::Rebuild);
        let old_pfn = old_kernel.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        drop(old_kernel);

        let mut kernel = reboot(CheckpointScheme::Rebuild, &mut mem);
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert_eq!(report.recovered_pids, vec![pid]);
        assert_eq!(report.pages_remapped, 6);
        assert!(report.lost_pids.is_empty());
        assert_eq!(report.copy_fallbacks, 0);

        let proc = kernel.process(pid).unwrap();
        assert_eq!(proc.state, ProcState::Recovered);
        assert_eq!(proc.regs.rip, 0xabcd);
        assert_eq!(proc.vmas.len(), 1);
        let pte = kernel.translate(&mut mem, pid, va).unwrap().unwrap();
        assert_eq!(pte.pfn(), old_pfn, "rebuilt table maps the same NVM frame");
        assert!(pte.is_writable());
        assert!(kernel.pools.nvm.is_allocated(old_pfn), "bitmap recovery keeps frame");
    }

    #[test]
    fn persistent_recovery_restores_ptbr() {
        let (mut mem, old_kernel, area, log, pid, va) = run_scheme(CheckpointScheme::Persistent);
        let old_root = old_kernel.process(pid).unwrap().aspace.root();
        let old_pfn = old_kernel.translate(&mut mem, pid, va).unwrap().unwrap().pfn();
        drop(old_kernel);

        let mut kernel = reboot(CheckpointScheme::Persistent, &mut mem);
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert_eq!(report.recovered_pids, vec![pid]);
        assert_eq!(report.pages_remapped, 0, "persistent scheme remaps nothing");

        let proc = kernel.process(pid).unwrap();
        assert_eq!(proc.aspace.root(), old_root, "PTBR simply restored");
        let pte = kernel.translate(&mut mem, pid, va).unwrap().unwrap();
        assert_eq!(pte.pfn(), old_pfn);
    }

    #[test]
    fn persistent_recovery_drops_dram_mappings() {
        let mut mem = FlatMem::new(128 << 20);
        let mut cfg = KernelConfig::for_test(128 << 20);
        cfg.pt_mode = CheckpointScheme::Persistent;
        let mut kernel = Kernel::new(cfg, &mut mem).unwrap();
        let layout = kernel.layout;
        let mut engine = CheckpointEngine::new(
            &layout,
            CheckpointScheme::Persistent,
            Cycles::from_millis(10),
            4,
        );
        let pid = kernel.create_process(&mut mem).unwrap();
        // One NVM area + one DRAM area.
        let nva = kernel
            .sys_mmap(
                &mut mem,
                pid,
                None,
                PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let dva = kernel
            .sys_mmap(&mut mem, pid, None, PAGE_SIZE as u64, Prot::RW, MapFlags::POPULATE)
            .unwrap();
        engine.checkpoint(&mut mem, &mut kernel).unwrap();
        let area = *engine.area();
        let log = *engine.log();
        drop(kernel);

        let mut kernel = reboot(CheckpointScheme::Persistent, &mut mem);
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert_eq!(report.dram_entries_dropped, 1);
        assert!(kernel.translate(&mut mem, pid, nva).unwrap().is_some());
        assert!(
            kernel.translate(&mut mem, pid, dva).unwrap().is_none(),
            "volatile DRAM mapping must be dropped"
        );
    }

    #[test]
    fn unclean_slot_without_valid_copy_is_skipped() {
        let mut mem = FlatMem::new(128 << 20);
        let cfg = KernelConfig::for_test(128 << 20);
        let mut kernel = Kernel::new(cfg, &mut mem).unwrap();
        let layout = kernel.layout;
        let area = SavedStateArea::new(layout.saved_state, 4);
        let log = RedoLog::new(layout.meta_log);
        // Slot claimed but never checkpointed.
        area.find_or_alloc(&mut mem, 42).unwrap();
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert!(report.recovered_pids.is_empty());
        assert!(kernel.process(42).is_err());
    }

    #[test]
    fn torn_valid_copy_falls_back_to_other_copy() {
        let (mut mem, mut old_kernel, area, log, pid, _va) = run_scheme(CheckpointScheme::Rebuild);
        // Second checkpoint publishes the *other* copy with rip=0xbeef.
        let layout = old_kernel.layout;
        let mut engine =
            CheckpointEngine::new(&layout, CheckpointScheme::Rebuild, Cycles::from_millis(10), 4);
        old_kernel.process_mut(pid).unwrap().regs.rip = 0xbeef;
        engine.checkpoint(&mut mem, &mut old_kernel).unwrap();
        drop(old_kernel);

        // Tear one word of the newly published copy.
        let idx = area.find(&mut mem, pid).unwrap();
        let slot = area.slot(idx);
        let valid = slot.valid_copy(&mut mem).unwrap();
        let victim = slot.copy_base(valid) + 8;
        let w = mem.read_u64(victim);
        mem.write_u64(victim, w ^ 0xff);

        let mut kernel = reboot(CheckpointScheme::Rebuild, &mut mem);
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert_eq!(report.copy_fallbacks, 1);
        assert_eq!(report.recovered_pids, vec![pid]);
        assert_eq!(
            kernel.process(pid).unwrap().regs.rip,
            0xabcd,
            "fallback restores the previous checkpoint's state"
        );
    }

    #[test]
    fn both_copies_torn_loses_process() {
        let (mut mem, old_kernel, area, log, pid, _va) = run_scheme(CheckpointScheme::Rebuild);
        drop(old_kernel);
        let idx = area.find(&mut mem, pid).unwrap();
        let slot = area.slot(idx);
        for copy in 0..2 {
            let victim = slot.copy_base(copy) + 8;
            let w = mem.read_u64(victim);
            mem.write_u64(victim, w ^ 0xff);
        }
        let mut kernel = reboot(CheckpointScheme::Rebuild, &mut mem);
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert_eq!(report.lost_pids, vec![pid]);
        assert!(report.recovered_pids.is_empty());
        assert!(kernel.process(pid).is_err());
    }

    #[test]
    fn log_replay_restores_post_checkpoint_vma_ops() {
        let (mut mem, mut old_kernel, area, log, pid, va) = run_scheme(CheckpointScheme::Rebuild);
        // After the checkpoint: one new VMA, one removal — logged but not
        // yet checkpointed when the crash hits.
        let mut engine = CheckpointEngine::new(
            &old_kernel.layout,
            CheckpointScheme::Rebuild,
            Cycles::from_millis(10),
            4,
        );
        // Re-attach the engine to the already-truncated log state.
        let extra = old_kernel
            .sys_mmap(&mut mem, pid, None, 2 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM)
            .unwrap();
        old_kernel.sys_munmap(&mut mem, pid, va, PAGE_SIZE as u64).unwrap();
        let recs = old_kernel.take_meta_records();
        engine.on_meta_records(&mut mem, &mut old_kernel, recs).unwrap();
        drop(old_kernel);

        let mut kernel = reboot(CheckpointScheme::Rebuild, &mut mem);
        let report = recover_all(&mut mem, &mut kernel, &area, &log).unwrap();
        assert!(report.log_records_replayed >= 2, "{report:?}");
        assert_eq!(report.torn_log_records, 0);
        let proc = kernel.process(pid).unwrap();
        assert!(proc.vmas.find(extra).is_some(), "logged mmap replayed");
        assert!(proc.vmas.find(va).is_none(), "logged munmap replayed");
        // Replay is idempotent: running recovery again on a fresh kernel
        // yields the same VMA layout.
        let mut kernel2 = reboot(CheckpointScheme::Rebuild, &mut mem);
        let report2 = recover_all(&mut mem, &mut kernel2, &area, &log).unwrap();
        assert_eq!(report2.log_records_replayed, report.log_records_replayed);
        assert_eq!(kernel2.process(pid).unwrap().vmas, kernel.process(pid).unwrap().vmas);
    }
}
