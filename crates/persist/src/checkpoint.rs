//! The periodic checkpoint engine.
//!
//! At the end of each checkpoint interval (paper default: 10 ms, after
//! Aurora) the engine, for every process:
//!
//! 1. saves the CPU state and OS metadata into the *working* context copy
//!    (reading the redo log to apply accumulated metadata changes);
//! 2. under the **rebuild** scheme, traverses the page table and
//!    diff-updates the virtual→NVM-frame mapping list in NVM — the cost
//!    that grows with mapped size and checkpoint frequency;
//! 3. atomically publishes the working copy as consistent;
//!
//! and finally truncates the redo log.

use kindle_os::{Kernel, MetaRecord, NvmLayout, PtMode};
use kindle_types::sanitize::{self, Event};
use kindle_types::{Cycles, MemKind, Pfn, PhysMem, Pte, Result, Vpn};

use crate::log::RedoLog;
use crate::slot::{SavedContext, SavedStateArea};

/// Scheme for keeping translation info consistent (paper §III-A). This is
/// deliberately the same type as [`PtMode`]: the checkpoint behaviour and
/// the page-table hosting are two halves of one design choice.
pub type CheckpointScheme = PtMode;

/// Counters kept by the engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Context copies written.
    pub contexts_saved: u64,
    /// Redo-log records appended.
    pub log_appends: u64,
    /// Redo-log records read back during checkpoints.
    pub log_applied: u64,
    /// Mapping-list entries compared (rebuild scheme).
    pub list_checked: u64,
    /// Mapping-list entries rewritten (rebuild scheme).
    pub list_written: u64,
    /// Checkpoints forced early by log overflow.
    pub forced_by_overflow: u64,
    /// Total simulated time spent inside checkpoints.
    pub cycles_in_checkpoints: Cycles,
}

/// The periodic checkpoint engine. See the module docs.
#[derive(Clone, Debug)]
pub struct CheckpointEngine {
    scheme: CheckpointScheme,
    interval: Cycles,
    next_due: Cycles,
    area: SavedStateArea,
    log: RedoLog,
    stats: CheckpointStats,
}

impl CheckpointEngine {
    /// Creates an engine over the kernel's NVM layout.
    pub fn new(
        layout: &NvmLayout,
        scheme: CheckpointScheme,
        interval: Cycles,
        max_procs: usize,
    ) -> Self {
        CheckpointEngine {
            scheme,
            interval,
            next_due: interval,
            area: SavedStateArea::new(layout.saved_state, max_procs),
            log: RedoLog::new(layout.meta_log),
            stats: CheckpointStats::default(),
        }
    }

    /// The saved-state area (recovery needs it).
    pub fn area(&self) -> &SavedStateArea {
        &self.area
    }

    /// The redo log.
    pub fn log(&self) -> &RedoLog {
        &self.log
    }

    /// Scheme in force.
    pub fn scheme(&self) -> CheckpointScheme {
        self.scheme
    }

    /// Checkpoint interval.
    pub fn interval(&self) -> Cycles {
        self.interval
    }

    /// Counters.
    pub fn stats(&self) -> &CheckpointStats {
        &self.stats
    }

    /// Appends kernel metadata records to the redo log, forcing an early
    /// checkpoint (and retrying) if the log fills.
    ///
    /// Page map/unmap records are *not* logged: page-allocation metadata is
    /// persisted by the frame allocator's bitmap, and the mapping list is
    /// maintained by page-table traversal at checkpoint time.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint failures.
    pub fn on_meta_records(
        &mut self,
        mem: &mut dyn PhysMem,
        kernel: &mut Kernel,
        records: Vec<MetaRecord>,
    ) -> Result<()> {
        for rec in records {
            if matches!(rec, MetaRecord::PageMapped { .. } | MetaRecord::PageUnmapped { .. }) {
                continue;
            }
            mem.advance(Cycles::new(kernel.costs.meta_log_op));
            if self.log.append(mem, &rec).is_err() {
                self.stats.forced_by_overflow += 1;
                self.checkpoint(mem, kernel)?;
                self.log.append(mem, &rec)?;
            } else {
                self.stats.log_appends += 1;
            }
        }
        Ok(())
    }

    /// True if a checkpoint is due at the current simulated time.
    pub fn due(&self, now: Cycles) -> bool {
        now >= self.next_due
    }

    /// Runs a checkpoint if due. Returns whether one ran. The next deadline
    /// is scheduled one interval after *completion*, so an overlong
    /// checkpoint does not create a backlog.
    ///
    /// # Errors
    ///
    /// Propagates slot exhaustion or list overflow.
    pub fn tick(&mut self, mem: &mut dyn PhysMem, kernel: &mut Kernel) -> Result<bool> {
        if !self.due(mem.now()) {
            return Ok(false);
        }
        self.checkpoint(mem, kernel)?;
        self.next_due = mem.now() + self.interval;
        Ok(true)
    }

    /// Runs one full checkpoint now.
    ///
    /// # Errors
    ///
    /// Propagates slot exhaustion or list overflow.
    pub fn checkpoint(&mut self, mem: &mut dyn PhysMem, kernel: &mut Kernel) -> Result<()> {
        // The whole checkpoint runs under the (simulated) big kernel lock:
        // its NVM traffic is ordered against the foreground thread's. The
        // lock events bracket the *call*, not the body, so the release is
        // reached even when the body propagates an error (KD010).
        sanitize::emit(|| Event::LockAcquire { id: sanitize::LOCK_KERNEL });
        let result = self.checkpoint_locked(mem, kernel);
        sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_KERNEL });
        result
    }

    /// The checkpoint body; runs with `LOCK_KERNEL` held by the caller.
    fn checkpoint_locked(&mut self, mem: &mut dyn PhysMem, kernel: &mut Kernel) -> Result<()> {
        let start = mem.now();
        // Apply accumulated metadata changes: read the log (charged). The
        // kernel's live state already reflects them; the reads model the
        // "get working copy and apply changes" step.
        let applied = self.log.read_all(mem).len() as u64;
        self.stats.log_applied += applied;

        for pid in kernel.pids() {
            let idx = self.area.find_or_alloc(mem, pid)?;
            let slot = self.area.slot(idx);
            let working = slot.working_copy(mem);

            // Gather the current context.
            let (ctx, entries) = {
                let proc = kernel.process(pid)?;
                let ctx = SavedContext {
                    regs: proc.regs,
                    root: proc.aspace.root(),
                    mapped_pages: proc.aspace.mapped_pages(),
                    vmas: proc.vmas.iter().copied().collect(),
                };
                let entries = match self.scheme {
                    CheckpointScheme::Persistent => Vec::new(),
                    CheckpointScheme::Rebuild => {
                        // Traverse the page table (charged reads) collecting
                        // virtual → NVM-frame pairs.
                        let mut v: Vec<(Vpn, Pfn)> = Vec::new();
                        proc.aspace.for_each_leaf(mem, |_, vpn, pte: Pte, _| {
                            if pte.mem_kind() == MemKind::Nvm {
                                v.push((vpn, pte.pfn()));
                            }
                        });
                        v
                    }
                };
                (ctx, entries)
            };

            slot.write_context(mem, working, &ctx)?;
            self.stats.contexts_saved += 1;

            if self.scheme == CheckpointScheme::Rebuild {
                self.stats.list_checked += entries.len() as u64;
                let written = slot.update_mapping_list(
                    mem,
                    working,
                    &entries,
                    kernel.costs.mapping_list_op,
                    self.area.list_capacity(),
                )?;
                self.stats.list_written += written;
            }

            slot.publish(mem, working);
        }

        self.log.truncate(mem);
        self.stats.checkpoints += 1;
        self.stats.cycles_in_checkpoints += mem.now() - start;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_os::{KernelConfig, NvmLayout};
    use kindle_types::physmem::FlatMem;
    use kindle_types::{MapFlags, Prot, PAGE_SIZE};

    fn setup(scheme: CheckpointScheme) -> (FlatMem, Kernel, CheckpointEngine, u32) {
        let mut mem = FlatMem::new(128 << 20);
        let mut cfg = KernelConfig::for_test(128 << 20);
        cfg.pt_mode = scheme;
        let mut kernel = Kernel::new(cfg, &mut mem).unwrap();
        let layout = kernel.layout;
        let engine = CheckpointEngine::new(&layout, scheme, Cycles::from_millis(10), 4);
        let pid = kernel.create_process(&mut mem).unwrap();
        (mem, kernel, engine, pid)
    }

    fn layout_of(kernel: &Kernel) -> NvmLayout {
        kernel.layout
    }

    #[test]
    fn checkpoint_saves_context_and_list() {
        let (mut mem, mut kernel, mut engine, pid) = setup(CheckpointScheme::Rebuild);
        let va = kernel
            .sys_mmap(
                &mut mem,
                pid,
                None,
                8 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        let recs = kernel.take_meta_records();
        engine.on_meta_records(&mut mem, &mut kernel, recs).unwrap();
        engine.checkpoint(&mut mem, &mut kernel).unwrap();

        let idx = engine.area().find(&mut mem, pid).unwrap();
        let slot = engine.area().slot(idx);
        let valid = slot.valid_copy(&mut mem).expect("consistent copy published");
        let ctx = slot.read_context(&mut mem, valid);
        assert_eq!(ctx.mapped_pages, 8);
        assert_eq!(ctx.vmas.len(), 1);
        assert_eq!(ctx.vmas[0].start, va);
        let list = slot.read_mapping_list(&mut mem, valid);
        assert_eq!(list.len(), 8, "all NVM pages recorded");
        assert!(engine.log().is_empty(&mut mem), "log truncated after checkpoint");
        assert_eq!(engine.stats().checkpoints, 1);
    }

    #[test]
    fn persistent_scheme_skips_list() {
        let (mut mem, mut kernel, mut engine, pid) = setup(CheckpointScheme::Persistent);
        kernel
            .sys_mmap(
                &mut mem,
                pid,
                None,
                4 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        engine.checkpoint(&mut mem, &mut kernel).unwrap();
        let idx = engine.area().find(&mut mem, pid).unwrap();
        let slot = engine.area().slot(idx);
        let valid = slot.valid_copy(&mut mem).unwrap();
        let ctx = slot.read_context(&mut mem, valid);
        assert_eq!(ctx.root, kernel.process(pid).unwrap().aspace.root());
        assert_eq!(engine.stats().list_checked, 0);
        assert_eq!(slot.read_mapping_list(&mut mem, valid).len(), 0);
    }

    #[test]
    fn second_checkpoint_writes_nothing_when_unchanged() {
        let (mut mem, mut kernel, mut engine, pid) = setup(CheckpointScheme::Rebuild);
        kernel
            .sys_mmap(
                &mut mem,
                pid,
                None,
                16 * PAGE_SIZE as u64,
                Prot::RW,
                MapFlags::NVM | MapFlags::POPULATE,
            )
            .unwrap();
        engine.checkpoint(&mut mem, &mut kernel).unwrap();
        let w_first = engine.stats().list_written;
        assert_eq!(w_first, 16);
        engine.checkpoint(&mut mem, &mut kernel).unwrap();
        // Second checkpoint targets the other copy: it must write all 16
        // (that copy was never populated).
        assert_eq!(engine.stats().list_written, 32);
        engine.checkpoint(&mut mem, &mut kernel).unwrap();
        // Third checkpoint returns to copy 0 which already matches.
        assert_eq!(engine.stats().list_written, 32, "steady state writes nothing");
        assert_eq!(engine.stats().list_checked, 48);
    }

    #[test]
    fn tick_fires_on_interval() {
        let (mut mem, mut kernel, mut engine, _pid) = setup(CheckpointScheme::Persistent);
        assert!(!engine.tick(&mut mem, &mut kernel).unwrap(), "not due at t=0");
        mem.advance(Cycles::from_millis(10));
        assert!(engine.tick(&mut mem, &mut kernel).unwrap());
        assert!(!engine.tick(&mut mem, &mut kernel).unwrap(), "rescheduled");
        assert_eq!(engine.stats().checkpoints, 1);
    }

    #[test]
    fn log_overflow_forces_checkpoint() {
        let (mut mem, mut kernel, _engine, pid) = setup(CheckpointScheme::Persistent);
        // Tiny log: capacity 2 records.
        let mut layout = layout_of(&kernel);
        layout.meta_log.size = 64 + 2 * MetaRecord::LOG_BYTES;
        let mut engine = CheckpointEngine::new(
            &layout,
            CheckpointScheme::Persistent,
            Cycles::from_millis(10),
            4,
        );
        let recs = vec![
            MetaRecord::RegsUpdated { pid },
            MetaRecord::RegsUpdated { pid },
            MetaRecord::RegsUpdated { pid },
        ];
        engine.on_meta_records(&mut mem, &mut kernel, recs).unwrap();
        assert_eq!(engine.stats().forced_by_overflow, 1);
        assert_eq!(engine.stats().checkpoints, 1);
    }
}
