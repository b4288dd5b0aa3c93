//! The full simulated machine.

use kindle_cpu::Activity;
use kindle_hscc::HsccEngine;
use kindle_mem::{Backend, NvmConfig, PatrolOutcome, PowerSwitch};
use kindle_os::{
    DaemonKind, IntegrityOutcome, Kernel, KernelConfig, PatrolPassOutcome, PatrolState,
    RetireOutcome, ScrubState, UnmapOutcome,
};
use kindle_persist::{recover_all, CheckpointEngine, RecoveryReport};
use kindle_ssp::SspEngine;
use kindle_tlb::{MsrFile, PageWalker, TlbEntry, TwoLevelTlb};
use kindle_trace::ReplayProgram;
use kindle_types::sanitize::{self, ThreadId};
use kindle_types::{
    AccessKind, Cycles, KindleError, MapFlags, MemKind, Pfn, PhysAddr, PhysMem, Prot, Pte, Result,
    Rng64, VirtAddr, Vpn, CACHE_LINE,
};

use crate::config::MachineConfig;
use crate::daemon;
use crate::hw::Hw;
use crate::report::SimReport;

/// Options for a trace replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Wrap the replay in an SSP failure-atomic section
    /// (`checkpoint_start` / `checkpoint_end`).
    pub fase: bool,
    /// Cap on replayed operations (`None` = whole trace).
    pub max_ops: Option<u64>,
}

/// Summary of one replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Operations replayed.
    pub ops: u64,
    /// Simulated time from first to last operation.
    pub cycles: Cycles,
    /// Demand-paging faults taken during the replay.
    pub faults: u64,
    /// Base address chosen for each trace area.
    pub area_bases: Vec<VirtAddr>,
}

/// DRAM frames every boot reserves at the bottom for the kernel image.
const KERNEL_RESERVED_DRAM_FRAMES: u64 = 256;

/// Saved-state slots the checkpoint engine carves at every boot.
const CHECKPOINT_SLOTS: usize = 8;

/// Cycles one TLB shootdown or full flush costs the caller.
const SHOOTDOWN_CYCLES: u64 = 20;

/// What one boot builds over the hardware, in boot order: the kernel, the
/// checkpoint, SSP and HSCC engines, and the scrubd and patrold states.
type Booted = (
    Kernel,
    Option<CheckpointEngine>,
    Option<SspEngine>,
    Option<HsccEngine>,
    Option<ScrubState>,
    Option<PatrolState>,
);

/// Boots the OS over `hw`: the kernel, then the checkpoint, SSP and HSCC
/// engines (HSCC allocates from the new kernel's pools), then the scrubd
/// and patrold states, whose schedules start from the boot clock and whose
/// patrol walk starts at the pool base. No step advances the clock, and
/// the checkpoint and HSCC engines keep their first deadline at their
/// absolute interval.
fn boot(cfg: &MachineConfig, hw: &mut Hw) -> Result<Booted> {
    let kcfg = KernelConfig {
        memory_map: cfg.mem.layout.clone(),
        pt_mode: cfg.pt_mode,
        costs: cfg.costs.clone(),
        dram_reserved_frames: KERNEL_RESERVED_DRAM_FRAMES,
    };
    let mut kernel = Kernel::new(kcfg, hw)?;
    let persist = cfg.checkpoint.map(|interval| {
        CheckpointEngine::new(&kernel.layout, cfg.pt_mode, interval, CHECKPOINT_SLOTS)
    });
    let ssp = cfg.ssp.as_ref().map(|s| SspEngine::new(&kernel.layout, s.clone()));
    let hscc = match &cfg.hscc {
        Some(h) => Some(HsccEngine::new(hw, &mut kernel, h.clone())?),
        None => None,
    };
    let now = hw.now();
    let scrub = cfg.scrub_interval.map(|interval| ScrubState::new(interval, now));
    let patrol = cfg.patrol_interval.map(|interval| PatrolState::new(interval, now));
    Ok((kernel, persist, ssp, hscc, scrub, patrol))
}

/// The machine: hardware + OS + optional prototype engines.
///
/// A clone is a full copy of the machine, except that it shares an armed
/// [`PowerSwitch`] with the original: cutting it freezes both.
/// [`Machine::snapshot`] is the fork that drops the switch.
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: MachineConfig,
    /// Timing hardware (clock, caches, memory).
    pub hw: Hw,
    /// Two-level TLB.
    pub tlb: TwoLevelTlb,
    /// Hardware page-table walker.
    pub walker: PageWalker,
    /// Model-specific registers (SSP/HSCC hardware configuration).
    pub msr: MsrFile,
    /// The gemOS-analog kernel.
    pub kernel: Kernel,
    /// Process-persistence checkpoint engine.
    pub persist: Option<CheckpointEngine>,
    /// SSP prototype engine.
    pub ssp: Option<SspEngine>,
    /// HSCC prototype engine.
    pub hscc: Option<HsccEngine>,
    /// Scrub daemon engine state (schedule + counters), when configured.
    pub scrub: Option<ScrubState>,
    /// Patrol daemon engine state (schedule + pool cursor + counters),
    /// when configured.
    pub patrol: Option<PatrolState>,
    tlb_shootdowns: u64,
    /// Process whose translations currently occupy the TLB (no ASIDs, as
    /// in gemOS: a context switch flushes).
    active_pid: Option<u32>,
}

impl Machine {
    /// Boots a machine.
    ///
    /// # Errors
    ///
    /// Propagates kernel/engine construction failures;
    /// [`KindleError::InvalidArgument`] when `cfg.mem.nvm` departs from
    /// [`NvmConfig::pcm`] under a non-PCM backend, whose timing comes
    /// from the backend alone.
    pub fn new(cfg: MachineConfig) -> Result<Self> {
        if cfg.mem.backend.is_some_and(|b| b != Backend::Pcm) && cfg.mem.nvm != NvmConfig::pcm() {
            return Err(KindleError::InvalidArgument(
                "MemConfig::nvm overrides only the pcm backend's timing",
            ));
        }
        let mut hw = Hw::new(&cfg);
        let (kernel, persist, ssp, hscc, scrub, patrol) = boot(&cfg, &mut hw)?;
        let mut m = Machine {
            hw,
            tlb: TwoLevelTlb::new(&cfg.tlb),
            walker: PageWalker::new(),
            msr: MsrFile::new(),
            kernel,
            persist,
            ssp,
            hscc,
            cfg,
            scrub,
            patrol,
            tlb_shootdowns: 0,
            active_pid: None,
        };
        m.register_daemons();
        Ok(m)
    }

    /// When `kthreads` is on, registers a kthread for every daemon whose
    /// engine is configured, in [`DaemonKind::ALL`] order. Without a
    /// kthread a daemon's passes run inline from the timer loop.
    fn register_daemons(&mut self) {
        sanitize::set_current_thread(ThreadId::MAIN);
        if !self.cfg.kthreads {
            return;
        }
        for kind in DaemonKind::ALL {
            if daemon::enabled(self, kind) {
                self.kernel.sched.register_daemon(kind);
            }
        }
    }

    /// Dispatches one due pass of daemon `kind`: on its kthread when one is
    /// registered (wake + drive the scheduler until daemons drain), inline
    /// on the current context otherwise.
    fn dispatch_daemon(&mut self, kind: DaemonKind, pid: u32) -> Result<()> {
        match self.kernel.sched.daemon_tid(kind) {
            Some(tid) => {
                self.kernel.sched.wake(tid);
                while self.step(pid)? {}
                Ok(())
            }
            None => daemon::run(self, kind, pid),
        }
    }

    /// Switches the running simulated thread to `next`, charging the
    /// configured `kthread_switch` cost and emitting a
    /// [`sanitize::Event::ThreadSwitch`] if it differs from the current
    /// one. No-op for a switch to the already-running thread.
    fn context_switch_to(&mut self, next: ThreadId) {
        let from = self.kernel.sched.current();
        if from == next || self.kernel.sched.thread(next).is_none() {
            return;
        }
        self.hw.advance(Cycles::new(self.kernel.costs.kthread_switch));
        self.kernel.sched.switch_to(next);
        sanitize::set_current_thread(next);
        let cycle = self.hw.now().as_u64();
        sanitize::emit(|| sanitize::Event::ThreadSwitch { from, to: next, cycle });
    }

    /// Runs one scheduler quantum: picks the next runnable kthread
    /// (round-robin), context-switches to it, and dispatches it. Daemons
    /// run one pass on behalf of foreground process `pid` and go back to
    /// sleep; returns `true` when a daemon ran, `false` when control is
    /// back with the main thread. Drive `while m.step(pid)? {}` to drain
    /// all woken daemons.
    ///
    /// # Errors
    ///
    /// Propagates engine failures from the dispatched daemon.
    pub fn step(&mut self, pid: u32) -> Result<bool> {
        let next = self.kernel.sched.pick_next();
        let Some(daemon) = self.kernel.sched.thread(next).map(|t| t.daemon) else {
            return Ok(false);
        };
        self.context_switch_to(next);
        let Some(kind) = daemon else {
            return Ok(false);
        };
        let mut result = Ok(());
        if daemon::due(self, kind) {
            result = daemon::run(self, kind, pid);
        }
        self.kernel.sched.sleep(next);
        result?;
        Ok(true)
    }

    /// Active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.hw.now()
    }

    /// TLB shootdowns performed so far.
    pub fn tlb_shootdowns(&self) -> u64 {
        self.tlb_shootdowns
    }

    /// Creates a process.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn spawn_process(&mut self) -> Result<u32> {
        let pid = self.hw.during(Activity::Os, |hw| self.kernel.create_process(hw))?;
        self.drain_meta()?;
        Ok(pid)
    }

    /// Hands the kernel's pending metadata records to the checkpoint
    /// engine's log (OS time), or drops them when checkpointing is off.
    pub(crate) fn drain_meta(&mut self) -> Result<()> {
        let recs = self.kernel.take_meta_records();
        match self.persist.as_mut() {
            Some(engine) if !recs.is_empty() => self
                .hw
                .during(Activity::Os, |hw| engine.on_meta_records(hw, &mut self.kernel, recs)),
            _ => Ok(()),
        }
    }

    /// The one system-call path: `call` runs the kernel work as OS time and
    /// returns its result with the pages it unmapped. Each of those pages
    /// is shot down, the metadata records are logged and due timers fire,
    /// all outside the OS bracket.
    fn syscall<T>(
        &mut self,
        pid: u32,
        call: impl FnOnce(&mut Kernel, &mut Hw) -> Result<(T, UnmapOutcome)>,
    ) -> Result<T> {
        let (out, unmapped) = self.hw.during(Activity::Os, |hw| call(&mut self.kernel, hw))?;
        for vpn in unmapped.unmapped {
            self.shootdown(pid, vpn);
        }
        self.drain_meta()?;
        self.poll_timers(pid)?;
        Ok(out)
    }

    /// Drops `pid`'s cached translation of `vpn`, whose mapping changed.
    /// The TLB holds only the active process's translations (no ASIDs), so
    /// another process's remap costs nothing here.
    #[allow(clippy::disallowed_methods)] // Machine owns the TLB: one remap's shootdown
    fn shootdown(&mut self, pid: u32, vpn: Vpn) {
        if self.active_pid != Some(pid) {
            return;
        }
        self.hw.advance(Cycles::new(SHOOTDOWN_CYCLES));
        if let Some(entry) = self.tlb.invalidate(vpn) {
            self.tlb_shootdowns += 1;
            self.on_tlb_dropped(entry);
        }
    }

    /// Flushes every cached translation, all of which belong to the active
    /// process, and counts one shootdown. Used when a page-table frame was
    /// relocated (any entry may have been filled through the old frame),
    /// when a process is killed, and before every HSCC migration pass,
    /// where the flush folds the live access counts into the PTEs the scan
    /// reads and covers every page the pass remaps.
    pub(crate) fn flush_process_tlb(&mut self) {
        self.hw.advance(Cycles::new(SHOOTDOWN_CYCLES));
        self.tlb_shootdowns += 1;
        self.drop_tlb_entries();
    }

    /// Empties the TLB, handing every entry to [`Machine::on_tlb_dropped`]:
    /// the full flush and the context switch.
    #[allow(clippy::disallowed_methods)] // Machine owns the TLB: full flushes
    fn drop_tlb_entries(&mut self) {
        for entry in self.tlb.flush_all() {
            self.on_tlb_dropped(entry);
        }
    }

    /// `mmap` without a placement hint.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_mmap`].
    pub fn mmap(&mut self, pid: u32, len: u64, prot: Prot, flags: MapFlags) -> Result<VirtAddr> {
        self.mmap_at(pid, None, len, prot, flags)
    }

    /// `mmap` with an optional hint / FIXED placement.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_mmap`].
    pub fn mmap_at(
        &mut self,
        pid: u32,
        hint: Option<VirtAddr>,
        len: u64,
        prot: Prot,
        flags: MapFlags,
    ) -> Result<VirtAddr> {
        self.syscall(pid, |k, hw| {
            Ok((k.sys_mmap(hw, pid, hint, len, prot, flags)?, UnmapOutcome::default()))
        })
    }

    /// `munmap`, with TLB shootdown.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_munmap`].
    pub fn munmap(&mut self, pid: u32, addr: VirtAddr, len: u64) -> Result<()> {
        self.syscall(pid, |k, hw| Ok(((), k.sys_munmap(hw, pid, addr, len)?)))
    }

    /// `mprotect`, with TLB shootdown on affected pages.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_mprotect`].
    pub fn mprotect(&mut self, pid: u32, addr: VirtAddr, len: u64, prot: Prot) -> Result<()> {
        self.syscall(pid, |k, hw| Ok(((), k.sys_mprotect(hw, pid, addr, len, prot)?)))
    }

    /// `mremap` (move semantics), with TLB shootdown.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_mremap`].
    pub fn mremap(
        &mut self,
        pid: u32,
        old_addr: VirtAddr,
        old_len: u64,
        new_len: u64,
    ) -> Result<VirtAddr> {
        self.syscall(pid, |k, hw| k.sys_mremap(hw, pid, old_addr, old_len, new_len))
    }

    /// `fork`: duplicates a process (eager page copy, as in gemOS).
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_fork`].
    pub fn fork(&mut self, parent: u32) -> Result<u32> {
        self.syscall(parent, |k, hw| Ok((k.sys_fork(hw, parent)?, UnmapOutcome::default())))
    }

    /// One 8-byte access.
    ///
    /// # Errors
    ///
    /// [`KindleError::Unmapped`]/[`KindleError::ProtectionFault`] for
    /// invalid accesses.
    pub fn access(&mut self, pid: u32, va: VirtAddr, kind: AccessKind) -> Result<Cycles> {
        self.access_sized(pid, va, 8, kind)
    }

    /// An access spanning `size` bytes (split into line-sized pieces).
    ///
    /// # Errors
    ///
    /// As [`Machine::access`].
    pub fn access_sized(
        &mut self,
        pid: u32,
        va: VirtAddr,
        size: u32,
        kind: AccessKind,
    ) -> Result<Cycles> {
        let mut total = Cycles::ZERO;
        let mut cur = va;
        let end = va + size.max(1) as u64;
        while cur < end {
            total += self.access_line(pid, cur, kind)?;
            cur = cur.line_base() + CACHE_LINE as u64;
        }
        self.poll_timers(pid)?;
        Ok(total)
    }

    /// Core per-line access path: TLB → (walk → fault) → routing → caches.
    fn access_line(&mut self, pid: u32, va: VirtAddr, kind: AccessKind) -> Result<Cycles> {
        self.hw.core.count_mem_op();
        // No ASIDs: switching processes flushes the TLB (context switch).
        if self.active_pid != Some(pid) {
            if self.active_pid.is_some() {
                self.drop_tlb_entries();
                self.hw.advance(Cycles::new(self.kernel.costs.kthread_switch));
            }
            self.active_pid = Some(pid);
        }
        let vpn = va.page_number();
        let start = self.hw.now();

        // 1. TLB.
        let (tlb_lat, hit, dropped) = self.tlb.lookup(vpn);
        self.hw.advance(tlb_lat);
        let hit = hit.copied();
        if let Some(entry) = dropped {
            self.on_tlb_dropped(entry);
        }

        // 2. Miss: hardware walk, faulting into the kernel if needed.
        let info = match hit {
            Some(e) => e,
            None => self.fill_tlb(pid, va, kind)?,
        };

        if kind.is_write() && !info.writable {
            return Err(KindleError::ProtectionFault(va));
        }

        // 3. First write to a clean page: hardware sets the PTE dirty bit.
        if kind.is_write() && !info.dirty {
            let pte = Pte::from_bits(self.hw.read_u64(info.pte_pa));
            self.hw.write_u64(info.pte_pa, pte.with_flags(Pte::DIRTY).bits());
            if let Some(e) = self.tlb.peek_mut(vpn) {
                e.dirty = true;
            }
        }

        // 4. SSP routing: writes inside a FASE go to the non-current page.
        let line_idx = va.line_in_page();
        let target_pfn = match info.ssp {
            Some(ext) if kind.is_write() => ext.write_target(info.pfn, line_idx),
            Some(ext) => ext.read_target(info.pfn, line_idx),
            None => info.pfn,
        };
        let line_pa = target_pfn.base() + (line_idx * CACHE_LINE) as u64;
        // Tell the sanitizer which NVM lines the application observes, so
        // it can prove no read ever consumed a known-corrupt line.
        if !kind.is_write() && info.mem_kind == MemKind::Nvm {
            sanitize::emit(|| sanitize::Event::DataLineRead { line: line_pa.as_u64() });
        }
        let out = self.hw.access_line(line_pa, kind);

        // 5. SSP bookkeeping for routed writes.
        if info.ssp.is_some() && kind.is_write() {
            if let Some(e) = self.tlb.peek_mut(vpn) {
                if let Some(ext) = e.ssp.as_mut() {
                    ext.updated |= 1 << line_idx;
                }
            }
            if let Some(engine) = self.ssp.as_mut() {
                engine.on_write(line_pa);
            }
        }

        // 6. HSCC access counting on LLC misses to NVM pages.
        if self.hscc.is_some() && out.llc_miss && info.mem_kind == MemKind::Nvm {
            let mut writeout: Option<(PhysAddr, u64)> = None;
            if let Some(e) = self.tlb.peek_mut(vpn) {
                e.access_count = e.access_count.saturating_add(1);
                if !e.count_written_this_interval {
                    e.count_written_this_interval = true;
                    writeout = Some((e.pte_pa, e.access_count as u64));
                    e.access_count = 0;
                }
            }
            if let Some((pte_pa, count)) = writeout {
                // Once-per-interval hardware RMW of the PTE count.
                let pte = Pte::from_bits(self.hw.read_u64(pte_pa));
                self.hw.write_u64(pte_pa, pte.with_access_count(pte.access_count() + count).bits());
            }
        }

        Ok(self.hw.now() - start)
    }

    /// Hardware walk (fault on demand) and TLB fill; returns the installed
    /// entry.
    fn fill_tlb(&mut self, pid: u32, va: VirtAddr, kind: AccessKind) -> Result<TlbEntry> {
        let vpn = va.page_number();
        let root = self.kernel.process(pid)?.aspace.root();
        let mut walker = std::mem::take(&mut self.walker);
        let first = walker.walk_and_mark(&mut self.hw, root, va, kind.is_write());
        self.walker = walker;

        let outcome = match first {
            Ok(o) => o,
            Err(_) => {
                // Page fault into the kernel.
                self.hw.during(Activity::Os, |hw| self.kernel.handle_fault(hw, pid, va, kind))?;
                self.drain_meta()?;
                let root = self.kernel.process(pid)?.aspace.root();
                let mut walker = std::mem::take(&mut self.walker);
                let second = walker.walk_and_mark(&mut self.hw, root, va, kind.is_write());
                self.walker = walker;
                second.map_err(|_| KindleError::Corrupted("fault handler did not map page"))?
            }
        };

        let pte = outcome.pte;
        // A poisoned mapping must never be cached or served: the frame
        // under it lost its content to an uncorrectable media fault.
        if pte.is_poisoned() {
            return Err(KindleError::PagePoisoned(va));
        }
        let mut entry = TlbEntry::new(vpn, pte.pfn(), pte.is_writable(), pte.mem_kind())
            .with_pte_pa(outcome.pte_pa);
        entry.dirty = pte.is_dirty();

        // SSP: register NVM pages touched inside a FASE.
        if pte.mem_kind() == MemKind::Nvm && self.msr.in_nvm_range(va) {
            if let Some(engine) = self.ssp.as_mut() {
                if engine.in_fase() {
                    let ext = engine.register_page(
                        &mut self.hw,
                        &mut self.kernel.pools,
                        vpn,
                        pte.pfn(),
                    )?;
                    entry.ssp = Some(ext);
                }
            }
        }

        if let Some(dropped) = self.tlb.install(entry) {
            self.on_tlb_dropped(dropped);
        }
        Ok(entry)
    }

    /// Hardware-side handling of an entry leaving the TLB hierarchy. The
    /// entry is the active process's: the TLB holds no other.
    fn on_tlb_dropped(&mut self, entry: TlbEntry) {
        if entry.ssp.is_some() {
            if let Some(engine) = self.ssp.as_mut() {
                engine.on_tlb_evict(&mut self.hw, &entry);
            }
        }
        if let (Some(engine), Some(pid)) = (self.hscc.as_mut(), self.active_pid) {
            let count = u64::from(entry.access_count);
            engine.on_tlb_evict(&mut self.hw, &mut self.kernel, pid, entry.vpn, count);
        }
    }

    /// One patrold batch: walks up to
    /// [`PATROL_BATCH_FRAMES`](kindle_os::PATROL_BATCH_FRAMES) allocated
    /// general-pool NVM frames from the engine's cursor (wrapping at the
    /// pool end) and checksum-verifies each against the controller's
    /// store-time sums. A mismatching line is healed through the ECP
    /// erasure decode when possible; a frame that stays corrupt is lost
    /// data, and the kernel poisons its mapping (killing the owner) or
    /// quarantines it when unmapped. Page-table frames are skipped —
    /// scrubd's shadow verify both detects *and repairs* those.
    ///
    /// The caller (normally the `patrold` daemon) must flush cached
    /// translations for every pid in the outcome's `killed` list and fold
    /// the outcome into [`Machine::patrol`] via `complete_pass`.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures while poisoning or retiring a frame.
    pub fn patrol_data_frames(&mut self) -> Result<PatrolPassOutcome> {
        match self.patrol.as_mut() {
            Some(state) => daemon::patrol_batch(&mut self.hw, &mut self.kernel, state),
            None => Ok(PatrolPassOutcome::default()),
        }
    }

    /// Fires every engine whose deadline passed. Called after each access
    /// and syscall.
    fn poll_timers(&mut self, pid: u32) -> Result<()> {
        loop {
            let mut fired = false;

            // Frames whose media failed since the last poll — wear-out
            // retries exhausted, or a scrub pass out of correction budget.
            // Verify the content first: a wear-out victim still holds what
            // was written (its checksums match), so the OS retires it
            // content-preservingly (remapping a mapped data page onto a
            // fresh frame; relocating a live page table). A frame whose
            // checksum stays wrong even after the patrol heal is lost data
            // — that takes the poison path instead of copying corrupt
            // bytes forward.
            for raw in self.hw.mc.take_failed_frames() {
                let pfn = Pfn::new(raw);
                let verdict = self.hw.mc.patrol_frame(pfn.base().as_u64());
                let outcome = self.hw.during(Activity::Os, |hw| match verdict {
                    PatrolOutcome::Uncorrectable { .. } => {
                        self.kernel.poison_or_retire_frame(hw, pfn)
                    }
                    _ => self.kernel.retire_nvm_frame(hw, pfn).map(IntegrityOutcome::Retired),
                })?;
                match outcome {
                    IntegrityOutcome::Retired(RetireOutcome::Remapped {
                        pid: owner, vpn, ..
                    }) => self.shootdown(owner, vpn),
                    IntegrityOutcome::Retired(RetireOutcome::TableRelocated { .. })
                    | IntegrityOutcome::Poisoned { .. } => self.flush_process_tlb(),
                    IntegrityOutcome::Retired(RetireOutcome::Quarantined) => {}
                }
                self.drain_meta()?;
                fired = true;
            }

            let now = self.hw.now();

            if self.persist.as_ref().is_some_and(|e| e.due(now)) {
                self.dispatch_daemon(DaemonKind::Checkpoint, pid)?;
                fired = true;
            }

            if let Some(engine) = self.ssp.as_mut() {
                if engine.consolidation_due(now) {
                    let costs = &self.kernel.costs;
                    self.hw.during(Activity::Consolidation, |hw| engine.consolidate(hw, costs));
                    fired = true;
                }
                if engine.interval_due(self.hw.now()) {
                    self.hw.during(Activity::SspInterval, |hw| {
                        engine.end_interval(hw, &mut self.tlb, &self.kernel.costs)
                    });
                    fired = true;
                }
            }

            if self.hscc.as_ref().is_some_and(|e| e.due(now)) {
                self.dispatch_daemon(DaemonKind::Migration, pid)?;
                fired = true;
            }

            if self.scrub.as_ref().is_some_and(|s| s.due(self.hw.now())) {
                self.dispatch_daemon(DaemonKind::Scrub, pid)?;
                fired = true;
            }

            if self.patrol.as_ref().is_some_and(|s| s.due(self.hw.now())) {
                self.dispatch_daemon(DaemonKind::Patrol, pid)?;
                fired = true;
            }

            if !fired {
                return Ok(());
            }
        }
    }

    /// Runs the generated template program: mmaps its areas (NVM-tagged
    /// ones with `MAP_NVM`), optionally opens a FASE, and replays every
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates mapping and access failures.
    pub fn run_replay(
        &mut self,
        pid: u32,
        program: &ReplayProgram,
        opts: ReplayOptions,
    ) -> Result<ReplayReport> {
        let mut bases = Vec::with_capacity(program.layout().areas().len());
        let mut nvm_lo = VirtAddr::new(u64::MAX);
        let mut nvm_hi = VirtAddr::new(0);
        for area in program.layout().areas() {
            let flags = if area.nvm { MapFlags::NVM } else { MapFlags::EMPTY };
            let va = self.mmap(pid, area.size, Prot::RW, flags)?;
            if area.nvm {
                nvm_lo = nvm_lo.min(va);
                nvm_hi = nvm_hi.max(va + area.size);
            }
            bases.push(va);
        }
        if opts.fase && nvm_lo < nvm_hi {
            self.msr.nvm_range = Some((nvm_lo, nvm_hi));
            let now = self.hw.now();
            if let Some(engine) = self.ssp.as_mut() {
                engine.fase_begin(now);
            }
        }

        let faults_before = self.kernel.stats().page_faults;
        let t0 = self.hw.now();
        let mut ops = 0u64;
        for rec in program.records() {
            if let Some(cap) = opts.max_ops {
                if ops >= cap {
                    break;
                }
            }
            let va = bases[rec.area.0 as usize] + rec.offset;
            self.access_sized(pid, va, rec.size.max(8), rec.op)?;
            ops += 1;
        }

        if opts.fase {
            if let Some(engine) = self.ssp.as_mut() {
                self.hw.during(Activity::SspInterval, |hw| {
                    engine.end_interval(hw, &mut self.tlb, &self.kernel.costs);
                    engine.fase_end();
                });
            }
            self.msr.nvm_range = None;
        }

        Ok(ReplayReport {
            ops,
            cycles: self.hw.now() - t0,
            faults: self.kernel.stats().page_faults - faults_before,
            area_bases: bases,
        })
    }

    /// Simulates a power failure and reboot: hardware state is lost, NVM
    /// durable contents survive, and a fresh kernel boots (the prototype
    /// engines are re-created over the persistent regions).
    ///
    /// # Errors
    ///
    /// Propagates reboot failures.
    pub fn crash(&mut self) -> Result<()> {
        self.hw.crash();
        self.reboot()
    }

    /// Arms the memory controller with a fresh power switch and returns it.
    /// Cutting the switch freezes durability: every write-back accepted
    /// after the cut instant is discarded by the eventual crash.
    pub fn arm_power_cut(&mut self) -> PowerSwitch {
        let switch = PowerSwitch::new();
        self.hw.mc.arm_power_cut(switch.clone());
        switch
    }

    /// Like [`Machine::crash`], but without ADR: the controller's in-flight
    /// write buffer is lost, with the oldest pending lines torn at 8-byte
    /// granularity using `rng`.
    ///
    /// # Errors
    ///
    /// Propagates reboot failures.
    pub fn crash_torn(&mut self, rng: &mut Rng64) -> Result<()> {
        self.hw.crash_torn(rng);
        self.reboot()
    }

    /// Boots a fresh kernel and its engines over the surviving hardware.
    /// The TLB is flushed without [`Machine::on_tlb_dropped`] (the engines
    /// that would see the entries are rebuilt); the walker and the
    /// shootdown count carry over.
    #[allow(clippy::disallowed_methods)] // Machine owns the TLB: power loss empties it
    fn reboot(&mut self) -> Result<()> {
        let _ = self.tlb.flush_all();
        self.active_pid = None;
        self.msr = MsrFile::new();
        (self.kernel, self.persist, self.ssp, self.hscc, self.scrub, self.patrol) =
            boot(&self.cfg, &mut self.hw)?;
        // The fresh kernel rebuilt the thread table; re-register daemons
        // and drop back to the main context.
        self.register_daemons();
        Ok(())
    }

    /// Runs the paper's recovery procedure over the saved-state area.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` if checkpointing is not enabled; otherwise
    /// propagates recovery failures.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let engine = self
            .persist
            .as_ref()
            .ok_or(KindleError::InvalidArgument("checkpointing not enabled"))?;
        let area = *engine.area();
        let log = *engine.log();
        self.hw.during(Activity::Recovery, |hw| {
            let report = recover_all(hw, &mut self.kernel, &area, &log);
            if report.is_ok() && self.scrub.is_some() {
                // Scrubd verifies against shadow metadata, which "just
                // restore the PTBR" recovery does not rebuild: walk the
                // adopted tables once (charged as recovery work). Machines
                // without scrubd skip this, keeping plain persistent
                // recovery as cheap as ever.
                self.kernel.rehydrate_all_tables(hw);
            }
            report
        })
    }

    /// Forces a checkpoint immediately (outside the periodic schedule).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` if checkpointing is not enabled.
    pub fn checkpoint_now(&mut self) -> Result<()> {
        // With kthreads on, even explicit checkpoints execute on the
        // daemon's context, so their NVM writes carry its thread id. Only a
        // machine with a checkpoint engine has a ckptd.
        let ckptd = self.kernel.sched.daemon_tid(DaemonKind::Checkpoint);
        if let Some(tid) = ckptd {
            self.kernel.sched.wake(tid);
            self.context_switch_to(tid);
        }
        let r = match self.persist.as_mut() {
            Some(engine) => {
                self.hw.during(Activity::Checkpoint, |hw| engine.checkpoint(hw, &mut self.kernel))
            }
            None => Err(KindleError::InvalidArgument("checkpointing not enabled")),
        };
        if let Some(tid) = ckptd {
            self.kernel.sched.sleep(tid);
            self.context_switch_to(ThreadId::MAIN);
        }
        r
    }

    /// Gathers a full statistics snapshot.
    pub fn report(&self) -> SimReport {
        SimReport::collect(self)
    }

    /// Captures a deep, deterministic snapshot of the whole machine:
    /// hardware pools and data image, caches, TLBs, page tables (they live
    /// in the memory image), redo log and checkpoint area, kernel +
    /// scheduler (with the daemons' kthreads), and checksum/scrub/patrol
    /// state. The config travels with it.
    ///
    /// The snapshot is a clone of the machine with its power switch
    /// disarmed: a restored machine arms its own fresh [`PowerSwitch`] if
    /// it wants one. Cloning touches no simulated state, emits no
    /// sanitizer events, and advances no clocks, so `snapshot(); restore()`
    /// round-trips are invisible to the run.
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut m = self.clone();
        m.hw.mc.disarm_power_cut();
        MachineSnapshot(m)
    }

    /// Rebuilds a machine from a snapshot (a *fork*: the snapshot stays
    /// usable, any number of machines can restore from it, and the caller
    /// may be on a different thread than the capturer).
    ///
    /// The fork runs the fault model and backend of the captured config.
    /// Restoring only re-anchors the sanitizer's current-thread stamp to
    /// the scheduler's running kthread.
    pub fn restore(snap: &MachineSnapshot) -> Self {
        let m = snap.0.clone();
        sanitize::set_current_thread(m.kernel.sched.current());
        m
    }
}

/// A deep capture of one [`Machine`] at an instant, made by
/// [`Machine::snapshot`] and turned back into a live machine by
/// [`Machine::restore`]: a machine with no power switch armed.
///
/// The daemons' kthread ids live in the kernel's scheduler, so the capture
/// holds only plain data and is `Send + Sync`: one snapshot pool is shared
/// by reference across `par_map` sweep workers.
#[derive(Clone, Debug)]
pub struct MachineSnapshot(Machine);

// Snapshots cross fork-join worker boundaries by shared reference, so the
// capture must never regress to holding `Rc`/`Cell` state.
const _: fn() = {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineSnapshot>
};

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::PAGE_SIZE;

    fn machine() -> (Machine, u32) {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let pid = m.spawn_process().unwrap();
        (m, pid)
    }

    #[test]
    fn nvm_timing_override_needs_the_pcm_backend() {
        let shallow = |backend| {
            let mut cfg = MachineConfig::small().with_backend(backend);
            cfg.mem.nvm.write_buffer = 8;
            Machine::new(cfg)
        };
        assert!(matches!(shallow(Backend::Numa), Err(KindleError::InvalidArgument(_))));
        assert!(shallow(Backend::Pcm).is_ok());
        assert!(Machine::new(MachineConfig::small().with_backend(Backend::Numa)).is_ok());
    }

    #[test]
    fn demand_paging_and_caching() {
        let (mut m, pid) = machine();
        let va = m.mmap(pid, 4 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        let cold = m.access(pid, va, AccessKind::Write).unwrap();
        let warm = m.access(pid, va, AccessKind::Write).unwrap();
        assert!(cold > warm, "fault+walk+fill ({cold}) vs cached hit ({warm})");
        assert_eq!(m.kernel.stats().page_faults, 1);
    }

    #[test]
    fn unmapped_access_errors() {
        let (mut m, pid) = machine();
        let err = m.access(pid, VirtAddr::new(0x6666_0000), AccessKind::Read).unwrap_err();
        assert!(matches!(err, KindleError::Unmapped(_)));
    }

    #[test]
    fn write_to_readonly_faults() {
        let (mut m, pid) = machine();
        let va = m.mmap(pid, PAGE_SIZE as u64, Prot::READ, MapFlags::EMPTY).unwrap();
        m.access(pid, va, AccessKind::Read).unwrap();
        let err = m.access(pid, va, AccessKind::Write).unwrap_err();
        assert!(matches!(err, KindleError::ProtectionFault(_)));
    }

    #[test]
    fn munmap_shoots_down_tlb() {
        let (mut m, pid) = machine();
        let va = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        m.access(pid, va, AccessKind::Write).unwrap();
        m.munmap(pid, va, PAGE_SIZE as u64).unwrap();
        assert_eq!(m.tlb_shootdowns(), 1);
        assert!(matches!(
            m.access(pid, va, AccessKind::Read).unwrap_err(),
            KindleError::Unmapped(_)
        ));
    }

    #[test]
    fn munmap_keeps_another_process_translation() {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let a = m.spawn_process().unwrap();
        let b = m.spawn_process().unwrap();
        let page = PAGE_SIZE as u64;
        let va = m.mmap(a, page, Prot::RW, MapFlags::NVM).unwrap();
        assert_eq!(m.mmap(b, page, Prot::RW, MapFlags::NVM).unwrap(), va, "same VA in both");
        m.access(b, va, AccessKind::Write).unwrap();
        m.access(a, va, AccessKind::Write).unwrap();
        let a_pfn = m.kernel.translate(&mut m.hw, a, va).unwrap().unwrap().pfn();
        let shootdowns = m.tlb_shootdowns();
        m.munmap(b, va, page).unwrap();
        let cached = m.tlb.peek_mut(va.page_number()).map(|e| e.pfn);
        assert_eq!(cached, Some(a_pfn), "A's translation stays cached");
        assert_eq!(m.tlb_shootdowns(), shootdowns, "B's munmap shot nothing down");
    }

    /// One HSCC migration pass over one cached NVM page whose TLB entry
    /// holds `k` accesses, `k` being `short` less than the fetch threshold
    /// minus the PTE's count. Returns the pages migrated, the
    /// engine's count write-backs, the PTE's count after the pass, the TLB
    /// occupancy, the shootdowns and the clock the pass took outside the
    /// migration-scan bucket.
    fn hscc_pass(os_mode: bool, short: u64) -> (u64, u64, u64, usize, u64, Cycles) {
        let hscc = kindle_hscc::HsccConfig { pool_pages: 8, ..Default::default() };
        let threshold = hscc.fetch_threshold;
        let mut m = Machine::new(MachineConfig::small().with_hscc(hscc, os_mode)).unwrap();
        let pid = m.spawn_process().unwrap();
        let va = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        m.access(pid, va, AccessKind::Write).unwrap();
        let pte = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap();
        let k = threshold - pte.access_count() - short;
        m.tlb.peek_mut(va.page_number()).unwrap().access_count = k as u32;
        let (shootdowns, t0) = (m.tlb_shootdowns(), m.now());
        let scan0 = m.hw.core.breakdown().get(Activity::MigrationScan);
        daemon::run(&mut m, DaemonKind::Migration, pid).unwrap();
        let scan = m.hw.core.breakdown().get(Activity::MigrationScan) - scan0;
        let outside = m.now() - t0 - scan;
        let stats = m.hscc.as_ref().unwrap().stats().clone();
        let after = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().access_count();
        let shootdowns = m.tlb_shootdowns() - shootdowns;
        (
            stats.pages_migrated,
            stats.count_writebacks,
            after,
            m.tlb.occupancy(),
            shootdowns,
            outside,
        )
    }

    #[test]
    fn migration_pass_folds_counts_in_one_flush() {
        for os_mode in [true, false] {
            // The page migrates only if the PTE received all `k` counts
            // before the scan read it.
            let (migrated, writebacks, count, occupancy, shootdowns, outside) =
                hscc_pass(os_mode, 0);
            assert_eq!((migrated, writebacks), (1, 1), "os_mode {os_mode}: k folded, then scanned");
            assert_eq!((count, occupancy, shootdowns), (0, 0, 1), "os_mode {os_mode}");
            if os_mode {
                assert!(outside >= Cycles::new(SHOOTDOWN_CYCLES), "flush charged outside the scan");
            } else {
                assert_eq!(outside, Cycles::ZERO, "the hardware-only flush is free");
            }
            // One count short of the threshold: nothing migrates, and the
            // folded count is reset.
            let (migrated, writebacks, count, ..) = hscc_pass(os_mode, 1);
            assert_eq!((migrated, writebacks, count), (0, 1, 0), "os_mode {os_mode}");
        }
    }

    #[test]
    fn nvm_access_slower_than_dram() {
        let (mut m, pid) = machine();
        let nva = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        let dva = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
        // Fault both in, then drop the caches so the reads fill from the
        // devices.
        m.access(pid, nva, AccessKind::Read).unwrap();
        m.access(pid, dva, AccessKind::Read).unwrap();
        m.hw.caches.invalidate_all();
        let n = m.access(pid, nva + 1024, AccessKind::Read).unwrap();
        m.hw.caches.invalidate_all();
        let d = m.access(pid, dva + 1024, AccessKind::Read).unwrap();
        assert!(n > d, "nvm line fill {n} vs dram {d}");
    }

    #[test]
    fn sized_access_touches_every_line() {
        let (mut m, pid) = machine();
        let va = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
        m.access_sized(pid, va, 256, AccessKind::Write).unwrap();
        let stats = m.hw.caches.stats();
        assert!(stats.l1.hits + stats.l1.misses >= 4, "256B = 4 lines");
    }

    #[test]
    fn periodic_checkpoint_fires_during_execution() {
        let cfg = MachineConfig::small().with_checkpointing(Cycles::from_millis(1));
        let mut m = Machine::new(cfg).unwrap();
        let pid = m.spawn_process().unwrap();
        let va = m.mmap(pid, 64 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        // Touch pages until well past several intervals.
        let mut i = 0u64;
        while m.now() < Cycles::from_millis(5) {
            m.access(pid, va + (i % 64) * PAGE_SIZE as u64, AccessKind::Write).unwrap();
            i += 1;
        }
        let ckpt = m.persist.as_ref().unwrap().stats().checkpoints;
        assert!(ckpt >= 3, "expected several checkpoints, got {ckpt}");
        assert!(
            m.hw.core.breakdown().get(Activity::Checkpoint) > Cycles::ZERO,
            "checkpoint time attributed"
        );
    }

    /// Patrold machine with a controlled media model: no random stuck
    /// cells or wear, `correction_entries` of ECP budget per line.
    fn integrity_machine(correction_entries: u32) -> (Machine, u32) {
        let mut cfg = MachineConfig::small().with_patrol_interval(Cycles::from_micros(10));
        cfg.mem.faults = Some(kindle_mem::MediaFaultConfig {
            stuck_cells: 0,
            wear_limit: 0,
            correction_entries,
            ..kindle_mem::MediaFaultConfig::with_seed(7)
        });
        let mut m = Machine::new(cfg).unwrap();
        let pid = m.spawn_process().unwrap();
        (m, pid)
    }

    #[test]
    fn patrol_pass_heals_corrupt_data_frame() {
        let (mut m, pid) = integrity_machine(2);
        let va =
            m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM | MapFlags::POPULATE).unwrap();
        let pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
        let pa = pfn.base();
        for i in 0..8u64 {
            m.hw.write_u64(pa + i * 8, 0xabc0 + i);
        }
        assert!(m.hw.mc.degrade_line_bit(pa.as_u64(), 5), "stuck cell armed");
        assert_ne!(m.hw.read_u64(pa), 0xabc0, "the stuck bit corrupted the stored copy");

        let out = m.patrol_data_frames().unwrap();
        assert!(out.frames_checked >= 1);
        assert_eq!(out.lines_detected, 1);
        assert_eq!(out.lines_healed, 1);
        assert_eq!(out.frames_poisoned, 0);
        assert_eq!(m.hw.read_u64(pa), 0xabc0, "healed line is byte-identical");
        assert!(m.kernel.process(pid).is_ok(), "nobody dies on a healable fault");

        let again = m.patrol_data_frames().unwrap();
        assert_eq!(again.lines_detected, 0, "second pass finds the pool clean");
    }

    #[test]
    fn patrold_poisons_and_kills_when_budget_exhausted() {
        let (mut m, pid) = integrity_machine(0);
        let va =
            m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM | MapFlags::POPULATE).unwrap();
        let pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
        let pa = pfn.base();
        for i in 0..8u64 {
            m.hw.write_u64(pa + i * 8, 0xdead_0000 + i);
        }
        assert!(m.hw.mc.degrade_line_bit(pa.as_u64(), 11));

        // Drive the clock on an unrelated DRAM page until patrold fires
        // and the owner is killed out from under the loop.
        let drive = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
        let mut verdict = None;
        for _ in 0..400_000 {
            match m.access(pid, drive, AccessKind::Write) {
                Ok(_) => {}
                Err(e) => {
                    verdict = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(verdict, Some(KindleError::NoSuchProcess(p)) if p == pid),
            "owner killed with its translations flushed, got {verdict:?}"
        );
        let stats = m.patrol.as_ref().unwrap().stats().clone();
        assert!(stats.passes >= 1);
        assert_eq!(stats.frames_poisoned, 1);
        assert_eq!(stats.procs_killed, 1);
        assert_eq!(m.kernel.stats().procs_killed, 1);
        assert!(m.kernel.pools.nvm.is_allocated(pfn), "lost frame stays quarantined");
        let text = m.report().to_stats_text();
        assert!(text.contains("patrol.frames_poisoned"));
    }

    #[test]
    fn reboot_resets_patrol_cursor_and_schedule() {
        let (mut m, pid) = integrity_machine(2);
        let va =
            m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM | MapFlags::POPULATE).unwrap();
        m.access(pid, va, AccessKind::Write).unwrap();
        m.patrol.as_mut().unwrap().set_cursor(123);
        m.crash().unwrap();
        let p = m.patrol.as_ref().unwrap();
        assert_eq!(p.cursor(), 0, "walk restarts at the pool base after a crash");
        assert_eq!(p.stats().passes, 0, "counters are per-boot, like the other engines");
        assert!(!p.due(m.now()), "schedule re-anchored one interval past the reboot");
    }
}
