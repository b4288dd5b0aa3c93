//! The full simulated machine.

use kindle_cpu::Activity;
use kindle_hscc::HsccEngine;
use kindle_mem::{Backend, NvmConfig, PatrolOutcome, PowerSwitch};
use kindle_os::{
    DaemonKind, IntegrityOutcome, Kernel, KernelConfig, PatrolPassOutcome, PatrolState,
    RetireOutcome, ScrubState, UnmapOutcome, PATROL_BATCH_FRAMES,
};
use kindle_persist::{recover_all, CheckpointEngine, RecoveryReport};
use kindle_ssp::SspEngine;
use kindle_tlb::{MsrFile, PageWalker, TlbEntry, TwoLevelTlb};
use kindle_trace::ReplayProgram;
use kindle_types::sanitize::{self, ThreadId};
use kindle_types::{
    AccessKind, Cycles, KindleError, MapFlags, MemKind, Pfn, PhysAddr, PhysMem, Prot, Pte, Result,
    Rng64, VirtAddr, CACHE_LINE,
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

/// Snapshot of the translation used by one access.
#[derive(Clone, Copy, Debug)]
struct EntryInfo {
    pfn: Pfn,
    writable: bool,
    mem_kind: MemKind,
    dirty: bool,
    ssp: Option<kindle_tlb::SspTlbExt>,
    pte_pa: PhysAddr,
}

/// The machine: hardware + OS + optional prototype engines.
#[derive(Debug)]
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
        let kcfg = KernelConfig {
            memory_map: cfg.mem.layout.clone(),
            pt_mode: cfg.pt_mode,
            costs: cfg.costs.clone(),
            dram_reserved_frames: 256,
        };
        let mut kernel = Kernel::new(kcfg, &mut hw)?;
        let persist = cfg
            .checkpoint
            .as_ref()
            .map(|s| CheckpointEngine::new(&kernel.layout, cfg.pt_mode, s.interval, s.max_procs));
        let ssp = cfg.ssp.as_ref().map(|s| SspEngine::new(&kernel.layout, s.clone()));
        let hscc = match &cfg.hscc {
            Some(h) => Some(HsccEngine::new(&mut hw, &mut kernel, h.clone())?),
            None => None,
        };
        let scrub = cfg.scrub_interval.map(ScrubState::new);
        let patrol = cfg.patrol_interval.map(PatrolState::new);
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
        let prev = self.hw.set_activity(Activity::Os);
        let pid = self.kernel.create_process(&mut self.hw);
        self.hw.set_activity(prev);
        let pid = pid?;
        self.drain_meta()?;
        Ok(pid)
    }

    pub(crate) fn drain_meta(&mut self) -> Result<()> {
        if let Some(engine) = self.persist.as_mut() {
            let recs = self.kernel.take_meta_records();
            if !recs.is_empty() {
                let prev = self.hw.set_activity(Activity::Os);
                let r = engine.on_meta_records(&mut self.hw, &mut self.kernel, recs);
                self.hw.set_activity(prev);
                r?;
            }
        } else {
            self.kernel.take_meta_records();
        }
        Ok(())
    }

    fn shootdown(&mut self, outcome: &UnmapOutcome, pid: u32) -> Result<()> {
        for vpn in &outcome.unmapped {
            self.hw.advance(Cycles::new(20));
            if let Some(entry) = self.tlb.invalidate(*vpn) {
                self.tlb_shootdowns += 1;
                self.on_tlb_dropped(pid, entry)?;
            }
        }
        Ok(())
    }

    /// Flushes every cached translation of `pid` — a page-table frame was
    /// relocated, so any entry may have been filled through the old frame.
    pub(crate) fn flush_process_tlb(&mut self, pid: u32) -> Result<()> {
        self.hw.advance(Cycles::new(20));
        self.tlb_shootdowns += 1;
        let dropped = self.tlb.flush_all();
        for entry in dropped {
            self.on_tlb_dropped(pid, entry)?;
        }
        Ok(())
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
        let prev = self.hw.set_activity(Activity::Os);
        let r = self.kernel.sys_mmap(&mut self.hw, pid, hint, len, prot, flags);
        self.hw.set_activity(prev);
        let va = r?;
        self.drain_meta()?;
        self.poll_timers(pid)?;
        Ok(va)
    }

    /// `munmap`, with TLB shootdown.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_munmap`].
    pub fn munmap(&mut self, pid: u32, addr: VirtAddr, len: u64) -> Result<()> {
        let prev = self.hw.set_activity(Activity::Os);
        let r = self.kernel.sys_munmap(&mut self.hw, pid, addr, len);
        self.hw.set_activity(prev);
        let outcome = r?;
        self.shootdown(&outcome, pid)?;
        self.drain_meta()?;
        self.poll_timers(pid)?;
        Ok(())
    }

    /// `mprotect`, with TLB shootdown on affected pages.
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_mprotect`].
    pub fn mprotect(&mut self, pid: u32, addr: VirtAddr, len: u64, prot: Prot) -> Result<()> {
        let prev = self.hw.set_activity(Activity::Os);
        let r = self.kernel.sys_mprotect(&mut self.hw, pid, addr, len, prot);
        self.hw.set_activity(prev);
        let outcome = r?;
        self.shootdown(&outcome, pid)?;
        self.drain_meta()?;
        self.poll_timers(pid)?;
        Ok(())
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
        let prev = self.hw.set_activity(Activity::Os);
        let r = self.kernel.sys_mremap(&mut self.hw, pid, old_addr, old_len, new_len);
        self.hw.set_activity(prev);
        let (va, outcome) = r?;
        self.shootdown(&outcome, pid)?;
        self.drain_meta()?;
        self.poll_timers(pid)?;
        Ok(va)
    }

    /// `fork`: duplicates a process (eager page copy, as in gemOS).
    ///
    /// # Errors
    ///
    /// As [`Kernel::sys_fork`].
    pub fn fork(&mut self, parent: u32) -> Result<u32> {
        let prev = self.hw.set_activity(Activity::Os);
        let r = self.kernel.sys_fork(&mut self.hw, parent);
        self.hw.set_activity(prev);
        let child = r?;
        self.drain_meta()?;
        self.poll_timers(parent)?;
        Ok(child)
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
            if let Some(prev) = self.active_pid {
                let dropped = self.tlb.flush_all();
                for entry in dropped {
                    self.on_tlb_dropped(prev, entry)?;
                }
                self.hw.advance(Cycles::new(self.kernel.costs.kthread_switch));
            }
            self.active_pid = Some(pid);
        }
        let vpn = va.page_number();
        let start = self.hw.now();

        // 1. TLB.
        let (tlb_lat, hit, dropped) = self.tlb.lookup(vpn);
        self.hw.advance(tlb_lat);
        let mut info = hit.map(|e| EntryInfo {
            pfn: e.pfn,
            writable: e.writable,
            mem_kind: e.mem_kind,
            dirty: e.dirty,
            ssp: e.ssp,
            pte_pa: e.pte_pa,
        });
        if let Some(entry) = dropped {
            self.on_tlb_dropped(pid, entry)?;
        }

        // 2. Miss: hardware walk, faulting into the kernel if needed.
        let info = match info.take() {
            Some(i) => i,
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

    /// Hardware walk (fault on demand) and TLB fill.
    fn fill_tlb(&mut self, pid: u32, va: VirtAddr, kind: AccessKind) -> Result<EntryInfo> {
        let vpn = va.page_number();
        let root = self.kernel.process(pid)?.aspace.root();
        let mut walker = std::mem::take(&mut self.walker);
        let first = walker.walk_and_mark(&mut self.hw, root, va, kind.is_write());
        self.walker = walker;

        let outcome = match first {
            Ok(o) => o,
            Err(_) => {
                // Page fault into the kernel.
                let prev = self.hw.set_activity(Activity::Os);
                let fault = self.kernel.handle_fault(&mut self.hw, pid, va, kind);
                self.hw.set_activity(prev);
                fault?;
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

        let info = EntryInfo {
            pfn: entry.pfn,
            writable: entry.writable,
            mem_kind: entry.mem_kind,
            dirty: entry.dirty,
            ssp: entry.ssp,
            pte_pa: entry.pte_pa,
        };
        if let Some(droppped) = self.tlb.install(entry) {
            self.on_tlb_dropped(pid, droppped)?;
        }
        Ok(info)
    }

    /// Hardware-side handling of an entry leaving the TLB hierarchy.
    pub(crate) fn on_tlb_dropped(&mut self, pid: u32, entry: TlbEntry) -> Result<()> {
        if entry.ssp.is_some() {
            if let Some(engine) = self.ssp.as_mut() {
                engine.on_tlb_evict(&mut self.hw, &entry);
            }
        }
        if entry.access_count > 0 {
            if let Some(engine) = self.hscc.as_mut() {
                engine.on_tlb_evict(&mut self.hw, &mut self.kernel, pid, &entry);
            }
        }
        Ok(())
    }

    /// One patrold batch: walks up to [`PATROL_BATCH_FRAMES`] allocated
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
        let mut out = PatrolPassOutcome::default();
        let Some(state) = self.patrol.as_ref() else {
            return Ok(out);
        };
        let pool_start = self.kernel.pools.nvm.inner().start();
        let capacity = self.kernel.pools.nvm.inner().capacity();
        if capacity == 0 {
            return Ok(out);
        }
        let mut cursor = state.cursor() % capacity;
        // Walk the pfn space from the cursor, wrapping at most once, and
        // verify at most one batch of allocated data frames.
        let mut scanned = 0;
        while scanned < capacity && out.frames_checked < PATROL_BATCH_FRAMES {
            let pfn = pool_start + cursor;
            cursor = (cursor + 1) % capacity;
            scanned += 1;
            if !self.kernel.pools.nvm.is_allocated(pfn)
                || self.kernel.table_frame_owner(pfn).is_some()
            {
                continue;
            }
            out.frames_checked += 1;
            self.hw.advance(Cycles::new(self.kernel.costs.scrub_frame_op));
            match self.hw.mc.patrol_frame(pfn.base().as_u64()) {
                PatrolOutcome::Clean => out.frames_clean += 1,
                PatrolOutcome::Healed { lines } => {
                    self.hw.advance(Cycles::new(self.kernel.costs.scrub_line_op * lines as u64));
                    out.lines_detected += lines as u64;
                    out.lines_healed += lines as u64;
                }
                PatrolOutcome::Uncorrectable { lines } => {
                    out.lines_detected += lines.len() as u64;
                    match self.kernel.poison_or_retire_frame(&mut self.hw, pfn)? {
                        IntegrityOutcome::Poisoned { pid, .. } => {
                            out.frames_poisoned += 1;
                            out.killed.push(pid);
                        }
                        IntegrityOutcome::Retired(_) => out.frames_retired += 1,
                    }
                }
            }
        }
        if let Some(state) = self.patrol.as_mut() {
            state.set_cursor(cursor);
        }
        Ok(out)
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
                let prev = self.hw.set_activity(Activity::Os);
                let r = match verdict {
                    PatrolOutcome::Uncorrectable { .. } => {
                        self.kernel.poison_or_retire_frame(&mut self.hw, pfn)
                    }
                    _ => self
                        .kernel
                        .retire_nvm_frame(&mut self.hw, pfn)
                        .map(IntegrityOutcome::Retired),
                };
                self.hw.set_activity(prev);
                match r? {
                    IntegrityOutcome::Retired(RetireOutcome::Remapped {
                        pid: owner, vpn, ..
                    }) => {
                        self.hw.advance(Cycles::new(20));
                        if let Some(entry) = self.tlb.invalidate(vpn) {
                            self.tlb_shootdowns += 1;
                            self.on_tlb_dropped(owner, entry)?;
                        }
                    }
                    IntegrityOutcome::Retired(RetireOutcome::TableRelocated { pid: owner }) => {
                        self.flush_process_tlb(owner)?;
                    }
                    IntegrityOutcome::Retired(RetireOutcome::Quarantined) => {}
                    IntegrityOutcome::Poisoned { pid: owner, .. } => {
                        self.flush_process_tlb(owner)?;
                    }
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
                    let prev = self.hw.set_activity(Activity::Consolidation);
                    engine.consolidate(&mut self.hw, &self.kernel.costs);
                    self.hw.set_activity(prev);
                    fired = true;
                }
                if engine.interval_due(self.hw.now()) {
                    let prev = self.hw.set_activity(Activity::SspInterval);
                    engine.end_interval(&mut self.hw, &mut self.tlb, &self.kernel.costs);
                    self.hw.set_activity(prev);
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
                let prev = self.hw.set_activity(Activity::SspInterval);
                engine.end_interval(&mut self.hw, &mut self.tlb, &self.kernel.costs);
                engine.fase_end();
                self.hw.set_activity(prev);
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

    fn reboot(&mut self) -> Result<()> {
        let _ = self.tlb.flush_all();
        self.active_pid = None;
        self.msr = MsrFile::new();
        let kcfg = KernelConfig {
            memory_map: self.cfg.mem.layout.clone(),
            pt_mode: self.cfg.pt_mode,
            costs: self.cfg.costs.clone(),
            dram_reserved_frames: 256,
        };
        self.kernel = Kernel::new(kcfg, &mut self.hw)?;
        if let Some(setup) = self.cfg.checkpoint.clone() {
            self.persist = Some(CheckpointEngine::new(
                &self.kernel.layout,
                self.cfg.pt_mode,
                setup.interval,
                setup.max_procs,
            ));
        }
        if let Some(ssp_cfg) = self.cfg.ssp.clone() {
            self.ssp = Some(SspEngine::new(&self.kernel.layout, ssp_cfg));
        }
        if let Some(hscc_cfg) = self.cfg.hscc.clone() {
            self.hscc = Some(HsccEngine::new(&mut self.hw, &mut self.kernel, hscc_cfg)?);
        }
        // Scrub state is rebuilt like the engines; the clock keeps running
        // across the crash, so re-anchor the schedule at the current time.
        self.scrub = self.cfg.scrub_interval.map(ScrubState::new);
        let now = self.hw.now();
        if let Some(s) = self.scrub.as_mut() {
            s.reset_schedule(now);
        }
        // Patrol state likewise. The walk cursor restarts at the pool base:
        // a reboot loses the in-memory walk position, while the recorded
        // checksums (NVM metadata) survive for the fresh walk to verify.
        self.patrol = self.cfg.patrol_interval.map(PatrolState::new);
        if let Some(p) = self.patrol.as_mut() {
            p.reset_schedule(now);
        }
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
        let prev = self.hw.set_activity(Activity::Recovery);
        let report = recover_all(&mut self.hw, &mut self.kernel, &area, &log);
        if report.is_ok() && self.scrub.is_some() {
            // Scrubd verifies against shadow metadata, which "just restore
            // the PTBR" recovery does not rebuild: walk the adopted tables
            // once (charged as recovery work). Machines without scrubd
            // skip this, keeping plain persistent recovery as cheap as
            // ever.
            self.kernel.rehydrate_all_tables(&mut self.hw);
        }
        self.hw.set_activity(prev);
        report
    }

    /// Forces a checkpoint immediately (outside the periodic schedule).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` if checkpointing is not enabled.
    pub fn checkpoint_now(&mut self) -> Result<()> {
        if self.persist.is_none() {
            return Err(KindleError::InvalidArgument("checkpointing not enabled"));
        }
        // With kthreads on, even explicit checkpoints execute on the
        // daemon's context, so their NVM writes carry its thread id.
        if let Some(tid) = self.kernel.sched.daemon_tid(DaemonKind::Checkpoint) {
            self.kernel.sched.wake(tid);
            self.context_switch_to(tid);
            let mut r = Ok(());
            if let Some(engine) = self.persist.as_mut() {
                let prev = self.hw.set_activity(Activity::Checkpoint);
                r = engine.checkpoint(&mut self.hw, &mut self.kernel);
                self.hw.set_activity(prev);
            }
            self.kernel.sched.sleep(tid);
            self.context_switch_to(ThreadId::MAIN);
            return r;
        }
        let engine = self
            .persist
            .as_mut()
            .ok_or(KindleError::InvalidArgument("checkpointing not enabled"))?;
        let prev = self.hw.set_activity(Activity::Checkpoint);
        let r = engine.checkpoint(&mut self.hw, &mut self.kernel);
        self.hw.set_activity(prev);
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
    /// The copy never carries power-cut wiring: a restored machine arms its
    /// own fresh [`PowerSwitch`] if it wants one. Cloning touches no
    /// simulated state, emits no sanitizer events, and advances no clocks,
    /// so `snapshot(); restore()` round-trips are invisible to the run.
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut hw = self.hw.clone();
        hw.mc.disarm_power_cut();
        MachineSnapshot {
            cfg: self.cfg.clone(),
            hw,
            tlb: self.tlb.clone(),
            walker: self.walker.clone(),
            msr: self.msr.clone(),
            kernel: self.kernel.clone(),
            persist: self.persist.clone(),
            ssp: self.ssp.clone(),
            hscc: self.hscc.clone(),
            scrub: self.scrub.clone(),
            patrol: self.patrol.clone(),
            tlb_shootdowns: self.tlb_shootdowns,
            active_pid: self.active_pid,
        }
    }

    /// Rebuilds a machine from a snapshot (a *fork*: the snapshot stays
    /// usable, any number of machines can restore from it, and the caller
    /// may be on a different thread than the capturer).
    ///
    /// The fork runs the fault model and backend of the captured config.
    /// Restoring only re-anchors the sanitizer's current-thread stamp to
    /// the scheduler's running kthread.
    pub fn restore(snap: &MachineSnapshot) -> Self {
        let m = Machine {
            cfg: snap.cfg.clone(),
            hw: snap.hw.clone(),
            tlb: snap.tlb.clone(),
            walker: snap.walker.clone(),
            msr: snap.msr.clone(),
            kernel: snap.kernel.clone(),
            persist: snap.persist.clone(),
            ssp: snap.ssp.clone(),
            hscc: snap.hscc.clone(),
            scrub: snap.scrub.clone(),
            patrol: snap.patrol.clone(),
            tlb_shootdowns: snap.tlb_shootdowns,
            active_pid: snap.active_pid,
        };
        sanitize::set_current_thread(m.kernel.sched.current());
        m
    }
}

/// A deep capture of one [`Machine`] at an instant, made by
/// [`Machine::snapshot`] and turned back into a live machine by
/// [`Machine::restore`].
///
/// The daemons' kthread ids live in the kernel's scheduler, so the capture
/// holds only plain data (plus the atomic power switch) and is
/// `Send + Sync`: one snapshot pool is shared by reference across
/// `par_map` sweep workers.
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    cfg: MachineConfig,
    hw: Hw,
    tlb: TwoLevelTlb,
    walker: PageWalker,
    msr: MsrFile,
    kernel: Kernel,
    persist: Option<CheckpointEngine>,
    ssp: Option<SspEngine>,
    hscc: Option<HsccEngine>,
    scrub: Option<ScrubState>,
    patrol: Option<PatrolState>,
    tlb_shootdowns: u64,
    active_pid: Option<u32>,
}

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
