//! Statistics roll-up across the whole machine.

use kindle_cache::HierarchyStats;
use kindle_cpu::{Activity, ActivityBreakdown, CpuStats};
use kindle_hscc::HsccStats;
use kindle_mem::MemStats;
use kindle_os::{KernelStats, PatrolStats, ScrubStats};
use kindle_persist::CheckpointStats;
use kindle_ssp::SspStats;
use kindle_tlb::TlbStats;
use kindle_types::Cycles;

use crate::machine::Machine;

/// One snapshot of every counter in the machine.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total simulated time.
    pub total_cycles: Cycles,
    /// Time per activity.
    pub breakdown: ActivityBreakdown,
    /// Instruction/memory-op counts.
    pub cpu: CpuStats,
    /// Cache hierarchy counters.
    pub caches: HierarchyStats,
    /// (L1 TLB, L2 TLB) counters.
    pub tlb: (TlbStats, TlbStats),
    /// Page-walker counters.
    pub walks: u64,
    /// Walker fault count.
    pub walk_faults: u64,
    /// Memory device counters.
    pub mem: MemStats,
    /// Kernel counters.
    pub kernel: KernelStats,
    /// Checkpoint engine counters, if enabled.
    pub checkpoint: Option<CheckpointStats>,
    /// SSP counters, if enabled.
    pub ssp: Option<SspStats>,
    /// HSCC counters, if enabled.
    pub hscc: Option<HsccStats>,
    /// Scrub daemon counters, if enabled.
    pub scrub: Option<ScrubStats>,
    /// Patrol daemon counters, if enabled.
    pub patrol: Option<PatrolStats>,
    /// TLB shootdowns performed by the OS.
    pub tlb_shootdowns: u64,
    /// Simulated kernel-thread context switches (0 unless `kthreads` on).
    pub kthread_switches: u64,
}

impl SimReport {
    /// Collects a snapshot from a machine.
    pub fn collect(m: &Machine) -> Self {
        SimReport {
            total_cycles: m.now(),
            breakdown: m.hw.core.breakdown().clone(),
            cpu: m.hw.core.stats().clone(),
            caches: m.hw.caches.stats(),
            tlb: m.tlb.stats(),
            walks: m.walker.walks,
            walk_faults: m.walker.faults,
            mem: m.hw.mc.stats(),
            kernel: m.kernel.stats().clone(),
            checkpoint: m.persist.as_ref().map(|e| e.stats().clone()),
            ssp: m.ssp.as_ref().map(|e| e.stats().clone()),
            hscc: m.hscc.as_ref().map(|e| e.stats().clone()),
            scrub: m.scrub.as_ref().map(|s| s.stats().clone()),
            patrol: m.patrol.as_ref().map(|s| s.stats().clone()),
            tlb_shootdowns: m.tlb_shootdowns(),
            kthread_switches: m.kernel.sched.switches(),
        }
    }

    /// Time attributed to user execution.
    pub fn user_cycles(&self) -> Cycles {
        self.breakdown.get(Activity::User)
    }

    /// Time attributed to anything but user execution.
    pub fn overhead_cycles(&self) -> Cycles {
        self.breakdown.non_user()
    }

    /// Renders the counters in gem5 `stats.txt` style (`name  value  #
    /// comment`) — the format the original Kindle's Python scripts parse.
    pub fn to_stats_text(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(String, u64, &str)> = Vec::new();
        let mut stat = |name: &str, v: u64, desc: &'static str| {
            rows.push((name.to_string(), v, desc));
        };
        stat("sim_cycles", self.total_cycles.as_u64(), "Simulated cycles at 3 GHz");
        stat("sim_insts", self.cpu.instructions, "Instructions retired");
        stat("sim_mem_ops", self.cpu.mem_ops, "Memory operations issued");
        for (act, cy) in self.breakdown.iter() {
            stat(&format!("cycles.{}", act.label()), cy.as_u64(), "Cycles in this activity");
        }
        stat("l1d.hits", self.caches.l1.hits, "L1D hits");
        stat("l1d.misses", self.caches.l1.misses, "L1D misses");
        stat("l2.hits", self.caches.l2.hits, "L2 hits");
        stat("l2.misses", self.caches.l2.misses, "L2 misses");
        stat("llc.hits", self.caches.llc.hits, "LLC hits");
        stat("llc.misses", self.caches.llc.misses, "LLC misses");
        stat("llc.writebacks", self.caches.memory_writebacks, "Lines written back to memory");
        stat("dtlb.l1.hits", self.tlb.0.hits, "L1 TLB hits");
        stat("dtlb.l1.misses", self.tlb.0.misses, "L1 TLB misses");
        stat("dtlb.l2.hits", self.tlb.1.hits, "L2 TLB hits");
        stat("dtlb.l2.misses", self.tlb.1.misses, "L2 TLB misses");
        stat("walker.walks", self.walks, "Hardware page-table walks");
        stat("walker.faults", self.walk_faults, "Walks ending in a page fault");
        stat("mem.dram.reads", self.mem.dram.reads, "DRAM reads");
        stat("mem.dram.writes", self.mem.dram.writes, "DRAM writes");
        stat("mem.dram.row_hits", self.mem.dram.row_hits, "DRAM row-buffer hits");
        stat("mem.nvm.reads", self.mem.nvm.reads, "NVM reads");
        stat("mem.nvm.writes", self.mem.nvm.writes, "NVM writes");
        stat("mem.nvm.write_stalls", self.mem.nvm.write_stalls, "NVM write-buffer stalls");
        stat("mem.nvm.lines_committed", self.mem.nvm_lines_committed, "NVM lines made durable");
        stat("os.page_faults", self.kernel.page_faults, "Demand-paging faults");
        stat("os.mmaps", self.kernel.mmaps, "mmap system calls");
        stat("os.munmaps", self.kernel.munmaps, "munmap system calls");
        stat("os.tlb_shootdowns", self.tlb_shootdowns, "TLB shootdowns");
        stat("os.kthread_switches", self.kthread_switches, "Kernel-thread context switches");
        if let Some(c) = &self.checkpoint {
            stat("persist.checkpoints", c.checkpoints, "Checkpoints completed");
            stat("persist.list_checked", c.list_checked, "Mapping-list entries checked");
            stat("persist.list_written", c.list_written, "Mapping-list entries written");
        }
        if let Some(sp) = &self.ssp {
            stat("ssp.intervals", sp.intervals, "Consistency intervals committed");
            stat("ssp.pages_registered", sp.pages_registered, "Shadow page pairs");
            stat("ssp.lines_flushed", sp.data_lines_flushed, "Data lines clwb'd");
            stat("ssp.pages_consolidated", sp.pages_consolidated, "Pages merged");
        }
        if let Some(h) = &self.hscc {
            stat("hscc.intervals", h.intervals, "Migration intervals");
            stat("hscc.pages_migrated", h.pages_migrated, "Pages migrated to DRAM");
            stat("hscc.copybacks", h.copybacks, "Dirty copy-backs to NVM");
            stat("hscc.selection_cycles", h.selection_cycles.as_u64(), "Page-selection cycles");
            stat("hscc.copy_cycles", h.copy_cycles.as_u64(), "Page-copy cycles");
        }
        if let Some(sc) = &self.scrub {
            stat("scrub.passes", sc.passes, "Scrub verify passes");
            stat("scrub.lines_detected", sc.lines_detected, "Corrupted table lines found");
            stat("scrub.lines_corrected", sc.lines_corrected, "Table lines healed in place");
            stat("scrub.frames_retired", sc.frames_retired, "Table frames retired");
        }
        if let Some(p) = &self.patrol {
            stat("patrol.passes", p.passes, "Patrol verify batches");
            stat("patrol.frames_checked", p.frames_checked, "Data frames checksum-verified");
            stat("patrol.lines_detected", p.lines_detected, "Corrupted data lines found");
            stat("patrol.lines_healed", p.lines_healed, "Data lines healed in place");
            stat("patrol.frames_poisoned", p.frames_poisoned, "Mapped frames poisoned");
            stat("patrol.frames_retired", p.frames_retired, "Unmapped frames retired");
            stat("patrol.procs_killed", p.procs_killed, "Processes killed on poison");
        }
        let mut s = String::new();
        let _ = writeln!(s, "---------- Begin Simulation Statistics ----------");
        for (name, v, desc) in rows {
            let _ = writeln!(s, "{name:<44} {v:>16} # {desc}");
        }
        let _ = writeln!(s, "---------- End Simulation Statistics   ----------");
        s
    }

    /// Renders a compact human-readable summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "total: {} ({} user, {} overhead)",
            self.total_cycles,
            self.user_cycles(),
            self.overhead_cycles()
        );
        for (act, cy) in self.breakdown.iter() {
            let _ = writeln!(s, "  {:<20} {}", act.label(), cy);
        }
        let _ = writeln!(
            s,
            "caches: L1 {:.1}% | L2 {:.1}% | LLC {:.1}% miss",
            self.caches.l1.miss_rate() * 100.0,
            self.caches.l2.miss_rate() * 100.0,
            self.caches.llc.miss_rate() * 100.0
        );
        let _ = writeln!(
            s,
            "mem: {} dram ops, {} nvm ops ({} stalls)",
            self.mem.dram.reads + self.mem.dram.writes,
            self.mem.nvm.reads + self.mem.nvm.writes,
            self.mem.nvm.write_stalls
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use kindle_types::{AccessKind, MapFlags, Prot};

    #[test]
    fn report_reflects_activity() {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let pid = m.spawn_process().unwrap();
        let va = m.mmap(pid, 8192, Prot::RW, MapFlags::NVM).unwrap();
        m.access(pid, va, AccessKind::Write).unwrap();
        let r = m.report();
        assert!(r.total_cycles > Cycles::ZERO);
        assert!(r.user_cycles() > Cycles::ZERO);
        assert!(r.overhead_cycles() > Cycles::ZERO, "fault handling is overhead");
        assert_eq!(r.kernel.page_faults, 1);
        assert!(r.walks >= 1);
        assert!(!r.summary().is_empty());
        assert!(r.checkpoint.is_none());
        let stats = r.to_stats_text();
        assert!(stats.contains("sim_cycles"));
        assert!(stats.contains("os.page_faults"));
        assert!(stats.lines().count() > 25);
    }
}
