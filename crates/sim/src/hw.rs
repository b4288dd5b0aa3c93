//! The hardware timing core: CPU clock + caches + memory controller.
//!
//! [`Hw`] implements [`PhysMem`], so all OS-level code (kernel, checkpoint
//! engine, SSP/HSCC engines) reads and writes simulated physical memory
//! through the same cache hierarchy and devices as application accesses —
//! NVM-hosted structures pay NVM latency, hot metadata hits in cache, and
//! dirty write-backs keep the crash-durability image honest.

use kindle_cache::Hierarchy;
use kindle_cpu::{Activity, Core};
use kindle_mem::MemoryController;
use kindle_types::{AccessKind, Cycles, PhysAddr, PhysMem, Rng64, CACHE_LINE};

use crate::config::MachineConfig;

/// Outcome of one data-line access through the hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineOutcome {
    /// Total latency charged.
    pub latency: Cycles,
    /// Whether the access missed in the LLC (HSCC counts these).
    pub llc_miss: bool,
}

/// The timing hardware. See the module docs.
#[derive(Clone, Debug)]
pub struct Hw {
    /// The in-order core: clock + activity accounting + registers.
    pub core: Core,
    /// L1/L2/LLC stack.
    pub caches: Hierarchy,
    /// Memory controller: devices + data image + durability.
    pub mc: MemoryController,
    /// When set, operations move data but charge zero time and bypass the
    /// caches (models hardware DMA engines / baselines without OS cost).
    free_mode: bool,
}

impl Hw {
    /// Builds the hardware from a machine config.
    pub fn new(cfg: &MachineConfig) -> Self {
        Hw {
            core: Core::new(),
            caches: Hierarchy::new(&cfg.caches),
            mc: MemoryController::new(&cfg.mem),
            free_mode: false,
        }
    }

    /// Switches free mode (zero-time data movement) on or off, returning
    /// the previous setting.
    pub fn set_free_mode(&mut self, free: bool) -> bool {
        std::mem::replace(&mut self.free_mode, free)
    }

    /// Is free mode active?
    pub fn free_mode(&self) -> bool {
        self.free_mode
    }

    /// Switches the activity label (delegates to the core).
    pub fn set_activity(&mut self, a: Activity) -> Activity {
        self.core.set_activity(a)
    }

    /// One cache-line access with full timing: cache levels, line fill,
    /// dirty write-backs (which also commit NVM durability).
    pub fn access_line(&mut self, pa: PhysAddr, kind: AccessKind) -> LineOutcome {
        if self.free_mode {
            return LineOutcome { latency: Cycles::ZERO, llc_miss: false };
        }
        let res = self.caches.access(pa, kind);
        let mut latency = res.latency;
        let now = self.core.now();
        if res.needs_fill {
            latency += self.mc.access(pa, AccessKind::Read, now);
        }
        for &wb in res.writebacks.iter() {
            latency += self.mc.access(wb, AccessKind::Write, now);
            self.mc.commit_line(wb);
        }
        self.core.advance(latency);
        LineOutcome { latency, llc_miss: res.llc_miss }
    }

    /// Simulates a power failure at the hardware level: caches lose all
    /// contents (dirty data included) and the memory controller rolls back
    /// non-durable NVM lines and wipes DRAM.
    pub fn crash(&mut self) {
        self.caches.invalidate_all();
        self.mc.crash();
    }

    /// Power failure without ADR: caches lose everything, and whatever the
    /// controller had accepted but not yet drained to media is torn at
    /// 8-byte granularity (the NVM persist atom) using `rng`.
    pub fn crash_torn(&mut self, rng: &mut Rng64) {
        self.caches.invalidate_all();
        self.mc.crash_torn(rng);
    }
}

impl PhysMem for Hw {
    fn touch(&mut self, pa: PhysAddr, kind: AccessKind) -> Cycles {
        self.access_line(pa, kind).latency
    }

    fn read_u64(&mut self, pa: PhysAddr) -> u64 {
        if !self.free_mode {
            self.access_line(pa, AccessKind::Read);
        }
        let mut b = [0u8; 8];
        self.mc.load_bytes(pa, &mut b);
        u64::from_le_bytes(b)
    }

    fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        if !self.free_mode {
            self.access_line(pa, AccessKind::Write);
        }
        self.mc.store_bytes(pa, &value.to_le_bytes());
        if self.free_mode {
            // DMA-style stores are durable immediately.
            self.mc.commit_line(pa);
        }
    }

    fn read_bytes(&mut self, pa: PhysAddr, buf: &mut [u8]) {
        if !self.free_mode {
            let mut line = pa.line_base();
            let end = pa + buf.len() as u64;
            while line < end {
                self.access_line(line, AccessKind::Read);
                line += CACHE_LINE as u64;
            }
        }
        self.mc.load_bytes(pa, buf);
    }

    fn write_bytes(&mut self, pa: PhysAddr, data: &[u8]) {
        if !self.free_mode {
            let mut line = pa.line_base();
            let end = pa + data.len() as u64;
            while line < end {
                self.access_line(line, AccessKind::Write);
                line += CACHE_LINE as u64;
            }
        }
        self.mc.store_bytes(pa, data);
        if self.free_mode {
            let mut line = pa.line_base();
            let end = pa + data.len() as u64;
            while line < end {
                self.mc.commit_line(line);
                line += CACHE_LINE as u64;
            }
        }
    }

    fn clwb(&mut self, pa: PhysAddr) {
        if self.free_mode {
            self.mc.commit_line(pa);
            return;
        }
        // clwb itself is cheap; the write-back traffic is what costs.
        self.core.advance(Cycles::new(2));
        if self.caches.clwb(pa) {
            let now = self.core.now();
            let lat = self.mc.access(pa, AccessKind::Write, now);
            self.core.advance(lat);
        }
        self.mc.commit_line(pa);
    }

    fn sfence(&mut self) {
        if !self.free_mode {
            self.core.advance(Cycles::new(10));
        }
    }

    fn persist_barrier(&mut self) {
        if self.free_mode {
            // DMA-style stores commit straight to media; nothing to drain.
            return;
        }
        self.sfence();
        let now = self.core.now();
        let lat = self.mc.nvm_drain_latency(now);
        self.core.advance(lat);
    }

    fn advance(&mut self, cost: Cycles) {
        if !self.free_mode {
            self.core.advance(cost);
        }
    }

    fn now(&self) -> Cycles {
        self.core.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::MemKind;

    fn hw() -> (Hw, PhysAddr, PhysAddr) {
        let cfg = MachineConfig::small();
        let nvm = cfg.mem.layout.range(MemKind::Nvm).base;
        (Hw::new(&cfg), PhysAddr::new(0x10000), nvm + 0x10000)
    }

    #[test]
    fn caching_reduces_latency() {
        let (mut hw, dram, _) = hw();
        let first = hw.access_line(dram, AccessKind::Read);
        let second = hw.access_line(dram, AccessKind::Read);
        assert!(first.llc_miss);
        assert!(!second.llc_miss);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn nvm_miss_slower_than_dram_miss() {
        let (mut hw, dram, nvm) = hw();
        let d = hw.access_line(dram, AccessKind::Read).latency;
        let n = hw.access_line(nvm, AccessKind::Read).latency;
        assert!(n > d, "nvm fill {n} vs dram fill {d}");
    }

    #[test]
    fn data_round_trip_through_phys_mem() {
        let (mut hw, dram, _) = hw();
        hw.write_u64(dram, 0xfeed_f00d);
        assert_eq!(hw.read_u64(dram), 0xfeed_f00d);
        hw.write_bytes(dram + 64, b"hello");
        let mut b = [0u8; 5];
        hw.read_bytes(dram + 64, &mut b);
        assert_eq!(&b, b"hello");
    }

    #[test]
    fn unflushed_nvm_write_lost_on_crash() {
        let (mut hw, _, nvm) = hw();
        hw.write_u64(nvm, 42);
        hw.crash();
        assert_eq!(hw.read_u64(nvm), 0, "dirty line never written back");
    }

    #[test]
    fn clwb_makes_nvm_write_durable() {
        let (mut hw, _, nvm) = hw();
        hw.write_u64(nvm, 42);
        hw.clwb(nvm);
        hw.sfence();
        hw.crash();
        assert_eq!(hw.read_u64(nvm), 42);
    }

    #[test]
    fn natural_eviction_also_commits() {
        let (mut hw, _, nvm) = hw();
        hw.write_u64(nvm, 77);
        // Thrash far more lines than the hierarchy holds to force the dirty
        // line out (same kind so the line lands in NVM-adjacent sets).
        let llc_lines = (2u64 << 20) / 64;
        for i in 1..=(llc_lines * 3) {
            hw.access_line(nvm + i * 64, AccessKind::Read);
        }
        hw.crash();
        assert_eq!(hw.read_u64(nvm), 77, "evicted dirty line must have committed");
    }

    #[test]
    fn free_mode_moves_data_without_time() {
        let (mut hw, _, nvm) = hw();
        hw.set_free_mode(true);
        let t0 = hw.now();
        hw.write_u64(nvm, 9);
        hw.copy_page(nvm.page_base(), (nvm + 4096).page_base());
        assert_eq!(hw.now(), t0, "free mode charges nothing");
        hw.set_free_mode(false);
        assert_eq!(hw.read_u64(nvm), 9);
        // Free-mode writes are durable.
        hw.crash();
        assert_eq!(hw.read_u64(nvm), 9);
    }

    #[test]
    fn activity_attribution_flows_through() {
        let (mut hw, dram, _) = hw();
        hw.set_activity(Activity::Checkpoint);
        hw.access_line(dram, AccessKind::Read);
        assert!(hw.core.breakdown().get(Activity::Checkpoint) > Cycles::ZERO);
        assert_eq!(hw.core.breakdown().get(Activity::User), Cycles::ZERO);
    }
}
