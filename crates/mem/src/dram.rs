//! DDR4 DRAM timing model with per-bank open rows.

use kindle_types::{AccessKind, Cycles, PhysAddr};

use crate::config::DramConfig;

/// Per-device DRAM statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that had to activate a new row.
    pub row_misses: u64,
    /// Total reads serviced.
    pub reads: u64,
    /// Total writes serviced.
    pub writes: u64,
    /// Total cycles spent servicing accesses.
    pub busy_cycles: Cycles,
}

impl DramStats {
    /// Row-buffer hit rate in `[0, 1]`; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// A DRAM device: banks with open-row tracking, flat latency otherwise.
///
/// The model captures the first-order DDR behaviour that matters to the
/// paper's experiments: accesses with spatial locality (sequential page
/// touches, page-table walks within one table) hit the open row and are
/// roughly 2x faster than random accesses.
#[derive(Clone, Debug)]
pub struct DramDevice {
    cfg: DramConfig,
    /// Open row id per bank (`None` = closed/powered down).
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
}

impl DramDevice {
    /// Creates a device with all rows closed.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = cfg.banks.max(1);
        DramDevice { cfg, open_rows: vec![None; banks], stats: DramStats::default() }
    }

    /// Services one cache-line access and returns its latency.
    pub fn access(&mut self, pa: PhysAddr, kind: AccessKind, _now: Cycles) -> Cycles {
        let row = pa.as_u64() / self.cfg.row_bytes;
        let bank = (row as usize) % self.open_rows.len();
        let hit = self.open_rows[bank] == Some(row);
        let lat = if hit {
            self.stats.row_hits += 1;
            Cycles::from_nanos(self.cfg.row_hit_ns)
        } else {
            self.stats.row_misses += 1;
            self.open_rows[bank] = Some(row);
            Cycles::from_nanos(self.cfg.row_miss_ns)
        };
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.busy_cycles += lat;
        lat
    }

    /// Device statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Power-cycle: close all rows and clear stats (contents are handled by
    /// the controller's data image).
    pub fn reset(&mut self) {
        for r in &mut self.open_rows {
            *r = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DramDevice {
        DramDevice::new(DramConfig::default())
    }

    #[test]
    fn sequential_hits_open_row() {
        let mut d = dev();
        let first = d.access(PhysAddr::new(0), AccessKind::Read, Cycles::ZERO);
        let second = d.access(PhysAddr::new(64), AccessKind::Read, Cycles::ZERO);
        assert!(first > second, "first access opens the row, second hits it");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn far_accesses_conflict_in_same_bank() {
        let mut d = dev();
        let cfg = DramConfig::default();
        let stride = cfg.row_bytes * cfg.banks as u64; // same bank, different row
        d.access(PhysAddr::new(0), AccessKind::Read, Cycles::ZERO);
        let lat = d.access(PhysAddr::new(stride), AccessKind::Read, Cycles::ZERO);
        assert_eq!(lat, Cycles::from_nanos(cfg.row_miss_ns));
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn reads_and_writes_counted() {
        let mut d = dev();
        d.access(PhysAddr::new(0), AccessKind::Read, Cycles::ZERO);
        d.access(PhysAddr::new(0), AccessKind::Write, Cycles::ZERO);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert!(d.stats().hit_rate() > 0.0);
    }

    #[test]
    fn reset_closes_rows() {
        let mut d = dev();
        d.access(PhysAddr::new(0), AccessKind::Read, Cycles::ZERO);
        d.reset();
        let lat = d.access(PhysAddr::new(0), AccessKind::Read, Cycles::ZERO);
        assert_eq!(lat, Cycles::from_nanos(DramConfig::default().row_miss_ns));
    }
}
