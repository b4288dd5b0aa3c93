//! Aggregated memory-system statistics.

use crate::dram::DramStats;
use crate::nvm::{MediaStats, NvmStats};

/// Roll-up of DRAM and NVM device statistics plus controller counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// DRAM device stats.
    pub dram: DramStats,
    /// NVM device stats.
    pub nvm: NvmStats,
    /// Media-fault model counters (all zero when fault injection is off).
    pub media: MediaStats,
    /// Cache-line write-backs committed to the durable NVM image.
    pub nvm_lines_committed: u64,
    /// NVM lines reverted to their durable value on the last crash.
    pub nvm_lines_lost_on_crash: u64,
    /// NVM lines left partially written (8-byte torn) by the last crash.
    pub nvm_lines_torn_on_crash: u64,
    /// NVM write retries charged by the media-fault retry policy.
    pub nvm_write_retries: u64,
    /// NVM frames declared failed (retries exhausted) and queued for
    /// OS retirement.
    pub nvm_frames_failed: u64,
    /// Number of crash events.
    pub crashes: u64,
}

impl MemStats {
    /// Total accesses across both devices.
    pub fn total_accesses(&self) -> u64 {
        self.dram.reads + self.dram.writes + self.nvm.reads + self.nvm.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_both_devices() {
        let mut s = MemStats::default();
        s.dram.reads = 3;
        s.nvm.writes = 4;
        assert_eq!(s.total_accesses(), 7);
    }
}
