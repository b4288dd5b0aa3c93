//! Memory configuration, defaulting to the paper's Table I settings.

use crate::e820::E820Map;

/// Gibibyte shorthand.
pub const GIB: u64 = 1 << 30;

/// DRAM device timing and geometry (DDR4-2400-ish).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency of an access that hits the open row of a bank, in ns.
    pub row_hit_ns: u64,
    /// Latency of an access that must open a new row, in ns.
    pub row_miss_ns: u64,
    /// Number of independent banks.
    pub banks: usize,
    /// Row (page) size per bank in bytes.
    pub row_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // DDR4-2400: CAS-limited hit ~ 25 ns, full ACT+CAS ~ 50 ns.
        DramConfig { row_hit_ns: 25, row_miss_ns: 50, banks: 16, row_bytes: 8192 }
    }
}

/// NVM device timing. [`NvmConfig::pcm`] follows the parameters of Song et
/// al. that the paper cites for its gem5 PCM interface; every far-tier
/// backend hands out its own from [`crate::backend::Backend::timing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NvmConfig {
    /// Array read latency in ns.
    pub read_ns: u64,
    /// Cell write (service) latency in ns — PCM writes are slow.
    pub write_service_ns: u64,
    /// Entries in the write buffer (Table I: 48).
    pub write_buffer: usize,
    /// Independent write banks draining the buffer in parallel (sustained
    /// write throughput = banks / write_service_ns).
    pub write_banks: usize,
    /// Entries in the read buffer (Table I: 64).
    pub read_buffer: usize,
    /// Cost of inserting a write into a non-full buffer, in ns.
    pub buffer_insert_ns: u64,
    /// Latency of a read forwarded from a pending buffered write, in ns.
    pub forward_ns: u64,
}

impl NvmConfig {
    /// Phase-change memory — the paper's Table I configuration (timings
    /// after Song et al.). This is the default.
    pub fn pcm() -> Self {
        NvmConfig {
            read_ns: 150,
            write_service_ns: 500,
            write_buffer: 48,
            write_banks: 8,
            read_buffer: 64,
            buffer_insert_ns: 10,
            forward_ns: 30,
        }
    }
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self::pcm()
    }
}

/// Deterministic NVM media-fault model: per-line wear-out plus stuck-at
/// cells. All randomness is derived from `seed` through the in-tree
/// `Rng64`, so a given seed reproduces the exact same fault history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediaFaultConfig {
    /// Seed for fault placement and transient-failure rolls.
    pub seed: u64,
    /// Mean per-line write endurance. A line's writes start failing inside
    /// the last tenth of its (jittered) endurance budget and fail
    /// permanently beyond it. `0` disables wear-out.
    pub wear_limit: u64,
    /// Number of stuck-at bit cells scattered over the NVM range.
    pub stuck_cells: usize,
    /// Write retries the controller attempts before declaring the line's
    /// frame failed.
    pub retry_limit: u32,
    /// Extra latency charged per retry, in nanoseconds (bounded backoff).
    pub retry_backoff_ns: u64,
    /// ECP-style correction entries available per cache line. Each entry
    /// permanently replaces one stuck cell; a line needing more than this
    /// budget stays corrupted and its frame must be retired. `0` (the
    /// default) disables correction, reproducing raw stuck-at corruption.
    pub correction_entries: u32,
}

impl MediaFaultConfig {
    /// Default model for a given seed: endurance low enough that sustained
    /// test workloads actually wear lines out, a handful of stuck cells,
    /// and a short bounded retry loop.
    pub fn with_seed(seed: u64) -> Self {
        MediaFaultConfig {
            seed,
            wear_limit: 4096,
            stuck_cells: 4,
            retry_limit: 3,
            retry_backoff_ns: 200,
            correction_entries: 0,
        }
    }
}

/// Complete memory-system configuration: device timings plus the physical
/// layout (which address ranges are DRAM vs. NVM).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// Physical address layout.
    pub layout: E820Map,
    /// Optional NVM media-fault injection (off by default).
    pub faults: Option<MediaFaultConfig>,
    /// Single-entry MRU page cache in front of the controller's page map
    /// (on by default; off exists so equivalence tests can prove the fast
    /// path changes no observable output).
    pub mru_page_cache: bool,
    /// Far-tier backend selection; `None` (the default) means PCM. The
    /// backend's [`crate::backend::Backend`] methods are the far tier's
    /// only source of timing, fault filtering, patrol capability and link
    /// penalty.
    pub backend: Option<crate::backend::Backend>,
}

impl MemConfig {
    /// Builds a config with the given capacities and default timings.
    /// DRAM occupies `[0, dram_bytes)`, NVM follows contiguously — the same
    /// flat-address-mode partitioning Kindle inserts into the gem5 e820 map.
    pub fn with_capacities(dram_bytes: u64, nvm_bytes: u64) -> Self {
        MemConfig {
            dram: DramConfig::default(),
            layout: E820Map::flat(dram_bytes, nvm_bytes),
            faults: None,
            mru_page_cache: true,
            backend: None,
        }
    }
}

impl Default for MemConfig {
    /// Table I: 3 GB DRAM + 2 GB NVM.
    fn default() -> Self {
        MemConfig::with_capacities(3 * GIB, 2 * GIB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use kindle_types::MemKind;

    #[test]
    fn default_matches_table_i() {
        let cfg = MemConfig::default();
        assert_eq!(cfg.backend.unwrap_or_default(), Backend::Pcm);
        let nvm = Backend::Pcm.timing();
        assert_eq!(nvm.write_buffer, 48);
        assert_eq!(nvm.read_buffer, 64);
        assert_eq!(cfg.layout.range(MemKind::Dram).size, 3 * GIB);
        assert_eq!(cfg.layout.range(MemKind::Nvm).size, 2 * GIB);
    }

    #[test]
    fn nvm_write_slower_than_read() {
        let cfg = NvmConfig::default();
        assert!(cfg.write_service_ns > cfg.read_ns);
    }
}
