//! Machine configuration (Table I defaults).

use kindle_cache::HierarchyConfig;
use kindle_hscc::HsccConfig;
use kindle_mem::{Backend, MediaFaultConfig, MemConfig};
use kindle_os::{KernelCosts, PtMode};
use kindle_ssp::SspConfig;
use kindle_tlb::TwoLevelTlbConfig;
use kindle_types::Cycles;

/// Process-persistence (checkpoint engine) setup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSetup {
    /// Checkpoint interval (paper default 10 ms, after Aurora).
    pub interval: Cycles,
    /// Saved-state slots to carve.
    pub max_procs: usize,
}

impl Default for CheckpointSetup {
    fn default() -> Self {
        CheckpointSetup { interval: Cycles::from_millis(10), max_procs: 8 }
    }
}

/// Full machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Memory devices and physical layout (Table I).
    pub mem: MemConfig,
    /// Cache hierarchy (32K/512K/2M per the paper's gem5 setup).
    pub caches: HierarchyConfig,
    /// TLB stack.
    pub tlb: TwoLevelTlbConfig,
    /// Page-table maintenance scheme.
    pub pt_mode: PtMode,
    /// Kernel instruction-cost table.
    pub costs: KernelCosts,
    /// Enable periodic execution-context checkpointing.
    pub checkpoint: Option<CheckpointSetup>,
    /// Enable the SSP prototype.
    pub ssp: Option<SspConfig>,
    /// Enable the HSCC prototype.
    pub hscc: Option<HsccConfig>,
    /// Charge HSCC's OS-mode migration work (false = the paper's
    /// "hardware migration activities only" baseline).
    pub hscc_os_mode: bool,
    /// Run background engine work (checkpoint flushes, HSCC migration,
    /// page-table scrubs, data-frame patrols) on simulated kernel daemon
    /// threads scheduled by `Machine::step`, one per configured engine,
    /// with the `kthread_switch` cost charged per dispatch. Off by
    /// default: the work then runs inline from the timer loop, and
    /// single-threaded runs stay byte-identical to pre-scheduler builds.
    pub kthreads: bool,
    /// Scrub daemon schedule: `Some(interval)` arms periodic page-table
    /// read-verify against the kernel's shadow metadata (usually set via
    /// [`MachineConfig::with_scrub_interval`]).
    pub scrub_interval: Option<Cycles>,
    /// Patrol daemon schedule: `Some(interval)` arms periodic checksum
    /// verification of general-pool NVM data frames (usually set via
    /// [`MachineConfig::with_patrol_interval`]).
    pub patrol_interval: Option<Cycles>,
}

/// Default patrold period. Each batch verifies a bounded slice of the pool
/// (`kindle_os::PATROL_BATCH_FRAMES`), so the period is shorter than
/// scrubd's whole-table pass.
pub const DEFAULT_PATROL_INTERVAL: Cycles = Cycles::from_micros(250);

impl MachineConfig {
    /// Full-size machine: 3 GB DRAM + 2 GB NVM, no prototype engines.
    pub fn table_i() -> Self {
        MachineConfig {
            mem: MemConfig::default(),
            caches: HierarchyConfig::default(),
            tlb: TwoLevelTlbConfig::default(),
            pt_mode: PtMode::Rebuild,
            costs: KernelCosts::default(),
            checkpoint: None,
            ssp: None,
            hscc: None,
            hscc_os_mode: true,
            kthreads: false,
            scrub_interval: None,
            patrol_interval: None,
        }
    }

    /// Small machine (128 MiB + 128 MiB) for tests: full behaviour, less
    /// host memory.
    pub fn small() -> Self {
        MachineConfig { mem: MemConfig::with_capacities(128 << 20, 128 << 20), ..Self::table_i() }
    }

    /// Sets the page-table scheme.
    pub fn with_pt_mode(mut self, mode: PtMode) -> Self {
        self.pt_mode = mode;
        self
    }

    /// Enables checkpointing at `interval`.
    pub fn with_checkpointing(mut self, interval: Cycles) -> Self {
        self.checkpoint = Some(CheckpointSetup { interval, ..Default::default() });
        self
    }

    /// Enables SSP.
    pub fn with_ssp(mut self, ssp: SspConfig) -> Self {
        self.ssp = Some(ssp);
        self
    }

    /// Enables HSCC.
    pub fn with_hscc(mut self, hscc: HsccConfig, os_mode: bool) -> Self {
        self.hscc = Some(hscc);
        self.hscc_os_mode = os_mode;
        self
    }

    /// Selects the far-tier memory backend (timing, endurance/fault
    /// semantics, patrol capability — see [`kindle_mem::Backend`]).
    pub fn with_backend(mut self, backend: kindle_mem::Backend) -> Self {
        self.mem.backend = Some(backend);
        self
    }

    /// Enables the NVM media-fault model (wear-out + stuck cells) with the
    /// default intensities for `seed`.
    pub fn with_media_faults(mut self, seed: u64) -> Self {
        self.mem.faults = Some(MediaFaultConfig::with_seed(seed));
        self
    }

    /// Runs background engine work on simulated kernel daemon threads.
    pub fn with_kthreads(mut self) -> Self {
        self.kthreads = true;
        self
    }

    /// Arms the scrub daemon with an explicit pass interval.
    pub fn with_scrub_interval(mut self, interval: Cycles) -> Self {
        self.scrub_interval = Some(interval);
        self
    }

    /// Arms the patrol daemon with an explicit batch interval.
    pub fn with_patrol_interval(mut self, interval: Cycles) -> Self {
        self.patrol_interval = Some(interval);
        self
    }
}

/// The settings of one run that no single machine config carries: the
/// bench harness builds them from `--faults`, `--backend` and `--jobs`
/// and passes them to every grid, sweep and machine it runs. Grids fill
/// each machine's config through [`RunSettings::apply`], so a machine is
/// a function of its [`MachineConfig`] alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSettings {
    /// Media-fault model for machines whose config leaves `mem.faults`
    /// unset; an explicit config always wins.
    pub faults: Option<MediaFaultConfig>,
    /// Far-tier backend for machines whose config leaves `mem.backend`
    /// unset; an explicit config always wins.
    pub backend: Option<Backend>,
    /// Worker count for experiment grids and crash sweeps; 0 and 1 both
    /// mean serial.
    pub jobs: usize,
}

impl RunSettings {
    /// Fills the media-fault model and far-tier backend `cfg` leaves
    /// unset; an explicit config always wins.
    #[must_use]
    pub fn apply(self, mut cfg: MachineConfig) -> MachineConfig {
        if cfg.mem.faults.is_none() {
            cfg.mem.faults = self.faults;
        }
        if cfg.mem.backend.is_none() {
            cfg.mem.backend = self.backend;
        }
        cfg
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::table_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::MemKind;

    #[test]
    fn table_i_capacities() {
        let c = MachineConfig::table_i();
        assert_eq!(c.mem.layout.total(MemKind::Dram), 3 << 30);
        assert_eq!(c.mem.layout.total(MemKind::Nvm), 2 << 30);
        assert!(c.checkpoint.is_none());
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::small()
            .with_pt_mode(PtMode::Persistent)
            .with_checkpointing(Cycles::from_millis(100));
        assert_eq!(c.pt_mode, PtMode::Persistent);
        assert_eq!(c.checkpoint.unwrap().interval, Cycles::from_millis(100));
    }

    #[test]
    fn run_settings_fill_only_unset_fields() {
        let run = RunSettings {
            faults: Some(MediaFaultConfig::with_seed(77)),
            backend: Some(Backend::Numa),
            jobs: 4,
        };
        let filled = run.apply(MachineConfig::small());
        assert_eq!(filled.mem.faults, run.faults);
        assert_eq!(filled.mem.backend, run.backend);
        assert_eq!(RunSettings::default().apply(MachineConfig::small()), MachineConfig::small());

        let explicit =
            run.apply(MachineConfig::small().with_media_faults(5).with_backend(Backend::Cxl));
        assert_eq!(explicit.mem.faults.map(|f| f.seed), Some(5), "an explicit model wins");
        assert_eq!(explicit.mem.backend, Some(Backend::Cxl), "an explicit backend wins");
    }
}
