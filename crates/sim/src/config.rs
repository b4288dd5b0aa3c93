//! Machine configuration (Table I defaults).

use std::cell::Cell;
use std::marker::PhantomData;

use kindle_cache::HierarchyConfig;
use kindle_hscc::HsccConfig;
use kindle_mem::{Backend, MediaFaultConfig, MemConfig};
use kindle_os::{DaemonKind, KernelCosts, PtMode};
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
    /// page-table scrubbing) on simulated kernel daemon threads scheduled
    /// by `Machine::step`, with the `kthread_switch` cost charged per
    /// dispatch. Off by default: single-threaded runs stay byte-identical
    /// to pre-scheduler builds.
    pub kthreads: bool,
    /// Background daemons the machine registers (see `Machine` and the
    /// daemon registry). A listed daemon only gets a kthread when
    /// `kthreads` is on and its engine is configured; its work runs inline
    /// from the timer loop otherwise.
    pub daemons: Vec<DaemonKind>,
    /// Scrub daemon schedule: `Some(interval)` arms periodic page-table
    /// read-verify against the kernel's shadow metadata (usually set via
    /// [`MachineConfig::with_daemon`]).
    pub scrub_interval: Option<Cycles>,
    /// Patrol daemon schedule: `Some(interval)` arms periodic checksum
    /// verification of general-pool NVM data frames (usually set via
    /// [`MachineConfig::with_daemon`]).
    pub patrol_interval: Option<Cycles>,
}

/// Default scrubd period (one pass per simulated millisecond).
pub const DEFAULT_SCRUB_INTERVAL: Cycles = Cycles::from_millis(1);

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
            daemons: vec![DaemonKind::Checkpoint, DaemonKind::Migration],
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

    /// Adds a background daemon to the registry. Adding
    /// [`DaemonKind::Scrub`] or [`DaemonKind::Patrol`] also arms that
    /// engine at its default interval unless one is already set.
    pub fn with_daemon(mut self, kind: DaemonKind) -> Self {
        if !self.daemons.contains(&kind) {
            self.daemons.push(kind);
        }
        if kind == DaemonKind::Scrub && self.scrub_interval.is_none() {
            self.scrub_interval = Some(DEFAULT_SCRUB_INTERVAL);
        }
        if kind == DaemonKind::Patrol && self.patrol_interval.is_none() {
            self.patrol_interval = Some(DEFAULT_PATROL_INTERVAL);
        }
        self
    }

    /// Arms the scrub daemon with an explicit pass interval.
    pub fn with_scrub_interval(mut self, interval: Cycles) -> Self {
        self.scrub_interval = Some(interval);
        self.with_daemon(DaemonKind::Scrub)
    }

    /// Arms the patrol daemon with an explicit batch interval.
    pub fn with_patrol_interval(mut self, interval: Cycles) -> Self {
        self.patrol_interval = Some(interval);
        self.with_daemon(DaemonKind::Patrol)
    }
}

/// The settings of one run that reach machines whose construction sites
/// the caller does not control: the bench harness installs it once from
/// its flags, [`Machine::new`](crate::Machine::new) reads it, and
/// `kindle_core::parallel::par_map` carries it onto every worker. It
/// lives in a host-thread-local (like the sanitizer installation in
/// `kindle_types::sanitize`); [`RunContext::current`] and
/// [`RunContext::install`] are the only ways in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunContext {
    /// Media-fault model for machines whose config leaves `mem.faults`
    /// unset; an explicit config always wins.
    pub faults: Option<MediaFaultConfig>,
    /// Far-tier backend for machines whose config leaves `mem.backend`
    /// unset; an explicit config always wins.
    pub backend: Option<Backend>,
    /// Worker count for experiment grids (`par_map_cells`); at least 1
    /// once installed.
    pub jobs: usize,
}

impl RunContext {
    /// Serial, fault-free, default backend.
    const DEFAULT: RunContext = RunContext { faults: None, backend: None, jobs: 1 };

    /// The context installed on this thread ([`RunContext::default`]
    /// unless a guard is live).
    pub fn current() -> RunContext {
        CONTEXT.with(Cell::get)
    }

    /// Installs this context on the current thread, clamping `jobs` to at
    /// least 1. The guard restores the previous context when dropped,
    /// unwinding included, so installs nest.
    pub fn install(self) -> RunContextGuard {
        let ctx = RunContext { jobs: self.jobs.max(1), ..self };
        RunContextGuard { prev: CONTEXT.with(|c| c.replace(ctx)), _thread: PhantomData }
    }
}

impl Default for RunContext {
    fn default() -> Self {
        Self::DEFAULT
    }
}

thread_local! {
    static CONTEXT: Cell<RunContext> = const { Cell::new(RunContext::DEFAULT) };
}

/// Restores the context that [`RunContext::install`] shadowed. Not `Send`:
/// it must drop on the thread whose context it replaced.
#[must_use = "the context is uninstalled as soon as the guard drops"]
#[derive(Debug)]
pub struct RunContextGuard {
    prev: RunContext,
    _thread: PhantomData<*const ()>,
}

impl Drop for RunContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
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
}
