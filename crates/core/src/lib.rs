//! **Kindle** — a framework for exploring OS–architecture interplay in
//! hybrid (DRAM + NVM) memory systems.
//!
//! This crate is the public face of the Kindle reproduction: it re-exports
//! the whole stack and adds the two things the paper's users interact with:
//!
//! * [`Kindle`] — the framework object tying the *preparation component*
//!   (trace capture / workload generation, §II-B) to the *simulation
//!   component* (the full machine, §II);
//! * [`experiments`] — runnable drivers for every table and figure in the
//!   paper's evaluation (§III), from the page-table-scheme comparison
//!   (Fig. 4, Tables III/IV) to the SSP (Fig. 5) and HSCC (Fig. 6,
//!   Tables V/VI) prototype studies.
//!
//! # Quickstart
//!
//! ```
//! use kindle_core::prelude::*;
//!
//! // Build a hybrid-memory machine (Table I config, shrunk for the test).
//! let mut machine = Machine::new(MachineConfig::small())?;
//! let pid = machine.spawn_process()?;
//!
//! // Allocate in NVM via the extended mmap (MAP_NVM) and touch it.
//! let va = machine.mmap(pid, 2 * 4096, Prot::RW, MapFlags::NVM)?;
//! machine.access(pid, va, AccessKind::Write)?;
//!
//! let report = machine.report();
//! assert_eq!(report.kernel.page_faults, 1);
//! # Ok::<(), kindle_core::KindleError>(())
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod experiments;
pub mod framework;
pub mod parallel;

pub use framework::Kindle;

// Re-export the full stack under stable names.
pub use kindle_cache as cache;
pub use kindle_cpu as cpu;
pub use kindle_hscc as hscc;
pub use kindle_mem as mem;
pub use kindle_os as os;
pub use kindle_persist as persist;
pub use kindle_sim as sim;
pub use kindle_ssp as ssp;
pub use kindle_tlb as tlb;
pub use kindle_trace as trace;
pub use kindle_types as types;

pub use kindle_sim::{Machine, MachineConfig, ReplayOptions, ReplayReport, SimReport};
pub use kindle_types::{
    AccessKind, Cycles, KindleError, MapFlags, MemKind, Prot, Result, VirtAddr,
};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::framework::Kindle;
    pub use kindle_hscc::HsccConfig;
    pub use kindle_os::PtMode;
    pub use kindle_sim::{Machine, MachineConfig, ReplayOptions};
    pub use kindle_ssp::SspConfig;
    pub use kindle_trace::{Driver, ReplayProgram, WorkloadKind};
    pub use kindle_types::{
        AccessKind, Cycles, KindleError, MapFlags, MemKind, Prot, Result, VirtAddr,
    };
}
