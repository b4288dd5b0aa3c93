//! Memory substrate for the Kindle framework.
//!
//! Models the hybrid physical memory of the paper's gem5 configuration
//! (Table I): a DDR4-2400 DRAM device with per-bank open rows, a PCM NVM
//! device with asymmetric read/write latency and a 48-entry write buffer /
//! 64-entry read buffer, an e820-style physical memory map that partitions
//! the physical address space between the two, and a memory controller that
//! dispatches accesses and owns the backing data image with crash-durability
//! semantics (NVM lines only become durable once written back).
//!
//! # Examples
//!
//! ```
//! use kindle_mem::{MemConfig, MemoryController};
//! use kindle_types::{AccessKind, Cycles, MemKind};
//!
//! let cfg = MemConfig::default(); // 3 GB DRAM + 2 GB NVM, Table I timings
//! let mut mc = MemoryController::new(&cfg);
//! let nvm_pa = cfg.layout.range(MemKind::Nvm).base;
//! let lat = mc.access(nvm_pa, AccessKind::Read, Cycles::ZERO);
//! assert!(lat > Cycles::ZERO);
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod backend;
pub mod config;
pub mod controller;
pub mod dram;
pub mod e820;
pub mod nvm;
pub mod stats;
pub mod store;

pub use backend::Backend;
pub use config::{DramConfig, MediaFaultConfig, MemConfig, NvmConfig};
pub use controller::{MemoryController, PatrolOutcome, PowerSwitch};
pub use dram::DramDevice;
pub use e820::{E820Entry, E820Map};
pub use nvm::{
    CorrectionOutcome, MediaFaults, MediaStats, NvmDevice, WriteOutcome, CELLS_PER_LINE,
};
pub use stats::MemStats;
