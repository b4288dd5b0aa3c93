//! The Kindle simulation component: the full machine.
//!
//! Wires the substrates together into a [`Machine`]:
//!
//! * [`Hw`] — the hardware timing core implementing
//!   [`kindle_types::PhysMem`]: the in-order CPU clock, the L1/L2/LLC
//!   hierarchy and the hybrid DRAM+PCM memory controller with its
//!   crash-durability image;
//! * the two-level TLB and hardware page-table walker;
//! * the gemOS-analog [`kindle_os::Kernel`];
//! * the optional prototype engines — process-persistence checkpointing,
//!   SSP and HSCC — driven from the machine's timer loop exactly as gemOS
//!   drives them in the paper.
//!
//! # Examples
//!
//! ```
//! use kindle_sim::{Machine, MachineConfig};
//! use kindle_types::{AccessKind, MapFlags, Prot};
//!
//! let mut m = Machine::new(MachineConfig::small()).unwrap();
//! let pid = m.spawn_process().unwrap();
//! let va = m.mmap(pid, 8192, Prot::RW, MapFlags::NVM).unwrap();
//! m.access(pid, va, AccessKind::Write).unwrap();
//! assert!(m.now().as_u64() > 0);
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod config;
mod daemon;
pub mod hw;
pub mod machine;
pub mod report;

pub use config::{MachineConfig, RunSettings, DEFAULT_PATROL_INTERVAL};
pub use hw::Hw;
pub use machine::{Machine, MachineSnapshot, ReplayOptions, ReplayReport};
pub use report::SimReport;
