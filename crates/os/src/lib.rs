//! The gemOS-analog kernel of the Kindle framework.
//!
//! This crate reimplements, from scratch, the slice of gemOS that the
//! paper's experiments exercise:
//!
//! * **Physical frame management** — separate DRAM and NVM pools built from
//!   the e820 map; the NVM allocator persists its allocation bitmap into
//!   reserved NVM frames so allocation state survives crashes (§II-A).
//! * **Virtual memory areas** — VMAs tagged DRAM or NVM by the `MAP_NVM`
//!   flag of the extended `mmap` API, with `munmap`/`mremap`/`mprotect`.
//! * **Page tables** — real 4-level x86-64 tables stored *in simulated
//!   physical memory* and manipulated through [`kindle_types::PhysMem`], so
//!   the *rebuild* scheme's DRAM tables and the *persistent* scheme's
//!   NVM-resident, consistency-wrapped tables have exactly the relative
//!   costs the paper measures.
//! * **Processes and system calls** — execution contexts (register file +
//!   VMA list + address space) plus demand paging; every kernel routine
//!   charges an instruction cost and its real memory traffic.
//!
//! # Examples
//!
//! ```
//! use kindle_os::{Kernel, KernelConfig};
//! use kindle_types::physmem::FlatMem;
//! use kindle_types::{MapFlags, Prot};
//!
//! let mut mem = FlatMem::new(64 << 20);
//! let mut k = Kernel::new(KernelConfig::for_test(64 << 20), &mut mem).unwrap();
//! let pid = k.create_process(&mut mem).unwrap();
//! let va = k
//!     .sys_mmap(&mut mem, pid, None, 8192, Prot::RW, MapFlags::NVM)
//!     .unwrap();
//! let pte = k.handle_fault(&mut mem, pid, va, kindle_types::AccessKind::Write).unwrap();
//! assert!(pte.is_present());
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod costs;
pub mod frame;
pub mod kernel;
pub mod layout;
pub mod meta;
pub mod pagetable;
pub mod process;
pub mod sched;
pub mod scrub;
pub mod vma;

pub use costs::KernelCosts;
pub use frame::{FrameAllocator, FramePools, PersistentFrameAllocator};
pub use kernel::{
    IntegrityOutcome, Kernel, KernelConfig, KernelStats, RetireOutcome, UnmapOutcome,
};
pub use layout::{NvmLayout, Region};
pub use meta::MetaRecord;
pub use pagetable::{AddressSpace, PtMode};
pub use process::{ProcState, Process};
pub use sched::{DaemonKind, KThread, Scheduler, ThreadState};
pub use scrub::{
    PatrolPassOutcome, PatrolState, PatrolStats, ScrubPassOutcome, ScrubState, ScrubStats,
    PATROL_BATCH_FRAMES,
};
pub use vma::{Vma, VmaList};
