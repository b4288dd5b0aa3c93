//! Hardware/Software Cooperative Caching (HSCC) prototype — paper §III-C,
//! after Liu et al.
//!
//! HSCC arranges DRAM and NVM in a flat address space and manages a pool of
//! DRAM pages as an OS-controlled cache of hot NVM pages:
//!
//! * the hardware counts per-page accesses that miss in the LLC (counter in
//!   the TLB entry, spilled to the PTE on eviction or once per interval);
//! * every migration interval (31.25 ms ≙ the original paper's 10⁸ cycles)
//!   the OS walks the page table, selects NVM pages whose count exceeds the
//!   *fetch threshold*, and migrates them into the DRAM pool;
//! * migration = **page selection** (grab a free page, else recycle a clean
//!   page, else write back a dirty page first) + **page copy** (flush the
//!   NVM page's cache lines, copy 4 KiB, remap the PTE);
//! * all counts are reset at the end of the interval so the next interval
//!   sees fresh counts.
//!
//! The engine never touches the TLB. The simulator's machine flushes it
//! once before each pass (one shootdown): the flush folds the live counts
//! into the PTEs the scan reads, and no translation the pass remaps stays
//! cached, since nothing translates through the TLB during a pass.
//!
//! The original HSCC extended PTEs to 96 bits; like the paper's Kindle
//! prototype we keep 64-bit PTEs and maintain a separate NVM↔DRAM lookup
//! table ([`MappingTable`]) in DRAM instead.

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod engine;
pub mod pool;
pub mod table;

pub use engine::{HsccConfig, HsccEngine, HsccStats, MigrationOutcome};
pub use pool::{DramPool, ListKind, PoolSnapshot};
pub use table::MappingTable;
