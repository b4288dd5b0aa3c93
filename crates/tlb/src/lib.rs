//! TLB hierarchy and hardware page-table walker for the Kindle framework.
//!
//! The paper's prototypes both extend translation hardware:
//!
//! * **SSP** adds per-entry `updated`/`current` bitmaps and a shadow frame
//!   number to route sub-page (cache-line) writes to alternate physical
//!   pages ([`SspTlbExt`]).
//! * **HSCC** adds a per-entry access counter incremented on LLC misses and
//!   written back to the PTE on eviction or once per migration interval.
//!
//! Both extensions live in [`TlbEntry`]. The [`PageWalker`] performs real
//! 4-level walks by issuing loads through any [`kindle_types::PhysMem`], so
//! a page table hosted in NVM pays NVM latency on every walk — the effect
//! at the heart of the paper's *persistent vs. rebuild* comparison.
//!
//! # Examples
//!
//! ```
//! use kindle_tlb::{Tlb, TlbConfig, TlbEntry};
//! use kindle_types::{MemKind, Pfn, Vpn};
//!
//! let mut tlb = Tlb::new(TlbConfig::l1_default());
//! tlb.insert(TlbEntry::new(Vpn::new(5), Pfn::new(9), true, MemKind::Dram));
//! assert_eq!(tlb.lookup(Vpn::new(5)).unwrap().pfn, Pfn::new(9));
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod entry;
pub mod msr;
pub mod tlb;
pub mod walker;

pub use entry::{SspTlbExt, TlbEntry};
pub use msr::MsrFile;
pub use tlb::{Tlb, TlbConfig, TlbStats, TwoLevelTlb, TwoLevelTlbConfig};
pub use walker::{pte_addr, PageWalker, WalkError, WalkOutcome};
