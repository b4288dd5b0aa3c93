//! Cache hierarchy for the Kindle framework.
//!
//! Models the paper's gem5 cache configuration: 32 KiB L1, 512 KiB L2 and a
//! 2 MiB LLC, all set-associative, write-back, write-allocate with LRU
//! replacement. The hierarchy is decoupled from the memory controller: an
//! access returns which memory traffic (line fill, dirty write-backs) the
//! caller must charge to the memory devices, so the `sim` crate can route
//! that traffic to DRAM or NVM and keep the durability image consistent.
//!
//! Persistence-relevant operations (`clwb`, full flushes, crash
//! invalidation) are first-class: SSP and the checkpoint engines use them to
//! force data and metadata back to NVM.
//!
//! # Examples
//!
//! ```
//! use kindle_cache::{Hierarchy, HierarchyConfig};
//! use kindle_types::{AccessKind, PhysAddr};
//!
//! let mut h = Hierarchy::new(&HierarchyConfig::default());
//! let first = h.access(PhysAddr::new(0x1000), AccessKind::Read);
//! assert!(first.needs_fill); // cold miss goes to memory
//! let second = h.access(PhysAddr::new(0x1000), AccessKind::Read);
//! assert!(!second.needs_fill); // now cached
//! assert!(second.latency < first.latency);
//! ```

pub mod cache;
pub mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats, Eviction};
pub use hierarchy::{AccessResult, Hierarchy, HierarchyConfig, HierarchyStats, Writebacks};
