//! Shadow Sub-Paging (SSP) prototype — paper §III-B, after Ni et al.
//!
//! SSP gives applications a failure-atomic view of NVM memory: every NVM
//! virtual page gets *two* physical pages (original + shadow), and the
//! cache/translation hardware routes each cache-line write to the page that
//! does **not** hold the line's committed copy. At the end of a consistency
//! interval the modified-line bitmaps collected in the TLB are written to
//! the SSP metadata cache in NVM, dirty lines are `clwb`-ed, and the
//! `current` bitmaps flip — committing the interval atomically. A background
//! consolidation thread later merges the split pages of TLB-evicted entries.
//!
//! The hardware halves (TLB bitmap fields, write routing) live in
//! `kindle-tlb` and the machine's access path; this crate owns the metadata
//! cache, the interval engine, the FASE programming model and the
//! consolidation thread.

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod cache;
pub mod engine;

pub use cache::{SspCache, SspCacheEntry, ENTRY_BYTES};
pub use engine::{SspConfig, SspEngine, SspStats};
