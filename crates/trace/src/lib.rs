//! The Kindle *preparation component* (paper §II-B).
//!
//! The original framework traces applications with Intel Pin (plus SniP for
//! multi-threaded stack layouts), reads `/proc/pid/maps` for the virtual
//! memory layout, and bakes `(period, offset, operation, size, area)`
//! tuples into a disk image that a generated gemOS template program
//! replays. Pin and the real GAP / Graph500 / YCSB binaries are not
//! available offline, so this crate substitutes **synthetic tracers**: the
//! workload generators produce streams with the same op counts and
//! read/write mixes as Table II and locality profiles shaped after each
//! application, exercising the identical downstream code path (image →
//! template program → replay on the simulated machine).
//!
//! # Examples
//!
//! ```
//! use kindle_trace::{Driver, WorkloadKind};
//!
//! let (layout, image) = Driver::new(42).trace(WorkloadKind::YcsbMem, 10_000);
//! assert_eq!(image.records().len(), 10_000);
//! let frac_reads = image.records().iter()
//!     .filter(|r| r.op == kindle_types::AccessKind::Read).count() as f64 / 10_000.0;
//! assert!((frac_reads - 0.71).abs() < 0.02, "Table II: YCSB is 71% reads");
//! assert!(!layout.areas().is_empty());
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod driver;
pub mod image;
pub mod layout;
pub mod record;
pub mod replay;
pub mod workloads;
pub mod zipf;

pub use driver::Driver;
pub use image::TraceImage;
pub use layout::{Area, AreaKind, MemoryLayout};
pub use record::{AreaId, TraceRecord};
pub use replay::ReplayProgram;
pub use workloads::{OpStream, WorkloadKind, WorkloadSpec};
pub use zipf::Zipf;
