//! The simulated CPU core: clock, register file and activity accounting.
//!
//! Kindle's experiments hinge on *attributing* simulated time: Figure 6
//! splits execution into user time and OS migration time (the HSCC engine
//! splits the latter into scan, selection and copy for Table VI); the
//! persistence study splits out checkpoint time. The
//! [`Core`] owns the global cycle counter and a per-[`Activity`] breakdown;
//! every component charges time through it under the currently active label.
//!
//! # Examples
//!
//! ```
//! use kindle_cpu::{Activity, Core};
//! use kindle_types::Cycles;
//!
//! let mut core = Core::new();
//! core.advance(Cycles::new(100)); // user by default
//! let prev = core.set_activity(Activity::MigrationScan);
//! core.advance(Cycles::new(50));
//! core.set_activity(prev);
//! assert_eq!(core.breakdown().get(Activity::User).as_u64(), 100);
//! assert_eq!(core.breakdown().get(Activity::MigrationScan).as_u64(), 50);
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod core_model;
pub mod regs;

pub use core_model::{Activity, ActivityBreakdown, Core, CpuStats};
pub use regs::RegisterFile;
