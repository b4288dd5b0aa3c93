//! Process persistence for the Kindle framework (paper §II-A / §III-A).
//!
//! A persistent process can be restarted after a crash in a consistent
//! state. The machinery, all hosted in reserved NVM regions laid out by
//! [`kindle_os::NvmLayout`]:
//!
//! * a **saved-state area** ([`SavedStateArea`]) holding, per process, two
//!   copies of the execution context (registers, VMA layout, PTBR) plus two
//!   copies of the virtual→NVM-frame mapping list, with a valid-copy flag
//!   flipped atomically at the end of each checkpoint;
//! * a **redo log** ([`RedoLog`]) capturing OS metadata modifications
//!   between checkpoints;
//! * a **checkpoint engine** ([`CheckpointEngine`]) that fires at a fixed
//!   interval, applies the redo log to the working copy, maintains the
//!   mapping list (rebuild scheme) by traversing the page table, and commits;
//! * a **recovery procedure** ([`recover_all`]) that scans the saved-state
//!   area after a crash and reconstructs every process — rebuilding page
//!   tables from the mapping list (*rebuild*) or simply restoring the PTBR
//!   (*persistent*).
//!
//! All reads and writes go through [`kindle_types::PhysMem`], so the cost
//! difference between the two page-table schemes emerges from real memory
//! traffic rather than hard-coded constants.

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod log;
pub mod recovery;
pub mod slot;

pub use checkpoint::{CheckpointEngine, CheckpointScheme, CheckpointStats};
pub use log::{LogRecord, RedoLog};
pub use recovery::{recover_all, RecoveryReport};
pub use slot::{SavedContext, SavedStateArea, SlotHandle};
