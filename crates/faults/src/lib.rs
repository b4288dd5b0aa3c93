//! Deterministic crash & media-fault injection with verified recovery.
//!
//! This crate closes the loop between the fault *mechanisms* in the lower
//! layers and the recovery *claims* of the persistence subsystem:
//!
//! * [`FaultPlan`] picks a kill point — the N-th persist-boundary event,
//!   the N-th NVM line write, or the first event at/after a cycle — either
//!   explicitly (for exhaustive sweeps) or seeded from the in-tree
//!   [`kindle_types::Rng64`];
//! * [`PowerCutTrigger`] is a [`kindle_types::sanitize::Sanitizer`] that
//!   watches the event stream, cuts the shared
//!   [`kindle_mem::PowerSwitch`] when the plan's point is reached, and
//!   shields the checkers it wraps from the doomed post-cut events (none
//!   of which will survive the crash);
//! * [`RecoveryChecker`] verifies what the generic invariant checker
//!   cannot: recovery-specific obligations such as publish-copy
//!   alternation, no PTE installed into a frame that was never
//!   re-allocated after the crash, and exactly-once log replay per pass;
//! * [`sweep`] runs a deterministic workload once to enumerate every
//!   persist boundary (capturing a machine snapshot after every workload
//!   step into a bounded pool), then crashes once per boundary by forking
//!   a machine from the nearest snapshot with a power cut armed there,
//!   tearing the in-flight write buffer at the 8-byte persist atom,
//!   recovering, and checking the recovered state against the last
//!   durable checkpoint. The pre-snapshot replay-from-zero execution
//!   survives as [`sweep::SweepStrategy::ReplayFromZero`], the cross-check
//!   oracle whose digests the forked sweep must reproduce byte-for-byte.

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

pub mod plan;
pub mod recovery_checker;
pub mod sweep;
pub mod trigger;

pub use plan::{FaultPlan, FaultPoint};
pub use recovery_checker::{RecoveryChecker, RecoveryViolation, RecoveryViolationLog};
pub use sweep::{
    run_data_integrity_sweep_strategy, run_nvm_write_sweep, run_nvm_write_sweep_instrumented,
    run_stuck_sweep_strategy, run_sweep_strategy, DataIntegrityOutcome, GoldenRun, SweepOutcome,
    SweepStrategy, SweepTelemetry,
};
pub use trigger::{BoundaryCounter, PowerCutTrigger, PublishRecord};
