//! Recovery-specific invariants.
//!
//! The generic [`kindle_types::sanitize::InvariantChecker`] deliberately
//! forgets everything at a crash — its invariants are about the live run.
//! This checker keeps exactly the state that *should* survive a crash and
//! verifies the obligations of the recovery path itself.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use kindle_types::sanitize::{Event, Sanitizer, ThreadId};

/// A violated recovery obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryViolation {
    /// A slot published the same A/B copy twice in a row: the engine
    /// overwrote the only consistent image instead of alternating.
    RepublishedSameCopy {
        /// Slot base physical address.
        slot: u64,
        /// The copy published both times.
        copy: u64,
    },
    /// After a crash, a leaf PTE was installed pointing at a frame no
    /// allocator had handed out (or re-learned) since the reboot.
    PteIntoUnrecoveredFrame {
        /// The unaccounted frame.
        pfn: u64,
        /// The virtual page mapped onto it.
        vpn: u64,
    },
    /// The same redo-log record was applied twice within one replay pass.
    LogReplayedTwice {
        /// The doubly applied record index.
        seq: u64,
    },
}

impl fmt::Display for RecoveryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RecoveryViolation::RepublishedSameCopy { slot, copy } => {
                write!(f, "slot {slot:#x} published copy {copy} twice in a row")
            }
            RecoveryViolation::PteIntoUnrecoveredFrame { pfn, vpn } => write!(
                f,
                "virtual page {vpn:#x} mapped onto frame {pfn:#x} never re-allocated after crash"
            ),
            RecoveryViolation::LogReplayedTwice { seq } => {
                write!(f, "redo-log record {seq} replayed twice in one pass")
            }
        }
    }
}

/// Shared handle onto a [`RecoveryChecker`]'s violation list (same pattern
/// as [`kindle_types::sanitize::ViolationLog`]).
#[derive(Clone, Debug, Default)]
pub struct RecoveryViolationLog(Rc<RefCell<Vec<RecoveryViolation>>>);

impl RecoveryViolationLog {
    /// Copies out the violations recorded so far.
    pub fn snapshot(&self) -> Vec<RecoveryViolation> {
        self.0.borrow().clone()
    }

    /// Removes and returns all recorded violations.
    pub fn take(&self) -> Vec<RecoveryViolation> {
        std::mem::take(&mut *self.0.borrow_mut())
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    fn push(&self, v: RecoveryViolation) {
        self.0.borrow_mut().push(v);
    }
}

/// Checks recovery obligations across crashes. See the module docs.
#[derive(Debug, Default)]
pub struct RecoveryChecker {
    log: RecoveryViolationLog,
    /// Slot base → last durably published copy. Survives crashes: a
    /// forwarded publish event is only emitted once the valid flip is
    /// drained, so this mirrors the durable flag.
    last_copy: BTreeMap<u64, u64>,
    /// Frames handed out (or re-learned from the persistent bitmap) since
    /// the last crash.
    live: BTreeSet<u64>,
    /// True once a crash has been observed; only then is the live-frame
    /// set complete enough to judge PTE installs.
    crashed: bool,
    /// Records applied in the current replay pass.
    applied: BTreeSet<u64>,
}

impl RecoveryChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        RecoveryChecker::default()
    }

    /// A checker pre-seeded with the durable copy-alternation state of an
    /// already-executed prefix: `publishes` is the `(slot, copy)` of every
    /// checkpoint publish the prefix made durable, in order. A sweep that
    /// forks a machine from a mid-run snapshot uses this so the forked
    /// checker judges suffix publishes exactly as a checker that watched
    /// the whole run would.
    pub fn with_publishes(publishes: &[(u64, u64)]) -> Self {
        let mut c = RecoveryChecker::default();
        for &(slot, copy) in publishes {
            c.last_copy.insert(slot, copy);
        }
        c
    }

    /// Handle onto the violation list (clone-able, survives `install`).
    pub fn log(&self) -> RecoveryViolationLog {
        self.log.clone()
    }
}

impl Sanitizer for RecoveryChecker {
    fn on_event(&mut self, _tid: ThreadId, ev: &Event) {
        match *ev {
            Event::Crash => {
                self.crashed = true;
                self.live.clear();
                self.applied.clear();
            }
            Event::CheckpointPublish { lo, copy, .. } => {
                let previous = self.last_copy.insert(lo, copy);
                if previous == Some(copy) {
                    self.log.push(RecoveryViolation::RepublishedSameCopy { slot: lo, copy });
                }
            }
            Event::FrameAlloc { pfn, .. } => {
                self.live.insert(pfn);
            }
            Event::FrameFree { pfn, .. } | Event::FrameRetired { pfn, .. } => {
                self.live.remove(&pfn);
            }
            Event::PteInstall { pfn, vpn } if self.crashed && !self.live.contains(&pfn) => {
                self.log.push(RecoveryViolation::PteIntoUnrecoveredFrame { pfn, vpn });
            }
            Event::LogApply { seq } => {
                if seq == 0 {
                    // A replay pass always starts from record 0.
                    self.applied.clear();
                }
                if !self.applied.insert(seq) {
                    self.log.push(RecoveryViolation::LogReplayedTwice { seq });
                }
            }
            Event::LogTruncate => {
                self.applied.clear();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: impl FnOnce(&mut RecoveryChecker)) -> Vec<RecoveryViolation> {
        let mut c = RecoveryChecker::new();
        let log = c.log();
        f(&mut c);
        log.take()
    }

    #[test]
    fn alternating_publishes_clean() {
        let v = run(|c| {
            for copy in [0, 1, 0, 1] {
                c.on_event(
                    ThreadId::MAIN,
                    &Event::CheckpointPublish { lo: 0x100, hi: 0x200, copy, cycle: 1 },
                );
            }
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn republish_same_copy_flagged() {
        let v = run(|c| {
            c.on_event(
                ThreadId::MAIN,
                &Event::CheckpointPublish { lo: 0x100, hi: 0x200, copy: 0, cycle: 1 },
            );
            c.on_event(
                ThreadId::MAIN,
                &Event::CheckpointPublish { lo: 0x100, hi: 0x200, copy: 0, cycle: 2 },
            );
        });
        assert_eq!(v, vec![RecoveryViolation::RepublishedSameCopy { slot: 0x100, copy: 0 }]);
    }

    #[test]
    fn publishes_tracked_per_slot() {
        let v = run(|c| {
            c.on_event(
                ThreadId::MAIN,
                &Event::CheckpointPublish { lo: 0x100, hi: 0x200, copy: 0, cycle: 1 },
            );
            c.on_event(
                ThreadId::MAIN,
                &Event::CheckpointPublish { lo: 0x900, hi: 0xa00, copy: 0, cycle: 2 },
            );
        });
        assert!(v.is_empty(), "distinct slots may publish the same copy index");
    }

    #[test]
    fn alternation_survives_crash() {
        let v = run(|c| {
            c.on_event(
                ThreadId::MAIN,
                &Event::CheckpointPublish { lo: 0x100, hi: 0x200, copy: 0, cycle: 1 },
            );
            c.on_event(ThreadId::MAIN, &Event::Crash);
            // The durable flag still says 0, so the next publish must be 1.
            c.on_event(
                ThreadId::MAIN,
                &Event::CheckpointPublish { lo: 0x100, hi: 0x200, copy: 1, cycle: 9 },
            );
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pte_into_unrecovered_frame_flagged() {
        let v = run(|c| {
            c.on_event(ThreadId::MAIN, &Event::Crash);
            c.on_event(ThreadId::MAIN, &Event::FrameAlloc { pool: "nvm", pfn: 5 });
            c.on_event(ThreadId::MAIN, &Event::PteInstall { pfn: 5, vpn: 0x10 }); // fine
            c.on_event(ThreadId::MAIN, &Event::PteInstall { pfn: 6, vpn: 0x11 });
            // never re-allocated
        });
        assert_eq!(v, vec![RecoveryViolation::PteIntoUnrecoveredFrame { pfn: 6, vpn: 0x11 }]);
    }

    #[test]
    fn pre_crash_installs_not_judged() {
        let v = run(|c| {
            c.on_event(ThreadId::MAIN, &Event::PteInstall { pfn: 77, vpn: 0x1 });
        });
        assert!(v.is_empty(), "before any crash the live set is incomplete");
    }

    #[test]
    fn live_set_resets_each_crash() {
        let v = run(|c| {
            c.on_event(ThreadId::MAIN, &Event::Crash);
            c.on_event(ThreadId::MAIN, &Event::FrameAlloc { pool: "nvm", pfn: 5 });
            c.on_event(ThreadId::MAIN, &Event::Crash);
            c.on_event(ThreadId::MAIN, &Event::PteInstall { pfn: 5, vpn: 0x10 });
        });
        assert_eq!(v, vec![RecoveryViolation::PteIntoUnrecoveredFrame { pfn: 5, vpn: 0x10 }]);
    }

    #[test]
    fn replay_twice_in_one_pass_flagged() {
        let v = run(|c| {
            c.on_event(ThreadId::MAIN, &Event::LogApply { seq: 0 });
            c.on_event(ThreadId::MAIN, &Event::LogApply { seq: 1 });
            c.on_event(ThreadId::MAIN, &Event::LogApply { seq: 1 });
        });
        assert_eq!(v, vec![RecoveryViolation::LogReplayedTwice { seq: 1 }]);
    }

    #[test]
    fn two_full_passes_clean() {
        let v = run(|c| {
            for _ in 0..2 {
                c.on_event(ThreadId::MAIN, &Event::LogApply { seq: 0 });
                c.on_event(ThreadId::MAIN, &Event::LogApply { seq: 1 });
            }
        });
        assert!(v.is_empty(), "idempotent re-recovery restarts the pass at 0");
    }

    #[test]
    fn violations_display() {
        let v = RecoveryViolation::RepublishedSameCopy { slot: 0x40, copy: 1 };
        assert!(v.to_string().contains("twice"));
        let v = RecoveryViolation::PteIntoUnrecoveredFrame { pfn: 1, vpn: 2 };
        assert!(v.to_string().contains("never re-allocated"));
        let v = RecoveryViolation::LogReplayedTwice { seq: 3 };
        assert!(v.to_string().contains("replayed twice"));
    }
}
