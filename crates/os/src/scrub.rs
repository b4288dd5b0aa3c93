//! Scrubd and patrold: periodic read-verify of NVM frames.
//!
//! Stuck NVM cells corrupt page-table entries silently: a wear-worn line at
//! least fails its writes loudly (retry exhaustion reaches the controller's
//! failed-frame queue), but a stuck bit "succeeds" and the walker later
//! consumes the flipped entry. The scrub daemon closes that window. Each
//! pass re-reads every NVM table frame and compares a checksum of the 512
//! stored entries against the kernel's shadow metadata (the intended
//! values, maintained by every PTE store — see
//! `AddressSpace::expected_table_words`). A mismatching line is flagged
//! ([`ScrubDetect`]), rewritten from the shadow through the scheme's
//! consistency discipline — which routes it through the ECP correction
//! layer, permanently healing the line when budget remains
//! ([`ScrubCorrect`]) — and re-verified; a line that stays corrupted means
//! the budget is exhausted and the whole frame is retired
//! content-preservingly ([`ScrubRetire`]), reusing the wear-out remap path.
//!
//! This module holds the daemon's engine state (schedule + counters); the
//! verify pass itself is `Kernel::scrub_pt_frames`. The machine dispatches
//! it as [`DaemonKind::Scrub`](crate::DaemonKind::Scrub): on the `scrubd`
//! kthread when kthreads are on, inline from the timer loop otherwise.
//!
//! Patrold is scrubd's sibling for *data* frames: where scrubd verifies
//! page tables against the kernel's shadow metadata, patrold walks the
//! general NVM pool with a bounded per-pass batch and verifies each frame
//! against the controller's per-line store-time checksums
//! ([`PatrolDetect`]/[`PatrolCorrect`]). An unhealable frame that is mapped
//! cannot be relocated content-preservingly — the content is gone — so the
//! kernel poisons the mapping ([`PagePoison`]) and kills the owning process
//! ([`ProcessKilled`]) rather than ever returning corrupt bytes; an
//! unmapped one takes the quiet retirement path. [`PatrolState`] below is
//! the engine (schedule + resumable pool cursor + counters); the pass
//! driver lives in `kindle_sim` because it needs both the kernel and the
//! memory controller.
//!
//! [`ScrubDetect`]: kindle_types::sanitize::Event::ScrubDetect
//! [`ScrubCorrect`]: kindle_types::sanitize::Event::ScrubCorrect
//! [`ScrubRetire`]: kindle_types::sanitize::Event::ScrubRetire
//! [`PatrolDetect`]: kindle_types::sanitize::Event::PatrolDetect
//! [`PatrolCorrect`]: kindle_types::sanitize::Event::PatrolCorrect
//! [`PagePoison`]: kindle_types::sanitize::Event::PagePoison
//! [`ProcessKilled`]: kindle_types::sanitize::Event::ProcessKilled

use kindle_types::{Cycles, Pfn};

/// Result of one scrub pass over every NVM page-table frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubPassOutcome {
    /// Table frames whose checksum matched the shadow (nothing to do).
    pub frames_clean: u64,
    /// Lines found holding corrupted entries.
    pub lines_detected: u64,
    /// Lines healed by the rewrite (ECP entries covered every stuck cell).
    pub lines_corrected: u64,
    /// Table frames retired because a line stayed corrupted after the
    /// rewrite, with the owning pid: the caller must flush that process's
    /// cached translations.
    pub frames_retired: Vec<(u32, Pfn)>,
}

/// Cumulative scrubd counters, reported through `SimReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Verify passes completed.
    pub passes: u64,
    /// Clean frames seen across all passes.
    pub frames_clean: u64,
    /// Corrupted lines detected.
    pub lines_detected: u64,
    /// Lines healed in place.
    pub lines_corrected: u64,
    /// Table frames retired and relocated.
    pub frames_retired: u64,
}

/// Schedule + counters for the scrub daemon (held by the machine, rebuilt
/// at every boot like the other engines).
#[derive(Clone, Debug)]
pub struct ScrubState {
    interval: Cycles,
    next_due: Cycles,
    stats: ScrubStats,
}

impl ScrubState {
    /// An engine that first fires one full `interval` after `start`, the
    /// boot clock: 0 at first boot, the post-crash time at a reboot (the
    /// clock keeps running across a crash).
    pub fn new(interval: Cycles, start: Cycles) -> Self {
        ScrubState { interval, next_due: start + interval, stats: ScrubStats::default() }
    }

    /// True once the next pass is due at `now`.
    pub fn due(&self, now: Cycles) -> bool {
        now >= self.next_due
    }

    /// Folds one pass's outcome into the counters and schedules the next
    /// pass one interval after `now` (passes never queue up).
    pub fn complete_pass(&mut self, now: Cycles, outcome: &ScrubPassOutcome) {
        self.stats.passes += 1;
        self.stats.frames_clean += outcome.frames_clean;
        self.stats.lines_detected += outcome.lines_detected;
        self.stats.lines_corrected += outcome.lines_corrected;
        self.stats.frames_retired += outcome.frames_retired.len() as u64;
        self.next_due = now + self.interval;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ScrubStats {
        &self.stats
    }
}

/// Result of one patrol batch over general-pool NVM data frames.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatrolPassOutcome {
    /// Allocated frames whose checksums were re-verified this batch.
    pub frames_checked: u64,
    /// Frames where every line matched its recorded checksum.
    pub frames_clean: u64,
    /// Lines whose checksum mismatched the stored bytes.
    pub lines_detected: u64,
    /// Lines restored in place (ECP covered the erasures and the decode
    /// matched the recorded checksum).
    pub lines_healed: u64,
    /// Mapped frames that stayed corrupt: PTE poisoned, owner killed.
    pub frames_poisoned: u64,
    /// Unmapped (or table-owned) frames that stayed corrupt and were
    /// retired through the content-preserving path instead.
    pub frames_retired: u64,
    /// Pids killed with `MemoryPoison` this batch: the caller must flush
    /// each one's cached translations.
    pub killed: Vec<u32>,
}

/// Cumulative patrold counters, reported through `SimReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatrolStats {
    /// Patrol batches completed.
    pub passes: u64,
    /// Frames checksum-verified across all batches.
    pub frames_checked: u64,
    /// Frames found fully clean.
    pub frames_clean: u64,
    /// Corrupted lines detected.
    pub lines_detected: u64,
    /// Lines healed in place via ECP erasure decode.
    pub lines_healed: u64,
    /// Mapped frames poisoned (owner killed).
    pub frames_poisoned: u64,
    /// Unmapped frames retired.
    pub frames_retired: u64,
    /// Processes killed with `MemoryPoison`.
    pub procs_killed: u64,
}

/// Frames verified per patrol batch. DIMM patrol scrubbers bound the
/// per-pass work so verification bandwidth stays a small, fixed tax; the
/// cursor carries the walk across passes until it wraps.
pub const PATROL_BATCH_FRAMES: u64 = 64;

/// Schedule + resumable pool cursor + counters for the patrol daemon
/// (held by the machine, rebuilt at every boot like [`ScrubState`]).
#[derive(Clone, Debug)]
pub struct PatrolState {
    interval: Cycles,
    next_due: Cycles,
    cursor: u64,
    stats: PatrolStats,
}

impl PatrolState {
    /// An engine that first fires one full `interval` after `start`, the
    /// boot clock (as for [`ScrubState::new`]), with the walk cursor at the
    /// start of the pool: a reboot loses the in-memory walk position, while
    /// the recorded checksums survive for the fresh walk to verify.
    pub fn new(interval: Cycles, start: Cycles) -> Self {
        PatrolState {
            interval,
            next_due: start + interval,
            cursor: 0,
            stats: PatrolStats::default(),
        }
    }

    /// True once the next batch is due at `now`.
    pub fn due(&self, now: Cycles) -> bool {
        now >= self.next_due
    }

    /// Offset into the pool's pfn space where the next batch resumes.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Advances the cursor; the pass driver wraps it modulo pool capacity.
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }

    /// Folds one batch's outcome into the counters and schedules the next
    /// batch one interval after `now` (batches never queue up).
    pub fn complete_pass(&mut self, now: Cycles, outcome: &PatrolPassOutcome) {
        self.stats.passes += 1;
        self.stats.frames_checked += outcome.frames_checked;
        self.stats.frames_clean += outcome.frames_clean;
        self.stats.lines_detected += outcome.lines_detected;
        self.stats.lines_healed += outcome.lines_healed;
        self.stats.frames_poisoned += outcome.frames_poisoned;
        self.stats.frames_retired += outcome.frames_retired;
        self.stats.procs_killed += outcome.killed.len() as u64;
        self.next_due = now + self.interval;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &PatrolStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fires_then_rearms() {
        let mut s = ScrubState::new(Cycles::new(100), Cycles::ZERO);
        assert!(!s.due(Cycles::new(99)));
        assert!(s.due(Cycles::new(100)));
        let outcome = ScrubPassOutcome {
            frames_clean: 3,
            lines_detected: 2,
            lines_corrected: 1,
            frames_retired: vec![(1, Pfn::new(9))],
        };
        s.complete_pass(Cycles::new(150), &outcome);
        assert!(!s.due(Cycles::new(249)), "next pass one interval after completion");
        assert!(s.due(Cycles::new(250)));
        assert_eq!(s.stats().passes, 1);
        assert_eq!(s.stats().frames_retired, 1);
        assert_eq!(s.stats().lines_detected, 2);
    }

    #[test]
    fn patrol_schedule_and_cursor_accumulate() {
        let mut p = PatrolState::new(Cycles::new(200), Cycles::ZERO);
        assert!(!p.due(Cycles::new(199)));
        assert!(p.due(Cycles::new(200)));
        assert_eq!(p.cursor(), 0, "walk starts at the pool base");
        p.set_cursor(17);
        let outcome = PatrolPassOutcome {
            frames_checked: 5,
            frames_clean: 3,
            lines_detected: 4,
            lines_healed: 2,
            frames_poisoned: 1,
            frames_retired: 1,
            killed: vec![7],
        };
        p.complete_pass(Cycles::new(250), &outcome);
        assert!(!p.due(Cycles::new(449)), "next batch one interval after completion");
        assert!(p.due(Cycles::new(450)));
        assert_eq!(p.cursor(), 17, "completing a pass leaves the cursor alone");
        assert_eq!(p.stats().passes, 1);
        assert_eq!(p.stats().frames_poisoned, 1);
        assert_eq!(p.stats().procs_killed, 1);
        let rebooted = PatrolState::new(Cycles::new(200), Cycles::new(1000));
        assert!(!rebooted.due(Cycles::new(1199)), "first batch one interval after boot");
        assert!(rebooted.due(Cycles::new(1200)));
    }
}
