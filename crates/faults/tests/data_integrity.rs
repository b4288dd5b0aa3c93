//! Directed data-page integrity: corrupt *data* lines at chosen cells and
//! prove the checksum/patrol/poison subsystem closes the loop.
//!
//! The sibling `scrub_recovery` suite covers page-table frames, which the
//! kernel can always rebuild from shadow metadata. Data pages have no
//! shadow: the only recovery material is the per-line store-time checksum
//! plus the ECP correction budget, and when both run out the page's bytes
//! are gone. These tests pin the whole ladder:
//!
//! * budget ≥ erasures + patrold — the patrol's erasure decode restores
//!   the line byte-identically and nobody notices;
//! * budget 0 + patrold — the frame is unrecoverable: the PTE is
//!   poisoned, the owner dies with `MemoryPoison`, and no read ever
//!   observes the corrupt bytes;
//! * budget 0, unmapped frame — no owner to kill: the frame is retired
//!   in place, content preserved;
//! * a store past the budget, no patrold — the controller queues the
//!   failed frame, and the next timer poll finds its content lost and
//!   poisons it as patrold would;
//! * budget 0, no patrold — the pre-patrold failure mode: the
//!   application consumes silently corrupted data, and the new
//!   `DataReadFromUncorrectedLine` invariant is the only witness.

use std::cell::RefCell;
use std::rc::Rc;

use kindle_faults::{run_data_integrity_sweep_strategy, SweepStrategy};
use kindle_mem::MediaFaultConfig;
use kindle_os::PtMode;
use kindle_sim::{Machine, MachineConfig, RunSettings};
use kindle_types::sanitize::{
    self, Event, InvariantChecker, KillReason, Sanitizer, ThreadId, Violation,
};
use kindle_types::{
    AccessKind, Cycles, KindleError, MapFlags, Pfn, PhysMem, Prot, VirtAddr, PAGE_SIZE,
};

const WORDS: u64 = PAGE_SIZE as u64 / 8;

/// The machine under test: persistent page tables (so the patrol must
/// prove it skips table frames), the media-fault model armed with *no*
/// random faults (every stuck cell is placed by hand), and optionally the
/// patrol daemon.
fn cfg(correction_entries: u32, patrold: bool) -> MachineConfig {
    let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
    if patrold {
        cfg = cfg.with_patrol_interval(Cycles::from_micros(10));
    }
    cfg.mem.faults = Some(MediaFaultConfig {
        wear_limit: 0,
        stuck_cells: 0,
        correction_entries,
        ..MediaFaultConfig::with_seed(7)
    });
    cfg
}

/// Sanitizer recording every event while forwarding to the invariant
/// checker, so a test can assert on both.
struct Recorder {
    ic: InvariantChecker,
    events: Rc<RefCell<Vec<Event>>>,
}

impl Sanitizer for Recorder {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        self.events.borrow_mut().push(*ev);
        self.ic.on_event(tid, ev);
    }
}

/// Maps one populated NVM data page for `pid` and fills it through the
/// checksummed store path; returns `(va, pfn, shadow)`.
fn fill_page(m: &mut Machine, pid: u32) -> (VirtAddr, Pfn, Vec<u64>) {
    let va = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM | MapFlags::POPULATE).unwrap();
    let pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
    let mut shadow = Vec::with_capacity(WORDS as usize);
    for w in 0..WORDS {
        let val = 0xd00d_0000_0000_0000 | w;
        m.hw.write_u64(pfn.base() + w * 8, val);
        shadow.push(val);
    }
    (va, pfn, shadow)
}

/// Keeps the machine busy from `driver`'s DRAM page until patrold has
/// completed `extra` more verify batches than it had on entry.
fn drive_patrol(m: &mut Machine, driver: u32, dva: VirtAddr, extra: u64) {
    let base = m.patrol.as_ref().map_or(0, |p| p.stats().passes);
    for _ in 0..400_000u64 {
        if m.patrol.as_ref().is_some_and(|p| p.stats().passes >= base + extra) {
            return;
        }
        m.access(driver, dva, AccessKind::Write).unwrap();
    }
    panic!("patrold never completed {extra} more passes: {:?}", m.patrol);
}

#[test]
fn stuck_cell_under_mapped_data_heals_byte_identical_with_budget() {
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let _guard = sanitize::install(Box::new(ic));

    let mut m = Machine::new(cfg(2, true)).unwrap();
    let victim = m.spawn_process().unwrap();
    let driver = m.spawn_process().unwrap();
    let (va, pfn, shadow) = fill_page(&mut m, victim);
    assert!(m.hw.mc.degrade_line_bit(pfn.base().as_u64() + 5 * 64, 100));
    let dva = m.mmap(driver, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
    drive_patrol(&mut m, driver, dva, 2);

    let st = m.patrol.as_ref().unwrap().stats().clone();
    assert_eq!(st.lines_detected, 1, "{st:?}");
    assert_eq!(st.lines_healed, 1, "the erasure decode must restore the line: {st:?}");
    assert_eq!(st.frames_poisoned, 0, "{st:?}");
    assert_eq!(st.procs_killed, 0, "{st:?}");
    assert!(m.kernel.process(victim).is_ok(), "nobody dies on a healable fault");
    for w in 0..WORDS {
        assert_eq!(m.hw.read_u64(pfn.base() + w * 8), shadow[w as usize], "word {w} differs");
    }
    // The application-visible read path is clean too: the checker would
    // flag a read of any line whose detection was never resolved.
    m.access(victim, va + 5 * 64, AccessKind::Read).unwrap();
    let violations = ic_log.take();
    assert!(violations.is_empty(), "sanitizer violations: {violations:?}");
}

#[test]
fn exhausted_budget_poisons_the_page_and_kills_the_owner() {
    let events = Rc::new(RefCell::new(Vec::new()));
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let _guard = sanitize::install(Box::new(Recorder { ic, events: events.clone() }));

    let mut m = Machine::new(cfg(0, true)).unwrap();
    let victim = m.spawn_process().unwrap();
    let driver = m.spawn_process().unwrap();
    let (va, pfn, _shadow) = fill_page(&mut m, victim);
    assert!(m.hw.mc.degrade_line_bit(pfn.base().as_u64() + 7 * 64, 3));
    let dva = m.mmap(driver, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
    for _ in 0..400_000u64 {
        if m.kernel.process(victim).is_err() {
            break;
        }
        m.access(driver, dva, AccessKind::Write).unwrap();
    }

    assert!(m.kernel.process(victim).is_err(), "victim must die: {:?}", m.patrol);
    let st = m.patrol.as_ref().unwrap().stats().clone();
    assert_eq!(st.frames_poisoned, 1, "{st:?}");
    assert_eq!(st.procs_killed, 1, "{st:?}");
    assert_eq!(st.lines_healed, 0, "budget 0 cannot heal a line: {st:?}");
    assert_eq!(m.kernel.stats().pages_poisoned, 1);
    assert_eq!(m.kernel.stats().procs_killed, 1);
    assert!(m.kernel.pools.nvm.is_allocated(pfn), "poisoned frame never re-enters the pool");
    assert!(m.tlb_shootdowns() >= 1, "the kill must shoot down cached translations");

    let evs = events.borrow();
    assert!(
        evs.iter().any(|e| matches!(e, Event::PagePoison { pfn: p, .. } if *p == pfn.as_u64())),
        "PagePoison for the corrupt frame must be published"
    );
    assert!(
        evs.iter().any(|e| matches!(
            e,
            Event::ProcessKilled { pid, reason: KillReason::MemoryPoison } if *pid == victim
        )),
        "the kill must carry the MemoryPoison reason"
    );
    drop(evs);

    // The dead owner's view is an error, never corrupt bytes...
    let err = m.access(victim, va, AccessKind::Read).unwrap_err();
    assert!(matches!(err, KindleError::NoSuchProcess(p) if p == victim), "got {err:?}");
    // ...and the rest of the machine keeps working.
    m.access(driver, dva, AccessKind::Read).unwrap();
    let violations = ic_log.take();
    assert!(violations.is_empty(), "no read ever consumed the corrupt line: {violations:?}");
}

#[test]
fn failed_frame_with_lost_content_is_poisoned_on_the_next_poll() {
    let events = Rc::new(RefCell::new(Vec::new()));
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let _guard = sanitize::install(Box::new(Recorder { ic, events: events.clone() }));

    // One ECP entry per line and no patrold: only the controller's
    // failed-frame queue can notice the loss.
    let mut m = Machine::new(cfg(1, false)).unwrap();
    let victim = m.spawn_process().unwrap();
    let driver = m.spawn_process().unwrap();
    let (_va, pfn, shadow) = fill_page(&mut m, victim);
    let dva = m.mmap(driver, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
    // Two cells stuck at 1 under bits the stored word holds at 0: one
    // more than the line's budget.
    let line = pfn.base().as_u64() + 3 * 64;
    let media = m.hw.mc.media_mut().unwrap();
    assert!(media.add_stuck_cell(line, 0, true) && media.add_stuck_cell(line, 1, true));
    assert_eq!(shadow[24] & 3, 0);

    // The store exhausts the budget and queues the frame; the next poll
    // finds its content lost and takes the poison path.
    m.hw.write_u64(pfn.base() + 3 * 64, shadow[24]);
    assert!(m.kernel.process(victim).is_ok(), "nothing happens before a poll");
    m.access(driver, dva, AccessKind::Write).unwrap();

    assert!(m.kernel.process(victim).is_err(), "the owner must die");
    assert_eq!(m.kernel.stats().pages_poisoned, 1);
    assert_eq!(m.kernel.stats().procs_killed, 1);
    assert!(m.kernel.pools.nvm.is_allocated(pfn), "poisoned frame never re-enters the pool");
    let evs = events.borrow();
    assert!(
        evs.iter().any(|e| matches!(e, Event::PagePoison { pfn: p, .. } if *p == pfn.as_u64())),
        "PagePoison for the lost frame must be published"
    );
    assert!(
        evs.iter().any(|e| matches!(
            e,
            Event::ProcessKilled { pid, reason: KillReason::MemoryPoison } if *pid == victim
        )),
        "the kill must carry the MemoryPoison reason"
    );
    drop(evs);
    let violations = ic_log.take();
    assert!(violations.is_empty(), "sanitizer violations: {violations:?}");
}

#[test]
fn unmapped_unhealable_frame_is_retired_in_place() {
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let _guard = sanitize::install(Box::new(ic));

    let mut m = Machine::new(cfg(0, true)).unwrap();
    let driver = m.spawn_process().unwrap();
    // An allocated-but-unmapped data frame (a buffer the kernel owns, say)
    // with real checksummed content.
    let pfn = m.kernel.pools.nvm.alloc(&mut m.hw).unwrap();
    for w in 0..8u64 {
        m.hw.write_u64(pfn.base() + w * 8, 0xfeed_0000 | w);
    }
    assert!(m.hw.mc.degrade_line_bit(pfn.base().as_u64(), 9));
    let dva = m.mmap(driver, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY).unwrap();
    drive_patrol(&mut m, driver, dva, 1);

    let st = m.patrol.as_ref().unwrap().stats().clone();
    assert!(st.frames_retired >= 1, "{st:?}");
    assert_eq!(st.frames_poisoned, 0, "no mapping, nobody to poison: {st:?}");
    assert_eq!(st.procs_killed, 0, "{st:?}");
    assert_eq!(m.kernel.stats().procs_killed, 0);
    assert!(m.kernel.pools.nvm.is_allocated(pfn), "retired frame stays out of circulation");
    assert!(m.kernel.process(driver).is_ok());
    // Content-preserving: words outside the stuck bit still read back.
    assert_eq!(m.hw.read_u64(pfn.base() + 8), 0xfeed_0001);
    let violations = ic_log.take();
    assert!(violations.is_empty(), "sanitizer violations: {violations:?}");
}

#[test]
fn without_patrold_a_corrupt_read_trips_the_new_invariant() {
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let _guard = sanitize::install(Box::new(ic));

    let mut m = Machine::new(cfg(0, false)).unwrap();
    let pid = m.spawn_process().unwrap();
    let (va, pfn, shadow) = fill_page(&mut m, pid);
    let line = pfn.base().as_u64() + 3 * 64;
    assert!(m.hw.mc.degrade_line_bit(line, 2));
    assert!(m.patrol.is_none());

    // The stored word diverged from what the application wrote...
    assert_ne!(m.hw.read_u64(pfn.base() + 3 * 64), shadow[24], "the stuck bit must bite");
    // ...and nothing stops the application from consuming it. The read
    // succeeds — silent corruption — and the new invariant is the only
    // witness.
    m.access(pid, va + 3 * 64, AccessKind::Read).unwrap();
    let violations = ic_log.take();
    assert!(!violations.is_empty(), "the corrupt read must be flagged");
    assert!(
        violations
            .iter()
            .all(|v| matches!(v, Violation::DataReadFromUncorrectedLine { line: l } if *l == line)),
        "unexpected violations: {violations:?}"
    );
}

#[test]
fn data_integrity_sweep_is_jobs_invariant() {
    let serial = RunSettings::default();
    let four = RunSettings { jobs: 4, ..serial };
    let a =
        run_data_integrity_sweep_strategy(0xDA7A, 3, serial, SweepStrategy::SnapshotFork).unwrap();
    let b =
        run_data_integrity_sweep_strategy(0xDA7A, 3, four, SweepStrategy::SnapshotFork).unwrap();
    assert_eq!(a, b, "worker count must not leak into the outcome");
    assert_eq!(a.points, 4);
    assert_eq!(a.data_healed, 3, "the budgeted daemon arm heals every seeded line");
    assert!(a.data_poisoned >= 1, "the zero-budget daemon arm loses a page: {a:?}");
    assert_eq!(a.procs_killed, 1, "exactly one victim dies across the grid: {a:?}");
}
