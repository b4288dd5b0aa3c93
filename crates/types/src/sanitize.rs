//! The cross-layer dynamic invariant sanitizer.
//!
//! Simulation components (memory controller, frame allocators, page tables,
//! redo log, checkpoint slots) report semantically interesting operations as
//! [`Event`]s through [`emit`]. By default no sanitizer is installed and an
//! emit is a single thread-local check — simulation output is identical with
//! or without the wiring, and no simulated time is ever charged.
//!
//! Tests (or debugging sessions) install a [`Sanitizer`] — typically the
//! PMTest-style [`InvariantChecker`] — which shadows the event stream and
//! records [`Violation`]s:
//!
//! * a checkpoint published while prior NVM stores in its slot are still
//!   undrained (not yet `clwb`-committed);
//! * double free or cross-pool free of a physical frame;
//! * a PTE left pointing at (or installed over) a freed frame;
//! * redo-log records applied out of append order;
//! * two *simulated kernel threads* writing the same NVM line with no
//!   intervening persist barrier or lock event (a data race on persistent
//!   state — see [`Violation::RacyNvmWrite`]).
//!
//! # Simulated thread ids
//!
//! Every event is stamped with the [`ThreadId`] of the simulated kernel
//! thread that produced it. Emission sites do not pass the id themselves:
//! the scheduler (`kindle_os::sched`, driven by `kindle_sim::Machine`)
//! publishes the running thread through [`set_current_thread`], and
//! [`emit`] stamps it centrally — an emit site cannot get it wrong, and
//! single-threaded simulations (the default) emit everything as
//! [`ThreadId::MAIN`], which keeps them byte-identical to builds that
//! predate the scheduler.
//!
//! The sanitizer is (host-)thread-local so parallel test threads cannot
//! observe each other's events.
//!
//! # Examples
//!
//! ```
//! use kindle_types::sanitize::{self, Event, InvariantChecker};
//!
//! let checker = InvariantChecker::new();
//! let log = checker.log();
//! let _guard = sanitize::install(Box::new(checker));
//! sanitize::emit(|| Event::FrameAlloc { pool: "nvm", pfn: 7 });
//! sanitize::emit(|| Event::FrameFree { pool: "nvm", pfn: 7 });
//! sanitize::emit(|| Event::FrameFree { pool: "nvm", pfn: 7 }); // double free
//! assert_eq!(log.snapshot().len(), 1);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Identity of a simulated kernel thread (see `kindle_os::sched`).
///
/// Simulated — these are scheduler table indices inside one deterministic
/// simulation, not host threads. `ThreadId(0)` is always the main thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main simulation thread; everything runs on it unless the
    /// machine's scheduler dispatches a daemon.
    pub const MAIN: ThreadId = ThreadId(0);
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kthread{}", self.0)
    }
}

/// Simulated lock identity for [`Event::LockAcquire`] / [`Event::LockRelease`].
/// The big kernel lock taken around a full checkpoint.
pub const LOCK_KERNEL: u64 = 1;
/// The redo-log lock (append / replay / truncate are serialized under it).
pub const LOCK_REDO_LOG: u64 = 2;
/// The migration lock taken around an HSCC migration pass.
pub const LOCK_MIGRATION: u64 = 3;

thread_local! {
    static CURRENT_TID: Cell<ThreadId> = const { Cell::new(ThreadId::MAIN) };
}

/// Publishes `tid` as the running simulated thread; subsequent [`emit`]s are
/// stamped with it. Returns the previously current id so schedulers can
/// restore it. Only the machine's scheduler should call this.
pub fn set_current_thread(tid: ThreadId) -> ThreadId {
    CURRENT_TID.with(|c| c.replace(tid))
}

/// The simulated thread id [`emit`] is currently stamping events with.
pub fn current_thread() -> ThreadId {
    CURRENT_TID.with(|c| c.get())
}

/// Why the kernel killed a process (see [`Event::ProcessKilled`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillReason {
    /// A page the process mapped sits on an uncorrectable NVM frame; the
    /// kernel delivered the SIGBUS-analog instead of returning corrupt
    /// bytes.
    MemoryPoison,
}

impl fmt::Display for KillReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KillReason::MemoryPoison => write!(f, "memory poison"),
        }
    }
}

/// One reported operation. Addresses are raw `u64`s so that emitting a
/// event never depends on higher-level crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A store dirtied the NVM cache line at `line` (line-base address).
    NvmWrite {
        /// Line-base physical address.
        line: u64,
        /// Simulated time of the store.
        cycle: u64,
    },
    /// The NVM line at `line` became durable (clwb / eviction write-back).
    NvmCommit {
        /// Line-base physical address.
        line: u64,
    },
    /// A full NVM write-buffer drain barrier completed.
    NvmDrain {
        /// Simulated time of the barrier.
        cycle: u64,
    },
    /// Power failure: volatile contents lost, un-committed NVM reverted.
    Crash,
    /// A checkpoint slot in `[lo, hi)` was published as consistent.
    CheckpointPublish {
        /// Slot base physical address.
        lo: u64,
        /// Slot end physical address (exclusive).
        hi: u64,
        /// Which A/B context copy (0 or 1) became the valid one.
        copy: u64,
        /// Simulated time of the publish.
        cycle: u64,
    },
    /// A physical frame was handed out by the `pool` allocator.
    FrameAlloc {
        /// Pool label ("dram" / "nvm").
        pool: &'static str,
        /// The frame number.
        pfn: u64,
    },
    /// A physical frame was returned to the `pool` allocator.
    FrameFree {
        /// Pool label ("dram" / "nvm").
        pool: &'static str,
        /// The frame number.
        pfn: u64,
    },
    /// A physical frame was permanently retired (worn-out media); it will
    /// never be handed out again.
    FrameRetired {
        /// Pool label ("dram" / "nvm").
        pool: &'static str,
        /// The frame number.
        pfn: u64,
    },
    /// A leaf PTE mapping `vpn → pfn` was installed.
    PteInstall {
        /// Target frame number.
        pfn: u64,
        /// Mapped virtual page number.
        vpn: u64,
    },
    /// The leaf PTE mapping `vpn → pfn` was cleared.
    PteClear {
        /// Previously mapped frame number.
        pfn: u64,
        /// Unmapped virtual page number.
        vpn: u64,
    },
    /// Redo-log record `seq` (0-based slot index) was appended.
    LogAppend {
        /// Append index within the current log generation.
        seq: u64,
    },
    /// Redo-log record `seq` was applied (read back for replay).
    LogApply {
        /// Index of the applied record.
        seq: u64,
    },
    /// The redo log was durably truncated.
    LogTruncate,
    /// The scheduler switched simulated kernel threads.
    ThreadSwitch {
        /// Thread that was running.
        from: ThreadId,
        /// Thread now running.
        to: ThreadId,
        /// Simulated time of the switch (after the switch cost).
        cycle: u64,
    },
    /// A simulated kernel lock was taken (see the `LOCK_*` constants).
    LockAcquire {
        /// Which lock.
        id: u64,
    },
    /// A simulated kernel lock was dropped.
    LockRelease {
        /// Which lock.
        id: u64,
    },
    /// Uncorrectable stuck-cell corruption was detected in an NVM line
    /// (by the controller at write time, or by scrubd's read-verify pass).
    /// The line's contents are untrustworthy until corrected or retired.
    ScrubDetect {
        /// Line-base physical address.
        line: u64,
    },
    /// An NVM line's stuck cells are now fully covered by ECP correction
    /// entries; its stored data is trustworthy again.
    ScrubCorrect {
        /// Line-base physical address.
        line: u64,
    },
    /// Scrubd retired an NVM page-table frame whose corruption could not
    /// be corrected in place; its content was remapped to a fresh frame.
    ScrubRetire {
        /// The retired frame number.
        pfn: u64,
    },
    /// The page walker consumed a table entry from the NVM line at `line`
    /// (line-base address). Lets the checker prove no PTE is ever read
    /// from a line flagged uncorrected.
    PtLineRead {
        /// Line-base physical address.
        line: u64,
    },
    /// Patrol scrub found an NVM data line whose stored content no longer
    /// matches its recorded checksum. Like [`Event::ScrubDetect`], the
    /// line is untrustworthy until corrected, poisoned, or retired.
    PatrolDetect {
        /// Line-base physical address.
        line: u64,
    },
    /// Patrol scrub healed a checksum-mismatched NVM data line back to its
    /// recorded content (ECP coverage plus in-place rewrite).
    PatrolCorrect {
        /// Line-base physical address.
        line: u64,
    },
    /// The kernel poisoned the mapping of an unhealable NVM frame: the
    /// leaf PTE now carries the poison bit and any access faults instead
    /// of returning bytes.
    PagePoison {
        /// The unhealable frame.
        pfn: u64,
        /// The virtual page whose PTE was poisoned.
        vpn: u64,
    },
    /// The kernel killed a process (the SIGBUS-analog delivery for
    /// poisoned memory).
    ProcessKilled {
        /// The terminated process.
        pid: u32,
        /// Why it was killed.
        reason: KillReason,
    },
    /// A data access read the NVM line at `line` (line-base address).
    /// Lets the checker prove no load ever observes data from a line
    /// flagged uncorrected — the patrol counterpart of
    /// [`Event::PtLineRead`].
    DataLineRead {
        /// Line-base physical address.
        line: u64,
    },
}

/// An observer of the simulation event stream.
pub trait Sanitizer {
    /// Called for every emitted event, in program order. `tid` is the
    /// simulated kernel thread the event was emitted from.
    fn on_event(&mut self, tid: ThreadId, ev: &Event);
}

/// The no-op sanitizer: observes nothing, changes nothing. Installing it is
/// equivalent to installing nothing and exists so equivalence tests can
/// exercise the full dispatch path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopSanitizer;

impl Sanitizer for NopSanitizer {
    #[inline]
    fn on_event(&mut self, _tid: ThreadId, _ev: &Event) {}
}

thread_local! {
    static CURRENT: RefCell<Option<Box<dyn Sanitizer>>> = const { RefCell::new(None) };
}

/// Restores the thread's previous sanitizer when dropped (panic-safe, so
/// seeded defects that also panic cannot leak a checker into the next
/// test). Installs stack: a scoped checker (e.g. one experiment-grid cell)
/// shadows an outer one and hands the event stream back on drop.
pub struct Installed {
    prev: Option<Box<dyn Sanitizer>>,
}

impl fmt::Debug for Installed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Installed").field("shadows_previous", &self.prev.is_some()).finish()
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
        // A machine that panicked mid-daemon must not leak its thread id
        // into the next install on this host thread.
        CURRENT_TID.with(|c| c.set(ThreadId::MAIN));
    }
}

/// Installs `sanitizer` for the current thread, shadowing any previous one.
/// The returned guard restores the shadowed sanitizer on drop.
pub fn install(sanitizer: Box<dyn Sanitizer>) -> Installed {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(sanitizer));
    Installed { prev }
}

/// True if a sanitizer is installed on this thread.
pub fn installed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Reports an event to the installed sanitizer, if any. The closure is only
/// evaluated when a sanitizer is present, so emission sites stay free when
/// sanitizing is off. Re-entrant emits (from inside a sanitizer) are
/// silently dropped.
#[inline]
pub fn emit(make: impl FnOnce() -> Event) {
    CURRENT.with(|c| {
        if let Ok(mut slot) = c.try_borrow_mut() {
            if let Some(s) = slot.as_mut() {
                let ev = make();
                s.on_event(current_thread(), &ev);
            }
        }
    });
}

/// A confirmed invariant violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A checkpoint was published while an NVM line inside its slot was
    /// written but never committed (missing clwb / drain).
    UndrainedCheckpoint {
        /// The still-dirty line.
        line: u64,
        /// When the line was written.
        written_at: u64,
        /// When the slot was published.
        published_at: u64,
    },
    /// A frame was freed while not allocated (double free, or free of a
    /// never-allocated frame).
    DoubleFree {
        /// Pool that performed the free.
        pool: &'static str,
        /// The frame.
        pfn: u64,
    },
    /// A frame allocated by one pool was freed through another.
    CrossPoolFree {
        /// Pool that allocated the frame.
        alloc_pool: &'static str,
        /// Pool that freed it.
        free_pool: &'static str,
        /// The frame.
        pfn: u64,
    },
    /// A frame was freed while a leaf PTE still mapped it.
    DanglingPte {
        /// The freed frame.
        pfn: u64,
        /// One virtual page still mapping it.
        vpn: u64,
    },
    /// A leaf PTE was installed over a frame already freed.
    MapOfFreeFrame {
        /// The freed frame.
        pfn: u64,
        /// The virtual page mapped onto it.
        vpn: u64,
    },
    /// A redo-log record was applied out of append order.
    LogOutOfOrder {
        /// Expected next apply index.
        expected: u64,
        /// Observed apply index.
        got: u64,
    },
    /// Two simulated kernel threads wrote the same NVM line with no
    /// happens-before edge (persist barrier or lock event) between the
    /// writes — a data race on persistent state.
    RacyNvmWrite {
        /// Line-base physical address both threads dirtied.
        line: u64,
        /// Thread that wrote first.
        first: ThreadId,
        /// Thread whose write raced with it.
        second: ThreadId,
        /// Simulated time of the racing (second) write.
        cycle: u64,
    },
    /// The page walker consumed a table entry from an NVM line flagged as
    /// holding uncorrected stuck-cell corruption — a translation was built
    /// from untrustworthy bits.
    PteFromUncorrectedLine {
        /// The corrupted line-base physical address.
        line: u64,
    },
    /// A data access observed an NVM line whose checksum mismatch was
    /// never followed by a [`Event::PatrolCorrect`] or
    /// [`Event::PagePoison`] — silent corruption reached a load.
    DataReadFromUncorrectedLine {
        /// The corrupted line-base physical address.
        line: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::UndrainedCheckpoint { line, written_at, published_at } => write!(
                f,
                "checkpoint published at cycle {published_at} with undrained NVM line \
                 {line:#x} (written at cycle {written_at})"
            ),
            Violation::DoubleFree { pool, pfn } => {
                write!(f, "double free of frame {pfn:#x} in pool {pool}")
            }
            Violation::CrossPoolFree { alloc_pool, free_pool, pfn } => {
                write!(f, "frame {pfn:#x} allocated from {alloc_pool} freed through {free_pool}")
            }
            Violation::DanglingPte { pfn, vpn } => {
                write!(f, "frame {pfn:#x} freed while still mapped by virtual page {vpn:#x}")
            }
            Violation::MapOfFreeFrame { pfn, vpn } => {
                write!(f, "virtual page {vpn:#x} mapped onto freed frame {pfn:#x}")
            }
            Violation::LogOutOfOrder { expected, got } => {
                write!(f, "redo-log record {got} applied out of order (expected {expected})")
            }
            Violation::RacyNvmWrite { line, first, second, cycle } => write!(
                f,
                "NVM line {line:#x} written by {second} at cycle {cycle} racing an \
                 unsynchronized write by {first}"
            ),
            Violation::PteFromUncorrectedLine { line } => write!(
                f,
                "page-table entry consumed from NVM line {line:#x} holding uncorrected \
                 stuck-cell corruption"
            ),
            Violation::DataReadFromUncorrectedLine { line } => write!(
                f,
                "data read from NVM line {line:#x} whose checksum mismatch was never \
                 corrected or poisoned"
            ),
        }
    }
}

/// Shared handle onto a checker's violation list. Clone it before moving
/// the checker into [`install`]; the handle observes violations recorded
/// afterwards.
#[derive(Clone, Debug, Default)]
pub struct ViolationLog(Rc<RefCell<Vec<Violation>>>);

impl ViolationLog {
    /// Copies out the violations recorded so far.
    pub fn snapshot(&self) -> Vec<Violation> {
        self.0.borrow().clone()
    }

    /// Removes and returns all recorded violations.
    pub fn take(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.0.borrow_mut())
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// True if any recorded violation satisfies `pred`.
    pub fn any(&self, pred: impl Fn(&Violation) -> bool) -> bool {
        self.0.borrow().iter().any(|v| pred(v))
    }

    fn push(&self, v: Violation) {
        self.0.borrow_mut().push(v);
    }
}

/// What the checker knows of one NVM line written since it last became
/// durable through a commit.
#[derive(Clone, Copy, Debug)]
struct LineState {
    /// Cycle of the first write since the drain count was `drains`: the
    /// `written_at` an undrained publish reports.
    first_write: u64,
    /// The checker's drain count when `first_write` was recorded. The
    /// write is still pending only while that count is current.
    drains: u64,
    /// Thread of the line's last write.
    writer: ThreadId,
    /// Sync epoch of the line's last write.
    epoch: u64,
}

/// Lines per page: one [`PageLines`] holds a page's records.
const PAGE_LINES: usize = 1 << (crate::PAGE_SHIFT - crate::CACHE_LINE_SHIFT);
const _: () = assert!(PAGE_LINES == u64::BITS as usize, "one `live` bit per line");

/// One NVM page's line records: slot `i` is the page's line `i`, and holds
/// a record while bit `i` of `live` is set.
#[derive(Debug)]
struct PageLines {
    live: u64,
    slots: [LineState; PAGE_LINES],
}

/// The checker's [`LineState`]s, grouped by page. Line events come in runs
/// within one page (a page's stores, then its `clwb`s), so the table keeps
/// the last page it reached and a run pays one index operation, not one
/// per line. A page leaves the index when its last record does, and its
/// storage is reused, so the table holds only pages that have records.
#[derive(Debug, Default)]
struct LineTable {
    /// Page number → its records in `pages`, for every page with a record.
    index: BTreeMap<u64, usize>,
    pages: Vec<PageLines>,
    /// Positions in `pages` that no indexed page uses.
    spare: Vec<usize>,
    /// The indexed page the last write or commit reached, and its
    /// position in `pages`.
    hot: Option<(u64, usize)>,
}

impl LineTable {
    /// Page number and slot of a line-base address.
    fn split(line: u64) -> (u64, usize) {
        (line >> crate::PAGE_SHIFT, (line >> crate::CACHE_LINE_SHIFT) as usize % PAGE_LINES)
    }

    /// The record of `line`; a line without one gets `fresh`.
    fn entry(&mut self, line: u64, fresh: LineState) -> &mut LineState {
        let (page, slot) = Self::split(line);
        let i = match self.hot {
            Some((p, i)) if p == page => i,
            _ => {
                let (pages, spare) = (&mut self.pages, &mut self.spare);
                let i = *self.index.entry(page).or_insert_with(|| {
                    spare.pop().unwrap_or_else(|| {
                        pages.push(PageLines { live: 0, slots: [fresh; PAGE_LINES] });
                        pages.len() - 1
                    })
                });
                self.hot = Some((page, i));
                i
            }
        };
        let p = &mut self.pages[i];
        if p.live & 1 << slot == 0 {
            p.live |= 1 << slot;
            p.slots[slot] = fresh;
        }
        &mut p.slots[slot]
    }

    /// Drops the record of `line`, if it has one.
    fn remove(&mut self, line: u64) {
        let (page, slot) = Self::split(line);
        let i = match self.hot {
            Some((p, i)) if p == page => {
                self.pages[i].live &= !(1 << slot);
                if self.pages[i].live != 0 {
                    return;
                }
                self.index.remove(&page);
                i
            }
            _ => {
                let Entry::Occupied(e) = self.index.entry(page) else { return };
                let i = *e.get();
                self.pages[i].live &= !(1 << slot);
                if self.pages[i].live != 0 {
                    self.hot = Some((page, i));
                    return;
                }
                e.remove();
                i
            }
        };
        self.spare.push(i);
        self.hot = None;
    }

    /// Every record of a line in `[lo, hi)`, in line order.
    fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &LineState)> + '_ {
        self.index
            .range(lo >> crate::PAGE_SHIFT..hi.div_ceil(crate::PAGE_SIZE as u64))
            .flat_map(move |(&page, &i)| {
                let p = &self.pages[i];
                let mut live = p.live;
                std::iter::from_fn(move || {
                    let slot = live.trailing_zeros() as usize;
                    live &= live.checked_sub(1)?;
                    let line = page << crate::PAGE_SHIFT | (slot as u64) << crate::CACHE_LINE_SHIFT;
                    Some((line, &p.slots[slot]))
                })
            })
            .filter(move |&(line, _)| lo <= line && line < hi)
    }

    fn clear(&mut self) {
        self.index.clear();
        self.pages.clear();
        self.spare.clear();
        self.hot = None;
    }
}

/// The PMTest-style reference checker. See the module docs for the
/// invariants it enforces.
///
/// Frames it has never seen allocated are ignored (a run may begin, or
/// recover from a crash, with live frames whose allocation predates the
/// checker), so installing it mid-run produces no false positives.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    log: ViolationLog,
    /// NVM lines written and not since committed → their write record.
    /// One record serves both the undrained-publish and the race rule, so
    /// a write is one `entry` and a commit one `remove`.
    lines: LineTable,
    /// Persist barriers seen since the last crash. A barrier makes every
    /// pending write durable by bumping this count, not by touching
    /// `lines`: a record written under an older count is drained.
    drains: u64,
    /// Live frames → owning pool.
    live: BTreeMap<u64, &'static str>,
    /// Frames freed and not since reallocated.
    freed: BTreeSet<u64>,
    /// Frame → virtual pages currently mapping it.
    ptes: BTreeMap<u64, BTreeSet<u64>>,
    /// Next expected redo-log apply index.
    next_apply: u64,
    /// Synchronization epoch: bumped on every persist barrier and lock
    /// event. Two writes in different epochs are ordered (happens-before);
    /// two writes in the same epoch from different threads race. Thread
    /// switches deliberately do NOT bump it — on one simulated CPU a switch
    /// sits between every cross-thread pair, and a switch alone publishes
    /// nothing about persistence order.
    sync_epoch: u64,
    /// NVM lines flagged as holding uncorrected stuck-cell corruption
    /// ([`Event::ScrubDetect`]); cleared per line on [`Event::ScrubCorrect`]
    /// and per frame on retirement. A page walk touching one of these is a
    /// [`Violation::PteFromUncorrectedLine`].
    dirty_lines: BTreeSet<u64>,
}

impl InvariantChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Handle onto the violation list (clone-able, survives `install`).
    pub fn log(&self) -> ViolationLog {
        self.log.clone()
    }

    fn reset_volatile(&mut self) {
        self.lines.clear();
        self.drains = 0;
        self.live.clear();
        self.freed.clear();
        self.ptes.clear();
        self.next_apply = 0;
        self.sync_epoch = 0;
        // Conservative: a torn-undo crash revert may or may not leave a
        // flagged line corrupted on media, so stale flags would be
        // ambiguous. Recovery re-detects corruption on its next write.
        self.dirty_lines.clear();
    }
}

impl Sanitizer for InvariantChecker {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        match *ev {
            Event::NvmWrite { line, cycle } => {
                let now = LineState {
                    first_write: cycle,
                    drains: self.drains,
                    writer: tid,
                    epoch: self.sync_epoch,
                };
                let s = self.lines.entry(line, now);
                if s.writer != tid && s.epoch == now.epoch {
                    let first = s.writer;
                    self.log.push(Violation::RacyNvmWrite { line, first, second: tid, cycle });
                }
                if s.drains == now.drains {
                    (s.writer, s.epoch) = (tid, now.epoch);
                } else {
                    // The earlier write drained; this one starts a new
                    // pending lifetime.
                    *s = now;
                }
                // An overwrite replaces the line's content (and its recorded
                // checksum), so prior corruption flags no longer describe
                // what a reader would observe. If the store itself re-forces
                // stuck bits past the ECP budget, the controller re-flags
                // the line with a fresh ScrubDetect right after this event.
                self.dirty_lines.remove(&line);
            }
            Event::NvmCommit { line } => {
                // A committed line left the write buffer; later writes start
                // a fresh, ordered lifetime for it.
                self.lines.remove(line);
            }
            Event::NvmDrain { .. } => {
                self.drains += 1;
                self.sync_epoch += 1;
            }
            Event::Crash => {
                // Volatile state is gone and the kernel restarts; tracked
                // identities no longer apply.
                self.reset_volatile();
            }
            Event::CheckpointPublish { lo, hi, cycle, .. } => {
                for (line, s) in self.lines.range(lo, hi) {
                    if s.drains == self.drains {
                        self.log.push(Violation::UndrainedCheckpoint {
                            line,
                            written_at: s.first_write,
                            published_at: cycle,
                        });
                    }
                }
            }
            Event::FrameAlloc { pool, pfn } => {
                self.freed.remove(&pfn);
                self.live.insert(pfn, pool);
            }
            Event::FrameFree { pool, pfn } => {
                match self.live.remove(&pfn) {
                    Some(alloc_pool) if alloc_pool != pool => {
                        self.log.push(Violation::CrossPoolFree {
                            alloc_pool,
                            free_pool: pool,
                            pfn,
                        });
                    }
                    Some(_) => {}
                    None => {
                        // Only flag frames whose lifecycle we have seen;
                        // an unknown frame may predate the checker.
                        if self.freed.contains(&pfn) {
                            self.log.push(Violation::DoubleFree { pool, pfn });
                        }
                    }
                }
                self.freed.insert(pfn);
                if let Some(vpns) = self.ptes.get(&pfn) {
                    if let Some(&vpn) = vpns.iter().next() {
                        self.log.push(Violation::DanglingPte { pfn, vpn });
                    }
                }
            }
            Event::FrameRetired { pool: _, pfn } => {
                // A retired frame behaves like a freed one that can never be
                // reallocated: mapping it afterwards is a MapOfFreeFrame,
                // and retiring it while still mapped leaves a dangling PTE.
                self.live.remove(&pfn);
                self.freed.insert(pfn);
                if let Some(vpns) = self.ptes.get(&pfn) {
                    if let Some(&vpn) = vpns.iter().next() {
                        self.log.push(Violation::DanglingPte { pfn, vpn });
                    }
                }
                // Its corrupted lines leave service with it.
                self.dirty_lines.retain(|&l| l >> crate::PAGE_SHIFT != pfn);
            }
            Event::PteInstall { pfn, vpn } => {
                if self.freed.contains(&pfn) {
                    self.log.push(Violation::MapOfFreeFrame { pfn, vpn });
                }
                self.ptes.entry(pfn).or_default().insert(vpn);
            }
            Event::PteClear { pfn, vpn } => {
                if let Some(vpns) = self.ptes.get_mut(&pfn) {
                    vpns.remove(&vpn);
                    if vpns.is_empty() {
                        self.ptes.remove(&pfn);
                    }
                }
            }
            Event::LogAppend { .. } => {}
            Event::LogApply { seq } => {
                if seq == 0 {
                    // Start of a new apply pass.
                    self.next_apply = 1;
                } else if seq == self.next_apply {
                    self.next_apply += 1;
                } else {
                    self.log.push(Violation::LogOutOfOrder { expected: self.next_apply, got: seq });
                    self.next_apply = seq + 1;
                }
            }
            Event::LogTruncate => {
                self.next_apply = 0;
            }
            Event::ThreadSwitch { .. } => {
                // Not a synchronization edge; see `sync_epoch`.
            }
            Event::LockAcquire { .. } | Event::LockRelease { .. } => {
                self.sync_epoch += 1;
            }
            Event::ScrubDetect { line } => {
                self.dirty_lines.insert(line);
            }
            Event::ScrubCorrect { line } => {
                self.dirty_lines.remove(&line);
            }
            Event::ScrubRetire { pfn } => {
                self.dirty_lines.retain(|&l| l >> crate::PAGE_SHIFT != pfn);
            }
            Event::PtLineRead { line } => {
                if self.dirty_lines.contains(&line) {
                    self.log.push(Violation::PteFromUncorrectedLine { line });
                }
            }
            Event::PatrolDetect { line } => {
                self.dirty_lines.insert(line);
            }
            Event::PatrolCorrect { line } => {
                self.dirty_lines.remove(&line);
            }
            Event::PagePoison { pfn, vpn: _ } => {
                // Poisoned mappings fault on access; the frame's corrupt
                // lines can no longer reach a load through them.
                self.dirty_lines.retain(|&l| l >> crate::PAGE_SHIFT != pfn);
            }
            Event::ProcessKilled { .. } => {}
            Event::DataLineRead { line } => {
                if self.dirty_lines.contains(&line) {
                    self.log.push(Violation::DataReadFromUncorrectedLine { line });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_checker(f: impl FnOnce()) -> Vec<Violation> {
        let checker = InvariantChecker::new();
        let log = checker.log();
        let _guard = install(Box::new(checker));
        f();
        log.take()
    }

    #[test]
    fn emit_without_sanitizer_is_noop() {
        assert!(!installed());
        emit(|| Event::Crash);
    }

    #[test]
    fn guard_uninstalls() {
        {
            let _g = install(Box::new(NopSanitizer));
            assert!(installed());
        }
        assert!(!installed());
    }

    #[test]
    fn nested_install_restores_outer_sanitizer() {
        let outer = InvariantChecker::new();
        let outer_log = outer.log();
        let _outer_guard = install(Box::new(outer));
        {
            let inner = InvariantChecker::new();
            let inner_log = inner.log();
            let _inner_guard = install(Box::new(inner));
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 1 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 1 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 1 });
            assert_eq!(inner_log.take().len(), 1, "inner checker shadows the outer");
        }
        assert!(installed(), "outer sanitizer restored after inner guard drop");
        emit(|| Event::FrameAlloc { pool: "nvm", pfn: 2 });
        emit(|| Event::FrameFree { pool: "nvm", pfn: 2 });
        emit(|| Event::FrameFree { pool: "nvm", pfn: 2 });
        assert_eq!(outer_log.take().len(), 1, "outer checker sees events again");
    }

    #[test]
    fn undrained_publish_flagged_committed_not() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::NvmWrite { line: 0x2000, cycle: 6 });
            emit(|| Event::NvmCommit { line: 0x1000 });
            emit(|| Event::CheckpointPublish { lo: 0x1000, hi: 0x3000, copy: 0, cycle: 9 });
        });
        assert_eq!(
            v,
            vec![Violation::UndrainedCheckpoint { line: 0x2000, written_at: 6, published_at: 9 }]
        );
    }

    #[test]
    fn publish_outside_range_clean() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x9000, cycle: 1 });
            emit(|| Event::CheckpointPublish { lo: 0x1000, hi: 0x3000, copy: 0, cycle: 2 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn drain_clears_pending() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 1 });
            emit(|| Event::NvmDrain { cycle: 2 });
            emit(|| Event::CheckpointPublish { lo: 0, hi: u64::MAX, copy: 0, cycle: 3 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn double_free_flagged() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 42 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 42 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 42 });
        });
        assert_eq!(v, vec![Violation::DoubleFree { pool: "nvm", pfn: 42 }]);
    }

    #[test]
    fn unknown_frame_free_ignored() {
        let v = with_checker(|| {
            emit(|| Event::FrameFree { pool: "dram", pfn: 7 });
        });
        assert!(v.is_empty(), "frames predating the checker must not flag");
    }

    #[test]
    fn cross_pool_free_flagged() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "dram", pfn: 3 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 3 });
        });
        assert_eq!(
            v,
            vec![Violation::CrossPoolFree { alloc_pool: "dram", free_pool: "nvm", pfn: 3 }]
        );
    }

    #[test]
    fn dangling_pte_flagged() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 10 });
            emit(|| Event::PteInstall { pfn: 10, vpn: 0x400 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 10 });
        });
        assert_eq!(v, vec![Violation::DanglingPte { pfn: 10, vpn: 0x400 }]);
    }

    #[test]
    fn clean_unmap_then_free_ok() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 10 });
            emit(|| Event::PteInstall { pfn: 10, vpn: 0x400 });
            emit(|| Event::PteClear { pfn: 10, vpn: 0x400 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 10 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn map_of_freed_frame_flagged() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 11 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 11 });
            emit(|| Event::PteInstall { pfn: 11, vpn: 0x500 });
        });
        assert_eq!(v, vec![Violation::MapOfFreeFrame { pfn: 11, vpn: 0x500 }]);
    }

    #[test]
    fn retired_frame_acts_like_freed_forever() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 12 });
            emit(|| Event::FrameRetired { pool: "nvm", pfn: 12 });
            emit(|| Event::PteInstall { pfn: 12, vpn: 0x600 });
        });
        assert_eq!(v, vec![Violation::MapOfFreeFrame { pfn: 12, vpn: 0x600 }]);
    }

    #[test]
    fn retire_while_mapped_is_dangling() {
        let v = with_checker(|| {
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 13 });
            emit(|| Event::PteInstall { pfn: 13, vpn: 0x700 });
            emit(|| Event::FrameRetired { pool: "nvm", pfn: 13 });
        });
        assert_eq!(v, vec![Violation::DanglingPte { pfn: 13, vpn: 0x700 }]);
    }

    #[test]
    fn log_apply_order_enforced() {
        let v = with_checker(|| {
            emit(|| Event::LogApply { seq: 0 });
            emit(|| Event::LogApply { seq: 1 });
            emit(|| Event::LogApply { seq: 3 });
        });
        assert_eq!(v, vec![Violation::LogOutOfOrder { expected: 2, got: 3 }]);
    }

    #[test]
    fn log_apply_restart_after_truncate_ok() {
        let v = with_checker(|| {
            emit(|| Event::LogApply { seq: 0 });
            emit(|| Event::LogApply { seq: 1 });
            emit(|| Event::LogTruncate);
            emit(|| Event::LogApply { seq: 0 });
            emit(|| Event::LogApply { seq: 1 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_resets_tracking() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x40, cycle: 1 });
            emit(|| Event::FrameAlloc { pool: "nvm", pfn: 9 });
            emit(|| Event::PteInstall { pfn: 9, vpn: 1 });
            emit(|| Event::Crash);
            emit(|| Event::CheckpointPublish { lo: 0, hi: u64::MAX, copy: 0, cycle: 2 });
            emit(|| Event::FrameFree { pool: "nvm", pfn: 9 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pte_read_from_uncorrected_line_flagged() {
        let v = with_checker(|| {
            emit(|| Event::ScrubDetect { line: 0x2040 });
            emit(|| Event::PtLineRead { line: 0x2040 });
        });
        assert_eq!(v, vec![Violation::PteFromUncorrectedLine { line: 0x2040 }]);
    }

    #[test]
    fn corrected_line_reads_clean() {
        let v = with_checker(|| {
            emit(|| Event::ScrubDetect { line: 0x2040 });
            emit(|| Event::ScrubCorrect { line: 0x2040 });
            emit(|| Event::PtLineRead { line: 0x2040 });
            emit(|| Event::PtLineRead { line: 0x3000 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn retirement_clears_the_frames_dirty_lines() {
        let v = with_checker(|| {
            // Two dirty lines inside frame 2, one in frame 3.
            emit(|| Event::ScrubDetect { line: 2 << crate::PAGE_SHIFT });
            emit(|| Event::ScrubDetect { line: (2 << crate::PAGE_SHIFT) + 0x40 });
            emit(|| Event::ScrubDetect { line: 3 << crate::PAGE_SHIFT });
            emit(|| Event::ScrubRetire { pfn: 2 });
            emit(|| Event::PtLineRead { line: 2 << crate::PAGE_SHIFT });
            emit(|| Event::PtLineRead { line: (2 << crate::PAGE_SHIFT) + 0x40 });
        });
        assert!(v.is_empty(), "retired frame's lines no longer flag: {v:?}");
        let v = with_checker(|| {
            emit(|| Event::ScrubDetect { line: 3 << crate::PAGE_SHIFT });
            emit(|| Event::FrameRetired { pool: "nvm", pfn: 3 });
            emit(|| Event::PtLineRead { line: 3 << crate::PAGE_SHIFT });
        });
        assert!(v.is_empty(), "wear retirement clears dirty lines too: {v:?}");
    }

    #[test]
    fn data_read_from_uncorrected_line_flagged() {
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 0x4040 });
            emit(|| Event::DataLineRead { line: 0x4040 });
        });
        assert_eq!(v, vec![Violation::DataReadFromUncorrectedLine { line: 0x4040 }]);
    }

    #[test]
    fn patrol_corrected_line_reads_clean() {
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 0x4040 });
            emit(|| Event::PatrolCorrect { line: 0x4040 });
            emit(|| Event::DataLineRead { line: 0x4040 });
            emit(|| Event::DataLineRead { line: 0x5000 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn write_time_detect_flags_data_reads_too() {
        // The controller's write-time ScrubDetect and patrol's PatrolDetect
        // feed one suspect set: either makes a later data read a violation.
        let v = with_checker(|| {
            emit(|| Event::ScrubDetect { line: 0x4040 });
            emit(|| Event::DataLineRead { line: 0x4040 });
        });
        assert_eq!(v, vec![Violation::DataReadFromUncorrectedLine { line: 0x4040 }]);
    }

    #[test]
    fn page_poison_clears_the_frames_suspect_lines() {
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 5 << crate::PAGE_SHIFT });
            emit(|| Event::PatrolDetect { line: (5 << crate::PAGE_SHIFT) + 0x40 });
            emit(|| Event::PatrolDetect { line: 6 << crate::PAGE_SHIFT });
            emit(|| Event::PagePoison { pfn: 5, vpn: 0x800 });
            emit(|| Event::ProcessKilled { pid: 1, reason: KillReason::MemoryPoison });
            emit(|| Event::DataLineRead { line: 5 << crate::PAGE_SHIFT });
            emit(|| Event::DataLineRead { line: (5 << crate::PAGE_SHIFT) + 0x40 });
        });
        assert!(v.is_empty(), "poisoned frame's lines no longer flag: {v:?}");
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 6 << crate::PAGE_SHIFT });
            emit(|| Event::PagePoison { pfn: 5, vpn: 0x800 });
            emit(|| Event::DataLineRead { line: 6 << crate::PAGE_SHIFT });
        });
        assert_eq!(
            v,
            vec![Violation::DataReadFromUncorrectedLine { line: 6 << crate::PAGE_SHIFT }],
            "poisoning one frame must not absolve another"
        );
    }

    #[test]
    fn overwrite_clears_line_suspicion() {
        // A fresh store replaces the line's content and checksum; the old
        // corruption flag no longer describes the stored bytes.
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 0x4040 });
            emit(|| Event::NvmWrite { line: 0x4040, cycle: 3 });
            emit(|| Event::DataLineRead { line: 0x4040 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn overwrite_that_reflags_still_fires() {
        // store_bytes emits NvmWrite first, then (budget exhausted) the
        // controller re-flags with ScrubDetect — the read must still flag.
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x4040, cycle: 3 });
            emit(|| Event::ScrubDetect { line: 0x4040 });
            emit(|| Event::DataLineRead { line: 0x4040 });
        });
        assert_eq!(v, vec![Violation::DataReadFromUncorrectedLine { line: 0x4040 }]);
    }

    #[test]
    fn retirement_clears_data_read_suspicion() {
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 7 << crate::PAGE_SHIFT });
            emit(|| Event::FrameRetired { pool: "nvm", pfn: 7 });
            emit(|| Event::DataLineRead { line: 7 << crate::PAGE_SHIFT });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_clears_patrol_suspicion() {
        let v = with_checker(|| {
            emit(|| Event::PatrolDetect { line: 0x4040 });
            emit(|| Event::Crash);
            emit(|| Event::DataLineRead { line: 0x4040 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_clears_dirty_line_tracking() {
        let v = with_checker(|| {
            emit(|| Event::ScrubDetect { line: 0x2040 });
            emit(|| Event::Crash);
            emit(|| Event::PtLineRead { line: 0x2040 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violations_display() {
        let v = Violation::DoubleFree { pool: "nvm", pfn: 0x42 };
        assert!(v.to_string().contains("double free"));
        let v = Violation::UndrainedCheckpoint { line: 0x40, written_at: 1, published_at: 2 };
        assert!(v.to_string().contains("undrained"));
        let v = Violation::RacyNvmWrite {
            line: 0x40,
            first: ThreadId::MAIN,
            second: ThreadId(1),
            cycle: 7,
        };
        assert!(v.to_string().contains("racing"), "{v}");
        assert!(v.to_string().contains("kthread1"), "{v}");
        let v = Violation::DataReadFromUncorrectedLine { line: 0x4040 };
        assert!(v.to_string().contains("data read"), "{v}");
        assert_eq!(KillReason::MemoryPoison.to_string(), "memory poison");
    }

    /// Runs `f` with `tid` as the ambient simulated thread, restoring the
    /// previous id afterwards.
    fn as_thread(tid: u32, f: impl FnOnce()) {
        let prev = set_current_thread(ThreadId(tid));
        f();
        set_current_thread(prev);
    }

    #[test]
    fn emit_stamps_ambient_thread_id() {
        struct Recorder(Rc<RefCell<Vec<ThreadId>>>);
        impl Sanitizer for Recorder {
            fn on_event(&mut self, tid: ThreadId, _ev: &Event) {
                self.0.borrow_mut().push(tid);
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let _guard = install(Box::new(Recorder(seen.clone())));
        emit(|| Event::LogTruncate);
        as_thread(3, || emit(|| Event::LogTruncate));
        emit(|| Event::LogTruncate);
        assert_eq!(*seen.borrow(), vec![ThreadId::MAIN, ThreadId(3), ThreadId::MAIN]);
    }

    #[test]
    fn guard_drop_resets_ambient_thread() {
        {
            let _g = install(Box::new(NopSanitizer));
            set_current_thread(ThreadId(9));
        }
        assert_eq!(current_thread(), ThreadId::MAIN);
    }

    #[test]
    fn racy_cross_thread_write_flagged() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            as_thread(1, || emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 }));
        });
        assert_eq!(
            v,
            vec![Violation::RacyNvmWrite {
                line: 0x1000,
                first: ThreadId::MAIN,
                second: ThreadId(1),
                cycle: 9,
            }]
        );
    }

    #[test]
    fn same_thread_rewrite_clean() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cross_thread_different_lines_clean() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            as_thread(1, || emit(|| Event::NvmWrite { line: 0x2000, cycle: 9 }));
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn drain_between_cross_thread_writes_clean() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::NvmDrain { cycle: 6 });
            as_thread(1, || emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 }));
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_event_between_cross_thread_writes_clean() {
        let v = with_checker(|| {
            emit(|| Event::LockAcquire { id: LOCK_MIGRATION });
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::LockRelease { id: LOCK_MIGRATION });
            as_thread(1, || {
                emit(|| Event::LockAcquire { id: LOCK_MIGRATION });
                emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 });
                emit(|| Event::LockRelease { id: LOCK_MIGRATION });
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn commit_between_cross_thread_writes_clean() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::NvmCommit { line: 0x1000 });
            as_thread(1, || emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 }));
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn thread_switch_is_not_a_sync_edge() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::ThreadSwitch { from: ThreadId::MAIN, to: ThreadId(1), cycle: 6 });
            as_thread(1, || emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 }));
        });
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn crash_clears_race_tracking() {
        let v = with_checker(|| {
            emit(|| Event::NvmWrite { line: 0x1000, cycle: 5 });
            emit(|| Event::Crash);
            as_thread(1, || emit(|| Event::NvmWrite { line: 0x1000, cycle: 9 }));
        });
        assert!(v.is_empty(), "{v:?}");
    }
}
