//! The memory controller: dispatch, data image, and crash durability.
//!
//! The controller owns two things:
//!
//! 1. **Timing**: it routes each cache-line access to the DRAM or NVM device
//!    model according to the e820 layout and returns the latency.
//! 2. **Data**: a sparse byte image of physical memory. Stores land in the
//!    *volatile* image immediately (that is what subsequent loads see — it
//!    stands in for data sitting in caches or memory). For NVM addresses the
//!    controller snapshots the previous durable value of a line the first
//!    time it is dirtied; [`commit_line`](MemoryController::commit_line)
//!    (called on cache write-back or `clwb`) promotes the volatile value to
//!    durable. On [`crash`](MemoryController::crash), un-committed NVM lines
//!    revert and all DRAM contents are wiped — exactly the semantics the
//!    paper's process-persistence machinery must survive.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kindle_types::rng::Rng64;
use kindle_types::sanitize::{self, Event};
use kindle_types::{
    checksum64, AccessKind, Cycles, MemKind, PhysAddr, Result, PAGE_SHIFT, PAGE_SIZE,
};

use crate::backend::Backend;
use crate::config::MemConfig;
use crate::dram::DramDevice;
use crate::e820::E820Map;
use crate::nvm::{CorrectionOutcome, MediaFaults, NvmDevice, WriteOutcome};
use crate::stats::MemStats;
use crate::store::{is_zero, FrameSet, PageArena, PageBox, SumStore, UndoTable};

/// Checksum of an all-zero line. The kernel zero-fills every new frame
/// and initialises persistent page-table pages line by line, so most
/// recorded line checksums are this one.
const ZERO_LINE_SUM: u64 = checksum64(&[0; 8]);

/// Checksum of one line image (8 little-endian words, FNV-1a fold).
fn line_sum(image: &[u8; 64]) -> u64 {
    let mut words = [0u64; 8];
    let mut any = 0u64;
    for (w, chunk) in words.iter_mut().zip(image.chunks_exact(8)) {
        *w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        any |= *w;
    }
    // An OR over the words, not `image == [0; 64]`: the slice compare
    // compiles to a library call.
    if any == 0 {
        ZERO_LINE_SUM
    } else {
        checksum64(&words)
    }
}

/// Shared power-cut flag connecting a fault-injection trigger to an armed
/// controller. Once [`cut`](PowerSwitch::cut) is called, the controller
/// stops making anything durable: the simulation may keep executing (the
/// "doomed" post-cut instructions), but none of its write-backs reach
/// media, so the eventual [`MemoryController::crash_torn`] reverts state to
/// exactly the cut instant.
#[derive(Clone, Debug, Default)]
pub struct PowerSwitch(Arc<AtomicBool>);

impl PowerSwitch {
    /// Creates a switch with power on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cuts power.
    pub fn cut(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once power has been cut.
    pub fn is_cut(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Restores power (after the post-crash reboot).
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Outcome of one [`MemoryController::patrol_frame`] read-verify pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatrolOutcome {
    /// Every checksummed line of the frame verified.
    Clean,
    /// Mismatched lines were all reconstructed in place.
    Healed {
        /// Number of lines healed.
        lines: u32,
    },
    /// At least one mismatched line could not be reconstructed; the frame
    /// must leave service (retire, or poison its mappings).
    Uncorrectable {
        /// The unhealable line-base addresses (healed lines, if any, were
        /// still fixed).
        lines: Vec<u64>,
    },
}

/// Hybrid DRAM + NVM memory controller. See the module docs.
#[derive(Clone, Debug)]
pub struct MemoryController {
    layout: E820Map,
    dram: DramDevice,
    nvm: NvmDevice,
    /// Sparse volatile image: what loads observe, in a pfn-indexed arena.
    pages: PageArena,
    /// Single-entry MRU page cache: the one page most recently touched,
    /// held *out* of `pages` so the common same-page-as-last-access case
    /// skips the store lookup entirely. Disjoint from `pages` by
    /// construction; [`flush_mru`](Self::flush_mru) reunites them before
    /// any whole-image operation.
    mru: Option<(u64, PageBox)>,
    /// MRU cache enabled (config; off only for equivalence testing).
    mru_enabled: bool,
    /// Durable snapshots for dirtied-but-not-committed NVM lines, keyed by
    /// line base address.
    nvm_undo: UndoTable,
    /// When power-cut injection is armed: the previous *durable* value of
    /// each line committed into the device write buffer and not yet
    /// drained. A power cut tears or drops these per the buffer state.
    wbuf_undo: UndoTable,
    /// Power-cut arming (None = classic ADR semantics: committed == durable).
    power: Option<PowerSwitch>,
    /// Device-pending lines captured at the instant the power cut was first
    /// observed; `Some` also means "power is off, freeze all durability".
    cut_pending: Option<Vec<u64>>,
    /// Most recent access time seen (used to age the write buffer when an
    /// operation carries no explicit `now`).
    last_now: Cycles,
    /// NVM media-fault model (wear-out, stuck cells), when configured.
    media: Option<MediaFaults>,
    /// Reference checksum per NVM data line, keyed by line base address.
    /// Recorded at store time over the *intended* bytes (before stuck
    /// cells force their values into the image), so a mismatch on a later
    /// read-verify means the stored copy no longer holds what was written.
    /// Maintained only while a media-fault model is armed; like ECP
    /// metadata it lives with the media and survives crashes.
    nvm_sums: SumStore,
    /// Frames whose NVM writes exhausted their retries, pending OS
    /// retirement; `failed_set` dedupes repeat offenders.
    failed_frames: Vec<u64>,
    failed_set: FrameSet,
    retry_limit: u32,
    retry_backoff: Cycles,
    write_service: Cycles,
    /// Far-tier backend; it supplied the timing and the fault filter at
    /// construction time, and gates patrol (`patrol_frame` reports `Clean`
    /// by contract when the backend is not patrol-capable).
    backend: Backend,
    /// Per-access interconnect penalty (CXL link + far controller),
    /// precomputed from the backend. `ZERO` for bus-attached tiers.
    link_penalty: Cycles,
    nvm_lines_committed: u64,
    nvm_lines_lost_on_crash: u64,
    nvm_lines_torn_on_crash: u64,
    nvm_write_retries: u64,
    nvm_frames_failed: u64,
    crashes: u64,
}

impl MemoryController {
    /// Creates a controller for the given configuration, with all memory
    /// reading as zero.
    ///
    /// The far tier's semantics come from `cfg.backend` (PCM when unset):
    /// device timing is [`Backend::timing`], the requested fault model is
    /// filtered through [`Backend::fault_model`] before arming, and every
    /// far-tier access pays [`Backend::link_penalty_ns`].
    pub fn new(cfg: &MemConfig) -> Self {
        let backend = cfg.backend.unwrap_or_default();
        let nvm_cfg = backend.timing();
        let faults = backend.fault_model(cfg.faults);
        let media = faults.as_ref().map(|f| {
            let nvm = cfg.layout.range(MemKind::Nvm);
            MediaFaults::new(*f, nvm.base.as_u64(), nvm.size)
        });
        let nvm_base = cfg.layout.range(MemKind::Nvm).base.as_u64();
        let frames = cfg.layout.end().as_u64() >> PAGE_SHIFT;
        MemoryController {
            layout: cfg.layout.clone(),
            dram: DramDevice::new(cfg.dram.clone()),
            nvm: NvmDevice::new(nvm_cfg.clone()),
            pages: PageArena::with_frames(frames),
            mru: None,
            mru_enabled: cfg.mru_page_cache,
            nvm_undo: UndoTable::with_base(nvm_base),
            wbuf_undo: UndoTable::with_base(nvm_base),
            power: None,
            cut_pending: None,
            last_now: Cycles::ZERO,
            media,
            nvm_sums: SumStore::with_base(nvm_base),
            failed_frames: Vec::new(),
            failed_set: FrameSet::with_base(nvm_base >> PAGE_SHIFT),
            retry_limit: faults.as_ref().map_or(0, |f| f.retry_limit),
            retry_backoff: Cycles::from_nanos(faults.as_ref().map_or(0, |f| f.retry_backoff_ns)),
            write_service: Cycles::from_nanos(nvm_cfg.write_service_ns),
            backend,
            link_penalty: Cycles::from_nanos(backend.link_penalty_ns()),
            nvm_lines_committed: 0,
            nvm_lines_lost_on_crash: 0,
            nvm_lines_torn_on_crash: 0,
            nvm_write_retries: 0,
            nvm_frames_failed: 0,
            crashes: 0,
        }
    }

    /// Arms power-cut injection: committed lines are tracked through the
    /// device write buffer (so a cut can tear them), and once `switch` is
    /// cut, nothing further becomes durable until the crash.
    pub fn arm_power_cut(&mut self, switch: PowerSwitch) {
        self.power = Some(switch);
    }

    /// Disarms power-cut injection: drops the switch and any latched cut
    /// state. Used when capturing a [`Clone`]-based machine snapshot so the
    /// copy never carries a live trigger wiring from the run it forked off.
    pub fn disarm_power_cut(&mut self) {
        self.power = None;
        self.cut_pending = None;
    }

    /// Latches the power cut the first time any operation observes the
    /// switch cut: snapshots which lines the device still had buffered.
    fn check_cut(&mut self) {
        if self.cut_pending.is_none() && self.power.as_ref().is_some_and(|p| p.is_cut()) {
            self.cut_pending = Some(self.nvm.pending_lines(self.last_now));
        }
    }

    /// True while a latched power cut is freezing durability.
    fn frozen(&self) -> bool {
        self.cut_pending.is_some()
    }

    /// The physical layout.
    pub fn layout(&self) -> &E820Map {
        &self.layout
    }

    /// Backing kind of `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`kindle_types::KindleError::BadPhysAddr`] for addresses
    /// outside the map.
    pub fn kind_of(&self, pa: PhysAddr) -> Result<MemKind> {
        self.layout.kind_of(pa)
    }

    /// Services the timing of one cache-line access.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is outside the memory map (simulation bug).
    pub fn access(&mut self, pa: PhysAddr, kind: AccessKind, now: Cycles) -> Cycles {
        self.last_now = self.last_now.max(now);
        self.check_cut();
        match self.layout.kind_of(pa).expect("access within memory map") {
            MemKind::Dram => self.dram.access(pa, kind, now),
            MemKind::Nvm => {
                let mut lat = self.nvm.access(pa, kind, now);
                // Backend interconnect cost (Cycles::ZERO off-CXL).
                lat += self.link_penalty;
                if kind == AccessKind::Write && self.media.is_some() {
                    lat += self.media_write_penalty(pa.line_base().as_u64());
                }
                lat
            }
        }
    }

    /// Rolls the media-fault outcome for one NVM line write and charges the
    /// retry-with-bounded-backoff policy. On permanent failure the line's
    /// frame is queued for OS retirement.
    fn media_write_penalty(&mut self, line: u64) -> Cycles {
        let Some(media) = self.media.as_mut() else {
            return Cycles::ZERO;
        };
        let mut outcome = media.on_write(line);
        let mut penalty = Cycles::ZERO;
        let mut attempts = 0u32;
        while outcome != WriteOutcome::Ok && attempts < self.retry_limit {
            attempts += 1;
            // Each retry backs off a little longer, then re-services the write.
            penalty += self.retry_backoff * attempts as u64 + self.write_service;
            self.nvm_write_retries += 1;
            outcome = media.on_write(line);
        }
        if outcome != WriteOutcome::Ok {
            let pfn = line >> PAGE_SHIFT;
            if self.failed_set.insert(pfn) {
                self.failed_frames.push(pfn);
                self.nvm_frames_failed += 1;
            }
        }
        penalty
    }

    /// The NVM media-fault model, when configured. Mutable so directed
    /// fault-injection harnesses can place stuck cells at chosen lines —
    /// random seeding cannot reliably land a cell in, say, a specific
    /// page-table frame.
    pub fn media_mut(&mut self) -> Option<&mut MediaFaults> {
        self.media.as_mut()
    }

    /// Drains frames whose writes permanently failed since the last poll;
    /// the OS is expected to retire and remap them.
    pub fn take_failed_frames(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.failed_frames)
    }

    /// Latency of draining the NVM write buffer (durability barrier).
    pub fn nvm_drain_latency(&mut self, now: Cycles) -> Cycles {
        self.last_now = self.last_now.max(now);
        self.check_cut();
        if self.frozen() {
            // Power is off; nothing drains and no time matters any more.
            return Cycles::ZERO;
        }
        sanitize::emit(|| Event::NvmDrain { cycle: now.as_u64() });
        let wait = self.nvm.drain_latency(now);
        // Everything the buffer held is now on media.
        self.wbuf_undo.clear();
        wait
    }

    // ---- data plane -----------------------------------------------------

    fn page_mut(&mut self, pfn: u64) -> &mut [u8; PAGE_SIZE] {
        if !self.mru_enabled {
            return self.pages.get_mut_or_alloc(pfn);
        }
        if self.mru.as_ref().is_none_or(|&(cached, _)| cached != pfn) {
            self.flush_mru();
            let page = self.pages.remove(pfn).unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]));
            self.mru = Some((pfn, page));
        }
        &mut self.mru.as_mut().expect("mru slot just filled").1
    }

    /// The page's bytes for writing, if it has a stored image. Never
    /// creates a page: callers that only write zeros use it, since a page
    /// with no stored image already reads as zero.
    fn resident_page_mut(&mut self, pfn: u64) -> Option<&mut [u8; PAGE_SIZE]> {
        match &mut self.mru {
            Some((cached, page)) if *cached == pfn => Some(page),
            _ => self.pages.get_mut(pfn),
        }
    }

    /// The page's bytes, if it was ever touched (MRU slot first).
    fn page_ref(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE]> {
        if let Some((cached, page)) = &self.mru {
            if *cached == pfn {
                return Some(page);
            }
        }
        self.pages.get(pfn)
    }

    /// A copy of the line's bytes (zero where the page was never touched).
    fn line_image(&self, line: u64) -> [u8; 64] {
        let off = (line & (PAGE_SIZE as u64 - 1)) as usize;
        match self.page_ref(line >> PAGE_SHIFT) {
            Some(p) => p[off..off + 64].try_into().expect("64-byte line"),
            None => [0; 64],
        }
    }

    /// Moves the MRU slot's page back into the map, restoring the
    /// invariant that `pages` alone holds the whole image. Must run before
    /// any operation that iterates or retains `pages` wholesale.
    fn flush_mru(&mut self) {
        if let Some((pfn, page)) = self.mru.take() {
            self.pages.insert(pfn, page);
        }
    }

    /// Reads bytes from the volatile image (zero-filled where untouched).
    pub fn load_bytes(&self, pa: PhysAddr, buf: &mut [u8]) {
        let mut addr = pa.as_u64();
        let mut done = 0usize;
        while done < buf.len() {
            let pfn = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            match self.page_ref(pfn) {
                Some(p) => buf[done..done + chunk].copy_from_slice(&p[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
            addr += chunk as u64;
        }
    }

    /// Writes bytes to the volatile image at clock `now`, snapshotting NVM
    /// lines for crash rollback the first time each line is dirtied.
    ///
    /// The emitted `NvmWrite` events carry `now` but no thread id: the
    /// sanitizer layer stamps them with the ambient simulated kthread
    /// (`kindle_types::sanitize::current_thread`), which the machine's
    /// scheduler keeps up to date — that attribution is what the race
    /// detector keys on.
    pub fn store_bytes(&mut self, pa: PhysAddr, data: &[u8], now: Cycles) {
        let nvm = self.layout.kind_of(pa) == Ok(MemKind::Nvm);
        let first = pa.line_base().as_u64();
        let last = (pa.as_u64() + data.len().max(1) as u64 - 1) & !63;
        if nvm {
            // Snapshot undo state for NVM lines before mutating.
            let mut line = first;
            while line <= last {
                sanitize::emit(|| Event::NvmWrite { line, cycle: now.as_u64() });
                if !self.nvm_undo.contains(line) {
                    let snap = self.line_image(line);
                    self.nvm_undo.insert_absent(line, snap);
                }
                line += 64;
            }
        }
        let mut addr = pa.as_u64();
        let mut done = 0usize;
        let mut zeroed = false;
        while done < data.len() {
            let pfn = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - off).min(data.len() - done);
            let src = &data[done..done + chunk];
            if !is_zero(src) {
                self.page_mut(pfn)[off..off + chunk].copy_from_slice(src);
            } else if let Some(page) = self.resident_page_mut(pfn) {
                // Zeros need no page; one that has an image may now be
                // all zero (a cleared PTE, an emptied bitmap word).
                page[off..off + chunk].fill(0);
                zeroed = true;
            }
            done += chunk;
            addr += chunk as u64;
        }
        if nvm && self.media.is_some() {
            // Checksum each line's intended bytes first: stuck cells then
            // force their values into the image, so a line whose store was
            // corrupted past the ECP budget mismatches its recorded sum —
            // which is exactly what the patrol pass verifies.
            let mut line = first;
            while line <= last {
                self.record_line_checksum(line);
                self.stuck_write_to_line(line);
                line += 64;
            }
        }
        if zeroed {
            let mut pfn = first >> PAGE_SHIFT;
            while pfn <= last >> PAGE_SHIFT {
                self.release_if_zero(pfn, (last + 64) as usize);
                pfn += 1;
            }
        }
    }

    /// Drops the stored image of page frame `pfn` if every byte of it is
    /// zero (stuck 1-bits keep a page resident). Loads read such a page as
    /// zero either way; dropping it keeps snapshots and clones small. The
    /// page is checked a line at a time from offset `from` round to it,
    /// stopping at the first non-zero line. Callers that just zeroed some
    /// bytes start just past them, where live data usually is (the PTE
    /// after the one cleared), so a page that still holds data costs one
    /// line.
    fn release_if_zero(&mut self, pfn: u64, from: usize) {
        let zero = |page: &[u8; PAGE_SIZE]| {
            let (head, tail) = page.split_at((from % PAGE_SIZE) & !63);
            tail.chunks_exact(64).chain(head.chunks_exact(64)).all(is_zero)
        };
        if self.mru.as_ref().is_some_and(|(cached, page)| *cached == pfn && zero(page)) {
            self.mru = None;
        } else if self.pages.get(pfn).is_some_and(zero) {
            self.pages.remove(pfn);
        }
    }

    /// Number of pages holding a stored image (MRU slot included). For
    /// tests of the zero-page rule.
    #[doc(hidden)]
    pub fn resident_pages(&self) -> usize {
        self.pages.page_count() + usize::from(self.mru.is_some())
    }

    /// Records the line's current stored content as its reference checksum
    /// — the named integrity primitive [`patrol_frame`](Self::patrol_frame)
    /// verifies against.
    fn record_line_checksum(&mut self, line: u64) {
        let sum = line_sum(&self.line_image(line));
        self.nvm_sums.insert(line, sum);
    }

    /// Applies the stuck-cell model to one stored line. With a zero
    /// correction budget this is the raw stuck-at model: every stuck cell
    /// silently forces its bit. With ECP correction enabled the line's
    /// stuck cells are first covered by correction entries (a fully covered
    /// line stores faithfully — the entries hold the bits the cells
    /// cannot), and only cells beyond the per-line budget force their
    /// values into the image. Newly allocated entries announce themselves
    /// (`ScrubCorrect`) and an over-budget line is declared uncorrectable:
    /// its corruption is flagged (`ScrubDetect`) and its frame queued for
    /// OS retirement alongside worn-out frames.
    fn stuck_write_to_line(&mut self, line: u64) {
        let Some(media) = self.media.as_mut() else {
            return;
        };
        let (mut newly, mut exhausted) = (0u32, false);
        if media.correction_enabled() {
            match media.correct_line(line) {
                CorrectionOutcome::Clean => return,
                CorrectionOutcome::Corrected { newly_allocated } => newly = newly_allocated,
                CorrectionOutcome::Exhausted { .. } => exhausted = true,
            }
        }
        let Some(cells) = media.uncorrected_stuck_in_line(line) else {
            return;
        };
        if newly > 0 {
            sanitize::emit(|| Event::ScrubCorrect { line });
        }
        if exhausted {
            sanitize::emit(|| Event::ScrubDetect { line });
            let pfn = line >> PAGE_SHIFT;
            if self.failed_set.insert(pfn) {
                self.failed_frames.push(pfn);
                self.nvm_frames_failed += 1;
            }
        }
        for (bit, val) in cells {
            let byte_addr = line + u64::from(bit / 8);
            let pfn = byte_addr >> PAGE_SHIFT;
            let off = (byte_addr & (PAGE_SIZE as u64 - 1)) as usize;
            let mask = 1u8 << (bit % 8);
            if val {
                self.page_mut(pfn)[off] |= mask;
            } else if let Some(page) = self.resident_page_mut(pfn) {
                // A stuck-at-0 cell in a page with no image changes nothing;
                // one that clears a set bit may leave the page all zero.
                let set = page[off] & mask != 0;
                page[off] &= !mask;
                if set {
                    self.release_if_zero(pfn, off);
                }
            }
        }
    }

    /// Read-verifies every checksummed line of the NVM frame at
    /// `frame_base` against its recorded sum — the DIMM-style patrol scrub
    /// step. A mismatched line is flagged (`PatrolDetect`) and
    /// reconstruction is attempted: the ECP path first covers the line's
    /// stuck cells (retried up to the configured retry budget), then the
    /// stuck positions are treated as erasures and the assignment matching
    /// the recorded checksum is written back (`PatrolCorrect`). Lines that
    /// cannot be reconstructed — ECP budget exhausted, or content torn at a
    /// crash — are reported [`PatrolOutcome::Uncorrectable`].
    pub fn patrol_frame(&mut self, frame_base: u64) -> PatrolOutcome {
        if !self.backend.patrol_capable() {
            // DRAM-class far tiers record no line checksums: patrol is a
            // clean no-op by backend contract, not by accident.
            return PatrolOutcome::Clean;
        }
        let mut healed = 0u32;
        let mut bad = Vec::new();
        for i in 0..PAGE_SIZE / 64 {
            let line = frame_base + (i * 64) as u64;
            let Some(want) = self.nvm_sums.get(line) else {
                continue;
            };
            if line_sum(&self.line_image(line)) == want {
                continue;
            }
            sanitize::emit(|| Event::PatrolDetect { line });
            if self.try_heal_line(line, want) {
                healed += 1;
            } else {
                bad.push(line);
            }
        }
        if !bad.is_empty() {
            PatrolOutcome::Uncorrectable { lines: bad }
        } else if healed > 0 {
            PatrolOutcome::Healed { lines: healed }
        } else {
            PatrolOutcome::Clean
        }
    }

    /// One line of [`patrol_frame`](Self::patrol_frame): cover the line's
    /// stuck cells through ECP (bounded retries), then erasure-decode the
    /// stored bytes — every stuck position's bit is suspect, and with at
    /// most [`crate::nvm::CELLS_PER_LINE`] of them the assignment matching
    /// the recorded checksum identifies the intended content. Returns
    /// `false` (line unhealable) when the ECP budget stays exhausted or no
    /// assignment matches (the line was torn, not stuck).
    fn try_heal_line(&mut self, line: u64, want: u64) -> bool {
        let retries = self.retry_limit;
        let Some(media) = self.media.as_mut() else {
            return false;
        };
        if !media.correction_enabled() {
            return false;
        }
        let mut covered = false;
        for _ in 0..=retries {
            match media.correct_line(line) {
                CorrectionOutcome::Exhausted { .. } => continue,
                _ => {
                    covered = true;
                    break;
                }
            }
        }
        if !covered {
            return false;
        }
        let cells = media.stuck_cells_in_line(line);
        let image = self.line_image(line);
        'assign: for mask in 0u32..1 << cells.len() {
            let mut candidate = image;
            for (i, &(bit, _)) in cells.iter().enumerate() {
                let byte = (bit / 8) as usize;
                let m = 1u8 << (bit % 8);
                if mask & (1 << i) != 0 {
                    candidate[byte] |= m;
                } else {
                    candidate[byte] &= !m;
                }
            }
            if line_sum(&candidate) != want {
                continue 'assign;
            }
            let pfn = line >> PAGE_SHIFT;
            let off = (line & (PAGE_SIZE as u64 - 1)) as usize;
            self.page_mut(pfn)[off..off + 64].copy_from_slice(&candidate);
            if is_zero(&candidate) {
                self.release_if_zero(pfn, off);
            }
            sanitize::emit(|| Event::PatrolCorrect { line });
            return true;
        }
        false
    }

    /// Directed injection: simulates retention drift flipping one stored
    /// bit of an NVM line. The flipped position is registered as a stuck
    /// cell (so a later ECP pass can cover it), the stored image is
    /// corrupted in place, and the line is flagged (`ScrubDetect`) — but
    /// unlike a write-time exhaustion nothing is queued for retirement:
    /// discovering the damage is the patrol pass's job. Returns `false`
    /// outside the armed NVM fault range or when the line's stuck-cell
    /// slots are full.
    pub fn degrade_line_bit(&mut self, line: u64, bit: u32) -> bool {
        let line = line & !63;
        if self.layout.kind_of(PhysAddr::new(line)) != Ok(MemKind::Nvm) {
            return false;
        }
        let byte_addr = line + u64::from(bit / 8);
        let pfn = byte_addr >> PAGE_SHIFT;
        let off = (byte_addr & (PAGE_SIZE as u64 - 1)) as usize;
        let mask = 1u8 << (bit % 8);
        let cur_set = self.page_ref(pfn).is_some_and(|p| p[off] & mask != 0);
        let stuck_val = !cur_set;
        let Some(media) = self.media.as_mut() else {
            return false;
        };
        if !media.add_stuck_cell(line, bit, stuck_val) {
            return false;
        }
        sanitize::emit(|| Event::ScrubDetect { line });
        let b = &mut self.page_mut(pfn)[off];
        *b = if stuck_val { *b | mask } else { *b & !mask };
        if !stuck_val {
            self.release_if_zero(pfn, off);
        }
        true
    }

    /// Marks the cache line containing `pa` durable (write-back reached the
    /// device). No-op for DRAM lines or lines never dirtied.
    pub fn commit_line(&mut self, pa: PhysAddr) {
        self.check_cut();
        if self.frozen() {
            // Power is off: the write-back never reaches the device. The
            // doomed post-cut execution continues purely volatilely.
            return;
        }
        sanitize::emit(|| Event::NvmCommit { line: pa.line_base().as_u64() });
        let line = pa.line_base().as_u64();
        if let Some(snap) = self.nvm_undo.remove(line) {
            self.nvm_lines_committed += 1;
            if self.power.is_some() {
                // Non-ADR mode: "committed" only means "accepted into the
                // device write buffer". Remember the previous durable value
                // (oldest wins) so a power cut can tear or drop the line.
                self.wbuf_undo.insert_absent(line, snap);
                self.prune_wbuf_undo();
            }
        }
    }

    /// Drops write-buffer undo entries for lines the device has already
    /// drained, keeping the store bounded while armed.
    fn prune_wbuf_undo(&mut self) {
        if self.wbuf_undo.len() < 256 {
            return;
        }
        let pending = self.nvm.pending_lines(self.last_now);
        self.wbuf_undo.retain_pending(&pending);
    }

    /// Commits every outstanding NVM line (orderly shutdown / full flush).
    pub fn commit_all(&mut self) {
        self.check_cut();
        if self.frozen() {
            return;
        }
        self.nvm_lines_committed += self.nvm_undo.len() as u64;
        let undo = self.nvm_undo.drain_sorted();
        if sanitize::installed() {
            for &(line, _) in &undo {
                sanitize::emit(|| Event::NvmCommit { line });
            }
        }
        if self.power.is_some() {
            for (line, snap) in undo {
                self.wbuf_undo.insert_absent(line, snap);
            }
            self.prune_wbuf_undo();
        }
    }

    /// Number of NVM lines dirtied but not yet durable.
    pub fn volatile_nvm_lines(&self) -> usize {
        self.nvm_undo.len()
    }

    /// Simulates a power failure: un-committed NVM lines revert to their
    /// durable contents, all DRAM contents are wiped, and device state is
    /// reset. Caches/TLBs are the caller's responsibility.
    pub fn crash(&mut self) {
        sanitize::emit(|| Event::Crash);
        self.crashes += 1;
        self.nvm_lines_lost_on_crash = self.nvm_undo.len() as u64;
        self.nvm_lines_torn_on_crash = 0;
        for (line, snap) in self.nvm_undo.drain_sorted() {
            self.restore_line(line, &snap, true);
        }
        self.power_off_cleanup();
    }

    /// Simulates a power failure on a *non-ADR* platform: in addition to the
    /// classic rollback of never-committed lines, the contents of the device
    /// write buffer are lost — except that the entries mid-service in the
    /// write banks land partially, torn at the 8-byte atomic persist
    /// granularity (`rng` picks how many words made it). Requires
    /// [`arm_power_cut`](Self::arm_power_cut) for the write-buffer tracking
    /// to have been maintained; without it this degrades to
    /// [`crash`](Self::crash).
    pub fn crash_torn(&mut self, rng: &mut Rng64) {
        self.check_cut();
        let pending =
            self.cut_pending.take().unwrap_or_else(|| self.nvm.pending_lines(self.last_now));
        sanitize::emit(|| Event::Crash);
        self.crashes += 1;

        // 1. Cache contents never written back: full rollback, as in crash().
        let mut lost = self.nvm_undo.len() as u64;
        for (line, snap) in self.nvm_undo.drain_sorted() {
            self.restore_line(line, &snap, true);
        }

        // 2. Write-buffer contents: the oldest `banks` entries are
        //    mid-service and tear at 8-byte granularity; everything younger
        //    in the queue reverts entirely to the previous durable value.
        let banks = self.nvm.banks();
        let mut torn = 0u64;
        for (i, &line) in pending.iter().enumerate() {
            let Some(snap) = self.wbuf_undo.remove(line) else {
                // Drained earlier under the same address, or committed
                // before arming: already durable.
                continue;
            };
            if i < banks {
                // `split` words of the new value reached the cells.
                let split = rng.gen_below(9) as usize;
                let mut cur = self.line_image(line);
                cur[split * 8..].copy_from_slice(&snap[split * 8..]);
                // No rehash: a torn mix of old and new words is honest data
                // loss, and keeping the new value's checksum lets the
                // patrol pass detect it after recovery.
                self.restore_line(line, &cur, split == 8);
                if split < 8 {
                    torn += 1;
                }
            } else {
                self.restore_line(line, &snap, true);
                lost += 1;
            }
        }
        self.nvm_lines_lost_on_crash = lost;
        self.nvm_lines_torn_on_crash = torn;
        self.power_off_cleanup();
    }

    /// Writes a line image directly, bypassing undo tracking. With `rehash`
    /// the line's reference checksum is recomputed from the restored image
    /// (a rollback to the old durable value is valid data, not corruption);
    /// without it a stale checksum is kept deliberately — a torn line is
    /// real data loss and the patrol pass must be able to flag it.
    fn restore_line(&mut self, line: u64, image: &[u8; 64], rehash: bool) {
        let pfn = line >> PAGE_SHIFT;
        let off = (line & (PAGE_SIZE as u64 - 1)) as usize;
        if !is_zero(image) {
            // check:allow KD009: crash rollback restores the durable image; the
            // callers emit Event::Crash and the sanitizer resets write tracking.
            self.page_mut(pfn)[off..off + 64].copy_from_slice(image);
        } else if let Some(page) = self.resident_page_mut(pfn) {
            // A zero image needs no page; one that has an image may now be
            // all zero.
            page[off..off + 64].fill(0);
            self.release_if_zero(pfn, off + 64);
        }
        if rehash && self.nvm_sums.contains(line) {
            // check:allow KD009: same crash-rollback context as above.
            self.record_line_checksum(line);
        }
    }

    /// Shared tail of both crash flavours: wipe DRAM, reset devices and
    /// fault-injection state, restore power for the reboot.
    fn power_off_cleanup(&mut self) {
        // The MRU slot holds a page *out* of the map; reunite them first or
        // a cached DRAM page would survive the wipe (and a cached NVM page
        // would be dropped by the retain below).
        self.flush_mru();
        let layout = self.layout.clone();
        self.pages.retain_frames(|pfn| {
            layout.kind_of(PhysAddr::new(pfn << PAGE_SHIFT)) == Ok(MemKind::Nvm)
        });
        self.dram.reset();
        self.nvm.reset();
        self.wbuf_undo.clear();
        self.cut_pending = None;
        if let Some(p) = &self.power {
            p.reset();
        }
        // Let the recovered kernel re-learn failed frames on the next write.
        self.failed_frames.clear();
        self.failed_set.clear();
    }

    /// The far-tier backend this controller was built with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> MemStats {
        MemStats {
            dram: self.dram.stats().clone(),
            nvm: self.nvm.stats().clone(),
            media: self.media.as_ref().map(|m| m.stats().clone()).unwrap_or_default(),
            nvm_lines_committed: self.nvm_lines_committed,
            nvm_lines_lost_on_crash: self.nvm_lines_lost_on_crash,
            nvm_lines_torn_on_crash: self.nvm_lines_torn_on_crash,
            nvm_write_retries: self.nvm_write_retries,
            nvm_frames_failed: self.nvm_frames_failed,
            crashes: self.crashes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MediaFaultConfig;

    fn mc() -> (MemoryController, PhysAddr, PhysAddr) {
        let cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
        let dram_pa = PhysAddr::new(0x1000);
        let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x1000;
        (MemoryController::new(&cfg), dram_pa, nvm_pa)
    }

    #[test]
    fn dispatch_by_kind() {
        let (mut m, dram_pa, nvm_pa) = mc();
        assert_eq!(m.kind_of(dram_pa).unwrap(), MemKind::Dram);
        assert_eq!(m.kind_of(nvm_pa).unwrap(), MemKind::Nvm);
        let d = m.access(dram_pa, AccessKind::Read, Cycles::ZERO);
        let n = m.access(nvm_pa, AccessKind::Read, Cycles::ZERO);
        assert!(n > d, "nvm read ({n}) should exceed dram read ({d})");
    }

    #[test]
    fn data_round_trip_across_pages() {
        let (mut m, dram_pa, _) = mc();
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        m.store_bytes(dram_pa, &data, Cycles::ZERO);
        let mut back = vec![0u8; data.len()];
        m.load_bytes(dram_pa, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let (m, dram_pa, _) = mc();
        let mut buf = [0xffu8; 32];
        m.load_bytes(dram_pa, &mut buf);
        assert_eq!(buf, [0u8; 32]);
    }

    #[test]
    fn crash_wipes_dram() {
        let (mut m, dram_pa, _) = mc();
        m.store_bytes(dram_pa, b"volatile!", Cycles::ZERO);
        m.crash();
        let mut buf = [0u8; 9];
        m.load_bytes(dram_pa, &mut buf);
        assert_eq!(buf, [0u8; 9]);
    }

    #[test]
    fn crash_reverts_uncommitted_nvm() {
        let (mut m, _, nvm_pa) = mc();
        m.store_bytes(nvm_pa, b"AAAA", Cycles::ZERO);
        m.commit_line(nvm_pa); // durable now
        m.store_bytes(nvm_pa, b"BBBB", Cycles::ZERO); // dirty, not committed
        m.crash();
        let mut buf = [0u8; 4];
        m.load_bytes(nvm_pa, &mut buf);
        assert_eq!(&buf, b"AAAA", "uncommitted write must roll back");
        assert_eq!(m.stats().nvm_lines_lost_on_crash, 1);
    }

    #[test]
    fn committed_nvm_survives_crash() {
        let (mut m, _, nvm_pa) = mc();
        m.store_bytes(nvm_pa, b"keepme", Cycles::ZERO);
        m.commit_line(nvm_pa);
        m.crash();
        let mut buf = [0u8; 6];
        m.load_bytes(nvm_pa, &mut buf);
        assert_eq!(&buf, b"keepme");
    }

    #[test]
    fn commit_all_flushes_everything() {
        let (mut m, _, nvm_pa) = mc();
        for i in 0..10u64 {
            m.store_bytes(nvm_pa + i * 64, &[i as u8; 8], Cycles::ZERO);
        }
        assert_eq!(m.volatile_nvm_lines(), 10);
        m.commit_all();
        assert_eq!(m.volatile_nvm_lines(), 0);
        m.crash();
        let mut b = [0u8; 1];
        m.load_bytes(nvm_pa + 9 * 64, &mut b);
        assert_eq!(b[0], 9);
    }

    #[test]
    fn armed_cut_freezes_durability() {
        let (mut m, _, nvm_pa) = mc();
        let sw = PowerSwitch::new();
        m.arm_power_cut(sw.clone());
        m.store_bytes(nvm_pa, b"AAAAAAAA", Cycles::ZERO);
        m.commit_line(nvm_pa);
        m.nvm_drain_latency(Cycles::from_millis(1)); // fully durable
        sw.cut();
        // Doomed post-cut execution: stores and commits change nothing
        // durable.
        m.store_bytes(nvm_pa, b"BBBBBBBB", Cycles::ZERO);
        m.commit_line(nvm_pa);
        let mut rng = Rng64::new(1);
        m.crash_torn(&mut rng);
        let mut buf = [0u8; 8];
        m.load_bytes(nvm_pa, &mut buf);
        assert_eq!(&buf, b"AAAAAAAA", "post-cut commit must not stick");
        assert!(!sw.is_cut(), "power restored for the reboot");
    }

    #[test]
    fn crash_torn_tears_buffered_line_at_word_granularity() {
        // Put one committed-but-undrained line in the write buffer, then
        // tear it: the result must be a prefix of new words + suffix of old.
        let (mut m, _, nvm_pa) = mc();
        m.arm_power_cut(PowerSwitch::new());
        m.store_bytes(nvm_pa, &[0x11u8; 64], Cycles::ZERO);
        m.commit_line(nvm_pa);
        m.nvm_drain_latency(Cycles::from_millis(1)); // old durable value: 0x11
        m.store_bytes(nvm_pa, &[0x22u8; 64], Cycles::ZERO);
        m.commit_line(nvm_pa);
        // Enqueue the device write so the line is pending at crash time.
        m.access(nvm_pa, AccessKind::Write, Cycles::from_millis(1));
        let mut rng = Rng64::new(42);
        m.crash_torn(&mut rng);
        let mut buf = [0u8; 64];
        m.load_bytes(nvm_pa, &mut buf);
        for word in 0..8 {
            let w = &buf[word * 8..word * 8 + 8];
            assert!(
                w == [0x22u8; 8] || w == [0x11u8; 8],
                "word {word} must be atomically old or new, got {w:?}"
            );
        }
        // Words are a prefix of new followed by a suffix of old.
        let new_words = buf.chunks(8).take_while(|w| *w == [0x22u8; 8]).count();
        assert!(buf.chunks(8).skip(new_words).all(|w| w == [0x11u8; 8]));
    }

    #[test]
    fn crash_torn_same_seed_is_deterministic() {
        let run = |seed: u64| -> Vec<u8> {
            let (mut m, _, nvm_pa) = mc();
            m.arm_power_cut(PowerSwitch::new());
            for i in 0..20u64 {
                m.store_bytes(nvm_pa + i * 64, &[0xabu8; 64], Cycles::ZERO);
                m.commit_line(nvm_pa + i * 64);
                m.access(nvm_pa + i * 64, AccessKind::Write, Cycles::ZERO);
            }
            let mut rng = Rng64::new(seed);
            m.crash_torn(&mut rng);
            let mut buf = vec![0u8; 20 * 64];
            m.load_bytes(nvm_pa, &mut buf);
            buf
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should tear differently");
    }

    #[test]
    fn unarmed_crash_torn_behaves_like_crash() {
        let (mut m, _, nvm_pa) = mc();
        m.store_bytes(nvm_pa, b"AAAA", Cycles::ZERO);
        m.commit_line(nvm_pa); // ADR: committed == durable when unarmed
        m.store_bytes(nvm_pa, b"BBBB", Cycles::ZERO);
        let mut rng = Rng64::new(3);
        m.crash_torn(&mut rng);
        let mut buf = [0u8; 4];
        m.load_bytes(nvm_pa, &mut buf);
        assert_eq!(&buf, b"AAAA");
    }

    #[test]
    fn worn_line_fails_frame_once_and_charges_retries() {
        let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
        cfg.faults = Some(crate::config::MediaFaultConfig {
            wear_limit: 32,
            ..MediaFaultConfig::with_seed(5)
        });
        let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x2000;
        let mut m = MemoryController::new(&cfg);
        let plain = m.access(nvm_pa, AccessKind::Write, Cycles::ZERO);
        for _ in 0..200 {
            m.access(nvm_pa, AccessKind::Write, Cycles::from_millis(2));
        }
        let s = m.stats();
        assert!(s.media.lines_worn_out >= 1, "32-write budget must wear out: {s:?}");
        assert_eq!(s.nvm_frames_failed, 1, "frame reported failed exactly once");
        assert_eq!(m.take_failed_frames(), vec![nvm_pa.as_u64() >> PAGE_SHIFT]);
        assert!(m.take_failed_frames().is_empty(), "queue drains");
        assert!(s.nvm_write_retries > 0, "transient zone must charge retries");
        let _ = plain;
    }

    #[test]
    fn stuck_cells_force_bits_on_store() {
        // Small NVM range so the seeded stuck cells are dense enough to hit.
        let mut cfg = MemConfig::with_capacities(16 << 20, 1 << 16);
        cfg.faults = Some(crate::config::MediaFaultConfig {
            stuck_cells: 16,
            wear_limit: 0,
            ..MediaFaultConfig::with_seed(9)
        });
        let mut m = MemoryController::new(&cfg);
        let nvm = cfg.layout.range(MemKind::Nvm);
        // Pass 1: all-ones exposes stuck-at-0 cells; pass 2: all-zeros
        // exposes stuck-at-1. Every stuck cell shows up in exactly one pass.
        let mut anomalies = 0u32;
        for (pattern, count_fn) in
            [(0xffu8, u8::count_zeros as fn(u8) -> u32), (0x00u8, u8::count_ones)]
        {
            for off in (0..nvm.size).step_by(PAGE_SIZE) {
                let pa = nvm.base + off;
                m.store_bytes(pa, &[pattern; PAGE_SIZE], Cycles::ZERO);
                let mut buf = [0u8; PAGE_SIZE];
                m.load_bytes(pa, &mut buf);
                anomalies += buf.iter().map(|&b| count_fn(b)).sum::<u32>();
            }
        }
        assert!(anomalies >= 1, "16 stuck cells in 1024 lines must be visible");
        assert!(anomalies <= 16, "at most one stuck bit per seeded cell");
        assert!(m.stats().media.stuck_line_writes >= anomalies as u64);
    }

    #[test]
    fn correction_entries_make_stuck_lines_store_faithfully() {
        // Same dense stuck-cell layout as stuck_cells_force_bits_on_store,
        // but with an ECP budget covering every line: no store may be
        // corrupted, and the allocations must be visible in the stats.
        let mut cfg = MemConfig::with_capacities(16 << 20, 1 << 16);
        cfg.faults = Some(crate::config::MediaFaultConfig {
            stuck_cells: 16,
            wear_limit: 0,
            correction_entries: 4,
            ..MediaFaultConfig::with_seed(9)
        });
        let mut m = MemoryController::new(&cfg);
        let nvm = cfg.layout.range(MemKind::Nvm);
        let mut anomalies = 0u32;
        for (pattern, count_fn) in
            [(0xffu8, u8::count_zeros as fn(u8) -> u32), (0x00u8, u8::count_ones)]
        {
            for off in (0..nvm.size).step_by(PAGE_SIZE) {
                let pa = nvm.base + off;
                m.store_bytes(pa, &[pattern; PAGE_SIZE], Cycles::ZERO);
                let mut buf = [0u8; PAGE_SIZE];
                m.load_bytes(pa, &mut buf);
                anomalies += buf.iter().map(|&b| count_fn(b)).sum::<u32>();
            }
        }
        assert_eq!(anomalies, 0, "a within-budget line must store faithfully");
        let s = m.stats();
        assert!(s.media.corrections_allocated >= 1, "{s:?}");
        assert_eq!(s.media.uncorrectable_line_writes, 0);
        assert!(m.take_failed_frames().is_empty(), "no frame retirement needed");
    }

    #[test]
    fn exhausted_correction_budget_queues_frame_for_retirement() {
        // Zero-size budget... a 1-entry budget with a line that needs more
        // is hard to seed deterministically, so exercise the exhaustion
        // path with budget 1 on a range dense enough that some line packs
        // two or more cells.
        let mut cfg = MemConfig::with_capacities(16 << 20, 1 << 12);
        cfg.faults = Some(crate::config::MediaFaultConfig {
            stuck_cells: 64,
            wear_limit: 0,
            correction_entries: 1,
            ..MediaFaultConfig::with_seed(9)
        });
        let mut m = MemoryController::new(&cfg);
        let nvm = cfg.layout.range(MemKind::Nvm);
        for off in (0..nvm.size).step_by(PAGE_SIZE) {
            m.store_bytes(nvm.base + off, &[0xffu8; PAGE_SIZE], Cycles::ZERO);
        }
        let s = m.stats();
        assert!(
            s.media.uncorrectable_line_writes >= 1,
            "64 cells in 64 lines must exhaust some 1-entry budget: {s:?}"
        );
        assert!(!m.take_failed_frames().is_empty(), "uncorrectable frame queued");
    }

    #[test]
    fn zero_line_digest_is_the_checksum_of_zero_words() {
        assert_eq!(ZERO_LINE_SUM, checksum64(&[0; 8]));
        assert_eq!(line_sum(&[0; 64]), checksum64(&[0; 8]));
        let mut rng = Rng64::new(17);
        for _ in 0..256 {
            let mut image = [0u8; 64];
            // Mostly-zero lines: one or two non-zero bytes anywhere.
            for _ in 0..1 + rng.gen_below(2) {
                image[rng.gen_below(64) as usize] = 1 + rng.gen_below(255) as u8;
            }
            let words: Vec<u64> =
                image.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
            assert_eq!(line_sum(&image), checksum64(&words));
        }
    }

    #[test]
    fn undo_snapshot_taken_once_per_line() {
        let (mut m, _, nvm_pa) = mc();
        m.store_bytes(nvm_pa, b"first", Cycles::ZERO);
        m.commit_line(nvm_pa);
        m.store_bytes(nvm_pa, b"second", Cycles::ZERO);
        m.store_bytes(nvm_pa, b"third!", Cycles::ZERO); // same line, snapshot must stay "first"
        m.crash();
        let mut buf = [0u8; 5];
        m.load_bytes(nvm_pa, &mut buf);
        assert_eq!(&buf, b"first");
    }

    /// Runs the same mixed workload on a controller and returns everything
    /// observable: the bytes read back plus the stats snapshot. Used to
    /// prove the MRU fast path changes no output.
    fn mru_workload(m: &mut MemoryController, dram_pa: PhysAddr, nvm_pa: PhysAddr) -> Vec<u8> {
        let mut observed = Vec::new();
        // Interleave pages so the MRU slot hits, misses, and swaps.
        for round in 0..3u64 {
            for page in 0..4u64 {
                let pa = dram_pa + page * PAGE_SIZE as u64;
                m.store_bytes(pa, &[(round * 4 + page) as u8; 100], Cycles::ZERO);
                m.store_bytes(nvm_pa + page * 64, &[(round + page) as u8; 8], Cycles::ZERO);
            }
        }
        m.commit_line(nvm_pa);
        m.crash(); // exercise the wipe/retain path with the slot occupied
        for page in 0..4u64 {
            let mut buf = [0u8; 100];
            m.load_bytes(dram_pa + page * PAGE_SIZE as u64, &mut buf);
            observed.extend_from_slice(&buf);
            let mut line = [0u8; 8];
            m.load_bytes(nvm_pa + page * 64, &mut line);
            observed.extend_from_slice(&line);
        }
        observed
    }

    #[test]
    fn mru_page_cache_is_observation_equivalent() {
        let cfg_on = MemConfig::with_capacities(16 << 20, 16 << 20);
        let mut cfg_off = cfg_on.clone();
        cfg_off.mru_page_cache = false;
        assert!(cfg_on.mru_page_cache, "fast path must default on");
        let dram_pa = PhysAddr::new(0x1000);
        let nvm_pa = cfg_on.layout.range(MemKind::Nvm).base + 0x1000;
        let mut fast = MemoryController::new(&cfg_on);
        let mut slow = MemoryController::new(&cfg_off);
        let a = mru_workload(&mut fast, dram_pa, nvm_pa);
        let b = mru_workload(&mut slow, dram_pa, nvm_pa);
        assert_eq!(a, b, "MRU cache must not change any observable byte");
        assert_eq!(fast.stats(), slow.stats(), "nor any statistic");
    }

    #[test]
    fn backend_pcm_is_observation_equivalent() {
        let cfg_direct = MemConfig::with_capacities(16 << 20, 16 << 20);
        let mut cfg_pcm = cfg_direct.clone();
        cfg_pcm.backend = Some(Backend::Pcm);
        assert!(cfg_direct.backend.is_none(), "backend must default unset");
        let dram_pa = PhysAddr::new(0x1000);
        let nvm_pa = cfg_direct.layout.range(MemKind::Nvm).base + 0x1000;
        let mut direct = MemoryController::new(&cfg_direct);
        let mut explicit = MemoryController::new(&cfg_pcm);
        let a = mru_workload(&mut direct, dram_pa, nvm_pa);
        let b = mru_workload(&mut explicit, dram_pa, nvm_pa);
        assert_eq!(a, b, "an explicit PCM backend must not change any observable byte");
        assert_eq!(direct.stats(), explicit.stats(), "nor any statistic");
        assert_eq!(
            direct.access(nvm_pa, AccessKind::Read, Cycles::from_nanos(1 << 30)),
            explicit.access(nvm_pa, AccessKind::Read, Cycles::from_nanos(1 << 30)),
            "nor any latency"
        );
    }

    #[test]
    fn backend_pcm_equivalent_with_media_and_torn_crash() {
        // An armed-media torn-crash gauntlet that exercises every store at
        // once: pages (stores/loads), nvm_sums (media armed records
        // checksums; patrol reads them), nvm_undo/wbuf_undo (armed power
        // cut, commit, torn crash). Compares the unset default path
        // against backend=Pcm.
        let run = |backend: Option<Backend>| -> (Vec<u8>, MemStats, PatrolOutcome) {
            let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
            cfg.backend = backend;
            cfg.faults = Some(MediaFaultConfig {
                stuck_cells: 0,
                wear_limit: 0,
                correction_entries: 2,
                ..MediaFaultConfig::with_seed(11)
            });
            let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x3000;
            let mut m = MemoryController::new(&cfg);
            let switch = PowerSwitch::new();
            m.arm_power_cut(switch.clone());
            for round in 0..4u64 {
                for i in 0..300u64 {
                    m.store_bytes(nvm_pa + i * 64, &[(round + i) as u8; 64], Cycles::ZERO);
                    if i % 3 == 0 {
                        m.commit_line(nvm_pa + i * 64);
                    }
                }
            }
            m.commit_all();
            for i in 0..8u64 {
                m.store_bytes(nvm_pa + i * 64, &[0xEE; 64], Cycles::ZERO);
                m.commit_line(nvm_pa + i * 64);
            }
            switch.cut();
            let mut rng = Rng64::new(7);
            m.crash_torn(&mut rng);
            let patrol = m.patrol_frame(nvm_pa.page_base().as_u64());
            let mut observed = vec![0u8; 300 * 64];
            m.load_bytes(nvm_pa, &mut observed);
            (observed, m.stats(), patrol)
        };
        let (bytes_direct, stats_direct, patrol_direct) = run(None);
        let (bytes_pcm, stats_pcm, patrol_pcm) = run(Some(Backend::Pcm));
        assert_eq!(bytes_direct, bytes_pcm, "post-crash image must match byte for byte");
        assert_eq!(stats_direct, stats_pcm, "every counter must match");
        assert_eq!(patrol_direct, patrol_pcm, "patrol verdicts must match");
    }

    /// Hammers one NVM line far past a tiny wear budget and reports the
    /// wear-visible counters.
    fn hammer_line(backend: Option<Backend>) -> MemStats {
        let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
        cfg.backend = backend;
        cfg.faults = Some(MediaFaultConfig { wear_limit: 8, ..MediaFaultConfig::with_seed(5) });
        let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x2000;
        let mut m = MemoryController::new(&cfg);
        for i in 0..200u64 {
            m.access(nvm_pa, AccessKind::Write, Cycles::from_nanos(i * 1_000));
            m.store_bytes(nvm_pa, &[i as u8; 64], Cycles::ZERO);
        }
        assert_eq!(
            m.take_failed_frames().is_empty(),
            m.stats().nvm_frames_failed == 0,
            "retirement queue must agree with the counter"
        );
        m.stats()
    }

    #[test]
    fn sttram_backend_never_wears_or_retires() {
        // The same hammering wears PCM out (the test is actually lethal)...
        let pcm = hammer_line(Some(Backend::Pcm));
        assert!(pcm.nvm_write_retries > 0, "wear budget of 8 must force PCM retries");
        assert!(pcm.nvm_frames_failed > 0, "and permanent failure");
        // ...but STT-RAM's fault filter zeroes the wear budget, so the
        // wear-out/retirement paths no-op.
        let stt = hammer_line(Some(Backend::SttRam));
        assert_eq!(stt.nvm_write_retries, 0, "STT-RAM must never retry for wear");
        assert_eq!(stt.nvm_frames_failed, 0, "nor retire frames");
        assert_eq!(stt.media.lines_worn_out, 0, "nor wear a line out");
    }

    #[test]
    fn numa_backend_has_no_media_machinery() {
        let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
        cfg.backend = Some(Backend::Numa);
        // Even an explicit fault request is dropped: remote DRAM has no
        // NVM media to inject faults into.
        cfg.faults = Some(MediaFaultConfig::with_seed(5));
        let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x2000;
        let mut m = MemoryController::new(&cfg);
        for i in 0..64u64 {
            m.store_bytes(nvm_pa + i * 64, &[i as u8; 64], Cycles::ZERO);
            m.commit_line(nvm_pa + i * 64);
        }
        assert!(m.media_mut().is_none(), "no media-fault model may arm");
        assert!(!m.degrade_line_bit(nvm_pa.as_u64(), 3), "no stuck cells to place");
        assert_eq!(
            m.patrol_frame(nvm_pa.page_base().as_u64()),
            PatrolOutcome::Clean,
            "patrol must be a clean no-op"
        );
        let stats = m.stats();
        assert_eq!(stats.media, Default::default(), "zero ECP/patrol/wear activity");
        assert_eq!(stats.nvm_write_retries, 0);
        assert_eq!(stats.nvm_frames_failed, 0);
    }

    #[test]
    fn cxl_backend_charges_link_and_controller_latency() {
        let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
        cfg.backend = Some(Backend::Cxl);
        let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x1000;
        let mut m = MemoryController::new(&cfg);
        assert_eq!(
            m.access(nvm_pa, AccessKind::Read, Cycles::ZERO),
            Cycles::from_nanos(Backend::Cxl.read_latency_ns()),
            "idle far read = media latency + link/controller penalty"
        );
        assert_eq!(m.backend(), Backend::Cxl);
    }

    /// Controller with a media-fault model armed but no random faults:
    /// stuck cells are placed by the test (via `degrade_line_bit`).
    fn mc_with_media(correction_entries: u32) -> (MemoryController, PhysAddr) {
        let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
        cfg.faults = Some(MediaFaultConfig {
            stuck_cells: 0,
            wear_limit: 0,
            correction_entries,
            ..MediaFaultConfig::with_seed(11)
        });
        let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x3000;
        (MemoryController::new(&cfg), nvm_pa)
    }

    #[test]
    fn patrol_heals_degraded_line_within_budget() {
        let (mut m, pa) = mc_with_media(2);
        m.store_bytes(pa, &[0x5au8; 64], Cycles::ZERO);
        m.commit_line(pa);
        assert!(m.degrade_line_bit(pa.as_u64(), 3));
        let mut buf = [0u8; 64];
        m.load_bytes(pa, &mut buf);
        assert_ne!(buf, [0x5au8; 64], "degrade must corrupt the stored copy");
        assert_eq!(m.patrol_frame(pa.as_u64()), PatrolOutcome::Healed { lines: 1 });
        m.load_bytes(pa, &mut buf);
        assert_eq!(buf, [0x5au8; 64], "healed line reads byte-identical");
        assert_eq!(m.patrol_frame(pa.as_u64()), PatrolOutcome::Clean);
    }

    #[test]
    fn patrol_heals_multiple_degraded_bits_per_line() {
        let (mut m, pa) = mc_with_media(4);
        let data: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x39).collect();
        m.store_bytes(pa, &data, Cycles::ZERO);
        m.commit_line(pa);
        for bit in [5, 200, 411] {
            assert!(m.degrade_line_bit(pa.as_u64(), bit));
        }
        assert_eq!(m.patrol_frame(pa.as_u64()), PatrolOutcome::Healed { lines: 1 });
        let mut buf = vec![0u8; 64];
        m.load_bytes(pa, &mut buf);
        assert_eq!(buf, data, "erasure decode over three suspect bits");
    }

    #[test]
    fn patrol_heal_and_degrade_drop_pages_they_leave_zero() {
        let (mut m, pa) = mc_with_media(2);
        // Drift sets a bit of a zero line: the page now holds data.
        m.store_bytes(pa, &[0u8; 64], Cycles::ZERO);
        m.commit_line(pa);
        assert_eq!(m.resident_pages(), 0);
        assert!(m.degrade_line_bit(pa.as_u64(), 3));
        assert_eq!(m.resident_pages(), 1);
        // The heal writes the zero line back, leaving nothing to store.
        assert_eq!(m.patrol_frame(pa.as_u64()), PatrolOutcome::Healed { lines: 1 });
        assert_eq!(m.resident_pages(), 0);

        // Drift clears the only set bit of a page.
        let next = pa + 4096;
        let mut line = [0u8; 64];
        line[0] = 1 << 5;
        m.store_bytes(next, &line, Cycles::ZERO);
        m.commit_line(next);
        assert_eq!(m.resident_pages(), 1);
        assert!(m.degrade_line_bit(next.as_u64(), 5));
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn stuck_at_zero_cell_drops_a_page_it_leaves_zero() {
        let (mut m, pa) = mc_with_media(0);
        m.media_mut().unwrap().add_stuck_cell(pa.as_u64(), 5, false);
        // The store's only set bit lands on the stuck cell.
        let mut line = [0u8; 64];
        line[0] = 1 << 5;
        m.store_bytes(pa, &line, Cycles::ZERO);
        let mut buf = [0xffu8; 64];
        m.load_bytes(pa, &mut buf);
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn patrol_without_budget_reports_uncorrectable() {
        let (mut m, pa) = mc_with_media(0);
        m.store_bytes(pa, &[0x11u8; 64], Cycles::ZERO);
        m.commit_line(pa);
        assert!(m.degrade_line_bit(pa.as_u64(), 7));
        assert_eq!(
            m.patrol_frame(pa.as_u64()),
            PatrolOutcome::Uncorrectable { lines: vec![pa.as_u64()] }
        );
    }

    #[test]
    fn patrol_is_clean_on_untouched_frames() {
        let (mut m, pa) = mc_with_media(2);
        assert_eq!(m.patrol_frame(pa.as_u64()), PatrolOutcome::Clean);
        m.store_bytes(pa, &[9u8; 64], Cycles::ZERO);
        assert_eq!(m.patrol_frame(pa.as_u64()), PatrolOutcome::Clean);
    }

    #[test]
    fn degrade_refuses_dram_and_unarmed_media() {
        let (mut m, pa) = mc_with_media(2);
        assert!(!m.degrade_line_bit(0x1000, 0), "DRAM lines never degrade");
        let _ = pa;
        let (mut plain, _, nvm_pa) = mc();
        assert!(!plain.degrade_line_bit(nvm_pa.as_u64(), 0), "needs an armed fault model");
    }

    #[test]
    fn crash_rollback_rehashes_checksums() {
        // Satellite coverage: a crash must rebuild (not keep stale)
        // integrity state for rolled-back lines, mirroring the
        // failed_frames/failed_set clearing in power_off_cleanup.
        let (mut m, pa) = mc_with_media(2);
        m.store_bytes(pa, &[0xaau8; 64], Cycles::ZERO);
        m.commit_line(pa);
        m.store_bytes(pa, &[0xbbu8; 64], Cycles::ZERO); // dirty, never committed
        m.crash();
        let mut buf = [0u8; 64];
        m.load_bytes(pa, &mut buf);
        assert_eq!(buf, [0xaau8; 64]);
        assert_eq!(
            m.patrol_frame(pa.as_u64()),
            PatrolOutcome::Clean,
            "a rolled-back line holds valid old data, not corruption"
        );
    }

    #[test]
    fn committed_corruption_survives_crash_and_is_detected() {
        let (mut m, pa) = mc_with_media(0);
        m.store_bytes(pa, &[0x33u8; 64], Cycles::ZERO);
        m.commit_line(pa);
        assert!(m.degrade_line_bit(pa.as_u64(), 100));
        m.crash();
        assert_eq!(
            m.patrol_frame(pa.as_u64()),
            PatrolOutcome::Uncorrectable { lines: vec![pa.as_u64()] },
            "checksums persist with the media across a crash"
        );
    }

    #[test]
    fn torn_line_keeps_stale_checksum_for_patrol() {
        for seed in 0..64u64 {
            let (mut m, pa) = mc_with_media(2);
            m.arm_power_cut(PowerSwitch::new());
            m.store_bytes(pa, &[0x11u8; 64], Cycles::ZERO);
            m.commit_line(pa);
            m.nvm_drain_latency(Cycles::from_millis(1)); // old durable: 0x11
            m.store_bytes(pa, &[0x22u8; 64], Cycles::ZERO);
            m.commit_line(pa);
            m.access(pa, AccessKind::Write, Cycles::from_millis(1));
            let mut rng = Rng64::new(seed);
            m.crash_torn(&mut rng);
            if m.stats().nvm_lines_torn_on_crash == 0 {
                continue; // this seed landed the full line; try the next
            }
            assert_eq!(
                m.patrol_frame(pa.as_u64()),
                PatrolOutcome::Uncorrectable { lines: vec![pa.as_u64()] },
                "a torn line is real data loss and must stay detectable"
            );
            return;
        }
        panic!("no seed in 0..64 tore the buffered line");
    }

    #[test]
    fn crash_wipes_dram_page_held_in_mru_slot() {
        // The MRU slot holds its page *out* of the map; a crash must not
        // let that page dodge the DRAM wipe.
        let (mut m, dram_pa, _) = mc();
        m.store_bytes(dram_pa, b"volatile!", Cycles::ZERO); // now in the MRU slot
        m.crash();
        let mut buf = [0u8; 9];
        m.load_bytes(dram_pa, &mut buf);
        assert_eq!(buf, [0u8; 9], "MRU-cached DRAM page must not survive");
    }

    #[test]
    fn crash_keeps_nvm_page_held_in_mru_slot() {
        let (mut m, _, nvm_pa) = mc();
        m.store_bytes(nvm_pa, b"keepme", Cycles::ZERO);
        m.commit_line(nvm_pa); // durable; page sits in the MRU slot
        m.crash();
        let mut buf = [0u8; 6];
        m.load_bytes(nvm_pa, &mut buf);
        assert_eq!(&buf, b"keepme", "MRU-cached NVM page must persist");
    }
}
