//! PCM NVM timing model: asymmetric latencies and a draining write buffer,
//! plus the deterministic media-fault model (wear-out and stuck-at cells).

use std::collections::VecDeque;

use kindle_types::rng::Rng64;
use kindle_types::{checksum64, AccessKind, Cycles, LineTable, PhysAddr, CACHE_LINE};

use crate::config::{MediaFaultConfig, NvmConfig};

/// Per-device NVM statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NvmStats {
    /// Array reads serviced.
    pub reads: u64,
    /// Reads forwarded from the write buffer.
    pub forwarded_reads: u64,
    /// Writes accepted.
    pub writes: u64,
    /// Writes that found the buffer full and stalled.
    pub write_stalls: u64,
    /// Cycles the requester spent stalled on a full write buffer.
    pub stall_cycles: Cycles,
    /// Total cycles of latency handed out.
    pub busy_cycles: Cycles,
}

/// A PCM device.
///
/// Writes are absorbed by a write buffer of `cfg.write_buffer` entries and
/// drained serially at the (slow) cell-write service latency; a write that
/// finds the buffer full stalls the requester until the oldest entry drains.
/// Reads check the write buffer first (forwarding), then pay the array read
/// latency. This reproduces the behaviour that matters in the paper: bursts
/// of NVM writes (checkpoints, logging, page-table updates in the
/// *persistent* scheme) are cheap while short, then hit a drain-rate wall.
#[derive(Clone, Debug)]
pub struct NvmDevice {
    cfg: NvmConfig,
    /// Completion time of each in-flight buffered write, oldest first,
    /// paired with the line address it targets.
    write_queue: VecDeque<(Cycles, u64)>,
    stats: NvmStats,
}

impl NvmDevice {
    /// Creates an idle device.
    pub fn new(cfg: NvmConfig) -> Self {
        NvmDevice {
            write_queue: VecDeque::with_capacity(cfg.write_buffer),
            cfg,
            stats: NvmStats::default(),
        }
    }

    /// Drops completed writes from the queue head.
    fn drain(&mut self, now: Cycles) {
        while let Some(&(done, _)) = self.write_queue.front() {
            if done <= now {
                self.write_queue.pop_front();
            } else {
                break;
            }
        }
    }

    /// Services one cache-line access and returns its latency.
    pub fn access(&mut self, pa: PhysAddr, kind: AccessKind, now: Cycles) -> Cycles {
        self.drain(now);
        let line = pa.line_base().as_u64();
        let lat = match kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                if self.write_queue.iter().any(|&(_, l)| l == line) {
                    self.stats.forwarded_reads += 1;
                    Cycles::from_nanos(self.cfg.forward_ns)
                } else {
                    Cycles::from_nanos(self.cfg.read_ns)
                }
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                let mut lat = Cycles::from_nanos(self.cfg.buffer_insert_ns);
                let mut effective_now = now;
                if self.write_queue.len() >= self.cfg.write_buffer {
                    // Stall until the oldest entry drains.
                    let (oldest, _) = self.write_queue.pop_front().expect("non-empty queue");
                    let stall = oldest.saturating_sub(now);
                    self.stats.write_stalls += 1;
                    self.stats.stall_cycles += stall;
                    lat += stall;
                    effective_now = effective_now.max(oldest);
                }
                // Banked drain: writes complete one inter-bank gap after the
                // previous one (or a full service time from idle).
                let gap = Cycles::from_nanos(
                    (self.cfg.write_service_ns / self.cfg.write_banks.max(1) as u64).max(1),
                );
                let done = match self.write_queue.back() {
                    Some(&(prev, _)) => prev.max(effective_now) + gap,
                    None => effective_now + Cycles::from_nanos(self.cfg.write_service_ns),
                };
                self.write_queue.push_back((done, line));
                lat
            }
        };
        self.stats.busy_cycles += lat;
        lat
    }

    /// Latency of waiting for the entire write buffer to drain (used by
    /// fence-like operations that require durability of all prior writes).
    pub fn drain_latency(&mut self, now: Cycles) -> Cycles {
        self.drain(now);
        let done = self.write_queue.back().map(|&(d, _)| d).unwrap_or(Cycles::ZERO);
        let wait = done.saturating_sub(now);
        self.write_queue.clear();
        wait
    }

    /// Number of writes currently buffered (after draining completed ones).
    pub fn pending_writes(&mut self, now: Cycles) -> usize {
        self.drain(now);
        self.write_queue.len()
    }

    /// Line addresses still buffered at `now`, oldest first. A power cut
    /// loses (or tears, for the entries mid-service in the banks) exactly
    /// these lines.
    pub fn pending_lines(&mut self, now: Cycles) -> Vec<u64> {
        self.drain(now);
        self.write_queue.iter().map(|&(_, l)| l).collect()
    }

    /// Number of independent write banks (≥ 1).
    pub fn banks(&self) -> usize {
        self.cfg.write_banks.max(1)
    }

    /// Device statistics.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Power-cycle: in-flight buffered writes are lost (the controller's
    /// durability image decides what data survived).
    pub fn reset(&mut self) {
        self.write_queue.clear();
    }
}

/// Outcome of one cell-write attempt under the media-fault model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The cells took the write.
    Ok,
    /// The write failed this attempt; a bounded retry may succeed.
    Transient,
    /// The line is past its endurance budget; writes can never succeed.
    WornOut,
}

/// Counters for the media-fault model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// Write attempts that failed transiently (and were retried).
    pub transient_failures: u64,
    /// Lines that crossed their endurance budget.
    pub lines_worn_out: u64,
    /// Writes that landed in a line with a stuck-at cell.
    pub stuck_line_writes: u64,
    /// ECP correction entries allocated (each permanently heals one cell).
    pub corrections_allocated: u64,
    /// Writes that landed in a line whose stuck cells exceed the ECP
    /// budget: the stored data is corrupted and the frame must be retired.
    pub uncorrectable_line_writes: u64,
}

/// Outcome of asking the ECP layer to cover a line's stuck cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorrectionOutcome {
    /// No stuck cells in the line; nothing to correct.
    Clean,
    /// Every stuck cell is covered by a correction entry
    /// (`newly_allocated` of them were consumed by this call).
    Corrected {
        /// Correction entries allocated by this call (0 = already covered).
        newly_allocated: u32,
    },
    /// The line needs more correction entries than the per-line budget.
    Exhausted {
        /// Stuck cells in the line.
        cells: u32,
        /// The configured per-line correction-entry budget.
        budget: u32,
    },
}

/// Deterministic NVM media faults: per-line wear counters with jittered
/// endurance budgets, a soft-failure zone near end of life, and stuck-at
/// bit cells seeded over the NVM range. All decisions derive from the
/// config seed, so a run's fault history is exactly reproducible.
///
/// Wear and stuck state live in direct-indexed [`LineTable`]s keyed by the
/// line's offset into the NVM range; a line is worn exactly when its write
/// count has reached its (frozen-at-limit) endurance budget, so no
/// separate worn set is needed.
#[derive(Clone, Debug)]
pub struct MediaFaults {
    cfg: MediaFaultConfig,
    rng: Rng64,
    /// Base physical address of the NVM range the tables index.
    nvm_base: u64,
    /// Number of cache lines in the NVM range.
    nvm_lines: u64,
    /// Write count per line (counts freeze once the budget is reached).
    wear: LineTable,
    /// The lowest soft-failure threshold any line's budget can have (see
    /// [`wear_floor`]). A write that leaves the count below it always
    /// succeeds without a random draw.
    wear_floor: u64,
    /// Stuck cells, up to [`CELLS_PER_LINE`] packed per entry (see
    /// [`encode_cell`]); 0 = none.
    stuck: LineTable,
    /// ECP correction entries allocated per line. The first `n` stuck
    /// cells (in slot order) are permanently healed; allocation is capped
    /// by `cfg.correction_entries`.
    corrected: LineTable,
    stats: MediaStats,
}

impl MediaFaults {
    /// Creates the model, scattering `cfg.stuck_cells` stuck bits across
    /// the NVM range `[nvm_base, nvm_base + nvm_size)`. Cells landing in
    /// the same line stack (up to [`CELLS_PER_LINE`]), which is how a
    /// line can come to need more correction entries than its budget.
    pub fn new(cfg: MediaFaultConfig, nvm_base: u64, nvm_size: u64) -> Self {
        let mut rng = Rng64::new(cfg.seed);
        let mut stuck = LineTable::default();
        let lines = (nvm_size / CACHE_LINE as u64).max(1);
        for _ in 0..cfg.stuck_cells {
            let idx = rng.gen_below(lines) as usize;
            let bit = rng.gen_below(8 * CACHE_LINE as u64);
            let val = rng.gen_below(2);
            stuck.set(idx, append_cell(stuck.get(idx), encode_cell(bit as u32, val == 1)));
        }
        MediaFaults {
            cfg,
            rng,
            nvm_base,
            nvm_lines: lines,
            wear: LineTable::default(),
            wear_floor: wear_floor(cfg.wear_limit),
            stuck,
            corrected: LineTable::default(),
            stats: MediaStats::default(),
        }
    }

    /// Places one stuck cell directly: bit `bit` (0..512) of the line
    /// holding physical address `line` sticks at `val`. Returns `false`
    /// (placing nothing) outside the NVM range or once the line already
    /// carries [`CELLS_PER_LINE`] cells. Directed fault-injection
    /// harnesses use this to corrupt a *chosen* structure — e.g. every
    /// line of a page-table frame — which uniform seeding cannot arrange.
    pub fn add_stuck_cell(&mut self, line: u64, bit: u32, val: bool) -> bool {
        let Some(idx) = self.line_index(line) else {
            return false;
        };
        let before = self.stuck.get(idx);
        let after = append_cell(before, encode_cell(bit, val));
        self.stuck.set(idx, after);
        after != before
    }

    /// The line's index into the tables, or `None` outside the NVM range.
    fn line_index(&self, line: u64) -> Option<usize> {
        let off = line.checked_sub(self.nvm_base)?;
        let idx = off / CACHE_LINE as u64;
        (idx < self.nvm_lines).then_some(idx as usize)
    }

    /// Per-line endurance budget: the configured mean plus a deterministic
    /// ±12.5% jitter derived from the line address, so lines do not all
    /// fail in the same burst.
    fn endurance(&self, line: u64) -> u64 {
        let span = (self.cfg.wear_limit / 4).max(1);
        let jitter = checksum64(&[self.cfg.seed, line]) % span;
        self.cfg.wear_limit - span / 2 + jitter
    }

    /// Records one write attempt to `line` and rolls its outcome. Retries
    /// count as further attempts (they wear the cells too).
    pub fn on_write(&mut self, line: u64) -> WriteOutcome {
        if self.cfg.wear_limit == 0 {
            return WriteOutcome::Ok;
        }
        let Some(idx) = self.line_index(line) else {
            return WriteOutcome::Ok;
        };
        let count = self.wear.get(idx);
        if count + 1 < self.wear_floor {
            // Below every budget's soft-failure zone: the write succeeds and
            // rolls nothing, whatever this line's budget is.
            self.wear.set(idx, count + 1);
            return WriteOutcome::Ok;
        }
        let limit = self.endurance(line);
        if count >= limit {
            // Already past the budget; the count froze when it got there.
            return WriteOutcome::WornOut;
        }
        let count = count + 1;
        self.wear.set(idx, count);
        if count >= limit {
            self.stats.lines_worn_out += 1;
            return WriteOutcome::WornOut;
        }
        // Soft-failure zone: the last tenth of the budget fails with
        // probability ramping linearly from 0 to 1.
        let soft = limit - limit / 10;
        if count > soft && self.rng.gen_below(limit - soft) < count - soft {
            self.stats.transient_failures += 1;
            return WriteOutcome::Transient;
        }
        WriteOutcome::Ok
    }

    /// Stuck cells in `line` that are NOT healed by a correction entry,
    /// in slot order. `None` (without counting a stuck write) when the
    /// line has no stuck cells at all; an empty vec means every cell is
    /// covered and stored data is trustworthy.
    pub fn uncorrected_stuck_in_line(&mut self, line: u64) -> Option<Vec<(u32, bool)>> {
        let idx = self.line_index(line)?;
        let e = self.stuck.get(idx);
        if e == 0 {
            return None;
        }
        self.stats.stuck_line_writes += 1;
        let healed = self.corrected.get(idx) as usize;
        Some(decode_cells(e).skip(healed).collect())
    }

    /// Every stuck cell in `line` (healed or not), in slot order, without
    /// counting a stuck write. Patrol scrub uses the positions as erasures
    /// when reconstructing a checksum-mismatched line: any stuck position's
    /// stored bit is suspect, whether or not ECP covers it today.
    pub fn stuck_cells_in_line(&self, line: u64) -> Vec<(u32, bool)> {
        match self.line_index(line) {
            Some(idx) => decode_cells(self.stuck.get(idx)).collect(),
            None => Vec::new(),
        }
    }

    /// Asks the ECP layer to cover every stuck cell in `line`: correction
    /// entries are allocated (within the per-line budget) for cells not
    /// already healed. An allocation is permanent — the entry replaces the
    /// stuck cell for the rest of the device's life.
    pub fn correct_line(&mut self, line: u64) -> CorrectionOutcome {
        let Some(idx) = self.line_index(line) else {
            return CorrectionOutcome::Clean;
        };
        let e = self.stuck.get(idx);
        if e == 0 {
            return CorrectionOutcome::Clean;
        }
        let cells = decode_cells(e).count() as u32;
        let have = self.corrected.get(idx) as u32;
        if cells <= have {
            return CorrectionOutcome::Corrected { newly_allocated: 0 };
        }
        if cells > self.cfg.correction_entries {
            self.stats.uncorrectable_line_writes += 1;
            return CorrectionOutcome::Exhausted { cells, budget: self.cfg.correction_entries };
        }
        let newly = cells - have;
        self.corrected.set(idx, u64::from(cells));
        self.stats.corrections_allocated += u64::from(newly);
        CorrectionOutcome::Corrected { newly_allocated: newly }
    }

    /// True when ECP correction is enabled (a non-zero per-line budget).
    pub fn correction_enabled(&self) -> bool {
        self.cfg.correction_entries > 0
    }

    /// True once `line` is past its endurance budget.
    pub fn is_worn(&self, line: u64) -> bool {
        if self.cfg.wear_limit == 0 {
            return false;
        }
        match self.line_index(line) {
            Some(idx) => self.wear.get(idx) >= self.endurance(line),
            None => false,
        }
    }

    /// All seeded stuck cells, one tuple per cell: line base address →
    /// (bit index, value), in address then slot order.
    pub fn stuck_cells(&self) -> Vec<(u64, (u32, bool))> {
        self.stuck
            .iter_set()
            .flat_map(|(idx, e)| {
                let base = self.nvm_base + idx as u64 * CACHE_LINE as u64;
                decode_cells(e).map(move |cell| (base, cell))
            })
            .collect()
    }

    /// Fault-model counters.
    pub fn stats(&self) -> &MediaStats {
        &self.stats
    }
}

/// The soft-failure threshold of the smallest budget [`MediaFaults`] can
/// give a line under `wear_limit`. Budgets are `wear_limit - span/2` plus a
/// jitter in `[0, span)`, and a budget `b` starts failing above
/// `b - b/10`, which never decreases as `b` grows. A write whose new count
/// is strictly below this floor is therefore below its line's soft zone
/// and its budget, so it succeeds without drawing from the RNG. For
/// `wear_limit < 10` the floor equals the smallest budget.
fn wear_floor(wear_limit: u64) -> u64 {
    let span = (wear_limit / 4).max(1);
    let lo = wear_limit - span / 2;
    lo - lo / 10
}

/// Stuck cells tracked per line (packed 16 bits each into one table entry).
/// Matches the granularity real ECP proposals reason about: a handful of
/// failed cells per 64-byte line before the line must be retired.
pub const CELLS_PER_LINE: usize = 4;

/// Packs one stuck cell into a 16-bit slot: valid flag (bit 15), stuck
/// value (bit 14), bit index within the line (0..512) in the low 9 bits.
fn encode_cell(bit: u32, val: bool) -> u64 {
    0x8000 | (u64::from(val) << 14) | u64::from(bit & 0x1ff)
}

/// Appends `cell` to packed entry `e` in the first free slot. A full entry
/// is returned unchanged (further cells in an already-dead line change
/// nothing observable: the line is uncorrectable either way).
fn append_cell(e: u64, cell: u64) -> u64 {
    for slot in 0..CELLS_PER_LINE {
        if (e >> (16 * slot)) & 0x8000 == 0 {
            return e | (cell << (16 * slot));
        }
    }
    e
}

/// Decodes the packed stuck cells of entry `e` as (bit index, value), in
/// slot order (the order ECP entries are consumed in).
fn decode_cells(e: u64) -> impl Iterator<Item = (u32, bool)> {
    (0..CELLS_PER_LINE).filter_map(move |slot| {
        let s = (e >> (16 * slot)) & 0xffff;
        (s & 0x8000 != 0).then_some(((s & 0x1ff) as u32, (s >> 14) & 1 == 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmConfig::default())
    }

    #[test]
    fn read_slower_than_buffered_write() {
        let mut d = dev();
        let w = d.access(PhysAddr::new(0), AccessKind::Write, Cycles::ZERO);
        let r = d.access(PhysAddr::new(4096), AccessKind::Read, Cycles::ZERO);
        assert!(w < r, "buffered write ({w}) should beat array read ({r})");
    }

    #[test]
    fn read_forwards_from_write_buffer() {
        let mut d = dev();
        d.access(PhysAddr::new(128), AccessKind::Write, Cycles::ZERO);
        let r = d.access(PhysAddr::new(128), AccessKind::Read, Cycles::ZERO);
        assert_eq!(r, Cycles::from_nanos(NvmConfig::default().forward_ns));
        assert_eq!(d.stats().forwarded_reads, 1);
    }

    #[test]
    fn write_burst_stalls_when_buffer_full() {
        let cfg = NvmConfig::default();
        let mut d = NvmDevice::new(cfg.clone());
        let now = Cycles::ZERO;
        for i in 0..cfg.write_buffer {
            let lat = d.access(PhysAddr::new(64 * i as u64), AccessKind::Write, now);
            assert_eq!(lat, Cycles::from_nanos(cfg.buffer_insert_ns));
        }
        let lat = d.access(PhysAddr::new(1 << 20), AccessKind::Write, now);
        assert!(
            lat > Cycles::from_nanos(cfg.write_service_ns / 2),
            "49th write at t=0 should stall on the drain: {lat}"
        );
        assert_eq!(d.stats().write_stalls, 1);
    }

    #[test]
    fn buffer_drains_over_time() {
        let cfg = NvmConfig::default();
        let mut d = NvmDevice::new(cfg.clone());
        for i in 0..cfg.write_buffer {
            d.access(PhysAddr::new(64 * i as u64), AccessKind::Write, Cycles::ZERO);
        }
        assert_eq!(d.pending_writes(Cycles::ZERO), cfg.write_buffer);
        let much_later = Cycles::from_millis(1);
        assert_eq!(d.pending_writes(much_later), 0);
        // After draining, a write is cheap again.
        let lat = d.access(PhysAddr::new(0), AccessKind::Write, much_later);
        assert_eq!(lat, Cycles::from_nanos(cfg.buffer_insert_ns));
    }

    #[test]
    fn pending_lines_match_queue_order() {
        let mut d = dev();
        for i in 0..5u64 {
            d.access(PhysAddr::new(64 * i), AccessKind::Write, Cycles::ZERO);
        }
        assert_eq!(d.pending_lines(Cycles::ZERO), vec![0, 64, 128, 192, 256]);
        assert!(d.pending_lines(Cycles::from_millis(1)).is_empty());
    }

    #[test]
    fn wear_out_is_permanent_and_deterministic() {
        let cfg = MediaFaultConfig { wear_limit: 64, ..MediaFaultConfig::with_seed(7) };
        let mut a = MediaFaults::new(cfg, 0, 1 << 20);
        let mut b = MediaFaults::new(cfg, 0, 1 << 20);
        let mut first_fail = None;
        for i in 0..200u64 {
            let (ra, rb) = (a.on_write(0x40), b.on_write(0x40));
            assert_eq!(ra, rb, "same seed must give same outcome at write {i}");
            if ra != WriteOutcome::Ok && first_fail.is_none() {
                first_fail = Some(i);
            }
        }
        assert!(first_fail.is_some(), "64-write budget must fail within 200 writes");
        assert!(a.is_worn(0x40));
        assert_eq!(a.on_write(0x40), WriteOutcome::WornOut);
        assert!(a.stats().lines_worn_out >= 1);
    }

    impl MediaFaults {
        /// The write rule without the wear-floor shortcut: every write
        /// hashes the line's budget.
        fn on_write_full_rule(&mut self, line: u64) -> WriteOutcome {
            if self.cfg.wear_limit == 0 {
                return WriteOutcome::Ok;
            }
            let Some(idx) = self.line_index(line) else {
                return WriteOutcome::Ok;
            };
            let limit = self.endurance(line);
            let count = self.wear.get(idx);
            if count >= limit {
                return WriteOutcome::WornOut;
            }
            let count = count + 1;
            self.wear.set(idx, count);
            if count >= limit {
                self.stats.lines_worn_out += 1;
                return WriteOutcome::WornOut;
            }
            let soft = limit - limit / 10;
            if count > soft && self.rng.gen_below(limit - soft) < count - soft {
                self.stats.transient_failures += 1;
                return WriteOutcome::Transient;
            }
            WriteOutcome::Ok
        }
    }

    #[test]
    fn wear_floor_shortcut_matches_the_full_rule() {
        const LINES: u64 = 6;
        for wear_limit in [1, 2, 9, 10, 11, 40, 4096] {
            let cfg = MediaFaultConfig { wear_limit, ..MediaFaultConfig::with_seed(wear_limit) };
            let base = 1 << 30;
            let mut fast = MediaFaults::new(cfg, base, LINES * 64);
            let mut full = fast.clone();
            let mut stream = Rng64::new(wear_limit ^ 0x5eed);
            // Enough writes to carry every line past its budget, with a
            // line outside the range on either side.
            for i in 0..(LINES + 2) * (wear_limit + wear_limit / 4 + 4) {
                let line = base - 64 + 64 * stream.gen_below(LINES + 2);
                let (a, b) = (fast.on_write(line), full.on_write_full_rule(line));
                assert_eq!(a, b, "wear_limit {wear_limit}: write {i} to {line:#x}");
            }
            assert_eq!(fast.stats, full.stats, "wear_limit {wear_limit}");
            assert_eq!(fast.rng, full.rng, "wear_limit {wear_limit}: RNG state");
            for idx in 0..LINES as usize {
                assert_eq!(fast.wear.get(idx), full.wear.get(idx), "wear_limit {wear_limit}");
                assert_eq!(fast.wear.get(idx), fast.endurance(base + 64 * idx as u64));
            }
            assert!(fast.stats.lines_worn_out == LINES, "every line wears out: {:?}", fast.stats);
        }
    }

    #[test]
    fn wear_floor_bounds_every_soft_zone() {
        for wear_limit in [1, 2, 9, 10, 11, 40, 4096, 100_000] {
            let m = MediaFaults::new(
                MediaFaultConfig { wear_limit, ..MediaFaultConfig::with_seed(3) },
                0,
                1 << 20,
            );
            let floor = wear_floor(wear_limit);
            let lowest = (0..4096u64)
                .map(|i| {
                    let b = m.endurance(i * 64);
                    b - b / 10
                })
                .min()
                .unwrap();
            assert!(floor <= lowest, "wear_limit {wear_limit}: floor {floor} > {lowest}");
            assert!(floor > 0, "the shortcut must engage at all");
        }
        assert_eq!(wear_floor(1), 1);
        assert_eq!(wear_floor(9), 8);
        assert_eq!(wear_floor(4096), 3226);
    }

    #[test]
    fn zero_wear_limit_disables_wear() {
        let cfg = MediaFaultConfig { wear_limit: 0, ..MediaFaultConfig::with_seed(1) };
        let mut m = MediaFaults::new(cfg, 0, 1 << 20);
        for _ in 0..10_000 {
            assert_eq!(m.on_write(0), WriteOutcome::Ok);
        }
    }

    #[test]
    fn stuck_cells_seeded_in_range() {
        let base = 1 << 30;
        let size = 1 << 20;
        let m = MediaFaults::new(MediaFaultConfig::with_seed(3), base, size);
        let cells = m.stuck_cells();
        assert_eq!(cells.len(), MediaFaultConfig::with_seed(3).stuck_cells);
        for (line, (bit, _)) in cells {
            assert!(line >= base && line < base + size);
            assert_eq!(line % CACHE_LINE as u64, 0);
            assert!(bit < 8 * CACHE_LINE as u32);
        }
    }

    #[test]
    fn packed_cells_roundtrip_in_slot_order() {
        let mut e = 0u64;
        e = append_cell(e, encode_cell(5, true));
        e = append_cell(e, encode_cell(511, false));
        assert_eq!(decode_cells(e).collect::<Vec<_>>(), vec![(5, true), (511, false)]);
        for b in 0..3 {
            e = append_cell(e, encode_cell(b, false));
        }
        assert_eq!(decode_cells(e).count(), CELLS_PER_LINE, "overflow cells are dropped");
    }

    #[test]
    fn correct_line_allocates_within_budget() {
        let cfg = MediaFaultConfig { correction_entries: 2, ..MediaFaultConfig::with_seed(3) };
        let mut m = MediaFaults::new(cfg, 0, 1 << 20);
        assert!(m.correction_enabled());
        let (line, _) = m.stuck_cells()[0];
        assert!(matches!(
            m.correct_line(line),
            CorrectionOutcome::Corrected { newly_allocated: 1.. }
        ));
        assert!(matches!(
            m.correct_line(line),
            CorrectionOutcome::Corrected { newly_allocated: 0 }
        ));
        assert_eq!(m.uncorrected_stuck_in_line(line), Some(vec![]), "every cell healed");
        assert!(m.stats().corrections_allocated >= 1);
        assert_eq!(m.correct_line(1 << 19 | 0x3f << 6), CorrectionOutcome::Clean);
    }

    #[test]
    fn stuck_cells_in_line_is_a_pure_query() {
        let cfg = MediaFaultConfig { correction_entries: 2, ..MediaFaultConfig::with_seed(3) };
        let mut m = MediaFaults::new(cfg, 0, 1 << 20);
        let (line, cell) = m.stuck_cells()[0];
        assert!(m.stuck_cells_in_line(line).contains(&cell));
        assert_eq!(m.stats().stuck_line_writes, 0, "query must not count a stuck write");
        // Healed cells stay visible: their stored bits remain suspect.
        m.correct_line(line);
        assert!(m.stuck_cells_in_line(line).contains(&cell));
        assert!(m.stuck_cells_in_line(1 << 19 | 0x3f << 6).is_empty());
    }

    #[test]
    fn exhausted_budget_reports_uncorrectable() {
        let cfg = MediaFaultConfig { correction_entries: 0, ..MediaFaultConfig::with_seed(3) };
        let mut m = MediaFaults::new(cfg, 0, 1 << 20);
        assert!(!m.correction_enabled());
        let (line, _) = m.stuck_cells()[0];
        assert!(matches!(m.correct_line(line), CorrectionOutcome::Exhausted { budget: 0, .. }));
        assert_eq!(m.stats().uncorrectable_line_writes, 1);
        let cells = m.uncorrected_stuck_in_line(line).expect("seeded cells stay uncorrected");
        assert!(!cells.is_empty());
    }

    #[test]
    fn out_of_range_lines_never_wear() {
        let cfg = MediaFaultConfig { wear_limit: 8, ..MediaFaultConfig::with_seed(2) };
        let mut m = MediaFaults::new(cfg, 1 << 30, 1 << 20);
        for _ in 0..100 {
            assert_eq!(m.on_write(0x40), WriteOutcome::Ok, "below the NVM base");
        }
        assert!(!m.is_worn(0x40));
        assert_eq!(m.stats().lines_worn_out, 0);
    }

    #[test]
    fn drain_latency_waits_for_all() {
        let mut d = dev();
        for i in 0..10u64 {
            d.access(PhysAddr::new(64 * i), AccessKind::Write, Cycles::ZERO);
        }
        let cfg = NvmConfig::default();
        let gap = cfg.write_service_ns / cfg.write_banks as u64;
        let min_drain = cfg.write_service_ns + 9 * gap;
        let wait = d.drain_latency(Cycles::ZERO);
        assert!(wait >= Cycles::from_nanos(min_drain), "drain {wait} too short");
        assert_eq!(d.pending_writes(Cycles::ZERO), 0);
    }
}
