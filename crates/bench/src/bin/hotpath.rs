//! Hot-path throughput: flat direct-indexed controller stores vs the
//! legacy ordered maps.
//!
//! Drives the identical workload through `Machine::access` on two
//! machines that differ only in `MemConfig::legacy_maps`: the flat side
//! uses the pfn-indexed page arena, the `LineTable`-backed checksum
//! store and the epoch-tagged undo table; the legacy side uses the
//! original `BTreeMap` stores. Two alternating phases cover both halves
//! of the controller's hot path:
//!
//! * a *translation* phase — a random read/write mix over a working set
//!   sized well past the TLB, so most accesses walk the NVM-resident
//!   page tables (Persistent mode) through the controller's byte loads;
//! * a *churn* phase — mmap/fault-in/munmap rounds whose zero-fill
//!   stores hit the undo table and (with the media-fault model armed)
//!   the checksum table on every line.
//!
//! Timing methodology: both sides run the identical access stream, split
//! into chunks that are timed *alternately* (legacy, flat, legacy, flat,
//! …) after an untimed warm-up chunk, so frequency scaling and cache
//! warm-up bias neither side.
//!
//! Reported rows:
//!
//! * `mlines_per_sec` — flat-side throughput in million simulated line
//!   accesses per host second;
//! * `hotpath_speedup` — legacy wall time / flat wall time (golden-gated
//!   at >= 1.3x by `bench_diff`);
//! * `lines_accessed` — per-side timed line count (workload-shape pin).
//!
//! Both sides must be *observation-equivalent*: the binary asserts their
//! `SimReport`s and final clocks are byte-identical before printing any
//! number, so the speedup can never come from simulating less.

use kindle_bench::*;
use kindle_core::prelude::PtMode;

/// Deterministic splitmix64 step: the workload's address/kind stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One side of the comparison: a machine plus its private copy of the
/// workload stream and its accumulated timed work.
struct Side {
    m: Machine,
    pid: u32,
    va: VirtAddr,
    pages: u64,
    rng: u64,
    lines: u64,
    secs: f64,
}

impl Side {
    /// Builds one side; `legacy` picks the store layout. The ambient
    /// `--legacy-maps` request is suspended around `Machine::new` so a
    /// global flag cannot leak into the flat side — the comparison is
    /// meaningless unless exactly one side is legacy.
    fn build(legacy: bool, pages: u64) -> Result<Side> {
        let ambient = sim::thread_legacy_maps();
        sim::set_thread_legacy_maps(false);
        let mut faults = mem::MediaFaultConfig::with_seed(5);
        faults.correction_entries = STUCK_CORRECTION_ENTRIES;
        let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
        cfg.mem.faults = Some(faults);
        cfg.mem.legacy_maps = legacy;
        // Keep the fixed-cost part of the per-access simulation (way
        // scans) small and the translation traffic high: a lean TLB means
        // nearly every access walks the NVM-resident page tables, which
        // is exactly the controller-store traffic this bench compares.
        cfg.tlb.l1 = tlb::TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 };
        cfg.tlb.l2 = tlb::TlbConfig { entries: 128, assoc: 8, hit_cycles: 7 };
        cfg.caches.l1.assoc = 2;
        cfg.caches.l2.assoc = 2;
        cfg.caches.llc.assoc = 4;
        let built = Machine::new(cfg);
        sim::set_thread_legacy_maps(ambient);
        let mut m = built?;

        let pid = m.spawn_process()?;
        let va = m.mmap(pid, pages * 4096, Prot::RW, MapFlags::NVM)?;
        // Fault every page in up front so the timed region is
        // steady-state translation + data traffic, not fault handling.
        for p in 0..pages {
            m.access(pid, va + p * 4096, AccessKind::Write)?;
        }
        Ok(Side { m, pid, va, pages, rng: 0x0dd0_11ce_5eed, lines: 0, secs: 0.0 })
    }

    /// Runs `n` accesses of the deterministic stream; `timed` adds the
    /// wall time and line count to the side's totals.
    fn chunk(&mut self, n: u64, timed: bool) -> Result<()> {
        let started = std::time::Instant::now();
        for _ in 0..n {
            let r = mix(&mut self.rng);
            let page = (r >> 32) % self.pages;
            let line = (r >> 16) & 63;
            let kind = if r & 3 == 0 { AccessKind::Read } else { AccessKind::Write };
            self.m.access(self.pid, self.va + page * 4096 + line * 64, kind)?;
        }
        if timed {
            self.secs += started.elapsed().as_secs_f64();
            self.lines += n;
        }
        Ok(())
    }

    /// One mmap/fault-in/munmap churn round over a scratch region: every
    /// faulted frame is zero-filled line by line through the controller's
    /// byte store, so this is the store-side (undo + checksum) hot path.
    fn churn(&mut self, scratch_pages: u64, timed: bool) -> Result<()> {
        let started = std::time::Instant::now();
        let va = self.m.mmap(self.pid, scratch_pages * 4096, Prot::RW, MapFlags::NVM)?;
        for p in 0..scratch_pages {
            self.m.access(self.pid, va + p * 4096, AccessKind::Write)?;
        }
        self.m.munmap(self.pid, va, scratch_pages * 4096)?;
        if timed {
            self.secs += started.elapsed().as_secs_f64();
            self.lines += scratch_pages;
        }
        Ok(())
    }
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let (pages, chunks) = if harness.quick() { (4096, 6) } else { (8192, 16) };
    let chunk = pages;

    let mut flat = Side::build(false, pages)?;
    let mut legacy = Side::build(true, pages)?;

    // Untimed warm-up, then alternate timed chunks so host-side noise
    // (frequency scaling, cache warm-up) biases neither side.
    flat.chunk(chunk, false)?;
    legacy.chunk(chunk, false)?;
    for _ in 0..chunks {
        legacy.chunk(chunk, true)?;
        flat.chunk(chunk, true)?;
        legacy.churn(512, true)?;
        flat.churn(512, true)?;
    }

    // Observation equivalence first: a throughput win that changes any
    // counter is a simulation bug, not an optimisation.
    assert_eq!(flat.m.now(), legacy.m.now(), "flat and legacy clocks diverged");
    let (fr, lr) = (format!("{:?}", flat.m.report()), format!("{:?}", legacy.m.report()));
    assert_eq!(fr, lr, "flat and legacy reports diverged");
    assert_eq!(flat.lines, legacy.lines);

    let mlines_per_sec = flat.lines as f64 / flat.secs / 1e6;
    let hotpath_speedup = legacy.secs / flat.secs;

    println!("HOTPATH: steady-state controller-store throughput");
    rule(56);
    println!("{:<28} {:>12}", "Metric", "Value");
    rule(56);
    println!("{:<28} {:>12}", "pages", pages);
    println!("{:<28} {:>12}", "lines accessed", flat.lines);
    println!("{:<28} {:>12.2}", "flat Mlines/s", mlines_per_sec);
    println!("{:<28} {:>12.2}", "legacy Mlines/s", legacy.lines as f64 / legacy.secs / 1e6);
    println!("{:<28} {:>12.2}", "speedup (legacy/flat)", hotpath_speedup);
    println!("reports: byte-identical");

    harness.maybe_json_body(&format!(
        "{{\n  \"mlines_per_sec\": {mlines_per_sec:.3},\n  \
         \"hotpath_speedup\": {hotpath_speedup:.3},\n  \"lines_accessed\": {}\n}}\n",
        flat.lines
    ));
    harness.finish()
}
