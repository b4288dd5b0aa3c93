//! Hot-path throughput of the memory controller's flat stores.
//!
//! Drives a deterministic workload through `Machine::access` on one
//! machine whose controller keeps its page image in the pfn-indexed page
//! arena, its checksums in the `SumTable`-backed store and its undo
//! snapshots in the epoch-tagged undo table. Two alternating phases cover
//! both halves of the controller's hot path:
//!
//! * a *translation* phase — a random read/write mix over a working set
//!   sized well past the TLB, so most accesses walk the NVM-resident
//!   page tables (Persistent mode) through the controller's byte loads;
//! * a *churn* phase — mmap/fault-in/munmap rounds whose zero-fill
//!   stores hit the undo table and (with the media-fault model armed)
//!   the checksum table on every line.
//!
//! An untimed warm-up chunk runs first; everything after it is timed.
//!
//! Reported rows:
//!
//! * `mlines_per_sec` — throughput in million simulated line accesses
//!   per host second (wall-clock, so only floor-gated by `bench_diff`;
//!   the repo benchmark's `hotpath` workload measures speed);
//! * `lines_accessed` — timed line count (workload-shape pin);
//! * `final_cycles` and `nvm_writes` — the simulated clock and the NVM
//!   line writes at the end of the run, pinned exactly so a speed change
//!   cannot come from simulating less.

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

/// Pages faulted in and unmapped again by each churn round.
const CHURN_PAGES: u64 = 512;

/// The benchmarked machine plus the workload stream's state.
struct Stream {
    m: Machine,
    pid: u32,
    va: VirtAddr,
    pages: u64,
    rng: u64,
}

impl Stream {
    fn build(pages: u64) -> Result<Stream> {
        let mut faults = mem::MediaFaultConfig::with_seed(5);
        faults.correction_entries = STUCK_CORRECTION_ENTRIES;
        let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
        cfg.mem.faults = Some(faults);
        // Keep the fixed-cost part of the per-access simulation (way
        // scans) small and the translation traffic high: a lean TLB means
        // nearly every access walks the NVM-resident page tables, which
        // is exactly the controller-store traffic this bench measures.
        cfg.tlb.l1 = tlb::TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 };
        cfg.tlb.l2 = tlb::TlbConfig { entries: 128, assoc: 8, hit_cycles: 7 };
        cfg.caches.l1.assoc = 2;
        cfg.caches.l2.assoc = 2;
        cfg.caches.llc.assoc = 4;
        let mut m = Machine::new(cfg)?;

        let pid = m.spawn_process()?;
        let va = m.mmap(pid, pages * 4096, Prot::RW, MapFlags::NVM)?;
        // Fault every page in up front so the timed region is
        // steady-state translation + data traffic, not fault handling.
        for p in 0..pages {
            m.access(pid, va + p * 4096, AccessKind::Write)?;
        }
        Ok(Stream { m, pid, va, pages, rng: 0x0dd0_11ce_5eed })
    }

    /// Runs `n` accesses of the deterministic stream.
    fn chunk(&mut self, n: u64) -> Result<()> {
        for _ in 0..n {
            let r = mix(&mut self.rng);
            let page = (r >> 32) % self.pages;
            let line = (r >> 16) & 63;
            let kind = if r & 3 == 0 { AccessKind::Read } else { AccessKind::Write };
            self.m.access(self.pid, self.va + page * 4096 + line * 64, kind)?;
        }
        Ok(())
    }

    /// One mmap/fault-in/munmap churn round over a scratch region: every
    /// faulted frame is zero-filled line by line through the controller's
    /// byte store, so this is the store-side (undo + checksum) hot path.
    fn churn(&mut self) -> Result<()> {
        let va = self.m.mmap(self.pid, CHURN_PAGES * 4096, Prot::RW, MapFlags::NVM)?;
        for p in 0..CHURN_PAGES {
            self.m.access(self.pid, va + p * 4096, AccessKind::Write)?;
        }
        self.m.munmap(self.pid, va, CHURN_PAGES * 4096)
    }
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let (pages, chunks) = if harness.quick() { (4096, 6) } else { (8192, 16) };
    let chunk = pages;

    let mut s = Stream::build(pages)?;
    s.chunk(chunk)?; // untimed warm-up
    let started = std::time::Instant::now();
    for _ in 0..chunks {
        s.chunk(chunk)?;
        s.churn()?;
    }
    let secs = started.elapsed().as_secs_f64();

    let lines = chunks * (chunk + CHURN_PAGES);
    let mlines_per_sec = lines as f64 / secs / 1e6;
    let final_cycles = s.m.now().as_u64();
    let nvm_writes = s.m.report().mem.nvm.writes;

    println!("HOTPATH: steady-state controller-store throughput");
    rule(56);
    println!("{:<28} {:>12}", "Metric", "Value");
    rule(56);
    println!("{:<28} {:>12}", "pages", pages);
    println!("{:<28} {:>12}", "lines accessed", lines);
    println!("{:<28} {:>12.2}", "Mlines/s", mlines_per_sec);
    println!("{:<28} {:>12}", "final cycles", final_cycles);
    println!("{:<28} {:>12}", "NVM writes", nvm_writes);

    harness.maybe_json_body(&format!(
        "{{\n  \"mlines_per_sec\": {mlines_per_sec:.3},\n  \"lines_accessed\": {lines},\n  \
         \"final_cycles\": {final_cycles},\n  \"nvm_writes\": {nvm_writes}\n}}\n"
    ));
    harness.finish()
}
