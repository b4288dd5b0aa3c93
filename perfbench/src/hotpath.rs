//! `hotpath`: the flat-store side of the `hotpath --quick` bench binary.
//!
//! Set-up builds the binary's machine (small machine, persistent page
//! tables, media-fault model armed, lean TLBs and low-associativity
//! caches), maps 4,096 NVM pages, faults every page in and snapshots the
//! machine. One repetition restores that snapshot and runs the binary's
//! access stream: one warm-up chunk, then six rounds of a 4,096-access
//! translation chunk (random read/write mix over the working set, so most
//! accesses walk the NVM-resident page tables) and a 512-page
//! mmap/fault-in/munmap churn. The seed drives the access stream.

use kindle_core::mem::MediaFaultConfig;
use kindle_core::os::PtMode;
use kindle_core::sim::{Machine, MachineConfig, MachineSnapshot};
use kindle_core::tlb::TlbConfig;
use kindle_core::types::{AccessKind, MapFlags, Prot, VirtAddr};

use crate::probe::{Layer, Probe};
use crate::Fail;

/// Working-set pages (the binary's quick size).
const PAGES: u64 = 4096;
/// Translation chunks after the warm-up chunk.
const CHUNKS: u64 = 6;
/// Pages mapped, faulted in and unmapped per churn round.
const CHURN_PAGES: u64 = 512;
/// Lines the binary times per side (`lines_accessed` in `bench-golden.txt`).
const TIMED_LINES: u64 = CHUNKS * (PAGES + CHURN_PAGES);
/// Media-fault seed and ECP entries per line, as in the binary.
const FAULT_SEED: u64 = 5;
const CORRECTION_ENTRIES: u32 = 2;

/// Splitmix64 step: the access stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `hotpath` workload.
pub struct Hotpath {
    seed: u64,
    snap: MachineSnapshot,
    pid: u32,
    va: VirtAddr,
    /// Final clock and report of the warm-up repetition.
    reference: Option<(u64, String)>,
}

fn config() -> MachineConfig {
    let mut faults = MediaFaultConfig::with_seed(FAULT_SEED);
    faults.correction_entries = CORRECTION_ENTRIES;
    let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
    cfg.mem.faults = Some(faults);
    cfg.tlb.l1 = TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 };
    cfg.tlb.l2 = TlbConfig { entries: 128, assoc: 8, hit_cycles: 7 };
    cfg.caches.l1.assoc = 2;
    cfg.caches.l2.assoc = 2;
    cfg.caches.llc.assoc = 4;
    cfg
}

impl Hotpath {
    /// Builds the pre-faulted machine and snapshots it.
    pub fn setup(seed: u64) -> Result<Self, Fail> {
        let mut m = Machine::new(config())?;
        let pid = m.spawn_process()?;
        let va = m.mmap(pid, PAGES * 4096, Prot::RW, MapFlags::NVM)?;
        for p in 0..PAGES {
            m.access(pid, va + p * 4096, AccessKind::Write)?;
        }
        Ok(Hotpath { seed, snap: m.snapshot(), pid, va, reference: None })
    }

    /// Runs the stream once on a fresh copy of the machine; returns the
    /// line accesses made.
    pub fn rep(&mut self, probe: &mut Probe) -> Result<u64, Fail> {
        let mut m = probe.span(Layer::Fork, || Machine::restore(&self.snap));
        let mut rng = self.seed;
        let mut lines = self.chunk(probe, &mut m, &mut rng)?;
        let warm = lines;
        for _ in 0..CHUNKS {
            lines += self.chunk(probe, &mut m, &mut rng)?;
            lines += self.churn(probe, &mut m)?;
        }
        if lines - warm != TIMED_LINES {
            return Err(Fail::Wrong(format!("{} timed lines, want {TIMED_LINES}", lines - warm)));
        }
        probe.machine_done(&m);
        let outcome = (m.now().as_u64(), format!("{:?}", m.report()));
        match &self.reference {
            None => self.reference = Some(outcome),
            Some(r) if *r == outcome => {}
            Some(_) => return Err(Fail::Wrong("report diverged from the warm-up".into())),
        }
        Ok(lines)
    }

    /// One translation chunk: `PAGES` accesses, three writes in four.
    fn chunk(&self, probe: &mut Probe, m: &mut Machine, rng: &mut u64) -> Result<u64, Fail> {
        let (pid, va) = (self.pid, self.va);
        probe.access(m, PAGES, |m| {
            (0..PAGES).try_for_each(|_| {
                let r = mix(rng);
                let page = (r >> 32) % PAGES;
                let line = (r >> 16) & 63;
                let kind = if r & 3 == 0 { AccessKind::Read } else { AccessKind::Write };
                m.access(pid, va + page * 4096 + line * 64, kind).map(drop)
            })
        })?;
        Ok(PAGES)
    }

    /// One churn round: map, fault in and unmap `CHURN_PAGES` NVM pages.
    fn churn(&self, probe: &mut Probe, m: &mut Machine) -> Result<u64, Fail> {
        let (pid, len) = (self.pid, CHURN_PAGES * 4096);
        let va = probe.span(Layer::Map, || m.mmap(pid, len, Prot::RW, MapFlags::NVM))?;
        probe.access(m, CHURN_PAGES, |m| {
            (0..CHURN_PAGES)
                .try_for_each(|p| m.access(pid, va + p * 4096, AccessKind::Write).map(drop))
        })?;
        probe.span(Layer::Map, || m.munmap(pid, va, len))?;
        Ok(CHURN_PAGES)
    }
}
