//! Property tests for the memory controller's data and durability planes.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use std::collections::BTreeMap;

use kindle_mem::{MemConfig, MemoryController};
use kindle_types::{Cycles, MemKind, PhysAddr, Rng64};

const SEED: u64 = 0x7e57_0005;

fn mc() -> (MemoryController, u64) {
    let cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
    let nvm_base = cfg.layout.range(MemKind::Nvm).base.as_u64();
    (MemoryController::new(&cfg), nvm_base)
}

/// Arbitrary stores at arbitrary offsets/lengths always read back.
#[test]
fn stores_read_back() {
    let mut rng = Rng64::new(SEED);
    for case in 0..32 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let (mut m, _) = mc();
        let mut model = BTreeMap::<u64, u8>::new();
        for _ in 0..rng.gen_range(1, 20) {
            let off = rng.gen_below(8 << 20);
            let data: Vec<u8> = (0..rng.gen_range(1, 200)).map(|_| rng.next_u64() as u8).collect();
            m.store_bytes(PhysAddr::new(off), &data, Cycles::ZERO);
            for (i, b) in data.iter().enumerate() {
                model.insert(off + i as u64, *b);
            }
        }
        for (&addr, &expect) in &model {
            let mut buf = [0u8; 1];
            m.load_bytes(PhysAddr::new(addr), &mut buf);
            assert_eq!(buf[0], expect, "{ctx}: byte at {addr:#x}");
        }
    }
}

/// Crash semantics: committed NVM lines keep their committed value,
/// uncommitted lines revert to it, DRAM is wiped — for arbitrary
/// interleavings of stores and commits.
#[test]
fn crash_durability_is_exact() {
    let mut rng = Rng64::new(SEED);
    for case in 0..32 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let (mut m, nvm_base) = mc();
        // Last committed value per NVM line (one byte used).
        let mut durable = BTreeMap::<u64, u8>::new();
        for _ in 0..rng.gen_range(1, 120) {
            let line = rng.gen_below(256);
            let value = rng.next_u64() as u8;
            let pa = PhysAddr::new(nvm_base + line * 64);
            m.store_bytes(pa, &[value], Cycles::ZERO);
            if rng.gen_below(2) == 1 {
                m.commit_line(pa);
                durable.insert(line, value);
            }
            // DRAM side store too.
            m.store_bytes(PhysAddr::new(line * 64), &[value], Cycles::ZERO);
        }
        m.crash();
        for line in 0..256u64 {
            let mut buf = [0u8; 1];
            m.load_bytes(PhysAddr::new(nvm_base + line * 64), &mut buf);
            let want = durable.get(&line).copied().unwrap_or(0);
            assert_eq!(buf[0], want, "{ctx}: nvm line {line} after crash");
            m.load_bytes(PhysAddr::new(line * 64), &mut buf);
            assert_eq!(buf[0], 0, "{ctx}: dram line {line} must be wiped");
        }
    }
}

/// The e820 map classifies every address into exactly one range.
#[test]
fn layout_dispatch_total() {
    let mut rng = Rng64::new(SEED);
    let (m, nvm_base) = mc();
    for case in 0..256 {
        let addr = rng.gen_below(32 << 20);
        let want = if addr < nvm_base { MemKind::Dram } else { MemKind::Nvm };
        assert_eq!(
            m.kind_of(PhysAddr::new(addr)).unwrap(),
            want,
            "case {case}, seed {SEED:#x}: address {addr:#x}"
        );
    }
}
