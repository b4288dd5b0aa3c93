//! Property tests for the persistence structures.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use kindle_cpu::RegisterFile;
use kindle_os::{MetaRecord, Region, Vma};
use kindle_persist::{RedoLog, SavedContext, SavedStateArea};
use kindle_types::physmem::FlatMem;
use kindle_types::{MemKind, Pfn, PhysAddr, Prot, Rng64, VirtAddr, Vpn};

const SEED: u64 = 0x7e57_0007;

/// One redo-log record of a uniformly chosen variant.
fn arb_record(rng: &mut Rng64) -> MetaRecord {
    let pid = rng.gen_range(1, 100) as u32;
    let first = rng.gen_below(1000);
    let start = VirtAddr::new(first * 4096);
    let end = VirtAddr::new((first + rng.gen_range(1, 100)) * 4096);
    let vpn = Vpn::new(rng.gen_below(1 << 30));
    let pfn = Pfn::new(rng.gen_below(1 << 20));
    match rng.gen_below(6) {
        0 => MetaRecord::ProcessCreate { pid },
        1 => MetaRecord::VmaAdd { pid, start, end, prot: Prot::RW, kind: MemKind::Nvm },
        2 => MetaRecord::VmaRemove { pid, start, end },
        3 => MetaRecord::PageMapped { pid, vpn, pfn, kind: MemKind::Dram },
        4 => MetaRecord::PageUnmapped { pid, vpn, pfn },
        _ => MetaRecord::RegsUpdated { pid },
    }
}

/// Up to `max - 1` random `(vpn, pfn)` pairs.
fn arb_pairs(rng: &mut Rng64, max: u64) -> Vec<(Vpn, Pfn)> {
    (0..rng.gen_below(max))
        .map(|_| (Vpn::new(rng.gen_below(1 << 30)), Pfn::new(rng.gen_below(1 << 20))))
        .collect()
}

/// Any sequence of records reads back exactly, in order.
#[test]
fn redo_log_round_trips() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let records: Vec<MetaRecord> =
            (0..rng.gen_below(60)).map(|_| arb_record(&mut rng)).collect();
        let mut mem = FlatMem::new(1 << 20);
        let log = RedoLog::new(Region { base: PhysAddr::new(0x8000), size: 64 * 1024 });
        for r in &records {
            log.append(&mut mem, r).unwrap();
        }
        assert_eq!(log.read_all(&mut mem), records, "{ctx}");
        log.truncate(&mut mem);
        assert!(log.is_empty(&mut mem), "{ctx}");
    }
}

/// Diff-updating the mapping list twice with arbitrary lists always
/// converges to the second list, and unchanged prefixes write nothing.
#[test]
fn mapping_list_diff_converges() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let f = arb_pairs(&mut rng, 80);
        // The second list shares a random prefix with the first.
        let keep = rng.gen_below(f.len() as u64 + 1) as usize;
        let mut s = f[..keep].to_vec();
        s.extend(arb_pairs(&mut rng, 40));
        let mut mem = FlatMem::new(8 << 20);
        let area = SavedStateArea::new(Region { base: PhysAddr::new(0x10000), size: 4 << 20 }, 4);
        let i = area.find_or_alloc(&mut mem, 1).unwrap();
        let slot = area.slot(i);
        let cap = area.list_capacity();
        slot.update_mapping_list(&mut mem, 0, &f, 1, cap).unwrap();
        assert_eq!(slot.read_mapping_list(&mut mem, 0), f, "{ctx}");
        let written = slot.update_mapping_list(&mut mem, 0, &s, 1, cap).unwrap();
        assert_eq!(slot.read_mapping_list(&mut mem, 0), s, "{ctx}");
        // Writes only happen where the lists differ (or beyond f's length).
        let unchanged = f.iter().zip(&s).take_while(|(a, b)| a == b).count() as u64;
        assert!(written <= s.len() as u64 - unchanged.min(s.len() as u64), "{ctx}");
        // Idempotence.
        assert_eq!(slot.update_mapping_list(&mut mem, 0, &s, 1, cap).unwrap(), 0, "{ctx}");
    }
}

/// Contexts with arbitrary registers and VMA tables round-trip through
/// either copy, independently.
#[test]
fn context_round_trips() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut mem = FlatMem::new(8 << 20);
        let area = SavedStateArea::new(Region { base: PhysAddr::new(0x10000), size: 4 << 20 }, 4);
        let i = area.find_or_alloc(&mut mem, 9).unwrap();
        let slot = area.slot(i);
        let mut regs = RegisterFile::new();
        regs.rip = rng.next_u64();
        regs.gpr[0] = rng.next_u64();
        // Build disjoint VMAs by stacking.
        let mut next = 0x100u64;
        let mut vmas = Vec::new();
        for _ in 0..rng.gen_below(16) {
            let start = next + rng.gen_below(64);
            let len = rng.gen_range(1, 32);
            vmas.push(Vma {
                start: VirtAddr::new(start * 4096),
                end: VirtAddr::new((start + len) * 4096),
                prot: Prot::RW,
                kind: MemKind::Nvm,
            });
            next = start + len;
        }
        let saved = SavedContext {
            regs,
            root: Pfn::new(rng.gen_below(1 << 20)),
            mapped_pages: vmas.len() as u64,
            vmas,
        };
        let copy = rng.gen_below(2);
        slot.write_context(&mut mem, copy, &saved).unwrap();
        assert_eq!(slot.read_context(&mut mem, copy), saved, "{ctx}: copy {copy}");
    }
}
