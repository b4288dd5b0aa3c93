//! Property tests: VMA list, frame allocator and page-table invariants
//! checked against simple reference models.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use kindle_os::{
    AddressSpace, FrameAllocator, FramePools, KernelCosts, PersistentFrameAllocator, PtMode,
    Region, Vma, VmaList,
};
use kindle_types::physmem::FlatMem;
use kindle_types::{MemKind, Pfn, PhysAddr, Prot, Rng64, VirtAddr, PAGE_SIZE};

const P: u64 = PAGE_SIZE as u64;
const SEED: u64 = 0x7e57_0006;

fn coin(rng: &mut Rng64) -> bool {
    rng.gen_below(2) == 1
}

/// The VMA list always stays sorted and non-overlapping, and `find`
/// agrees with a per-page reference model under random inserts and
/// removes of `[start_page, start_page + pages)`.
#[test]
fn vma_list_matches_page_model() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut list = VmaList::new();
        let mut model: BTreeSet<u64> = BTreeSet::new(); // mapped page numbers
        for _ in 0..rng.gen_below(40) {
            let insert = coin(&mut rng);
            let start_page = rng.gen_below(64);
            let pages = rng.gen_range(1, 16);
            let (start, end) =
                (VirtAddr::new(start_page * P), VirtAddr::new((start_page + pages) * P));
            if insert {
                let vma = Vma { start, end, prot: Prot::RW, kind: MemKind::Dram };
                if list.insert(vma).is_ok() {
                    model.extend(start_page..start_page + pages);
                }
            } else {
                list.remove(start, end);
                for p in start_page..start_page + pages {
                    model.remove(&p);
                }
            }
            // Invariant: sorted & disjoint.
            let vmas: Vec<&Vma> = list.iter().collect();
            for w in vmas.windows(2) {
                assert!(w[0].end <= w[1].start, "{ctx}: vmas overlap or unsorted");
            }
            // find() agrees with the model on every page.
            for p in 0..90u64 {
                assert_eq!(
                    list.find(VirtAddr::new(p * P)).is_some(),
                    model.contains(&p),
                    "{ctx}: page {p} disagreement"
                );
            }
            assert_eq!(list.total_bytes(), model.len() as u64 * P, "{ctx}");
        }
    }
}

/// The frame allocator never double-allocates and its counters always
/// balance, under arbitrary alloc/free interleavings.
#[test]
fn frame_allocator_never_double_allocates() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut a = FrameAllocator::new("dram", Pfn::new(100), 64);
        let mut live: Vec<Pfn> = Vec::new();
        for _ in 0..rng.gen_range(1, 200) {
            if coin(&mut rng) {
                match a.alloc() {
                    Ok(f) => {
                        assert!(!live.contains(&f), "{ctx}: frame {f} handed out twice");
                        assert!(a.contains(f), "{ctx}: frame {f}");
                        live.push(f);
                    }
                    Err(_) => assert_eq!(live.len(), 64, "{ctx}: spurious OOM"),
                }
            } else if let Some(f) = live.pop() {
                a.free(f);
            }
            assert_eq!(a.used(), live.len() as u64, "{ctx}");
            assert_eq!(a.available(), 64 - live.len() as u64, "{ctx}");
        }
    }
}

/// Persistent-allocator recovery reproduces exactly the live set.
#[test]
fn persistent_allocator_recovery_is_exact() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0x4000), size: 0x1000 };
        let mut a =
            PersistentFrameAllocator::new(FrameAllocator::new("nvm", Pfn::new(32), 64), region);
        let mut live: BTreeSet<Pfn> = BTreeSet::new();
        for _ in 0..rng.gen_range(1, 120) {
            if coin(&mut rng) {
                if let Ok(f) = a.alloc(&mut mem) {
                    live.insert(f);
                }
            } else if let Some(f) = live.pop_first() {
                a.free(&mut mem, f);
            }
        }
        // "Reboot" and recover.
        let mut b =
            PersistentFrameAllocator::new(FrameAllocator::new("nvm", Pfn::new(32), 64), region);
        b.recover(&mut mem);
        assert_eq!(b.used(), live.len() as u64, "{ctx}");
        for f in (32..96u64).map(Pfn::new) {
            assert_eq!(b.is_allocated(f), live.contains(&f), "{ctx}: frame {f}");
        }
    }
}

/// Page-table map/unmap agrees with a map model: translate returns
/// exactly the mapped frames, for random sparse layouts in both modes.
#[test]
fn page_table_matches_model() {
    let mut rng = Rng64::new(SEED);
    for case in 0..24 {
        let persistent = coin(&mut rng);
        let ctx = format!("case {case}, seed {SEED:#x}, persistent {persistent}");
        let mut mem = FlatMem::new(24 << 20);
        let mut pools = FramePools {
            dram: FrameAllocator::new("dram", Pfn::new(16), 2048),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new("nvm", Pfn::new(3000), 2048),
                Region { base: PhysAddr::new(0x1000), size: 0x1000 },
            ),
        };
        let log = Region { base: PhysAddr::new(0x2000), size: 0x2000 };
        let costs = KernelCosts::for_test();
        let mode = if persistent { PtMode::Persistent } else { PtMode::Rebuild };
        let mut asp = AddressSpace::new(&mut mem, &mut pools, mode, log).unwrap();

        // vpn -> data frame (data frames faked from a disjoint range).
        let mut model: BTreeMap<u64, Pfn> = BTreeMap::new();
        for i in 0..rng.gen_range(1, 50) {
            let vpn = rng.gen_below(1 << 20) | 0x100000; // keep away from null
            let va = VirtAddr::new(vpn * P);
            let frame = Pfn::new(0x200_0000 + i);
            let mapped = asp.map(&mut mem, &mut pools, &costs, va, frame, 0);
            if let Entry::Vacant(slot) = model.entry(vpn) {
                mapped.unwrap();
                slot.insert(frame);
            } else {
                assert!(mapped.is_err(), "{ctx}: vpn {vpn:#x} mapped twice");
            }
        }
        assert_eq!(asp.mapped_pages(), model.len() as u64, "{ctx}");
        for (&vpn, &frame) in &model {
            let pte = asp.translate(&mut mem, VirtAddr::new(vpn * P));
            assert_eq!(pte.map(|p| p.pfn()), Some(frame), "{ctx}: vpn {vpn:#x}");
        }
        // Unmap half; the rest must stay intact and tables reclaim cleanly.
        let keys: Vec<u64> = model.keys().copied().collect();
        for &vpn in keys.iter().step_by(2) {
            let pte = asp.unmap(&mut mem, &mut pools, &costs, VirtAddr::new(vpn * P)).unwrap();
            assert_eq!(pte.pfn(), model.remove(&vpn).unwrap(), "{ctx}: vpn {vpn:#x}");
        }
        for (&vpn, &frame) in &model {
            let pte = asp.translate(&mut mem, VirtAddr::new(vpn * P));
            assert_eq!(pte.map(|p| p.pfn()), Some(frame), "{ctx}: survivor vpn {vpn:#x}");
        }
        // for_each_leaf enumerates exactly the model.
        let mut seen = BTreeMap::new();
        asp.for_each_leaf(&mut mem, |_, vpn, pte, _| {
            seen.insert(vpn.as_u64(), pte.pfn());
        });
        assert_eq!(seen, model, "{ctx}");
    }
}
