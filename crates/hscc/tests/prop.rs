//! Property tests for HSCC's pool and mapping table.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use std::collections::{BTreeMap, BTreeSet};

use kindle_hscc::{DramPool, ListKind, MappingTable};
use kindle_os::{FrameAllocator, FramePools, PersistentFrameAllocator, Region};
use kindle_types::physmem::FlatMem;
use kindle_types::{Pfn, PhysAddr, Rng64, Vpn};

const SEED: u64 = 0x7e57_0004;

fn occ(n: u64) -> kindle_hscc::pool::Occupant {
    kindle_hscc::pool::Occupant { nvm: Pfn::new(5000 + n), vpn: Vpn::new(0x40000 + n), pid: 1 }
}

/// Pool conservation: every take() hands out a slot at most once per
/// refresh cycle; occupancy and list sizes always balance.
#[test]
fn pool_take_never_duplicates() {
    let mut rng = Rng64::new(SEED);
    for case in 0..128 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut pool = DramPool::new((0..16u64).map(|i| Pfn::new(100 + i)).collect());
        let mut tag = 0u64;
        for _ in 0..rng.gen_range(1, 10) {
            let takes = rng.gen_below(20);
            let dirtiness: Vec<bool> =
                (0..rng.gen_below(16)).map(|_| rng.gen_below(2) == 1).collect();
            // Interval start: classify occupied slots pseudo-randomly.
            pool.refresh(|slot, _| dirtiness.get(slot).copied().unwrap_or(false));
            let snap = pool.snapshot();
            assert_eq!(snap.free + snap.clean + snap.dirty, 16, "{ctx}");
            let mut taken = BTreeSet::new();
            for _ in 0..takes {
                match pool.take() {
                    Some((slot, prev, kind)) => {
                        assert!(
                            taken.insert(slot),
                            "{ctx}: slot {slot} taken twice in one interval"
                        );
                        match kind {
                            ListKind::Free => assert!(prev.is_none(), "{ctx}: free slot {slot}"),
                            _ => assert!(prev.is_some(), "{ctx}: occupied slot {slot}"),
                        }
                        tag += 1;
                        pool.occupy(slot, occ(tag));
                    }
                    None => {
                        assert!(taken.len() >= 16, "{ctx}: take failed with slots remaining");
                        break;
                    }
                }
            }
        }
    }
}

/// The mapping table is a partial bijection: forward and reverse stay
/// consistent under arbitrary set/clear sequences.
#[test]
fn mapping_table_bijective() {
    let mut rng = Rng64::new(SEED);
    for case in 0..32 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut mem = FlatMem::new(16 << 20);
        let mut pools = FramePools {
            dram: FrameAllocator::new("dram", Pfn::new(16), 512),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new("nvm", Pfn::new(2048), 512),
                Region { base: PhysAddr::new(0x1000), size: 0x1000 },
            ),
        };
        let table = MappingTable::new(&mut mem, &mut pools, Pfn::new(2048), 128, 16).unwrap();
        let mut fwd_model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..rng.gen_range(1, 100) {
            let nvm_off = rng.gen_below(128);
            let slot = rng.gen_below(16);
            let nvm = Pfn::new(2048 + nvm_off);
            if rng.gen_below(2) == 1 {
                let dram = Pfn::new(900 + slot);
                table.set(&mut mem, nvm, Some(dram));
                table.set_reverse(&mut mem, slot, nvm, Vpn::new(0x999));
                fwd_model.insert(nvm_off, 900 + slot);
            } else {
                table.set(&mut mem, nvm, None);
                fwd_model.remove(&nvm_off);
            }
            // Forward lookups match the model for all touched entries.
            for (&off, &dram) in &fwd_model {
                assert_eq!(
                    table.lookup(&mut mem, Pfn::new(2048 + off)),
                    Some(Pfn::new(dram)),
                    "{ctx}: nvm offset {off}"
                );
            }
            assert_eq!(
                table.lookup(&mut mem, nvm).is_some(),
                fwd_model.contains_key(&nvm_off),
                "{ctx}: nvm offset {nvm_off}"
            );
        }
    }
}
