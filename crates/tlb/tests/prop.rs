//! Property tests: TLB residency model and walker agreement.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use std::collections::{BTreeMap, BTreeSet};

use kindle_tlb::{pte_addr, PageWalker, Tlb, TlbConfig, TlbEntry, TwoLevelTlb, TwoLevelTlbConfig};
use kindle_types::physmem::FlatMem;
use kindle_types::{MemKind, Pfn, PhysMem, Pte, Rng64, VirtAddr, Vpn, PAGE_SIZE};

const SEED: u64 = 0x7e57_0002;

/// A vector of `len.0..len.1` values, each drawn uniformly below `bound`.
fn vec_below(rng: &mut Rng64, len: (u64, u64), bound: u64) -> Vec<u64> {
    let n = rng.gen_range(len.0, len.1);
    (0..n).map(|_| rng.gen_below(bound)).collect()
}

/// Occupancy never exceeds capacity; entries leave only by eviction or
/// invalidation; an installed entry is immediately findable.
#[test]
fn tlb_residency_model() {
    let mut rng = Rng64::new(SEED);
    for case in 0..128 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let vpns = vec_below(&mut rng, (1, 200), 64);
        let mut t = Tlb::new(TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 });
        let mut resident: BTreeMap<u64, u64> = BTreeMap::new(); // vpn -> pfn
        for (i, &v) in vpns.iter().enumerate() {
            let e = TlbEntry::new(Vpn::new(v), Pfn::new(1000 + i as u64), true, MemKind::Dram);
            if let Some(ev) = t.insert(e) {
                let removed = resident.remove(&ev.vpn.as_u64());
                assert!(removed.is_some(), "{ctx}: evicted entry was not resident");
            }
            resident.insert(v, 1000 + i as u64);
            assert!(t.occupancy() <= 16, "{ctx}");
            assert_eq!(t.occupancy(), resident.len(), "{ctx}");
            assert_eq!(t.peek(Vpn::new(v)).map(|e| e.pfn.as_u64()), Some(1000 + i as u64), "{ctx}");
        }
        // Everything the model holds must be found.
        for (&v, &p) in &resident {
            assert_eq!(t.lookup(Vpn::new(v)).map(|e| e.pfn.as_u64()), Some(p), "{ctx}");
        }
    }
}

/// The two-level stack never loses an entry silently: any install's
/// return value accounts for the only way entries disappear (other than
/// invalidate/flush). After installing `vpns`, every resident vpn is
/// looked up in ascending or descending order.
fn check_two_level_conservation(vpns: &[u64], descending: bool, ctx: &str) {
    let cfg = TwoLevelTlbConfig {
        l1: TlbConfig { entries: 8, assoc: 2, hit_cycles: 1 },
        l2: TlbConfig { entries: 32, assoc: 4, hit_cycles: 7 },
    };
    let mut t = TwoLevelTlb::new(&cfg);
    let mut resident: BTreeSet<u64> = BTreeSet::new();
    for &v in vpns {
        let e = TlbEntry::new(Vpn::new(v), Pfn::new(v + 7), true, MemKind::Nvm);
        if let Some(out) = t.install(e) {
            resident.remove(&out.vpn.as_u64());
        }
        resident.insert(v);
        assert_eq!(t.occupancy(), resident.len(), "{ctx}: after installing vpn {v}");
    }
    // Lookups promote L2 hits into L1, which may cascade an entry out of
    // the hierarchy; any such drop must be reported, never silent.
    let mut keys: Vec<u64> = resident.iter().copied().collect();
    if descending {
        keys.reverse();
    }
    for v in keys {
        if !resident.contains(&v) {
            continue; // dropped by an earlier promotion cascade
        }
        let (_, hit, dropped) = t.lookup(Vpn::new(v));
        assert!(hit.is_some(), "{ctx}: resident vpn {v} not found");
        if let Some(out) = dropped {
            let removed = resident.remove(&out.vpn.as_u64());
            assert!(removed, "{ctx}: dropped entry {} was not resident", out.vpn.as_u64());
        }
        assert_eq!(t.occupancy(), resident.len(), "{ctx}: after looking up vpn {v}");
    }
}

#[test]
fn two_level_conservation() {
    let mut rng = Rng64::new(SEED);
    for case in 0..128 {
        let vpns = vec_below(&mut rng, (1, 300), 4096);
        for descending in [false, true] {
            let ctx = format!("case {case}, seed {SEED:#x}, descending {descending}");
            check_two_level_conservation(&vpns, descending, &ctx);
        }
    }
}

/// A shrunk input once recorded as failing `two_level_conservation` when
/// its resident set was looked up in hash-map order; both sorted orders
/// must hold.
#[test]
fn two_level_conservation_recorded_input() {
    let vpns = [3580, 632, 324, 3512, 620, 3404, 1412];
    check_two_level_conservation(&vpns, false, "recorded input, ascending");
    check_two_level_conservation(&vpns, true, "recorded input, descending");
}

/// The hardware walker agrees with a software model for arbitrary 4-level
/// layouts built from random virtual pages.
#[test]
fn walker_matches_model() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let vpns = vec_below(&mut rng, (1, 24), 1 << 36);
        let mut mem = FlatMem::new(512 * PAGE_SIZE);
        let root = Pfn::new(0);
        let mut next_table = 1u64;
        let mut model: BTreeMap<u64, Pfn> = BTreeMap::new();
        for (i, &vpn) in vpns.iter().enumerate() {
            let va = VirtAddr::new(vpn << 12);
            let leaf = Pfn::new(0x4_0000 + i as u64);
            // Software build: walk levels 4..2, allocating tables.
            let mut table = root;
            for level in (2..=4u8).rev() {
                let pa = pte_addr(table, va, level);
                let pte = Pte::from_bits(mem.read_u64(pa));
                table = if pte.is_present() {
                    pte.pfn()
                } else {
                    let t = Pfn::new(next_table);
                    next_table += 1;
                    mem.write_u64(pa, Pte::new(t, Pte::WRITABLE).bits());
                    t
                };
            }
            mem.write_u64(pte_addr(table, va, 1), Pte::new(leaf, Pte::WRITABLE).bits());
            model.insert(vpn, leaf);
        }
        let mut w = PageWalker::new();
        for (&vpn, &leaf) in &model {
            let out = w.walk(&mut mem, root, VirtAddr::new(vpn << 12)).unwrap();
            assert_eq!(out.pte.pfn(), leaf, "{ctx}: vpn {vpn:#x}");
        }
        // A vpn never inserted must fault (pick one outside the set).
        let missing = (1u64 << 36) + 1;
        assert!(w.walk(&mut mem, root, VirtAddr::new(missing << 12)).is_err(), "{ctx}");
    }
}
