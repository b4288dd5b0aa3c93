//! Property tests: the cache hierarchy against reference models.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use std::collections::BTreeSet;

use kindle_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig};
use kindle_types::{AccessKind, PhysAddr, Rng64};

const SEED: u64 = 0x7e57_0003;

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig { name: "T".into(), size_bytes: 8 * 64, assoc: 2, hit_cycles: 1 })
}

/// Occupancy never exceeds capacity, and a line reported evicted was
/// genuinely resident before.
#[test]
fn cache_capacity_and_eviction_sound() {
    let mut rng = Rng64::new(SEED);
    for case in 0..128 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut c = tiny_cache();
        let mut resident: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.gen_range(1, 200) {
            let l = rng.gen_below(64);
            let pa = PhysAddr::new(l * 64);
            if !c.lookup(pa, AccessKind::Read) {
                if let Some(ev) = c.insert(pa, false) {
                    let e = ev.line.as_u64() / 64;
                    assert!(resident.remove(&e), "{ctx}: evicted non-resident line {e}");
                }
                resident.insert(l);
            }
            assert!(c.occupancy() <= 8, "{ctx}");
            assert_eq!(c.occupancy(), resident.len(), "{ctx}");
            // Every line the model says is resident must probe true.
            for &r in &resident {
                assert!(c.probe(PhysAddr::new(r * 64)), "{ctx}: lost line {r}");
            }
        }
    }
}

/// After writeback_all, no dirty lines remain anywhere, and the set of
/// written-back lines equals the set of written-but-not-evicted lines.
#[test]
fn writeback_all_is_complete() {
    let mut rng = Rng64::new(SEED);
    for case in 0..128 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut c = tiny_cache();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.gen_range(1, 150) {
            let l = rng.gen_below(64);
            let write = rng.gen_below(2) == 1;
            let pa = PhysAddr::new(l * 64);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            // lookup() on a miss does not set dirty; insert() does.
            if !c.lookup(pa, kind) {
                if let Some(ev) = c.insert(pa, write) {
                    dirty.remove(&(ev.line.as_u64() / 64));
                }
            }
            if write {
                dirty.insert(l);
            }
        }
        let mut wb: Vec<u64> = c.writeback_all().iter().map(|p| p.as_u64() / 64).collect();
        wb.sort_unstable();
        let expect: Vec<u64> = dirty.into_iter().collect();
        assert_eq!(wb, expect, "{ctx}");
        assert!(c.writeback_all().is_empty(), "{ctx}: second flush must be empty");
    }
}

/// Hierarchy: a line is always found right after being accessed, and the
/// repeated access never reports a fill.
#[test]
fn hierarchy_rehit_after_access() {
    let mut rng = Rng64::new(SEED);
    for case in 0..256 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let pa = PhysAddr::new(rng.gen_below(1 << 24)).line_base();
        h.access(pa, AccessKind::Read);
        let again = h.access(pa, AccessKind::Read);
        assert!(!again.needs_fill, "{ctx}");
        assert!(!again.llc_miss, "{ctx}");
    }
}

/// Dirty data is never silently lost: every dirty line either leaves via
/// an eviction writeback or is still flushable at the end.
#[test]
fn hierarchy_conserves_dirty_lines() {
    let mut rng = Rng64::new(SEED);
    for case in 0..32 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let mut written: BTreeSet<u64> = BTreeSet::new();
        let mut written_back: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.gen_range(1, 400) {
            let l = rng.gen_below(40_000);
            let res = h.access(PhysAddr::new(l * 64), AccessKind::Write);
            written.insert(l);
            for wb in res.writebacks.iter() {
                written_back.insert(wb.as_u64() / 64);
            }
        }
        for pa in h.writeback_all() {
            written_back.insert(pa.as_u64() / 64);
        }
        let lost: Vec<&u64> = written.difference(&written_back).collect();
        assert!(lost.is_empty(), "{ctx}: dirty lines vanished: {lost:?}");
    }
}
