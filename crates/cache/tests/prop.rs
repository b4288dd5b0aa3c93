//! Property tests — need a vendored `proptest`; enable with `--features proptest`.
#![cfg(feature = "proptest")]

//! Property tests: the cache hierarchy against reference models.

use std::collections::HashSet;

use proptest::prelude::*;

use kindle_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig};
use kindle_types::{AccessKind, PhysAddr};

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig { name: "T".into(), size_bytes: 8 * 64, assoc: 2, hit_cycles: 1 })
}

proptest! {
    /// Occupancy never exceeds capacity, and a line reported evicted was
    /// genuinely resident before.
    #[test]
    fn cache_capacity_and_eviction_sound(lines in prop::collection::vec(0u64..64, 1..200)) {
        let mut c = tiny_cache();
        let mut resident: HashSet<u64> = HashSet::new();
        for l in lines {
            let pa = PhysAddr::new(l * 64);
            if !c.lookup(pa, AccessKind::Read) {
                if let Some(ev) = c.insert(pa, false) {
                    let e = ev.line.as_u64() / 64;
                    prop_assert!(resident.remove(&e), "evicted non-resident line {e}");
                }
                resident.insert(l);
            }
            prop_assert!(c.occupancy() <= 8);
            prop_assert_eq!(c.occupancy(), resident.len());
            // Every line the model says is resident must probe true.
            for &r in &resident {
                prop_assert!(c.probe(PhysAddr::new(r * 64)), "lost line {r}");
            }
        }
    }

    /// After writeback_all, no dirty lines remain anywhere, and the set of
    /// written-back lines equals the set of written-but-not-evicted lines.
    #[test]
    fn writeback_all_is_complete(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..150)) {
        let mut c = tiny_cache();
        let mut dirty: HashSet<u64> = HashSet::new();
        for (l, write) in ops {
            let pa = PhysAddr::new(l * 64);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            if !c.lookup(pa, kind) {
                if let Some(ev) = c.insert(pa, write) {
                    dirty.remove(&(ev.line.as_u64() / 64));
                } else if write {
                    // lookup() on a miss does not set dirty; insert did.
                }
            }
            if write {
                dirty.insert(l);
            }
        }
        let mut wb: Vec<u64> = c.writeback_all().iter().map(|p| p.as_u64() / 64).collect();
        wb.sort_unstable();
        let mut expect: Vec<u64> = dirty.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(wb, expect);
        prop_assert!(c.writeback_all().is_empty(), "second flush must be empty");
    }

    /// Hierarchy: a line is always found after being accessed (until enough
    /// conflicting traffic), and repeated accesses never report fills.
    #[test]
    fn hierarchy_rehit_after_access(addr in 0u64..(1 << 24)) {
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let pa = PhysAddr::new(addr).line_base();
        h.access(pa, AccessKind::Read);
        let again = h.access(pa, AccessKind::Read);
        prop_assert!(!again.needs_fill);
        prop_assert!(!again.llc_miss);
    }

    /// Dirty data is never silently lost: every dirty line either leaves
    /// via an eviction writeback or is still flushable at the end.
    #[test]
    fn hierarchy_conserves_dirty_lines(lines in prop::collection::vec(0u64..40_000, 1..400)) {
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let mut written: HashSet<u64> = HashSet::new();
        let mut written_back: HashSet<u64> = HashSet::new();
        for l in lines {
            let pa = PhysAddr::new(l * 64);
            let res = h.access(pa, AccessKind::Write);
            written.insert(l);
            for wb in res.writebacks.iter() {
                written_back.insert(wb.as_u64() / 64);
            }
        }
        for pa in h.writeback_all() {
            written_back.insert(pa.as_u64() / 64);
        }
        prop_assert_eq!(
            &written - &written_back,
            HashSet::new(),
            "some dirty lines vanished"
        );
    }
}
