//! Property tests for SSP's routing algebra and metadata cache.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use std::collections::BTreeMap;

use kindle_os::Region;
use kindle_ssp::{SspCache, SspCacheEntry};
use kindle_tlb::SspTlbExt;
use kindle_types::physmem::FlatMem;
use kindle_types::{Pfn, PhysAddr, Rng64, Vpn};

const SEED: u64 = 0x7e57_0008;

/// Routing invariant: for any bitmap state and line, a write goes to the
/// opposite side of the committed copy, and a read after that write (same
/// interval) observes the written side.
#[test]
fn write_then_read_same_interval_sees_new_data() {
    let mut rng = Rng64::new(SEED);
    for case in 0..256 {
        let current = rng.next_u64();
        let line = rng.gen_below(64) as usize;
        let ctx = format!("case {case}, seed {SEED:#x}: current {current:#x}, line {line}");
        let orig = Pfn::new(10);
        let shadow = Pfn::new(20);
        let mut ext = SspTlbExt { shadow_pfn: shadow, updated: 0, current };
        let target = ext.write_target(orig, line);
        ext.updated |= 1 << line;
        assert_eq!(ext.read_target(orig, line), target, "{ctx}");
        // And the two sides really are opposite.
        let committed = if current >> line & 1 == 1 { shadow } else { orig };
        assert_ne!(target, committed, "{ctx}");
    }
}

/// Commit algebra: after commit, reads observe what was last written;
/// untouched lines keep reading the old committed side. Repeated over
/// arbitrary interval histories.
#[test]
fn commit_history_converges() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let orig = Pfn::new(1);
        let shadow = Pfn::new(2);
        let mut ext = SspTlbExt { shadow_pfn: shadow, updated: 0, current: 0 };
        // Model: where the latest data for each line lives.
        let mut latest = [orig; 64];
        for step in 0..rng.gen_below(200) {
            let line = rng.gen_below(64) as usize;
            let t = ext.write_target(orig, line);
            ext.updated |= 1 << line;
            latest[line] = t;
            assert_eq!(ext.read_target(orig, line), t, "{ctx}: step {step}");
            if rng.gen_below(2) == 1 {
                ext.commit();
                assert_eq!(ext.updated, 0, "{ctx}: step {step}");
            }
            // All lines always read their latest data, committed or not.
            for (l, &want) in latest.iter().enumerate() {
                assert_eq!(ext.read_target(orig, l), want, "{ctx}: step {step}, line {l}");
            }
        }
    }
}

/// The metadata cache round-trips arbitrary entries and its index never
/// aliases two vpns to one slot. Half the registrations repeat an earlier
/// vpn, which must get its slot back.
#[test]
fn cache_entries_round_trip() {
    let mut rng = Rng64::new(SEED);
    for case in 0..64 {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let mut mem = FlatMem::new(1 << 20);
        let mut cache = SspCache::new(Region { base: PhysAddr::new(0x8000), size: 64 * 64 });
        let mut used: BTreeMap<u64, u64> = BTreeMap::new(); // vpn -> slot
        let mut vpns: Vec<u64> = Vec::new();
        for i in 0..rng.gen_range(1, 40) {
            let vpn_raw = if !vpns.is_empty() && rng.gen_below(2) == 1 {
                vpns[rng.gen_below(vpns.len() as u64) as usize]
            } else {
                rng.gen_below(1 << 30)
            };
            vpns.push(vpn_raw);
            let vpn = Vpn::new(vpn_raw);
            let Ok(idx) = cache.register(&mut mem, vpn, Pfn::new(i), Pfn::new(100 + i)) else {
                break; // capacity reached
            };
            if let Some(&prev) = used.get(&vpn_raw) {
                assert_eq!(
                    idx, prev,
                    "{ctx}: re-registration of vpn {vpn_raw:#x} must reuse the slot"
                );
                continue;
            }
            used.insert(vpn_raw, idx);
            let mut e = cache.read(&mut mem, idx);
            e.current = rng.next_u64();
            e.updated = rng.next_u64();
            e.evicted = rng.gen_below(2) == 1;
            cache.write(&mut mem, idx, &e);
            let back: SspCacheEntry = cache.read(&mut mem, idx);
            assert_eq!(back, e, "{ctx}: vpn {vpn_raw:#x}");
        }
        // Distinct vpns map to distinct indices.
        let mut idxs: Vec<u64> = used.values().copied().collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), used.len(), "{ctx}");
    }
}
