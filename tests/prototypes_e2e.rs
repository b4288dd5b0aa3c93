//! End-to-end behaviour of the SSP and HSCC prototypes on the full
//! machine, beyond what the unit tests cover: real access paths, real
//! TLB/ cache interactions, real timers.

use kindle::prelude::*;
use kindle::types::{PhysMem, PAGE_SIZE};

// ---------------------------------------------------------------------------
// SSP
// ---------------------------------------------------------------------------

fn ssp_machine(interval_ms: u64) -> Machine {
    let cfg = MachineConfig::small().with_ssp(SspConfig {
        consistency_interval: Cycles::from_millis(interval_ms),
        consolidation_interval: Cycles::from_millis(1),
    });
    Machine::new(cfg).unwrap()
}

#[test]
fn ssp_routes_fase_writes_to_shadow_pages() {
    let mut m = ssp_machine(5);
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, 4 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
    // Open a FASE over the NVM range by hand (run_replay does this for
    // traces; here we drive the raw API).
    m.msr.nvm_range = Some((va, va + 4 * PAGE_SIZE as u64));
    let now = m.now();
    m.ssp.as_mut().unwrap().fase_begin(now);

    m.access(pid, va, AccessKind::Write).unwrap();
    let stats = m.ssp.as_ref().unwrap().stats().clone();
    assert_eq!(stats.pages_registered, 1, "first touch registers a shadow pair");

    // The TLB entry must carry the SSP extension with the written line
    // marked updated.
    let entry = m.tlb.peek_mut(va.page_number()).expect("entry resident");
    let ext = entry.ssp.expect("SSP extension attached");
    assert_eq!(ext.updated & 1, 1, "line 0 marked updated");

    // Interval end commits: updated moves into current.
    let costs = m.kernel.costs.clone();
    let engine = m.ssp.as_mut().unwrap();
    engine.end_interval(&mut m.hw, &mut m.tlb, &costs);
    let entry = m.tlb.peek_mut(va.page_number()).unwrap();
    let ext = entry.ssp.unwrap();
    assert_eq!(ext.updated, 0);
    assert_eq!(ext.current & 1, 1, "committed side flipped to shadow");
}

#[test]
#[allow(clippy::disallowed_methods)] // forces one eviction, as the hardware would
fn ssp_consolidation_returns_committed_lines_to_original() {
    let mut m = ssp_machine(5);
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
    m.msr.nvm_range = Some((va, va + PAGE_SIZE as u64));
    let now = m.now();
    m.ssp.as_mut().unwrap().fase_begin(now);
    m.access(pid, va, AccessKind::Write).unwrap();

    // Commit the interval, then force the entry out of the TLB and run the
    // consolidation thread.
    let costs = m.kernel.costs.clone();
    {
        let engine = m.ssp.as_mut().unwrap();
        engine.end_interval(&mut m.hw, &mut m.tlb, &costs);
    }
    let entry = m.tlb.invalidate(va.page_number()).expect("entry resident");
    {
        let engine = m.ssp.as_mut().unwrap();
        engine.on_tlb_evict(&mut m.hw, &entry);
        engine.consolidate(&mut m.hw, &costs);
        let s = engine.stats();
        assert_eq!(s.tlb_evictions, 1);
        assert_eq!(s.pages_consolidated, 1);
        assert_eq!(s.lines_merged, 1, "one committed line copied back");
    }
    // After consolidation the metadata entry is clean again.
    let engine = m.ssp.as_ref().unwrap();
    let idx = engine.cache().lookup(va.page_number()).unwrap();
    let e = engine.cache().read(&mut m.hw, idx);
    assert_eq!(e.current, 0);
    assert!(!e.evicted);
}

#[test]
fn ssp_intervals_fire_from_the_timer_loop() {
    let mut m = ssp_machine(1);
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, 16 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
    m.msr.nvm_range = Some((va, va + 16 * PAGE_SIZE as u64));
    let now = m.now();
    m.ssp.as_mut().unwrap().fase_begin(now);
    let deadline = m.now() + Cycles::from_millis(5);
    let mut i = 0u64;
    while m.now() < deadline {
        m.access(pid, va + (i % 16) * PAGE_SIZE as u64, AccessKind::Write).unwrap();
        i += 1;
    }
    let s = m.ssp.as_ref().unwrap().stats();
    assert!(s.intervals >= 3, "1 ms intervals over 5 ms: got {}", s.intervals);
    assert!(s.consolidations >= 3);
    assert!(s.data_lines_flushed > 0);
}

// ---------------------------------------------------------------------------
// HSCC
// ---------------------------------------------------------------------------

#[test]
fn hscc_end_to_end_migration_on_machine() {
    let cfg = MachineConfig::small().with_hscc(
        HsccConfig {
            fetch_threshold: 3,
            migration_interval: Cycles::from_millis(1),
            pool_pages: 64,
        },
        true,
    );
    let mut m = Machine::new(cfg).unwrap();
    let pid = m.spawn_process().unwrap();
    // 8 MiB of NVM, hammer a small hot set so LLC misses accumulate counts.
    let va = m.mmap(pid, 8 << 20, Prot::RW, MapFlags::NVM).unwrap();
    let hot_pages = 32u64;
    let total_pages = (8u64 << 20) / PAGE_SIZE as u64;
    // Build cache pressure: touch everything once, then hot loop.
    for i in 0..total_pages {
        m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write).unwrap();
    }
    for round in 0..2000u64 {
        let page = round % hot_pages;
        // Stride across lines to defeat the L1/L2 and miss in LLC often.
        let line = (round / hot_pages) % 64;
        m.access_sized(pid, va + page * PAGE_SIZE as u64 + line * 64, 8, AccessKind::Read).unwrap();
        // Interleave cold sweeps to evict the hot set from the LLC.
        let cold = total_pages - 1 - (round % (total_pages / 2));
        m.access(pid, va + cold * PAGE_SIZE as u64, AccessKind::Read).unwrap();
    }
    let s = m.report().hscc.expect("hscc enabled");
    assert!(s.intervals > 0, "migration intervals must have fired");
    assert!(s.pages_migrated > 0, "hot NVM pages must migrate to DRAM");
    // Migrated hot pages now resolve to DRAM frames.
    let mut in_dram = 0;
    for i in 0..hot_pages {
        let pte = m.kernel.translate(&mut m.hw, pid, va + i * PAGE_SIZE as u64).unwrap().unwrap();
        if m.kernel.pools.dram.contains(pte.pfn()) {
            in_dram += 1;
        }
    }
    assert!(in_dram > 0, "some hot pages must live in the DRAM pool now");
}

#[test]
fn hscc_hardware_only_baseline_charges_no_os_time() {
    let mk = |os_mode: bool| {
        let cfg = MachineConfig::small().with_hscc(
            HsccConfig {
                fetch_threshold: 1,
                migration_interval: Cycles::from_millis(1),
                pool_pages: 64,
            },
            os_mode,
        );
        let mut m = Machine::new(cfg).unwrap();
        let pid = m.spawn_process().unwrap();
        let va = m.mmap(pid, 2 << 20, Prot::RW, MapFlags::NVM).unwrap();
        // Run past several 1 ms migration intervals.
        let deadline = m.now() + Cycles::from_millis(4);
        let mut round = 0u64;
        while m.now() < deadline {
            let page = round % 16;
            // Periodically drop the caches so accesses miss the LLC and
            // the hardware counters accumulate.
            if round.is_multiple_of(32) {
                m.hw.caches.invalidate_all();
            }
            m.access(pid, va + page * PAGE_SIZE as u64 + (round % 64) * 64, AccessKind::Read)
                .unwrap();
            round += 1;
        }
        (m, round)
    };
    let (os, os_rounds) = mk(true);
    let (hw, hw_rounds) = mk(false);
    let os_stats = os.report().hscc.unwrap();
    let hw_stats = hw.report().hscc.unwrap();
    assert!(hw_stats.pages_migrated > 0, "baseline still migrates");
    assert_eq!(hw_stats.os_cycles(), Cycles::ZERO, "hardware-only baseline charges zero OS time");
    assert!(os_stats.os_cycles() > Cycles::ZERO);
    // Both runs stop at the first access past the same deadline, so their
    // clocks differ only by that access's overshoot; the OS time shows as
    // fewer accesses in the same simulated time.
    assert!(os_rounds < hw_rounds, "OS activities must cost simulated time");
}

#[test]
fn hscc_copyback_preserves_data() {
    let cfg = MachineConfig::small().with_hscc(
        HsccConfig {
            fetch_threshold: 1,
            migration_interval: Cycles::from_millis(1),
            pool_pages: 2,
        },
        true,
    );
    let mut m = Machine::new(cfg).unwrap();
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, 16 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
    // Fault in page 0 and plant recognisable bytes in its frame.
    m.access(pid, va, AccessKind::Write).unwrap();
    let nvm_pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
    m.hw.write_bytes(nvm_pfn.base() + 123, b"precious");
    // Make page 0 hot so it migrates, then hammer other pages so the tiny
    // pool recycles it (dirty copy-back path).
    let deadline = m.now() + Cycles::from_millis(8);
    let mut round = 0u64;
    while m.now() < deadline {
        let page = if round.is_multiple_of(3) { 0 } else { 1 + (round % 15) };
        if round.is_multiple_of(32) {
            m.hw.caches.invalidate_all();
        }
        m.access(pid, va + page * PAGE_SIZE as u64 + (round % 64) * 64, AccessKind::Write).unwrap();
        round += 1;
    }
    // Wherever the page lives now, the bytes must still be there.
    let pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
    let mut buf = [0u8; 8];
    m.hw.read_bytes(pfn.base() + 123, &mut buf);
    assert_eq!(&buf, b"precious", "data must survive migration and copy-back");
    let s = m.report().hscc.unwrap();
    assert!(s.pages_migrated > 0);
}
