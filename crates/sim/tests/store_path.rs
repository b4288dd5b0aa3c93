//! Pins the simulated outcome of the kernel's zero-fill store path.
//!
//! Every new frame is zero-filled line by line (`zero_new_frames`), and on
//! a machine with persistent page tables each new table page is too, so a
//! mmap/fault-in/munmap churn drives thousands of whole-line NVM stores
//! through the memory controller's undo snapshots, line checksums, wear
//! counters and stuck-cell model. The machines below mirror the `hotpath`
//! bench: lean TLBs, low-associativity caches and the media-fault model
//! armed. Their final clock, memory counters and cache counters are pinned
//! exactly, so any change to the cost of a store on the host must leave the
//! simulated machine untouched. A store's `NvmWrite` events must carry the
//! clock it happened at.

use std::cell::RefCell;
use std::rc::Rc;

use kindle_cache::HierarchyStats;
use kindle_mem::{MediaFaultConfig, MemStats};
use kindle_os::PtMode;
use kindle_sim::{Machine, MachineConfig};
use kindle_tlb::TlbConfig;
use kindle_types::sanitize::{self, Event, Sanitizer, ThreadId};
use kindle_types::{AccessKind, Cycles, MapFlags, MemKind, PhysMem, Prot, PAGE_SIZE};

const PAGES: u64 = 256;
const ROUNDS: u64 = 6;
const CHURN_PAGES: u64 = 64;

fn config(wear_limit: u64, stuck_cells: usize) -> MachineConfig {
    let mut faults = MediaFaultConfig::with_seed(5);
    faults.correction_entries = 2;
    faults.wear_limit = wear_limit;
    faults.stuck_cells = stuck_cells;
    let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
    assert!(cfg.costs.zero_new_frames, "the churn must exercise the zero-fill path");
    cfg.mem.faults = Some(faults);
    cfg.tlb.l1 = TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 };
    cfg.tlb.l2 = TlbConfig { entries: 128, assoc: 8, hit_cycles: 7 };
    cfg.caches.l1.assoc = 2;
    cfg.caches.l2.assoc = 2;
    cfg.caches.llc.assoc = 4;
    cfg
}

/// Faults in a working set, then repeatedly touches it and churns fresh
/// NVM mappings through fault-in and unmap. Returns the final clock, the
/// memory counters and the cache counters.
fn churn(wear_limit: u64, stuck_cells: usize) -> (u64, MemStats, HierarchyStats) {
    let page = PAGE_SIZE as u64;
    let mut m = Machine::new(config(wear_limit, stuck_cells)).unwrap();
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, PAGES * page, Prot::RW, MapFlags::NVM).unwrap();
    for p in 0..PAGES {
        m.access(pid, va + p * page, AccessKind::Write).unwrap();
    }
    for round in 0..ROUNDS {
        for p in 0..PAGES {
            let kind = if (p + round) % 4 == 0 { AccessKind::Read } else { AccessKind::Write };
            m.access(pid, va + p * page + (p * 7 + round) % 64 * 64, kind).unwrap();
        }
        let extra = m.mmap(pid, CHURN_PAGES * page, Prot::RW, MapFlags::NVM).unwrap();
        for p in 0..CHURN_PAGES {
            m.access(pid, extra + p * page, AccessKind::Write).unwrap();
        }
        m.munmap(pid, extra, CHURN_PAGES * page).unwrap();
    }
    let report = m.report();
    (m.now().as_u64(), report.mem, report.caches)
}

/// The pinned memory counters: NVM device traffic, commits, the retry
/// and retirement counters and every media-fault counter.
fn counters(mem: &MemStats) -> [u64; 11] {
    let media = &mem.media;
    [
        mem.nvm.reads,
        mem.nvm.writes,
        mem.nvm.busy_cycles.as_u64(),
        mem.nvm_lines_committed,
        mem.nvm_write_retries,
        mem.nvm_frames_failed,
        media.transient_failures,
        media.lines_worn_out,
        media.stuck_line_writes,
        media.corrections_allocated,
        media.uncorrectable_line_writes,
    ]
}

/// The pinned cache counters: hits, misses and dirty evictions of L1, L2
/// and the LLC, then the lines written back to memory.
fn cache_counters(caches: &HierarchyStats) -> [u64; 10] {
    let (l1, l2, llc) = (&caches.l1, &caches.l2, &caches.llc);
    [
        l1.hits,
        l1.misses,
        l1.dirty_evictions,
        l2.hits,
        l2.misses,
        l2.dirty_evictions,
        llc.hits,
        llc.misses,
        llc.dirty_evictions,
        caches.memory_writebacks,
    ]
}

#[test]
fn zero_fill_churn_is_pinned() {
    let (clock, mem, caches) = churn(4096, 4);
    assert_eq!(clock, 12_406_836);
    assert_eq!(counters(&mem), [21_042, 3_466, 9_572_880, 3_466, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(mem.dram.writes, 0, "the churn maps NVM only");
    assert_eq!(
        cache_counters(&caches),
        [22_025, 42_049, 40_098, 58_050, 22_941, 14_169, 16_068, 21_042, 0, 3_466]
    );
}

#[test]
fn worn_and_stuck_zero_fill_churn_is_pinned() {
    // A 40-write endurance budget and dense stuck cells: lines wear out,
    // retries are charged, frames fail and ECP entries are allocated.
    let (clock, mem, caches) = churn(40, 4096);
    assert_eq!(clock, 20_989_346);
    assert_eq!(counters(&mem), [21_303, 4_536, 9_722_430, 4_536, 2_991, 3, 3, 3, 98, 37, 0]);
    assert_eq!(
        cache_counters(&caches),
        [24_076, 42_305, 40_254, 58_202, 23_202, 14_402, 16_301, 21_303, 0, 4_536]
    );
}

/// Records the cycle of every `NvmWrite` event.
struct NvmWriteCycles(Rc<RefCell<Vec<u64>>>);

impl Sanitizer for NvmWriteCycles {
    fn on_event(&mut self, _tid: ThreadId, ev: &Event) {
        if let Event::NvmWrite { cycle, .. } = *ev {
            self.0.borrow_mut().push(cycle);
        }
    }
}

/// A store through the hardware emits one `NvmWrite` per NVM line, stamped
/// with the clock after its line accesses: a cycle kill point fires on it
/// and an undrained-checkpoint report names when the line was written.
#[test]
fn nvm_writes_carry_the_store_clock() {
    let mut m = Machine::new(MachineConfig::small()).unwrap();
    let pa = m.hw.mc.layout().range(MemKind::Nvm).base + 0x10_0000;
    m.hw.advance(Cycles::new(1000));
    let cycles = Rc::new(RefCell::new(Vec::new()));
    let guard = sanitize::install(Box::new(NvmWriteCycles(cycles.clone())));
    m.hw.write_u64(pa, 0xfeed);
    let after_word = m.now().as_u64();
    // Eight bytes across a line boundary: two lines, one clock.
    m.hw.write_bytes(pa + 60, &[7; 8]);
    let after_span = m.now().as_u64();
    drop(guard);
    assert!(after_word > 1000, "the line access charged time");
    assert_eq!(*cycles.borrow(), [after_word, after_span, after_span]);
}
