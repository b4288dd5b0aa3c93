//! End-to-end media-fault path: hammering one NVM line until its wear
//! budget runs out must drive the whole retry-then-retire pipeline —
//! bounded-backoff retries in the memory controller, permanent failure,
//! OS frame retirement with a content-preserving remap and a TLB
//! shootdown — under a zero-violation invariant sanitizer.

use kindle_mem::MediaFaultConfig;
use kindle_sim::{Machine, MachineConfig};
use kindle_types::sanitize::{self, InvariantChecker};
use kindle_types::{AccessKind, MapFlags, PhysMem, Prot, PAGE_SIZE};

const SENTINEL: u64 = 0xfee1_dead_beef_0001;

#[test]
fn worn_out_nvm_frame_is_retired_and_remapped() {
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let _guard = sanitize::install(Box::new(ic));

    let mut cfg = MachineConfig::small();
    // Small wear budget so the test wears a line out quickly; no stuck
    // cells, so content comparisons are exact.
    cfg.mem.faults = Some(MediaFaultConfig {
        wear_limit: 512,
        stuck_cells: 0,
        ..MediaFaultConfig::with_seed(11)
    });
    let mut m = Machine::new(cfg).unwrap();
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
    m.access(pid, va, AccessKind::Write).unwrap();
    let old_pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
    let pa = old_pfn.base();

    // A sentinel on the page's *second* line: it must survive the remap.
    m.hw.write_u64(pa + 64, SENTINEL);
    m.hw.clwb(pa + 64);

    // Hammer the first line until the controller declares the frame failed
    // and a machine-level access lets the OS timer poll retire it.
    let mut retired = false;
    for i in 0..2_000u64 {
        m.hw.write_u64(pa, 0xaaaa_0000 + i);
        m.hw.clwb(pa);
        m.access(pid, va, AccessKind::Read).unwrap();
        if m.kernel.stats().frames_retired > 0 {
            retired = true;
            break;
        }
    }
    assert!(retired, "wear limit of 512 never exhausted in 2000 line writes");

    let mem_stats = m.hw.mc.stats();
    assert!(mem_stats.nvm_write_retries > 0, "failure must go through bounded retries");
    assert_eq!(mem_stats.nvm_frames_failed, 1, "exactly one frame fails: {mem_stats:?}");
    // The failure is either a hard wear-out or retry-exhausted soft-zone
    // transients — both are end-of-life outcomes of the wear model.
    assert!(
        mem_stats.media.lines_worn_out + mem_stats.media.transient_failures >= 1,
        "failure must come from the wear model: {mem_stats:?}"
    );

    // The page moved to a fresh frame, contents intact, old mapping gone.
    let new_pfn = m.kernel.translate(&mut m.hw, pid, va).unwrap().unwrap().pfn();
    assert_ne!(new_pfn, old_pfn, "mapping must move off the failed frame");
    assert_eq!(m.hw.read_u64(new_pfn.base() + 64), SENTINEL, "contents copied on retirement");
    assert!(m.tlb_shootdowns() >= 1, "stale translation must be shot down");
    assert_eq!(m.kernel.stats().frames_retired, 1);

    // The process keeps running against the replacement frame.
    m.access(pid, va, AccessKind::Write).unwrap();

    let violations = ic_log.take();
    assert!(violations.is_empty(), "sanitizer violations: {violations:?}");
}
