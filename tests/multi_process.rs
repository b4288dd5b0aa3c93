//! Multi-process persistence: several processes checkpointed into the
//! shared saved-state area, all recovered after a crash.

use kindle::prelude::*;
use kindle::types::PAGE_SIZE;

#[test]
fn three_processes_recover_together() {
    let cfg = MachineConfig::small()
        .with_pt_mode(PtMode::Rebuild)
        .with_checkpointing(Cycles::from_millis(5));
    let mut m = Machine::new(cfg).unwrap();

    let mut procs = Vec::new();
    for n in 0..3u64 {
        let pid = m.spawn_process().unwrap();
        let pages = 4 + 2 * n;
        let va = m.mmap(pid, pages * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        for i in 0..pages {
            m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write).unwrap();
        }
        m.kernel.process_mut(pid).unwrap().regs.rip = 0xbeef_0000 + n;
        procs.push((pid, va, pages, 0xbeef_0000 + n));
    }

    m.checkpoint_now().unwrap();
    m.crash().unwrap();
    let report = m.recover().unwrap();
    assert_eq!(report.recovered_pids.len(), 3);

    for (pid, va, pages, rip) in procs {
        let proc = m.kernel.process(pid).unwrap();
        assert_eq!(proc.regs.rip, rip, "pid {pid}");
        assert_eq!(proc.aspace.mapped_pages(), pages, "pid {pid}");
        // Distinct processes recovered onto distinct frames.
        for i in 0..pages {
            let pte =
                m.kernel.translate(&mut m.hw, pid, va + i * PAGE_SIZE as u64).unwrap().unwrap();
            assert!(m.kernel.pools.nvm.is_allocated(pte.pfn()));
        }
        // And they resume independently.
        m.access(pid, va, AccessKind::Read).unwrap();
    }

    // Frames across processes never alias.
    let mut all_frames = Vec::new();
    for pid in m.kernel.pids() {
        let proc = m.kernel.process(pid).unwrap();
        proc.aspace.for_each_leaf(&mut m.hw, |_, _, pte, _| all_frames.push(pte.pfn()));
    }
    let count = all_frames.len();
    all_frames.sort();
    all_frames.dedup();
    assert_eq!(all_frames.len(), count, "recovered frames must not alias");
}

#[test]
fn processes_checkpoint_and_destroy_independently() {
    let cfg = MachineConfig::small()
        .with_pt_mode(PtMode::Persistent)
        .with_checkpointing(Cycles::from_millis(5));
    let mut m = Machine::new(cfg).unwrap();
    let a = m.spawn_process().unwrap();
    let b = m.spawn_process().unwrap();
    for pid in [a, b] {
        let va = m.mmap(pid, 2 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        m.access(pid, va, AccessKind::Write).unwrap();
    }
    m.checkpoint_now().unwrap();

    // Destroy a; b keeps running and surviving crashes.
    m.hw.during(kindle::cpu::Activity::Os, |hw| m.kernel.destroy_process(hw, a)).unwrap();
    m.checkpoint_now().unwrap();
    m.crash().unwrap();
    let report = m.recover().unwrap();
    // a was checkpointed before destruction, so its slot may still exist;
    // what matters is that b recovers consistently.
    assert!(report.recovered_pids.contains(&b));
    assert!(m.kernel.process(b).is_ok());
}
