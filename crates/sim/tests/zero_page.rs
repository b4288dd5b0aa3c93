//! The rule behind the memory controller's page store: a page with no
//! stored image reads as zero, so all-zero data is never stored. These
//! tests count stored pages through a demand-paging churn, around stuck
//! cells and across crashes.

use kindle_mem::{MediaFaultConfig, PowerSwitch};
use kindle_os::PtMode;
use kindle_sim::{Hw, Machine, MachineConfig};
use kindle_tlb::TlbConfig;
use kindle_types::{AccessKind, MapFlags, MemKind, PhysAddr, PhysMem, Prot, Rng64};

const PAGE: u64 = 4096;

/// Stored pages and pages holding a non-zero byte, over all of memory.
fn residency(m: &Machine) -> (usize, usize) {
    let zeros = [0u8; PAGE as usize];
    let mut buf = [0u8; PAGE as usize];
    let frames = m.hw.mc.layout().end().as_u64() / PAGE;
    let nonzero = (0..frames)
        .filter(|&pfn| {
            m.hw.mc.load_bytes(PhysAddr::new(pfn * PAGE), &mut buf);
            buf != zeros
        })
        .count();
    (m.hw.mc.resident_pages(), nonzero)
}

#[test]
fn only_pages_holding_data_are_stored_through_churn() {
    // The hotpath bench's machine: persistent page tables, media faults
    // armed (random stuck cells included), lean TLBs.
    let mut faults = MediaFaultConfig::with_seed(5);
    faults.correction_entries = 2;
    let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
    cfg.mem.faults = Some(faults);
    cfg.tlb.l1 = TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 };
    cfg.tlb.l2 = TlbConfig { entries: 128, assoc: 8, hit_cycles: 7 };
    let mut m = Machine::new(cfg).unwrap();
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, 512 * PAGE, Prot::RW, MapFlags::NVM).unwrap();
    for p in 0..512 {
        m.access(pid, va + p * PAGE, AccessKind::Write).unwrap();
    }
    let (stored, nonzero) = residency(&m);
    assert_eq!(stored, nonzero, "after fault-in");
    assert!(stored < 64, "512 zero-filled data pages must not be stored: {stored}");
    for round in 0..2 {
        let extra = m.mmap(pid, 512 * PAGE, Prot::RW, MapFlags::NVM).unwrap();
        for p in 0..512 {
            m.access(pid, extra + p * PAGE, AccessKind::Write).unwrap();
        }
        let (stored, nonzero) = residency(&m);
        assert_eq!(stored, nonzero, "round {round}: after churn fault-in");
        m.munmap(pid, extra, 512 * PAGE).unwrap();
        let (stored, nonzero) = residency(&m);
        assert_eq!(stored, nonzero, "round {round}: after munmap emptied a page table");
    }
}

fn media_hw() -> (Hw, PhysAddr) {
    let mut cfg = MachineConfig::small();
    cfg.mem.faults = Some(MediaFaultConfig {
        stuck_cells: 0,
        correction_entries: 2,
        ..MediaFaultConfig::with_seed(5)
    });
    let nvm = cfg.mem.layout.range(MemKind::Nvm).base + 0x40_0000;
    (Hw::new(&cfg), nvm)
}

#[test]
fn a_stuck_one_bit_keeps_a_zeroed_page_stored() {
    let (mut hw, frame) = media_hw();
    let media = hw.mc.media_mut().unwrap();
    // Three cells on one line: over the two-entry budget, so the stuck-at-1
    // cell forces its bit; the next frame has only a stuck-at-0 cell.
    for (bit, val) in [(9, true), (100, false), (200, false)] {
        media.add_stuck_cell(frame.as_u64() + 64, bit, val);
    }
    media.add_stuck_cell((frame + PAGE).as_u64(), 3, false);
    hw.zero_page(frame);
    hw.zero_page(frame + PAGE);
    assert_eq!(hw.mc.resident_pages(), 1, "only the page the stuck 1 dirtied");
    assert_eq!(hw.read_u64(frame + 64), 1 << 9);
    assert_eq!(hw.read_u64(frame + PAGE), 0);
}

#[test]
fn crash_rollback_of_zero_snapshots_creates_no_page() {
    let (mut hw, frame) = media_hw();
    // Never-committed zero lines: rolled back by crash.
    hw.zero_page(frame);
    hw.write_u64(frame + PAGE, 0);
    assert!(hw.mc.volatile_nvm_lines() >= 65);
    hw.crash();
    assert_eq!(hw.mc.resident_pages(), 0);
    assert_eq!(hw.mc.stats().nvm_lines_lost_on_crash, 65);

    // Committed into the write buffer, not drained: reverted by a torn
    // crash to their zero durable images.
    let switch = PowerSwitch::new();
    hw.mc.arm_power_cut(switch.clone());
    hw.write_bytes(frame, &[7; 64]);
    hw.clwb(frame);
    hw.zero_page(frame);
    hw.clwb_page(frame);
    switch.cut();
    hw.crash_torn(&mut Rng64::new(3));
    assert_eq!(hw.mc.resident_pages(), 0, "rolled back to zero everywhere");

    // A frame whose durable data was zero-filled but never committed comes
    // back with its data.
    hw.mc.disarm_power_cut();
    hw.write_bytes(frame, &[9; 64]);
    hw.clwb(frame);
    hw.zero_page(frame);
    assert_eq!(hw.mc.resident_pages(), 0);
    // The stored page holds the rolled-back line, and the line stored
    // after the fill rolls back to its zero durable image.
    hw.write_bytes(frame + 128, &[4; 64]);
    hw.crash();
    assert_eq!(hw.mc.resident_pages(), 1);
    assert_eq!(hw.read_u64(frame), u64::from_le_bytes([9; 8]));
    assert_eq!(hw.read_u64(frame + 128), 0);
}
