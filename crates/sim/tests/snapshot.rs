//! Acceptance tests for `Machine::snapshot` / `Machine::restore`.
//!
//! The crash-sweep tier forks thousands of machines from snapshots, so a
//! snapshot must be a *perfect* capture: a restored machine running a
//! suffix has to be byte-indistinguishable from a machine that ran the
//! whole history uninterrupted — timing, caches, TLBs, page tables,
//! checkpoint engine, scrub/patrol progress and the media fault model all
//! included. `SimReport` carries every counter the simulator exposes, so
//! comparing full reports (via their `Debug` rendering; the report
//! deliberately has no `PartialEq`) is the widest equality check
//! available.

use kindle_mem::MediaFaultConfig;
use kindle_os::PtMode;
use kindle_sim::{Machine, MachineConfig, MachineSnapshot};
use kindle_types::{AccessKind, Cycles, MapFlags, PhysMem, Prot, VirtAddr, PAGE_SIZE};

const PAGES: u64 = 4;

/// A machine with every optional subsystem live: persistent page tables,
/// checkpointing, scrubd and the checksummed data patrol.
fn full_config(kthreads: bool) -> MachineConfig {
    let cfg = MachineConfig::small()
        .with_pt_mode(PtMode::Persistent)
        .with_checkpointing(Cycles::from_millis(1000))
        .with_scrub_interval(Cycles::from_micros(50))
        .with_patrol_interval(Cycles::from_micros(20));
    if kthreads {
        cfg.with_kthreads()
    } else {
        cfg
    }
}

/// The shared history prefix: spawn, map NVM data pages, fill them, and
/// publish a checkpoint.
fn prefix(m: &mut Machine) -> (u32, VirtAddr) {
    let pid = m.spawn_process().unwrap();
    let va = m.mmap(pid, PAGES * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
    for page in 0..PAGES {
        m.access(pid, va + page * PAGE_SIZE as u64, AccessKind::Write).unwrap();
    }
    m.checkpoint_now().unwrap();
    (pid, va)
}

/// The suffix whose observables both machines must agree on: mixed
/// read/write traffic (exercising caches, TLBs and the patrol), map/unmap
/// churn (exercising the redo log) and periodic checkpoints.
fn suffix(m: &mut Machine, pid: u32, va: VirtAddr) {
    for round in 0..8u64 {
        for page in 0..PAGES {
            let kind = if (round + page) % 3 == 0 { AccessKind::Read } else { AccessKind::Write };
            m.access(pid, va + page * PAGE_SIZE as u64, kind).unwrap();
        }
        if round % 2 == 0 {
            m.checkpoint_now().unwrap();
        }
        let extra = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).unwrap();
        m.munmap(pid, extra, PAGE_SIZE as u64).unwrap();
    }
}

/// Everything observable about a machine after the suffix: the full
/// simulator report plus the clock and the stored bytes of the data pages.
fn observe(m: &mut Machine, pid: u32, va: VirtAddr) -> String {
    let mut bytes = Vec::new();
    for page in 0..PAGES {
        let pte = m
            .kernel
            .translate(&mut m.hw, pid, va + page * PAGE_SIZE as u64)
            .unwrap()
            .expect("data page is mapped");
        for w in 0..(PAGE_SIZE as u64 / 8) {
            bytes.push(m.hw.read_u64(pte.pfn().base() + w * 8));
        }
    }
    format!("now={:?} report={:?} bytes={bytes:?}", m.now(), m.report())
}

#[test]
fn restored_machine_matches_uninterrupted_and_fresh_replay() {
    // Three machines, one history: A runs prefix + suffix with a snapshot
    // taken in between; B is restored from that snapshot and runs only the
    // suffix; C replays the whole history from a fresh machine. All three
    // must land on the identical report — scrub and patrol progress
    // included (both daemons are armed and patrol passes run during the
    // suffix).
    let mut a = Machine::new(full_config(false)).unwrap();
    let (pid, va) = prefix(&mut a);
    let snap = a.snapshot();
    suffix(&mut a, pid, va);
    let obs_a = observe(&mut a, pid, va);
    assert!(a.patrol.as_ref().unwrap().stats().passes > 0, "patrol never ran; test too weak");
    assert!(a.scrub.is_some(), "scrubd not armed; test too weak");

    let mut b = Machine::restore(&snap);
    suffix(&mut b, pid, va);
    let obs_b = observe(&mut b, pid, va);
    assert_eq!(obs_a, obs_b, "restored machine diverged from the uninterrupted one");

    let mut c = Machine::new(full_config(false)).unwrap();
    let (pid_c, va_c) = prefix(&mut c);
    assert_eq!((pid_c, va_c), (pid, va), "fresh replay allocated differently");
    suffix(&mut c, pid_c, va_c);
    let obs_c = observe(&mut c, pid_c, va_c);
    assert_eq!(obs_a, obs_c, "fresh replay diverged from the uninterrupted run");
}

#[test]
fn snapshot_survives_mutation_of_the_original() {
    // The property the sweep depends on: snapshot → keep mutating the
    // original → restore → run the suffix, and the result is byte-identical
    // to an uninterrupted run. Checked with kthreads off and on, and with a
    // directed stuck-cell fault armed under a mapped data line (so the
    // media model, its correction directory and the patrol's healing work
    // all have to round-trip through the snapshot too).
    for kthreads in [false, true] {
        let mut cfg = full_config(kthreads);
        cfg.mem.faults = Some(MediaFaultConfig {
            wear_limit: 0,
            stuck_cells: 0,
            correction_entries: 2,
            ..MediaFaultConfig::with_seed(0x5eed)
        });

        // The uninterrupted baseline, with one stuck bit seeded after the
        // prefix under the first data line.
        let seed_fault = |m: &mut Machine, pid: u32, va: VirtAddr| {
            let pte = m.kernel.translate(&mut m.hw, pid, va).unwrap().expect("mapped");
            assert!(
                m.hw.mc.degrade_line_bit(pte.pfn().base().as_u64(), 5),
                "stuck-cell seeding failed"
            );
        };
        let mut base = Machine::new(cfg.clone()).unwrap();
        let (pid, va) = prefix(&mut base);
        seed_fault(&mut base, pid, va);
        suffix(&mut base, pid, va);
        let expected = observe(&mut base, pid, va);

        // Snapshot after fault seeding, then scribble all over the
        // original before restoring: the deep copy must not care.
        let mut orig = Machine::new(cfg.clone()).unwrap();
        let (pid2, va2) = prefix(&mut orig);
        assert_eq!((pid2, va2), (pid, va));
        seed_fault(&mut orig, pid, va);
        let snap = orig.snapshot();
        suffix(&mut orig, pid, va);
        suffix(&mut orig, pid, va);
        drop(orig);

        let mut restored = Machine::restore(&snap);
        suffix(&mut restored, pid, va);
        let got = observe(&mut restored, pid, va);
        assert_eq!(expected, got, "kthreads={kthreads}: restored suffix diverged");
    }
}

#[test]
fn restore_keeps_the_captured_backend() {
    // Sweep forks restore on arbitrary worker threads; the backend lives
    // in the captured config, so every fork runs the capturer's far tier.
    let m = Machine::new(MachineConfig::small().with_backend(kindle_mem::Backend::SttRam)).unwrap();
    let restored = Machine::restore(&m.snapshot());
    assert_eq!(restored.hw.mc.backend(), kindle_mem::Backend::SttRam);
}

#[test]
fn snapshots_are_send_and_sync() {
    // The sweep shares one snapshot pool across fork-join workers by
    // reference; this pins the auto-trait obligation at the API level.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineSnapshot>();
}
