//! Simulated kernel threads: the scheduler must be deterministic, charge
//! `kthread_switch` exactly once per actual switch, and the sanitizer's
//! race rule must stay silent on properly barriered daemon work while
//! flagging a seeded unsynchronized cross-thread NVM write.

use kindle::prelude::*;
use kindle::types::sanitize::{self, InvariantChecker, ThreadId, Violation};
use kindle::types::{Cycles, MemKind, PAGE_SIZE};

/// A threaded workload where both daemons (checkpoint + migration) get
/// woken by their timers: NVM-heavy with a hot set to trigger HSCC.
fn threaded_workload() -> (u64, String, usize) {
    let cfg = MachineConfig::small()
        .with_checkpointing(Cycles::from_micros(20))
        .with_hscc(
            HsccConfig {
                fetch_threshold: 3,
                migration_interval: Cycles::from_micros(20),
                pool_pages: 64,
            },
            true,
        )
        .with_kthreads();
    let checker = InvariantChecker::new();
    let log = checker.log();
    let _guard = sanitize::install(Box::new(checker));
    let mut m = Machine::new(cfg).expect("machine boots");
    let pid = m.spawn_process().expect("spawn");
    let va = m.mmap(pid, 256 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).expect("mmap nvm");
    for i in 0..256u64 {
        m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write).expect("touch");
    }
    for round in 0..500u64 {
        let page = round % 16;
        m.access(pid, va + page * PAGE_SIZE as u64, AccessKind::Read).expect("hot read");
    }
    m.checkpoint_now().expect("checkpoint");
    let report = m.report();
    assert!(report.kthread_switches >= 4, "daemons never ran: {report:?}");
    (m.now().as_u64(), format!("{report:?}"), log.snapshot().len())
}

#[test]
fn threaded_run_is_deterministic_and_race_free() {
    let (now_a, report_a, violations_a) = threaded_workload();
    let (now_b, report_b, violations_b) = threaded_workload();
    assert_eq!(now_a, now_b, "thread interleaving must be deterministic");
    assert_eq!(report_a, report_b, "reports must match bit-for-bit");
    assert_eq!(violations_a, 0, "barriered daemon work must not trip the race rule");
    assert_eq!(violations_b, 0);
}

#[test]
fn kthread_switch_charged_exactly_once_per_switch() {
    // A long interval keeps the periodic timer quiet so the only daemon
    // activity is the three explicit checkpoints: each one is exactly two
    // switches (main -> ckptd -> main), and the *only* timing difference
    // against the kthreads-off run is the switch cost itself.
    let run = |kthreads: bool| {
        let mut cfg = MachineConfig::small().with_checkpointing(Cycles::from_millis(1000));
        if kthreads {
            cfg = cfg.with_kthreads();
        }
        let mut m = Machine::new(cfg).expect("machine boots");
        let pid = m.spawn_process().expect("spawn");
        let va = m.mmap(pid, 8 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM).expect("mmap");
        for round in 0..3u64 {
            for i in 0..8u64 {
                m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write).expect("write");
            }
            let _ = round;
            m.checkpoint_now().expect("checkpoint");
        }
        let cost = m.kernel.costs.kthread_switch;
        (m.now().as_u64(), m.kernel.sched.switches(), cost)
    };
    let (now_off, switches_off, cost) = run(false);
    let (now_on, switches_on, _) = run(true);
    assert_eq!(switches_off, 0, "no kthreads, no switches");
    assert_eq!(switches_on, 6, "3 checkpoints x (to daemon + back)");
    assert_eq!(
        now_on - now_off,
        6 * cost,
        "each switch must charge kthread_switch exactly once (cost {cost})"
    );
}

#[test]
fn unsynchronized_cross_thread_nvm_write_is_flagged() {
    let checker = InvariantChecker::new();
    let log = checker.log();
    let _guard = sanitize::install(Box::new(checker));
    let mut m = Machine::new(MachineConfig::small()).expect("machine boots");
    let line = m.hw.mc.layout().range(MemKind::Nvm).base;
    assert!(log.is_empty(), "boot must be clean: {:?}", log.snapshot());

    // Seeded bug: two simulated threads store to the same NVM line with no
    // persist barrier or lock between them.
    m.hw.mc.store_bytes(line, &[0xAA; 8], m.now());
    let prev = sanitize::set_current_thread(ThreadId(7));
    m.hw.mc.store_bytes(line, &[0xBB; 8], m.now());
    sanitize::set_current_thread(prev);

    let races: Vec<_> = log
        .snapshot()
        .into_iter()
        .filter(|v| matches!(v, Violation::RacyNvmWrite { .. }))
        .collect();
    assert_eq!(races.len(), 1, "expected exactly one race, got {races:?}");
    match &races[0] {
        Violation::RacyNvmWrite { line: l, first, second, .. } => {
            assert_eq!(*l, line.as_u64());
            assert_eq!(*first, ThreadId::MAIN);
            assert_eq!(*second, ThreadId(7));
        }
        other => panic!("unexpected violation {other:?}"),
    }
}

#[test]
fn barrier_between_threads_silences_the_race_rule() {
    let checker = InvariantChecker::new();
    let log = checker.log();
    let _guard = sanitize::install(Box::new(checker));
    let mut m = Machine::new(MachineConfig::small()).expect("machine boots");
    let line = m.hw.mc.layout().range(MemKind::Nvm).base;

    m.hw.mc.store_bytes(line, &[0xAA; 8], m.now());
    // An explicit drain orders the epochs: the second write happens-after.
    sanitize::emit(|| sanitize::Event::NvmDrain { cycle: m.now().as_u64() });
    let prev = sanitize::set_current_thread(ThreadId(7));
    m.hw.mc.store_bytes(line, &[0xBB; 8], m.now());
    sanitize::set_current_thread(prev);

    assert!(
        !log.snapshot().iter().any(|v| matches!(v, Violation::RacyNvmWrite { .. })),
        "barriered writes must not race: {:?}",
        log.snapshot()
    );
}
