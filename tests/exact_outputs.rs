//! Pins exact simulated outputs of the paper-facing library entry points.
//!
//! A host-speed change to any layer (caches, memory controller, kernel,
//! snapshot fork) must leave every simulated number bit-identical. These
//! pins make that a test: the Fig. 4a quick rows (and, in release builds,
//! the Fig. 6 quick rows) are compared as `f64::to_bits`, and the crash sweeps (checkpoint boundaries, threaded
//! and stuck-cell boundaries, NVM writes at stride 199 under every registry
//! backend, the data-integrity grid) are compared by their digests, which
//! fold every observable of every crash point; the exhaustive stride-1
//! sweep is pinned in release builds. The stride-199 sweep's
//! snapshot-pool telemetry is pinned too, as are every registry backend's
//! far-tier parameters and its quick backend-grid row, three runs with all
//! four kernel daemons armed, a crash and reboot of one of them, and the
//! time split of one syscall program run through every kernel entry.

use kindle::experiments::{run_backend_grid, run_fig4a, BackendGridParams, Fig4aParams};
use kindle::mem::{Backend, MediaFaultConfig, MemConfig, MemoryController};
use kindle::os::{PatrolStats, ScrubStats};
use kindle::prelude::{
    AccessKind, Cycles, HsccConfig, Machine, MachineConfig, MapFlags, MemKind, Prot, PtMode,
    ReplayOptions, ReplayProgram, SspConfig, VirtAddr,
};
use kindle::sim::RunSettings;
use kindle::trace::{AreaId, AreaKind, MemoryLayout, TraceImage, TraceRecord};
use kindle::types::{KindleError, PhysMem, Rng64, PAGE_SIZE};
use kindle_faults::SweepStrategy::SnapshotFork;
use kindle_faults::{
    run_data_integrity_sweep_strategy, run_nvm_write_sweep, run_nvm_write_sweep_instrumented,
    run_stuck_sweep_strategy, run_sweep_strategy, SweepTelemetry,
};

#[test]
fn fig4a_quick_rows_are_pinned() {
    let rows = run_fig4a(&Fig4aParams::quick()).expect("fig4a quick runs");
    let bits: Vec<(u64, u64, u64)> = rows
        .iter()
        .map(|r| (r.size_mb, r.rebuild_ms.to_bits(), r.persistent_ms.to_bits()))
        .collect();
    assert_eq!(
        bits,
        [
            (16, 4_623_438_898_181_200_273, 4_616_702_225_270_345_089),
            (32, 4_631_074_164_004_955_546, 4_621_173_477_418_092_027),
        ],
        "fig4a quick rows as (size_mb, rebuild_ms bits, persistent_ms bits)"
    );
}

/// The Fig. 6 quick rows as `(threshold, hw_only_ms bits, with_os_ms bits,
/// pages_migrated, copybacks)`. Release profile only: debug builds already
/// run this grid in `fig6_quick_shapes`, and it takes several seconds in
/// release.
#[cfg(not(debug_assertions))]
#[test]
fn fig6_quick_rows_are_pinned() {
    use kindle::experiments::{run_fig6, Fig6Params};
    let rows = run_fig6(&Fig6Params::quick()).expect("fig6 quick runs");
    let got: Vec<(u64, u64, u64, u64, u64)> = rows
        .iter()
        .map(|r| {
            let (hw, os) = (r.hw_only_ms.to_bits(), r.with_os_ms.to_bits());
            (r.threshold, hw, os, r.pages_migrated, r.copybacks)
        })
        .collect();
    assert_eq!(
        got,
        [
            (5, 4_649_599_773_989_439_703, 4_651_037_156_193_116_416, 6520, 4793),
            (50, 4_649_603_041_673_492_771, 4_649_882_526_454_992_315, 19, 0),
        ],
        "fig6 quick rows as (threshold, hw_only_ms bits, with_os_ms bits, migrated, copybacks)"
    );
}

/// The sweep workload runs fewer analysis passes in debug builds
/// (`ANALYZE_PASSES` in `crates/faults/src/sweep.rs`), so each build
/// profile has its own digests.
#[test]
fn nvm_write_sweep_digests_are_pinned() {
    let (rebuild, persistent) = if cfg!(debug_assertions) {
        (0xfd16_8b26_e802_9841, 0x9d93_75f7_909f_17a2)
    } else {
        (0x79ca_0e39_3c93_1cde, 0x53e5_153f_9bcc_6fcc)
    };
    for seed in [11, 29] {
        for (mode, want) in [(PtMode::Rebuild, rebuild), (PtMode::Persistent, persistent)] {
            let (out, _) = run_nvm_write_sweep_instrumented(mode, seed, 199, 1, SnapshotFork)
                .expect("sweep runs");
            assert_eq!(out.digest, want, "{mode:?} stride-199 sweep digest, seed {seed}");
        }
    }
}

/// The exhaustive stride-1 NVM-write sweep, one crash point per NVM line
/// write, as `(seed, scheme, (points, recovered, digest))`. Release profile
/// only: the four sweeps take about 40 s in a debug build, while release
/// runs them in about 3 s (`scripts/check.sh` and CI run this suite in
/// release).
#[cfg(not(debug_assertions))]
#[test]
fn stride1_nvm_write_sweep_digests_are_pinned() {
    let pins = [
        (11, PtMode::Rebuild, (963, 651, 0xd618_ee7d_1aac_9bbd)),
        (11, PtMode::Persistent, (1826, 647, 0x9e55_be22_40d3_f4bb)),
        (29, PtMode::Rebuild, (963, 651, 0x24d8_e2a9_a152_f8c0)),
        (29, PtMode::Persistent, (1826, 647, 0xf267_442e_c59f_24b4)),
    ];
    let got: Vec<_> = pins
        .iter()
        .map(|&(seed, mode, _)| {
            let (out, _) = run_nvm_write_sweep_instrumented(mode, seed, 1, 1, SnapshotFork)
                .expect("sweep runs");
            (seed, mode, (out.boundaries, out.recovered, out.digest))
        })
        .collect();
    assert_eq!(got, pins, "stride-1 sweep as (seed, scheme, (points, recovered, digest))");
}

/// The checkpoint-boundary sweep of both schemes. Its workload also runs
/// `ANALYZE_PASSES` analysis passes, so the digests are per build profile.
#[test]
fn checkpoint_sweep_digests_are_pinned() {
    let (rebuild, persistent) = if cfg!(debug_assertions) {
        (0xdd47_8153_442d_d890, 0xd08e_99d7_cd4b_c0a6)
    } else {
        (0x2d10_2d22_c14f_ea0f, 0x21fe_3cda_8429_3441)
    };
    let serial = RunSettings::default();
    for (mode, want) in [(PtMode::Rebuild, rebuild), (PtMode::Persistent, persistent)] {
        let out = run_sweep_strategy(mode, 0x00c0_ffee_4b1d_0001, false, serial, SnapshotFork)
            .expect("sweep runs");
        assert_eq!(out.digest, want, "{mode:?} checkpoint sweep digest");
    }
}

/// The checkpoint-boundary sweep with every checkpoint on the daemon
/// kthread, and the stuck-cell sweep (4096 stuck cells, ECP and scrubd
/// armed, so its digest also folds the scrub and correction counters).
/// Each pin is `(boundaries, recovered, digest)`, per build profile.
#[test]
fn threaded_and_stuck_sweeps_are_pinned() {
    let (threaded, stuck) = if cfg!(debug_assertions) {
        ((21, 17, 0xfbdb_6763_b491_59d8), (21, 17, 0x0d9f_05d8_d803_4394))
    } else {
        ((21, 17, 0xb617_005b_837e_50e5), (21, 17, 0x5197_10c6_9b90_f579))
    };
    let (seed, serial) = (0x00c0_ffee_4b1d_0001, RunSettings::default());
    let out =
        run_sweep_strategy(PtMode::Rebuild, seed, true, serial, SnapshotFork).expect("sweep runs");
    assert_eq!((out.boundaries, out.recovered, out.digest), threaded, "threaded sweep");
    let out = run_stuck_sweep_strategy(PtMode::Persistent, seed, 4096, serial, SnapshotFork)
        .expect("sweep runs");
    assert_eq!((out.boundaries, out.recovered, out.digest), stuck, "stuck sweep");
}

/// The stride-199 NVM-write sweep's crash-point count, recoveries and the
/// snapshot pool's telemetry (Rebuild, seed 11), per build profile.
#[test]
fn nvm_write_sweep_telemetry_is_pinned() {
    let (points, telemetry) = if cfg!(debug_assertions) {
        ((5, 3), [21, 963, 46, 23, 32, 32, 2])
    } else {
        ((5, 3), [21, 963, 190, 24, 32, 32, 8])
    };
    let (out, t) = run_nvm_write_sweep_instrumented(PtMode::Rebuild, 11, 199, 1, SnapshotFork)
        .expect("sweep runs");
    assert_eq!((out.boundaries, out.recovered), points, "crash points and recoveries");
    let [boundaries, nvm_writes, offered, retained, high_water, capacity, stride] = telemetry;
    let want = SweepTelemetry {
        boundaries,
        nvm_writes,
        snapshots_offered: offered,
        snapshots_retained: retained,
        pool_high_water: high_water,
        pool_capacity: capacity,
        pool_stride: stride,
    };
    assert_eq!(t, want, "snapshot-pool telemetry");
}

/// The data-integrity grid (three stuck cells) has no analysis passes, so
/// both build profiles share one digest.
#[test]
fn data_integrity_sweep_digest_is_pinned() {
    let serial = RunSettings::default();
    let out =
        run_data_integrity_sweep_strategy(0xDA7A, 3, serial, SnapshotFork).expect("grid runs");
    assert_eq!(out.digest, 0x4c03_c2eb_179b_7a4a, "data-integrity grid digest");
}

/// The stride-199 NVM-write sweep at seed 11 under every registry backend,
/// selected through the run settings as `--backend` does. `pcm` is the
/// default backend, so its digests equal [`nvm_write_sweep_digests_are_pinned`]'s.
#[test]
fn nvm_write_sweep_digests_are_pinned_per_backend() {
    let pins: [(&str, u64, u64); 6] = if cfg!(debug_assertions) {
        [
            ("pcm", 0xfd16_8b26_e802_9841, 0x9d93_75f7_909f_17a2),
            ("numa", 0x32da_2978_2252_7fe4, 0xce8f_ab91_5ae3_7096),
            ("sttram", 0xaa2d_6456_eba6_152c, 0xaf3e_9376_8906_310b),
            ("cxl", 0x83ba_318c_cbfe_bc6f, 0xc9ff_d7e2_a28c_f76b),
            ("reram", 0x052a_bdb2_0511_3b56, 0xca56_2074_5f58_9587),
            ("optane", 0x80f6_3daa_f135_bd9a, 0xdd30_e054_febb_23e6),
        ]
    } else {
        [
            ("pcm", 0x79ca_0e39_3c93_1cde, 0x53e5_153f_9bcc_6fcc),
            ("numa", 0x7591_5ec1_8a15_d745, 0x677b_11d3_838c_5e58),
            ("sttram", 0xb71d_cec9_5b1f_8b35, 0x1513_3819_9b36_ae65),
            ("cxl", 0x2f7d_6101_1c77_c944, 0x0e77_f566_b301_9147),
            ("reram", 0x38d6_c2b3_1008_009b, 0xa852_508f_8cbd_5507),
            ("optane", 0x50f1_4a0b_a945_a267, 0xd21f_81e0_47da_5ca0),
        ]
    };
    let names: Vec<&str> = Backend::registry().iter().map(|b| b.name()).collect();
    let pinned: Vec<&str> = pins.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "every registry backend is pinned, in registry order");
    for (&backend, (name, rebuild, persistent)) in Backend::registry().iter().zip(pins) {
        let run = RunSettings { backend: Some(backend), ..RunSettings::default() };
        for (mode, want) in [(PtMode::Rebuild, rebuild), (PtMode::Persistent, persistent)] {
            let (out, _) =
                run_nvm_write_sweep(mode, 11, 199, run, SnapshotFork).expect("sweep runs");
            assert_eq!(out.digest, want, "{name} {mode:?} stride-199 sweep digest");
        }
    }
}

/// One registry backend's far-tier row: name, label, the seven `NvmConfig`
/// timing fields (read, write service, write buffer, write banks, read
/// buffer, buffer insert, forward), read/write latency in ns, the idle
/// NVM read and write latency in cycles measured through a fresh
/// `MemoryController`, patrol capability, NVM-technology membership, and
/// what the fault filter keeps of `MediaFaultConfig::with_seed(9)` (seed,
/// wear limit, stuck cells, retries, backoff, correction entries).
type BackendSpec =
    (&'static str, &'static str, [u64; 7], (u64, u64), (u64, u64), bool, bool, Option<[u64; 6]>);

fn backend_spec(b: Backend) -> BackendSpec {
    let t = b.timing();
    let timing = [
        t.read_ns,
        t.write_service_ns,
        t.write_buffer as u64,
        t.write_banks as u64,
        t.read_buffer as u64,
        t.buffer_insert_ns,
        t.forward_ns,
    ];
    let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
    cfg.backend = Some(b);
    let nvm_pa = cfg.layout.range(MemKind::Nvm).base + 0x1000;
    let idle = |kind| MemoryController::new(&cfg).access(nvm_pa, kind, Cycles::ZERO).as_u64();
    let faults = b.fault_model(Some(MediaFaultConfig::with_seed(9))).map(|f| {
        [
            f.seed,
            f.wear_limit,
            f.stuck_cells as u64,
            u64::from(f.retry_limit),
            f.retry_backoff_ns,
            u64::from(f.correction_entries),
        ]
    });
    (
        b.name(),
        b.label(),
        timing,
        (b.read_latency_ns(), b.write_latency_ns()),
        (idle(AccessKind::Read), idle(AccessKind::Write)),
        b.patrol_capable(),
        b.is_nvm_technology(),
        faults,
    )
}

#[test]
fn backend_specs_are_pinned() {
    let got: Vec<BackendSpec> = Backend::registry().iter().map(|&b| backend_spec(b)).collect();
    let with_seed_9 = Some([9, 4096, 4, 3, 200, 0]);
    let want: [BackendSpec; 6] = [
        (
            "pcm",
            "PCM",
            [150, 500, 48, 8, 64, 10, 30],
            (150, 500),
            (450, 30),
            true,
            true,
            with_seed_9,
        ),
        (
            "numa",
            "NUMA-remote-DRAM",
            [130, 130, 48, 16, 64, 10, 30],
            (130, 130),
            (390, 30),
            false,
            false,
            None,
        ),
        (
            "sttram",
            "STT-MRAM",
            [35, 100, 48, 8, 64, 10, 30],
            (35, 100),
            (105, 30),
            true,
            true,
            Some([9, 0, 4, 3, 200, 0]),
        ),
        (
            "cxl",
            "CXL-far-DRAM",
            [85, 85, 48, 16, 64, 10, 30],
            (155, 155),
            (465, 240),
            false,
            false,
            None,
        ),
        (
            "reram",
            "ReRAM",
            [100, 300, 48, 8, 64, 10, 30],
            (100, 300),
            (300, 30),
            true,
            true,
            with_seed_9,
        ),
        (
            "optane",
            "Optane-DC",
            [300, 100, 64, 8, 64, 10, 30],
            (300, 100),
            (900, 30),
            true,
            true,
            with_seed_9,
        ),
    ];
    assert_eq!(got, want, "registry backends' far-tier rows");
}

/// The quick backend grid (one 16 MiB Fig. 4a row per headline backend)
/// as `(name, size_mb, rebuild_ms bits, persistent_ms bits)`.
#[test]
fn backend_grid_rows_are_pinned() {
    let grid = run_backend_grid(&BackendGridParams::quick()).expect("backend grid runs");
    let got: Vec<(&str, u64, u64, u64)> = grid
        .iter()
        .flat_map(|(b, rows)| {
            rows.iter()
                .map(|r| (b.name(), r.size_mb, r.rebuild_ms.to_bits(), r.persistent_ms.to_bits()))
        })
        .collect();
    let want = [
        ("pcm", 16, 4_623_438_898_181_200_273, 4_616_702_225_270_345_089),
        ("numa", 16, 4_621_287_041_687_495_677, 4_616_378_857_809_900_632),
        ("sttram", 16, 4_617_164_858_667_966_630, 4_613_534_845_153_615_295),
        ("cxl", 16, 4_623_639_909_219_868_545, 4_618_175_518_215_744_284),
    ];
    assert_eq!(got, want, "backend grid quick rows");
}

/// One kthread daemon run: `now`, `kthread_switches`, the thread table as
/// `(tid, name, runs)`, and the scrub and patrol counters.
type DaemonRun = (u64, u64, Vec<(u32, &'static str, u64)>, ScrubStats, PatrolStats);

/// The daemon machine's config: the threaded workload of
/// `tests/kthreads.rs` on persistent page tables with all four daemons
/// armed: checkpoints and HSCC scans every 20 µs, scrubd every 50 µs,
/// patrold every 20 µs.
fn daemon_config(hscc_os_mode: bool, kthreads: bool) -> MachineConfig {
    let hscc = HsccConfig {
        fetch_threshold: 3,
        migration_interval: Cycles::from_micros(20),
        pool_pages: 64,
    };
    let cfg = MachineConfig::small()
        .with_pt_mode(PtMode::Persistent)
        .with_checkpointing(Cycles::from_micros(20))
        .with_hscc(hscc, hscc_os_mode)
        .with_scrub_interval(Cycles::from_micros(50))
        .with_patrol_interval(Cycles::from_micros(20));
    if kthreads {
        cfg.with_kthreads()
    } else {
        cfg
    }
}

/// The daemon workload: touches 256 NVM pages, reads the first 16 of
/// them 500 times and checkpoints. Returns the pid and the mapping.
fn daemon_workload(m: &mut Machine) -> (u32, VirtAddr) {
    let pid = m.spawn_process().expect("spawn");
    let page = PAGE_SIZE as u64;
    let va = m.mmap(pid, 256 * page, Prot::RW, MapFlags::NVM).expect("mmap nvm");
    for i in 0..256u64 {
        m.access(pid, va + i * page, AccessKind::Write).expect("touch");
    }
    for round in 0..500u64 {
        m.access(pid, va + (round % 16) * page, AccessKind::Read).expect("hot read");
    }
    m.checkpoint_now().expect("checkpoint");
    (pid, va)
}

fn daemon_state(m: &Machine) -> DaemonRun {
    let report = m.report();
    let table = m.kernel.sched.threads().iter().map(|t| (t.tid.0, t.name, t.runs)).collect();
    (
        m.now().as_u64(),
        report.kthread_switches,
        table,
        report.scrub.expect("scrubd armed"),
        report.patrol.expect("patrold armed"),
    )
}

fn daemon_run(hscc_os_mode: bool, kthreads: bool) -> DaemonRun {
    let mut m = Machine::new(daemon_config(hscc_os_mode, kthreads)).expect("machine boots");
    daemon_workload(&mut m);
    daemon_state(&m)
}

/// Every daemon on its own kthread: OS-mode HSCC with and without
/// kthreads, and hardware-only HSCC with kthreads, where `migrated` stays
/// off the thread table. The kthread ids follow the registration order
/// ckptd, migrated, scrubd, patrold. The runs are the same in both build
/// profiles.
#[test]
fn kthread_daemon_runs_are_pinned() {
    let scrub = |passes, frames_clean| ScrubStats { passes, frames_clean, ..ScrubStats::default() };
    let patrol = |passes, frames| PatrolStats {
        passes,
        frames_checked: frames,
        frames_clean: frames,
        ..PatrolStats::default()
    };
    let want: [DaemonRun; 3] = [
        (
            19_518_170,
            1402,
            vec![
                (0, "main", 701),
                (1, "ckptd", 243),
                (2, "migrated", 200),
                (3, "scrubd", 100),
                (4, "patrold", 158),
            ],
            scrub(100, 400),
            patrol(158, 8772),
        ),
        (18_639_444, 0, vec![(0, "main", 0)], scrub(99, 396), patrol(156, 8719)),
        (
            15_642_664,
            894,
            vec![(0, "main", 447), (1, "ckptd", 202), (2, "scrubd", 82), (3, "patrold", 163)],
            scrub(82, 328),
            patrol(163, 9381),
        ),
    ];
    let got = [daemon_run(true, true), daemon_run(true, false), daemon_run(false, true)];
    assert_eq!(got[0], want[0], "OS-mode HSCC with kthreads");
    assert_eq!(got[1], want[1], "OS-mode HSCC without kthreads");
    assert_eq!(got[2], want[2], "hardware-only HSCC with kthreads");
}

/// A crash and reboot of the daemon machine, then recovery: which of
/// ckptd, migrated, scrubd and patrold are due right after the reboot, the
/// daemon state as in [`DaemonRun`], the TLB shootdowns and the recovered
/// pids.
type RebootRun = ([bool; 4], DaemonRun, u64, Vec<u32>);

/// Runs the daemon workload with kthreads and OS-mode HSCC, crashes,
/// recovers, and continues the recovered process with 200 reads of its
/// pages and a checkpoint. With `fork`, the crash and continuation run on
/// a machine restored from a snapshot taken just before the crash.
fn reboot_run(fork: bool) -> RebootRun {
    let mut m = Machine::new(daemon_config(true, true)).expect("machine boots");
    let (pid, va) = daemon_workload(&mut m);
    if fork {
        m = Machine::restore(&m.snapshot());
    }
    m.crash().expect("reboot");
    // Recovery outlasts every daemon interval, so the continuation alone
    // cannot tell where the rebooted schedules start.
    let now = m.now();
    let due = [
        m.persist.as_ref().is_some_and(|e| e.due(now)),
        m.hscc.as_ref().is_some_and(|e| e.due(now)),
        m.scrub.as_ref().is_some_and(|s| s.due(now)),
        m.patrol.as_ref().is_some_and(|s| s.due(now)),
    ];
    let recovered = m.recover().expect("recovery").recovered_pids;
    let page = PAGE_SIZE as u64;
    for i in 0..200u64 {
        m.access(pid, va + (i % 64) * page, AccessKind::Read).expect("read after recovery");
    }
    m.checkpoint_now().expect("checkpoint after recovery");
    (due, daemon_state(&m), m.tlb_shootdowns(), recovered)
}

/// A crash and reboot with the checkpoint and HSCC engines, scrubd and
/// patrold all armed on kthreads. The reboot rebuilds every engine and
/// re-registers the daemons, so this pins the boot order, the engines'
/// deadlines after a reboot (the checkpoint and HSCC engines keep their
/// absolute first deadline, so both are due at once) and the daemons'
/// schedules, which restart from the post-crash clock. A snapshot fork
/// taken just before the crash must reboot to the same values.
#[test]
fn reboot_with_all_daemons_is_pinned() {
    let want: RebootRun = (
        [true, true, false, false],
        (
            19_998_227,
            26,
            vec![
                (0, "main", 13),
                (1, "ckptd", 5),
                (2, "migrated", 3),
                (3, "scrubd", 2),
                (4, "patrold", 3),
            ],
            ScrubStats { passes: 2, frames_clean: 8, ..ScrubStats::default() },
            PatrolStats {
                passes: 3,
                frames_checked: 192,
                frames_clean: 192,
                ..PatrolStats::default()
            },
        ),
        203,
        vec![1],
    );
    assert_eq!(reboot_run(false), want, "crash and reboot");
    assert_eq!(reboot_run(true), want, "crash and reboot of a snapshot fork");
}

/// The engines one kernel-entry arm arms on `MachineConfig::small()` with
/// persistent page tables.
#[derive(Clone, Copy, Debug)]
enum EntryArm {
    /// Periodic and explicit checkpoints run inline, then crash and recovery.
    Checkpoint,
    /// As `Checkpoint`, with ckptd on its kthread.
    CheckpointKthreads,
    /// An SSP failure-atomic replay after the syscall program.
    SspFase,
    /// HSCC migrations charged to the OS.
    HsccOs,
    /// HSCC migrations with no OS time charged.
    HsccHardwareOnly,
    /// A wear budget of 512 writes per line, with scrubd and patrold armed;
    /// one hammered line fails its frame, which the OS retires by
    /// remapping the page.
    WornMedia,
}

fn entry_config(arm: EntryArm) -> MachineConfig {
    let cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
    let interval = Cycles::from_micros(50);
    let hscc = HsccConfig {
        fetch_threshold: 3,
        migration_interval: Cycles::from_micros(20),
        pool_pages: 64,
    };
    match arm {
        EntryArm::Checkpoint => cfg.with_checkpointing(interval),
        EntryArm::CheckpointKthreads => cfg.with_checkpointing(interval).with_kthreads(),
        EntryArm::SspFase => cfg.with_ssp(SspConfig {
            consistency_interval: Cycles::from_micros(20),
            consolidation_interval: Cycles::from_micros(10),
        }),
        EntryArm::HsccOs => cfg.with_hscc(hscc, true),
        EntryArm::HsccHardwareOnly => cfg.with_hscc(hscc, false),
        EntryArm::WornMedia => {
            let mut cfg =
                cfg.with_scrub_interval(interval).with_patrol_interval(Cycles::from_micros(20));
            cfg.mem.faults = Some(MediaFaultConfig {
                wear_limit: 512,
                stuck_cells: 0,
                ..MediaFaultConfig::with_seed(11)
            });
            cfg
        }
    }
}

/// A two-area trace (32 NVM pages, 4 DRAM pages) of 3000 random 8-byte
/// accesses, a third of them writes.
fn entry_trace() -> ReplayProgram {
    let page = PAGE_SIZE as u64;
    let mut layout = MemoryLayout::new();
    layout.add("heap", AreaKind::Heap, 32 * page, true);
    layout.add("stack.0", AreaKind::Stack, 4 * page, false);
    let mut rng = Rng64::new(0x55f0);
    let records = (0..3000u64)
        .map(|period| {
            let stack = rng.gen_below(4) == 0;
            let size = if stack { 4 * page } else { 32 * page };
            let op = if rng.gen_below(3) == 0 { AccessKind::Write } else { AccessKind::Read };
            TraceRecord {
                period,
                offset: rng.gen_below(size / 8) * 8,
                op,
                size: 8,
                area: AreaId(u16::from(stack)),
            }
        })
        .collect();
    ReplayProgram::from_image(TraceImage::new(layout, records))
}

/// One kernel-entry run: every non-zero activity bucket as `(label,
/// cycles)`, `now`, the TLB shootdowns and the kthread switches.
type EntryRun = (Vec<(&'static str, u64)>, u64, u64, u64);

/// Runs one syscall program through every `Machine` entry: spawn, `mmap`,
/// FIXED `mmap_at`, faulting writes, `mprotect`, `mremap`, a partial
/// `munmap`, `fork` and `checkpoint_now`, then the arm's own tail: a
/// crash, recovery and one more checkpoint, a FASE replay, or hammering one
/// line until its frame fails.
fn entry_run(arm: EntryArm) -> EntryRun {
    let page = PAGE_SIZE as u64;
    let mut m = Machine::new(entry_config(arm)).expect("machine boots");
    let pid = m.spawn_process().expect("spawn");
    let heap = m.mmap(pid, 32 * page, Prot::RW, MapFlags::NVM).expect("mmap");
    let fixed = m
        .mmap_at(pid, Some(VirtAddr::new(0x6000_0000)), 8 * page, Prot::RW, MapFlags::FIXED)
        .expect("mmap_at fixed");
    assert_eq!(fixed, VirtAddr::new(0x6000_0000));
    for i in 0..32 {
        m.access(pid, heap + i * page, AccessKind::Write).expect("fault in heap");
    }
    for i in 0..8 {
        m.access(pid, fixed + i * page, AccessKind::Write).expect("fault in fixed");
    }
    m.mprotect(pid, fixed, 4 * page, Prot::READ).expect("mprotect");
    for i in 0..8 {
        m.access(pid, fixed + i * page, AccessKind::Read).expect("read fixed");
    }
    let moved = m.mremap(pid, heap, 32 * page, 48 * page).expect("mremap");
    for i in 0..48 {
        m.access(pid, moved + i * page, AccessKind::Write).expect("touch moved");
    }
    m.munmap(pid, moved + 8 * page, 8 * page).expect("partial munmap");
    let child = m.fork(pid).expect("fork");
    for i in 0..8 {
        m.access(child, moved + i * page, AccessKind::Write).expect("child write");
    }
    for round in 0..400 {
        m.access(pid, moved + (16 + round % 16) * page, AccessKind::Read).expect("hot read");
    }
    match m.checkpoint_now() {
        Ok(()) => {}
        Err(KindleError::InvalidArgument(_)) if m.persist.is_none() => {}
        Err(e) => panic!("{arm:?}: checkpoint_now: {e}"),
    }
    match arm {
        EntryArm::Checkpoint | EntryArm::CheckpointKthreads => {
            m.crash().expect("reboot");
            let recovered = m.recover().expect("recovery").recovered_pids;
            assert_eq!(recovered, [pid, child], "{arm:?}: both processes recovered");
            for i in 0..100 {
                m.access(child, moved + (i % 8) * page, AccessKind::Read).expect("read recovered");
            }
            m.checkpoint_now().expect("checkpoint after recovery");
        }
        EntryArm::SspFase => {
            let opts = ReplayOptions { fase: true, max_ops: None };
            m.run_replay(pid, &entry_trace(), opts).expect("fase replay");
            assert!(m.ssp.as_ref().expect("ssp").stats().consolidations > 0);
        }
        EntryArm::HsccOs | EntryArm::HsccHardwareOnly => {
            let passes = m.hscc.as_ref().expect("hscc").stats().intervals;
            assert!(m.tlb_shootdowns() >= passes, "{arm:?}: a shootdown per migration pass");
        }
        EntryArm::WornMedia => {
            let pa = m.kernel.translate(&mut m.hw, pid, moved).unwrap().unwrap().pfn().base();
            for i in 0..2_000u64 {
                m.hw.write_u64(pa, i);
                m.hw.clwb(pa);
                m.access(pid, moved, AccessKind::Read).expect("read worn page");
                if m.kernel.stats().frames_retired > 0 {
                    break;
                }
            }
            assert_eq!(m.kernel.stats().frames_retired, 1, "the worn frame is retired");
        }
    }
    let breakdown = m.hw.core.breakdown().iter().map(|(a, c)| (a.label(), c.as_u64())).collect();
    (breakdown, m.now().as_u64(), m.tlb_shootdowns(), m.report().kthread_switches)
}

/// The activity split, clock, shootdowns and kthread switches of one
/// syscall program in six arms, which between them reach every kernel
/// entry of `Machine` and every daemon pass. The runs are the same in both
/// build profiles.
#[test]
fn kernel_entries_are_pinned() {
    let arms = [
        EntryArm::Checkpoint,
        EntryArm::CheckpointKthreads,
        EntryArm::SspFase,
        EntryArm::HsccOs,
        EntryArm::HsccHardwareOnly,
        EntryArm::WornMedia,
    ];
    let want: [EntryRun; 6] = [
        (
            vec![
                ("user", 19_112),
                ("os", 3_718_150),
                ("checkpoint", 99_940),
                ("recovery", 398_332),
            ],
            4_235_534,
            44,
            0,
        ),
        (
            vec![
                ("user", 37_112),
                ("os", 3_718_150),
                ("checkpoint", 93_940),
                ("recovery", 398_332),
            ],
            4_247_534,
            44,
            4,
        ),
        (
            vec![
                ("user", 402_738),
                ("os", 4_832_412),
                ("ssp-interval", 545_540),
                ("ssp-consolidation", 27_000),
            ],
            5_807_690,
            44,
            0,
        ),
        (vec![("user", 14_620), ("os", 3_707_215), ("migration-scan", 515_612)], 4_237_447, 28, 0),
        (vec![("user", 14_184), ("os", 3_711_091)], 3_725_275, 28, 0),
        (vec![("user", 128_548), ("os", 4_559_086)], 4_687_634, 45, 0),
    ];
    for (arm, want) in arms.into_iter().zip(want) {
        assert_eq!(entry_run(arm), want, "{arm:?}");
    }
}
