//! Pins exact simulated outputs of the paper-facing library entry points.
//!
//! A host-speed change to any layer (caches, memory controller, kernel,
//! snapshot fork) must leave every simulated number bit-identical. These
//! pins make that a test: the Fig. 4a quick rows are compared as
//! `f64::to_bits`, and the crash sweeps (checkpoint boundaries, threaded
//! and stuck-cell boundaries, NVM writes at stride 199 under every registry
//! backend, the data-integrity grid) are compared by their digests, which
//! fold every observable of every crash point. The stride-199 sweep's
//! snapshot-pool telemetry is pinned too.

use kindle::experiments::{run_fig4a, Fig4aParams};
use kindle::mem::Backend;
use kindle::prelude::PtMode;
use kindle::sim::RunContext;
use kindle_faults::{
    run_data_integrity_sweep_strategy, run_nvm_write_sweep_instrumented, run_stuck_sweep_strategy,
    run_sweep_strategy, SweepStrategy, SweepTelemetry,
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
            let (out, _) =
                run_nvm_write_sweep_instrumented(mode, seed, 199, 1, SweepStrategy::SnapshotFork)
                    .expect("sweep runs");
            assert_eq!(out.digest, want, "{mode:?} stride-199 sweep digest, seed {seed}");
        }
    }
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
    for (mode, want) in [(PtMode::Rebuild, rebuild), (PtMode::Persistent, persistent)] {
        let out =
            run_sweep_strategy(mode, 0x00c0_ffee_4b1d_0001, false, 1, SweepStrategy::SnapshotFork)
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
    let seed = 0x00c0_ffee_4b1d_0001;
    let out = run_sweep_strategy(PtMode::Rebuild, seed, true, 1, SweepStrategy::SnapshotFork)
        .expect("sweep runs");
    assert_eq!((out.boundaries, out.recovered, out.digest), threaded, "threaded sweep");
    let out =
        run_stuck_sweep_strategy(PtMode::Persistent, seed, 4096, 1, SweepStrategy::SnapshotFork)
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
    let (out, t) =
        run_nvm_write_sweep_instrumented(PtMode::Rebuild, 11, 199, 1, SweepStrategy::SnapshotFork)
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
    let out = run_data_integrity_sweep_strategy(0xDA7A, 3, 1, SweepStrategy::SnapshotFork)
        .expect("grid runs");
    assert_eq!(out.digest, 0x4c03_c2eb_179b_7a4a, "data-integrity grid digest");
}

/// The stride-199 NVM-write sweep at seed 11 under every registry backend,
/// selected through the run context as `--backend` does. `pcm` is the
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
        let _ctx = RunContext { backend: Some(backend), ..RunContext::default() }.install();
        for (mode, want) in [(PtMode::Rebuild, rebuild), (PtMode::Persistent, persistent)] {
            let (out, _) =
                run_nvm_write_sweep_instrumented(mode, 11, 199, 1, SweepStrategy::SnapshotFork)
                    .expect("sweep runs");
            assert_eq!(out.digest, want, "{name} {mode:?} stride-199 sweep digest");
        }
    }
}
