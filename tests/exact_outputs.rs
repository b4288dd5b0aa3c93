//! Pins exact simulated outputs of the paper-facing library entry points.
//!
//! A host-speed change to any layer (caches, memory controller, kernel,
//! snapshot fork) must leave every simulated number bit-identical. These
//! pins make that a test: the Fig. 4a quick rows are compared as
//! `f64::to_bits`, and the NVM-write crash sweep at stride 199 is compared
//! by its digest, which folds every observable of every crash point.

use kindle::experiments::{run_fig4a, Fig4aParams};
use kindle::prelude::PtMode;
use kindle_faults::run_nvm_write_sweep_jobs;

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
            let out = run_nvm_write_sweep_jobs(mode, seed, 199, 1).expect("sweep runs");
            assert_eq!(out.digest, want, "{mode:?} stride-199 sweep digest, seed {seed}");
        }
    }
}
