//! The acceptance harness for the fault subsystem: crash at *every*
//! persist-boundary event of a checkpointed workload, tear the in-flight
//! write buffer, recover, and verify — under both page-table schemes —
//! that the machine comes back to exactly the last durable checkpoint with
//! zero sanitizer violations, and that the whole sweep is byte-for-byte
//! deterministic per seed.

use kindle_faults::SweepStrategy::{ReplayFromZero, SnapshotFork};
use kindle_faults::{
    run_data_integrity_sweep_strategy, run_nvm_write_sweep_instrumented, run_stuck_sweep_strategy,
    run_sweep_strategy, SweepOutcome,
};
use kindle_os::PtMode;
use kindle_sim::RunSettings;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

/// Fault-free settings on the default far tier with `jobs` workers.
fn workers(jobs: usize) -> RunSettings {
    RunSettings { jobs, ..RunSettings::default() }
}

/// The forked boundary sweep on four workers (any count gives the
/// identical outcome; the jobs-invariance tests below pin that).
fn sweep(mode: PtMode, seed: u64, threaded: bool) -> SweepOutcome {
    run_sweep_strategy(mode, seed, threaded, workers(4), SnapshotFork).unwrap()
}

/// The forked stride-199 NVM-write sweep (Rebuild) on `jobs` workers.
fn write_sweep(jobs: usize) -> SweepOutcome {
    run_nvm_write_sweep_instrumented(PtMode::Rebuild, SEED, 199, jobs, SnapshotFork).unwrap().0
}

/// The forked 4096-cell stuck sweep (Persistent) on `jobs` workers.
fn stuck_sweep(jobs: usize) -> SweepOutcome {
    run_stuck_sweep_strategy(PtMode::Persistent, SEED, 4096, workers(jobs), SnapshotFork).unwrap()
}

#[test]
fn rebuild_sweep_recovers_every_boundary_deterministically() {
    let first = sweep(PtMode::Rebuild, SEED, false);
    assert!(first.boundaries > 10, "sweep too small: {first:?}");
    assert!(first.recovered > 0, "no boundary recovered a process: {first:?}");
    // Early boundaries precede the first publish, so some runs must lose
    // the (never-checkpointed) process — that path is part of the sweep.
    assert!(first.recovered < first.boundaries, "every boundary recovered: {first:?}");

    let second = sweep(PtMode::Rebuild, SEED, false);
    assert_eq!(first, second, "same seed must reproduce the sweep bit-for-bit");
}

#[test]
fn persistent_sweep_recovers_every_boundary_deterministically() {
    let first = sweep(PtMode::Persistent, SEED, false);
    assert!(first.boundaries > 10, "sweep too small: {first:?}");
    assert!(first.recovered > 0, "no boundary recovered a process: {first:?}");

    let second = sweep(PtMode::Persistent, SEED, false);
    assert_eq!(first, second, "same seed must reproduce the sweep bit-for-bit");
}

#[test]
fn different_seeds_still_recover_consistently() {
    // The tear split differs per seed, but the recovered checkpoint and
    // violation count are seed-independent — only the digest may move.
    let a = sweep(PtMode::Rebuild, 1, false);
    let b = sweep(PtMode::Rebuild, 2, false);
    assert_eq!(a.boundaries, b.boundaries);
    assert_eq!(a.recovered, b.recovered);
}

#[test]
fn threaded_sweep_replays_interleavings_deterministically() {
    // With checkpoints on the daemon kthread, the thread interleaving is
    // part of what the seed pins: two runs must agree bit-for-bit, and the
    // boundary structure must match the single-threaded sweep (thread
    // switches are not persist boundaries).
    let single = sweep(PtMode::Rebuild, SEED, false);
    let first = sweep(PtMode::Rebuild, SEED, true);
    assert_eq!(first.boundaries, single.boundaries, "kthreads must not add/remove boundaries");
    assert_eq!(first.recovered, single.recovered, "kthreads must not change durability");

    let second = sweep(PtMode::Rebuild, SEED, true);
    assert_eq!(first, second, "same seed must reproduce the threaded sweep bit-for-bit");
}

#[test]
fn nvm_write_sweep_strided_smoke() {
    // A strided pass over write-granular crash points: quick enough for
    // the tier-1 test job; the exhaustive stride-1 run is CI tier 2 (the
    // `sweep` job runs it serial vs parallel via the bench sweep binary).
    let first = write_sweep(4);
    assert!(first.boundaries > 3, "stride too coarse to exercise the sweep: {first:?}");
    let second = write_sweep(4);
    assert_eq!(first, second, "same seed must reproduce the write sweep bit-for-bit");
}

#[test]
fn nvm_write_sweep_is_jobs_invariant() {
    let serial = write_sweep(1);
    let parallel = write_sweep(8);
    assert_eq!(serial, parallel, "jobs=1 vs jobs=8 must agree bit-for-bit");
}

#[test]
fn stuck_cell_sweep_recovers_and_is_jobs_invariant() {
    // The scrubbed machine: thousands of randomly seeded stuck cells, a
    // two-entry ECP budget, scrubd armed — and the full crash/recovery
    // sweep still holds at every persist boundary, with the scrub/media
    // counters folded into the digest so the fault path itself is pinned
    // by the determinism check.
    let plain = sweep(PtMode::Persistent, SEED, false);
    let serial = stuck_sweep(1);
    assert_eq!(serial.boundaries, plain.boundaries, "stuck cells must not move boundaries");
    assert_eq!(serial.recovered, plain.recovered, "stuck cells must not change durability");

    let parallel = stuck_sweep(8);
    assert_eq!(serial, parallel, "jobs=1 vs jobs=8 must agree bit-for-bit");
}

// --- Snapshot-fork vs replay-from-zero cross-checks -------------------
//
// The sweep's O(n) tier forks each crash point from a golden-run machine
// snapshot. These tests pin the whole point of `Machine::snapshot`: the
// forked execution must be *indistinguishable* from re-executing the
// prefix from cycle 0 — same recovered set, same digest, byte for byte —
// for every sweep family. Any state the snapshot missed (a cache line, a
// TLB entry, the media RNG, the write-buffer undo map, the resolved
// fault model) would surface here as a digest mismatch.

#[test]
fn forked_boundary_sweep_matches_replay_from_zero() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let forked = run_sweep_strategy(mode, SEED, false, workers(4), SnapshotFork).unwrap();
        let replayed = run_sweep_strategy(mode, SEED, false, workers(4), ReplayFromZero).unwrap();
        assert_eq!(forked, replayed, "{mode:?}: forked digest must match full replay");
    }
}

#[test]
fn forked_threaded_sweep_matches_replay_from_zero() {
    let forked = run_sweep_strategy(PtMode::Rebuild, SEED, true, workers(4), SnapshotFork).unwrap();
    let replayed =
        run_sweep_strategy(PtMode::Rebuild, SEED, true, workers(4), ReplayFromZero).unwrap();
    assert_eq!(forked, replayed, "kthread state must round-trip through snapshots");
}

#[test]
fn forked_stuck_sweep_matches_replay_from_zero() {
    // The hardest state to capture: media fault RNG, stuck-cell map, ECP
    // correction directory and scrubd progress all live below the OS.
    let forked =
        run_stuck_sweep_strategy(PtMode::Persistent, SEED, 4096, workers(4), SnapshotFork).unwrap();
    let replayed =
        run_stuck_sweep_strategy(PtMode::Persistent, SEED, 4096, workers(4), ReplayFromZero)
            .unwrap();
    assert_eq!(forked, replayed, "media/scrub state must round-trip through snapshots");
}

#[test]
fn forked_nvm_write_sweep_matches_replay_from_zero() {
    let (forked, telemetry) =
        run_nvm_write_sweep_instrumented(PtMode::Rebuild, SEED, 151, 4, SnapshotFork).unwrap();
    let (replayed, _) =
        run_nvm_write_sweep_instrumented(PtMode::Rebuild, SEED, 151, 4, ReplayFromZero).unwrap();
    assert_eq!(forked, replayed, "write-granular forks must match full replay");
    // The fork tier really ran on snapshots: the pool was populated and
    // stayed within its bound.
    assert!(telemetry.snapshots_retained > 0, "no snapshots recorded: {telemetry:?}");
    assert!(telemetry.pool_high_water <= telemetry.pool_capacity, "pool overflow: {telemetry:?}");
}

#[test]
fn round_tripped_data_integrity_sweep_matches_straight_run() {
    // The data-integrity grid has no shared prefix to fork; its strategy
    // cross-check instead runs each point's patrol/kill tail on a machine
    // that made a snapshot→restore round trip right after fault seeding.
    let forked = run_data_integrity_sweep_strategy(SEED, 6, workers(4), SnapshotFork).unwrap();
    let replayed = run_data_integrity_sweep_strategy(SEED, 6, workers(4), ReplayFromZero).unwrap();
    assert_eq!(forked, replayed, "snapshot round trip must be invisible to patrol/poison");
}

#[test]
fn forked_sweep_is_jobs_invariant() {
    // Workers fork from shared snapshots; one worker and eight must agree
    // bit-for-bit.
    let serial =
        run_sweep_strategy(PtMode::Rebuild, SEED, false, workers(1), SnapshotFork).unwrap();
    let parallel =
        run_sweep_strategy(PtMode::Rebuild, SEED, false, workers(8), SnapshotFork).unwrap();
    assert_eq!(serial, parallel, "forked sweep jobs=1 vs jobs=8 must agree bit-for-bit");
}
