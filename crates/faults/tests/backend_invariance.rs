//! Backend invariance of the crash sweeps.
//!
//! The far-tier backend travels in the sweep's `RunSettings` with the
//! media-fault model and the worker count: the bench harness builds them
//! from `--backend`, and the sweep resolves them into the machine config
//! every golden run and crash point boots from. Three properties must
//! hold:
//!
//! 1. `--backend pcm` is byte-identical to not passing the flag — the
//!    PCM instance is an observation-equivalence refactor — at any
//!    worker count.
//! 2. A backend with *no* media-fault machinery (NUMA-remote DRAM)
//!    still runs the full crash sweep green and jobs-invariantly: the
//!    fault plumbing must degrade gracefully, not assume PCM.
//! 3. A grid that needs a media-fault model (the data-integrity grid
//!    seeds stuck cells) refuses such a backend with an error rather
//!    than a panic.

use kindle_faults::SweepStrategy::SnapshotFork;
use kindle_faults::{
    run_data_integrity_sweep_strategy, run_nvm_write_sweep, run_sweep_strategy, SweepOutcome,
};
use kindle_mem::Backend;
use kindle_os::PtMode;
use kindle_sim::RunSettings;
use kindle_types::KindleError;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

/// Settings with `backend` (unset when `None`) on `jobs` workers.
fn on(backend: Option<Backend>, jobs: usize) -> RunSettings {
    RunSettings { backend, jobs, ..RunSettings::default() }
}

/// The persistent-mode stride-199 NVM-write sweep under `run`.
fn write_sweep(run: RunSettings) -> SweepOutcome {
    run_nvm_write_sweep(PtMode::Persistent, SEED, 199, run, SnapshotFork).unwrap().0
}

#[test]
fn nvm_write_sweep_digest_is_backend_pcm_invariant_at_any_jobs() {
    let direct = write_sweep(on(None, 1));
    for jobs in [1, 8] {
        let pcm = write_sweep(on(Some(Backend::Pcm), jobs));
        assert_eq!(direct, pcm, "jobs={jobs}: backend=pcm diverged from the direct sweep");
    }
}

#[test]
fn checkpoint_sweep_digest_is_backend_pcm_invariant() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let sweep = |run| run_sweep_strategy(mode, SEED, false, run, SnapshotFork);
        let direct = sweep(on(None, 1)).unwrap();
        let pcm = sweep(on(Some(Backend::Pcm), 1)).unwrap();
        assert_eq!(direct, pcm, "{mode:?}: backend=pcm changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_runs_green_under_numa_backend_at_any_jobs() {
    // No wear, no stuck cells, no ECP — the sweep's crash/recovery
    // machinery must still work, and stay jobs-invariant.
    let default_backend = write_sweep(on(None, 1));
    let serial = write_sweep(on(Some(Backend::Numa), 1));
    let parallel = write_sweep(on(Some(Backend::Numa), 8));
    // The digests differ across backends, so a worker that dropped the
    // backend would run PCM and break the serial/parallel equality below.
    assert_ne!(serial.digest, default_backend.digest, "numa must change the sweep digest");
    assert_eq!(serial, parallel, "numa sweep must be jobs-invariant");
    assert!(serial.boundaries > 0, "sweep must exercise crash points");
    // As on PCM, points before the first durable checkpoint cannot
    // recover; the graceful-degradation claim is that recovery still
    // works at all, not that the recovery profile matches PCM's.
    assert!(serial.recovered > 0, "no crash point recovered: {serial:?}");
}

#[test]
fn data_integrity_grid_errs_without_a_media_model() {
    // NUMA-remote DRAM has no media-fault model to seed stuck cells into;
    // the grid must say so on every worker instead of panicking.
    for jobs in [1, 4] {
        let out = std::panic::catch_unwind(|| {
            let run = on(Some(Backend::Numa), jobs);
            run_data_integrity_sweep_strategy(0xDA7A, 3, run, SnapshotFork)
        })
        .unwrap_or_else(|_| panic!("jobs={jobs}: the grid panicked under numa"));
        assert!(
            matches!(out, Err(KindleError::InvalidArgument(_))),
            "jobs={jobs}: want InvalidArgument, got {out:?}"
        );
    }
}
