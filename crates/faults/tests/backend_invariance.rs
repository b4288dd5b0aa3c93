//! Backend invariance of the crash sweeps.
//!
//! The far-tier backend travels in the run context with the media-fault
//! model: installed by the bench harness (`--backend`), resolved into each
//! machine's config by `Machine::new`, and carried onto every sweep worker
//! by `par_map`. Three properties must hold:
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

use kindle_faults::{run_data_integrity_sweep_jobs, run_nvm_write_sweep_jobs, run_sweep_jobs};
use kindle_mem::Backend;
use kindle_os::PtMode;
use kindle_sim::RunContext;
use kindle_types::KindleError;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

#[test]
fn nvm_write_sweep_digest_is_backend_pcm_invariant_at_any_jobs() {
    let direct = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1).unwrap();
    let _ctx = RunContext { backend: Some(Backend::Pcm), ..RunContext::default() }.install();
    for jobs in [1, 8] {
        let pcm = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, jobs).unwrap();
        assert_eq!(direct, pcm, "jobs={jobs}: backend=pcm diverged from the direct sweep");
    }
}

#[test]
fn checkpoint_sweep_digest_is_backend_pcm_invariant() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let direct = run_sweep_jobs(mode, SEED, 1).unwrap();
        let _ctx = RunContext { backend: Some(Backend::Pcm), ..RunContext::default() }.install();
        let pcm = run_sweep_jobs(mode, SEED, 1).unwrap();
        assert_eq!(direct, pcm, "{mode:?}: backend=pcm changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_runs_green_under_numa_backend_at_any_jobs() {
    // No wear, no stuck cells, no ECP — the sweep's crash/recovery
    // machinery must still work, and stay jobs-invariant.
    let default_backend = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1).unwrap();
    let _ctx = RunContext { backend: Some(Backend::Numa), ..RunContext::default() }.install();
    let serial = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1).unwrap();
    let parallel = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 8).unwrap();
    // The digests differ across backends, so a worker that dropped the
    // context would run PCM and break the serial/parallel equality below:
    // this is the end-to-end check that `par_map` carries the context.
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
    let _ctx = RunContext { backend: Some(Backend::Numa), ..RunContext::default() }.install();
    for jobs in [1, 4] {
        let out = std::panic::catch_unwind(|| run_data_integrity_sweep_jobs(0xDA7A, 3, jobs))
            .unwrap_or_else(|_| panic!("jobs={jobs}: the grid panicked under numa"));
        assert!(
            matches!(out, Err(KindleError::InvalidArgument(_))),
            "jobs={jobs}: want InvalidArgument, got {out:?}"
        );
    }
}
