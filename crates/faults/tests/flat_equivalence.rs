//! Observation equivalence of the flat controller stores.
//!
//! The memory controller's hot-path state (the page store, the NVM
//! checksum table and the two undo logs) lives in direct-indexed flat
//! tables by default, with the original ordered-map implementations kept
//! behind `MemConfig::legacy_maps` (the bench harness's `--legacy-maps`
//! flag). The layouts must be indistinguishable to every observer: these
//! tests run the crash-sweep families and the data-integrity grid under
//! both layouts — serial and parallel — and require the *full* outcome
//! (order-sensitive digest included) to match bit for bit. The legacy
//! request is installed in the run context, which `par_map` carries onto
//! the sweep workers, so one install covers any `jobs` count.

use kindle_faults::{run_data_integrity_sweep_jobs, run_nvm_write_sweep_jobs, run_sweep_jobs};
use kindle_os::PtMode;
use kindle_sim::RunContext;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

#[test]
fn checkpoint_sweep_digest_is_layout_invariant() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let flat = run_sweep_jobs(mode, SEED, 1).unwrap();
        let _ctx = RunContext { legacy_maps: true, ..RunContext::default() }.install();
        let legacy = run_sweep_jobs(mode, SEED, 1).unwrap();
        assert_eq!(flat, legacy, "{mode:?}: legacy maps changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_digest_is_layout_invariant_at_any_jobs() {
    let flat = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1).unwrap();
    for (legacy_maps, jobs) in [(true, 1), (true, 4), (false, 4)] {
        let _ctx = RunContext { legacy_maps, ..RunContext::default() }.install();
        let other = run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, jobs).unwrap();
        assert_eq!(
            flat, other,
            "legacy={legacy_maps} jobs={jobs} diverged from the flat serial sweep"
        );
    }
}

#[test]
fn data_integrity_sweep_digest_is_layout_invariant_at_any_jobs() {
    let flat = run_data_integrity_sweep_jobs(0xDA7A, 3, 1).unwrap();
    let _ctx = RunContext { legacy_maps: true, ..RunContext::default() }.install();
    for jobs in [1, 4] {
        let legacy = run_data_integrity_sweep_jobs(0xDA7A, 3, jobs).unwrap();
        assert_eq!(flat, legacy, "jobs={jobs}: legacy maps changed the data-integrity grid");
    }
}
