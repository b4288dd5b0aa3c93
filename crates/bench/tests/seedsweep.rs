//! Every `seedsweep` seed runs the data-integrity grid, which needs a far
//! tier with a media-fault model: a tier without one must be refused
//! before a single grid is simulated or printed.

use std::process::Command;

#[test]
fn seedsweep_rejects_a_far_tier_without_media_faults() {
    let out = Command::new(env!("CARGO_BIN_EXE_seedsweep"))
        .args(["--quick", "--backend", "numa"])
        .output()
        .expect("seedsweep starts");
    assert!(!out.status.success(), "a far tier without media faults must be refused");
    assert!(out.stdout.is_empty(), "nothing may run before the refusal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("needs a far tier with a media-fault model"), "the error says why: {err}");
}
