//! `ablation_wbuf` sweeps the `MemConfig::nvm` write-buffer depth, which
//! only the PCM backend reads: any other `--backend` must fail before a
//! single row is simulated or printed.

use std::process::Command;

#[test]
fn ablation_wbuf_rejects_a_non_pcm_backend() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_wbuf"))
        .args(["--backend", "sttram"])
        .output()
        .expect("ablation_wbuf starts");
    assert!(!out.status.success(), "a non-PCM backend must be refused");
    assert!(out.stdout.is_empty(), "nothing may run before the refusal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("only the pcm backend"), "the error says why: {err}");
}
