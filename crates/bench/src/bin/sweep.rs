//! CI tier-2 sweep benchmark: runs the exhaustive write-granular crash
//! sweep (`FaultPoint::NvmWrite` at stride 1) on the snapshot-fork tier —
//! serially and on the resolved fork-join worker count, proving the two
//! produce bit-identical outcomes — then times the replay-from-zero oracle
//! on the same points and records the measured `snapshot_speedup` in the
//! bench JSON envelope (`BENCH_sweep.json` in CI, diffed against golden
//! ranges so the O(n) fork tier can never silently regress to O(n²)).
//!
//! The replay run doubles as the cross-check: its outcome must be
//! byte-identical to the forked one. `--verify-replay` extends that
//! cross-check to every sweep family — boundary (both page-table modes),
//! threaded, stuck-cell and data-integrity — and `--timing <path>` writes
//! the `SWEEP_timing.json` telemetry artifact (per-family boundary counts,
//! snapshot-pool high-water mark, speedup) the CI sweep job uploads.

use kindle_bench::*;
use kindle_core::os::PtMode;
use kindle_faults::{
    run_data_integrity_sweep_strategy, run_nvm_write_sweep, run_stuck_sweep_strategy,
    run_sweep_strategy, SweepStrategy, SweepTelemetry,
};

/// Fixed sweep seed (same one the crash-sweep acceptance tests pin).
const SEED: u64 = 0x00c0_ffee_4b1d_0001;

/// Stuck cells seeded for the degraded-media sweep regime.
const STUCK_CELLS: usize = 4096;

/// Times one closure in wall-clock milliseconds.
fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, f64)> {
    let t0 = std::time::Instant::now();
    let v = f()?;
    Ok((v, t0.elapsed().as_secs_f64() * 1e3))
}

/// Cross-checks the snapshot-forked execution of every sweep family
/// against the replay-from-zero oracle (`--verify-replay`).
fn verify_all_families(run: RunSettings, stride: u64) -> Result<()> {
    println!("VERIFY: snapshot-forked digests vs replay-from-zero, all families");
    rule(78);
    for (family, forked, replayed) in [
        (
            "boundary/rebuild",
            run_sweep_strategy(PtMode::Rebuild, SEED, false, run, SweepStrategy::SnapshotFork)?,
            run_sweep_strategy(PtMode::Rebuild, SEED, false, run, SweepStrategy::ReplayFromZero)?,
        ),
        (
            "boundary/persistent",
            run_sweep_strategy(PtMode::Persistent, SEED, false, run, SweepStrategy::SnapshotFork)?,
            run_sweep_strategy(
                PtMode::Persistent,
                SEED,
                false,
                run,
                SweepStrategy::ReplayFromZero,
            )?,
        ),
        (
            "threaded",
            run_sweep_strategy(PtMode::Rebuild, SEED, true, run, SweepStrategy::SnapshotFork)?,
            run_sweep_strategy(PtMode::Rebuild, SEED, true, run, SweepStrategy::ReplayFromZero)?,
        ),
        (
            "stuck",
            run_stuck_sweep_strategy(
                PtMode::Persistent,
                SEED,
                STUCK_CELLS,
                run,
                SweepStrategy::SnapshotFork,
            )?,
            run_stuck_sweep_strategy(
                PtMode::Persistent,
                SEED,
                STUCK_CELLS,
                run,
                SweepStrategy::ReplayFromZero,
            )?,
        ),
    ] {
        assert_eq!(forked, replayed, "{family}: forked sweep diverged from replay-from-zero");
        println!("{family:<22} {} points  digest {:#018x}  ok", forked.boundaries, forked.digest);
    }
    // The write-granular family is verified at a coarse stride here; the
    // bench loop below cross-checks the full stride-1 enumeration of both
    // page-table modes anyway, so repeating it inside `--verify-replay`
    // would only double the oracle's O(n²) bill.
    let stride = stride.max(16);
    let forked =
        run_nvm_write_sweep(PtMode::Rebuild, SEED, stride, run, SweepStrategy::SnapshotFork)?.0;
    let replayed =
        run_nvm_write_sweep(PtMode::Rebuild, SEED, stride, run, SweepStrategy::ReplayFromZero)?.0;
    assert_eq!(forked, replayed, "nvm-write: forked sweep diverged from replay-from-zero");
    println!(
        "{:<22} {} points  digest {:#018x}  ok",
        "nvm-write", forked.boundaries, forked.digest
    );
    let forked = run_data_integrity_sweep_strategy(SEED, 6, run, SweepStrategy::SnapshotFork)?;
    let replayed = run_data_integrity_sweep_strategy(SEED, 6, run, SweepStrategy::ReplayFromZero)?;
    assert_eq!(forked, replayed, "data-integrity: round-tripped sweep diverged from straight run");
    println!(
        "{:<22} {} points  digest {:#018x}  ok",
        "data-integrity", forked.points, forked.digest
    );
    rule(78);
    Ok(())
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let stride = if harness.quick() { 64 } else { 1 };
    let run = harness.run();
    let (jobs, serial_run) = (run.jobs, RunSettings { jobs: 1, ..run });
    if harness.verify_replay() {
        verify_all_families(run, stride)?;
    }
    println!("SWEEP: write-granular crash sweep, stride {stride}, serial vs {jobs} workers");
    rule(78);
    println!(
        "{:<10} | {:>6} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7}",
        "mode", "points", "recovered", "serial ms", "par ms", "replay ms", "snap spd"
    );
    rule(78);
    let mut body = String::from("[");
    let mut timing = String::from("[");
    for (i, (label, mode)) in
        [("rebuild", PtMode::Rebuild), ("persistent", PtMode::Persistent)].into_iter().enumerate()
    {
        let ((serial, telemetry), serial_ms) = timed(|| {
            run_nvm_write_sweep(mode, SEED, stride, serial_run, SweepStrategy::SnapshotFork)
        })?;
        let (parallel, parallel_ms) = timed(|| {
            Ok(run_nvm_write_sweep(mode, SEED, stride, run, SweepStrategy::SnapshotFork)?.0)
        })?;
        assert_eq!(serial, parallel, "jobs=1 vs jobs={jobs} must agree bit-for-bit");
        // The replay-from-zero oracle on the same points: its wall clock is
        // what the fork tier is measured against, and its outcome must be
        // byte-identical.
        let (replayed, replay_ms) = timed(|| {
            Ok(run_nvm_write_sweep(mode, SEED, stride, run, SweepStrategy::ReplayFromZero)?.0)
        })?;
        assert_eq!(serial, replayed, "forked sweep diverged from replay-from-zero");
        let speedup = serial_ms / parallel_ms.max(1e-9);
        let snapshot_speedup = replay_ms / parallel_ms.max(1e-9);
        println!(
            "{:<10} | {:>6} | {:>9} | {:>9} | {:>9} | {:>9} | {:>6.2}x",
            label,
            serial.boundaries,
            serial.recovered,
            ms(serial_ms),
            ms(parallel_ms),
            ms(replay_ms),
            snapshot_speedup
        );
        if i > 0 {
            body.push(',');
            timing.push(',');
        }
        body.push_str(&format!(
            "\n  {{\"mode\": \"{label}\", \"points\": {}, \"recovered\": {}, \
             \"digest\": \"{:#018x}\", \"serial_ms\": {serial_ms:.1}, \
             \"parallel_ms\": {parallel_ms:.1}, \"speedup\": {speedup:.3}, \
             \"replay_ms\": {replay_ms:.1}, \"snapshot_speedup\": {snapshot_speedup:.3}}}",
            serial.boundaries, serial.recovered, serial.digest
        ));
        timing.push_str(&timing_row(label, &telemetry, snapshot_speedup));
    }
    // The degraded-media regime: the persistent-mode boundary sweep with
    // thousands of stuck cells, the two-entry ECP budget and scrubd armed.
    // Distinct JSON field names keep its (much smaller) point counts out
    // of the write-sweep golden ranges above.
    let stuck = |run| {
        run_stuck_sweep_strategy(
            PtMode::Persistent,
            SEED,
            STUCK_CELLS,
            run,
            SweepStrategy::SnapshotFork,
        )
    };
    let (serial, serial_ms) = timed(|| stuck(serial_run))?;
    let (parallel, parallel_ms) = timed(|| stuck(run))?;
    assert_eq!(serial, parallel, "stuck sweep: jobs=1 vs jobs={jobs} must agree bit-for-bit");
    println!(
        "{:<10} | {:>6} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7}",
        "stuck",
        serial.boundaries,
        serial.recovered,
        ms(serial_ms),
        ms(parallel_ms),
        "-",
        format!("{STUCK_CELLS} cells")
    );
    body.push_str(&format!(
        ",\n  {{\"mode\": \"stuck-persistent\", \"stuck_cells\": {STUCK_CELLS}, \
         \"stuck_points\": {}, \"stuck_recovered\": {}, \"digest\": \"{:#018x}\", \
         \"serial_ms\": {serial_ms:.1}, \"parallel_ms\": {parallel_ms:.1}}}",
        serial.boundaries, serial.recovered, serial.digest
    ));
    body.push_str("\n]");
    timing.push_str("\n]");
    harness.maybe_json_body(&body);
    if let Some(path) = harness.timing_path() {
        let data = format!(
            "{{\n\"jobs\": {jobs},\n\"stride\": {stride},\n\"verified_replay\": {},\n\"rows\": {timing}\n}}\n",
            harness.verify_replay()
        );
        match std::fs::write(path, data) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("timing write failed: {e}"),
        }
    }
    rule(78);
    println!("digest equality verified: forked sweeps are byte-identical to replay.");
    harness.finish()
}

/// One `SWEEP_timing.json` row: the family's golden enumeration sizes, the
/// snapshot pool's retention behaviour and the measured fork-tier speedup.
fn timing_row(family: &str, t: &SweepTelemetry, snapshot_speedup: f64) -> String {
    format!(
        "\n  {{\"family\": \"{family}\", \"boundaries\": {}, \"nvm_writes\": {}, \
         \"snapshots_offered\": {}, \"snapshots_retained\": {}, \"pool_high_water\": {}, \
         \"pool_capacity\": {}, \"pool_stride\": {}, \"snapshot_speedup\": {snapshot_speedup:.3}}}",
        t.boundaries,
        t.nvm_writes,
        t.snapshots_offered,
        t.snapshots_retained,
        t.pool_high_water,
        t.pool_capacity,
        t.pool_stride,
    )
}
