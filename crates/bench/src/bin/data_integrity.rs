//! CI tier-2 data-integrity benchmark: runs the checksummed-patrol crash
//! grid (`run_data_integrity_sweep_strategy` — ECP budget × daemons on/off,
//! stuck cells seeded under mapped data frames) serially and on the
//! resolved worker count, proves the two produce bit-identical outcomes,
//! and records the healed/poisoned/killed counters in the bench JSON
//! envelope (`BENCH_data_integrity.json` in CI, diffed against golden
//! ranges).
//!
//! Every grid point asserts the integrity contract internally (healable
//! faults restore byte-identical data, unhealable ones poison the page and
//! kill the owner with no corrupt read ever surfacing), so this binary
//! failing is a correctness signal, not just a perf regression.
//!
//! A second probe builds one machine with `patrold` armed at the
//! `--patrol <interval-us>` cadence (default 250 µs) and reports how many
//! verify batches and frame checks a fixed workload absorbs — the knob CI
//! can turn to price patrol overhead.

use kindle_bench::*;
use kindle_core::sim::DEFAULT_PATROL_INTERVAL;
use kindle_faults::{run_data_integrity_sweep_strategy, SweepStrategy};

/// Fixed sweep seed (sibling of the crash-sweep bench seed).
const SEED: u64 = 0x00c0_ffee_4b1d_0002;

/// Data lines corrupted per grid point unless `--stuck` overrides it.
const STUCK_LINES: usize = 3;

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let run = harness.run();
    let jobs = run.jobs;
    let stuck = harness.stuck().unwrap_or(STUCK_LINES);
    println!("DATA-INTEGRITY: ECP-budget x daemon grid, {stuck} corrupt lines/point, serial vs {jobs} workers");
    rule(78);

    let t0 = std::time::Instant::now();
    let serial_run = RunSettings { jobs: 1, ..run };
    let serial =
        run_data_integrity_sweep_strategy(SEED, stuck, serial_run, SweepStrategy::SnapshotFork)?;
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let threaded =
        run_data_integrity_sweep_strategy(SEED, stuck, run, SweepStrategy::SnapshotFork)?;
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(serial, threaded, "jobs=1 vs jobs={jobs} must agree bit-for-bit");
    println!(
        "{:<10} | {:>6} | {:>6} | {:>8} | {:>6} | {:>9} | {:>9}",
        "grid", "points", "healed", "poisoned", "killed", "serial ms", "par ms"
    );
    rule(78);
    println!(
        "{:<10} | {:>6} | {:>6} | {:>8} | {:>6} | {:>9} | {:>9}",
        "integrity",
        serial.points,
        serial.data_healed,
        serial.data_poisoned,
        serial.procs_killed,
        ms(serial_ms),
        ms(parallel_ms)
    );

    // Patrol-cadence probe: one clean machine, patrold at the requested
    // period, a fixed NVM touch loop. No faults — this prices the patrol
    // itself, not the recovery work.
    let interval = harness.patrol_interval().unwrap_or(DEFAULT_PATROL_INTERVAL);
    let cfg = MachineConfig::small().with_patrol_interval(interval);
    let mut m = Machine::new(run.apply(cfg))?;
    let pid = m.spawn_process()?;
    let va = m.mmap(pid, 16 * 4096, Prot::RW, MapFlags::NVM)?;
    for i in 0..20_000u64 {
        m.access(pid, va + (i % 16) * 4096, AccessKind::Write)?;
    }
    let report = m.report();
    let patrol = report.patrol.clone().expect("patrold armed");
    println!(
        "patrol probe: {} passes, {} frames checked at {} cycle interval",
        patrol.passes,
        patrol.frames_checked,
        interval.as_u64()
    );

    let body = format!(
        "[\n  {{\"grid\": \"integrity\", \"points\": {}, \"data_healed\": {}, \
         \"data_poisoned\": {}, \"procs_killed\": {}, \"digest\": \"{:#018x}\", \
         \"serial_ms\": {serial_ms:.1}, \"parallel_ms\": {parallel_ms:.1}}},\n  \
         {{\"grid\": \"patrol-probe\", \"interval_cycles\": {}, \"patrol_passes\": {}, \
         \"patrol_frames_checked\": {}, \"patrol_lines_detected\": {}}}\n]",
        serial.points,
        serial.data_healed,
        serial.data_poisoned,
        serial.procs_killed,
        serial.digest,
        interval.as_u64(),
        patrol.passes,
        patrol.frames_checked,
        patrol.lines_detected
    );
    harness.maybe_json_body(&body);
    rule(78);
    println!("digest equality verified: parallel integrity sweeps are byte-identical to serial.");
    harness.finish()
}
