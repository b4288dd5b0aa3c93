//! Host-time benchmark of the Kindle simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig4a|crash_sweep|hotpath> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from `--seed` and sets the workload up. It
//! runs one untimed warm-up repetition, which records the reference
//! outputs, then repeats the workload until `--seconds` have passed, timing
//! further set-ups between repetitions. Every repetition does identical
//! work and must reproduce the warm-up's outputs exactly. The last line of standard output is one JSON
//! object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer split from [`probe`] spans.

mod crash_sweep;
mod fig4a;
mod hotpath;
mod probe;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kindle_core::KindleError;

use probe::{Layer, Probe};

const USAGE: &str = "usage: kindle-perfbench --workload <fig4a|crash_sweep|hotpath> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["fig4a", "crash_sweep", "hotpath"];

/// Timed set-ups per run: at least `SETUP_MIN`, and more while set-ups
/// have taken less than `SETUP_SHARE` of the measurement time. They are
/// spread between the repetitions, so they meet the same host conditions.
/// `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_SHARE: f64 = 0.1;

/// Measured repetitions per run even when `--seconds` is shorter.
const MIN_REPS: usize = 5;

/// How long the run stays on one CPU before it moves to the next.
const CPU_SLICE: Duration = Duration::from_millis(500);

/// Why a repetition stopped.
#[derive(Debug)]
pub enum Fail {
    /// A simulator operation returned an error.
    Op(KindleError),
    /// An operation succeeded but its output was wrong.
    Wrong(String),
}

impl From<KindleError> for Fail {
    fn from(e: KindleError) -> Self {
        Fail::Op(e)
    }
}

/// The selected workload's set-up and repetition.
enum Workload {
    Fig4a(fig4a::Fig4a),
    CrashSweep(crash_sweep::CrashSweep),
    Hotpath(Box<hotpath::Hotpath>),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Result<Self, Fail> {
        Ok(match name {
            "fig4a" => Workload::Fig4a(fig4a::Fig4a::setup(seed)?),
            "crash_sweep" => Workload::CrashSweep(crash_sweep::CrashSweep::setup(seed)?),
            "hotpath" => Workload::Hotpath(Box::new(hotpath::Hotpath::setup(seed)?)),
            other => return Err(Fail::Wrong(format!("unknown workload {other}"))),
        })
    }

    /// One repetition; returns the operations it completed.
    fn rep(&mut self, probe: &mut Probe) -> Result<u64, Fail> {
        match self {
            Workload::Fig4a(w) => w.rep(probe),
            Workload::CrashSweep(w) => w.rep(probe),
            Workload::Hotpath(w) => w.rep(probe),
        }
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    rep_s: Vec<f64>,
    ops_per_rep: u64,
    attempted: u64,
    probe: Probe,
}

/// Sets up, runs the warm-up, then repeats the workload until the
/// deadline, with a timed set-up before a repetition whenever set-ups are
/// behind their share. Only the first set-up is measured on; the others
/// are dropped. Stops at the first failed repetition.
fn measure(args: &Args, run: &mut Run) -> Result<(), Fail> {
    let mut cpus = CpuRotation::new();
    let t0 = Instant::now();
    let mut w = Workload::setup(&args.workload, args.seed)?;
    run.setup_s.push(t0.elapsed().as_secs_f64());
    run.attempted += w.rep(&mut Probe::new(false))?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    while run.rep_s.len() < MIN_REPS || Instant::now() < deadline {
        cpus.step();
        let setup_total: f64 = run.setup_s.iter().sum();
        if run.setup_s.len() < SETUP_MIN
            || setup_total < SETUP_SHARE * started.elapsed().as_secs_f64()
        {
            let t0 = Instant::now();
            let fresh = Workload::setup(&args.workload, args.seed)?;
            run.setup_s.push(t0.elapsed().as_secs_f64());
            drop(fresh);
        }
        let t0 = Instant::now();
        let ops = w.rep(&mut run.probe)?;
        run.rep_s.push(t0.elapsed().as_secs_f64());
        run.attempted += ops;
        if run.ops_per_rep != 0 && run.ops_per_rep != ops {
            return Err(Fail::Wrong(format!("repetition did {ops} ops, not {}", run.ops_per_rep)));
        }
        run.ops_per_rep = ops;
    }
    Ok(())
}

/// Moves the benchmark's thread (which runs the simulator) to the next
/// allowed CPU between set-ups and repetitions, once it has stayed
/// [`CPU_SLICE`] on the current one. On a shared host one CPU is often
/// slowed by a neighbour for seconds at a time, and the scheduler can keep
/// a thread there for a whole run; visiting every CPU gives each run
/// repetitions on the faster one.
/// Short repetitions mostly run on a CPU whose caches they have warmed;
/// repetitions longer than the slice alternate CPUs.
struct CpuRotation {
    cpus: Vec<usize>,
    index: usize,
    moved: Instant,
}

impl CpuRotation {
    fn new() -> Self {
        let cpus = allowed_cpus();
        if cpus.len() > 1 {
            pin_to_cpu(cpus[0]);
        }
        CpuRotation { cpus, index: 0, moved: Instant::now() }
    }

    fn step(&mut self) {
        if self.cpus.len() < 2 || self.moved.elapsed() < CPU_SLICE {
            return;
        }
        self.index = (self.index + 1) % self.cpus.len();
        pin_to_cpu(self.cpus[self.index]);
        self.moved = Instant::now();
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-3,6`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread to `cpu` with `sched_setaffinity(2)`. A
/// failed call leaves the thread where the scheduler put it.
#[cfg(target_os = "linux")]
fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu < 64 * mask.len() {
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised CPU set of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_cpu: usize) {}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest repetition. Every repetition does identical work, so the
/// fastest is the one least slowed by other load on the host; slower ones
/// measure that load, not the simulator.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(name, value, unit)` rows for the JSON result.
fn metrics(run: &Run, trace: bool) -> Vec<(String, f64, &'static str)> {
    let reps = run.rep_s.len().max(1) as f64;
    if !trace {
        return vec![
            ("ops_per_s".into(), run.ops_per_rep as f64 / fastest(&run.rep_s), "ops/s"),
            ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
            ("setup_s".into(), median(&run.setup_s), "s"),
        ];
    }
    let mut rows = Vec::new();
    for layer in Layer::ALL {
        let (ns, calls) = run.probe.totals(layer);
        let per_call = if calls == 0 { 0.0 } else { ns as f64 / calls as f64 };
        rows.push((format!("{}_ns", layer.name()), per_call, "ns"));
        rows.push((format!("{}_calls", layer.name()), calls as f64 / reps, "count"));
    }
    let rep_ns: f64 = run.rep_s.iter().sum::<f64>() * 1e9;
    let glue_ms = (rep_ns - run.probe.span_ns() as f64).max(0.0) / reps / 1e6;
    rows.push(("glue_ms".into(), glue_ms, "ms"));
    let sim = run.probe.sim();
    for (name, v) in [
        ("sim_walks", sim.walks),
        ("sim_llc_misses", sim.llc_misses),
        ("sim_nvm_writes", sim.nvm_writes),
        ("sim_page_faults", sim.page_faults),
    ] {
        rows.push((name.into(), v as f64 / reps, "count"));
    }
    rows
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kindle-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run { probe: Probe::new(args.trace), ..Run::default() };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| measure(&args, &mut run)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            Err(Fail::Wrong(format!("panic: {msg}")))
        });
    if let Err(e) = &outcome {
        eprintln!("kindle-perfbench: {} failed: {e:?}", args.workload);
    }
    let failed = u64::from(matches!(outcome, Err(Fail::Op(_))));
    let mut sorted = run.rep_s.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "{}: seed {}, {} set-ups, {} measured repetitions of {} ops, rep ms min {:.2} p10 {:.2} median {:.2} max {:.2}",
        args.workload,
        args.seed,
        run.setup_s.len(),
        run.rep_s.len(),
        run.ops_per_rep,
        sorted.first().copied().unwrap_or(0.0) * 1e3,
        sorted.get(sorted.len() / 10).copied().unwrap_or(0.0) * 1e3,
        median(&sorted) * 1e3,
        sorted.last().copied().unwrap_or(0.0) * 1e3,
    );
    let rows: Vec<String> = metrics(&run, args.trace)
        .into_iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.is_ok(),
        run.attempted.max(1),
        rows.join(", ")
    );
    ExitCode::SUCCESS
}
