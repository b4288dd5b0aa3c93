//! `crash_sweep`: the write-granular crash sweep of `kindle-faults`, under
//! both page-table schemes.
//!
//! One repetition runs `run_nvm_write_sweep_instrumented` at stride 1
//! (snapshot-fork strategy, one worker), as the `sweep` bench binary does,
//! with the run's seed choosing how each crash tears the write buffer:
//! golden recording with a snapshot after every step, then for every NVM
//! line write a fork from the nearest snapshot, a power cut at that write,
//! a torn crash, recovery and a continuation checkpoint. Set-up runs the
//! golden enumeration to learn how many crash points each scheme has.
//!
//! Traced repetitions cannot put spans inside the library, so they run
//! [`sweep_traced`], a mirror of the library sweep built from its public
//! parts, call by call. Its digest and its snapshot-pool telemetry must
//! equal the library's, so the mirror simulates the same work and keeps
//! the same snapshots.

use std::cell::RefCell;
use std::rc::Rc;

use kindle_core::os::PtMode;
use kindle_core::sim::{Machine, MachineConfig, MachineSnapshot};
use kindle_core::types::sanitize::{self, Event, InvariantChecker, Sanitizer, ThreadId};
use kindle_core::types::{
    checksum64, AccessKind, Cycles, MapFlags, Prot, Rng64, VirtAddr, PAGE_SIZE,
};
use kindle_faults::sweep::golden_run;
use kindle_faults::{
    run_nvm_write_sweep_instrumented, BoundaryCounter, FaultPlan, PowerCutTrigger, RecoveryChecker,
    SweepStrategy, SweepTelemetry,
};

use crate::probe::{Layer, Probe};
use crate::Fail;

/// Every NVM line write is a crash point.
const STRIDE: u64 = 1;
/// Page-table schemes swept per repetition.
const MODES: [PtMode; 2] = [PtMode::Rebuild, PtMode::Persistent];

/// The `crash_sweep` workload.
pub struct CrashSweep {
    seed: u64,
    /// Crash points per scheme, from the golden enumeration.
    points: [u64; 2],
    /// Library digest and pool telemetry per scheme, from the warm-up
    /// repetition.
    reference: [Option<(u64, SweepTelemetry)>; 2],
}

impl CrashSweep {
    /// Enumerates each scheme's crash points.
    pub fn setup(seed: u64) -> Result<Self, Fail> {
        let mut points = [0; 2];
        for (p, mode) in points.iter_mut().zip(MODES) {
            *p = golden_run(mode)?.nvm_writes.div_ceil(STRIDE);
        }
        Ok(CrashSweep { seed, points, reference: [None, None] })
    }

    /// Sweeps both schemes; returns the crash points exercised.
    pub fn rep(&mut self, probe: &mut Probe) -> Result<u64, Fail> {
        let mut ops = 0;
        for (i, mode) in MODES.into_iter().enumerate() {
            let (points, recovered, digest, telemetry) = if probe.on() {
                sweep_traced(probe, mode, self.seed)?
            } else {
                let (o, t) = run_nvm_write_sweep_instrumented(
                    mode,
                    self.seed,
                    STRIDE,
                    1,
                    SweepStrategy::SnapshotFork,
                )?;
                (o.boundaries, o.recovered, o.digest, t)
            };
            if points != self.points[i] || recovered == 0 || recovered > points {
                return Err(Fail::Wrong(format!(
                    "{mode:?}: {recovered} of {points} points recovered, {} expected",
                    self.points[i]
                )));
            }
            match self.reference[i] {
                None => self.reference[i] = Some((digest, telemetry)),
                Some(r) if r == (digest, telemetry) => {}
                Some(r) => {
                    return Err(Fail::Wrong(format!(
                        "{mode:?}: digest {digest:#x} with {telemetry:?}, want {:#x} with {:?}",
                        r.0, r.1
                    )))
                }
            }
            ops += points;
        }
        Ok(ops)
    }
}

// The sweep workload below mirrors `kindle_faults::sweep` step for step;
// the digest and telemetry comparison in `CrashSweep::rep` catches drift
// in what is simulated and in how the snapshot pool is kept.

/// `rip` markers of the workload's three checkpointed phases.
const PHASE_MARKERS: [u64; 3] = [0x1111, 0x2222, 0x3333];
/// `rip` marker of the post-recovery continuation checkpoint.
const CONTINUATION_MARKER: u64 = 0x9999;
/// Weyl constant deriving each crash point's tearing stream.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// DRAM scratch pages the analysis passes read.
const SCRATCH_PAGES: u64 = 4;
/// Reads per analysis pass.
const ANALYZE_READS: u64 = 4096;
/// Analysis passes per phase (release builds).
const ANALYZE_PASSES: u32 = 56;
/// Snapshots kept by the golden recording.
const POOL_CAPACITY: usize = 32;

#[derive(Clone, Copy, Debug)]
enum Step {
    MapScratch,
    Map,
    Touch { phase: usize, page: u64 },
    Analyze { pass: u32 },
    Publish { phase: usize },
    Churn,
}

fn steps() -> Vec<Step> {
    let mut steps = vec![Step::MapScratch];
    for phase in 0..PHASE_MARKERS.len() {
        steps.push(Step::Map);
        steps.extend((0..4).map(|page| Step::Touch { phase, page }));
        steps.extend(
            (0..ANALYZE_PASSES).map(|p| Step::Analyze { pass: phase as u32 * ANALYZE_PASSES + p }),
        );
        steps.push(Step::Publish { phase });
        if phase + 1 < PHASE_MARKERS.len() {
            steps.push(Step::Churn);
        }
    }
    steps
}

fn config(mode: PtMode) -> MachineConfig {
    MachineConfig::small().with_pt_mode(mode).with_checkpointing(Cycles::from_millis(1000))
}

/// Mapping bases the steps have created so far.
#[derive(Clone, Debug, Default)]
struct State {
    bases: Vec<VirtAddr>,
    scratch: Option<VirtAddr>,
}

fn exec(
    probe: &mut Probe,
    m: &mut Machine,
    pid: u32,
    state: &mut State,
    step: Step,
) -> Result<(), Fail> {
    let page = PAGE_SIZE as u64;
    match step {
        Step::MapScratch => {
            let va = probe.span(Layer::Map, || {
                m.mmap(pid, SCRATCH_PAGES * page, Prot::RW, MapFlags::EMPTY)
            })?;
            state.scratch = Some(va);
        }
        Step::Analyze { pass } => {
            let base = state.scratch.ok_or(Fail::Wrong("analysis before scratch".into()))?;
            probe.access(m, ANALYZE_READS, |m| {
                (0..ANALYZE_READS).try_for_each(|i| {
                    let n = u64::from(pass) * ANALYZE_READS + i;
                    let va = base + (n % SCRATCH_PAGES) * page + (n % 64) * 64;
                    m.access(pid, va, AccessKind::Read).map(drop)
                })
            })?;
        }
        Step::Map => {
            let va = probe.span(Layer::Map, || m.mmap(pid, 4 * page, Prot::RW, MapFlags::NVM))?;
            state.bases.push(va);
        }
        Step::Touch { phase, page: p } => {
            let va = state.bases[phase] + p * page;
            probe.access(m, 1, |m| m.access(pid, va, AccessKind::Write))?;
        }
        Step::Publish { phase } => {
            m.kernel.process_mut(pid)?.regs.rip = PHASE_MARKERS[phase];
            probe.span(Layer::Checkpoint, || m.checkpoint_now())?;
        }
        Step::Churn => {
            let va = probe.span(Layer::Map, || m.mmap(pid, page, Prot::RW, MapFlags::NVM))?;
            probe.span(Layer::Map, || m.munmap(pid, va, page))?;
        }
    }
    Ok(())
}

/// Lets the recorder read a sanitizer it installed.
struct Shared<S: Sanitizer>(Rc<RefCell<S>>);

impl<S: Sanitizer> Sanitizer for Shared<S> {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        self.0.borrow_mut().on_event(tid, ev);
    }
}

/// Fans one event stream out to several sanitizers.
struct Fanout(Vec<Box<dyn Sanitizer>>);

impl Sanitizer for Fanout {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        for s in &mut self.0 {
            s.on_event(tid, ev);
        }
    }
}

/// A golden-run capture a crash point can fork from.
struct Capture {
    step: usize,
    nvm_writes: u64,
    publishes: Vec<(u64, u64)>,
    state: State,
    snap: MachineSnapshot,
}

/// What the golden recording learned.
struct Golden {
    pid: u32,
    pool: Vec<Capture>,
    telemetry: SweepTelemetry,
}

/// Runs the workload once under a boundary counter and the checkers,
/// snapshotting after every step into a pool that halves its density
/// whenever it outgrows [`POOL_CAPACITY`].
fn record_golden(probe: &mut Probe, mode: PtMode, steps: &[Step]) -> Result<Golden, Fail> {
    let counter = Rc::new(RefCell::new(BoundaryCounter::new()));
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let rc = RecoveryChecker::new();
    let rc_log = rc.log();
    let guard = sanitize::install(Box::new(Fanout(vec![
        Box::new(Shared(counter.clone())),
        Box::new(ic),
        Box::new(rc),
    ])));
    let mut m = probe.span(Layer::Boot, || Machine::new(config(mode)))?;
    let _armed = m.arm_power_cut();
    let pid = probe.span(Layer::Boot, || m.spawn_process())?;
    let mut pool: Vec<Capture> = Vec::new();
    let (mut pool_stride, mut high_water) = (1, 0);
    let mut state = State::default();
    for i in 0..=steps.len() {
        if i > 0 {
            exec(probe, &mut m, pid, &mut state, steps[i - 1])?;
        }
        // Like the library, every step is snapshotted before the pool
        // decides whether to keep it.
        let snap = probe.span(Layer::Fork, || m.snapshot());
        if i % pool_stride == 0 {
            let c = counter.borrow();
            pool.push(Capture {
                step: i,
                nvm_writes: c.nvm_writes,
                publishes: c.publishes.iter().map(|p| (p.slot, p.copy)).collect(),
                state: state.clone(),
                snap,
            });
            while pool.len() > POOL_CAPACITY {
                pool_stride *= 2;
                pool.retain(|c| c.step % pool_stride == 0);
            }
            high_water = high_water.max(pool.len());
        }
    }
    drop(guard);
    probe.machine_done(&m);
    if !ic_log.take().is_empty() || !rc_log.take().is_empty() {
        return Err(Fail::Wrong(format!("{mode:?}: golden run violated an invariant")));
    }
    let c = counter.borrow();
    let telemetry = SweepTelemetry {
        boundaries: c.boundaries,
        nvm_writes: c.nvm_writes,
        snapshots_offered: steps.len() as u64 + 1,
        snapshots_retained: pool.len() as u64,
        pool_high_water: high_water as u64,
        pool_capacity: POOL_CAPACITY as u64,
        pool_stride: pool_stride as u64,
    };
    Ok(Golden { pid, pool, telemetry })
}

/// One crash point: runs to the cut at NVM write `w` (forked from the
/// latest capture before it, or from boot), crashes, recovers, checks the
/// recovered checkpoint and the checkers, and continues. Returns whether
/// the process recovered plus the point's digest words.
fn crash_at(
    probe: &mut Probe,
    mode: PtMode,
    steps: &[Step],
    golden: &Golden,
    w: u64,
    rng: &mut Rng64,
) -> Result<(bool, [u64; 10]), Fail> {
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let origin = golden.pool.iter().rev().find(|c| c.nvm_writes <= w);
    let rc =
        origin.map_or_else(RecoveryChecker::new, |c| RecoveryChecker::with_publishes(&c.publishes));
    let rc_log = rc.log();
    let plan = FaultPlan::at_nvm_write(w - origin.map_or(0, |c| c.nvm_writes));
    let trigger = PowerCutTrigger::new(plan, vec![Box::new(ic), Box::new(rc)]);
    let switch = trigger.switch();
    let _guard = sanitize::install(Box::new(trigger));
    let (mut m, pid, mut state, first) = match origin {
        Some(c) => {
            let mut m = probe.span(Layer::Fork, || Machine::restore(&c.snap));
            m.hw.mc.arm_power_cut(switch.clone());
            (m, golden.pid, c.state.clone(), c.step)
        }
        None => {
            let mut m = probe.span(Layer::Boot, || Machine::new(config(mode)))?;
            m.hw.mc.arm_power_cut(switch.clone());
            let pid = probe.span(Layer::Boot, || m.spawn_process())?;
            (m, pid, State::default(), 0)
        }
    };
    for &step in &steps[first..] {
        if switch.is_cut() {
            break;
        }
        exec(probe, &mut m, pid, &mut state, step)?;
    }
    if !switch.is_cut() {
        return Err(Fail::Wrong(format!("NVM write {w} never reached")));
    }
    let report = probe.span(Layer::Recover, || m.crash_torn(rng).and_then(|()| m.recover()))?;
    let recovered = report.recovered_pids.contains(&pid);
    if recovered {
        let rip = m.kernel.process(pid)?.regs.rip;
        if !PHASE_MARKERS.contains(&rip) {
            return Err(Fail::Wrong(format!("NVM write {w}: recovered rip {rip:#x}")));
        }
    }
    let cont = if recovered { pid } else { probe.span(Layer::Boot, || m.spawn_process())? };
    let page = PAGE_SIZE as u64;
    let va = probe.span(Layer::Map, || m.mmap(cont, page, Prot::RW, MapFlags::NVM))?;
    probe.access(&mut m, 1, |m| m.access(cont, va, AccessKind::Write))?;
    m.kernel.process_mut(cont)?.regs.rip = CONTINUATION_MARKER;
    probe.span(Layer::Checkpoint, || m.checkpoint_now())?;
    if !ic_log.take().is_empty() || !rc_log.take().is_empty() {
        return Err(Fail::Wrong(format!("NVM write {w}: checker violation")));
    }
    let rip = if recovered { m.kernel.process(pid)?.regs.rip } else { 0 };
    Ok((
        recovered,
        [
            w,
            u64::from(recovered),
            rip,
            report.log_records_replayed,
            report.torn_log_records,
            report.copy_fallbacks,
            report.frames_repaired,
            report.pages_remapped,
            report.dram_entries_dropped,
            m.now().as_u64(),
        ],
    ))
}

/// The library's write-granular sweep, driven call by call. Returns the
/// crash points, how many recovered the process, the digest and the
/// snapshot-pool telemetry.
fn sweep_traced(
    probe: &mut Probe,
    mode: PtMode,
    seed: u64,
) -> Result<(u64, u64, u64, SweepTelemetry), Fail> {
    let steps = steps();
    let golden = record_golden(probe, mode, &steps)?;
    let t = golden.telemetry;
    let mut words = vec![t.boundaries, t.nvm_writes, STRIDE];
    let (mut points, mut recovered) = (0, 0);
    for w in (0..t.nvm_writes).step_by(STRIDE as usize) {
        let mut rng = Rng64::new(seed ^ (w + 1).wrapping_mul(GOLDEN_GAMMA));
        let (rec, point) = crash_at(probe, mode, &steps, &golden, w, &mut rng)?;
        points += 1;
        recovered += u64::from(rec);
        words.extend(point);
    }
    Ok((points, recovered, checksum64(&words), t))
}
