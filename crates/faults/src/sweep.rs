//! The crash-sweep harness.
//!
//! A *sweep* proves the recovery story at every step of the persistence
//! protocol, not just at hand-picked crash points:
//!
//! 1. a **golden run** executes a deterministic checkpointed workload with
//!    a passive [`BoundaryCounter`] installed, enumerating every
//!    persist-boundary event (log appends/truncations, checkpoint
//!    publishes, write-buffer drains) and noting which boundary each
//!    checkpoint publish landed on. The workload is a flat *step list*,
//!    and the golden run captures a [`kindle_sim::MachineSnapshot`] after
//!    each step into a bounded-retention `SnapshotPool`;
//! 2. for **each** crash point, a machine is *forked* from the nearest
//!    snapshot at or before the point (falling back to a fresh machine for
//!    points inside construction/spawn), with a [`PowerCutTrigger`] armed
//!    to cut power right at the point. Execution stops at the first step
//!    boundary after the cut (real hardware executes nothing after a power
//!    cut), then the harness crashes with write-buffer tearing
//!    ([`kindle_sim::Machine::crash_torn`]), recovers, and checks:
//!    - the recovered execution context matches the last checkpoint whose
//!      publish flip had drained by the cut — no more, no less;
//!    - the PR-1 [`InvariantChecker`] and the [`RecoveryChecker`] saw zero
//!      violations across crash and recovery;
//!    - the machine still works: a post-recovery mmap/touch/checkpoint
//!      round must succeed.
//! 3. every observable of every crash point is folded into a digest;
//!    running the sweep twice with one seed must produce identical
//!    digests, pinning byte-for-byte determinism of the fault machinery.
//!
//! Forking turns the sweep from O(n²) simulated work (replay the whole
//! prefix from cycle 0 for each of n points) into O(n): each point costs
//! one snapshot restore plus at most a few workload steps. The
//! [`SweepStrategy::ReplayFromZero`] strategy keeps the old from-scratch
//! execution alive as a cross-check — both strategies must produce
//! **byte-identical digests** (the `sweep` bench binary's
//! `--verify-replay` mode and the crash_sweep integration tests pin
//! exactly that), which is only possible if snapshot/restore captures the
//! entire machine faithfully.
//!
//! Crash points are mutually independent (each forks its own machine with
//! its own per-point RNG), so the sweep fans out over
//! [`kindle_core::parallel::par_map`] workers; the snapshot pool is shared
//! across workers by reference (snapshots are `Send + Sync`). Every entry
//! point takes its [`RunSettings`] (worker count, fault model, backend)
//! from the caller; the library reads no environment variable. The digest
//! folds each point's observables **in crash-point order** regardless of which worker finished first, so one
//! worker and eight produce identical [`SweepOutcome`]s — the determinism
//! tests pin exactly that.

use std::cell::RefCell;
use std::rc::Rc;

use kindle_core::parallel;

use kindle_mem::MediaFaultConfig;
use kindle_os::PtMode;
use kindle_sim::{Machine, MachineConfig, MachineSnapshot, RunSettings};
use kindle_types::sanitize::{self, Event, InvariantChecker, Sanitizer, ThreadId, ViolationLog};
use kindle_types::{
    checksum64, AccessKind, Cycles, KindleError, MapFlags, PhysMem, Prot, Result, Rng64, VirtAddr,
    PAGE_SIZE,
};

use crate::plan::{FaultPlan, FaultPoint};
use crate::recovery_checker::{RecoveryChecker, RecoveryViolationLog};
use crate::trigger::{BoundaryCounter, PowerCutTrigger};

/// `rip` markers distinguishing the workload's checkpointed phases.
const PHASE_MARKERS: [u64; 3] = [0x1111, 0x2222, 0x3333];
/// `rip` marker of the post-recovery continuation checkpoint.
const CONTINUATION_MARKER: u64 = 0x9999;
/// Weyl-sequence constant deriving independent per-point RNG streams.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// Snapshot-pool capacity: enough to keep a snapshot every couple of
/// workload steps, small enough that a sweep's resident memory stays a
/// handful of machine images (the pool thins itself by doubling its step
/// stride whenever it would exceed this).
const SNAPSHOT_POOL_CAPACITY: usize = 32;

/// How a sweep executes each crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepStrategy {
    /// Fork each crash point from the nearest golden-run snapshot — O(n)
    /// total simulated work.
    SnapshotFork,
    /// Re-execute the whole workload from cycle 0 for each point — the
    /// original O(n²) path, kept as the cross-check oracle: its digests
    /// must be byte-identical to [`SweepStrategy::SnapshotFork`]'s.
    ReplayFromZero,
}

/// What the golden run learned about the workload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GoldenRun {
    /// Total persist-boundary events (= crash points to sweep).
    pub boundaries: u64,
    /// Total NVM line writes.
    pub nvm_writes: u64,
    /// `(boundary_index, rip_marker)` of each checkpoint publish.
    pub publishes: Vec<(u64, u64)>,
}

/// Aggregate result of one full sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Crash points exercised (one injected crash each).
    pub boundaries: u64,
    /// Crash points after which the workload process was recovered.
    pub recovered: u64,
    /// Order-sensitive digest of every observable of every crash point.
    pub digest: u64,
}

/// Instrumentation from one sweep: golden enumeration sizes plus
/// snapshot-pool behaviour. The `sweep` bench binary folds these into the
/// `SWEEP_timing.json` CI artifact so the O(n) fork tier can never
/// silently regress to O(n²) replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// Persist boundaries the golden run enumerated.
    pub boundaries: u64,
    /// NVM line writes the golden run enumerated.
    pub nvm_writes: u64,
    /// Snapshots offered to the pool (one per workload step, plus the
    /// post-spawn baseline). Zero under [`SweepStrategy::ReplayFromZero`].
    pub snapshots_offered: u64,
    /// Snapshots retained when the golden run finished.
    pub snapshots_retained: u64,
    /// Most snapshots the pool ever held at once (bounded-retention high
    /// water; never exceeds `pool_capacity`).
    pub pool_high_water: u64,
    /// Pool capacity the thinning policy enforces.
    pub pool_capacity: u64,
    /// Final thinning stride (a snapshot survives if its step index is a
    /// multiple of this).
    pub pool_stride: u64,
}

/// Adapter letting the harness keep a handle on a sanitizer it installed.
struct SharedSanitizer<S: Sanitizer>(Rc<RefCell<S>>);

impl<S: Sanitizer> Sanitizer for SharedSanitizer<S> {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        self.0.borrow_mut().on_event(tid, ev);
    }
}

/// Fans one event stream out to several sanitizers in order.
struct Fanout(Vec<Box<dyn Sanitizer>>);

impl Sanitizer for Fanout {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        for s in &mut self.0 {
            s.on_event(tid, ev);
        }
    }
}

/// The machine under test: checkpointing on, but at an interval the
/// workload never reaches — every checkpoint is an explicit
/// `checkpoint_now`, so the golden boundary enumeration is stable.
/// `threaded` additionally runs checkpoints on the simulated daemon
/// kthread: the boundary *structure* is unchanged (thread switches are not
/// persist boundaries), only cycle stamps and event thread ids move.
fn config(mode: PtMode, threaded: bool) -> MachineConfig {
    let cfg =
        MachineConfig::small().with_pt_mode(mode).with_checkpointing(Cycles::from_millis(1000));
    if threaded {
        cfg.with_kthreads()
    } else {
        cfg
    }
}

/// Scrubd period of the stuck-cell sweep: short enough that verify passes
/// interleave the workload's checkpoint phases instead of landing after
/// the whole run.
const STUCK_SCRUB_INTERVAL: Cycles = Cycles::from_micros(40);

/// ECP correction entries per line in the stuck-cell sweep: two covers
/// every line uniform seeding realistically produces (a triple collision
/// among ~2M lines is vanishingly rare), so the protocol state stays
/// faithful at every crash point while the correction layer does real
/// work.
const STUCK_CORRECTION_ENTRIES: u32 = 2;

/// The stuck-cell machine: the boundary-sweep config plus `stuck` seeded
/// stuck-at cells (wear-out off, so every fault is a stuck cell), the ECP
/// correction layer, and the scrub daemon verifying page-table frames.
fn stuck_config(mode: PtMode, seed: u64, stuck: usize) -> MachineConfig {
    let mut cfg = config(mode, false).with_scrub_interval(STUCK_SCRUB_INTERVAL);
    cfg.mem.faults = Some(MediaFaultConfig {
        wear_limit: 0,
        stuck_cells: stuck,
        correction_entries: STUCK_CORRECTION_ENTRIES,
        ..MediaFaultConfig::with_seed(seed)
    });
    cfg
}

/// One step of the deterministic workload. The workload is a flat step
/// list (not a loop body) so the golden run can capture a machine snapshot
/// between any two steps and a forked crash point can resume execution at
/// an arbitrary step index. Boundaries *within* a step are reached by
/// replaying that one step from the preceding snapshot — bounded work.
#[derive(Clone, Copy, Debug)]
enum WorkloadStep {
    /// Map the DRAM scratch region the analysis passes stream over.
    MapScratch,
    /// Map the next phase's 4 NVM data pages.
    Map,
    /// Touch one page of an already-mapped phase.
    Touch {
        /// Phase whose mapping to touch.
        phase: usize,
        /// Page index within the phase's mapping.
        page: u64,
    },
    /// One cache-resident read pass over the DRAM scratch region: the
    /// compute a real workload does between persists. Analysis passes add
    /// **zero** NVM writes (so zero crash points) but dominate the
    /// workload's simulated time — exactly the work a replay-from-zero
    /// sweep re-executes for every crash point and a snapshot fork skips.
    Analyze {
        /// Pass index (varies the address stream deterministically).
        pass: u32,
    },
    /// Stamp the phase marker into `rip` and checkpoint.
    Publish {
        /// Phase being published.
        phase: usize,
    },
    /// Map/unmap churn between phases (redo-log-only traffic).
    Churn,
}

/// DRAM scratch pages the analysis passes stream over (small enough to
/// stay cache-resident: the passes are compute, not eviction pressure on
/// the phases' NVM lines).
const SCRATCH_PAGES: u64 = 4;
/// Reads per analysis pass.
const ANALYZE_READS: u64 = 4096;
/// Analysis passes per phase, the same in every build profile, so a
/// configuration names one workload and one set of digests. CI's
/// golden-pinned `BENCH_sweep.json` and the benchmark's `crash_sweep`
/// workload run this value.
const ANALYZE_PASSES: u32 = 56;

/// Mutable workload context threaded through the steps (and captured
/// alongside each snapshot so a fork can resume mid-list).
#[derive(Clone, Debug, Default)]
struct WorkloadState {
    /// Base address of each phase's mapping, in phase order.
    bases: Vec<VirtAddr>,
    /// Base of the DRAM scratch region (set by [`WorkloadStep::MapScratch`]).
    scratch: Option<VirtAddr>,
}

/// The deterministic workload as a step list: three phases, each mapping
/// and touching NVM pages, running cache-resident analysis passes over a
/// DRAM scratch region, then stamping a phase marker into `rip` and
/// checkpointing; between checkpoints, map/unmap churn that only the redo
/// log records. The analysis passes carry most of the simulated time but
/// none of the crash points, which is what makes replaying the prefix
/// from cycle 0 for every point quadratically expensive while a fork pays
/// for at most one pool stride's worth of steps.
fn workload_steps() -> Vec<WorkloadStep> {
    let mut steps = vec![WorkloadStep::MapScratch];
    for phase in 0..PHASE_MARKERS.len() {
        steps.push(WorkloadStep::Map);
        for page in 0..4 {
            steps.push(WorkloadStep::Touch { phase, page });
        }
        for p in 0..ANALYZE_PASSES {
            steps.push(WorkloadStep::Analyze { pass: phase as u32 * ANALYZE_PASSES + p });
        }
        steps.push(WorkloadStep::Publish { phase });
        if phase + 1 < PHASE_MARKERS.len() {
            steps.push(WorkloadStep::Churn);
        }
    }
    steps
}

/// Executes one workload step.
fn exec_step(
    m: &mut Machine,
    pid: u32,
    state: &mut WorkloadState,
    step: WorkloadStep,
) -> Result<()> {
    match step {
        WorkloadStep::MapScratch => {
            let va = m.mmap(pid, SCRATCH_PAGES * PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY)?;
            state.scratch = Some(va);
        }
        WorkloadStep::Analyze { pass } => {
            let base = state.scratch.expect("MapScratch precedes every Analyze");
            for i in 0..ANALYZE_READS {
                let n = pass as u64 * ANALYZE_READS + i;
                let addr = base + (n % SCRATCH_PAGES) * PAGE_SIZE as u64 + (n % 64) * 64;
                m.access(pid, addr, AccessKind::Read)?;
            }
        }
        WorkloadStep::Map => {
            let va = m.mmap(pid, 4 * PAGE_SIZE as u64, Prot::RW, MapFlags::NVM)?;
            state.bases.push(va);
        }
        WorkloadStep::Touch { phase, page } => {
            m.access(pid, state.bases[phase] + page * PAGE_SIZE as u64, AccessKind::Write)?;
        }
        WorkloadStep::Publish { phase } => {
            m.kernel.process_mut(pid)?.regs.rip = PHASE_MARKERS[phase];
            m.checkpoint_now()?;
        }
        WorkloadStep::Churn => {
            let extra = m.mmap(pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM)?;
            m.munmap(pid, extra, PAGE_SIZE as u64)?;
        }
    }
    Ok(())
}

/// Runs the whole step list (the golden workload, start to finish).
fn run_workload(m: &mut Machine, pid: u32) -> Result<()> {
    let mut state = WorkloadState::default();
    for step in workload_steps() {
        exec_step(m, pid, &mut state, step)?;
    }
    Ok(())
}

/// One golden-run capture: the machine snapshot taken after `step` steps,
/// plus everything a forked crash point needs to resume as if it had
/// executed the prefix itself.
struct SnapshotRecord {
    /// Workload steps executed before this capture (= index of the next
    /// step to run).
    step: usize,
    /// Persist-boundary events counted before this capture.
    boundaries: u64,
    /// NVM line writes counted before this capture.
    nvm_writes: u64,
    /// `(slot, copy)` of every checkpoint publish in the prefix — seeds
    /// the forked [`RecoveryChecker`]'s cross-crash copy-alternation
    /// memory, which a mid-run checker could not otherwise know.
    publishes: Vec<(u64, u64)>,
    /// Workload context at the capture.
    state: WorkloadState,
    /// The workload process id.
    pid: u32,
    /// The machine.
    snap: MachineSnapshot,
}

/// Bounded-retention snapshot pool (the buffer-pool idiom): snapshots are
/// offered in step order and kept while their step index is a multiple of
/// the current stride; whenever the pool would exceed its capacity the
/// stride doubles and the pool re-thins, so memory stays constant no
/// matter how long the golden run is. Step 0 (the post-spawn baseline) is
/// always a multiple of every stride, so a fork point is never without an
/// ancestor.
pub(crate) struct SnapshotPool {
    records: Vec<SnapshotRecord>,
    capacity: usize,
    stride: usize,
    high_water: usize,
    offered: usize,
}

impl SnapshotPool {
    fn new(capacity: usize) -> Self {
        SnapshotPool {
            records: Vec::new(),
            capacity: capacity.max(1),
            stride: 1,
            high_water: 0,
            offered: 0,
        }
    }

    fn offer(&mut self, rec: SnapshotRecord) {
        self.offered += 1;
        if !rec.step.is_multiple_of(self.stride) {
            return;
        }
        self.records.push(rec);
        while self.records.len() > self.capacity {
            self.stride *= 2;
            let stride = self.stride;
            self.records.retain(|r| r.step % stride == 0);
        }
        self.high_water = self.high_water.max(self.records.len());
    }

    /// The latest record usable for a cut at `point` (its prefix must end
    /// at or before the cut point). Cycle cuts always boot fresh.
    fn nearest(&self, point: FaultPoint) -> Option<&SnapshotRecord> {
        self.records.iter().rev().find(|r| match point {
            FaultPoint::Boundary(b) => r.boundaries <= b,
            FaultPoint::NvmWrite(w) => r.nvm_writes <= w,
            FaultPoint::Cycle(_) => false,
        })
    }

    fn telemetry(&self, golden: &GoldenRun) -> SweepTelemetry {
        SweepTelemetry {
            boundaries: golden.boundaries,
            nvm_writes: golden.nvm_writes,
            snapshots_offered: self.offered as u64,
            snapshots_retained: self.records.len() as u64,
            pool_high_water: self.high_water as u64,
            pool_capacity: self.capacity as u64,
            pool_stride: self.stride as u64,
        }
    }
}

/// Builds the public [`GoldenRun`] from a finished counter.
///
/// # Panics
///
/// Panics if the workload did not publish one checkpoint per phase (the
/// harness itself would be broken).
fn golden_of(c: &BoundaryCounter) -> GoldenRun {
    assert_eq!(
        c.publishes.len(),
        PHASE_MARKERS.len(),
        "one publish per workload phase, got {:?}",
        c.publishes
    );
    GoldenRun {
        boundaries: c.boundaries,
        nvm_writes: c.nvm_writes,
        publishes: c
            .publishes
            .iter()
            .zip(PHASE_MARKERS)
            .map(|(p, marker)| (p.boundary, marker))
            .collect(),
    }
}

/// Runs the workload once with a passive counter installed and returns the
/// boundary enumeration.
///
/// # Errors
///
/// Propagates machine/workload failures.
///
/// # Panics
///
/// Panics if the workload did not publish one checkpoint per phase (the
/// harness itself would be broken).
pub fn golden_run(mode: PtMode) -> Result<GoldenRun> {
    golden_run_cfg(&config(mode, false))
}

/// The golden enumeration for an explicit machine config (the stuck-cell
/// sweep builds one with media faults and the scrub daemon armed).
fn golden_run_cfg(cfg: &MachineConfig) -> Result<GoldenRun> {
    let counter = Rc::new(RefCell::new(BoundaryCounter::new()));
    let guard = sanitize::install(Box::new(SharedSanitizer(counter.clone())));
    let mut m = Machine::new(cfg.clone())?;
    let pid = m.spawn_process()?;
    run_workload(&mut m, pid)?;
    drop(guard);
    drop(m);
    let golden = golden_of(&counter.borrow());
    Ok(golden)
}

/// The recording golden run: enumerates boundaries like
/// [`golden_run_cfg`] *and* captures a snapshot after every workload step
/// into a bounded pool. The machine runs with a (never-cut) power switch
/// armed so the controller maintains the same write-buffer undo tracking
/// the crash points run under — a snapshot must capture the exact state a
/// replay-from-zero machine would have at the same step. The full-run
/// [`InvariantChecker`] + [`RecoveryChecker`] ride along, preserving the
/// whole-prefix invariant coverage that per-point replays used to provide.
fn recorded_golden_cfg(cfg: &MachineConfig) -> Result<(GoldenRun, SnapshotPool)> {
    let counter = Rc::new(RefCell::new(BoundaryCounter::new()));
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let rc = RecoveryChecker::new();
    let rc_log = rc.log();
    let guard = sanitize::install(Box::new(Fanout(vec![
        Box::new(SharedSanitizer(counter.clone())),
        Box::new(ic),
        Box::new(rc),
    ])));
    let mut m = Machine::new(cfg.clone())?;
    let _armed = m.arm_power_cut();
    let pid = m.spawn_process()?;
    let mut pool = SnapshotPool::new(SNAPSHOT_POOL_CAPACITY);
    let mut state = WorkloadState::default();
    let capture = |pool: &mut SnapshotPool,
                   c: &Rc<RefCell<BoundaryCounter>>,
                   step: usize,
                   state: &WorkloadState,
                   m: &Machine| {
        let c = c.borrow();
        pool.offer(SnapshotRecord {
            step,
            boundaries: c.boundaries,
            nvm_writes: c.nvm_writes,
            publishes: c.publishes.iter().map(|p| (p.slot, p.copy)).collect(),
            state: state.clone(),
            pid,
            snap: m.snapshot(),
        });
    };
    capture(&mut pool, &counter, 0, &state, &m);
    for (i, step) in workload_steps().into_iter().enumerate() {
        exec_step(&mut m, pid, &mut state, step)?;
        capture(&mut pool, &counter, i + 1, &state, &m);
    }
    drop(guard);
    drop(m);
    let ic_violations = ic_log.take();
    assert!(ic_violations.is_empty(), "golden run invariant violations {ic_violations:?}");
    let rc_violations = rc_log.take();
    assert!(rc_violations.is_empty(), "golden run recovery violations {rc_violations:?}");
    let golden = golden_of(&counter.borrow());
    Ok((golden, pool))
}

/// The checkpoint the recovered machine must come back to when power is
/// cut right after boundary `b`: a publish at boundary index `i` became
/// durable at the drain immediately preceding it (index `i - 1`), so it
/// counts for every `b >= i - 1`.
fn expected_marker(golden: &GoldenRun, b: u64) -> Option<u64> {
    golden.publishes.iter().rev().find(|&&(i, _)| i <= b + 1).map(|&(_, marker)| marker)
}

/// A machine driven to its cut point, with the trigger guard still
/// installed (the checkers must watch the crash and recovery that follow).
struct CutRun {
    m: Machine,
    pid: u32,
    _guard: sanitize::Installed,
    ic_log: ViolationLog,
    rc_log: RecoveryViolationLog,
}

/// Drives one machine to its cut point: forked from the nearest pool
/// snapshot when one is usable, booted fresh otherwise (no pool, or the
/// cut lands inside construction/spawn — before the first capture). A
/// fresh boot is the empty prefix: no publishes seen, no events consumed.
/// Execution stops at the first step boundary after the cut fires: nothing
/// a real machine would run after a power cut is simulated, and both
/// origins stop at the same step, which is what makes their digests
/// byte-identical.
fn run_to_cut(
    cfg: &MachineConfig,
    pool: Option<&SnapshotPool>,
    point: FaultPoint,
) -> Result<CutRun> {
    let rec = pool.and_then(|p| p.nearest(point));
    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let rc = RecoveryChecker::with_publishes(rec.map_or(&[], |r| &r.publishes));
    let rc_log = rc.log();
    // The trigger counts suffix events from zero, so the plan is re-based
    // onto the events the snapshot's prefix already consumed.
    let (boundaries, nvm_writes) = rec.map_or((0, 0), |r| (r.boundaries, r.nvm_writes));
    let plan = match point {
        FaultPoint::Boundary(b) => FaultPlan::at_boundary(b - boundaries),
        FaultPoint::NvmWrite(w) => FaultPlan::at_nvm_write(w - nvm_writes),
        FaultPoint::Cycle(c) => FaultPlan::at_cycle(c),
    };
    let trigger = PowerCutTrigger::new(plan, vec![Box::new(ic), Box::new(rc)]);
    let switch = trigger.switch();
    let guard = sanitize::install(Box::new(trigger));
    let mut m = match rec {
        Some(r) => Machine::restore(&r.snap),
        None => Machine::new(cfg.clone())?,
    };
    m.hw.mc.arm_power_cut(switch.clone());
    let (pid, mut state, first) = match rec {
        Some(r) => (r.pid, r.state.clone(), r.step),
        None => (m.spawn_process()?, WorkloadState::default(), 0),
    };
    for &step in &workload_steps()[first..] {
        if switch.is_cut() {
            break;
        }
        exec_step(&mut m, pid, &mut state, step)?;
    }
    assert!(switch.is_cut(), "{point:?} never reached; golden run out of sync");
    Ok(CutRun { m, pid, _guard: guard, ic_log, rc_log })
}

/// The event index a crash point names.
fn point_index(point: FaultPoint) -> u64 {
    match point {
        FaultPoint::Boundary(n) | FaultPoint::NvmWrite(n) | FaultPoint::Cycle(n) => n,
    }
}

/// Crashes one machine at `point` (tearing with `rng`), recovers,
/// verifies, and returns whether the workload process survived plus this
/// crash point's digest observables.
///
/// A boundary cut must recover exactly the last durable checkpoint of the
/// golden run. A write-granular cut can land mid-protocol, so its expected
/// checkpoint is not derivable from the golden enumeration; the check is
/// that recovery lands on *some* phase checkpoint, or cleanly on none.
/// Either way the checkers must see zero violations and the machine must
/// be operational afterwards.
fn crash_at(
    cfg: &MachineConfig,
    golden: &GoldenRun,
    pool: Option<&SnapshotPool>,
    point: FaultPoint,
    rng: &mut Rng64,
) -> Result<(bool, Vec<u64>)> {
    let CutRun { mut m, pid, _guard, ic_log, rc_log } = run_to_cut(cfg, pool, point)?;

    m.crash_torn(rng)?;
    let report = m.recover()?;

    let recovered = report.recovered_pids.contains(&pid);
    let rip = if recovered { Some(m.kernel.process(pid)?.regs.rip) } else { None };
    if let FaultPoint::Boundary(b) = point {
        let want = expected_marker(golden, b);
        let pids = if want.is_some() { vec![pid] } else { Vec::new() };
        assert_eq!(report.recovered_pids, pids, "{point:?}: wrong recovered set ({report:?})");
        assert_eq!(rip, want, "{point:?}: recovered rip {rip:x?}, want last durable checkpoint");
    } else if let Some(rip) = rip {
        assert!(
            PHASE_MARKERS.contains(&rip),
            "{point:?}: recovered rip {rip:#x} is not a phase checkpoint"
        );
    }

    // The machine must still be fully operational after recovery.
    let cont_pid = if recovered { pid } else { m.spawn_process()? };
    let cva = m.mmap(cont_pid, PAGE_SIZE as u64, Prot::RW, MapFlags::NVM)?;
    m.access(cont_pid, cva, AccessKind::Write)?;
    m.kernel.process_mut(cont_pid)?.regs.rip = CONTINUATION_MARKER;
    m.checkpoint_now()?;

    let ic_violations = ic_log.take();
    assert!(ic_violations.is_empty(), "{point:?}: invariant violations {ic_violations:?}");
    let rc_violations = rc_log.take();
    assert!(rc_violations.is_empty(), "{point:?}: recovery violations {rc_violations:?}");

    let mut words = vec![
        point_index(point),
        u64::from(recovered),
        if recovered { m.kernel.process(pid)?.regs.rip } else { 0 },
        report.log_records_replayed,
        report.torn_log_records,
        report.copy_fallbacks,
        report.frames_repaired,
        report.pages_remapped,
        report.dram_entries_dropped,
        m.now().as_u64(),
    ];
    // With scrubd armed the scrub/correction work is part of what the seed
    // must pin, so its counters join the digest (machines without scrubd
    // append nothing, keeping their digests comparable with older runs).
    if let Some(s) = &m.scrub {
        let st = s.stats();
        let media = m.hw.mc.stats().media;
        words.extend([
            st.passes,
            st.lines_detected,
            st.lines_corrected,
            st.frames_retired,
            media.corrections_allocated,
            media.uncorrectable_line_writes,
        ]);
    }
    Ok((recovered, words))
}

/// Runs one crash sweep against `cfg`: the golden run `strategy` calls
/// for, then one torn crash + verified recovery per crash point. `plan`
/// turns the golden run into the crash points and the digest's leading
/// words, which keep sweep families and variants from colliding. Returns
/// the outcome (`boundaries` counts the crash points exercised) and the
/// golden run's telemetry.
fn run_crash_sweep(
    cfg: MachineConfig,
    seed: u64,
    run: RunSettings,
    strategy: SweepStrategy,
    plan: impl FnOnce(&GoldenRun) -> (Vec<FaultPoint>, Vec<u64>),
) -> Result<(SweepOutcome, SweepTelemetry)> {
    let cfg = &run.apply(cfg);
    let (golden, pool) = match strategy {
        SweepStrategy::SnapshotFork => {
            let (g, p) = recorded_golden_cfg(cfg)?;
            (g, Some(p))
        }
        SweepStrategy::ReplayFromZero => (golden_run_cfg(cfg)?, None),
    };
    let (points, mut digest_words) = plan(&golden);
    let crash_points = points.len() as u64;
    let golden_ref = &golden;
    let pool_ref = pool.as_ref();
    let results = parallel::par_map(run.jobs, points, move |point| {
        // A fresh generator per point keeps crash points independent:
        // inserting a point does not shift every later tear.
        let mut rng = Rng64::new(seed ^ (point_index(point) + 1).wrapping_mul(GOLDEN_GAMMA));
        crash_at(cfg, golden_ref, pool_ref, point, &mut rng)
    });
    let mut recovered = 0u64;
    for point in results {
        let (rec, words) = point?;
        recovered += u64::from(rec);
        digest_words.extend(words);
    }
    let telemetry = pool.as_ref().map(|p| p.telemetry(&golden)).unwrap_or(SweepTelemetry {
        boundaries: golden.boundaries,
        nvm_writes: golden.nvm_writes,
        ..SweepTelemetry::default()
    });
    let outcome =
        SweepOutcome { boundaries: crash_points, recovered, digest: checksum64(&digest_words) };
    Ok((outcome, telemetry))
}

/// Every persist boundary of `golden` as a crash point, with the digest
/// led by `prefix` and the golden run's sizes.
fn every_boundary(prefix: &[u64], golden: &GoldenRun) -> (Vec<FaultPoint>, Vec<u64>) {
    let mut lead = prefix.to_vec();
    lead.extend([golden.boundaries, golden.nvm_writes]);
    ((0..golden.boundaries).map(FaultPoint::Boundary).collect(), lead)
}

/// Runs the full sweep for one page-table scheme: golden enumeration, then
/// one torn crash + verified recovery per boundary. All tearing randomness
/// derives from `seed`, so equal seeds must yield equal
/// [`SweepOutcome::digest`]s. `threaded` runs every checkpoint on the
/// simulated checkpoint daemon kthread; the thread interleaving is
/// replayed deterministically from the seed, so equal seeds still mean
/// equal digests. Any worker count gives the identical outcome
/// (`run.jobs = 1` is the exact serial loop), and so does either
/// strategy: the replay-from-zero oracle must reproduce the forked
/// sweep's digest. `run`'s fault model and backend arm the machines.
///
/// # Errors
///
/// Propagates machine/workload/recovery failures.
///
/// # Panics
///
/// Panics when a recovery check fails (wrong checkpoint recovered, checker
/// violations, golden run out of sync).
pub fn run_sweep_strategy(
    mode: PtMode,
    seed: u64,
    threaded: bool,
    run: RunSettings,
    strategy: SweepStrategy,
) -> Result<SweepOutcome> {
    Ok(run_crash_sweep(config(mode, threaded), seed, run, strategy, |g| every_boundary(&[], g))?.0)
}

/// The stuck-cell sweep: the full boundary crash/recovery sweep run
/// against NVM media seeded with `stuck` stuck-at cells, with the ECP
/// correction layer and the scrub daemon armed. Every crash point must
/// still recover exactly the last durable checkpoint with zero sanitizer
/// violations — the stuck cells the workload's write set crosses are
/// absorbed by write-time correction, and scrubd verify passes (whose
/// counters join the digest) keep the NVM-resident page tables honest
/// across every crash and recovery. `run` and `strategy` are as in
/// [`run_sweep_strategy`]; the sweep's own fault model wins over
/// `run.faults`.
///
/// # Errors
///
/// Propagates machine/workload/recovery failures.
///
/// # Panics
///
/// Panics when a recovery check fails (wrong checkpoint recovered, checker
/// violations, golden run out of sync).
pub fn run_stuck_sweep_strategy(
    mode: PtMode,
    seed: u64,
    stuck: usize,
    run: RunSettings,
    strategy: SweepStrategy,
) -> Result<SweepOutcome> {
    let cfg = stuck_config(mode, seed, stuck);
    Ok(run_crash_sweep(cfg, seed, run, strategy, |g| every_boundary(&[stuck as u64], g))?.0)
}

/// The write-granular sweep: cuts power after every `stride`-th NVM line
/// write of the workload (stride 1 = exhaustive; the exhaustive run is
/// CI tier 2 — the `sweep` job times it serial vs parallel via the bench
/// `sweep` binary). Returns a [`SweepOutcome`] whose `boundaries` counts
/// the crash points exercised, and the sweep's [`SweepTelemetry`] (the
/// `sweep` bench binary publishes it as the `SWEEP_timing.json` CI
/// artifact). `run` and `strategy` are as in [`run_sweep_strategy`].
///
/// # Errors
///
/// Propagates machine/workload/recovery failures.
///
/// # Panics
///
/// Panics when a recovery check fails.
pub fn run_nvm_write_sweep(
    mode: PtMode,
    seed: u64,
    stride: u64,
    run: RunSettings,
    strategy: SweepStrategy,
) -> Result<(SweepOutcome, SweepTelemetry)> {
    let stride = stride.max(1);
    run_crash_sweep(config(mode, false), seed, run, strategy, |g| {
        let points = (0..g.nvm_writes).step_by(stride as usize).map(FaultPoint::NvmWrite).collect();
        (points, vec![g.boundaries, g.nvm_writes, stride])
    })
}

/// [`run_nvm_write_sweep`] on `jobs` workers, fault-free, on the default
/// far tier.
///
/// # Errors
///
/// Propagates machine/workload/recovery failures.
pub fn run_nvm_write_sweep_instrumented(
    mode: PtMode,
    seed: u64,
    stride: u64,
    jobs: usize,
    strategy: SweepStrategy,
) -> Result<(SweepOutcome, SweepTelemetry)> {
    let run = RunSettings { jobs, ..RunSettings::default() };
    run_nvm_write_sweep(mode, seed, stride, run, strategy)
}

/// NVM data pages the integrity workload maps and fills per grid point.
const INTEGRITY_PAGES: u64 = 4;
/// Patrold period of the data-integrity sweep: short enough that the drive
/// loop sees several full-pool batches.
const INTEGRITY_PATROL_INTERVAL: Cycles = Cycles::from_micros(10);

/// Aggregate result of one data-integrity sweep (see
/// [`run_data_integrity_sweep_strategy`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataIntegrityOutcome {
    /// Grid points exercised (ECP budget × daemons on/off).
    pub points: u64,
    /// Data lines healed in place by patrol erasure decode, summed.
    pub data_healed: u64,
    /// Mapped data frames poisoned (content unrecoverable), summed.
    pub data_poisoned: u64,
    /// Processes killed with `MemoryPoison`, summed.
    pub procs_killed: u64,
    /// Order-sensitive digest of every observable of every point.
    pub digest: u64,
}

/// The data-integrity machine: persistent page tables (so scrubd and the
/// patrol's table-skip both do real work), a controlled media model with
/// `budget` ECP entries per line and *no* run-wide faults (the point seeds
/// its own stuck cells under data lines), and — on the daemon arm — both
/// scrubd and patrold.
fn integrity_config(budget: u32, daemons: bool, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
    if daemons {
        cfg = cfg
            .with_scrub_interval(STUCK_SCRUB_INTERVAL)
            .with_patrol_interval(INTEGRITY_PATROL_INTERVAL);
    }
    cfg.mem.faults = Some(MediaFaultConfig {
        wear_limit: 0,
        stuck_cells: 0,
        correction_entries: budget,
        ..MediaFaultConfig::with_seed(seed)
    });
    cfg
}

/// One grid point of the data-integrity sweep: fill mapped NVM data pages
/// through the checksummed store path, seed `stuck` single-bit stuck cells
/// under distinct data lines, let the daemons (when armed) patrol, and
/// verify the graceful-degradation contract:
///
/// * budget covers the erasures → every line healed byte-identical, nobody
///   dies, reads are clean;
/// * budget exhausted → the first corrupt frame found poisons its page and
///   kills the owner; the frame stays quarantined; later victim accesses
///   fail instead of returning corrupt bytes;
/// * daemons off → the corruption persists silently (pinned by the shadow
///   mismatch count); the sanitizer stays quiet only because the workload
///   never reads the corrupt lines.
///
/// Under [`SweepStrategy::SnapshotFork`] the machine additionally makes a
/// `snapshot → restore` round trip right after fault seeding and the rest
/// of the point runs on the *restored* machine — this sweep has no shared
/// prefix to fork (each grid point is independent), so its strategy
/// cross-check instead pins that a round trip is perfectly transparent to
/// live patrol/kill behaviour, byte-identical digest included.
///
/// Returns `(healed, poisoned, killed, digest_words)`.
fn run_integrity_point(
    budget: u32,
    daemons: bool,
    stuck: usize,
    seed: u64,
    run: RunSettings,
    strategy: SweepStrategy,
) -> Result<(u64, u64, u64, Vec<u64>)> {
    const WORDS_PER_PAGE: u64 = PAGE_SIZE as u64 / 8;
    const LINES_PER_PAGE: u64 = PAGE_SIZE as u64 / 64;

    let ic = InvariantChecker::new();
    let ic_log = ic.log();
    let guard = sanitize::install(Box::new(ic));
    let mut m = Machine::new(run.apply(integrity_config(budget, daemons, seed)))?;
    let victim = m.spawn_process()?;
    let driver = m.spawn_process()?;
    let va = m.mmap(
        victim,
        INTEGRITY_PAGES * PAGE_SIZE as u64,
        Prot::RW,
        MapFlags::NVM | MapFlags::POPULATE,
    )?;

    // Fill every line through the data path, recording store-time
    // checksums; keep a host-side shadow of the intended words.
    let mut rng = Rng64::new(seed);
    let mut frames = Vec::new();
    let mut shadow = Vec::with_capacity((INTEGRITY_PAGES * WORDS_PER_PAGE) as usize);
    for page in 0..INTEGRITY_PAGES {
        let pte = m
            .kernel
            .translate(&mut m.hw, victim, va + page * PAGE_SIZE as u64)?
            .expect("populated page is mapped");
        frames.push(pte.pfn());
        for w in 0..WORDS_PER_PAGE {
            let val = rng.next_u64();
            m.hw.write_u64(pte.pfn().base() + w * 8, val);
            shadow.push(val);
        }
    }

    // Seed `stuck` single-bit stuck cells under distinct data lines: one
    // erasure per line, so any nonzero ECP budget can heal every one.
    let mut chosen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    while chosen.len() < stuck.min((INTEGRITY_PAGES * LINES_PER_PAGE) as usize) {
        chosen.insert(rng.gen_below(INTEGRITY_PAGES * LINES_PER_PAGE));
    }
    let mut degraded_pages: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for &slot in &chosen {
        let (page, line) = (slot / LINES_PER_PAGE, slot % LINES_PER_PAGE);
        let line_pa = frames[page as usize].base().as_u64() + line * 64;
        let bit = rng.gen_below(512) as u32;
        if !m.hw.mc.degrade_line_bit(line_pa, bit) {
            return Err(KindleError::InvalidArgument(
                "data-integrity grid needs a far tier with a media-fault model",
            ));
        }
        degraded_pages.insert(page);
    }
    let stuck = chosen.len() as u64;

    // Snapshot/restore round trip: the rest of the point — patrol passes,
    // healing, poison kills — must behave byte-identically on the restored
    // machine, or a forked sweep could never be trusted.
    if strategy == SweepStrategy::SnapshotFork {
        let snap = m.snapshot();
        m = Machine::restore(&snap);
    }

    // Drive the clock from the driver process until patrold has covered
    // the pool (or the victim died); with daemons off, just a fixed spin.
    let dva = m.mmap(driver, PAGE_SIZE as u64, Prot::RW, MapFlags::EMPTY)?;
    let spins = if daemons { 400_000 } else { 64 };
    for _ in 0..spins {
        m.access(driver, dva, AccessKind::Write)?;
        if !daemons {
            continue;
        }
        let passes = m.patrol.as_ref().map_or(0, |p| p.stats().passes);
        let victim_dead = m.kernel.process(victim).is_err();
        if passes >= 2 && (budget > 0 || stuck == 0 || victim_dead) {
            break;
        }
    }

    let patrol = m.patrol.as_ref().map(|p| p.stats().clone()).unwrap_or_default();
    let victim_dead = m.kernel.process(victim).is_err();
    let mut mismatches = 0u64;
    if !daemons {
        // Daemons off: silent corruption persists — pin its footprint.
        assert_eq!(patrol.passes, 0);
        for page in 0..INTEGRITY_PAGES {
            for w in 0..WORDS_PER_PAGE {
                let got = m.hw.read_u64(frames[page as usize].base() + w * 8);
                mismatches += u64::from(got != shadow[(page * WORDS_PER_PAGE + w) as usize]);
            }
            if !degraded_pages.contains(&page) {
                m.access(victim, va + page * PAGE_SIZE as u64, AccessKind::Read)?;
            }
        }
        assert_eq!(mismatches, stuck, "each stuck bit flips exactly one stored word");
    } else if budget > 0 {
        // Healable: every seeded erasure decoded back, byte-identical.
        assert_eq!(patrol.lines_healed, stuck, "every degraded line heals under budget");
        assert_eq!(patrol.frames_poisoned, 0);
        assert!(!victim_dead, "nobody dies on healable faults");
        for page in 0..INTEGRITY_PAGES {
            for w in 0..WORDS_PER_PAGE {
                let got = m.hw.read_u64(frames[page as usize].base() + w * 8);
                assert_eq!(got, shadow[(page * WORDS_PER_PAGE + w) as usize], "healed bytes");
            }
            // The application-visible read path must also be clean (the
            // sanitizer verifies no read consumed an uncorrected line).
            m.access(victim, va + page * PAGE_SIZE as u64, AccessKind::Read)?;
        }
    } else if stuck > 0 {
        // Unhealable: graceful degradation, never corrupt reads.
        assert_eq!(patrol.procs_killed, 1, "victim killed once");
        assert!(patrol.frames_poisoned >= 1);
        assert!(victim_dead);
        let err = m.access(victim, va, AccessKind::Read).unwrap_err();
        assert!(
            matches!(err, KindleError::NoSuchProcess(p) if p == victim),
            "post-kill access fails instead of returning corrupt bytes: {err:?}"
        );
    }

    let violations = ic_log.take();
    assert!(violations.is_empty(), "integrity point violations: {violations:?}");
    drop(guard);

    let words = vec![
        budget as u64,
        u64::from(daemons),
        stuck,
        patrol.passes,
        patrol.frames_checked,
        patrol.lines_detected,
        patrol.lines_healed,
        patrol.frames_poisoned,
        patrol.frames_retired,
        patrol.procs_killed,
        m.scrub.as_ref().map_or(0, |s| s.stats().passes),
        u64::from(victim_dead),
        mismatches,
        m.now().as_u64(),
    ];
    Ok((patrol.lines_healed, patrol.frames_poisoned, patrol.procs_killed, words))
}

/// The data-integrity sweep: a grid of (ECP budget × daemons on/off)
/// points, each seeding `stuck` stuck cells under *data* frames and
/// verifying the checksum-patrol/poison/graceful-degradation contract (see
/// `run_integrity_point`'s contract list). Equal seeds must yield equal
/// digests regardless of worker count (`run.jobs = 1` is the exact serial
/// loop); the grid's own fault model wins over `run.faults`. The two
/// strategies must produce identical outcomes: the snapshot-fork arm runs
/// each point's patrol/kill tail on a machine that made a
/// `snapshot → restore` round trip mid-point.
///
/// # Errors
///
/// Propagates machine/workload failures; [`KindleError::InvalidArgument`]
/// when the far tier has no media-fault model to seed stuck cells into
/// (e.g. `--backend numa`).
///
/// # Panics
///
/// Panics when a point violates the integrity contract (missed heal,
/// corrupt read, surviving owner of a lost page, sanitizer violations).
pub fn run_data_integrity_sweep_strategy(
    seed: u64,
    stuck: usize,
    run: RunSettings,
    strategy: SweepStrategy,
) -> Result<DataIntegrityOutcome> {
    let grid: Vec<(u64, u32, bool)> = [(0u32, false), (0, true), (2, false), (2, true)]
        .iter()
        .enumerate()
        .map(|(i, &(budget, daemons))| (i as u64, budget, daemons))
        .collect();
    let results = parallel::par_map(run.jobs, grid, move |(i, budget, daemons)| {
        // A fresh generator per point keeps grid points independent.
        let pseed = seed ^ (i + 1).wrapping_mul(GOLDEN_GAMMA);
        run_integrity_point(budget, daemons, stuck, pseed, run, strategy)
    });
    let mut digest_words = vec![seed, stuck as u64];
    let (mut healed, mut poisoned, mut killed, mut points) = (0u64, 0u64, 0u64, 0u64);
    for point in results {
        let (h, p, k, words) = point?;
        healed += h;
        poisoned += p;
        killed += k;
        points += 1;
        digest_words.extend(words);
    }
    Ok(DataIntegrityOutcome {
        points,
        data_healed: healed,
        data_poisoned: poisoned,
        procs_killed: killed,
        digest: checksum64(&digest_words),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_run_enumerates_boundaries() {
        let g = golden_run(PtMode::Rebuild).unwrap();
        assert!(g.boundaries > 10, "workload too small to sweep: {g:?}");
        assert!(g.nvm_writes > 0);
        assert_eq!(g.publishes.len(), 3);
        // Publishes appear in boundary order with the phase markers.
        assert!(g.publishes.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(g.publishes[0].1, 0x1111);
    }

    #[test]
    fn golden_run_is_deterministic() {
        let a = golden_run(PtMode::Rebuild).unwrap();
        let b = golden_run(PtMode::Rebuild).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_golden_matches_plain_enumeration() {
        // Arming the recorder's (never-cut) power switch and taking
        // snapshots must not perturb the boundary structure.
        let cfg = config(PtMode::Rebuild, false);
        let plain = golden_run_cfg(&cfg).unwrap();
        let (recorded, pool) = recorded_golden_cfg(&cfg).unwrap();
        assert_eq!(plain, recorded);
        assert!(!pool.records.is_empty());
        assert!(pool.records.len() <= pool.capacity);
        // Step 0 (post-spawn baseline) survives every thinning round.
        assert_eq!(pool.records[0].step, 0);
        let t = pool.telemetry(&recorded);
        assert_eq!(t.snapshots_offered, workload_steps().len() as u64 + 1);
        assert!(t.pool_high_water <= t.pool_capacity);
        assert!(t.snapshots_retained >= 1);
    }

    #[test]
    fn expected_marker_uses_flip_drain_boundary() {
        let g = GoldenRun { boundaries: 20, nvm_writes: 0, publishes: vec![(5, 0xaa), (12, 0xbb)] };
        assert_eq!(expected_marker(&g, 3), None);
        // The publish at index 5 drained its flip at index 4.
        assert_eq!(expected_marker(&g, 4), Some(0xaa));
        assert_eq!(expected_marker(&g, 5), Some(0xaa));
        assert_eq!(expected_marker(&g, 10), Some(0xaa));
        assert_eq!(expected_marker(&g, 11), Some(0xbb));
        assert_eq!(expected_marker(&g, 19), Some(0xbb));
    }

    fn dummy_record(step: usize, boundaries: u64) -> SnapshotRecord {
        let m = Machine::new(MachineConfig::small()).unwrap();
        SnapshotRecord {
            step,
            boundaries,
            nvm_writes: boundaries * 10,
            publishes: Vec::new(),
            state: WorkloadState::default(),
            pid: 1,
            snap: m.snapshot(),
        }
    }

    #[test]
    fn snapshot_pool_thins_by_doubling_stride() {
        let mut pool = SnapshotPool::new(4);
        for step in 0..12 {
            pool.offer(dummy_record(step, step as u64));
        }
        assert!(pool.records.len() <= 4, "capacity respected: {}", pool.records.len());
        assert_eq!(pool.high_water, 4, "high water caps at capacity");
        assert!(pool.stride >= 4, "stride doubled at least twice: {}", pool.stride);
        assert_eq!(pool.records[0].step, 0, "baseline survives thinning");
        assert!(pool.records.iter().all(|r| r.step % pool.stride == 0));
        assert_eq!(pool.offered, 12);
    }

    #[test]
    fn snapshot_pool_nearest_picks_latest_usable() {
        let mut pool = SnapshotPool::new(8);
        for step in 0..4 {
            pool.offer(dummy_record(step, step as u64 * 5));
        }
        // Records at boundaries 0, 5, 10, 15.
        let at = |b| pool.nearest(FaultPoint::Boundary(b)).unwrap().boundaries;
        assert_eq!([at(0), at(4), at(5), at(12), at(99)], [0, 0, 5, 10, 15]);
        let at = |w| pool.nearest(FaultPoint::NvmWrite(w)).unwrap().nvm_writes;
        assert_eq!([at(49), at(120)], [0, 100]);
        assert!(pool.nearest(FaultPoint::Cycle(99)).is_none());
    }
}
