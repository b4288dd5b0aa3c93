//! Process-persistence experiments: Fig. 4a/4b, Table III, Table IV.
//!
//! All four use the micro-benchmarks of §III-A, run with periodic
//! execution-context checkpointing under the *rebuild* and *persistent*
//! page-table maintenance schemes.

use crate::parallel;
use kindle_os::PtMode;
use kindle_sim::{Machine, MachineConfig, RunSettings};
use kindle_types::{AccessKind, Cycles, MapFlags, Prot, Result, VirtAddr, PAGE_SIZE};

const MIB: u64 = 1 << 20;

/// Builds a checkpointing machine for one scheme.
fn persistence_machine(
    mode: PtMode,
    interval: Cycles,
    list_op_instr: u64,
    mru_page_cache: bool,
    run: RunSettings,
) -> Result<(Machine, u32)> {
    let mut cfg = MachineConfig::table_i().with_pt_mode(mode).with_checkpointing(interval);
    cfg.costs.mapping_list_op = list_op_instr;
    cfg.mem.mru_page_cache = mru_page_cache;
    // The paper's micro-benchmark timings evidently exclude demand-zeroing
    // cost (gemOS hands out pre-zeroed frames); keep the comparison on the
    // page-table maintenance work itself.
    cfg.costs.zero_new_frames = false;
    let mut m = Machine::new(run.apply(cfg))?;
    let pid = m.spawn_process()?;
    Ok((m, pid))
}

/// Writes the first word of every page in `[va, va+len)`.
fn touch_pages(m: &mut Machine, pid: u32, va: VirtAddr, len: u64) -> Result<()> {
    for i in 0..len / PAGE_SIZE as u64 {
        m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write)?;
    }
    Ok(())
}

/// Reads the first word of every page in `[va, va+len)`.
fn read_pages(m: &mut Machine, pid: u32, va: VirtAddr, len: u64) -> Result<()> {
    for i in 0..len / PAGE_SIZE as u64 {
        m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Read)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 4a — sequential allocation + access, size sweep
// ---------------------------------------------------------------------------

/// Parameters for Fig. 4a.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig4aParams {
    /// Allocation sizes in MiB.
    pub sizes_mb: Vec<u64>,
    /// Checkpoint interval.
    pub interval: Cycles,
    /// Instruction cost per mapping-list entry check (rebuild scheme).
    pub list_op_instr: u64,
    /// Sequential re-read passes over the area after the touch (the
    /// paper's runs span many checkpoint intervals).
    pub read_rounds: u64,
    /// Memory-controller MRU page cache (on by default; off exists so the
    /// equivalence test can prove the fast path changes no row).
    pub mru_page_cache: bool,
    /// Fault model, backend and worker count.
    pub run: RunSettings,
}

impl Fig4aParams {
    /// Paper scale: 64–512 MiB at a 10 ms interval.
    pub fn paper() -> Self {
        Fig4aParams {
            sizes_mb: vec![64, 128, 256, 512],
            interval: Cycles::from_millis(10),
            list_op_instr: 2600,
            read_rounds: 6,
            mru_page_cache: true,
            run: RunSettings::default(),
        }
    }

    /// Quick scale for tests and benches.
    pub fn quick() -> Self {
        Fig4aParams {
            sizes_mb: vec![16, 32],
            interval: Cycles::from_millis(1),
            list_op_instr: 2600,
            read_rounds: 2,
            mru_page_cache: true,
            run: RunSettings::default(),
        }
    }
}

/// One Fig. 4a data point.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig4aRow {
    /// Allocation size (MiB).
    pub size_mb: u64,
    /// End-to-end time under the rebuild scheme (ms).
    pub rebuild_ms: f64,
    /// End-to-end time under the persistent scheme (ms).
    pub persistent_ms: f64,
}

impl Fig4aRow {
    /// rebuild / persistent — the paper's overhead factor.
    pub fn overhead(&self) -> f64 {
        self.rebuild_ms / self.persistent_ms
    }
}

fn seq_alloc_access(mode: PtMode, size: u64, p: &Fig4aParams) -> Result<f64> {
    let (mut m, pid) =
        persistence_machine(mode, p.interval, p.list_op_instr, p.mru_page_cache, p.run)?;
    let t0 = m.now();
    let va = m.mmap(pid, size, Prot::RW, MapFlags::NVM)?;
    touch_pages(&mut m, pid, va, size)?;
    // Sequential access passes so the run spans several checkpoint
    // intervals, as in the paper.
    for _ in 0..p.read_rounds {
        read_pages(&mut m, pid, va, size)?;
    }
    Ok((m.now() - t0).as_millis_f64())
}

/// Runs Fig. 4a: sequential allocation and access of increasing sizes.
/// Grid cells (one per size) run on `p.run.jobs` workers; row order is
/// always size order.
///
/// # Errors
///
/// Propagates machine failures (e.g. NVM exhaustion on oversized params).
pub fn run_fig4a(p: &Fig4aParams) -> Result<Vec<Fig4aRow>> {
    parallel::par_map_cells(p.run.jobs, p.sizes_mb.clone(), |size_mb| {
        let size = size_mb * MIB;
        Ok(Fig4aRow {
            size_mb,
            rebuild_ms: seq_alloc_access(PtMode::Rebuild, size, p)?,
            persistent_ms: seq_alloc_access(PtMode::Persistent, size, p)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Fig. 4b — stride sweep
// ---------------------------------------------------------------------------

/// Parameters for Fig. 4b.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig4bParams {
    /// Pages allocated (paper: ten 4 KiB pages).
    pub pages: u64,
    /// Accesses performed after allocation (cycling over the pages).
    pub access_ops: u64,
    /// Checkpoint interval.
    pub interval: Cycles,
    /// Instruction cost per mapping-list entry check.
    pub list_op_instr: u64,
    /// Fault model, backend and worker count.
    pub run: RunSettings,
}

impl Fig4bParams {
    /// Paper scale.
    pub fn paper() -> Self {
        Fig4bParams {
            pages: 10,
            access_ops: 20_000_000,
            interval: Cycles::from_millis(10),
            list_op_instr: 2600,
            run: RunSettings::default(),
        }
    }

    /// Quick scale.
    pub fn quick() -> Self {
        Fig4bParams { access_ops: 1_000_000, interval: Cycles::from_millis(1), ..Self::paper() }
    }
}

/// One Fig. 4b data point.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig4bRow {
    /// Stride label ("1GB", "2MB", "4KB").
    pub stride: String,
    /// Stride in bytes.
    pub stride_bytes: u64,
    /// Rebuild-scheme time (ms).
    pub rebuild_ms: f64,
    /// Persistent-scheme time (ms).
    pub persistent_ms: f64,
}

fn stride_bench(mode: PtMode, stride: u64, p: &Fig4bParams) -> Result<f64> {
    let (mut m, pid) = persistence_machine(mode, p.interval, p.list_op_instr, true, p.run)?;
    let base = VirtAddr::new(0x10_0000_0000);
    let t0 = m.now();
    // Allocation phase: the stride decides how many page-table levels the
    // persistent scheme must create with consistency-wrapped stores.
    for i in 0..p.pages {
        let va = base + i * stride;
        m.mmap_at(pid, Some(va), PAGE_SIZE as u64, Prot::RW, MapFlags::NVM | MapFlags::FIXED)?;
        m.access(pid, va, AccessKind::Write)?;
    }
    // Access phase spanning several checkpoint intervals: the rebuild
    // scheme pays per-checkpoint mapping-list maintenance throughout.
    for i in 0..p.access_ops {
        m.access(pid, base + (i % p.pages) * stride, AccessKind::Read)?;
    }
    for i in 0..p.pages {
        m.munmap(pid, base + i * stride, PAGE_SIZE as u64)?;
    }
    Ok((m.now() - t0).as_millis_f64())
}

/// Runs Fig. 4b: ten 4 KiB allocations at 1 GiB / 2 MiB / 4 KiB strides,
/// exercising different numbers of page-table levels.
///
/// # Errors
///
/// Propagates machine failures.
pub fn run_fig4b(p: &Fig4bParams) -> Result<Vec<Fig4bRow>> {
    let strides: Vec<(&str, u64)> = vec![("1GB", 1 << 30), ("2MB", 2 << 20), ("4KB", 4096)];
    parallel::par_map_cells(p.run.jobs, strides, |(label, stride)| {
        Ok(Fig4bRow {
            stride: label.to_string(),
            stride_bytes: stride,
            rebuild_ms: stride_bench(PtMode::Rebuild, stride, p)?,
            persistent_ms: stride_bench(PtMode::Persistent, stride, p)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Table III — munmap/mmap churn
// ---------------------------------------------------------------------------

/// Parameters for Table III.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table3Params {
    /// Base allocation (MiB); the paper uses 512.
    pub base_mb: u64,
    /// Churn (alloc/free) sizes in MiB.
    pub churn_mb: Vec<u64>,
    /// Checkpoint interval.
    pub interval: Cycles,
    /// Instruction cost per mapping-list entry check.
    pub list_op_instr: u64,
    /// Fault model, backend and worker count.
    pub run: RunSettings,
}

impl Table3Params {
    /// Paper scale: 512 MiB base, 64/128/256 MiB churn.
    pub fn paper() -> Self {
        Table3Params {
            base_mb: 512,
            churn_mb: vec![64, 128, 256],
            interval: Cycles::from_millis(10),
            list_op_instr: 2600,
            run: RunSettings::default(),
        }
    }

    /// Quick scale.
    pub fn quick() -> Self {
        Table3Params {
            base_mb: 32,
            churn_mb: vec![8, 16],
            interval: Cycles::from_millis(1),
            list_op_instr: 2600,
            run: RunSettings::default(),
        }
    }
}

/// One Table III row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table3Row {
    /// Alloc/free size (MiB).
    pub churn_mb: u64,
    /// Persistent-scheme time (ms).
    pub persistent_ms: f64,
    /// Rebuild-scheme time (ms).
    pub rebuild_ms: f64,
}

/// The churn micro-benchmark shared by Tables III and IV.
fn churn_bench(
    mode: PtMode,
    base: u64,
    churn: u64,
    interval: Cycles,
    list_op_instr: u64,
    access_rounds: u64,
    run: RunSettings,
) -> Result<f64> {
    let (mut m, pid) = persistence_machine(mode, interval, list_op_instr, true, run)?;
    let t0 = m.now();
    let va = m.mmap(pid, base, Prot::RW, MapFlags::NVM)?;
    touch_pages(&mut m, pid, va, base)?;
    for _ in 0..2 {
        m.munmap(pid, va, churn)?;
        m.mmap_at(pid, Some(va), churn, Prot::RW, MapFlags::NVM | MapFlags::FIXED)?;
        touch_pages(&mut m, pid, va, churn)?;
    }
    read_pages(&mut m, pid, va, churn)?;
    for _ in 0..access_rounds {
        read_pages(&mut m, pid, va, base)?;
    }
    m.munmap(pid, va, base)?;
    Ok((m.now() - t0).as_millis_f64())
}

/// Runs Table III: repeated munmap/mmap of a fixed-size prefix.
///
/// # Errors
///
/// Propagates machine failures.
pub fn run_table3(p: &Table3Params) -> Result<Vec<Table3Row>> {
    parallel::par_map_cells(p.run.jobs, p.churn_mb.clone(), |churn_mb| {
        let (base, churn) = (p.base_mb * MIB, churn_mb * MIB);
        let bench = |mode| churn_bench(mode, base, churn, p.interval, p.list_op_instr, 0, p.run);
        Ok(Table3Row {
            churn_mb,
            persistent_ms: bench(PtMode::Persistent)?,
            rebuild_ms: bench(PtMode::Rebuild)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Table IV — checkpoint interval sweep
// ---------------------------------------------------------------------------

/// Parameters for Table IV.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table4Params {
    /// Base allocation (MiB).
    pub base_mb: u64,
    /// Churn sizes in MiB.
    pub churn_mb: Vec<u64>,
    /// Checkpoint intervals to sweep.
    pub intervals: Vec<Cycles>,
    /// Extra rounds of full-area reads (the paper's "accessed multiple
    /// times to cause TLB misses").
    pub access_rounds: u64,
    /// Instruction cost per mapping-list entry check.
    pub list_op_instr: u64,
    /// Fault model, backend and worker count.
    pub run: RunSettings,
}

impl Table4Params {
    /// Paper scale: 512 MiB base; 64/128/256 MiB churn; 10 ms/100 ms/1 s.
    pub fn paper() -> Self {
        Table4Params {
            base_mb: 512,
            churn_mb: vec![64, 128, 256],
            intervals: vec![
                Cycles::from_millis(10),
                Cycles::from_millis(100),
                Cycles::from_secs(1),
            ],
            access_rounds: 2,
            list_op_instr: 2600,
            run: RunSettings::default(),
        }
    }

    /// Quick scale.
    pub fn quick() -> Self {
        Table4Params {
            base_mb: 32,
            churn_mb: vec![8],
            intervals: vec![Cycles::from_millis(1), Cycles::from_millis(10)],
            access_rounds: 1,
            list_op_instr: 2600,
            run: RunSettings::default(),
        }
    }
}

/// One Table IV row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table4Row {
    /// Alloc/free size (MiB).
    pub churn_mb: u64,
    /// Checkpoint interval (ms).
    pub interval_ms: f64,
    /// Persistent-scheme time (ms).
    pub persistent_ms: f64,
    /// Rebuild-scheme time (ms).
    pub rebuild_ms: f64,
}

/// Runs Table IV: the churn benchmark under different checkpoint intervals.
///
/// # Errors
///
/// Propagates machine failures.
pub fn run_table4(p: &Table4Params) -> Result<Vec<Table4Row>> {
    let mut cells = Vec::new();
    for &churn_mb in &p.churn_mb {
        for &interval in &p.intervals {
            cells.push((churn_mb, interval));
        }
    }
    parallel::par_map_cells(p.run.jobs, cells, |(churn_mb, interval)| {
        let (base, churn, rounds) = (p.base_mb * MIB, churn_mb * MIB, p.access_rounds);
        let bench = |mode| churn_bench(mode, base, churn, interval, p.list_op_instr, rounds, p.run);
        Ok(Table4Row {
            churn_mb,
            interval_ms: interval.as_millis_f64(),
            persistent_ms: bench(PtMode::Persistent)?,
            rebuild_ms: bench(PtMode::Rebuild)?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_quick_shapes() {
        let rows = run_fig4a(&Fig4aParams::quick()).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.rebuild_ms > r.persistent_ms,
                "rebuild must cost more at {} MiB: {} vs {}",
                r.size_mb,
                r.rebuild_ms,
                r.persistent_ms
            );
        }
        // Overhead grows with size.
        assert!(rows[1].overhead() > rows[0].overhead());
    }

    #[test]
    fn fig4a_mru_cache_changes_no_row() {
        // The memory-controller fast path must be invisible in the results:
        // every simulated timing is identical with the cache off.
        let with_cache = run_fig4a(&Fig4aParams::quick()).unwrap();
        let without =
            run_fig4a(&Fig4aParams { mru_page_cache: false, ..Fig4aParams::quick() }).unwrap();
        assert_eq!(with_cache, without);
    }

    #[test]
    fn fig4a_rows_are_backend_pcm_invariant() {
        // An explicit PCM backend (the bench harness's --backend pcm)
        // must be byte-identical to the unset default path, serial and
        // parallel alike.
        let direct = run_fig4a(&Fig4aParams::quick()).unwrap();
        let pcm = RunSettings { backend: Some(kindle_mem::Backend::Pcm), ..RunSettings::default() };
        let explicit = run_fig4a(&Fig4aParams { run: pcm, ..Fig4aParams::quick() });
        let explicit_par =
            run_fig4a(&Fig4aParams { run: RunSettings { jobs: 4, ..pcm }, ..Fig4aParams::quick() });
        assert_eq!(direct, explicit.unwrap(), "backend=pcm changed a Fig. 4a row");
        assert_eq!(direct, explicit_par.unwrap(), "backend=pcm diverged under jobs=4");
    }

    #[test]
    fn fig4a_rows_are_jobs_invariant() {
        let serial = run_fig4a(&Fig4aParams::quick()).unwrap();
        let run = RunSettings { jobs: 4, ..RunSettings::default() };
        let parallel_rows = run_fig4a(&Fig4aParams { run, ..Fig4aParams::quick() }).unwrap();
        assert_eq!(serial, parallel_rows, "jobs=1 vs jobs=4 must agree bit-for-bit");
    }

    #[test]
    fn fig4b_quick_shapes() {
        let rows = run_fig4b(&Fig4bParams::quick()).unwrap();
        assert_eq!(rows.len(), 3);
        let by = |label: &str| rows.iter().find(|r| r.stride == label).unwrap().clone();
        let gb = by("1GB");
        let kb = by("4KB");
        // Wide strides touch more page-table levels, punishing the
        // persistent scheme relative to its own 4 KiB case.
        assert!(
            gb.persistent_ms / gb.rebuild_ms > kb.persistent_ms / kb.rebuild_ms,
            "persistent should look relatively worse at 1 GiB stride"
        );
    }

    #[test]
    fn table3_quick_shapes() {
        let rows = run_table3(&Table3Params::quick()).unwrap();
        for r in &rows {
            assert!(r.rebuild_ms > r.persistent_ms, "rebuild above persistent");
        }
        // Both grow with churn size.
        assert!(rows[1].persistent_ms > rows[0].persistent_ms);
        assert!(rows[1].rebuild_ms > rows[0].rebuild_ms);
    }

    #[test]
    fn table4_quick_shapes() {
        let rows = run_table4(&Table4Params::quick()).unwrap();
        let fast = &rows[0]; // 1 ms interval
        let slow = &rows[1]; // 10 ms interval
                             // Persistent is insensitive to the interval; rebuild benefits from
                             // longer intervals.
        let drift = (fast.persistent_ms - slow.persistent_ms).abs() / slow.persistent_ms;
        assert!(drift < 0.25, "persistent should be interval-insensitive: {drift}");
        assert!(
            fast.rebuild_ms > slow.rebuild_ms,
            "rebuild must benefit from longer intervals: {} vs {}",
            fast.rebuild_ms,
            slow.rebuild_ms
        );
    }
}
