//! SSP study: Fig. 5 plus the consolidation-interval ablation the paper
//! calls out as an extension Kindle enables.

use kindle_sim::{MachineConfig, ReplayOptions, RunSettings};
use kindle_ssp::SspConfig;
use kindle_trace::WorkloadKind;
use kindle_types::{Cycles, Result};

use crate::framework::Kindle;
use crate::parallel;

/// Parameters for Fig. 5.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig5Params {
    /// Operations replayed per benchmark (paper: 10 M).
    pub ops: u64,
    /// Trace seed.
    pub seed: u64,
    /// Consistency intervals in ms (paper: 1, 5, 10).
    pub intervals_ms: Vec<u64>,
    /// Consolidation-thread period in ms (paper fixes 1).
    pub consolidation_ms: u64,
    /// Benchmarks to run.
    pub workloads: Vec<WorkloadKind>,
    /// Fault model, backend and worker count.
    pub run: RunSettings,
}

impl Fig5Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Fig5Params {
            ops: 10_000_000,
            seed: 42,
            intervals_ms: vec![1, 5, 10],
            consolidation_ms: 1,
            workloads: WorkloadKind::ALL.to_vec(),
            run: RunSettings::default(),
        }
    }

    /// Quick scale.
    pub fn quick() -> Self {
        Fig5Params { ops: 120_000, workloads: vec![WorkloadKind::YcsbMem], ..Self::paper() }
    }
}

/// One Fig. 5 bar.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Consistency interval (ms).
    pub interval_ms: u64,
    /// Execution time without memory consistency (ms).
    pub baseline_ms: f64,
    /// Execution time with SSP (ms).
    pub ssp_ms: f64,
    /// `ssp_ms / baseline_ms` — the figure's y-axis.
    pub normalized: f64,
    /// SSP overhead alone (`normalized - 1`).
    pub overhead: f64,
}

/// Runs Fig. 5: SSP consistency-interval sweep, normalized to a run with
/// no memory consistency.
///
/// # Errors
///
/// Propagates machine and replay failures.
pub fn run_fig5(p: &Fig5Params) -> Result<Vec<Fig5Row>> {
    // Prepared programs are plain data; workers share them by reference.
    let prepared: Vec<Kindle> =
        p.workloads.iter().map(|&wl| Kindle::prepare_streaming(wl, p.ops, p.seed)).collect();
    // Baselines (no memory consistency), one cell per workload.
    let baselines = parallel::par_map_cells(p.run.jobs, (0..prepared.len()).collect(), |i| {
        let cfg = p.run.apply(MachineConfig::table_i());
        let (base, _) = prepared[i].simulate(cfg, ReplayOptions::default())?;
        Ok(base.cycles.as_millis_f64())
    })?;
    // SSP runs, one cell per (workload, interval); row order is the
    // serial nesting order.
    let mut cells = Vec::new();
    for (i, &wl) in p.workloads.iter().enumerate() {
        for &interval_ms in &p.intervals_ms {
            cells.push((i, wl, interval_ms));
        }
    }
    parallel::par_map_cells(p.run.jobs, cells, |(i, wl, interval_ms)| {
        let cfg = p.run.apply(MachineConfig::table_i().with_ssp(SspConfig {
            consistency_interval: Cycles::from_millis(interval_ms),
            consolidation_interval: Cycles::from_millis(p.consolidation_ms),
        }));
        let (run, _) = prepared[i].simulate(cfg, ReplayOptions { fase: true, max_ops: None })?;
        let ssp_ms = run.cycles.as_millis_f64();
        let baseline_ms = baselines[i];
        Ok(Fig5Row {
            benchmark: wl.spec().name.to_string(),
            interval_ms,
            baseline_ms,
            ssp_ms,
            normalized: ssp_ms / baseline_ms,
            overhead: ssp_ms / baseline_ms - 1.0,
        })
    })
}

/// One row of the consolidation-interval ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsolidationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Consolidation-thread period (ms).
    pub consolidation_ms: u64,
    /// Normalized execution time (vs. no consistency).
    pub normalized: f64,
    /// Pages consolidated.
    pub pages_consolidated: u64,
}

/// The study the paper says the original SSP work left unexplored: the
/// influence of the consolidation-thread frequency, at a fixed 5 ms
/// consistency interval, on the machines and workers `run` selects.
///
/// # Errors
///
/// Propagates machine and replay failures.
pub fn run_consolidation_sweep(
    workload: WorkloadKind,
    ops: u64,
    seed: u64,
    consolidation_ms: &[u64],
    run: RunSettings,
) -> Result<Vec<ConsolidationRow>> {
    let kindle = Kindle::prepare_streaming(workload, ops, seed);
    let (base, _) =
        kindle.simulate(run.apply(MachineConfig::table_i()), ReplayOptions::default())?;
    let baseline = base.cycles.as_millis_f64();
    parallel::par_map_cells(run.jobs, consolidation_ms.to_vec(), |ms| {
        let cfg = run.apply(MachineConfig::table_i().with_ssp(SspConfig {
            consistency_interval: Cycles::from_millis(5),
            consolidation_interval: Cycles::from_millis(ms),
        }));
        let (run, report) = kindle.simulate(cfg, ReplayOptions { fase: true, max_ops: None })?;
        Ok(ConsolidationRow {
            benchmark: workload.spec().name.to_string(),
            consolidation_ms: ms,
            normalized: run.cycles.as_millis_f64() / baseline,
            pages_consolidated: report.ssp.map(|s| s.pages_consolidated).unwrap_or(0),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_quick_shapes() {
        let rows = run_fig5(&Fig5Params::quick()).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.normalized > 1.0,
                "consistency must cost something: {} at {} ms",
                r.normalized,
                r.interval_ms
            );
        }
        let at = |ms: u64| rows.iter().find(|r| r.interval_ms == ms).unwrap().overhead;
        assert!(
            at(1) > at(10),
            "wider interval must reduce overhead: 1ms={} 10ms={}",
            at(1),
            at(10)
        );
    }
}
