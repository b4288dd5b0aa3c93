//! HSCC study: Fig. 6 (OS migration overhead) plus Tables V (pages
//! migrated) and VI (page-selection vs. page-copy split), all from the
//! same sweep.

use kindle_hscc::HsccConfig;
use kindle_sim::{MachineConfig, ReplayOptions};
use kindle_trace::WorkloadKind;
use kindle_types::Result;

use crate::framework::Kindle;
use crate::parallel;

/// Parameters for the HSCC sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig6Params {
    /// Operations replayed per benchmark (paper: 10 M).
    pub ops: u64,
    /// Trace seed.
    pub seed: u64,
    /// DRAM fetch thresholds (paper: 5, 25, 50).
    pub thresholds: Vec<u64>,
    /// DRAM pool pages (paper: 512).
    pub pool_pages: usize,
    /// Benchmarks to run.
    pub workloads: Vec<WorkloadKind>,
}

impl Fig6Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Fig6Params {
            ops: 10_000_000,
            seed: 42,
            thresholds: vec![5, 25, 50],
            pool_pages: 512,
            workloads: WorkloadKind::ALL.to_vec(),
        }
    }

    /// Quick scale.
    pub fn quick() -> Self {
        Fig6Params {
            ops: 150_000,
            thresholds: vec![5, 50],
            pool_pages: 128,
            workloads: vec![WorkloadKind::YcsbMem],
            ..Self::paper()
        }
    }
}

/// One benchmark × threshold cell: feeds Fig. 6 *and* Tables V and VI.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Fetch threshold.
    pub threshold: u64,
    /// Execution time with hardware-only migration (ms) — the baseline.
    pub hw_only_ms: f64,
    /// Execution time with OS migration activities charged (ms).
    pub with_os_ms: f64,
    /// `with_os_ms / hw_only_ms` — Fig. 6's y-axis.
    pub normalized: f64,
    /// Pages migrated NVM→DRAM (Table V).
    pub pages_migrated: u64,
    /// Percentage of OS migration time in page selection (Table VI).
    pub selection_pct: f64,
    /// Percentage of OS migration time in page copy (Table VI).
    pub copy_pct: f64,
    /// Dirty copy-backs performed.
    pub copybacks: u64,
}

/// Runs the HSCC sweep.
///
/// # Errors
///
/// Propagates machine and replay failures.
pub fn run_fig6(p: &Fig6Params) -> Result<Vec<Fig6Row>> {
    // Prepared programs are plain data; (workload, threshold) cells share
    // them by reference and run on the run context's worker count. Row
    // order is the serial nesting order.
    let prepared: Vec<Kindle> =
        p.workloads.iter().map(|&wl| Kindle::prepare_streaming(wl, p.ops, p.seed)).collect();
    let mut cells = Vec::new();
    for (i, &wl) in p.workloads.iter().enumerate() {
        for &threshold in &p.thresholds {
            cells.push((i, wl, threshold));
        }
    }
    parallel::par_map_cells(cells, |(i, wl, threshold)| {
        let kindle = &prepared[i];
        let hscc = HsccConfig {
            fetch_threshold: threshold,
            pool_pages: p.pool_pages,
            ..Default::default()
        };
        // Baseline: hardware migration activities only.
        let hw_cfg = MachineConfig::table_i().with_hscc(hscc.clone(), false);
        let (hw_run, _) = kindle.simulate(hw_cfg, ReplayOptions::default())?;
        // Full run: hardware + OS migration activities.
        let os_cfg = MachineConfig::table_i().with_hscc(hscc, true);
        let (os_run, report) = kindle.simulate(os_cfg, ReplayOptions::default())?;
        let stats = report.hscc.expect("hscc engine enabled");
        let hw_only_ms = hw_run.cycles.as_millis_f64();
        let with_os_ms = os_run.cycles.as_millis_f64();
        Ok(Fig6Row {
            benchmark: wl.spec().name.to_string(),
            threshold,
            hw_only_ms,
            with_os_ms,
            normalized: with_os_ms / hw_only_ms,
            pages_migrated: stats.pages_migrated,
            selection_pct: stats.selection_share() * 100.0,
            copy_pct: (1.0 - stats.selection_share()) * 100.0,
            copybacks: stats.copybacks,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_quick_shapes() {
        let rows = run_fig6(&Fig6Params::quick()).unwrap();
        assert_eq!(rows.len(), 2);
        let low = rows.iter().find(|r| r.threshold == 5).unwrap();
        let high = rows.iter().find(|r| r.threshold == 50).unwrap();
        assert!(
            low.pages_migrated > high.pages_migrated,
            "higher threshold must migrate fewer pages: {} vs {}",
            low.pages_migrated,
            high.pages_migrated
        );
        for r in &rows {
            assert!(r.normalized > 1.0, "OS work must cost time: {}", r.normalized);
            assert!(r.copy_pct > r.selection_pct, "page copy dominates");
            assert!((r.copy_pct + r.selection_pct - 100.0).abs() < 1e-6);
        }
    }
}
