//! Every experiment grid passes its run settings to every machine it
//! builds and to its workers.
//!
//! A stdout diff cannot show a grid that drops the fault model: at
//! `--quick` scale the default wear budget never runs out, so the rows
//! look the same with or without it. This test arms a fault model whose
//! 64-write budget wears lines out within a few thousand operations, so a
//! grid that honours it must print different rows than the fault-free
//! run, and the same rows at any worker count.

use kindle_core::experiments::{
    run_consolidation_sweep, run_fig4a, run_fig4b, run_fig5, run_fig6, run_table3, run_table4,
    Fig4aParams, Fig4bParams, Fig5Params, Fig6Params, Table3Params, Table4Params,
};
use kindle_core::mem::MediaFaultConfig;
use kindle_core::sim::RunSettings;
use kindle_core::trace::WorkloadKind;
use kindle_core::types::{Cycles, Result};

/// A fault model that wears lines out within a quick grid.
fn worn() -> RunSettings {
    RunSettings {
        faults: Some(MediaFaultConfig { wear_limit: 64, ..MediaFaultConfig::with_seed(7) }),
        ..RunSettings::default()
    }
}

/// Runs `grid` fault-free, under [`worn`], and under [`worn`] at four
/// workers: the worn rows must differ from the clean ones and must not
/// depend on the worker count.
fn assert_grid_honours_settings<R: PartialEq + std::fmt::Debug>(
    name: &str,
    grid: impl Fn(RunSettings) -> Result<Vec<R>>,
) {
    let clean = grid(RunSettings::default()).unwrap();
    let serial = grid(worn()).unwrap();
    let parallel = grid(RunSettings { jobs: 4, ..worn() }).unwrap();
    assert_ne!(clean, serial, "{name}: the fault model moved no row");
    assert_eq!(serial, parallel, "{name}: jobs=4 changed a row");
}

#[test]
fn every_grid_honours_its_run_settings() {
    assert_grid_honours_settings("fig4a", |run| {
        run_fig4a(&Fig4aParams { sizes_mb: vec![16], run, ..Fig4aParams::quick() })
    });
    assert_grid_honours_settings("fig4b", |run| {
        run_fig4b(&Fig4bParams { access_ops: 10_000, run, ..Fig4bParams::quick() })
    });
    assert_grid_honours_settings("table3", |run| {
        run_table3(&Table3Params { churn_mb: vec![8], run, ..Table3Params::quick() })
    });
    assert_grid_honours_settings("table4", |run| {
        let intervals = vec![Cycles::from_millis(1)];
        run_table4(&Table4Params { intervals, run, ..Table4Params::quick() })
    });
    assert_grid_honours_settings("fig5", |run| {
        run_fig5(&Fig5Params { ops: 2_000, run, ..Fig5Params::quick() })
    });
    assert_grid_honours_settings("fig6", |run| {
        run_fig6(&Fig6Params { ops: 2_000, run, ..Fig6Params::quick() })
    });
    assert_grid_honours_settings("consolidation", |run| {
        run_consolidation_sweep(WorkloadKind::YcsbMem, 2_000, 42, &[1, 5], run)
    });
}
