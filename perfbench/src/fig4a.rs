//! `fig4a`: the Fig. 4a grid at quick scale, exactly as
//! `fig4a --quick` runs it.
//!
//! One repetition calls `kindle_core::experiments::run_fig4a` with
//! `Fig4aParams::quick()`: for 16 and 32 MiB, a Table I machine per
//! page-table scheme maps an NVM area, writes every page, then reads it
//! twice, checkpointing every simulated millisecond. The grid has no random
//! input, so the seed changes nothing here. Set-up boots one machine per
//! scheme with the grid's configuration.
//!
//! Traced repetitions cannot put spans inside the library, so they run
//! [`seq_alloc_access`], the library's per-cell routine call by call. Its
//! rows must equal the library's exactly.

use kindle_core::experiments::{run_fig4a, Fig4aParams, Fig4aRow};
use kindle_core::os::PtMode;
use kindle_core::sim::{Machine, MachineConfig};
use kindle_core::types::{AccessKind, MapFlags, Prot, PAGE_SIZE};

use crate::probe::{Layer, Probe};
use crate::Fail;

const MIB: u64 = 1 << 20;

/// The `fig4a` workload.
pub struct Fig4a {
    params: Fig4aParams,
    /// The rows of the warm-up repetition.
    reference: Option<Vec<Fig4aRow>>,
}

/// The machine one grid cell runs on, as the library configures it.
fn config(mode: PtMode, p: &Fig4aParams) -> MachineConfig {
    let mut cfg = MachineConfig::table_i().with_pt_mode(mode).with_checkpointing(p.interval);
    cfg.costs.mapping_list_op = p.list_op_instr;
    cfg.mem.mru_page_cache = p.mru_page_cache;
    cfg.costs.zero_new_frames = false;
    cfg
}

impl Fig4a {
    /// Boots one machine per scheme with the grid's configuration.
    pub fn setup(_seed: u64) -> Result<Self, Fail> {
        let params = Fig4aParams::quick();
        for mode in [PtMode::Rebuild, PtMode::Persistent] {
            Machine::new(config(mode, &params))?.spawn_process()?;
        }
        Ok(Fig4a { params, reference: None })
    }

    /// Runs the grid once; returns the data accesses it made (every page
    /// written once and read `read_rounds` times, under both schemes).
    pub fn rep(&mut self, probe: &mut Probe) -> Result<u64, Fail> {
        let rows = if probe.on() {
            let mut rows = Vec::new();
            for &size_mb in &self.params.sizes_mb {
                rows.push(Fig4aRow {
                    size_mb,
                    rebuild_ms: seq_alloc_access(probe, PtMode::Rebuild, size_mb, &self.params)?,
                    persistent_ms: seq_alloc_access(
                        probe,
                        PtMode::Persistent,
                        size_mb,
                        &self.params,
                    )?,
                });
            }
            rows
        } else {
            run_fig4a(&self.params)?
        };
        // The ranges `bench-golden.txt` pins for `fig4a --quick`.
        for r in &rows {
            let ok = (10.0..=45.0).contains(&r.rebuild_ms)
                && (3.0..=10.0).contains(&r.persistent_ms)
                && (2.5..=5.5).contains(&r.overhead());
            if !ok {
                return Err(Fail::Wrong(format!("row outside the golden ranges: {r:?}")));
            }
        }
        match &self.reference {
            None => self.reference = Some(rows.clone()),
            Some(r) if *r == rows => {}
            Some(r) => return Err(Fail::Wrong(format!("rows {rows:?}, want {r:?}"))),
        }
        let pages: u64 = self.params.sizes_mb.iter().map(|mb| mb * MIB / PAGE_SIZE as u64).sum();
        Ok(2 * pages * (1 + self.params.read_rounds))
    }
}

/// One grid cell, call by call: simulated milliseconds to map `size_mb`,
/// write every page and re-read it `read_rounds` times.
fn seq_alloc_access(
    probe: &mut Probe,
    mode: PtMode,
    size_mb: u64,
    p: &Fig4aParams,
) -> Result<f64, Fail> {
    let page = PAGE_SIZE as u64;
    let size = size_mb * MIB;
    let mut m = probe.span(Layer::Boot, || Machine::new(config(mode, p)))?;
    let pid = probe.span(Layer::Boot, || m.spawn_process())?;
    let t0 = m.now();
    let va = probe.span(Layer::Map, || m.mmap(pid, size, Prot::RW, MapFlags::NVM))?;
    for i in 0..size / page {
        probe.access(&mut m, 1, |m| m.access(pid, va + i * page, AccessKind::Write))?;
    }
    for _ in 0..p.read_rounds {
        for i in 0..size / page {
            probe.access(&mut m, 1, |m| m.access(pid, va + i * page, AccessKind::Read))?;
        }
    }
    probe.machine_done(&m);
    Ok((m.now() - t0).as_millis_f64())
}
