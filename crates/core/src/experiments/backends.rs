//! Backends × schemes grid: the Fig. 4a persistence study rerun under
//! every requested far-tier backend (the `--backend` axis as a grid).
//!
//! Each backend runs the full Fig. 4a size × scheme grid with the
//! backend set in its run settings — exactly what `--backend <name>`
//! does — so the numbers here are the numbers any fig/table binary would
//! produce under that flag.

use super::persistence::{run_fig4a, Fig4aParams, Fig4aRow};
use kindle_mem::Backend;
use kindle_sim::RunSettings;
use kindle_types::Result;

/// Parameters for the backends × schemes grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendGridParams {
    /// Far-tier backends to sweep, in output order.
    pub backends: Vec<Backend>,
    /// The Fig. 4a grid each backend runs.
    pub fig4a: Fig4aParams,
}

impl BackendGridParams {
    /// The four headline backends over the paper-scale Fig. 4a grid.
    pub fn paper() -> Self {
        BackendGridParams { backends: Self::headline(), fig4a: Fig4aParams::paper() }
    }

    /// The four headline backends over one quick-scale size — the CI
    /// bench-smoke shape: one golden-pinned row per backend.
    pub fn quick() -> Self {
        BackendGridParams {
            backends: Self::headline(),
            fig4a: Fig4aParams { sizes_mb: vec![16], ..Fig4aParams::quick() },
        }
    }

    /// The headline backends (`pcm`, `numa`, `sttram`, `cxl`).
    pub fn headline() -> Vec<Backend> {
        vec![Backend::Pcm, Backend::Numa, Backend::SttRam, Backend::Cxl]
    }
}

/// Runs the Fig. 4a grid once per backend, each with that backend in
/// place of `p.fig4a.run.backend`.
///
/// # Errors
///
/// Propagates the first failing cell's error.
pub fn run_backend_grid(p: &BackendGridParams) -> Result<Vec<(Backend, Vec<Fig4aRow>)>> {
    let mut out = Vec::with_capacity(p.backends.len());
    for &b in &p.backends {
        let run = RunSettings { backend: Some(b), ..p.fig4a.run };
        out.push((b, run_fig4a(&Fig4aParams { run, ..p.fig4a.clone() })?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_grid_runs_every_headline_backend_green() {
        let p = BackendGridParams::quick();
        let grid = run_backend_grid(&p).unwrap();
        assert_eq!(grid.len(), 4);
        for ((b, rows), want) in grid.iter().zip(BackendGridParams::headline()) {
            assert_eq!(*b, want, "output order must follow the request");
            assert_eq!(rows.len(), 1);
            for r in rows {
                assert!(
                    r.rebuild_ms.is_finite() && r.rebuild_ms > 0.0,
                    "{}: bad rebuild {:?}",
                    b.name(),
                    r
                );
                assert!(
                    r.persistent_ms.is_finite() && r.persistent_ms > 0.0,
                    "{}: bad persistent {:?}",
                    b.name(),
                    r
                );
            }
        }
        // Timing sanity: DRAM-class far tiers write far faster than PCM's
        // 500 ns cells, so their persistent runs must come in under PCM's.
        let pers = |i: usize| grid[i].1[0].persistent_ms;
        assert!(pers(1) < pers(0), "numa ({}) should beat pcm ({})", pers(1), pers(0));
        assert!(pers(2) < pers(0), "sttram ({}) should beat pcm ({})", pers(2), pers(0));
    }
}
