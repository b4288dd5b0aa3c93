//! Backends × schemes sweep: the Fig. 4a persistence grid rerun under
//! each headline far-tier backend (`pcm`, `numa`, `sttram`, `cxl`).
//!
//! With `--json`, emits one golden-pinned row per backend as flat
//! fields keyed by registry name (`pcm_rebuild_ms`, ...) so the CI
//! bench-smoke job's `bench_diff` ranges gate each backend
//! independently.

use kindle_bench::*;
use kindle_core::experiments::{run_backend_grid, BackendGridParams};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p =
        if harness.quick() { BackendGridParams::quick() } else { BackendGridParams::paper() };
    p.fig4a.run = harness.run();
    println!("BACKENDS x SCHEMES: Fig. 4a persistence grid per far-tier backend");
    rule(76);
    println!(
        "{:<18} | {:>8} | {:>12} | {:>14} | {:>9}",
        "backend", "size MiB", "rebuild ms", "persistent ms", "reb/pers"
    );
    rule(76);
    let grid = run_backend_grid(&p)?;
    for (b, rows) in &grid {
        for r in rows {
            println!(
                "{:<18} | {:>8} | {:>12} | {:>14} | {:>8.2}x",
                b.label(),
                r.size_mb,
                ms(r.rebuild_ms),
                ms(r.persistent_ms),
                r.overhead()
            );
        }
    }
    println!();
    println!("takeaway: swapping the far tier moves the persistence trade-off —");
    println!("DRAM-class backends (numa, cxl) shrink the write-path tax that makes");
    println!("the persistent scheme attractive on PCM.");

    let mut body = String::from("{");
    for (i, (b, rows)) in grid.iter().enumerate() {
        let Some(r) = rows.first() else { continue };
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\n  \"{0}_rebuild_ms\": {1:.3},\n  \"{0}_persistent_ms\": {2:.3}",
            b.name(),
            r.rebuild_ms,
            r.persistent_ms
        ));
    }
    body.push_str("\n}\n");
    harness.maybe_json_body(&body);
    harness.finish()
}
