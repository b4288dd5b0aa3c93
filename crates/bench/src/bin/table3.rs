//! Regenerates Table III: execution time with munmap/mmap churn.

use kindle_bench::*;
use kindle_core::experiments::{run_table3, Table3Params};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p = if harness.quick() { Table3Params::quick() } else { Table3Params::paper() };
    p.run = harness.run();
    println!("TABLE III: alloc/free churn on a {} MiB base", p.base_mb);
    rule(58);
    println!("{:>15} | {:>16} | {:>12}", "Alloc/Free Size", "Persistent (ms)", "Rebuild (ms)");
    rule(58);
    let rows = run_table3(&p)?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!("{:>12} MiB | {:>16} | {:>12}", r.churn_mb, ms(r.persistent_ms), ms(r.rebuild_ms));
    }
    rule(58);
    println!("paper: persistent 325/389/517, rebuild 19377/23438/29376 (ms);");
    println!("shape: both grow with churn (~1.6x / ~1.5x from 64->256 MiB),");
    println!("rebuild far above persistent.");
    harness.finish()
}
