//! Ablation the paper calls out as future-enabled by Kindle: the influence
//! of the SSP page-consolidation thread frequency.

use kindle_bench::*;
use kindle_core::experiments::run_consolidation_sweep;
use kindle_core::trace::WorkloadKind;

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let ops = if harness.quick() { 150_000 } else { 2_000_000 };
    let sweeps = [1u64, 2, 5, 10];
    println!("ABLATION: SSP consolidation-thread interval (5 ms consistency interval, {ops} ops)");
    rule(70);
    println!(
        "{:<12} | {:>14} | {:>10} | {:>14}",
        "benchmark", "consolidation", "normalized", "consolidated"
    );
    rule(70);
    let rows = run_consolidation_sweep(WorkloadKind::YcsbMem, ops, 42, &sweeps, harness.run())?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!(
            "{:<12} | {:>11} ms | {:>9.3}x | {:>14}",
            r.benchmark, r.consolidation_ms, r.normalized, r.pages_consolidated
        );
    }
    rule(70);
    println!("the paper fixes this at 1 ms, noting lower intervals would raise");
    println!("consolidation overhead — this sweep quantifies that trade-off.");
    harness.finish()
}
