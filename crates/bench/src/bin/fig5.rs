//! Regenerates Figure 5: SSP consistency-interval overhead.

use kindle_bench::*;
use kindle_core::experiments::{run_fig5, Fig5Params};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p = if harness.quick() { Fig5Params::quick() } else { Fig5Params::paper() };
    if harness.quick() {
        p.workloads = kindle_core::trace::WorkloadKind::ALL.to_vec();
    }
    p.run = harness.run();
    println!("FIGURE 5: SSP overhead, normalized to no memory consistency ({} ops)", p.ops);
    rule(78);
    println!(
        "{:<12} | {:>8} | {:>12} | {:>10} | {:>10} | {:>9}",
        "benchmark", "interval", "baseline ms", "SSP ms", "normalized", "overhead"
    );
    rule(78);
    let rows = run_fig5(&p)?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!(
            "{:<12} | {:>5} ms | {:>12} | {:>10} | {:>9.3}x | {:>8.1}%",
            r.benchmark,
            r.interval_ms,
            ms(r.baseline_ms),
            ms(r.ssp_ms),
            r.normalized,
            r.overhead * 100.0
        );
    }
    rule(78);
    // Average overhead reduction 1 ms -> 10 ms across benchmarks.
    let avg = |ms_i: u64| {
        let v: Vec<f64> =
            rows.iter().filter(|r| r.interval_ms == ms_i).map(|r| r.overhead).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    if rows.iter().any(|r| r.interval_ms == 1) && rows.iter().any(|r| r.interval_ms == 10) {
        println!("overhead reduction 1 ms -> 10 ms: {:.2}x (paper: ~3x average)", avg(1) / avg(10));
    }
    harness.finish()
}
