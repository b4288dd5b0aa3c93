//! Regenerates Figure 4a: execution time vs. sequential allocation size
//! under the rebuild and persistent page-table schemes.

use kindle_bench::*;
use kindle_core::experiments::{run_fig4a, Fig4aParams};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p = if harness.quick() { Fig4aParams::quick() } else { Fig4aParams::paper() };
    p.run = harness.run();
    println!(
        "FIGURE 4a: sequential alloc+access, checkpoint interval {} ms",
        p.interval.as_millis_f64()
    );
    rule(66);
    println!(
        "{:>8} | {:>12} | {:>14} | {:>9}",
        "size MiB", "rebuild ms", "persistent ms", "overhead"
    );
    rule(66);
    let rows = run_fig4a(&p)?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!(
            "{:>8} | {:>12} | {:>14} | {:>8.2}x",
            r.size_mb,
            ms(r.rebuild_ms),
            ms(r.persistent_ms),
            r.overhead()
        );
    }
    rule(66);
    println!("paper shape: overhead grows ~2.4x (64 MiB) -> ~74x (512 MiB);");
    println!("rebuild grows ~44x from 64 to 512 MiB.");
    harness.finish()
}
