//! Regenerates Figure 4b: execution time vs. allocation stride.

use kindle_bench::*;
use kindle_core::experiments::{run_fig4b, Fig4bParams};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p = if harness.quick() { Fig4bParams::quick() } else { Fig4bParams::paper() };
    p.run = harness.run();
    println!("FIGURE 4b: ten 4 KiB pages at different strides");
    rule(56);
    println!("{:>7} | {:>12} | {:>14}", "stride", "rebuild ms", "persistent ms");
    rule(56);
    let rows = run_fig4b(&p)?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!("{:>7} | {:>12} | {:>14}", r.stride, ms(r.rebuild_ms), ms(r.persistent_ms));
    }
    rule(56);
    println!("paper shape: persistent slightly worse at 1GB/2MB strides");
    println!("(more page-table levels written), better at 4KB.");
    harness.finish()
}
