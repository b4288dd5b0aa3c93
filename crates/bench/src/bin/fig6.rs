//! Regenerates Figure 6 and Tables V & VI: HSCC OS-migration overhead,
//! pages migrated, and the page-selection vs page-copy split.

use kindle_bench::*;
use kindle_core::experiments::{run_fig6, Fig6Params};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p = if harness.quick() { Fig6Params::quick() } else { Fig6Params::paper() };
    p.run = harness.run();
    println!("FIGURE 6 + TABLES V/VI: HSCC fetch-threshold sweep ({} ops)", p.ops);
    rule(96);
    println!(
        "{:<12} | {:>4} | {:>11} | {:>11} | {:>10} | {:>9} | {:>7} | {:>7}",
        "benchmark", "Th", "hw-only ms", "with-OS ms", "normalized", "migrated", "sel %", "copy %"
    );
    rule(96);
    let rows = run_fig6(&p)?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!(
            "{:<12} | {:>4} | {:>11} | {:>11} | {:>9.3}x | {:>9} | {:>7.2} | {:>7.2}",
            r.benchmark,
            r.threshold,
            ms(r.hw_only_ms),
            ms(r.with_os_ms),
            r.normalized,
            r.pages_migrated,
            r.selection_pct,
            r.copy_pct
        );
    }
    rule(96);
    println!("paper shapes: all benchmarks show OS-migration overhead (>1x), falling");
    println!("as the threshold rises; Gapbs_pr lowest. Table V: migrations drop steeply");
    println!("with threshold (Ycsb ~13x at Th-25, ~101x at Th-50 vs Th-5). Table VI: page");
    println!("copy dominates (62-98%); selection spikes when free/clean pages run out.");
    harness.finish()
}
