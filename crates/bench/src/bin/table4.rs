//! Regenerates Table IV: influence of the checkpoint interval.

use kindle_bench::*;
use kindle_core::experiments::{run_table4, Table4Params};

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let mut p = if harness.quick() { Table4Params::quick() } else { Table4Params::paper() };
    p.run = harness.run();
    println!("TABLE IV: checkpoint-interval sweep ({} MiB base)", p.base_mb);
    rule(70);
    println!(
        "{:>15} | {:>9} | {:>16} | {:>12}",
        "Alloc/Free Size", "Interval", "Persistent (ms)", "Rebuild (ms)"
    );
    rule(70);
    let rows = run_table4(&p)?;
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        let interval = if r.interval_ms >= 1000.0 {
            format!("{:.0} s", r.interval_ms / 1000.0)
        } else {
            format!("{:.0} ms", r.interval_ms)
        };
        println!(
            "{:>12} MiB | {:>9} | {:>16} | {:>12}",
            r.churn_mb,
            interval,
            ms(r.persistent_ms),
            ms(r.rebuild_ms)
        );
    }
    rule(70);
    println!("paper shape: persistent flat across intervals; rebuild ~5x better");
    println!("at 100 ms vs 10 ms; at 1 s rebuild drops slightly below persistent.");
    harness.finish()
}
