//! Ablation: HSCC DRAM pool size — the knob behind Table VI's
//! page-selection spike (dirty recycling starts when the hot set
//! outgrows the pool).

use kindle_bench::*;
use kindle_core::prelude::*;

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let ops = if harness.quick() { 150_000 } else { 1_000_000 };
    let kindle = Kindle::prepare_streaming(WorkloadKind::YcsbMem, ops, 42);
    println!("ABLATION: HSCC DRAM pool size (Ycsb_mem, threshold 5, {ops} ops)");
    rule(76);
    println!(
        "{:>10} | {:>10} | {:>9} | {:>9} | {:>7} | {:>10}",
        "pool pages", "exec ms", "migrated", "copyback", "sel %", "clean uses"
    );
    rule(76);
    let run = harness.run();
    let cells = parallel::par_map_cells(run.jobs, vec![128usize, 256, 512, 1024, 2048], |pool| {
        let cfg = run.apply(MachineConfig::table_i().with_hscc(
            HsccConfig { fetch_threshold: 5, pool_pages: pool, ..Default::default() },
            true,
        ));
        let (run, rep) = kindle.simulate(cfg, ReplayOptions::default())?;
        let s = rep.hscc.expect("hscc enabled");
        Ok((pool, run.cycles.as_millis_f64(), s))
    })?;
    for (pool, exec_ms, s) in cells {
        println!(
            "{:>10} | {:>10} | {:>9} | {:>9} | {:>7.2} | {:>10}",
            pool,
            ms(exec_ms),
            s.pages_migrated,
            s.copybacks,
            s.selection_share() * 100.0,
            s.clean_reuses
        );
    }
    rule(76);
    println!("a pool comfortably larger than the over-threshold working set makes");
    println!("page selection nearly free (all requests served from the free list).");
    harness.finish()
}
