//! Regenerates the paper's Table II: benchmark details, from the actual
//! generated traces.

use kindle_bench::*;
use kindle_core::experiments::CsvRow;
use kindle_core::trace::WorkloadKind;
use kindle_core::types::AccessKind;

/// One measured benchmark-mix row (local to this binary: Table II is
/// derived from the trace generator, not from an experiment driver).
struct Table2Row {
    benchmark: String,
    ops: u64,
    read_pct: f64,
    write_pct: f64,
}

impl CsvRow for Table2Row {
    fn csv_header() -> &'static str {
        "benchmark,ops,read_pct,write_pct"
    }
    fn csv_row(&self) -> String {
        format!("{},{},{:.2},{:.2}", self.benchmark, self.ops, self.read_pct, self.write_pct)
    }
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let ops = if harness.quick() { 200_000 } else { 10_000_000 };
    println!("TABLE II: Benchmark Details (measured from generated traces, {ops} ops)");
    rule(60);
    println!("{:<12} | {:>10} | {:>7} | {:>8}", "Benchmark", "Total Ops", "read %", "write %");
    rule(60);
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut reads = 0u64;
        for r in kind.stream(ops, 42) {
            if r.op == AccessKind::Read {
                reads += 1;
            }
        }
        rows.push(Table2Row {
            benchmark: kind.spec().name.to_string(),
            ops,
            read_pct: 100.0 * reads as f64 / ops as f64,
            write_pct: 100.0 * (ops - reads) as f64 / ops as f64,
        });
    }
    harness.maybe_csv(&rows);
    harness.maybe_json(&rows);
    for r in &rows {
        println!(
            "{:<12} | {:>10} | {:>6.0} | {:>7.0}",
            r.benchmark, r.ops, r.read_pct, r.write_pct
        );
    }
    rule(60);
    println!("paper: Gapbs_pr 77/23, G500_sssp 68/32, Ycsb_mem 71/29");
    harness.finish()
}
