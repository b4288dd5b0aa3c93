//! Ablation: NVM write-buffer depth — sensitivity of the persistent
//! page-table scheme (and checkpoint bursts) to burst absorption.
//!
//! The depth is set through `MemConfig::nvm`, which only the PCM backend
//! reads (`Machine::new` refuses it under any other), so any other
//! `--backend` is rejected before anything runs.

use kindle_bench::*;
use kindle_core::mem::Backend;
use kindle_core::os::PtMode;
use kindle_core::types::PAGE_SIZE;

fn depth_cell(depth: usize, run: RunSettings) -> Result<(f64, u64)> {
    let mut cfg = MachineConfig::table_i()
        .with_pt_mode(PtMode::Persistent)
        .with_checkpointing(Cycles::from_millis(10));
    cfg.mem.nvm.write_buffer = depth;
    // Keep demand-zeroing on: each fault's 64-line burst is exactly
    // the traffic the write buffer exists to absorb.
    let mut m = Machine::new(run.apply(cfg))?;
    let pid = m.spawn_process()?;
    let t0 = m.now();
    let base = 256u64 << 20;
    let churn = 64u64 << 20;
    let va = m.mmap(pid, base, Prot::RW, MapFlags::NVM)?;
    for i in 0..base / PAGE_SIZE as u64 {
        m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write)?;
    }
    for _ in 0..2 {
        m.munmap(pid, va, churn)?;
        m.mmap_at(pid, Some(va), churn, Prot::RW, MapFlags::NVM | MapFlags::FIXED)?;
        for i in 0..churn / PAGE_SIZE as u64 {
            m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write)?;
        }
    }
    let elapsed = (m.now() - t0).as_millis_f64();
    let stalls = m.report().mem.nvm.write_stalls;
    Ok((elapsed, stalls))
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    if harness.backend() != Backend::Pcm {
        return Err(KindleError::InvalidArgument(
            "ablation_wbuf sets the depth through MemConfig::nvm, which only the pcm backend \
             reads; every other backend keeps its own fixed write buffer",
        ));
    }
    println!("ABLATION: NVM write-buffer depth (persistent scheme, 64 MiB churn)");
    rule(46);
    println!("{:>6} | {:>12} | {:>12}", "depth", "exec ms", "write stalls");
    rule(46);
    let run = harness.run();
    let cells = parallel::par_map_cells(run.jobs, vec![8usize, 16, 48, 128, 512], |depth| {
        depth_cell(depth, run).map(|(elapsed, stalls)| (depth, elapsed, stalls))
    })?;
    for (depth, elapsed, stalls) in cells {
        println!("{:>6} | {:>12} | {:>12}", depth, ms(elapsed), stalls);
    }
    rule(46);
    println!("Table I's 48 entries sit past the knee: deeper buffers stop helping");
    println!("once bursts fit, because sustained drain bandwidth is the binding limit.");
    harness.finish()
}
