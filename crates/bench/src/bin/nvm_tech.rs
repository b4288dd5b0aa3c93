//! Ablation (paper §V-D): swap the NVM technology profile and rerun the
//! persistence and workload studies — "the scope for such studies
//! increases the value of Kindle in hybrid memory research".
//!
//! Technologies are the backend registry's NVM subset
//! ([`kindle_core::mem::Backend::nvm_technologies`]), so each row runs
//! exactly the timing and fault semantics `--backend <name>` selects.

use kindle_bench::*;
use kindle_core::mem::Backend;
use kindle_core::os::PtMode;
use kindle_core::prelude::*;
use kindle_core::types::PAGE_SIZE;

fn persistence_cell(backend: Backend, mode: PtMode, run: RunSettings) -> Result<f64> {
    let mut cfg = MachineConfig::table_i()
        .with_pt_mode(mode)
        .with_checkpointing(Cycles::from_millis(10))
        .with_backend(backend);
    cfg.costs.mapping_list_op = 2600;
    cfg.costs.zero_new_frames = false;
    let mut m = Machine::new(run.apply(cfg))?;
    let pid = m.spawn_process()?;
    let t0 = m.now();
    let size = 128u64 << 20;
    let va = m.mmap(pid, size, Prot::RW, MapFlags::NVM)?;
    for i in 0..size / PAGE_SIZE as u64 {
        m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Write)?;
    }
    for _ in 0..4 {
        for i in 0..size / PAGE_SIZE as u64 {
            m.access(pid, va + i * PAGE_SIZE as u64, AccessKind::Read)?;
        }
    }
    Ok((m.now() - t0).as_millis_f64())
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let ops = if harness.quick() { 100_000 } else { 1_000_000 };
    println!("ABLATION: NVM technology sweep");
    println!();
    println!("(a) page-table schemes, 128 MiB sequential benchmark, 10 ms checkpoints");
    rule(66);
    println!(
        "{:<10} | {:>12} | {:>14} | {:>9}",
        "technology", "rebuild ms", "persistent ms", "reb/pers"
    );
    rule(66);
    let run = harness.run();
    let cells = parallel::par_map_cells(run.jobs, Backend::nvm_technologies(), |backend| {
        let reb = persistence_cell(backend, PtMode::Rebuild, run)?;
        let per = persistence_cell(backend, PtMode::Persistent, run)?;
        Ok((backend.label(), reb, per))
    })?;
    for (name, reb, per) in cells {
        println!("{:<10} | {:>12} | {:>14} | {:>8.2}x", name, ms(reb), ms(per), reb / per);
    }
    println!();
    println!("(b) Ycsb_mem replay ({ops} ops), no prototype engines");
    rule(40);
    println!("{:<10} | {:>12}", "technology", "exec ms");
    rule(40);
    let kindle = Kindle::prepare_streaming(WorkloadKind::YcsbMem, ops, 42);
    let replays = parallel::par_map_cells(run.jobs, Backend::nvm_technologies(), |backend| {
        let cfg = run.apply(MachineConfig::table_i().with_backend(backend));
        let (run, _) = kindle.simulate(cfg, ReplayOptions::default())?;
        Ok((backend.label(), run.cycles.as_millis_f64()))
    })?;
    for (name, exec_ms) in replays {
        println!("{:<10} | {:>12}", name, ms(exec_ms));
    }
    println!();
    println!("takeaway: the persistent scheme's appeal tracks the NVM write path —");
    println!("fast-write technologies (STT-MRAM) shrink its consistency tax, while");
    println!("read-heavy replay tracks the read latency instead.");
    harness.finish()
}
