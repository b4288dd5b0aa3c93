//! Prints the machine configuration — the paper's Table I.
//!
//! The far-tier row comes from the selected [`kindle_core::mem::Backend`]'s
//! methods (`--backend`, default PCM), never from raw `NvmConfig` latency
//! fields — the KD013 lint keeps those inside the backend layer.

use kindle_bench::*;
use kindle_core::mem::Backend;

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let cfg = MachineConfig::table_i();
    let far = harness.backend();
    let geometry = far.timing();
    println!("TABLE I: gem5-analog Memory Configuration");
    rule(52);
    println!("{:<28} {}", "Parameter", "Used Setting");
    rule(52);
    println!("{:<28} DDR4-2400 ({} banks)", "DRAM interface", cfg.mem.dram.banks);
    println!(
        "{:<28} {} ({} ns rd / {} ns wr)",
        "NVM interface",
        far.label(),
        far.read_latency_ns(),
        far.write_latency_ns()
    );
    println!("{:<28} {}", "NVM Write buffer size", geometry.write_buffer);
    println!("{:<28} {}", "NVM Read buffer size", geometry.read_buffer);
    println!(
        "{:<28} {} GB DRAM + {} GB NVM",
        "Memory capacity",
        cfg.mem.layout.total(MemKind::Dram) >> 30,
        cfg.mem.layout.total(MemKind::Nvm) >> 30
    );
    println!(
        "{:<28} {} KiB L1 / {} KiB L2 / {} MiB LLC",
        "Caches",
        cfg.caches.l1.size_bytes >> 10,
        cfg.caches.l2.size_bytes >> 10,
        cfg.caches.llc.size_bytes >> 20
    );
    println!("{:<28} 3 GHz in-order x86-64", "CPU");
    harness.maybe_json_body(&config_json(&cfg, far));
    harness.finish()
}

/// Renders the Table I configuration as a JSON object. Table I has no
/// experiment rows, so this is hand-written rather than going through
/// `experiments::to_json`; the harness wraps it in the bench envelope.
fn config_json(cfg: &MachineConfig, far: Backend) -> String {
    let geometry = far.timing();
    format!(
        "{{\n  \"dram_banks\": {},\n  \"nvm_read_ns\": {},\n  \"nvm_write_service_ns\": {},\n  \
         \"nvm_write_buffer\": {},\n  \"nvm_read_buffer\": {},\n  \"dram_gb\": {},\n  \
         \"nvm_gb\": {},\n  \"l1_kib\": {},\n  \"l2_kib\": {},\n  \"llc_mib\": {},\n  \
         \"cpu_freq_ghz\": {}\n}}\n",
        cfg.mem.dram.banks,
        far.read_latency_ns(),
        far.write_latency_ns(),
        geometry.write_buffer,
        geometry.read_buffer,
        cfg.mem.layout.total(MemKind::Dram) >> 30,
        cfg.mem.layout.total(MemKind::Nvm) >> 30,
        cfg.caches.l1.size_bytes >> 10,
        cfg.caches.l2.size_bytes >> 10,
        cfg.caches.llc.size_bytes >> 20,
        types::CPU_FREQ_GHZ
    )
}
