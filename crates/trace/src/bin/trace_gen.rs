//! `trace_gen` — the preparation component as a standalone tool.
//!
//! Mirrors the paper's scripted preparation flow: generate a benchmark's
//! disk image, save it, and inspect existing images.
//!
//! ```text
//! trace_gen gen <workload> <ops> <seed> <out.kindle>   generate + save
//! trace_gen info <image.kindle>                        inspect an image
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]

use std::process::ExitCode;

use kindle_trace::{Driver, TraceImage, WorkloadKind};

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  trace_gen gen <gapbs_pr|g500_sssp|ycsb_mem> <ops> <seed> <out.kindle>");
    eprintln!("  trace_gen info <image.kindle>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") if args.len() == 5 => {
            let kind: WorkloadKind = match args[1].parse() {
                Ok(k) => k,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let (Ok(ops), Ok(seed)) = (args[2].parse::<u64>(), args[3].parse::<u64>()) else {
                return usage();
            };
            let (_, image) = Driver::new(seed).trace(kind, ops);
            let bytes = image.to_bytes();
            if let Err(e) = std::fs::write(&args[4], &bytes) {
                eprintln!("write {}: {e}", args[4]);
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} ({} records, {} areas, {} bytes)",
                args[4],
                image.records().len(),
                image.layout().areas().len(),
                bytes.len()
            );
            ExitCode::SUCCESS
        }
        Some("info") if args.len() == 2 => {
            let bytes = match std::fs::read(&args[1]) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("read {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            let image = match TraceImage::from_bytes(&bytes) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("parse {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            println!("{}: {} records", args[1], image.records().len());
            println!("areas:");
            for (area, count) in image.area_op_counts() {
                println!(
                    "  {:<14} {:>8} KiB  {:>5}  {:>9} ops",
                    area.name,
                    area.size / 1024,
                    if area.nvm { "NVM" } else { "DRAM" },
                    count
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
