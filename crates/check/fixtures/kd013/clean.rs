//@path crates/bench/src/bin/report.rs
// Timing read through the Backend methods is the sanctioned route,
// and KD013 must stay silent on it — as it must on buffer-geometry
// fields (write_buffer, read_buffer) and on banned names spelled only
// in strings or comments (read_ns, wear_limit).
use kindle_core::mem::Backend;

pub fn describe(b: Backend) -> String {
    format!(
        "{}: {} ns rd / {} ns wr, wb {} (write_service_ns is backend-owned)",
        b.label(),
        b.read_latency_ns(),
        b.write_latency_ns(),
        b.timing().write_buffer,
    )
}
