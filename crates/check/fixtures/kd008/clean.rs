//@path crates/mem/src/faults_doc.rs
/// The old set_thread_media_fault_seed channel is gone — history only.
/// So is every thread_local! outside the sanitizer.
pub fn note() -> &'static str {
    "set_thread_media_fault_seed was replaced by RunSettings::faults"
}

pub fn armed(run: RunSettings) -> bool {
    run.faults.is_some()
}

#[cfg(test)]
mod tests {
    thread_local! {
        static SEEN: Cell<u32> = const { Cell::new(0) };
    }
}
