//@path crates/mem/src/faults_compat.rs
pub fn reseed(seed: u64) {
    set_thread_media_fault_seed(seed);
}

pub fn peek() -> u64 {
    thread_media_fault_seed()
}

thread_local! {
    static RETRY_BUDGET: Cell<u32> = const { Cell::new(0) };
}

#[thread_local]
static SCRATCH: u64 = 0;
