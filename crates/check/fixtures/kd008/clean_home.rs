//@path crates/types/src/sanitize.rs
thread_local! {
    static CURRENT_TID: Cell<ThreadId> = const { Cell::new(ThreadId::MAIN) };
}
