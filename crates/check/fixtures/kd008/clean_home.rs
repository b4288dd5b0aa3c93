//@path crates/sim/src/config.rs
thread_local! {
    static CONTEXT: Cell<RunContext> = const { Cell::new(RunContext::DEFAULT) };
}
