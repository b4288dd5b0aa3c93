//@path crates/sim/src/config.rs
thread_local! {
    static CONTEXT: Cell<RunSettings> = const { Cell::new(RunSettings::SERIAL) };
}
