//! The four kernel daemons, dispatched by [`DaemonKind`].
//!
//! Each question the machine asks of a daemon — is its engine configured,
//! is a pass due, run one pass — is one `match` on the kind. A daemon
//! holds no state of its own: engine state lives on the [`Machine`] (so
//! crash/reboot rebuilds it with the kernel), and its kthread id lives in
//! the kernel's scheduler. When `kthreads` is on, the machine registers a
//! kthread for every enabled kind in [`DaemonKind::ALL`] order and runs
//! each pass on it; otherwise a due pass runs inline from the timer loop.

use kindle_cpu::Activity;
use kindle_os::DaemonKind;
use kindle_types::Result;

use crate::machine::Machine;

/// True when the machine's configuration runs daemon `kind` (its engine
/// exists). Disabled daemons get no kthread.
pub(crate) fn enabled(m: &Machine, kind: DaemonKind) -> bool {
    match kind {
        DaemonKind::Checkpoint => m.persist.is_some(),
        // The hardware-only baseline keeps migrations off the thread table:
        // there is no OS context to charge.
        DaemonKind::Migration => m.hscc.is_some() && m.config().hscc_os_mode,
        DaemonKind::Scrub => m.scrub.is_some(),
        DaemonKind::Patrol => m.patrol.is_some(),
    }
}

/// True when the next pass of daemon `kind` is due.
pub(crate) fn due(m: &Machine, kind: DaemonKind) -> bool {
    let now = m.now();
    match kind {
        DaemonKind::Checkpoint => m.persist.as_ref().is_some_and(|e| e.due(now)),
        DaemonKind::Migration => m.hscc.as_ref().is_some_and(|e| e.due(now)),
        DaemonKind::Scrub => m.scrub.as_ref().is_some_and(|s| s.due(now)),
        DaemonKind::Patrol => m.patrol.as_ref().is_some_and(|s| s.due(now)),
    }
}

/// Runs one pass of daemon `kind` on behalf of foreground process `pid`.
///
/// # Errors
///
/// Propagates engine failures.
pub(crate) fn run(m: &mut Machine, kind: DaemonKind, pid: u32) -> Result<()> {
    match kind {
        DaemonKind::Checkpoint => run_checkpoint(m),
        DaemonKind::Migration => run_migration(m, pid),
        DaemonKind::Scrub => run_scrub(m),
        DaemonKind::Patrol => run_patrol(m),
    }
}

/// `ckptd`: one periodic process-persistence checkpoint.
fn run_checkpoint(m: &mut Machine) -> Result<()> {
    let mut result = Ok(());
    if let Some(engine) = m.persist.as_mut() {
        let prev = m.hw.set_activity(Activity::Checkpoint);
        result = engine.tick(&mut m.hw, &mut m.kernel).map(|_| ());
        m.hw.set_activity(prev);
    }
    result
}

/// `migrated`: one HSCC page-migration scan.
fn run_migration(m: &mut Machine, pid: u32) -> Result<()> {
    let os_mode = m.config().hscc_os_mode;
    let mut result = Ok(());
    let prev = m.hw.set_activity(Activity::MigrationScan);
    let was_free = if os_mode {
        m.hw.free_mode()
    } else {
        // Hardware-only baseline: migrations happen with no OS time
        // charged.
        m.hw.set_free_mode(true)
    };
    if let Some(engine) = m.hscc.as_mut() {
        result = engine.migrate(&mut m.hw, &mut m.kernel, &mut m.tlb, pid).map(|_| ());
    }
    if !os_mode {
        m.hw.set_free_mode(was_free);
    }
    m.hw.set_activity(prev);
    result
}

/// `scrubd`: one page-table read-verify pass against the kernel's shadow
/// metadata.
fn run_scrub(m: &mut Machine) -> Result<()> {
    if m.scrub.is_none() {
        return Ok(());
    }
    let prev = m.hw.set_activity(Activity::Os);
    let outcome = m.kernel.scrub_pt_frames(&mut m.hw);
    m.hw.set_activity(prev);
    let outcome = outcome?;
    for &(owner, _old_frame) in &outcome.frames_retired {
        // The table moved: any cached translation may have been filled
        // through the old frame.
        m.flush_process_tlb(owner)?;
    }
    m.drain_meta()?;
    let now = m.now();
    if let Some(state) = m.scrub.as_mut() {
        state.complete_pass(now, &outcome);
    }
    Ok(())
}

/// `patrold`: one data-frame checksum batch over the general NVM pool.
fn run_patrol(m: &mut Machine) -> Result<()> {
    if m.patrol.is_none() {
        return Ok(());
    }
    let prev = m.hw.set_activity(Activity::Os);
    let outcome = m.patrol_data_frames();
    m.hw.set_activity(prev);
    let outcome = outcome?;
    for &owner in &outcome.killed {
        // The owner died with translations still cached.
        m.flush_process_tlb(owner)?;
    }
    m.drain_meta()?;
    let now = m.now();
    if let Some(state) = m.patrol.as_mut() {
        state.complete_pass(now, &outcome);
    }
    Ok(())
}
