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
use kindle_mem::PatrolOutcome;
use kindle_os::{
    DaemonKind, IntegrityOutcome, Kernel, PatrolPassOutcome, PatrolState, PATROL_BATCH_FRAMES,
};
use kindle_types::sanitize::{self, Event};
use kindle_types::{Cycles, PhysMem, Result};

use crate::hw::Hw;
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
    let Some(engine) = m.persist.as_mut() else {
        return Ok(());
    };
    m.hw.during(Activity::Checkpoint, |hw| engine.tick(hw, &mut m.kernel).map(|_| ()))
}

/// `migrated`: one HSCC page-migration pass, under the (simulated)
/// migration lock that orders its page copies and PTE stores against
/// foreground NVM writes. The lock events bracket the pass so the release
/// is reached even when it propagates a page-table error (KD010).
fn run_migration(m: &mut Machine, pid: u32) -> Result<()> {
    if m.hscc.is_none() {
        return Ok(());
    }
    // Hardware-only baseline: migrations happen with no OS time charged.
    let was_free = m.hw.set_free_mode(m.hw.free_mode() || !m.config().hscc_os_mode);
    sanitize::emit(|| Event::LockAcquire { id: sanitize::LOCK_MIGRATION });
    let r = migration_pass(m, pid);
    sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_MIGRATION });
    m.hw.set_free_mode(was_free);
    r
}

/// One flush, then the bracketed scan. The flush folds the TLB's live
/// access counts into the PTEs before the scan reads them, and it drops
/// every translation the pass may remap: nothing translates through the
/// TLB during a pass. Like every shootdown it is charged outside the
/// bracket, to the running activity.
fn migration_pass(m: &mut Machine, pid: u32) -> Result<()> {
    m.flush_process_tlb();
    let Some(engine) = m.hscc.as_mut() else {
        return Ok(());
    };
    m.hw.during(Activity::MigrationScan, |hw| engine.migrate(hw, &mut m.kernel, pid).map(|_| ()))
}

/// `scrubd`: one page-table read-verify pass against the kernel's shadow
/// metadata.
fn run_scrub(m: &mut Machine) -> Result<()> {
    if m.scrub.is_none() {
        return Ok(());
    }
    let outcome = m.hw.during(Activity::Os, |hw| m.kernel.scrub_pt_frames(hw))?;
    // The table moved: any cached translation may have been filled
    // through the old frame.
    finish_pass(m, outcome.frames_retired.len(), |m, now| {
        if let Some(state) = m.scrub.as_mut() {
            state.complete_pass(now, &outcome);
        }
    })
}

/// `patrold`: one data-frame checksum batch over the general NVM pool.
fn run_patrol(m: &mut Machine) -> Result<()> {
    let Some(state) = m.patrol.as_mut() else {
        return Ok(());
    };
    let outcome = m.hw.during(Activity::Os, |hw| patrol_batch(hw, &mut m.kernel, state))?;
    // The owner died with translations still cached.
    finish_pass(m, outcome.killed.len(), |m, now| {
        if let Some(state) = m.patrol.as_mut() {
            state.complete_pass(now, &outcome);
        }
    })
}

/// The tail scrubd and patrold share: one TLB flush per process whose
/// table moved or who was killed, then logs the kernel's metadata records,
/// then `complete` folds the pass into the daemon's state at the current
/// clock.
fn finish_pass(
    m: &mut Machine,
    flushes: usize,
    complete: impl FnOnce(&mut Machine, Cycles),
) -> Result<()> {
    for _ in 0..flushes {
        m.flush_process_tlb();
    }
    m.drain_meta()?;
    let now = m.now();
    complete(m, now);
    Ok(())
}

/// One patrold batch, as [`Machine::patrol_data_frames`] describes it.
pub(crate) fn patrol_batch(
    hw: &mut Hw,
    kernel: &mut Kernel,
    state: &mut PatrolState,
) -> Result<PatrolPassOutcome> {
    let mut out = PatrolPassOutcome::default();
    let pool_start = kernel.pools.nvm.inner().start();
    let capacity = kernel.pools.nvm.inner().capacity();
    if capacity == 0 {
        return Ok(out);
    }
    let mut cursor = state.cursor() % capacity;
    // Walk the pfn space from the cursor, wrapping at most once, and
    // verify at most one batch of allocated data frames.
    let mut scanned = 0;
    while scanned < capacity && out.frames_checked < PATROL_BATCH_FRAMES {
        let pfn = pool_start + cursor;
        cursor = (cursor + 1) % capacity;
        scanned += 1;
        if !kernel.pools.nvm.is_allocated(pfn) || kernel.table_frame_owner(pfn).is_some() {
            continue;
        }
        out.frames_checked += 1;
        hw.advance(Cycles::new(kernel.costs.scrub_frame_op));
        match hw.mc.patrol_frame(pfn.base().as_u64()) {
            PatrolOutcome::Clean => out.frames_clean += 1,
            PatrolOutcome::Healed { lines } => {
                hw.advance(Cycles::new(kernel.costs.scrub_line_op * lines as u64));
                out.lines_detected += lines as u64;
                out.lines_healed += lines as u64;
            }
            PatrolOutcome::Uncorrectable { lines } => {
                out.lines_detected += lines.len() as u64;
                match kernel.poison_or_retire_frame(hw, pfn)? {
                    IntegrityOutcome::Poisoned { pid, .. } => {
                        out.frames_poisoned += 1;
                        out.killed.push(pid);
                    }
                    IntegrityOutcome::Retired(_) => out.frames_retired += 1,
                }
            }
        }
    }
    state.set_cursor(cursor);
    Ok(out)
}
