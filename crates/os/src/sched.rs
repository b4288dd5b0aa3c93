//! Simulated kernel threads and the round-robin scheduler.
//!
//! The paper's evaluation interleaves application progress with background
//! kernel work — checkpoint flushes and HSCC migration passes — on the same
//! machine. We model that with a small, fully deterministic kthread table:
//! thread 0 is the main simulation context (application + syscalls) and
//! daemons are spawned at boot. `kindle_sim::Machine::step` asks
//! [`Scheduler::pick_next`] which thread runs, charges the configured
//! `kthread_switch` cost on every actual switch, and publishes the running
//! thread id to the sanitizer layer so the [`race
//! detector`](kindle_types::sanitize::Violation::RacyNvmWrite) can attribute
//! NVM writes to threads.
//!
//! The scheduler is round-robin over *runnable* threads. Daemons sleep
//! until the machine wakes them (timer due, explicit checkpoint), run one
//! pass, and go back to sleep; the main thread is always runnable, so
//! `pick_next` always has an answer. No wall-clock, no randomness — the
//! schedule is a pure function of the event sequence, which keeps
//! same-seed runs byte-identical.

use kindle_types::sanitize::ThreadId;

/// What a simulated kernel thread does when dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KThreadKind {
    /// The main simulation context: application accesses and syscalls.
    Main,
    /// Background checkpoint daemon (drives `CheckpointEngine::tick`).
    CheckpointDaemon,
    /// Background HSCC migration daemon (drives `HsccEngine::migrate`).
    MigrationDaemon,
    /// Background NVM page-table scrub daemon (read-verifies PT frames).
    ScrubDaemon,
    /// Background NVM data-frame patrol daemon (checksum-verifies the
    /// general pool, heals through ECP or poisons the page).
    PatrolDaemon,
}

/// A background kernel service that experiments can opt in through
/// `MachineConfig::with_daemon`. The machine resolves each kind to a
/// `KernelDaemon` dispatcher (in `kindle_sim`) and registers its kthread
/// via [`Scheduler::register_daemon`]; a kind whose engine is not
/// configured (e.g. `Checkpoint` without checkpointing) is skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonKind {
    /// `ckptd`: periodic checkpoint flushes.
    Checkpoint,
    /// `migrated`: HSCC migration passes (OS mode only).
    Migration,
    /// `scrubd`: periodic NVM page-table scrub/verify passes.
    Scrub,
    /// `patrold`: periodic data-frame patrol over the general NVM pool.
    Patrol,
}

/// Run state of a simulated kernel thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible for dispatch.
    Runnable,
    /// Waiting to be woken (daemons park here between passes).
    Sleeping,
}

/// One entry in the kthread table.
#[derive(Clone, Debug)]
pub struct KThread {
    /// Identity, stamped into sanitizer events emitted while it runs.
    pub tid: ThreadId,
    /// Human-readable name (reports, violation messages).
    pub name: &'static str,
    /// What the machine does when this thread is dispatched.
    pub kind: KThreadKind,
    /// Current run state.
    pub state: ThreadState,
    /// Times this thread has been dispatched.
    pub runs: u64,
}

/// Deterministic round-robin scheduler over the kthread table.
#[derive(Clone, Debug)]
pub struct Scheduler {
    threads: Vec<KThread>,
    current: usize,
    switches: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Scheduler {
    /// A scheduler with only the main thread (tid 0), runnable and current.
    pub fn new() -> Self {
        Scheduler {
            threads: vec![KThread {
                tid: ThreadId::MAIN,
                name: "main",
                kind: KThreadKind::Main,
                state: ThreadState::Runnable,
                runs: 0,
            }],
            current: 0,
            switches: 0,
        }
    }

    /// Registers a daemon kthread in the table — the single entry point
    /// through which every background daemon (ckptd, migrated, scrubd)
    /// gets a scheduling context. It starts [`ThreadState::Sleeping`];
    /// wake it to make it dispatchable. Returns its id.
    pub fn register_daemon(&mut self, name: &'static str, kind: KThreadKind) -> ThreadId {
        let tid = ThreadId(u32::try_from(self.threads.len()).unwrap_or(u32::MAX));
        self.threads.push(KThread { tid, name, kind, state: ThreadState::Sleeping, runs: 0 });
        tid
    }

    /// The running thread's id.
    pub fn current(&self) -> ThreadId {
        self.threads[self.current].tid
    }

    /// The running thread's kind.
    pub fn current_kind(&self) -> KThreadKind {
        self.threads[self.current].kind
    }

    /// Total context switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Read-only view of the thread table.
    pub fn threads(&self) -> &[KThread] {
        &self.threads
    }

    /// Looks up a thread by id.
    pub fn thread(&self, tid: ThreadId) -> Option<&KThread> {
        self.threads.get(tid.0 as usize)
    }

    /// Marks `tid` runnable. Unknown ids are ignored (a machine without the
    /// corresponding engine never spawned the daemon).
    pub fn wake(&mut self, tid: ThreadId) {
        if let Some(t) = self.threads.get_mut(tid.0 as usize) {
            t.state = ThreadState::Runnable;
        }
    }

    /// Puts `tid` to sleep. The main thread (tid 0) cannot sleep — the
    /// machine always needs a dispatchable context — so it is ignored.
    pub fn sleep(&mut self, tid: ThreadId) {
        if tid == ThreadId::MAIN {
            return;
        }
        if let Some(t) = self.threads.get_mut(tid.0 as usize) {
            t.state = ThreadState::Sleeping;
        }
    }

    /// Round-robin choice: the first runnable thread after the current one
    /// (wrapping), or the current thread if nothing else is runnable. The
    /// main thread is always runnable, so this always returns a thread.
    pub fn pick_next(&self) -> ThreadId {
        let n = self.threads.len();
        for off in 1..=n {
            let idx = (self.current + off) % n;
            if self.threads[idx].state == ThreadState::Runnable {
                return self.threads[idx].tid;
            }
        }
        self.threads[self.current].tid
    }

    /// Makes `tid` the running thread, counting a switch if it differs from
    /// the current one. The caller (the machine) charges the switch cost
    /// and publishes the id to the sanitizer layer.
    pub fn switch_to(&mut self, tid: ThreadId) {
        let idx = tid.0 as usize;
        if idx >= self.threads.len() || idx == self.current {
            return;
        }
        self.current = idx;
        self.switches += 1;
        self.threads[idx].runs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_runnable_main() {
        let s = Scheduler::new();
        assert_eq!(s.current(), ThreadId::MAIN);
        assert_eq!(s.current_kind(), KThreadKind::Main);
        assert_eq!(s.pick_next(), ThreadId::MAIN);
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn spawned_daemons_sleep_until_woken() {
        let mut s = Scheduler::new();
        let ckpt = s.register_daemon("ckptd", KThreadKind::CheckpointDaemon);
        assert_eq!(ckpt, ThreadId(1));
        assert_eq!(s.pick_next(), ThreadId::MAIN, "sleeping daemon must not be picked");
        s.wake(ckpt);
        assert_eq!(s.pick_next(), ckpt);
    }

    #[test]
    fn round_robin_cycles_runnable_threads() {
        let mut s = Scheduler::new();
        let a = s.register_daemon("a", KThreadKind::CheckpointDaemon);
        let b = s.register_daemon("b", KThreadKind::MigrationDaemon);
        s.wake(a);
        s.wake(b);
        let first = s.pick_next();
        assert_eq!(first, a);
        s.switch_to(first);
        let second = s.pick_next();
        assert_eq!(second, b);
        s.switch_to(second);
        assert_eq!(s.pick_next(), ThreadId::MAIN);
        assert_eq!(s.switches(), 2);
    }

    #[test]
    fn sleep_returns_control_to_main() {
        let mut s = Scheduler::new();
        let a = s.register_daemon("a", KThreadKind::CheckpointDaemon);
        s.wake(a);
        s.switch_to(s.pick_next());
        assert_eq!(s.current(), a);
        s.sleep(a);
        assert_eq!(s.pick_next(), ThreadId::MAIN);
    }

    #[test]
    fn main_cannot_sleep() {
        let mut s = Scheduler::new();
        s.sleep(ThreadId::MAIN);
        assert_eq!(s.pick_next(), ThreadId::MAIN);
    }

    #[test]
    fn switch_to_self_is_free() {
        let mut s = Scheduler::new();
        s.switch_to(ThreadId::MAIN);
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn switch_to_unknown_tid_ignored() {
        let mut s = Scheduler::new();
        s.switch_to(ThreadId(7));
        assert_eq!(s.current(), ThreadId::MAIN);
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn runs_counted_per_dispatch() {
        let mut s = Scheduler::new();
        let a = s.register_daemon("a", KThreadKind::CheckpointDaemon);
        for _ in 0..3 {
            s.wake(a);
            s.switch_to(a);
            s.sleep(a);
            s.switch_to(ThreadId::MAIN);
        }
        assert_eq!(s.thread(a).map(|t| t.runs), Some(3));
        assert_eq!(s.switches(), 6);
    }
}
