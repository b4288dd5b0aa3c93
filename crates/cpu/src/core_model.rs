//! The in-order core: clock and labelled time accounting.

use kindle_types::Cycles;

use crate::regs::RegisterFile;

/// What the machine is currently doing; each charged cycle is attributed to
/// exactly one activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Activity {
    /// Application (user-mode) execution, including its memory stalls.
    #[default]
    User = 0,
    /// Generic kernel work (fault handling, syscalls, allocation).
    Os = 1,
    /// Periodic execution-context checkpointing (persistence study).
    Checkpoint = 2,
    /// SSP interval-end processing (bitmap write-out, clwb storm).
    SspInterval = 3,
    /// SSP background page consolidation thread.
    Consolidation = 4,
    /// HSCC page migration: the software page-table scan, destination
    /// selection and page copies (the engine's counters split them).
    MigrationScan = 5,
    /// Crash recovery (rebuilding contexts and page tables).
    Recovery = 6,
}

impl Activity {
    /// All activities in index order.
    pub const ALL: [Activity; 7] = [
        Activity::User,
        Activity::Os,
        Activity::Checkpoint,
        Activity::SspInterval,
        Activity::Consolidation,
        Activity::MigrationScan,
        Activity::Recovery,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Activity::User => "user",
            Activity::Os => "os",
            Activity::Checkpoint => "checkpoint",
            Activity::SspInterval => "ssp-interval",
            Activity::Consolidation => "ssp-consolidation",
            Activity::MigrationScan => "migration-scan",
            Activity::Recovery => "recovery",
        }
    }
}

/// Cycles charged per [`Activity`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActivityBreakdown {
    buckets: [Cycles; Activity::ALL.len()],
}

impl ActivityBreakdown {
    /// Cycles attributed to `a`.
    pub fn get(&self, a: Activity) -> Cycles {
        self.buckets[a as usize]
    }

    /// Sum over every activity (= total busy time).
    pub fn total(&self) -> Cycles {
        self.buckets.iter().copied().sum()
    }

    /// Sum of all non-user buckets.
    pub fn non_user(&self) -> Cycles {
        self.total() - self.get(Activity::User)
    }

    /// Iterates `(activity, cycles)` pairs with non-zero time.
    pub fn iter(&self) -> impl Iterator<Item = (Activity, Cycles)> + '_ {
        Activity::ALL.iter().copied().map(|a| (a, self.get(a))).filter(|(_, c)| *c > Cycles::ZERO)
    }
}

/// Counters beyond raw time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Retired instructions (charged via [`Core::instr`]).
    pub instructions: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
}

/// The simulated in-order core at 3 GHz. Owns the one global clock.
#[derive(Clone, Debug, Default)]
pub struct Core {
    now: Cycles,
    activity: Activity,
    breakdown: ActivityBreakdown,
    /// Architectural registers (saved/restored by persistence).
    pub regs: RegisterFile,
    stats: CpuStats,
}

impl Core {
    /// A core at time zero, executing user code.
    pub fn new() -> Self {
        Core::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Currently active attribution label.
    pub fn activity(&self) -> Activity {
        self.activity
    }

    /// Switches the attribution label, returning the previous one so callers
    /// can restore it (`let prev = core.set_activity(..); ...;
    /// core.set_activity(prev);`).
    pub fn set_activity(&mut self, a: Activity) -> Activity {
        std::mem::replace(&mut self.activity, a)
    }

    /// Advances the clock, attributing the time to the current activity.
    pub fn advance(&mut self, cost: Cycles) {
        self.now += cost;
        self.breakdown.buckets[self.activity as usize] += cost;
    }

    /// Charges `count` single-cycle instructions (CPI = 1 in-order model).
    pub fn instr(&mut self, count: u64) {
        self.stats.instructions += count;
        self.advance(Cycles::new(count));
    }

    /// Counts one memory operation (time is charged separately by the
    /// memory path).
    pub fn count_mem_op(&mut self) {
        self.stats.mem_ops += 1;
    }

    /// Time-attribution breakdown.
    pub fn breakdown(&self) -> &ActivityBreakdown {
        &self.breakdown
    }

    /// Instruction/memory-op counters.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Resets clock and accounting but keeps the register file (used when
    /// re-running a machine from a recovered state).
    pub fn reset_accounting(&mut self) {
        self.now = Cycles::ZERO;
        self.breakdown = ActivityBreakdown::default();
        self.stats = CpuStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_follows_activity() {
        let mut c = Core::new();
        c.advance(Cycles::new(10));
        let prev = c.set_activity(Activity::Checkpoint);
        assert_eq!(prev, Activity::User);
        c.advance(Cycles::new(5));
        c.set_activity(prev);
        c.advance(Cycles::new(1));
        assert_eq!(c.breakdown().get(Activity::User).as_u64(), 11);
        assert_eq!(c.breakdown().get(Activity::Checkpoint).as_u64(), 5);
        assert_eq!(c.now().as_u64(), 16);
        assert_eq!(c.breakdown().total().as_u64(), 16);
        assert_eq!(c.breakdown().non_user().as_u64(), 5);
    }

    #[test]
    fn instr_charges_cpi_one() {
        let mut c = Core::new();
        c.instr(100);
        assert_eq!(c.now().as_u64(), 100);
        assert_eq!(c.stats().instructions, 100);
    }

    #[test]
    fn iter_skips_zero_buckets() {
        let mut c = Core::new();
        c.set_activity(Activity::MigrationScan);
        c.advance(Cycles::new(3));
        let v: Vec<_> = c.breakdown().iter().collect();
        assert_eq!(v, vec![(Activity::MigrationScan, Cycles::new(3))]);
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = Activity::ALL.iter().map(|a| a.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Activity::ALL.len());
    }

    #[test]
    fn reset_accounting_keeps_registers() {
        let mut c = Core::new();
        c.regs.rip = 77;
        c.advance(Cycles::new(9));
        c.reset_accounting();
        assert_eq!(c.now(), Cycles::ZERO);
        assert_eq!(c.regs.rip, 77);
    }
}
