//! Layer spans, recorded from the benchmark's side of each call into the
//! simulator.
//!
//! A span covers one call the benchmark makes (booting a machine, one
//! mmap, one data access, one checkpoint, ...). The calls do not nest, so
//! every span's duration is its layer's self time for that call. With
//! tracing off, [`Probe::span`] is a plain call: the end-to-end numbers are
//! measured on that path.

use std::time::Instant;

use kindle_core::Machine;

/// The simulator layer a benchmark call enters.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `Machine::new` + `spawn_process`: hardware, kernel and engine boot.
    Boot,
    /// `mmap` / `munmap`: kernel VMA and page-table maintenance.
    Map,
    /// A data access that hit a present translation: TLB, page walker,
    /// cache hierarchy and memory controller.
    Access,
    /// A data access during which the kernel handled a demand-paging fault
    /// (frame allocation, zero-fill, PTE install) on top of the access path.
    Fault,
    /// `checkpoint_now`, or a data access during which the periodic
    /// checkpointer ran: the process-persistence engine.
    Checkpoint,
    /// `Machine::snapshot` / `Machine::restore`: deep machine copies.
    Fork,
    /// `crash_torn` + `recover`: power loss, reboot and recovery.
    Recover,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Boot,
        Layer::Map,
        Layer::Access,
        Layer::Fault,
        Layer::Checkpoint,
        Layer::Fork,
        Layer::Recover,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Boot => "boot",
            Layer::Map => "map",
            Layer::Access => "access",
            Layer::Fault => "fault",
            Layer::Checkpoint => "checkpoint",
            Layer::Fork => "fork",
            Layer::Recover => "recover",
        }
    }
}

/// Simulated counters summed over the machines a repetition ran its
/// workload on (crashed forks excluded).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimCounters {
    /// Hardware page-table walks.
    pub walks: u64,
    /// Last-level cache misses.
    pub llc_misses: u64,
    /// NVM line writes reaching the device.
    pub nvm_writes: u64,
    /// Demand-paging faults.
    pub page_faults: u64,
}

/// Span and counter accumulator for one run.
#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    sim: SimCounters,
}

impl Probe {
    /// A probe that records only when `on`.
    pub fn new(on: bool) -> Self {
        Probe { on, ..Probe::default() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one call into `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let v = f();
        self.add(layer, t0, 1);
        v
    }

    /// Runs `f`, which makes `n` data accesses on `m`. A span in which the
    /// periodic checkpointer ran belongs to [`Layer::Checkpoint`], one call
    /// per checkpoint; else one with page faults belongs to
    /// [`Layer::Fault`], one call per fault; else it counts as `n` calls
    /// into [`Layer::Access`]. Batching a loop of accesses into one span
    /// keeps the timer's own cost out of the per-access time.
    pub fn access<T>(&mut self, m: &mut Machine, n: u64, f: impl FnOnce(&mut Machine) -> T) -> T {
        if !self.on {
            return f(m);
        }
        let checkpoints = |m: &Machine| m.persist.as_ref().map_or(0, |e| e.stats().checkpoints);
        let (faults0, ckpts0) = (m.kernel.stats().page_faults, checkpoints(m));
        let t0 = Instant::now();
        let v = f(m);
        match (checkpoints(m) - ckpts0, m.kernel.stats().page_faults - faults0) {
            (0, 0) => self.add(Layer::Access, t0, n),
            (0, faults) => self.add(Layer::Fault, t0, faults),
            (ckpts, _) => self.add(Layer::Checkpoint, t0, ckpts),
        }
        v
    }

    /// Adds a finished machine's simulated counters (traced runs only).
    pub fn machine_done(&mut self, m: &Machine) {
        if !self.on {
            return;
        }
        let r = m.report();
        self.sim.walks += r.walks;
        self.sim.llc_misses += r.caches.llc.misses;
        self.sim.nvm_writes += r.mem.nvm.writes;
        self.sim.page_faults += r.kernel.page_faults;
    }

    fn add(&mut self, layer: Layer, t0: Instant, calls: u64) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns[layer as usize] += ns;
        self.calls[layer as usize] += calls;
    }

    /// Total host nanoseconds and calls recorded for `layer`.
    pub fn totals(&self, layer: Layer) -> (u64, u64) {
        (self.ns[layer as usize], self.calls[layer as usize])
    }

    /// Host nanoseconds covered by any span.
    pub fn span_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Simulated counters accumulated so far.
    pub fn sim(&self) -> SimCounters {
        self.sim
    }
}
