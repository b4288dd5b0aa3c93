//! Benchmark-harness support: experiment re-exports and table formatting
//! shared by the `fig*`/`table*` binaries that regenerate the paper's
//! evaluation artifacts.

pub use kindle_core::*;

use kindle_core::sim::{RunContext, RunContextGuard};
use kindle_core::types::sanitize::{self, Installed, InvariantChecker, ViolationLog};

/// Flag summary printed when an unknown or malformed argument is seen.
pub const USAGE: &str = "[--quick] [--sanitize] [--faults <seed>] [--stuck <N>] \
     [--patrol <interval-us>] [--jobs <N>] [--csv <path>] [--json <path>] [--plot <path>] \
     [--timing <path>] [--verify-replay] [--backend <name>]";

/// Per-line ECP correction budget armed alongside `--stuck`: two entries
/// absorb every realistically seeded cell (three uniform cells landing in
/// one line is vanishingly rare at bench scales), so stuck media costs
/// correction work instead of silently corrupting stored data.
pub const STUCK_CORRECTION_ENTRIES: u32 = 2;

/// Fault/sanitizer/parallelism CLI harness shared by the `fig*`/`table*`
/// binaries.
///
/// * `--quick` selects CI-scale parameters instead of the paper-scale
///   defaults ([`Harness::quick`]).
/// * `--csv <path>` makes [`Harness::maybe_csv`] write the rows as CSV.
/// * `--sanitize` installs the cross-layer [`InvariantChecker`] for the
///   whole run; [`Harness::finish`] prints anything it caught and fails
///   the binary, so CI notices an experiment that corrupts state even
///   when its numbers still look plausible.
/// * `--faults <seed>` arms the deterministic NVM media-fault model
///   (wear-out, stuck cells, retry-then-retire) in every machine the
///   experiment builds — the figures can be regenerated on degrading
///   media without touching experiment code.
/// * `--stuck <N>` scatters `N` stuck-at cells over the NVM range and
///   enables a two-entry per-line ECP correction budget so the cells are
///   absorbed at write time rather than silently corrupting stored data.
///   Folded into the `--faults` model when one is armed; experiments
///   that build their own fault model read it via [`Harness::stuck`].
/// * `--patrol <interval-us>` publishes a data-frame patrol period for
///   experiments that arm the checksum patrol daemon
///   ([`Harness::patrol_interval`]); like standalone `--stuck` it is an
///   accessor, not ambient state — each binary decides which of its
///   machines run `patrold`.
/// * `--plot <path>` asks plot-capable binaries (`seedsweep`) to render
///   their rows as a self-contained SVG at `path`
///   ([`Harness::plot_path`]).
/// * `--jobs <N>` publishes the fork-join worker count the experiment
///   grids run on (default: `KINDLE_JOBS`, else available parallelism).
///   Results are byte-identical at any worker count.
/// * `--json <path>` makes [`Harness::maybe_json`] write the rows inside
///   an envelope carrying `jobs` and wall-clock `elapsed_ms`, which the
///   CI bench-smoke job diffs against golden ranges.
/// * `--timing <path>` publishes a secondary timing-artifact path
///   ([`Harness::timing_path`]); the `sweep` binary writes its
///   `SWEEP_timing.json` telemetry there.
/// * `--verify-replay` asks sweep-style binaries to cross-check the
///   snapshot-forked execution against the replay-from-zero oracle
///   ([`Harness::verify_replay`]); the digests must be byte-identical.
/// * `--backend <name>` swaps the far-tier memory backend
///   ([`mem::Backend::registry`]: `pcm`, `numa`, `sttram`, `cxl`, ...)
///   under every machine the experiment builds. The default `pcm` is
///   byte-identical to not passing the flag; unknown names exit 2
///   listing the registered backends. The resolved name is echoed in
///   every `--json` envelope.
///
/// `--faults`, `--backend` and `--jobs` form the
/// [`RunContext`] the harness installs for its lifetime; `par_map`
/// carries it onto every worker.
///
/// Unknown `--*` flags are rejected: [`Harness::from_args`] prints the
/// usage line and exits with status 2 rather than silently running the
/// paper-scale default (the classic typo was `--quik`).
pub struct Harness {
    _ctx: RunContextGuard,
    _guard: Option<Installed>,
    log: Option<ViolationLog>,
    jobs: usize,
    quick: bool,
    stuck: Option<usize>,
    patrol: Option<Cycles>,
    csv_path: Option<String>,
    json_path: Option<String>,
    plot_path: Option<String>,
    timing_path: Option<String>,
    verify_replay: bool,
    backend: mem::Backend,
    started: std::time::Instant,
}

impl Harness {
    /// Parses `std::env::args()` and activates the requested machinery.
    /// On a malformed command line, prints the error plus usage and exits
    /// with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match Self::try_from_arg_list(&args) {
            Ok(h) => h,
            Err(e) => {
                let bin = args.first().map_or("<bin>", String::as_str);
                eprintln!("{e}");
                eprintln!("usage: {bin} {USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Infallible wrapper kept for tests and simple callers.
    ///
    /// # Panics
    ///
    /// Panics on any malformed command line (unknown flag, missing or
    /// unparsable value).
    #[must_use]
    pub fn from_arg_list(args: &[String]) -> Self {
        match Self::try_from_arg_list(args) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Testable core of [`Harness::from_args`]: validates every flag and
    /// activates the requested machinery.
    ///
    /// # Errors
    ///
    /// Describes the first unknown `--*` flag, or a flag whose required
    /// value is missing or unparsable.
    pub fn try_from_arg_list(args: &[String]) -> std::result::Result<Self, String> {
        let mut sanitize_requested = false;
        let mut quick = false;
        let mut fault_seed = None;
        let mut stuck = None;
        let mut patrol = None;
        let mut jobs = None;
        let mut csv_path = None;
        let mut json_path = None;
        let mut plot_path = None;
        let mut timing_path = None;
        let mut verify_replay = false;
        let mut backend = None;
        let mut it = args.iter().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--sanitize" => sanitize_requested = true,
                "--quick" => quick = true,
                "--faults" => {
                    let v = it.next().ok_or("--faults requires a u64 seed")?;
                    let seed =
                        v.parse::<u64>().map_err(|_| format!("--faults: not a u64 seed: {v:?}"))?;
                    fault_seed = Some(seed);
                }
                "--stuck" => {
                    let v = it.next().ok_or("--stuck requires a cell count")?;
                    let n = v
                        .parse::<usize>()
                        .map_err(|_| format!("--stuck: not a cell count: {v:?}"))?;
                    stuck = Some(n);
                }
                "--patrol" => {
                    let v = it.next().ok_or("--patrol requires an interval in microseconds")?;
                    let us = v
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--patrol: not a positive interval: {v:?}"))?;
                    patrol = Some(Cycles::from_micros(us));
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs requires a worker count")?;
                    let n = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs: not a positive integer: {v:?}"))?;
                    jobs = Some(n);
                }
                "--csv" => {
                    csv_path = Some(it.next().ok_or("--csv requires a path")?.clone());
                }
                "--json" => {
                    json_path = Some(it.next().ok_or("--json requires a path")?.clone());
                }
                "--plot" => {
                    plot_path = Some(it.next().ok_or("--plot requires a path")?.clone());
                }
                "--timing" => {
                    timing_path = Some(it.next().ok_or("--timing requires a path")?.clone());
                }
                "--verify-replay" => verify_replay = true,
                "--backend" => {
                    let v = it.next().ok_or_else(|| {
                        format!("--backend requires a name (registered: {})", mem::Backend::names())
                    })?;
                    let b = mem::Backend::from_name(v).ok_or_else(|| {
                        format!(
                            "--backend: unknown backend {v:?} (registered: {})",
                            mem::Backend::names()
                        )
                    })?;
                    backend = Some(b);
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag: {other}"));
                }
                _ => {}
            }
        }
        let jobs = jobs.unwrap_or_else(parallel::default_jobs);
        let faults = fault_seed.map(|seed| {
            let mut faults = mem::MediaFaultConfig::with_seed(seed);
            if let Some(n) = stuck {
                faults.stuck_cells = n;
                faults.correction_entries = STUCK_CORRECTION_ENTRIES;
            }
            faults
        });
        // `backend` stays `None` unless the flag was passed: the unset
        // default must stay byte-identical to the pre-backend harness.
        let ctx = RunContext { faults, backend, jobs }.install();
        let (guard, log) = if sanitize_requested {
            let checker = InvariantChecker::new();
            let log = checker.log();
            (Some(sanitize::install(Box::new(checker))), Some(log))
        } else {
            (None, None)
        };
        Ok(Harness {
            _ctx: ctx,
            _guard: guard,
            log,
            jobs,
            quick,
            stuck,
            patrol,
            csv_path,
            json_path,
            plot_path,
            timing_path,
            verify_replay,
            backend: backend.unwrap_or_default(),
            started: std::time::Instant::now(),
        })
    }

    /// The resolved fork-join worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// True if `--quick` was passed (CI-scale parameters instead of the
    /// paper-scale defaults).
    #[must_use]
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Stuck-cell count requested with `--stuck <N>`, if any.
    #[must_use]
    pub fn stuck(&self) -> Option<usize> {
        self.stuck
    }

    /// Patrol-daemon period requested with `--patrol <interval-us>`, if
    /// any (already converted to cycles).
    #[must_use]
    pub fn patrol_interval(&self) -> Option<Cycles> {
        self.patrol
    }

    /// SVG output path requested with `--plot <path>`, if any.
    #[must_use]
    pub fn plot_path(&self) -> Option<&str> {
        self.plot_path.as_deref()
    }

    /// Timing-artifact path requested with `--timing <path>`, if any.
    #[must_use]
    pub fn timing_path(&self) -> Option<&str> {
        self.timing_path.as_deref()
    }

    /// True when `--verify-replay` asked for the snapshot-vs-replay
    /// cross-check.
    #[must_use]
    pub fn verify_replay(&self) -> bool {
        self.verify_replay
    }

    /// The resolved far-tier backend (`--backend <name>`, default PCM).
    #[must_use]
    pub fn backend(&self) -> mem::Backend {
        self.backend
    }

    /// Writes rows as CSV when `--csv <path>` was passed.
    pub fn maybe_csv<R: kindle_core::experiments::CsvRow>(&self, rows: &[R]) {
        let Some(path) = &self.csv_path else { return };
        match std::fs::write(path, kindle_core::experiments::to_csv(rows)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }

    /// Writes rows as JSON when `--json <path>` was passed, wrapped in the
    /// bench envelope (`jobs`, `elapsed_ms`, `rows`) consumed by the CI
    /// bench-smoke job's golden-range diff.
    pub fn maybe_json<R: kindle_core::experiments::CsvRow>(&self, rows: &[R]) {
        self.maybe_json_body(&kindle_core::experiments::to_json(rows));
    }

    /// [`Harness::maybe_json`] for a pre-rendered JSON value (used by
    /// binaries whose payload is not a row array, e.g. Table I's config).
    pub fn maybe_json_body(&self, body: &str) {
        let Some(path) = &self.json_path else { return };
        // Wall-clock time is confined to this envelope field: it is host
        // time for CI trend lines, never simulated time (KD001 keeps wall
        // clocks out of the simulation crates; the bench crate is exempt).
        let elapsed_ms = self.started.elapsed().as_millis();
        let data = format!(
            "{{\n\"jobs\": {},\n\"elapsed_ms\": {},\n\"backend\": \"{}\",\n\"rows\": {}\n}}\n",
            self.jobs,
            elapsed_ms,
            self.backend.name(),
            body.trim_end()
        );
        match std::fs::write(path, data) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("json write failed: {e}"),
        }
    }

    /// Tears the harness down: reports sanitizer violations, then (on
    /// drop) restores the run context that was current before it.
    ///
    /// # Errors
    ///
    /// [`KindleError::Corrupted`] when the sanitizer recorded violations.
    pub fn finish(self) -> Result<()> {
        if let Some(log) = &self.log {
            let violations = log.take();
            if !violations.is_empty() {
                eprintln!("sanitizer: {} violation(s)", violations.len());
                for v in &violations {
                    eprintln!("  {v}");
                }
                return Err(KindleError::Corrupted("sanitizer recorded violations"));
            }
            eprintln!("sanitizer: clean");
        }
        Ok(())
    }
}

/// Prints a rule line of width `w`.
pub fn rule(w: usize) {
    println!("{}", "-".repeat(w));
}

/// Formats milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn harness_plain_is_inert() {
        let h = Harness::from_arg_list(&args(&["bin"]));
        assert!(!sanitize::installed());
        h.finish().unwrap();
    }

    #[test]
    fn harness_sanitize_installs_and_reports_clean() {
        let h = Harness::from_arg_list(&args(&["bin", "--sanitize"]));
        assert!(sanitize::installed());
        let m = Machine::new(MachineConfig::small()).unwrap();
        drop(m);
        h.finish().unwrap();
        assert!(!sanitize::installed(), "finish must uninstall the checker");
    }

    #[test]
    fn harness_faults_seed_arms_machines_until_finish() {
        let h = Harness::from_arg_list(&args(&["bin", "--faults", "42"]));
        let m = Machine::new(MachineConfig::small()).unwrap();
        assert_eq!(m.config().mem.faults.as_ref().map(|f| f.seed), Some(42));
        h.finish().unwrap();
        let clean = Machine::new(MachineConfig::small()).unwrap();
        assert!(clean.config().mem.faults.is_none(), "finish must clear the ambient seed");
    }

    #[test]
    fn harness_backend_arms_machines_until_finish() {
        let h = Harness::from_arg_list(&args(&["bin", "--backend", "numa"]));
        assert_eq!(h.backend(), mem::Backend::Numa);
        let m = Machine::new(MachineConfig::small()).unwrap();
        assert_eq!(
            m.config().mem.backend,
            Some(mem::Backend::Numa),
            "flag must reach every machine built on this thread"
        );
        h.finish().unwrap();
        let clean = Machine::new(MachineConfig::small()).unwrap();
        assert!(clean.config().mem.backend.is_none(), "finish must clear the ambient choice");

        // Without the flag: resolved default is pcm, nothing published.
        let h = Harness::from_arg_list(&args(&["bin"]));
        assert_eq!(h.backend(), mem::Backend::Pcm);
        let m = Machine::new(MachineConfig::small()).unwrap();
        assert!(m.config().mem.backend.is_none(), "unset default must not publish ambient state");
        h.finish().unwrap();
    }

    #[test]
    fn harness_rejects_unknown_backend_listing_registry() {
        let err = Harness::try_from_arg_list(&args(&["bin", "--backend", "flash"])).err().unwrap();
        assert!(err.contains("unknown backend"), "{err}");
        for name in ["pcm", "numa", "sttram", "cxl"] {
            assert!(err.contains(name), "error must list registered backend {name}: {err}");
        }
        assert!(Harness::try_from_arg_list(&args(&["bin", "--backend"])).is_err());
    }

    #[test]
    fn harness_rejects_unknown_flags() {
        // A removed flag is unknown too: scripts that still pass it must
        // get an error, not a run that quietly ignores it.
        for flag in ["--quik", "--legacy-maps"] {
            let err = Harness::try_from_arg_list(&args(&["bin", flag])).err().unwrap();
            assert!(err.contains(&format!("unknown flag: {flag}")), "{err}");
        }
        // Valid flags after the bad one must not mask the rejection.
        let err = Harness::try_from_arg_list(&args(&["bin", "--bogus", "--sanitize"]));
        assert!(err.is_err());
        assert!(!sanitize::installed(), "rejected command lines must not install anything");
    }

    #[test]
    fn harness_rejects_malformed_values() {
        assert!(Harness::try_from_arg_list(&args(&["bin", "--faults"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--faults", "pony"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--jobs"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--jobs", "0"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--csv"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--json"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--stuck"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--stuck", "many"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--plot"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--patrol"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--patrol", "0"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--patrol", "soon"])).is_err());
        assert!(Harness::try_from_arg_list(&args(&["bin", "--timing"])).is_err());
    }

    #[test]
    fn harness_timing_and_verify_replay_are_accessors() {
        let h = Harness::from_arg_list(&args(&[
            "bin",
            "--timing",
            "T.json",
            "--verify-replay",
            "--quick",
        ]));
        assert_eq!(h.timing_path(), Some("T.json"));
        assert!(h.verify_replay());
        assert!(h.quick());
        h.finish().unwrap();

        let h = Harness::from_arg_list(&args(&["bin"]));
        assert_eq!(h.timing_path(), None);
        assert!(!h.verify_replay());
        assert!(!h.quick());
        h.finish().unwrap();
    }

    #[test]
    fn harness_patrol_interval_is_an_accessor() {
        let h = Harness::from_arg_list(&args(&["bin", "--patrol", "250"]));
        assert_eq!(h.patrol_interval(), Some(Cycles::from_micros(250)));
        // Accessor only: no ambient state, machines stay patrol-free
        // unless the binary arms them.
        let m = Machine::new(MachineConfig::small()).unwrap();
        assert!(m.patrol.is_none());
        h.finish().unwrap();

        let h = Harness::from_arg_list(&args(&["bin"]));
        assert_eq!(h.patrol_interval(), None);
        h.finish().unwrap();
    }

    #[test]
    fn harness_stuck_folds_into_the_fault_model() {
        let h = Harness::from_arg_list(&args(&["bin", "--faults", "9", "--stuck", "512"]));
        assert_eq!(h.stuck(), Some(512));
        let m = Machine::new(MachineConfig::small()).unwrap();
        let f = m.config().mem.faults.clone().unwrap();
        assert_eq!(f.stuck_cells, 512);
        assert_eq!(f.correction_entries, STUCK_CORRECTION_ENTRIES);
        h.finish().unwrap();

        // Standalone --stuck is an accessor only: no ambient model armed.
        let h = Harness::from_arg_list(&args(&["bin", "--stuck", "16", "--plot", "p.svg"]));
        assert_eq!(h.stuck(), Some(16));
        assert_eq!(h.plot_path(), Some("p.svg"));
        let m = Machine::new(MachineConfig::small()).unwrap();
        assert!(m.config().mem.faults.is_none());
        h.finish().unwrap();
    }

    #[test]
    fn harness_publishes_and_resets_jobs() {
        let h = Harness::from_arg_list(&args(&["bin", "--jobs", "3"]));
        assert_eq!(h.jobs(), 3);
        assert_eq!(RunContext::current().jobs, 3, "drivers must see the published count");
        h.finish().unwrap();
        assert_eq!(RunContext::current(), RunContext::default(), "finish must restore the context");
    }

    #[test]
    fn json_envelope_wraps_rows() {
        let dir = std::env::temp_dir().join("kindle-bench-envelope-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.json");
        let csv_path = dir.join("rows.csv");
        let h = Harness::from_arg_list(&args(&[
            "bin",
            "--jobs",
            "2",
            "--json",
            path.to_str().unwrap(),
            "--csv",
            csv_path.to_str().unwrap(),
        ]));
        let rows =
            vec![experiments::Fig4aRow { size_mb: 64, rebuild_ms: 54.2, persistent_ms: 29.2 }];
        h.maybe_json(&rows);
        h.maybe_csv(&rows);
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), experiments::to_csv(&rows));
        let data = std::fs::read_to_string(&path).unwrap();
        assert!(data.starts_with("{\n\"jobs\": 2,\n\"elapsed_ms\": "), "{data}");
        assert!(data.contains("\"backend\": \"pcm\""), "envelope must echo the backend: {data}");
        assert!(data.contains("\"rows\": ["), "{data}");
        assert!(data.contains("\"size_mib\": 64"), "{data}");
        assert!(data.trim_end().ends_with('}'), "{data}");
        h.finish().unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();

        // Without --csv nothing is written.
        let h = Harness::from_arg_list(&args(&["bin"]));
        h.maybe_csv(&rows);
        assert!(!csv_path.exists(), "maybe_csv must be inert without --csv");
        h.finish().unwrap();
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(super::ms(12345.6), "12346");
        assert_eq!(super::ms(45.67), "45.7");
        assert_eq!(super::ms(1.2345), "1.234");
    }
}
