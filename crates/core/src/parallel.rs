//! Deterministic fork-join execution for sweeps and experiment grids.
//!
//! The whole evaluation pipeline is embarrassingly parallel at the *grid
//! cell* level: every crash point of a sweep and every (size, interval,
//! workload, …) cell of a figure builds its own fresh [`Machine`] and
//! observes only simulated time. [`par_map`] exploits that with plain
//! scoped `std::thread` workers (std-only — the workspace is hermetic, no
//! rayon) while keeping the one property the repo is built around:
//! **byte-identical output regardless of worker count**.
//!
//! The determinism argument:
//!
//! * results are collected **in input order** — workers race only for
//!   *which* item they compute, never for where its result lands;
//! * each item's computation is a pure function of the item (fresh machine,
//!   per-item RNG), so *when* and *on which host thread* it runs cannot
//!   change its value;
//! * `jobs = 1` short-circuits to the exact serial `map` loop on the
//!   calling thread, making "serial" a special case of the same code path
//!   rather than a second implementation that could drift.
//!
//! The run's settings — the [`RunContext`] (media-fault model, far-tier
//! backend, store layout, worker count) — are **host-thread-local**, and
//! `par_map` is the one place that carries them across threads: every
//! item run on a worker runs under the caller's context with `jobs: 1`,
//! so nested grids stay serial and a new setting reaches every worker
//! without touching a call site. The serial path runs on the caller's
//! thread and so needs no copy.
//!
//! The cross-layer sanitizer (`kindle_types::sanitize`) is host-thread-local
//! too, but a checker must not be shared: [`par_map_cells`] gives every
//! cell its own fresh `InvariantChecker` when the caller has one
//! installed, on whichever thread the cell runs — the serial and parallel
//! paths install identical per-cell checkers, so violations are caught
//! (and reported identically) at any job count.
//!
//! Worker-count resolution: `--jobs N` (bench harness) beats the
//! `KINDLE_JOBS` environment variable, which beats
//! `std::thread::available_parallelism`.
//!
//! [`Machine`]: kindle_sim::Machine

use std::sync::{Mutex, PoisonError};

use kindle_sim::RunContext;
use kindle_types::sanitize::{self, InvariantChecker};
use kindle_types::{KindleError, Result};

/// Resolves the default worker count: `KINDLE_JOBS` if set to a positive
/// integer, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("KINDLE_JOBS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!(
                "KINDLE_JOBS={v:?} is not a positive integer; using available parallelism"
            ),
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, returning
/// the results **in input order**. With `jobs <= 1` (or fewer than two
/// items) this is exactly the serial `map` loop on the calling thread.
/// Each worker runs its items under the caller's [`RunContext`] with
/// `jobs: 1`.
///
/// Workers pull items from a shared queue (so uneven cells load-balance)
/// and write each result into its input slot; ordering is positional, not
/// completion-based, which is what makes output independent of the worker
/// count and of scheduling.
///
/// # Panics
///
/// A panic in `f` propagates to the caller once all workers have joined
/// (the remaining workers finish their current items). Mutex poisoning is
/// deliberately ignored so the *original* panic payload is the one
/// re-raised.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let ctx = RunContext { jobs: 1, ..RunContext::current() };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let _ctx = ctx.install();
                    loop {
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((idx, item)) = next else { break };
                        let out = f(item);
                        slots.lock().unwrap_or_else(PoisonError::into_inner)[idx] = Some(out);
                    }
                })
            })
            .collect();
        // Join explicitly: an unjoined panicking scoped thread would be
        // re-raised by the scope with a generic payload, losing the
        // original message. Joining hands us the payload to re-raise.
        let mut panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("joined workers completed every item"))
        .collect()
}

/// [`par_map`] specialized for experiment-grid cells: if the caller has a
/// sanitizer installed (bench `--sanitize`), each fallible cell runs under
/// its own fresh [`InvariantChecker`] whose violations fail the cell. Uses
/// the [`RunContext`] worker count; results come back in input order, and
/// the first cell error (in input order) aborts the map.
///
/// # Errors
///
/// Propagates the cell's own error, or [`KindleError::Corrupted`] when a
/// cell's checker recorded violations.
pub fn par_map_cells<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R> + Sync,
{
    let sanitized = sanitize::installed();
    let run_cell = move |item: T| -> Result<R> {
        if !sanitized {
            return f(item);
        }
        let checker = InvariantChecker::new();
        let log = checker.log();
        let guard = sanitize::install(Box::new(checker));
        let out = f(item);
        drop(guard);
        let violations = log.take();
        if violations.is_empty() {
            out
        } else {
            eprintln!("sanitizer: {} violation(s) in a parallel cell", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            Err(KindleError::Corrupted("sanitizer recorded violations"))
        }
    };
    par_map(RunContext::current().jobs, items, run_cell).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, items.clone(), |x| x * x);
        let parallel = par_map(8, items, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map(8, Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let out = par_map(8, vec![()], move |()| std::thread::current().id() == caller);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn jobs_exceeding_items_is_fine() {
        let out = par_map(64, vec![1u64, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            par_map(4, (0..16u64).collect(), |x| {
                assert!(x != 11, "boom at item 11");
                x
            })
        });
        let err = res.expect_err("panic in a worker must reach the caller");
        let msg = err
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at item 11"), "original payload survives: {msg}");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn par_map_carries_the_run_context_to_workers() {
        let caller = RunContext {
            faults: Some(kindle_mem::MediaFaultConfig::with_seed(77)),
            backend: Some(kindle_mem::Backend::Cxl),
            jobs: 4,
        };
        let guard = caller.install();
        let seen = par_map(4, (0..8u64).collect(), |_| RunContext::current());
        let worker = RunContext { jobs: 1, ..caller };
        assert!(seen.iter().all(|&c| c == worker), "workers run serial under the caller's context");
        let seen = par_map(1, (0..8u64).collect(), |_| RunContext::current());
        assert!(seen.iter().all(|&c| c == caller), "the serial path sees the caller's context");
        assert_eq!(RunContext::current(), caller, "the map must not change the caller's context");
        let res = std::panic::catch_unwind(|| {
            par_map(4, (0..8u64).collect(), |x| assert!(x != 5, "boom at item 5"));
        });
        assert!(res.is_err());
        assert_eq!(RunContext::current(), caller, "a worker panic must not change it either");
        drop(guard);
        assert_eq!(RunContext::current(), RunContext::default());

        let guard = RunContext { jobs: 0, ..RunContext::default() }.install();
        assert_eq!(RunContext::current().jobs, 1, "install clamps jobs to >= 1");
        drop(guard);
    }

    #[test]
    fn par_map_cells_collects_and_fails_on_first_error() {
        let _jobs = RunContext { jobs: 4, ..RunContext::default() }.install();
        let ok: Result<Vec<u64>> = par_map_cells((0..10u64).collect(), Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
        let err: Result<Vec<u64>> = par_map_cells((0..10u64).collect(), |x| {
            if x == 3 {
                Err(KindleError::Corrupted("cell 3"))
            } else {
                Ok(x)
            }
        });
        assert!(err.is_err());
    }

    #[test]
    fn par_map_cells_installs_per_cell_checker_when_sanitized() {
        use kindle_types::sanitize::Event;
        let outer = InvariantChecker::new();
        let _guard = sanitize::install(Box::new(outer));
        let _jobs = RunContext { jobs: 4, ..RunContext::default() }.install();
        // Every cell (on whatever thread) must observe an installed checker.
        let installed = par_map_cells((0..8u64).collect(), |_| Ok(sanitize::installed())).unwrap();
        assert!(installed.iter().all(|&b| b), "{installed:?}");
        // A cell that violates an invariant fails the map.
        let err = par_map_cells(vec![0u64], |_| {
            sanitize::emit(|| Event::FrameAlloc { pool: "nvm", pfn: 1 });
            sanitize::emit(|| Event::FrameFree { pool: "nvm", pfn: 1 });
            sanitize::emit(|| Event::FrameFree { pool: "nvm", pfn: 1 });
            Ok(())
        });
        assert!(matches!(err, Err(KindleError::Corrupted(_))), "{err:?}");
    }
}
