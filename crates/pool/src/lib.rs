//! # imcf-pool — deterministic scoped fan-out
//!
//! The experiment grid (every bench binary) is embarrassingly parallel:
//! each cell is a pure function of its inputs. So are `imcf-lint`'s files
//! and, inside the library, the zones of a synthesized trace
//! (`imcf_traces`' `TraceGenerator::generate`, which `Dataset::build`
//! calls) and the months of an Energy Consumption Profile (`derive_ecp`,
//! which `derive_mr_ecp` calls). This crate provides the
//! fan-out with a **determinism contract**: the output of a parallel run is
//! bit-identical to the sequential run of the same work list, regardless of
//! worker count or scheduling order. Two rules make that true:
//!
//! 1. **Seeds are derived, never shared.** A task never consumes entropy
//!    from a stream another task also touches; callers derive each task's
//!    RNG seed from the run seed and the *task index* via [`derive_seed`]
//!    (`seed ⊕ splitmix64(index)`), so the seed depends only on *which*
//!    task it is, not on when it runs.
//! 2. **Results are collected by index, never by completion order.**
//!    [`map_indexed`] writes each result into its input's slot, so the
//!    returned vector (and any fold over it) is order-independent.
//!
//! The workers are `std::thread::scope` threads that claim one index at a
//! time, so a slow item never holds back the items after it. A panicking
//! item stops only its own thread; the others finish the list, and the
//! panic is re-raised on the caller's thread, as the sequential loop would
//! have raised it.
//!
//! Worker counts: the bench binaries and `imcf-lint` take theirs from
//! [`jobs_from_args`], `--jobs N` when given, otherwise the machine's
//! available cores. The two library fan-outs take [`available_jobs`],
//! whatever `--jobs` says, and stay inline for a trace of one zone or one
//! month; a bench grid whose cells build datasets can therefore run up to
//! jobs × cores threads. `jobs = 1` degenerates to an inline loop on the
//! caller thread — no threads are spawned at all.
//!
//! Telemetry, registered in the `imcf-telemetry` catalog: `pool.tasks`
//! (counter — work *items* submitted to [`map_indexed`], independent of
//! worker count), `pool.threaded_calls` (counter — calls that started
//! threads) and `pool.workers` (gauge — the threads of whichever threaded
//! call ran last, a library fan-out inside a grid cell included).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` on `jobs` workers, returning results **in input
/// order**. Each worker claims the next unclaimed index and writes its
/// result into that index's slot, so the output is bit-identical to
/// `items.into_iter().enumerate().map(f).collect()` for any pure `f`,
/// whatever the worker count.
///
/// `jobs <= 1` (or a single item) short-circuits to exactly that inline
/// loop — no threads.
pub fn map_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    // `pool.tasks` counts *work items* at submission, the same unit on
    // both paths — its value must not change meaning with worker count.
    imcf_telemetry::global().counter("pool.tasks").add(n as u64);
    if jobs == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let telemetry = imcf_telemetry::global();
    telemetry.counter("pool.threaded_calls").inc();
    telemetry.gauge("pool.workers").set(jobs as f64);
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(input) = inputs.get(index) else {
            return;
        };
        let item = input.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(item) = item {
            let value = f(index, item);
            *outputs[index]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(value);
        }
    };
    let panic = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs).map(|_| s.spawn(work)).collect();
        // Join every worker before re-raising, so the siblings of a
        // panicking item still finish the list.
        let mut first = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    outputs
        .into_iter()
        .enumerate()
        .map(
            |(i, slot)| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(value) => value,
                None => panic!("pool: task {i} produced no result"),
            },
        )
        .collect()
}

/// SplitMix64 finalizer: a bijective avalanche mix, so distinct task
/// indices always map to distinct derived seeds. The definition lives in
/// `imcf_telemetry::trace` (trace-id derivation shares it); this alias
/// keeps the pool's seed contract pinned to the same bits.
fn splitmix64(x: u64) -> u64 {
    imcf_telemetry::trace::splitmix64(x)
}

/// Derives the RNG seed for task `task_index` of a run seeded with `seed`:
/// `seed ⊕ splitmix64(task_index)`. The derivation depends only on the
/// task's index, never on scheduling, which is what keeps parallel runs
/// bit-identical to sequential ones.
pub fn derive_seed(seed: u64, task_index: u64) -> u64 {
    seed ^ splitmix64(task_index)
}

/// The machine's available core count (1 when undetectable).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses the value of a `--jobs` flag: a positive integer, or an error
/// naming what was found instead.
pub fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|n: &usize| *n > 0)
        .ok_or_else(|| match value {
            Some(v) => format!("--jobs expects a positive integer, found `{v}`"),
            None => String::from("--jobs expects a positive integer, found nothing"),
        })
}

/// Scans an argv-style iterator for `--jobs N` or `--jobs=N`: the worker
/// count it names, else [`available_jobs`] when the flag is absent. A
/// malformed value (`0`, not a number, or missing) is an error. Bench
/// binaries call this with `std::env::args()`.
pub fn jobs_from_args<I: IntoIterator<Item = String>>(args: I) -> Result<usize, String> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            return parse_jobs(args.next().as_deref());
        }
        if let Some(value) = arg.strip_prefix("--jobs=") {
            return parse_jobs(Some(value));
        }
    }
    Ok(available_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    #[test]
    fn map_empty_input() {
        let out: Vec<u64> = map_indexed(4, Vec::<u64>::new(), |_, x| x * 2);
        assert!(out.is_empty());
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_indexed(4, items.clone(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn jobs_one_is_inline_and_identical() {
        let items: Vec<u64> = (0..37).collect();
        let seq = map_indexed(1, items.clone(), |i, x| derive_seed(x, i as u64));
        let par = map_indexed(4, items, |i, x| derive_seed(x, i as u64));
        assert_eq!(seq, par);
    }

    #[test]
    fn more_tasks_than_workers() {
        let counter = AtomicUsize::new(0);
        let out = map_indexed(3, (0..1000u64).collect(), |_, x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 1000);
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = map_indexed(64, vec![10u64, 20], |i, x| x + i as u64);
        assert_eq!(out, vec![10, 21]);
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn panic_in_task_propagates() {
        map_indexed(4, (0..32u64).collect(), |_, x| {
            if x == 17 {
                panic!("task boom");
            }
            x
        });
    }

    #[test]
    fn siblings_still_run_after_a_task_panics() {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(2, (0..11u64).collect(), |i, _| {
                if i == 0 {
                    panic!("first dies");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(result.is_err(), "the task panic must surface");
        assert_eq!(ran.load(Ordering::SeqCst), 10);
    }

    /// Item 0 waits until the nine items after it have run. Workers that
    /// claim one index at a time finish them on the other worker; a worker
    /// that took a run of items along with item 0 would hold them back
    /// until the deadline.
    #[test]
    fn a_slow_item_does_not_hold_back_the_items_after_it() {
        let ran = AtomicUsize::new(0);
        let waited = map_indexed(2, (0..10u64).collect(), |i, _| {
            if i > 0 {
                ran.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while ran.load(Ordering::SeqCst) < 9 {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert!(
            waited[0],
            "item 0 hit its deadline with {} of 9 later items run",
            ran.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(42, i)), "collision at index {i}");
        }
        // Stability: the derivation is part of the determinism contract,
        // so lock the constant in.
        assert_eq!(derive_seed(0, 0), splitmix64(0));
        assert_eq!(derive_seed(7, 3) ^ 7, splitmix64(3));
    }

    #[test]
    fn jobs_flag_spellings() {
        let jobs = |argv: &[&str]| jobs_from_args(argv.iter().map(|a| a.to_string()));
        assert_eq!(jobs(&["bench", "--jobs", "5"]), Ok(5));
        assert_eq!(jobs(&["bench", "--jobs=6"]), Ok(6));
        assert_eq!(jobs(&["bench"]), Ok(available_jobs()));
        for (argv, found) in [
            (&["bench", "--jobs", "0"][..], "`0`"),
            (&["bench", "--jobs=0"], "`0`"),
            (&["bench", "--jobs", "two"], "`two`"),
            (&["bench", "--jobs"], "nothing"),
        ] {
            assert_eq!(
                jobs(argv),
                Err(format!("--jobs expects a positive integer, found {found}")),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn map_results_match_under_many_worker_counts() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| derive_seed(*x, i as u64))
            .collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = map_indexed(jobs, items.clone(), |i, x| derive_seed(x, i as u64));
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }
}
