//! The in-tree worker pool behind the multithreaded packed GEMM.
//!
//! The pool is deliberately small: a parallel region is a `Vec` of
//! independent jobs, one per worker, executed by `join_all`.  Workers are
//! **scoped** (spawned through `std::thread::scope`), so jobs
//! may borrow the caller's stack — packed panels, matrix views — with no
//! `'static` bounds, no job queue, and no idle threads between regions:
//! worker lifetime *is* the region.  That matters here because the simulated
//! machine already provides rank-level parallelism; a persistent pool would
//! pin threads that sit idle for most of a simulation.
//! Both entry points start their threads through one helper, which also
//! hands the caller's `obs::Recorder` to each worker, so a traced region
//! lands in the trace of whoever asked for it.
//!
//! The worker count comes from [`dense_threads`]: the `DENSE_THREADS`
//! environment variable when set (clamped to `1..=MAX_THREADS`), otherwise
//! the machine's available parallelism.  With one worker, `join_all` runs
//! the single job inline on the caller's thread — a deterministic fallback
//! with no thread machinery at all.  Kernels built on the pool (the packed
//! GEMM's column partitioning) produce bitwise-identical results for every
//! worker count; `DENSE_THREADS` is a throughput knob, not a semantics knob.

use std::cell::Cell;
use std::sync::OnceLock;

/// Upper bound on the worker count accepted from `DENSE_THREADS`.
pub const MAX_THREADS: usize = 64;

thread_local! {
    /// Per-thread worker-budget override installed by [`with_thread_budget`].
    static THREAD_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with a thread-local worker budget in effect: implicit
/// (`threads = None`) GEMM calls issued from *this thread* inside `f` may
/// use up to `budget` workers in place of the global
/// [`crate::gemm::PAR_MIN_MADDS`]-gated [`dense_threads`] resolution.
///
/// This is how the simulated machine gives each rank its share of the pool:
/// a rank computing alongside `w − 1` other ranks should split block
/// products over `workers ⁄ ranks` threads, not claim the whole pool (nor be
/// locked out of it by the gate sized for standalone callers).  The budget
/// is a throughput knob only — kernel results are bitwise identical at every
/// worker count — and it does not propagate into spawned workers, so nested
/// parallel regions are unaffected.  The previous budget (usually none) is
/// restored when `f` returns.
pub fn with_thread_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let previous = THREAD_BUDGET.replace(Some(budget.clamp(1, MAX_THREADS)));
    let result = f();
    THREAD_BUDGET.set(previous);
    result
}

/// Replaces the calling thread's worker-budget override with `budget` and
/// returns the one it replaces, unclamped.
///
/// This is for a scheduler that runs several tasks on one thread — the
/// simulated machine's rank workers — and must give each task back the
/// budget it had when it was switched out.  Everyone else wants
/// [`with_thread_budget`], which restores the previous budget itself.
pub fn replace_thread_budget(budget: Option<usize>) -> Option<usize> {
    THREAD_BUDGET.replace(budget)
}

/// The calling thread's worker-budget override, if one is in effect.
pub fn thread_budget() -> Option<usize> {
    THREAD_BUDGET.get()
}

/// Number of workers parallel dense kernels use.
///
/// Resolution order, cached for the lifetime of the process:
/// 1. `DENSE_THREADS` if set to a positive integer (clamped to
///    [`MAX_THREADS`]); an unparsable value falls back to `1` so a typo
///    degrades to the deterministic sequential path rather than surprising
///    oversubscription;
/// 2. otherwise [`std::thread::available_parallelism`].
pub fn dense_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("DENSE_THREADS") {
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1)
            .min(MAX_THREADS),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS),
    })
}

/// Runs `f(0), f(1), …, f(workers - 1)` concurrently, one scoped worker per
/// index, and returns when all have finished.
///
/// This is the long-lived-region counterpart of `join_all`: instead of one
/// short job per worker, every worker runs the *same* closure for the whole
/// region and coordinates through whatever synchronization the closure
/// captures (the `sparse` crate's level-scheduled solver drives one
/// [`std::sync::Barrier`] wait per dependency level this way, amortizing the
/// spawn cost over the entire solve).  Worker 0 runs on the calling thread;
/// with `workers <= 1` the closure runs inline with no thread machinery.
///
/// A panicking worker propagates to the caller after the region is joined —
/// but a closure that blocks on a barrier whose other participants died will
/// deadlock first, so closures must not panic between barrier waits unless
/// every worker panics together.
pub fn run_region<F>(workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        f(0);
        return;
    }
    let f = &f;
    scoped((1..workers).map(|w| move || f(w)), || f(0));
}

/// Runs every job to completion, one worker per job, and returns when all
/// have finished.
///
/// Job 0 runs on the calling thread (the caller is always one of the
/// workers); the rest run on scoped workers.  A single job short-circuits to
/// a plain inline call.  A panicking job propagates to the caller after the
/// region is joined.
pub fn join_all<J>(jobs: Vec<J>)
where
    J: FnOnce() + Send,
{
    let mut jobs = jobs;
    if jobs.len() <= 1 {
        if let Some(job) = jobs.pop() {
            job();
        }
        return;
    }
    let first = jobs.remove(0);
    scoped(jobs.into_iter(), first);
}

/// The one place the pool starts threads: one scoped worker per job of
/// `spawned`, `inline` on the calling thread, all joined on return.
///
/// The caller's trace recorder, if it has one installed, is handed to
/// every worker, so a parallel region lands in the trace of whoever asked
/// for it; with none installed that is one thread-local load per region.
fn scoped<J>(spawned: impl Iterator<Item = J>, inline: impl FnOnce())
where
    J: FnOnce() + Send,
{
    let recorder = obs::current();
    std::thread::scope(|s| {
        for job in spawned {
            let recorder = recorder.clone();
            s.spawn(move || match recorder {
                Some(recorder) => recorder.record(job),
                None => job(),
            });
        }
        inline();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_all_runs_every_job() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let counter = &counter;
                move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                }
            })
            .collect();
        join_all(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), (0..8).sum());
    }

    #[test]
    fn join_all_single_job_runs_inline() {
        let caller = std::thread::current().id();
        let mut seen = None;
        join_all(vec![|| {
            seen = Some(std::thread::current().id());
        }]);
        assert_eq!(seen, Some(caller));
    }

    #[test]
    fn join_all_empty_is_a_noop() {
        join_all(Vec::<fn()>::new());
    }

    #[test]
    fn jobs_can_write_disjoint_borrowed_chunks() {
        let mut data = vec![0u64; 64];
        let jobs: Vec<_> = data
            .chunks_mut(16)
            .enumerate()
            .map(|(w, chunk)| {
                move || {
                    for v in chunk {
                        *v = w as u64 + 1;
                    }
                }
            })
            .collect();
        join_all(jobs);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 16) as u64 + 1);
        }
    }

    #[test]
    fn thread_budget_is_scoped_and_clamped() {
        assert_eq!(thread_budget(), None);
        let inner = with_thread_budget(3, || {
            assert_eq!(thread_budget(), Some(3));
            with_thread_budget(0, thread_budget)
        });
        assert_eq!(inner, Some(1), "budget of 0 clamps to 1");
        assert_eq!(thread_budget(), None, "budget restored after the scope");
        with_thread_budget(MAX_THREADS + 7, || {
            assert_eq!(thread_budget(), Some(MAX_THREADS));
        });
    }

    #[test]
    fn thread_budget_does_not_leak_into_workers() {
        with_thread_budget(4, || {
            run_region(2, |w| {
                if w != 0 {
                    assert_eq!(thread_budget(), None);
                }
            });
        });
    }

    #[test]
    fn dense_threads_is_at_least_one() {
        assert!(dense_threads() >= 1);
        assert!(dense_threads() <= MAX_THREADS);
    }

    #[test]
    fn run_region_visits_every_worker_index() {
        let seen = AtomicUsize::new(0);
        run_region(6, |w| {
            seen.fetch_add(1 << w, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 0b11_1111);
    }

    #[test]
    fn run_region_single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(None);
        run_region(1, |w| {
            assert_eq!(w, 0);
            *seen.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(*seen.lock().unwrap(), Some(caller));
    }

    #[test]
    fn run_region_workers_synchronize_through_a_barrier() {
        use std::sync::Barrier;
        let workers = 4;
        let barrier = Barrier::new(workers);
        let phase1 = AtomicUsize::new(0);
        let phase2 = AtomicUsize::new(0);
        run_region(workers, |_| {
            phase1.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            // Every worker must have finished phase 1 before any enters 2.
            assert_eq!(phase1.load(Ordering::SeqCst), workers);
            phase2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(phase2.load(Ordering::SeqCst), workers);
    }
}
