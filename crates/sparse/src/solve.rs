//! Sparse triangular solve executors.
//!
//! Every solve funnels through **one options-driven entry point** —
//! [`SparseTri::solve_with`] / [`SparseTri::solve_multi_with`] with a
//! [`SolveOpts`] — which picks between four execution strategies:
//!
//! * a worker budget of 1 (pinned, or implicit under [`PAR_MIN_WORK`]) runs
//!   the sequential baseline: rows in dependency order (ascending for
//!   lower, descending for upper), no analysis needed;
//! * a larger budget runs one of three parallel executors, chosen by
//!   [`SchedulePolicy`] (pinned through [`SolveOpts::policy`], or
//!   [`SchedulePolicy::auto`] from the level-shape statistics and the
//!   declared [`SolveOpts::reuse`]):
//!   - **`Level`** — the cached [`crate::Schedule`]'s levels run as
//!     barrier-separated sweeps on the [`dense::run_region`] worker pool,
//!     each level's rows split into one contiguous chunk per worker (one
//!     barrier per level);
//!   - **`Merged`** — the cached [`crate::MergedSchedule`]'s super-levels
//!     run the same chunked sweep with one barrier per *super-level*, and
//!     inside a super-level workers track readiness point-to-point: a
//!     per-row atomic flag set (release) when the row is eliminated, each
//!     worker spinning/yielding (acquire) only on the same-super-level
//!     rows its own rows consume — cutting barrier counts by orders of
//!     magnitude on deep narrow DAGs;
//!   - **`SyncFree`** — the analysis-free column sweep of
//!     [`crate::csc`] on the cached [`SparseTri::csc`] mirror: per-row
//!     atomic in-degree counters and per-worker partial-sum accumulators,
//!     **zero** levels and **zero** barriers, the right call for one-shot
//!     solves where neither analysis would ever pay for itself;
//! * [`dense::Transpose::Yes`] solves `Aᵀ·x = b` on the cached
//!   [`SparseTri::transposed`] matrix (and its cached schedules), so
//!   transposed applies — the `Lᵀ` half of an `ILU`/`IC` preconditioner —
//!   cost one O(nnz) transposition ever, not one per solve.
//!
//! [`SparseTri::solve_via_dense`] remains as the dense-fallback bridge:
//! densify and call [`dense::trsv_in_place`], for patterns so dense that
//! CSR indirection loses to the vectorized dense substitution.
//! [`SparseTri::solve`] / [`SparseTri::solve_multi`] are the allocating
//! default-options forms; `catrsm::SolveRequest` is the cross-backend front
//! end.
//!
//! Because a row's result depends only on rows in earlier levels — which
//! are complete before the row runs — and the per-row arithmetic is a
//! fixed-order sweep over the CSR entries, the sequential and **barriered**
//! parallel executors (`Level`, `Merged`) are **bitwise identical** at
//! every worker count; `DENSE_THREADS` is a throughput knob there exactly
//! as it is for the dense GEMM.  The **sync-free** executor is bitwise
//! reproducible only *per fixed worker count*: its per-row reductions
//! re-associate when the worker count changes, so it agrees with the other
//! executors to rounding (1e-12 in the test suites), not bitwise — see
//! [`crate::csc`] for the full caveat.  Every solve reports a [`FlopCount`]
//! under the same conventions as the dense kernels (multiply + subtract = 2
//! flops per stored off-diagonal entry, one division per explicit
//! diagonal), so simulated machines can charge sparse applies to the same
//! γ·F term.

use crate::csr::SparseTri;
use crate::error::SparseError;
use crate::schedule::SchedulePolicy;
use crate::Result;
use dense::{dense_threads, run_region, Diag, FlopCount, MatMut, Matrix, Transpose};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Options of one sparse triangular solve: whether the matrix is applied
/// transposed, the worker budget, and the scheduling policy.
///
/// This is the single execution vocabulary every sparse solve funnels
/// through ([`SparseTri::solve_with`] / [`SparseTri::solve_multi_with`]),
/// and `catrsm::SolveRequest` lowers to it for the sparse backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveOpts {
    /// Apply the matrix transposed (`Aᵀ·x = b`); runs on the cached
    /// [`SparseTri::transposed`] matrix and its cached schedules.
    pub transpose: Transpose,
    /// Worker budget: `None` applies the implicit [`PAR_MIN_WORK`] gate and
    /// the `DENSE_THREADS` pool size; `Some(t)` pins exactly `t` workers.
    /// Results are bitwise identical for every value under the barriered
    /// policies (and under [`SchedulePolicy::SyncFree`], reproducible per
    /// fixed value — see [`crate::csc`]).
    pub threads: Option<usize>,
    /// Scheduling policy of the parallel executor: `None` lets
    /// [`SchedulePolicy::auto`] choose from the level-shape statistics and
    /// the declared [`SolveOpts::reuse`]; `Some(p)` pins it.
    pub policy: Option<SchedulePolicy>,
    /// How many times this matrix will be applied (this solve included):
    /// the analyze-cost-vs-reuse signal [`SchedulePolicy::auto`] prices.
    /// `None` declares nothing and is treated as "apply many times" (the
    /// historical behavior); `Some(r)` below
    /// [`crate::schedule::ANALYZE_REUSE_MIN`] routes the solve to the
    /// analysis-free [`SchedulePolicy::SyncFree`] executor without ever
    /// touching the cached schedules.  Ignored when `policy` is pinned.
    pub reuse: Option<usize>,
}

impl SolveOpts {
    /// Default options: non-transposed, implicit worker gate, auto policy.
    pub fn new() -> SolveOpts {
        SolveOpts::default()
    }

    /// Apply the matrix transposed.
    pub fn transposed(mut self) -> SolveOpts {
        self.transpose = Transpose::Yes;
        self
    }

    /// Set the transpose flag explicitly.
    pub fn transpose(mut self, transpose: Transpose) -> SolveOpts {
        self.transpose = transpose;
        self
    }

    /// Pin the worker budget (bypassing the [`PAR_MIN_WORK`] gate).
    pub fn threads(mut self, threads: usize) -> SolveOpts {
        self.threads = Some(threads);
        self
    }

    /// Pin the scheduling policy (bypassing [`SchedulePolicy::auto`]).
    pub fn policy(mut self, policy: SchedulePolicy) -> SolveOpts {
        self.policy = Some(policy);
        self
    }

    /// Declare how many times this matrix will be applied (this solve
    /// included), letting [`SchedulePolicy::auto`] price the analysis cost
    /// against it: one-shot solves (`reuse(1)`) go sync-free, many-apply
    /// loops keep the analyzed schedules.
    pub fn reuse(mut self, reuse: usize) -> SolveOpts {
        self.reuse = Some(reuse);
        self
    }
}

/// The fully resolved shape of one sparse solve — the worker count, policy
/// and synchronization structure the executor will actually run, computed
/// by [`SparseTri::execution_shape`] from the same decision procedure the
/// executor uses.  This is what `catrsm`'s staged planner records on its
/// `Plan` and reports (measured) in its `LevelReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionShape {
    /// Workers the executor runs with (1 = the analysis-free sequential
    /// sweep).
    pub workers: usize,
    /// The scheduling policy in effect (meaningful when `workers > 1`;
    /// a sequential solve nominally reports [`SchedulePolicy::Level`]).
    pub policy: SchedulePolicy,
    /// Dependency levels of the schedule (0 when the solve stays
    /// sequential or runs sync-free and the pattern is never analyzed).
    pub levels: usize,
    /// Super-levels of the merged schedule (0 unless the merged policy
    /// runs).
    pub super_levels: usize,
    /// Barriers each worker waits on: `levels` under
    /// [`SchedulePolicy::Level`], `super_levels` under
    /// [`SchedulePolicy::Merged`], 0 sequentially and under
    /// [`SchedulePolicy::SyncFree`].
    pub barriers: usize,
    /// Rows in the widest level (the level executor's parallelism ceiling;
    /// 0 when sequential or sync-free).
    pub max_level_width: usize,
}

impl ExecutionShape {
    /// The shape of a sequential sweep (no analysis, no barriers).
    fn sequential() -> ExecutionShape {
        ExecutionShape {
            workers: 1,
            policy: SchedulePolicy::Level,
            levels: 0,
            super_levels: 0,
            barriers: 0,
            max_level_width: 0,
        }
    }
}

/// Below this many `nnz · k` units of work a solve never goes parallel on
/// its own: one region spawn costs tens of microseconds, which rivals the
/// arithmetic of a small solve.  A pinned [`SolveOpts::threads`] bypasses
/// the gate (results are bitwise identical either way).
pub const PAR_MIN_WORK: usize = 64 * 1024;

/// Shared mutable buffer pointer handed to solve workers (the solution
/// vector in the level sweeps, the solution and partial-sum slabs in the
/// sync-free sweep).
///
/// Plain `&mut [f64]` cannot be shared across workers; each executor's
/// disjoint-access invariant is what makes the sharing sound (see the
/// SAFETY comments at the use sites), so the pointer is wrapped and the
/// invariant documented there.
pub(crate) struct SharedPtr(pub(crate) *mut f64);

// SAFETY: every executor partitions the buffer so that concurrently
// accessed regions are disjoint per worker, with barriers or acquire/
// release counter handshakes providing the happens-before edges for
// cross-worker reads — documented at each use site.
unsafe impl Send for SharedPtr {}
unsafe impl Sync for SharedPtr {}

impl SharedPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper as a whole instead of edition-2021 field-precise
    /// capturing the raw pointer, which is not `Sync`.
    #[inline]
    pub(crate) fn get(&self) -> *mut f64 {
        self.0
    }
}

/// A sense-reversing spin/yield barrier for the level-sweep workers.
///
/// `std::sync::Barrier` takes a mutex and sleeps on a condvar at every
/// crossing — two futex syscalls plus a wake broadcast per worker per
/// level, which *is* the sparse hot path's synchronization overhead when a
/// schedule crosses hundreds (level policy: thousands) of barriers per
/// solve.  Here arrival is one `fetch_add`, release is one generation-
/// counter bump by the last arriver (no wake syscalls at all), and waiters
/// spin briefly then yield (same policy as [`wait_ready`], so
/// oversubscribed machines degrade to scheduler round-robin instead of
/// burning quanta).
///
/// Ordering: every arrival `fetch_add(AcqRel)`s the count, so the last
/// arriver has acquired all earlier workers' writes when it bumps the
/// generation with a release store; waiters acquire the bump — giving
/// every worker a happens-before edge over every other worker's
/// pre-barrier writes, exactly the guarantee the level sweeps need.
struct SpinBarrier {
    workers: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(workers: usize) -> SpinBarrier {
        SpinBarrier {
            workers,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            // Reset before the bump: workers can only re-arrive after they
            // observe the new generation, so the store cannot race their
            // next fetch_add.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if spins < 32 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Spins (briefly) then yields until `flag` reaches `epoch`, with an
/// acquire load so the waiter observes every write the setter published
/// before its release store.
///
/// The short spin phase covers the common case — the producing worker is
/// running on another core and finishes within nanoseconds; the yield
/// phase keeps oversubscribed machines (more workers than cores, e.g. the
/// 4-worker runs on this repo's 1-core bench container) from burning a
/// scheduling quantum busy-waiting for a worker that needs the CPU to make
/// the very progress being waited on.
#[inline]
pub(crate) fn wait_ready(flag: &AtomicU32, epoch: u32) {
    let mut spins = 0u32;
    while flag.load(Ordering::Acquire) != epoch {
        if spins < 32 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// [`wait_ready`] that counts loop iterations (spins + yields) for the
/// tracing layer.  Only called when tracing is enabled, so the plain
/// variant's disabled path stays untouched.
#[inline]
pub(crate) fn wait_ready_counted(flag: &AtomicU32, epoch: u32) -> u64 {
    let mut iters = 0u64;
    let mut spins = 0u32;
    while flag.load(Ordering::Acquire) != epoch {
        iters += 1;
        if spins < 32 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    iters
}

/// Per-(super-)level timeline spans are emitted (by worker 0) only when the
/// schedule has at most this many levels: a 10 000-level DAG would flood
/// the trace buffers with events nobody can render, while the per-worker
/// aggregate counters (`barrier_wait_ns`, `spin_iters`) stay cheap at any
/// depth.
pub(crate) const MAX_LEVEL_SPANS: usize = 1024;

thread_local! {
    /// Readiness flags reused across merged-policy solves on this thread,
    /// paired with the epoch of the most recent solve that used them (see
    /// [`with_done_flags`]).
    static DONE_FLAGS: std::cell::RefCell<(Vec<AtomicU32>, u32)> =
        const { std::cell::RefCell::new((Vec::new(), 0)) };
}

/// Runs `f` with an `n`-row readiness-flag buffer and the epoch value that
/// means "eliminated" for this solve.
///
/// The merged executor is on the plan-once/apply-many hot path, so the
/// buffer is cached thread-locally and never re-zeroed between solves:
/// each solve bumps the epoch, and a row counts as ready only when its
/// flag holds the *current* epoch — stale values from earlier solves
/// compare unequal.  The buffer is (re)zeroed only when it grows or the
/// `u32` epoch wraps.  Falls back to a fresh allocation in the
/// (unexpected) re-entrant case.
fn with_done_flags<R>(n: usize, f: impl FnOnce(&[AtomicU32], u32) -> R) -> R {
    DONE_FLAGS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut state) => {
            let (buf, epoch) = &mut *state;
            *epoch = epoch.wrapping_add(1);
            if buf.len() < n || *epoch == 0 {
                // Fresh zeroed flags with the epoch restarted at 1, so no
                // stale value can ever equal the current epoch.
                *buf = (0..n).map(|_| AtomicU32::new(0)).collect();
                *epoch = 1;
            }
            f(&buf[..n], *epoch)
        }
        Err(_) => {
            let buf: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            f(&buf, 1)
        }
    })
}

/// `[lo, hi)` bounds of worker `w`'s contiguous share of `len` items split
/// across `workers` (first `len % workers` workers take one extra item).
/// Depends only on `(len, workers, w)`, never on timing.
pub(crate) fn chunk_bounds(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = len / workers;
    let extra = len % workers;
    let lo = w * base + w.min(extra);
    (lo, lo + base + usize::from(w < extra))
}

impl SparseTri {
    /// Flops of one solve with `k` right-hand sides under the dense crate's
    /// conventions: each stored off-diagonal entry is a multiply + subtract,
    /// each explicit diagonal a division.
    pub fn solve_flops(&self, k: usize) -> FlopCount {
        let per_rhs = 2 * self.nnz_off_diagonal() as u64
            + if self.diag() == Diag::NonUnit {
                self.n() as u64
            } else {
                0
            };
        FlopCount::new(per_rhs * k as u64)
    }

    /// Eliminates row `i`: `x[i] ← (x[i] − Σ_j a_ij · x[j]) / d_i`, over `k`
    /// interleaved right-hand sides at row stride `stride`.
    ///
    /// Every executor funnels through this one kernel, and its entry order
    /// (CSR order, then the diagonal) is fixed — the root of the bitwise
    /// determinism guarantee.
    ///
    /// # Safety
    /// `x` must be valid for reads and writes of `n` rows of `k` elements at
    /// row stride `stride`; rows read here (`i`'s dependencies) must not be
    /// concurrently written, and row `i` must not be concurrently accessed.
    #[inline]
    unsafe fn eliminate_row(&self, x: *mut f64, stride: usize, k: usize, i: usize) {
        let (cols, vals) = self.row_entries(i);
        let xi = std::slice::from_raw_parts_mut(x.add(i * stride), k);
        for (&j, &v) in cols.iter().zip(vals) {
            let xj = std::slice::from_raw_parts(x.add(j * stride), k);
            for (xic, xjc) in xi.iter_mut().zip(xj) {
                *xic -= v * xjc;
            }
        }
        if self.diag() == Diag::NonUnit {
            let d = self.diag_value(i);
            for xic in xi.iter_mut() {
                *xic /= d;
            }
        }
    }

    /// Worker budget when [`SolveOpts::threads`] pins none:
    /// the `DENSE_THREADS` pool size when the solve clears [`PAR_MIN_WORK`],
    /// else 1.  The decision depends only on the matrix and `k`, never on
    /// timing, so which path runs is itself deterministic.
    fn implicit_threads(&self, k: usize) -> usize {
        if self.nnz().saturating_mul(k) >= PAR_MIN_WORK {
            dense_threads()
        } else {
            1
        }
    }

    /// Resolves a worker budget + policy pin into the executor that will
    /// actually run.  This is the one decision procedure shared by the
    /// executor ([`SparseTri::run_solve`]) and the planner
    /// ([`SparseTri::execution_shape`]), so a plan always describes exactly what executes.  Depends only on
    /// the (cached) analysis, `budget` and the pin — never on timing.
    ///
    /// A budget of 1 never touches the schedules, keeping sequential
    /// solves analysis-free — and so does any resolution to
    /// [`SchedulePolicy::SyncFree`] (pinned, or auto-chosen from a small
    /// declared `reuse`), which is decided *before* the analysis so
    /// one-shot solves never pay for the level sets they skipped.
    fn resolve_shape(
        &self,
        budget: usize,
        policy: Option<SchedulePolicy>,
        reuse: Option<usize>,
    ) -> ExecutionShape {
        if budget <= 1 {
            return ExecutionShape::sequential();
        }
        // Sync-free fast path: both arms match what `SchedulePolicy::auto`
        // would decide, but are checked before `self.schedule()` so the
        // analysis never runs.  (`auto` short-circuits on small reuse
        // before looking at the schedule, so the outcomes agree.)
        if policy == Some(SchedulePolicy::SyncFree)
            || (policy.is_none() && reuse.is_some_and(|r| r < crate::schedule::ANALYZE_REUSE_MIN))
        {
            return self.syncfree_shape(budget);
        }
        let sched = self.schedule();
        let policy = policy.unwrap_or_else(|| SchedulePolicy::auto(sched, budget, reuse));
        let workers = match policy {
            // Workers beyond the widest level would never receive a row.
            SchedulePolicy::Level => budget.min(sched.max_level_width()),
            // The merged executor's ceiling is the widest *super*-level.
            SchedulePolicy::Merged => budget.min(self.merged_schedule().max_super_width()),
            // Unreachable through `auto` (small reuse short-circuits
            // above), kept for totality.
            SchedulePolicy::SyncFree => return self.syncfree_shape(budget),
        };
        if workers <= 1 {
            // The width cap degraded the solve to the sequential sweep:
            // report the nominal sequential shape (policy `Level`, no
            // barriers), matching the `budget <= 1` path — what *runs* is
            // the same sweep either way.
            return ExecutionShape::sequential();
        }
        let (super_levels, barriers) = match policy {
            SchedulePolicy::Level => (0, sched.num_levels()),
            SchedulePolicy::Merged => {
                let s = self.merged_schedule().num_super_levels();
                (s, s)
            }
            SchedulePolicy::SyncFree => unreachable!("resolved above"),
        };
        ExecutionShape {
            workers,
            policy,
            levels: sched.num_levels(),
            super_levels,
            barriers,
            max_level_width: sched.max_level_width(),
        }
    }

    /// The shape of a sync-free solve: no levels, no barriers, no analysis
    /// — only a worker count (capped at `n`; more workers than columns
    /// would own empty chunks).
    fn syncfree_shape(&self, budget: usize) -> ExecutionShape {
        ExecutionShape {
            workers: budget.min(self.n().max(1)),
            policy: SchedulePolicy::SyncFree,
            levels: 0,
            super_levels: 0,
            barriers: 0,
            max_level_width: 0,
        }
    }

    /// Runs the solve over `x` (`n` rows × `k` columns at row stride
    /// `stride`, holding `B` on entry and `X` on exit) with the given
    /// worker budget and policy pin.
    fn run_solve(
        &self,
        x: *mut f64,
        stride: usize,
        k: usize,
        threads: usize,
        policy: Option<SchedulePolicy>,
        reuse: Option<usize>,
    ) -> FlopCount {
        let n = self.n();
        if n == 0 || k == 0 {
            return FlopCount::ZERO;
        }
        let shape = self.resolve_shape(threads, policy, reuse);
        if shape.workers <= 1 {
            // Sequential sweep in dependency order; no analysis required.
            match self.triangle() {
                dense::Triangle::Lower => {
                    for i in 0..n {
                        // SAFETY: single-threaded; dependencies of row `i`
                        // (columns `< i`) were eliminated earlier in this
                        // ascending sweep.
                        unsafe { self.eliminate_row(x, stride, k, i) };
                    }
                }
                dense::Triangle::Upper => {
                    for i in (0..n).rev() {
                        // SAFETY: single-threaded; dependencies of row `i`
                        // (columns `> i`) were eliminated earlier in this
                        // descending sweep.
                        unsafe { self.eliminate_row(x, stride, k, i) };
                    }
                }
            }
        } else {
            match shape.policy {
                SchedulePolicy::Level => self.run_level_parallel(x, stride, k, shape.workers),
                SchedulePolicy::Merged => self.run_merged_parallel(x, stride, k, shape.workers),
                SchedulePolicy::SyncFree => self.csc().run_syncfree(x, stride, k, shape.workers),
            }
        }
        self.solve_flops(k)
    }

    /// The classical level-scheduled executor: one barrier per dependency
    /// level, each level's rows split into one contiguous chunk per worker.
    fn run_level_parallel(&self, x: *mut f64, stride: usize, k: usize, workers: usize) {
        let sched = self.schedule();
        let shared = SharedPtr(x);
        let barrier = SpinBarrier::new(workers);
        let tracing = obs::enabled();
        let level_spans = tracing && sched.num_levels() <= MAX_LEVEL_SPANS;
        let _span = obs::span_with("sparse", "level_exec", "levels", sched.num_levels() as u64);
        run_region(workers, |w| {
            // Barrier-wait time accumulates locally and is emitted as one
            // counter per worker at region end, so the per-level loop
            // records nothing; worker 0 additionally emits a per-level
            // timeline span on shallow schedules.
            let mut wait_ns = 0u64;
            for l in 0..sched.num_levels() {
                let rows = sched.level_rows(l);
                let lspan = if level_spans && w == 0 {
                    Some(obs::span_with("sparse", "level", "rows", rows.len() as u64))
                } else {
                    None
                };
                let (lo, hi) = chunk_bounds(rows.len(), workers, w);
                for &i in &rows[lo..hi] {
                    // SAFETY: `chunk_bounds` hands each worker a
                    // disjoint slice of this level's rows, so row `i` is
                    // written by exactly this worker; every dependency
                    // of `i` lies in a level `< l` (the defining
                    // invariant of `Schedule`), whose writes
                    // happened-before this read via the barrier below
                    // (and, for level 0, via the region spawn).
                    unsafe { self.eliminate_row(shared.get(), stride, k, i) };
                }
                let t0 = if tracing { obs::now_ns() } else { 0 };
                barrier.wait();
                if tracing {
                    wait_ns += obs::now_ns().saturating_sub(t0);
                }
                drop(lspan);
            }
            if tracing {
                obs::counter(
                    "sparse",
                    "barrier_wait_ns",
                    "ns",
                    wait_ns,
                    "worker",
                    w as u64,
                );
            }
        });
    }

    /// The DAG-partitioned executor: one barrier per *super-level*, with
    /// point-to-point readiness inside each.
    ///
    /// Each super-level's rows (a contiguous range of the merged
    /// schedule's [`crate::MergedSchedule::rows`] sweep order, which reorders
    /// rows *within* the super-level by level then descending fan-out) are
    /// split into one contiguous chunk per worker.  A worker sweeps its
    /// chunk in flat order; before eliminating a row it spins/yields on
    /// the readiness flags of the row's dependencies that live in the
    /// *same* super-level (dependencies in earlier super-levels are
    /// complete — the inter-super-level barrier guarantees it), and
    /// publishes its own flag with release ordering afterwards.
    ///
    /// Deadlock-freedom: every dependency sits at a strictly earlier flat
    /// position (it is in a strictly earlier level, and level remains the
    /// sweep order's primary sort key within a super-level), each worker's
    /// chunk is processed in ascending flat order, and a worker at flat
    /// position `p` only ever waits on positions `< p` — so along any wait
    /// chain the positions strictly decrease, and the earliest unfinished
    /// row is always runnable.
    ///
    /// Bitwise determinism: the row → worker assignment and the per-row
    /// arithmetic order are both timing-independent; the flags only ever
    /// delay a worker, never reorder arithmetic.
    fn run_merged_parallel(&self, x: *mut f64, stride: usize, k: usize, workers: usize) {
        let merged = self.merged_schedule();
        let rows = merged.rows();
        let shared = SharedPtr(x);
        let barrier = SpinBarrier::new(workers);
        // One readiness flag per row, `== epoch` meaning eliminated; the
        // buffer is thread-locally cached and epoch-versioned so the
        // apply-many hot path allocates and zeroes nothing per solve.
        // Rows of earlier super-levels never have their flags consulted,
        // so no per-super-level reset is needed either.
        let tracing = obs::enabled();
        let super_spans = tracing && merged.num_super_levels() <= MAX_LEVEL_SPANS;
        let _span = obs::span_with(
            "sparse",
            "merged_exec",
            "super_levels",
            merged.num_super_levels() as u64,
        );
        with_done_flags(self.n(), |done, epoch| {
            run_region(workers, |w| {
                // Same counter convention as the level executor, plus the
                // point-to-point spin count; worker 0 also emits one
                // `super_rows` counter per super-level (its row count,
                // surfaced into `TraceReport::super_level_rows`).
                let mut wait_ns = 0u64;
                let mut spins = 0u64;
                for s in 0..merged.num_super_levels() {
                    let srange = merged.super_range(s);
                    let srows = &rows[srange];
                    let sspan = if super_spans && w == 0 {
                        obs::counter(
                            "sparse",
                            "super_rows",
                            "rows",
                            srows.len() as u64,
                            "super",
                            s as u64,
                        );
                        Some(obs::span_with(
                            "sparse",
                            "super_level",
                            "rows",
                            srows.len() as u64,
                        ))
                    } else {
                        None
                    };
                    let (lo, hi) = chunk_bounds(srows.len(), workers, w);
                    for &i in &srows[lo..hi] {
                        let (cols, _) = self.row_entries(i);
                        for &j in cols {
                            if merged.super_of(j) == s as u32 {
                                if tracing {
                                    spins += wait_ready_counted(&done[j], epoch);
                                } else {
                                    wait_ready(&done[j], epoch);
                                }
                            }
                        }
                        // SAFETY: row `i` is written by exactly this worker
                        // (disjoint chunks of disjoint super-levels); each
                        // dependency `j` was either finalized in an earlier
                        // super-level (happens-before via the barrier below)
                        // or in this one (happens-before via the acquire
                        // load in `wait_ready` pairing with the release
                        // store).
                        unsafe { self.eliminate_row(shared.get(), stride, k, i) };
                        done[i].store(epoch, Ordering::Release);
                    }
                    let t0 = if tracing { obs::now_ns() } else { 0 };
                    barrier.wait();
                    if tracing {
                        wait_ns += obs::now_ns().saturating_sub(t0);
                    }
                    drop(sspan);
                }
                if tracing {
                    obs::counter(
                        "sparse",
                        "barrier_wait_ns",
                        "ns",
                        wait_ns,
                        "worker",
                        w as u64,
                    );
                    obs::counter("sparse", "spin_iters", "iters", spins, "worker", w as u64);
                }
            });
        });
    }

    /// The matrix the executor actually sweeps: `self` for a plain solve,
    /// the cached [`SparseTri::transposed`] for a transposed one.
    #[inline]
    pub fn executor(&self, transpose: Transpose) -> &SparseTri {
        match transpose {
            Transpose::No => self,
            Transpose::Yes => self.transposed(),
        }
    }

    /// The fully resolved execution shape — workers, policy, levels,
    /// super-levels, barriers — a solve with these options and `k`
    /// right-hand sides will run with: the same decision
    /// [`SparseTri::solve_with`] makes, so plans can be inspected before
    /// execution and reports always match what ran.  Depends only on the
    /// matrix, `k` and the options, never on timing.
    ///
    /// A budget of 1 (implicit or pinned) never touches the schedules, so
    /// sequential solves still run analysis-free.
    pub fn execution_shape(&self, opts: &SolveOpts, k: usize) -> ExecutionShape {
        let exec = self.executor(opts.transpose);
        let budget = opts.threads.unwrap_or_else(|| exec.implicit_threads(k));
        exec.resolve_shape(budget, opts.policy, opts.reuse)
    }

    /// Solves `op(A)·x = b` in place for one right-hand side: `x` holds `b`
    /// on entry and the solution on exit.  Returns the flop count.  This is
    /// [`SparseTri::solve_multi_with`] on the slice's `n×1` view.
    pub fn solve_with(&self, opts: &SolveOpts, x: &mut [f64]) -> Result<FlopCount> {
        self.solve_multi_with(opts, x)
    }

    /// Solves `op(A)·X = B` in place under the given [`SolveOpts`]: `x` —
    /// a `&mut Matrix`, a `&mut [f64]` (its `n×1` view) or any [`MatMut`]
    /// block — holds `B` on entry and `X` on exit.  Level-parallel across
    /// rows and vectorized across the `k` columns; returns the flop count.
    ///
    /// This is the single entry point every sparse solve funnels through:
    /// a pinned budget of 1 is the sequential baseline, and
    /// [`Transpose::Yes`] the transposed solve on the cached transpose.
    pub fn solve_multi_with<'x>(
        &self,
        opts: &SolveOpts,
        x: impl Into<MatMut<'x>>,
    ) -> Result<FlopCount> {
        let mut x = x.into();
        if x.rows() != self.n() {
            return Err(SparseError::DimensionMismatch {
                op: "sparse solve",
                n: self.n(),
                rhs: x.dims(),
            });
        }
        let k = x.cols();
        let exec = self.executor(opts.transpose);
        let threads = opts.threads.unwrap_or_else(|| exec.implicit_threads(k));
        Ok(exec.run_solve(
            x.as_mut_ptr(),
            x.stride(),
            k,
            threads,
            opts.policy,
            opts.reuse,
        ))
    }

    /// Solves `A · x = b` for one right-hand side under the default options
    /// (level-parallel on the `DENSE_THREADS` worker pool once the solve
    /// reaches [`PAR_MIN_WORK`] `nnz · k` units); returns the solution
    /// vector.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_with(&SolveOpts::new(), &mut x)?;
        Ok(x)
    }

    /// Solves `A · X = B` for a block of right-hand sides (`B` is `n × k`)
    /// under the default options; returns the solution block.
    pub fn solve_multi(&self, b: &Matrix) -> Result<Matrix> {
        let mut x = b.clone();
        self.solve_multi_with(&SolveOpts::new(), &mut x)?;
        Ok(x)
    }

    /// Dense-fallback solve: densify ([`SparseTri::to_dense`]) and run the
    /// no-allocation dense substitution [`dense::trsv_in_place`].
    ///
    /// For patterns with most entries present the CSR indirection buys
    /// nothing over the dense row sweep; this bridge is also what the
    /// differential tests solve against.  Note the dense kernel accumulates
    /// over *all* columns (zeros included), so results agree with the sparse
    /// executors numerically, not bitwise.
    pub fn solve_via_dense(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        let a = self.to_dense();
        dense::trsv_in_place(self.triangle(), self.diag(), &a, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::Triangle;

    /// Deterministic lower-triangular test matrix with ~`fill` off-diagonal
    /// entries per row and a dominant diagonal.
    fn test_lower(n: usize, fill: usize) -> SparseTri {
        let mut ents = Vec::new();
        for i in 0..n {
            ents.push((i, i, 2.0 + (i % 3) as f64));
            for f in 0..fill.min(i) {
                let j = (i * 7 + f * 13) % i;
                ents.push((i, j, ((i + j * 3) % 5) as f64 * 0.1 + 0.05));
            }
        }
        ents.sort_by_key(|&(i, j, _)| (i, j));
        ents.dedup_by_key(|&mut (i, j, _)| (i, j));
        SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents).unwrap()
    }

    /// `A·x = b` with the worker budget pinned.
    fn solve_pinned(m: &SparseTri, b: &[f64], threads: usize) -> Vec<f64> {
        let mut x = b.to_vec();
        m.solve_with(&SolveOpts::new().threads(threads), &mut x)
            .unwrap();
        x
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let m = SparseTri::from_triplets(
            4,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)],
        )
        .unwrap();
        let b = vec![1.0, -2.0, 3.0, -4.0];
        assert_eq!(m.solve(&b).unwrap(), b);
        assert_eq!(solve_pinned(&m, &b, 1), b);
    }

    #[test]
    fn known_small_system() {
        // [2 . .] [x0]   [2]          x0 = 1
        // [1 3 .] [x1] = [4]    =>    x1 = 1
        // [. 4 5] [x2]   [9]          x2 = 1
        let m = SparseTri::from_triplets(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 1, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap();
        let x = m.solve(&[2.0, 4.0, 9.0]).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn residual_is_small_and_flops_reported() {
        let n = 300;
        let m = test_lower(n, 6);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        // b = A · x_true via the densified matrix.
        let a = m.to_dense();
        let xt = Matrix::from_vec(n, 1, x_true.clone()).unwrap();
        let b = dense::matmul(&a, &xt).into_vec();
        let mut x = b.clone();
        let f = m.solve_with(&SolveOpts::new(), &mut x).unwrap();
        assert_eq!(f, m.solve_flops(1));
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn all_executors_agree_bitwise_lower_and_upper() {
        let n = 500;
        let lower = test_lower(n, 8);
        let upper = lower.transpose();
        for m in [&lower, &upper] {
            let b: Vec<f64> = (0..n).map(|i| ((i * 29 + 3) % 17) as f64 - 8.0).collect();
            let seq = solve_pinned(m, &b, 1);
            for threads in [2usize, 3, 4, 7] {
                let x = solve_pinned(m, &b, threads);
                assert_eq!(x, seq, "threads={threads} changed the result bits");
            }
        }
    }

    #[test]
    fn multi_rhs_agrees_bitwise_and_with_column_solves() {
        let n = 400;
        let k = 5;
        let m = test_lower(n, 7);
        let b = Matrix::from_fn(n, k, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
        let mut seq = b.clone();
        m.solve_multi_with(&SolveOpts::new().threads(1), &mut seq)
            .unwrap();
        for threads in [2usize, 4] {
            let mut x = b.clone();
            m.solve_multi_with(&SolveOpts::new().threads(threads), &mut x)
                .unwrap();
            assert!(x == seq, "threads={threads} changed multi-RHS bits");
        }
        // Column c of the block solve equals the single-RHS solve of column c.
        for c in 0..k {
            let bc = b.col(c);
            let xc = m.solve(&bc).unwrap();
            for i in 0..n {
                assert_eq!(seq[(i, c)], xc[i], "column {c} row {i}");
            }
        }
    }

    #[test]
    fn solve_via_dense_matches_sparse_numerically() {
        let n = 200;
        let m = test_lower(n, 5);
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 * 0.25 - 1.0).collect();
        let xs = m.solve(&b).unwrap();
        let xd = m.solve_via_dense(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_diag_solve_ignores_divisions() {
        let m =
            SparseTri::from_triplets(3, Triangle::Lower, Diag::Unit, &[(1, 0, 2.0), (2, 1, 3.0)])
                .unwrap();
        let x = m.solve(&[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(x, vec![1.0, -2.0, 6.0]);
        assert_eq!(m.solve_flops(1), FlopCount::new(4));
    }

    #[test]
    fn analysis_runs_once_across_repeated_solves() {
        let n = 600;
        let m = test_lower(n, 8);
        assert_eq!(m.analysis_count(), 0);
        let b = vec![1.0; n];
        // Two parallel solves + a multi-RHS solve: one analysis, total.
        let x1 = solve_pinned(&m, &b, 4);
        assert_eq!(m.analysis_count(), 1, "first parallel solve analyzes");
        let x2 = solve_pinned(&m, &b, 4);
        let mut bm = Matrix::from_fn(n, 3, |i, j| (i + j) as f64);
        m.solve_multi_with(&SolveOpts::new().threads(4), &mut bm)
            .unwrap();
        assert_eq!(x1, x2);
        assert_eq!(
            m.analysis_count(),
            1,
            "pattern analysis must be cached across solves"
        );
    }

    #[test]
    fn sequential_baseline_never_analyzes() {
        let m = test_lower(200, 4);
        let b = vec![1.0; 200];
        let _ = solve_pinned(&m, &b, 1);
        assert_eq!(m.analysis_count(), 0);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let m = test_lower(5, 2);
        assert!(matches!(
            m.solve(&[1.0; 4]),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut wrong = Matrix::zeros(4, 2);
        assert!(m.solve_multi_with(&SolveOpts::new(), &mut wrong).is_err());
    }

    #[test]
    fn empty_and_zero_rhs_edges() {
        let m = SparseTri::from_triplets(0, Triangle::Lower, Diag::NonUnit, &[]).unwrap();
        assert_eq!(m.solve(&[]).unwrap(), Vec::<f64>::new());
        let m2 = test_lower(3, 1);
        let mut empty = Matrix::zeros(3, 0);
        assert_eq!(
            m2.solve_multi_with(&SolveOpts::new(), &mut empty).unwrap(),
            FlopCount::ZERO
        );
    }

    #[test]
    fn transposed_solve_matches_dense_transposed_solve() {
        let n = 300;
        let m = test_lower(n, 6);
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 13 + 5) % 19) as f64 * 0.5 - 4.0)
            .collect();
        // Sparse Lᵀ·x = b through the cached transpose…
        let mut xs = b.clone();
        m.solve_with(&SolveOpts::new().transposed(), &mut xs)
            .unwrap();
        // …vs the dense transposed kernel on the densified matrix.
        let a = m.to_dense();
        let mut xd = b.clone();
        dense::trsv_in_place_opts(
            &dense::SolveOpts::new(m.triangle())
                .diag(m.diag())
                .transposed(),
            &a,
            &mut xd,
        )
        .unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10, "sparse vs dense transposed solve");
        }
        // And bitwise equal to solving the materialized transpose directly.
        let xt = m.transpose().solve(&b).unwrap();
        assert_eq!(xs, xt);
    }

    #[test]
    fn transposed_solve_is_bitwise_deterministic_across_workers() {
        let n = 500;
        let m = test_lower(n, 8);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 23) as f64 - 11.0).collect();
        let mut seq = b.clone();
        m.solve_with(&SolveOpts::new().transposed().threads(1), &mut seq)
            .unwrap();
        for threads in [2usize, 4, 7] {
            let mut x = b.clone();
            m.solve_with(&SolveOpts::new().transposed().threads(threads), &mut x)
                .unwrap();
            assert_eq!(x, seq, "transposed solve changed bits at {threads} workers");
        }
        // Multi-RHS transposed agrees with per-column transposed solves.
        let k = 4;
        let bm = Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 17) % 29) as f64 - 14.0);
        let mut xm = bm.clone();
        m.solve_multi_with(&SolveOpts::new().transposed().threads(3), &mut xm)
            .unwrap();
        for c in 0..k {
            let mut xc = bm.col(c);
            m.solve_with(&SolveOpts::new().transposed().threads(1), &mut xc)
                .unwrap();
            for i in 0..n {
                assert_eq!(xm[(i, c)], xc[i], "column {c} row {i}");
            }
        }
    }

    #[test]
    fn transpose_cache_reused_across_transposed_solves() {
        let n = 400;
        let m = test_lower(n, 5);
        let b = vec![1.0; n];
        let mut x1 = b.clone();
        m.solve_with(&SolveOpts::new().transposed().threads(4), &mut x1)
            .unwrap();
        let t = m.transposed() as *const SparseTri;
        let mut x2 = b.clone();
        m.solve_with(&SolveOpts::new().transposed().threads(4), &mut x2)
            .unwrap();
        assert_eq!(t, m.transposed() as *const SparseTri);
        assert_eq!(
            m.transposed().analysis_count(),
            1,
            "the transpose's schedule must be analyzed once"
        );
        assert_eq!(x1, x2);
    }

    #[test]
    fn execution_shape_workers_are_deterministic_and_honest() {
        let m = test_lower(600, 8);
        // Pinned budgets resolve to min(budget, widest level).
        let wide = m.schedule().max_level_width();
        assert_eq!(
            m.execution_shape(&SolveOpts::new().threads(1), 1).workers,
            1
        );
        assert_eq!(
            m.execution_shape(&SolveOpts::new().threads(4), 1).workers,
            4usize.min(wide)
        );
        // The sequential budget never analyzes: a fresh matrix stays clean.
        let fresh = test_lower(100, 2);
        assert_eq!(
            fresh
                .execution_shape(&SolveOpts::new().threads(1), 1)
                .workers,
            1
        );
        assert_eq!(fresh.analysis_count(), 0);
    }

    #[test]
    fn merged_policy_is_bitwise_identical_to_level_and_sequential() {
        // Deep narrow DAG (the merged schedule's home turf), a wide random
        // pattern, and their transposes: every policy × worker count must
        // agree with the sequential sweep bit for bit.
        for m in [
            crate::gen::deep_narrow_lower(8000, 4, 3, 11),
            test_lower(2000, 8),
        ] {
            let t = m.transpose();
            for mat in [&m, &t] {
                let n = mat.n();
                let b: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 29) as f64 - 14.0).collect();
                let mut seq = b.clone();
                mat.solve_with(&SolveOpts::new().threads(1), &mut seq)
                    .unwrap();
                for threads in [2usize, 3, 4, 7] {
                    for policy in [SchedulePolicy::Level, SchedulePolicy::Merged] {
                        let mut x = b.clone();
                        mat.solve_with(&SolveOpts::new().threads(threads).policy(policy), &mut x)
                            .unwrap();
                        assert_eq!(
                            x, seq,
                            "{policy:?} at {threads} workers changed the result bits"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn merged_multi_rhs_is_bitwise_identical_too() {
        let m = crate::gen::deep_narrow_lower(4000, 4, 3, 13);
        let k = 5;
        let b = Matrix::from_fn(m.n(), k, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
        let mut seq = b.clone();
        m.solve_multi_with(&SolveOpts::new().threads(1), &mut seq)
            .unwrap();
        for threads in [2usize, 4] {
            let mut x = b.clone();
            m.solve_multi_with(
                &SolveOpts::new()
                    .threads(threads)
                    .policy(SchedulePolicy::Merged),
                &mut x,
            )
            .unwrap();
            assert!(x == seq, "merged multi-RHS diverged at {threads} workers");
        }
    }

    #[test]
    fn execution_shape_reports_the_barrier_compression() {
        let m = crate::gen::deep_narrow_lower(8000, 4, 3, 17);
        let level = m.execution_shape(
            &SolveOpts::new().threads(4).policy(SchedulePolicy::Level),
            1,
        );
        assert_eq!(level.workers, 4);
        assert_eq!(level.policy, SchedulePolicy::Level);
        assert_eq!(level.levels, 2000);
        assert_eq!(level.barriers, 2000, "one barrier per level");
        assert_eq!(level.super_levels, 0);
        let merged = m.execution_shape(
            &SolveOpts::new().threads(4).policy(SchedulePolicy::Merged),
            1,
        );
        assert_eq!(merged.workers, 4);
        assert_eq!(merged.policy, SchedulePolicy::Merged);
        assert_eq!(merged.levels, 2000);
        assert_eq!(merged.barriers, merged.super_levels);
        assert!(
            merged.barriers * 10 <= level.barriers,
            "merged must cut barriers >=10x on a deep DAG: {} vs {}",
            merged.barriers,
            level.barriers
        );
        // Auto on this shape resolves to Merged.
        let auto = m.execution_shape(&SolveOpts::new().threads(4), 1);
        assert_eq!(auto.policy, SchedulePolicy::Merged);
        assert_eq!(auto.barriers, merged.barriers);
    }

    #[test]
    fn level_policy_on_a_chain_degrades_to_sequential_but_merged_can_parallelize() {
        // An unbroken band chains every row: the level executor's width cap
        // forces it sequential, while a pinned merged policy still runs its
        // (overhead-only, but correct) point-to-point sweep.
        let m = crate::gen::banded_lower(20_000, 4, 19);
        let level = m.execution_shape(
            &SolveOpts::new().threads(4).policy(SchedulePolicy::Level),
            1,
        );
        assert_eq!(level.workers, 1);
        assert_eq!(level.barriers, 0);
        let merged = m.execution_shape(
            &SolveOpts::new().threads(4).policy(SchedulePolicy::Merged),
            1,
        );
        assert!(merged.workers > 1);
        assert!(merged.barriers * 10 <= m.schedule().num_levels());
        // Auto keeps implicit users off the pointless parallel chain sweep.
        let auto = m.execution_shape(&SolveOpts::new().threads(4), 1);
        assert_eq!(auto.workers, 1);
        // And the merged execution still matches the sequential bits.
        let b: Vec<f64> = (0..m.n())
            .map(|i| ((i * 3 + 1) % 23) as f64 - 11.0)
            .collect();
        let mut seq = b.clone();
        m.solve_with(&SolveOpts::new().threads(1), &mut seq)
            .unwrap();
        let mut x = b.clone();
        m.solve_with(
            &SolveOpts::new().threads(4).policy(SchedulePolicy::Merged),
            &mut x,
        )
        .unwrap();
        assert_eq!(x, seq);
    }

    #[test]
    fn merged_analysis_is_cached_across_solves() {
        let m = crate::gen::deep_narrow_lower(4000, 4, 3, 23);
        assert_eq!(m.merged_analysis_count(), 0);
        let b = vec![1.0; m.n()];
        let opts = SolveOpts::new().threads(4).policy(SchedulePolicy::Merged);
        let mut x1 = b.clone();
        m.solve_with(&opts, &mut x1).unwrap();
        assert_eq!(m.merged_analysis_count(), 1);
        let mut x2 = b.clone();
        m.solve_with(&opts, &mut x2).unwrap();
        assert_eq!(m.analysis_count(), 1, "level analysis runs once");
        assert_eq!(m.merged_analysis_count(), 1, "merge analysis runs once");
        assert_eq!(x1, x2);
        // A level-policy solve never builds the merged analysis.
        let fresh = crate::gen::deep_narrow_lower(4000, 4, 3, 29);
        let mut x = vec![1.0; fresh.n()];
        fresh
            .solve_with(
                &SolveOpts::new().threads(4).policy(SchedulePolicy::Level),
                &mut x,
            )
            .unwrap();
        assert_eq!(fresh.merged_analysis_count(), 0);
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn syncfree_policy_matches_sequential_to_tolerance() {
        // The one-shot workloads from the acceptance criteria: a wide
        // random pattern and a deep narrow DAG, both solved sync-free
        // through the CSR entry points against the sequential sweep.
        for (m, seed) in [
            (crate::gen::random_lower(3000, 8, 47), 48u64),
            (crate::gen::deep_narrow_lower(6000, 4, 3, 49), 50u64),
        ] {
            let b = crate::gen::rhs_vec(m.n(), seed);
            let mut seq = b.clone();
            m.solve_with(&SolveOpts::new().threads(1), &mut seq)
                .unwrap();
            for threads in [2usize, 4] {
                let mut x = b.clone();
                m.solve_with(
                    &SolveOpts::new()
                        .threads(threads)
                        .policy(SchedulePolicy::SyncFree),
                    &mut x,
                )
                .unwrap();
                let diff = max_abs_diff(&x, &seq);
                assert!(
                    diff < 1e-12,
                    "sync-free at {threads} workers diverged {diff:e}"
                );
                // Bitwise self-consistency at the same worker count.
                let mut again = b.clone();
                m.solve_with(
                    &SolveOpts::new()
                        .threads(threads)
                        .policy(SchedulePolicy::SyncFree),
                    &mut again,
                )
                .unwrap();
                assert_eq!(x, again, "sync-free not repeatable at {threads} workers");
            }
        }
    }

    #[test]
    fn syncfree_shape_reports_zero_barriers_and_skips_analysis() {
        for m in [
            crate::gen::random_lower(3000, 8, 51),
            crate::gen::deep_narrow_lower(6000, 4, 3, 53),
        ] {
            let shape = m.execution_shape(
                &SolveOpts::new().threads(4).policy(SchedulePolicy::SyncFree),
                1,
            );
            assert_eq!(shape.policy, SchedulePolicy::SyncFree);
            assert_eq!(shape.workers, 4);
            assert_eq!(shape.barriers, 0, "sync-free must report zero barriers");
            assert_eq!(shape.levels, 0);
            assert_eq!(shape.super_levels, 0);
            assert_eq!(shape.max_level_width, 0);
            // Planning and running sync-free never analyzes the pattern.
            let mut x = crate::gen::rhs_vec(m.n(), 54);
            m.solve_with(
                &SolveOpts::new().threads(4).policy(SchedulePolicy::SyncFree),
                &mut x,
            )
            .unwrap();
            assert_eq!(
                m.analysis_count(),
                0,
                "a sync-free solve must stay analysis-free"
            );
            assert_eq!(m.merged_analysis_count(), 0);
        }
    }

    #[test]
    fn auto_prices_one_shot_against_reuse_loop() {
        // Acceptance criterion: on the deep DAG, auto picks SyncFree for a
        // declared one-shot solve but Merged for a 100-apply reuse loop.
        let m = crate::gen::deep_narrow_lower(8000, 4, 3, 55);
        let one_shot = m.execution_shape(&SolveOpts::new().threads(4).reuse(1), 1);
        assert_eq!(one_shot.policy, SchedulePolicy::SyncFree);
        assert_eq!(one_shot.barriers, 0);
        assert_eq!(
            m.analysis_count(),
            0,
            "planning the one-shot must not analyze"
        );
        let reused = m.execution_shape(&SolveOpts::new().threads(4).reuse(100), 1);
        assert_eq!(reused.policy, SchedulePolicy::Merged);
        assert!(reused.barriers > 0);
        // Undeclared reuse keeps the historical auto choice (Merged here).
        let undeclared = m.execution_shape(&SolveOpts::new().threads(4), 1);
        assert_eq!(undeclared.policy, SchedulePolicy::Merged);
        // And the one-shot path actually executes correctly end to end.
        let b = crate::gen::rhs_vec(m.n(), 56);
        let mut seq = b.clone();
        m.solve_with(&SolveOpts::new().threads(1), &mut seq)
            .unwrap();
        let mut x = b.clone();
        m.solve_with(&SolveOpts::new().threads(4).reuse(1), &mut x)
            .unwrap();
        assert!(max_abs_diff(&x, &seq) < 1e-12);
    }

    #[test]
    fn syncfree_transposed_and_multi_rhs_work_through_opts() {
        let m = test_lower(1200, 6);
        let b: Vec<f64> = (0..1200)
            .map(|i| ((i * 19 + 7) % 31) as f64 - 15.0)
            .collect();
        let mut seq = b.clone();
        m.solve_with(&SolveOpts::new().transposed().threads(1), &mut seq)
            .unwrap();
        let mut x = b.clone();
        m.solve_with(
            &SolveOpts::new()
                .transposed()
                .threads(4)
                .policy(SchedulePolicy::SyncFree),
            &mut x,
        )
        .unwrap();
        assert!(max_abs_diff(&x, &seq) < 1e-12);
        // Multi-RHS sync-free vs the barriered multi-RHS solve.
        let k = 3;
        let bm = Matrix::from_fn(1200, k, |i, j| ((i * 3 + j * 7) % 17) as f64 - 8.0);
        let mut seq_m = bm.clone();
        m.solve_multi_with(&SolveOpts::new().threads(1), &mut seq_m)
            .unwrap();
        let mut xm = bm.clone();
        m.solve_multi_with(
            &SolveOpts::new().threads(4).policy(SchedulePolicy::SyncFree),
            &mut xm,
        )
        .unwrap();
        for c in 0..k {
            for i in 0..1200 {
                assert!(
                    (xm[(i, c)] - seq_m[(i, c)]).abs() < 1e-12,
                    "sync-free multi-RHS diverged at ({i}, {c})"
                );
            }
        }
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for len in [0usize, 1, 5, 16, 37] {
            for workers in [1usize, 2, 3, 7, 16] {
                let mut total = 0;
                let mut prev_hi = 0;
                for w in 0..workers {
                    let (lo, hi) = chunk_bounds(len, workers, w);
                    assert_eq!(lo, prev_hi, "chunks must tile contiguously");
                    assert!(hi >= lo);
                    total += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(total, len);
                assert_eq!(prev_hi, len);
            }
        }
    }
}
