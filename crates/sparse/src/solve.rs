//! Sparse triangular solve executors.
//!
//! Every solve funnels through **one options-driven entry point** —
//! [`SparseTri::solve_with`] / [`SparseTri::solve_multi_with`] with a
//! [`SolveOpts`] — which runs one of two executors, chosen by one rule
//! ([`level_rule`]):
//!
//! * the **sequential sweep**: rows in dependency order (ascending for
//!   lower, descending for upper), no analysis needed;
//! * the **level sweep**: the cached [`crate::Schedule`]'s levels run as
//!   barrier-separated sweeps on the [`dense::run_region`] worker pool,
//!   each level's rows split into one contiguous chunk per worker (one
//!   barrier per level) — taken only when the schedule's mean run weight
//!   clears [`PAR_MIN_RUN_WEIGHT`], because a barrier crossing, and every
//!   jump between non-consecutive rows, has to be paid for by the rows
//!   streamed in between.
//!
//! [`dense::Transpose::Yes`] solves `Aᵀ·x = b` on the cached
//! [`SparseTri::transposed`] matrix (and its cached schedule), so
//! transposed applies — the `Lᵀ` half of an `ILU`/`IC` preconditioner —
//! cost one O(nnz) transposition ever, not one per solve.
//!
//! [`SparseTri::solve`] / [`SparseTri::solve_multi`] are the allocating
//! default-options forms; `catrsm::SolveRequest` is the cross-backend front
//! end.
//!
//! Both executors run one row kernel: a row's right-hand-side values are
//! read once into register accumulators, every stored entry's `v·x[j]` is
//! subtracted from them in CSR order, the diagonal divides, and they are
//! written back once — `k` walked in column blocks of 4, then 2, then 1.
//!
//! Because a row's result depends only on rows in earlier levels — which
//! are complete before the row runs — and the per-row arithmetic is a
//! fixed-order sweep over the CSR entries, the two executors are **bitwise
//! identical** at every worker count; `DENSE_THREADS` is a throughput knob
//! here exactly as it is for the dense GEMM.  Every solve reports a
//! [`FlopCount`] under the same conventions as the dense kernels (a
//! multiply and a subtract, 2 flops, per stored off-diagonal entry; one
//! division per explicit diagonal), so simulated machines can charge sparse
//! applies to the same γ·F term.

use crate::csr::SparseTri;
use crate::error::SparseError;
use crate::Result;
use dense::{dense_threads, run_region, Diag, FlopCount, MatMut, Matrix, Transpose, Triangle};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options of one sparse triangular solve: whether the matrix is applied
/// transposed, the worker budget, and the declared reuse.
///
/// This is the single execution vocabulary every sparse solve funnels
/// through ([`SparseTri::solve_with`] / [`SparseTri::solve_multi_with`]),
/// and `catrsm::SolveRequest` lowers to it for the sparse backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveOpts {
    /// Apply the matrix transposed (`Aᵀ·x = b`); runs on the cached
    /// [`SparseTri::transposed`] matrix and its cached schedule.
    pub transpose: Transpose,
    /// Worker **budget**: the most workers the solve may use — `None` means
    /// the `DENSE_THREADS` pool size.  [`level_rule`] decides how many of
    /// them a solve actually gets (often one); results are bitwise
    /// identical for every value.
    pub threads: Option<usize>,
    /// How many times this matrix will be applied (this solve included).
    /// `None` declares nothing and is treated as "apply many times";
    /// `Some(r)` below [`ANALYZE_REUSE_MIN`] keeps the solve on the
    /// sequential sweep without ever analysing the pattern.
    pub reuse: Option<usize>,
}

impl SolveOpts {
    /// Default options: non-transposed, the pool-size budget, no declared
    /// reuse.
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

    /// Set the worker budget (an upper bound, as in `dense`; 1 forces the
    /// sequential sweep).
    pub fn threads(mut self, threads: usize) -> SolveOpts {
        self.threads = Some(threads);
        self
    }

    /// Declare how many times this matrix will be applied (this solve
    /// included), so a one-shot solve (`reuse(1)`) never pays for an
    /// analysis it cannot amortize.
    pub fn reuse(mut self, reuse: usize) -> SolveOpts {
        self.reuse = Some(reuse);
        self
    }

    /// The worker budget in effect: [`SolveOpts::threads`], or the
    /// `DENSE_THREADS` pool size when unset.
    pub fn budget(&self) -> usize {
        self.threads.unwrap_or_else(dense_threads)
    }
}

/// The shape of one sparse solve — the worker count and synchronization
/// structure the executor runs, resolved by [`level_rule`].
/// [`SparseTri::execution_shape`] computes it ahead of time and
/// [`SparseTri::solve_multi_shaped`] returns the one it ran; `catrsm`'s
/// staged planner records the former on its `SolvePlan` and reports the latter
/// in its `LevelReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionShape {
    /// Workers the executor runs with (1 = the sequential sweep).
    pub workers: usize,
    /// Dependency levels of the schedule (0 when the pattern was never
    /// analysed; kept when the rule analysed it and stayed sequential).
    pub levels: usize,
    /// Contiguous runs of the schedule ([`crate::Schedule::num_runs`] —
    /// what the rule weighed; 0 when the pattern was never analysed).
    pub runs: usize,
    /// Barriers each worker waits on: `levels` under the level sweep, 0
    /// sequentially.
    pub barriers: usize,
    /// Rows in the widest level (the level sweep's parallelism ceiling; 0
    /// when the pattern was never analysed).
    pub max_level_width: usize,
}

impl ExecutionShape {
    /// The shape of a sequential sweep over a never-analysed pattern.
    fn not_analysed() -> ExecutionShape {
        ExecutionShape {
            workers: 1,
            levels: 0,
            runs: 0,
            barriers: 0,
            max_level_width: 0,
        }
    }
}

/// Mean stored entries per contiguous run (`nnz · k / runs`, see
/// [`crate::Schedule::num_runs`]) a schedule must carry for the level sweep
/// to run — and, since no schedule's mean can exceed its total, the
/// `nnz · k` below which a pattern is not even analysed.  A level is at
/// least one run, so this is also a floor on the mean level weight.
///
/// Set from `exp_sparse_gate` (`cargo run --release -p bench --bin
/// exp_sparse_gate`; table, host and commit in `crates/sparse/README.md`)
/// on a 2-vCPU host at 2 workers, against the register-resident sequential
/// sweep.  Where levels are consecutive row ranges (runs = levels) the
/// level sweep runs at 0.04–0.9× the sequential sweep up to 3 600 entries
/// per level, breaks even somewhere between 7 000 and 29 000, and wins
/// from ≈ 54 000 up (n = 200 000); where they are scattered (random fills,
/// block-diagonal and power-law patterns: 4–40 entries per run) it loses
/// at every level weight, because walking rows in level order is already
/// 1.2–4.0× slower than in row order on one worker.  A two-term model —
/// ≈ 0.3 µs per barrier crossing over ≈ 2.0 ns per stored entry — would
/// put break-even near 300; the end-to-end crossover is 25–100× later
/// because a level's rows also move between the workers' caches and every
/// solve spawns its region, so the constant is the power of two above the
/// measured break-even bracket, not the model's.
pub const PAR_MIN_RUN_WEIGHT: usize = 32_768;

/// Minimum declared reuse for a dependency analysis to be worth running.
///
/// The analysis costs 0.4–4.0 sequential sweeps, median 1.4
/// (`exp_sparse_gate`'s `analyse` column against `seq`), and a winning
/// level sweep saves at most a quarter of one per apply, so fewer than six
/// applies cannot repay a median analysis; the constant is the power of
/// two above.
pub const ANALYZE_REUSE_MIN: usize = 8;

/// Why [`level_rule`] left a pattern unanalysed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotAnalysed {
    /// The worker budget is 1.
    Budget,
    /// `nnz · k` is below [`PAR_MIN_RUN_WEIGHT`]: not even a one-run
    /// schedule could clear it.
    Work,
    /// The declared reuse is below [`ANALYZE_REUSE_MIN`].
    Reuse(usize),
}

/// [`level_rule`]'s decision, with what it was decided on — `Display`ed by
/// `catrsm::SolvePlan` as the answer to "why this plan".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Sequential sweep; the pattern is not analysed.
    NotAnalysed(NotAnalysed),
    /// The schedule was consulted: `run_weight` stored entries per
    /// contiguous run against `threshold`, hence `workers` (1 = sequential
    /// sweep).
    Analysed {
        /// Mean stored entries per contiguous run, `nnz · k / runs`.
        run_weight: usize,
        /// The [`PAR_MIN_RUN_WEIGHT`] it was compared with.
        threshold: usize,
        /// Workers the solve runs on.
        workers: usize,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Verdict::NotAnalysed(NotAnalysed::Budget) => write!(f, "not analysed (budget 1)"),
            Verdict::NotAnalysed(NotAnalysed::Work) => {
                write!(f, "not analysed (nnz·k below threshold)")
            }
            Verdict::NotAnalysed(NotAnalysed::Reuse(r)) => write!(f, "not analysed (reuse {r})"),
            Verdict::Analysed {
                run_weight,
                threshold,
                workers,
            } => {
                write!(
                    f,
                    "{run_weight} stored entries per run against a threshold of {threshold}: "
                )?;
                if workers > 1 {
                    write!(f, "level sweep on {workers} workers")
                } else {
                    write!(f, "sequential")
                }
            }
        }
    }
}

/// **The** go-parallel rule: how many workers a solve of `k` right-hand
/// sides with a matrix of `nnz` stored entries runs on, given a worker
/// `budget` and the declared `reuse`.
///
/// The pattern is consulted — `analysed()` returns the schedule's
/// `(contiguous runs, widest level)` and is only then called — unless the
/// budget is 1, `nnz · k` is below [`PAR_MIN_RUN_WEIGHT`], or the declared
/// reuse is below [`ANALYZE_REUSE_MIN`].  An analysed solve goes parallel,
/// on `min(budget, widest level)` workers, when its mean run weight `nnz ·
/// k / runs` reaches [`PAR_MIN_RUN_WEIGHT`].
///
/// [`SparseTri::execution_shape`] and the executor both decide through this
/// function, so a plan always describes what executes; it depends only on
/// its arguments, never on timing.
pub fn level_rule(
    budget: usize,
    nnz: usize,
    k: usize,
    reuse: Option<usize>,
    analysed: impl FnOnce() -> (usize, usize),
) -> Verdict {
    if budget <= 1 {
        return Verdict::NotAnalysed(NotAnalysed::Budget);
    }
    let work = nnz.saturating_mul(k);
    if work < PAR_MIN_RUN_WEIGHT {
        return Verdict::NotAnalysed(NotAnalysed::Work);
    }
    if let Some(r) = reuse.filter(|&r| r < ANALYZE_REUSE_MIN) {
        return Verdict::NotAnalysed(NotAnalysed::Reuse(r));
    }
    let (runs, widest) = analysed();
    let run_weight = work / runs.max(1);
    let workers = if run_weight >= PAR_MIN_RUN_WEIGHT {
        // Workers beyond the widest level would never receive a row.
        budget.min(widest).max(1)
    } else {
        1
    };
    Verdict::Analysed {
        run_weight,
        threshold: PAR_MIN_RUN_WEIGHT,
        workers,
    }
}

/// Shared mutable pointer to the solution block, handed to the level
/// sweep's workers.
///
/// Plain `&mut [f64]` cannot be shared across workers; the level sweep's
/// disjoint-access invariant is what makes the sharing sound (see the
/// SAFETY comment at the use site), so the pointer is wrapped and the
/// invariant documented there.
struct SharedPtr(*mut f64);

// SAFETY: the level sweep partitions the buffer so that concurrently
// accessed rows are disjoint per worker, with the per-level barrier
// providing the happens-before edges for cross-worker reads — documented at
// the use site.
unsafe impl Send for SharedPtr {}
unsafe impl Sync for SharedPtr {}

impl SharedPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper as a whole instead of edition-2021 field-precise
    /// capturing the raw pointer, which is not `Sync`.
    #[inline]
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// A sense-reversing spin/yield barrier for the level-sweep workers.
///
/// `std::sync::Barrier` takes a mutex and sleeps on a condvar at every
/// crossing — two futex syscalls plus a wake broadcast per worker per
/// level, which *is* the sparse hot path's synchronization overhead when a
/// schedule crosses hundreds of barriers per solve.  Here arrival is one
/// `fetch_add`, release is one generation-counter bump by the last arriver
/// (no wake syscalls at all), and waiters
/// spin briefly then yield, so oversubscribed machines (more workers than
/// cores) degrade to scheduler round-robin instead of burning a quantum
/// busy-waiting for a worker that needs the CPU to make the very progress
/// being waited on.
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

/// Per-level timeline spans are emitted (by worker 0) only when the
/// schedule has at most this many levels: a 10 000-level DAG would flood
/// the trace buffers with events nobody can render, while the per-worker
/// aggregate counter (`barrier_wait_ns`) stays cheap at any depth.
const MAX_LEVEL_SPANS: usize = 1024;

/// `[lo, hi)` bounds of worker `w`'s contiguous share of `len` items split
/// across `workers` (first `len % workers` workers take one extra item).
/// Depends only on `(len, workers, w)`, never on timing.
fn chunk_bounds(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = len / workers;
    let extra = len % workers;
    let lo = w * base + w.min(extra);
    (lo, lo + base + usize::from(w < extra))
}

/// Eliminates columns `c .. c + B` of row `i`: `x[i] ← (x[i] − Σ_j a_ij ·
/// x[j]) / d` over the row's off-diagonal entries `(cols, vals)`, dividing
/// only when `DIVIDE` (an explicit diagonal).
///
/// The `B` accumulators are read from `x` once, stay in registers while
/// the entries stream past in CSR order, and are written back once, so no
/// entry waits on the store of the one before it.  Each column still sees
/// exactly `x − v₁·x_{j₁} − v₂·x_{j₂} − …`, then `÷ d`: the same
/// operations in the same order as an update through memory, and Rust
/// never contracts `a - v * b` into a fused multiply-add — so the result
/// bits do not depend on `B`, on where the column block starts, or on
/// which executor calls this.
///
/// # Safety
/// `x` must be valid for reads of columns `c .. c + B` of the rows in
/// `cols` and for reads and writes of those columns of row `i`, at row
/// stride `stride`; the rows read must not be concurrently written, and
/// row `i` must not be concurrently accessed.
#[inline(always)]
unsafe fn eliminate_block<const B: usize, const DIVIDE: bool>(
    cols: &[usize],
    vals: &[f64],
    d: f64,
    x: *mut f64,
    stride: usize,
    i: usize,
    c: usize,
) {
    let xi = x.add(i * stride + c);
    let mut acc: [f64; B] = std::array::from_fn(|t| *xi.add(t));
    for (&j, &v) in cols.iter().zip(vals) {
        let xj = x.add(j * stride + c);
        for (t, a) in acc.iter_mut().enumerate() {
            *a -= v * *xj.add(t);
        }
    }
    if DIVIDE {
        for a in &mut acc {
            *a /= d;
        }
    }
    for (t, a) in acc.into_iter().enumerate() {
        *xi.add(t) = a;
    }
}

/// Eliminates all `k` columns of row `i`, walking them in fixed column
/// blocks of 4, then 2, then 1 ([`eliminate_block`]) — the kernel's shape,
/// like the GEMM's register tile, not a tuning knob.  The entry order —
/// CSR order, then the diagonal — is fixed and the same for every column,
/// whichever block it falls in: the root of the bitwise determinism
/// guarantee.
///
/// # Safety
/// As [`eliminate_block`], for columns `0 .. k`.
#[inline(always)]
unsafe fn eliminate_row<const DIVIDE: bool>(
    cols: &[usize],
    vals: &[f64],
    d: f64,
    x: *mut f64,
    stride: usize,
    k: usize,
    i: usize,
) {
    let mut c = 0;
    while k - c >= 4 {
        eliminate_block::<4, DIVIDE>(cols, vals, d, x, stride, i, c);
        c += 4;
    }
    if k - c >= 2 {
        eliminate_block::<2, DIVIDE>(cols, vals, d, x, stride, i, c);
        c += 2;
    }
    if c < k {
        eliminate_block::<1, DIVIDE>(cols, vals, d, x, stride, i, c);
    }
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

    /// Resolves a worker budget into the shape that will actually run,
    /// through [`level_rule`].  A verdict that never consults the pattern
    /// leaves the schedule untouched, so such solves stay analysis-free.
    fn resolve_shape(&self, budget: usize, k: usize, reuse: Option<usize>) -> ExecutionShape {
        let verdict = level_rule(budget, self.nnz(), k, reuse, || {
            let sched = self.schedule();
            (sched.num_runs(), sched.max_level_width())
        });
        match verdict {
            Verdict::NotAnalysed(_) => ExecutionShape::not_analysed(),
            Verdict::Analysed { workers, .. } => {
                let sched = self.schedule();
                ExecutionShape {
                    workers,
                    levels: sched.num_levels(),
                    runs: sched.num_runs(),
                    barriers: if workers > 1 { sched.num_levels() } else { 0 },
                    max_level_width: sched.max_level_width(),
                }
            }
        }
    }

    /// Runs the solve over `x` (`n` rows × `k` columns at row stride
    /// `stride`, holding `B` on entry and `X` on exit) under the given
    /// worker budget and declared reuse; returns the shape it ran.
    fn run_solve(
        &self,
        x: *mut f64,
        stride: usize,
        k: usize,
        budget: usize,
        reuse: Option<usize>,
    ) -> ExecutionShape {
        let n = self.n();
        if n == 0 || k == 0 {
            return ExecutionShape::not_analysed();
        }
        let shape = self.resolve_shape(budget, k, reuse);
        if shape.workers <= 1 {
            self.run_sequential(x, stride, k);
        } else {
            self.run_level_parallel(x, stride, k, shape.workers);
        }
        shape
    }

    /// The sequential sweep: rows in dependency order — ascending for
    /// lower, descending for upper — no analysis needed.
    fn run_sequential(&self, x: *mut f64, stride: usize, k: usize) {
        let rows = self.row_ptr().windows(2).enumerate();
        // SAFETY: single-threaded, and every dependency of a row (columns
        // below it for lower, above it for upper) was eliminated earlier in
        // the sweep's direction.
        unsafe {
            match (self.triangle(), self.diag()) {
                (Triangle::Lower, Diag::NonUnit) => self.sweep::<true>(rows, x, stride, k),
                (Triangle::Lower, Diag::Unit) => self.sweep::<false>(rows, x, stride, k),
                (Triangle::Upper, Diag::NonUnit) => self.sweep::<true>(rows.rev(), x, stride, k),
                (Triangle::Upper, Diag::Unit) => self.sweep::<false>(rows.rev(), x, stride, k),
            }
        }
    }

    /// Eliminates `rows` — `(i, [row_ptr[i], row_ptr[i + 1]])` windows — in
    /// the order given: the loop of both executors (the sequential sweep
    /// over every row, the level sweep over its chunk of each level), with
    /// the `Diag` branch hoisted into `DIVIDE` and, at `k = 1`, a
    /// one-column block — a scalar accumulator — per row.
    ///
    /// # Safety
    /// As [`eliminate_row`] for every row, and each row's dependencies must
    /// come before it in `rows`.
    #[inline(always)]
    unsafe fn sweep<'m, const DIVIDE: bool>(
        &'m self,
        rows: impl Iterator<Item = (usize, &'m [usize])>,
        x: *mut f64,
        stride: usize,
        k: usize,
    ) {
        let (col_idx, values, diag) = (self.col_idx(), self.values(), self.diag_values());
        if k == 1 {
            for (i, w) in rows {
                let (cols, vals) = (&col_idx[w[0]..w[1]], &values[w[0]..w[1]]);
                eliminate_block::<1, DIVIDE>(cols, vals, diag[i], x, stride, i, 0);
            }
        } else {
            for (i, w) in rows {
                let (cols, vals) = (&col_idx[w[0]..w[1]], &values[w[0]..w[1]]);
                eliminate_row::<DIVIDE>(cols, vals, diag[i], x, stride, k, i);
            }
        }
    }

    /// The classical level-scheduled executor: one barrier per dependency
    /// level, each level's rows split into one contiguous chunk per worker.
    fn run_level_parallel(&self, x: *mut f64, stride: usize, k: usize, workers: usize) {
        let sched = self.schedule();
        let shared = SharedPtr(x);
        let barrier = SpinBarrier::new(workers);
        let row_ptr = self.row_ptr();
        let divide = self.diag() == Diag::NonUnit;
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
                let chunk = rows[lo..hi].iter().map(|&i| (i, &row_ptr[i..i + 2]));
                // SAFETY: `chunk_bounds` hands each worker a disjoint slice
                // of this level's rows, so each of its rows is written by
                // exactly this worker; every dependency of a row lies in a
                // level `< l` (the defining invariant of `Schedule`), whose
                // writes happened-before this read via the barrier below
                // (and, for level 0, via the region spawn).
                unsafe {
                    if divide {
                        self.sweep::<true>(chunk, shared.get(), stride, k);
                    } else {
                        self.sweep::<false>(chunk, shared.get(), stride, k);
                    }
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

    /// The matrix the executor actually sweeps: `self` for a plain solve,
    /// the cached [`SparseTri::transposed`] for a transposed one.
    #[inline]
    pub fn executor(&self, transpose: Transpose) -> &SparseTri {
        match transpose {
            Transpose::No => self,
            Transpose::Yes => self.transposed(),
        }
    }

    /// The execution shape — workers, levels, barriers — a solve with
    /// these options and `k` right-hand sides will run with: the same
    /// [`level_rule`] decision [`SparseTri::solve_with`] makes, so plans
    /// can be inspected before execution.  Depends only on the matrix, `k`
    /// and the options, never on timing, and analyses the pattern only
    /// when the rule consults it.
    pub fn execution_shape(&self, opts: &SolveOpts, k: usize) -> ExecutionShape {
        self.executor(opts.transpose)
            .resolve_shape(opts.budget(), k, opts.reuse)
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
    /// rows when [`level_rule`] says so and vectorized across the `k`
    /// columns; returns the flop count.
    pub fn solve_multi_with<'x>(
        &self,
        opts: &SolveOpts,
        x: impl Into<MatMut<'x>>,
    ) -> Result<FlopCount> {
        let x = x.into();
        let k = x.cols();
        self.solve_multi_shaped(opts, x)?;
        Ok(self.solve_flops(k))
    }

    /// [`SparseTri::solve_multi_with`], returning the [`ExecutionShape`]
    /// that ran instead of the flop count ([`SparseTri::solve_flops`]) — the
    /// single entry point every sparse solve funnels through, and what a
    /// report of the execution is built from.
    pub fn solve_multi_shaped<'x>(
        &self,
        opts: &SolveOpts,
        x: impl Into<MatMut<'x>>,
    ) -> Result<ExecutionShape> {
        let mut x = x.into();
        self.check_rhs(&x)?;
        Ok(self.executor(opts.transpose).run_solve(
            x.as_mut_ptr(),
            x.stride(),
            x.cols(),
            opts.budget(),
            opts.reuse,
        ))
    }

    /// Runs the level sweep on exactly `workers` workers, whatever
    /// [`level_rule`] would decide — for the tests, which must exercise the
    /// parallel sweep on matrices far too small to clear the rule, and for
    /// `exp_sparse_gate`, which times it exactly where the rule declines
    /// it.  Not reachable from [`SolveOpts`].
    #[doc(hidden)]
    pub fn level_sweep_forced<'x>(&self, workers: usize, x: impl Into<MatMut<'x>>) -> Result<()> {
        let mut x = x.into();
        self.check_rhs(&x)?;
        if self.n() > 0 && x.cols() > 0 {
            self.run_level_parallel(x.as_mut_ptr(), x.stride(), x.cols(), workers.max(1));
        }
        Ok(())
    }

    fn check_rhs(&self, x: &MatMut<'_>) -> Result<()> {
        if x.rows() != self.n() {
            return Err(SparseError::DimensionMismatch {
                op: "sparse solve",
                n: self.n(),
                rhs: x.dims(),
            });
        }
        Ok(())
    }

    /// Solves `A · x = b` for one right-hand side under the default options
    /// (the `DENSE_THREADS` pool as the budget); returns the solution
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    /// The update-through-memory row kernel: `x_i` updated in memory once
    /// per stored entry, the plainest statement of the row's arithmetic.
    /// The bitwise oracle of [`eliminate_row`].
    ///
    /// # Safety
    /// As [`eliminate_row`].
    unsafe fn reference_row(m: &SparseTri, x: *mut f64, stride: usize, k: usize, i: usize) {
        let (cols, vals) = m.row_entries(i);
        let xi = std::slice::from_raw_parts_mut(x.add(i * stride), k);
        for (&j, &v) in cols.iter().zip(vals) {
            let xj = std::slice::from_raw_parts(x.add(j * stride), k);
            for (xic, xjc) in xi.iter_mut().zip(xj) {
                *xic -= v * xjc;
            }
        }
        if m.diag() == Diag::NonUnit {
            let d = m.diag_value(i);
            for xic in xi.iter_mut() {
                *xic /= d;
            }
        }
    }

    /// `m · X = B` through [`reference_row`], rows in dependency order.
    fn reference_solve(m: &SparseTri, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        let (n, k) = (m.n(), x.cols());
        let ptr = x.as_mut_slice().as_mut_ptr();
        let rows: Vec<usize> = match m.triangle() {
            Triangle::Lower => (0..n).collect(),
            Triangle::Upper => (0..n).rev().collect(),
        };
        for i in rows {
            // SAFETY: `x` is `n × k` at row stride `k`, single-threaded, and
            // each row's dependencies come before it in `rows`.
            unsafe { reference_row(m, ptr, k, k, i) };
        }
        x
    }

    /// The result bits of a block, for `==` that tells `-0.0` from `0.0`
    /// and compares NaN payloads.
    fn bits(x: &Matrix) -> Vec<u64> {
        x.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The widths the oracle runs: each column block alone (1, 2, 4), every
    /// mix of them (3, 5, 7, 9) and several full blocks (8, 16).
    const ORACLE_KS: [usize; 9] = [1, 2, 3, 4, 5, 7, 8, 9, 16];

    /// One of the `gen` shapes — random, banded, block-diagonal, power-law,
    /// deep-narrow — with `p` dialling its fill, band, block or width; then
    /// its lower and upper (transposed) forms, each with an explicit and a
    /// unit diagonal.
    fn oracle_factors(shape: usize, n: usize, p: usize, seed: u64) -> Vec<SparseTri> {
        let lower = match shape {
            0 => gen::random_lower(n, p, seed),
            1 => gen::banded_lower(n, p, seed),
            2 => gen::block_diagonal_lower(n, 4 * p, 1 + p % 4, seed),
            3 => gen::power_law_lower(n, p, seed),
            _ => gen::deep_narrow_lower(n, 2 * p, 1 + p % 3, seed),
        };
        let upper = lower.transpose();
        let unit = |m: &SparseTri| {
            SparseTri::from_csr(
                m.n(),
                m.triangle(),
                Diag::Unit,
                m.row_ptr(),
                m.col_idx(),
                m.values(),
            )
            .unwrap()
        };
        let (unit_lower, unit_upper) = (unit(&lower), unit(&upper));
        vec![lower, upper, unit_lower, unit_upper]
    }

    /// Right-hand sides for the oracle: `O(1)` values, signs mixed.
    fn oracle_rhs(n: usize, k: usize, seed: u64) -> Matrix {
        let v = gen::rhs_vec(n * k, seed);
        Matrix::from_vec(n, k, v).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The sequential sweep's register-resident kernel returns the
        /// reference kernel's bits on every shape, triangle, diagonal,
        /// transpose flag and column-block mix.
        #[test]
        fn sequential_sweep_is_bitwise_the_reference_kernel(
            shape in 0usize..5,
            n in 1usize..180,
            p in 1usize..9,
            seed in any::<u64>(),
        ) {
            for m in oracle_factors(shape, n, p, seed) {
                for t in [Transpose::No, Transpose::Yes] {
                    for k in ORACLE_KS {
                        let b = oracle_rhs(n, k, seed ^ k as u64);
                        let want = reference_solve(m.executor(t), &b);
                        let mut x = b.clone();
                        m.solve_multi_with(&SolveOpts::new().transpose(t).threads(1), &mut x)
                            .unwrap();
                        prop_assert!(
                            bits(&x) == bits(&want),
                            "{:?} {:?} {t:?} k = {k}",
                            m.triangle(),
                            m.diag()
                        );
                    }
                }
            }
        }

        /// The level sweep, forced onto 1–3 workers, returns the reference
        /// kernel's bits on the same corpus.
        #[test]
        fn forced_level_sweep_is_bitwise_the_reference_kernel(
            shape in 0usize..5,
            n in 1usize..180,
            p in 1usize..9,
            seed in any::<u64>(),
        ) {
            for m in oracle_factors(shape, n, p, seed) {
                for t in [Transpose::No, Transpose::Yes] {
                    let e = m.executor(t);
                    for k in ORACLE_KS {
                        let b = oracle_rhs(n, k, seed ^ k as u64);
                        let want = bits(&reference_solve(e, &b));
                        for workers in 1..=3 {
                            let mut x = b.clone();
                            e.level_sweep_forced(workers, &mut x).unwrap();
                            prop_assert!(
                                bits(&x) == want,
                                "{:?} {:?} {t:?} k = {k}, {workers} workers",
                                m.triangle(),
                                m.diag()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_column_block_solves_like_a_compact_copy_and_leaves_its_neighbours() {
        // The kernel addresses `x` by raw pointer at the parent's row
        // stride: a block `c0 .. c0 + k` of an `n × (k + 3)` matrix must
        // come out bit for bit like the same columns solved compactly, and
        // the columns beside it must keep their sentinel bits.
        let sentinel = f64::from_bits(0x7ff8_0000_dead_beef);
        let n = 300;
        let lower = gen::random_lower(n, 6, 17);
        let upper = lower.transpose();
        for m in [&lower, &upper] {
            for k in [1usize, 3, 4, 6] {
                let width = k + 3;
                let b = oracle_rhs(n, k, k as u64);
                for c0 in 0..=3 {
                    // `block` in columns `c0 .. c0 + k`, sentinels around it.
                    let place = |block: &Matrix| {
                        Matrix::from_fn(n, width, |i, j| match j.checked_sub(c0) {
                            Some(c) if c < k => block[(i, c)],
                            _ => sentinel,
                        })
                    };
                    let full = place(&b);
                    for t in [Transpose::No, Transpose::Yes] {
                        let opts = SolveOpts::new().transpose(t).threads(1);
                        let mut compact = b.clone();
                        m.solve_multi_with(&opts, &mut compact).unwrap();
                        let mut seq = full.clone();
                        m.solve_multi_with(&opts, seq.view_mut(0, c0, n, k))
                            .unwrap();
                        let mut forced = full.clone();
                        m.executor(t)
                            .level_sweep_forced(2, forced.view_mut(0, c0, n, k))
                            .unwrap();
                        let want = bits(&place(&compact));
                        assert!(bits(&seq) == want, "sequential, {t:?} k = {k}, c0 = {c0}");
                        assert!(bits(&forced) == want, "forced, {t:?} k = {k}, c0 = {c0}");
                    }
                }
            }
        }
    }

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

    /// `A·x = b` under a worker budget.
    fn solve_budget(m: &SparseTri, b: &[f64], threads: usize) -> Vec<f64> {
        let mut x = b.to_vec();
        m.solve_with(&SolveOpts::new().threads(threads), &mut x)
            .unwrap();
        x
    }

    /// `A·x = b` through the level sweep on exactly `workers` workers,
    /// whatever the rule would say about a matrix this small.
    fn solve_forced(m: &SparseTri, b: &[f64], workers: usize) -> Vec<f64> {
        let mut x = b.to_vec();
        m.level_sweep_forced(workers, &mut x[..]).unwrap();
        x
    }

    /// A factor that clears the rule: 5 levels of up to 8 192 rows, ~46 000
    /// stored entries each.
    fn wide_levels() -> SparseTri {
        crate::gen::deep_narrow_lower(40_000, 8192, 6, 31)
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
        assert_eq!(solve_budget(&m, &b, 1), b);
        assert_eq!(solve_forced(&m, &b, 3), b);
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
            let seq = solve_budget(m, &b, 1);
            for workers in [2usize, 3, 4, 7] {
                let x = solve_forced(m, &b, workers);
                assert_eq!(x, seq, "{workers} workers changed the result bits");
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
        for workers in [2usize, 3, 4, 7] {
            let mut x = b.clone();
            m.level_sweep_forced(workers, &mut x).unwrap();
            assert!(x == seq, "{workers} workers changed multi-RHS bits");
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
    fn densified_solve_matches_sparse_numerically() {
        // The dense solve accumulates over *all* columns (zeros included),
        // so it agrees with the sparse executors numerically, not bitwise.
        let n = 200;
        let m = test_lower(n, 5);
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 * 0.25 - 1.0).collect();
        let xs = m.solve(&b).unwrap();
        let mut xd = b.clone();
        dense::trsm_in_place_opts(&dense::SolveOpts::lower(), &m.to_dense(), xd.as_mut_slice())
            .unwrap();
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
        let m = wide_levels();
        let n = m.n();
        assert_eq!(m.analysis_count(), 0);
        assert!(m.execution_shape(&SolveOpts::new().threads(4), 1).workers > 1);
        let b = vec![1.0; n];
        // Two parallel solves + a multi-RHS solve: one analysis, total.
        let x1 = solve_budget(&m, &b, 4);
        assert_eq!(m.analysis_count(), 1, "first parallel solve analyzes");
        let x2 = solve_budget(&m, &b, 4);
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
        let _ = solve_budget(&m, &b, 1);
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
        dense::trsm_in_place_opts(
            &dense::SolveOpts::new(m.triangle())
                .diag(m.diag())
                .transposed(),
            &a,
            xd.as_mut_slice(),
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
        for workers in [2usize, 3, 4, 7] {
            let x = solve_forced(m.transposed(), &b, workers);
            assert_eq!(x, seq, "transposed solve changed bits at {workers} workers");
        }
        // Multi-RHS transposed agrees with per-column transposed solves.
        let k = 4;
        let bm = Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 17) % 29) as f64 - 14.0);
        let mut xm = bm.clone();
        m.transposed().level_sweep_forced(3, &mut xm).unwrap();
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
        let m = wide_levels();
        let b = vec![1.0; m.n()];
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
        // A budget is an upper bound: min(budget, widest level) workers
        // once the rule goes parallel, one barrier per level.
        let m = wide_levels();
        let sched = m.schedule();
        assert_eq!((sched.num_levels(), sched.max_level_width()), (5, 8192));
        for budget in [2usize, 4, 7] {
            let shape = m.execution_shape(&SolveOpts::new().threads(budget), 1);
            assert_eq!(shape.workers, budget);
            assert_eq!((shape.levels, shape.runs, shape.barriers), (5, 5, 5));
            assert_eq!(shape.max_level_width, 8192);
        }
        // A heavy enough block of right-hand sides carries narrow levels
        // over the threshold, and the width cap then bounds the workers.
        let narrow = crate::gen::deep_narrow_lower(300, 3, 2, 5);
        let heavy = m_k(&narrow, PAR_MIN_RUN_WEIGHT);
        let shape = narrow.execution_shape(&SolveOpts::new().threads(8), heavy);
        assert_eq!(shape.workers, 3, "capped at the widest level");
        // The sequential budget never analyzes: a fresh matrix stays clean.
        let fresh = wide_levels();
        let shape = fresh.execution_shape(&SolveOpts::new().threads(1), 1);
        assert_eq!(shape, ExecutionShape::not_analysed());
        assert_eq!(fresh.analysis_count(), 0);
    }

    /// Right-hand sides needed for `m`'s mean run weight to reach `weight`.
    fn m_k(m: &SparseTri, weight: usize) -> usize {
        (weight * m.schedule().num_runs()).div_ceil(m.nnz())
    }

    #[test]
    fn the_rule_decides_on_both_sides_of_the_constant() {
        let budget4 = SolveOpts::new().threads(4);
        // Below: ~10 stored entries per run on the random factor (its levels
        // are scattered rows), 5 on the band (one row per level).  Analysed,
        // kept sequential, and the shape says so.
        for m in [
            crate::gen::random_lower(8_000, 8, 7),
            crate::gen::banded_lower(20_000, 4, 19),
        ] {
            let shape = m.execution_shape(&budget4, 1);
            assert_eq!((shape.workers, shape.barriers), (1, 0));
            assert_eq!(shape.levels, m.schedule().num_levels());
            assert_eq!(shape.runs, m.schedule().num_runs());
            assert_eq!(shape.max_level_width, m.schedule().max_level_width());
            assert_eq!(m.analysis_count(), 1);
        }
        // A declared one-shot cannot repay an analysis: never analysed.
        let m = wide_levels();
        let one_shot = m.execution_shape(&budget4.reuse(1), 1);
        assert_eq!(one_shot, ExecutionShape::not_analysed());
        let mut x = crate::gen::rhs_vec(m.n(), 3);
        let ran = m.solve_multi_shaped(&budget4.reuse(1), &mut x[..]).unwrap();
        assert_eq!(ran, one_shot);
        assert_eq!(m.analysis_count(), 0);
        // Nor can too little work, whatever the budget.
        let tiny = test_lower(200, 4);
        assert_eq!(
            tiny.execution_shape(&budget4, 1),
            ExecutionShape::not_analysed()
        );
        assert_eq!(tiny.analysis_count(), 0);
        // Above: ~46 000 stored entries per run (each level one run).
        for opts in [budget4, budget4.reuse(ANALYZE_REUSE_MIN)] {
            let shape = m.execution_shape(&opts, 1);
            assert!(shape.workers > 1);
            assert_eq!(shape.barriers, shape.levels);
            let mut x = crate::gen::rhs_vec(m.n(), 3);
            assert_eq!(m.solve_multi_shaped(&opts, &mut x[..]).unwrap(), shape);
        }
    }

    #[test]
    fn level_rule_verdicts_explain_themselves() {
        let unreachable = || -> (usize, usize) { panic!("must not consult the pattern") };
        let t = PAR_MIN_RUN_WEIGHT;
        assert_eq!(
            level_rule(1, 10 * t, 1, None, unreachable).to_string(),
            "not analysed (budget 1)"
        );
        assert_eq!(
            level_rule(4, t - 1, 1, None, unreachable).to_string(),
            "not analysed (nnz·k below threshold)"
        );
        assert_eq!(
            level_rule(4, 10 * t, 1, Some(2), unreachable).to_string(),
            "not analysed (reuse 2)"
        );
        // Exactly at the threshold goes parallel; one entry short does not.
        let analysed = |run_weight, workers| Verdict::Analysed {
            run_weight,
            threshold: t,
            workers,
        };
        let at = level_rule(4, 10 * t, 1, None, || (10, 100));
        assert_eq!(at, analysed(t, 4));
        assert!(at.to_string().ends_with("level sweep on 4 workers"));
        let below = level_rule(4, 10 * t - 10, 1, None, || (10, 100));
        assert_eq!(below, analysed(t - 1, 1));
        assert!(below.to_string().ends_with("sequential"), "{below}");
        // k multiplies the weight; the widest level caps the workers.
        assert_eq!(level_rule(4, t, 10, None, || (10, 3)), analysed(t, 3));
    }

    #[test]
    fn ordinary_api_runs_the_level_sweep_bitwise_on_factors_that_clear_the_rule() {
        let m = wide_levels();
        let t = m.transpose();
        for mat in [&m, &t] {
            let b = crate::gen::rhs_vec(mat.n(), 41);
            let seq = solve_budget(mat, &b, 1);
            for budget in [2usize, 4] {
                let opts = SolveOpts::new().threads(budget);
                assert!(mat.execution_shape(&opts, 1).workers > 1);
                let mut x = b.clone();
                let ran = mat.solve_multi_shaped(&opts, &mut x[..]).unwrap();
                assert_eq!(ran, mat.execution_shape(&opts, 1));
                assert_eq!(x, seq, "budget {budget} changed the result bits");
            }
        }
        // Transposed through the options, multi-RHS.
        let opts = SolveOpts::new().transposed().threads(3);
        assert!(m.execution_shape(&opts, 5).workers > 1);
        let bm = Matrix::from_fn(m.n(), 5, |i, j| ((i * 3 + j * 17) % 29) as f64 - 14.0);
        let mut seq = bm.clone();
        m.solve_multi_with(&SolveOpts::new().transposed().threads(1), &mut seq)
            .unwrap();
        let mut x = bm.clone();
        m.solve_multi_with(&opts, &mut x).unwrap();
        assert!(x == seq);
    }

    #[test]
    fn forced_sweep_handles_chains_deep_dags_and_more_workers_than_rows() {
        // The shapes the rule never sends here: an unbroken chain (every
        // level one row, so all but one worker idle at every barrier), a
        // deep narrow ladder, and a matrix with fewer rows than workers.
        for m in [
            crate::gen::banded_lower(3_000, 4, 19),
            crate::gen::deep_narrow_lower(8_000, 4, 3, 11),
            test_lower(3, 2),
        ] {
            let t = m.transpose();
            for mat in [&m, &t] {
                let b = crate::gen::rhs_vec(mat.n(), 23);
                let seq = solve_budget(mat, &b, 1);
                for workers in [1usize, 2, 3, 4, 7] {
                    assert_eq!(solve_forced(mat, &b, workers), seq, "{workers} workers");
                }
            }
        }
        let m = test_lower(5, 2);
        assert!(matches!(
            m.level_sweep_forced(2, &mut [1.0; 4][..]),
            Err(SparseError::DimensionMismatch { .. })
        ));
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
