//! The staged, backend-uniform solver API: **request → plan → solution**.
//!
//! Every triangular solve in the workspace — a local dense
//! [`trsm`](fn@dense::trsm), a level-scheduled sparse apply (`sparse`), or
//! a distributed
//! solve on the simulated machine (`catrsm`'s algorithms) — is described by
//! the same [`SolveRequest`]: which triangle the operand occupies, whether
//! it is applied transposed ([`Transpose`]), whether its diagonal is
//! implicit ones ([`Diag`]), which side of the unknown it sits on
//! ([`Side`]), a sparse worker budget and an optional distributed-algorithm
//! pin.
//!
//! A request **lowers** into an inspectable [`Plan`] before anything runs:
//! the plan records the chosen algorithm and its concrete parameters (the
//! Section VIII [`crate::planner`] grid for distributed solves, the
//! level-schedule shape for sparse ones, the panel blocking for dense
//! ones) together with the cost model's *predicted* α–β–γ cost — the
//! "a priori" workflow of the paper, exposed as an API stage.  Executing a
//! plan yields a [`Solution`] whose [`SolveReport`] uniformly carries what
//! was *measured*: the [`FlopCount`], the simulated communication
//! [`CostCounters`] and per-phase breakdown (distributed), the
//! level/barrier counts (sparse), and an optional relative residual.
//!
//! ```
//! use catrsm::SolveRequest;
//! use dense::gen;
//! let n = 96;
//! let l = gen::well_conditioned_lower(n, 3);
//! let x_true = gen::rhs(n, 8, 4);
//! let b = dense::matmul(&l, &x_true);
//! let plan = SolveRequest::lower().plan_dense(n, 8).unwrap();
//! let sol = plan.execute_dense(&l, &b).unwrap();
//! assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
//! assert_eq!(sol.report.flops, dense::flops::trsm_flops(n, 8));
//! // Transposed solves need no materialized Lᵀ on any backend:
//! let bt = dense::gemm::matmul(&l.transpose(), &x_true);
//! let st = SolveRequest::lower().transposed().solve_dense(&l, &bt).unwrap();
//! assert!(dense::norms::rel_diff(&st.x, &x_true) < 1e-8);
//! ```
//!
//! Each local backend has one allocating executor (`execute_dense` /
//! `execute_sparse`: `B` in, a [`Solution`] out, residual on request) over
//! one in-place executor (`execute_dense_in_place` /
//! `execute_sparse_in_place`) whose right-hand side is a [`dense::MatMut`]
//! view — a `&mut Matrix` is its own full view, so block and sub-block
//! solves are the same call.  On the sparse backend a `&mut [f64]` is simply
//! the `n×1` view.  The dense backend is the one place that view is not
//! free: its vector kernel (`trsv`) and its blocked kernel round
//! differently, so vectors keep `execute_dense_vec_in_place`.

use crate::api::{reverse_both, reverse_rows, Algorithm};
use crate::error::config_error;
use crate::it_inv_trsm::{it_inv_trsm, PhaseBreakdown};
use crate::planner;
use crate::rec_trsm::{rec_trsm, RecTrsmConfig};
use crate::verify;
use crate::wavefront::wavefront_trsm;
use crate::Result;
use costmodel::{AlgorithmKind, Cost, CostModelRev, Regime};
use dense::flops::trsm_flops;
use dense::{Diag, FlopCount, MatMut, Matrix, Side, SolveOpts, Transpose, Triangle};
use pgrid::DistMatrix;
use simnet::CostCounters;
use sparse::SparseTri;
use std::fmt;

// ---------------------------------------------------------------------------
// SolveRequest
// ---------------------------------------------------------------------------

/// A backend-independent description of one triangular solve.
///
/// Built with the fluent constructors ([`SolveRequest::lower`] /
/// [`SolveRequest::upper`] plus `.transposed()`, `.unit_diagonal()`,
/// `.side(..)`, `.threads(..)`, `.algorithm(..)`, `.with_residual()`), then
/// either lowered explicitly (`plan_dense` / `plan_sparse` /
/// `plan_distributed`) or solved in one shot (`solve_dense` /
/// `solve_sparse` / `solve_distributed`).
///
/// The request is one value: a [`Plan`] stores the request it was lowered
/// from, and a plan cache keys on it whole (`Eq + Hash`), so every field is
/// part of a solve's identity by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveRequest {
    opts: SolveOpts,
    threads: Option<usize>,
    reuse: Option<usize>,
    algorithm: Option<Algorithm>,
    residual: bool,
    cost_rev: CostModelRev,
}

impl SolveRequest {
    /// A request for `op(A)·X = B` with `A` occupying the given triangle.
    pub fn new(triangle: Triangle) -> SolveRequest {
        SolveRequest {
            opts: SolveOpts::new(triangle),
            threads: None,
            reuse: None,
            algorithm: None,
            residual: false,
            cost_rev: CostModelRev::default(),
        }
    }

    /// `A·X = B` with lower-triangular `A` (the paper's main case).
    pub fn lower() -> SolveRequest {
        SolveRequest::new(Triangle::Lower)
    }

    /// `A·X = B` with upper-triangular `A`.
    pub fn upper() -> SolveRequest {
        SolveRequest::new(Triangle::Upper)
    }

    /// Apply the operand transposed: solve `Aᵀ·X = B` (`X·Aᵀ = B` on the
    /// right).  No backend materializes the full transpose: dense kernels
    /// pack `NB`-wide panels, the sparse executor runs on the cached
    /// O(nnz) [`SparseTri::transposed`], and the distributed path performs
    /// one transpose redistribution (an all-to-all of the values).
    pub fn transposed(mut self) -> SolveRequest {
        self.opts.transpose = Transpose::Yes;
        self
    }

    /// Set the transpose flag explicitly.
    pub fn transpose(mut self, transpose: Transpose) -> SolveRequest {
        self.opts.transpose = transpose;
        self
    }

    /// Treat the diagonal as implicit ones.
    pub fn unit_diagonal(mut self) -> SolveRequest {
        self.opts.diag = Diag::Unit;
        self
    }

    /// Set the diagonal kind explicitly.
    pub fn diag(mut self, diag: Diag) -> SolveRequest {
        self.opts.diag = diag;
        self
    }

    /// Put the triangular operand on the given side (dense backend only;
    /// sparse and distributed solves are left-sided).
    pub fn side(mut self, side: Side) -> SolveRequest {
        self.opts.side = side;
        self
    }

    /// Set the worker budget of the sparse executor: the most workers a
    /// solve may use (default: the `DENSE_THREADS` pool size).
    /// `sparse::level_rule` decides how many of them it gets — one, unless
    /// the schedule's levels are heavy enough to pay for their barriers —
    /// and the result is bitwise identical for every value.  Dense GEMM
    /// threading remains governed by `DENSE_THREADS`.
    pub fn threads(mut self, threads: usize) -> SolveRequest {
        self.threads = Some(threads);
        self
    }

    /// Declare how many times this triangular factor will be applied
    /// (sparse backend only).  One analysis pays for `reuse` solves: a
    /// one-shot solve (`reuse(1)`) stays on the sequential sweep and never
    /// analyses the pattern, and the plan's cost carries the analysis term
    /// amortized over the declared applies.  Without a declaration the
    /// request is treated as applied many times.
    pub fn reuse(mut self, reuse: usize) -> SolveRequest {
        self.reuse = Some(reuse);
        self
    }

    /// Pin the distributed algorithm.  [`Algorithm::Auto`] (or not calling
    /// this at all) lets the Section VIII planner choose.
    pub fn algorithm(mut self, algorithm: Algorithm) -> SolveRequest {
        self.algorithm = match algorithm {
            Algorithm::Auto => None,
            other => Some(other),
        };
        self
    }

    /// Select the cost-model revision the distributed planner prices and
    /// classifies with: [`CostModelRev::Ipdps17`] (the default — the
    /// paper's original leading-order bounds) or [`CostModelRev::Tang24`]
    /// (the reexamination's corrected recursive bandwidth terms, which
    /// move the regime boundaries and hence where `Algorithm::Auto` places
    /// the processor grid).  Dense and sparse lowering ignore it.
    pub fn cost_model(mut self, rev: CostModelRev) -> SolveRequest {
        self.cost_rev = rev;
        self
    }

    /// Run a pre-solve numerical-health scan on the dense backends: NaN or
    /// infinite entries in the operand triangle or the right-hand side are
    /// rejected with `DenseError::NonFiniteEntry` before any arithmetic
    /// runs.  (Sparse operands are validated unconditionally at
    /// construction, so the flag is a no-op there; distributed solves
    /// replicate their inputs from already-validated local data.)
    pub fn validate_finite(mut self) -> SolveRequest {
        self.opts.check_finite = true;
        self
    }

    /// Set the dense NaN/Inf pre-scan flag explicitly.
    pub fn check_finite(mut self, on: bool) -> SolveRequest {
        self.opts.check_finite = on;
        self
    }

    /// Also compute the relative residual
    /// `‖op(A)·X − B‖_F / (‖A‖_F·‖X‖_F + ‖B‖_F)` after the solve and
    /// attach it to the report (skipped by the `_in_place` executors,
    /// which consume `B`).
    pub fn with_residual(mut self) -> SolveRequest {
        self.residual = true;
        self
    }

    /// The dense-kernel option record this request describes.
    pub fn opts(&self) -> SolveOpts {
        self.opts
    }

    /// Whether [`SolveRequest::with_residual`] asked for a post-solve
    /// residual.
    pub fn wants_residual(&self) -> bool {
        self.residual
    }

    // -- lowering ----------------------------------------------------------

    /// Lower to a dense-backend plan for an `n×n` operand and `k`
    /// right-hand sides (`k` counts columns of `B` for left solves, rows
    /// for right solves).
    pub fn plan_dense(&self, n: usize, k: usize) -> Result<Plan> {
        let _span = obs::span_with("planner", "plan_dense", "n", n as u64);
        Ok(Plan {
            n,
            k,
            request: *self,
            predicted_flops: trsm_flops(n, k),
            predicted_cost: None,
            regime: None,
            backend: PlanBackend::Dense {
                threads: dense::dense_threads(),
                block: dense::TRSM_BLOCK,
                inverts_blocks: dense::inverts_diagonal_blocks(k),
            },
        })
    }

    /// Lower to a sparse-backend plan for the given matrix and `k`
    /// right-hand sides.
    ///
    /// The request's triangle and diagonal must match the matrix (the
    /// sparse storage carries both); the plan records the worker count the
    /// executor will actually use and — whenever the rule consulted it —
    /// the shape of the level schedule.
    pub fn plan_sparse(&self, a: &SparseTri, k: usize) -> Result<Plan> {
        let _span = obs::span_with("planner", "plan_sparse", "n", a.n() as u64);
        if self.opts.side == Side::Right {
            return Err(config_error(
                "plan_sparse",
                "sparse solves are left-sided (op(A)·X = B)",
            ));
        }
        if a.triangle() != self.opts.triangle {
            return Err(config_error(
                "plan_sparse",
                format!(
                    "request says {:?} but the matrix stores {:?}",
                    self.opts.triangle,
                    a.triangle()
                ),
            ));
        }
        if a.diag() != self.opts.diag {
            return Err(config_error(
                "plan_sparse",
                format!(
                    "request says {:?} but the matrix was built {:?}",
                    self.opts.diag,
                    a.diag()
                ),
            ));
        }
        let sopts = self.sparse_opts();
        let shape = a.execution_shape(&sopts, k);
        let nnz = a.nnz() as f64;
        let kf = k as f64;
        // The synchronization term prices the barriers this plan will
        // actually cross (one per level under the level sweep, none
        // sequentially).  A declared reuse additionally amortizes the
        // analysis bill (~nnz flops when the pattern was analysed) over
        // that many applies.
        let (barriers, workers) = (shape.barriers as f64, shape.workers as f64);
        let predicted_cost = Some(match self.reuse {
            None => costmodel::sparse_solve_cost(nnz, kf, barriers, workers),
            Some(r) => {
                let analysis_flops = if shape.levels == 0 { 0.0 } else { nnz };
                costmodel::sparse_solve_cost_amortized(
                    nnz,
                    kf,
                    barriers,
                    workers,
                    analysis_flops,
                    r as f64,
                )
            }
        });
        Ok(Plan {
            n: a.n(),
            k,
            request: *self,
            predicted_flops: a.solve_flops(k),
            predicted_cost,
            regime: None,
            backend: PlanBackend::Sparse {
                workers: shape.workers,
                levels: shape.levels,
                runs: shape.runs,
                predicted_barriers: shape.barriers,
                max_level_width: shape.max_level_width,
                nnz: a.nnz(),
                via_transpose: sopts.transpose == Transpose::Yes,
            },
        })
    }

    /// Lower to a distributed-backend plan for an `n×n` operand, `k`
    /// right-hand sides and `p` simulated processors.
    ///
    /// With no algorithm pin this is where `Auto` resolves: the Section
    /// VIII cost model classifies `(n, k, p)` into its regime and the
    /// [`crate::planner`] turns the real-valued optimum into a feasible
    /// `p1 × p1 × p2` grid and block size — all recorded on the plan, so
    /// the choice is inspectable before (and after) execution.
    pub fn plan_distributed(&self, n: usize, k: usize, p: usize) -> Result<Plan> {
        let _span = obs::span_with("planner", "plan_distributed", "n", n as u64);
        if self.opts.side == Side::Right {
            return Err(config_error(
                "plan_distributed",
                "distributed solves are left-sided (op(A)·X = B)",
            ));
        }
        let (algorithm, params, kind) = match self.algorithm {
            None => {
                let params = planner::plan(self.cost_rev, n, k, p);
                (
                    Algorithm::IterativeInversion(params.it_inv),
                    Some(params),
                    AlgorithmKind::IterativeInversion,
                )
            }
            Some(Algorithm::Auto) => unreachable!("Auto is stored as None"),
            Some(alg @ Algorithm::IterativeInversion(_)) => {
                (alg, None, AlgorithmKind::IterativeInversion)
            }
            Some(alg @ Algorithm::Recursive { .. }) => (alg, None, AlgorithmKind::Recursive),
            Some(alg @ Algorithm::Wavefront) => (alg, None, AlgorithmKind::Wavefront),
        };
        let predicted = self.cost_rev.trsm_cost(kind, n as f64, k as f64, p as f64);
        Ok(Plan {
            n,
            k,
            request: *self,
            predicted_flops: FlopCount::new(predicted.flops.round() as u64),
            predicted_cost: Some(predicted),
            regime: Some(self.cost_rev.classify(n as f64, k as f64, p as f64)),
            backend: PlanBackend::Distributed {
                algorithm,
                p,
                params,
            },
        })
    }

    // -- one-shot conveniences --------------------------------------------

    /// Plan and execute a dense solve of `op(A)·X = B` (or `X·op(A) = B`).
    pub fn solve_dense(&self, a: &Matrix, b: &Matrix) -> Result<Solution<Matrix>> {
        let k = match self.opts.side {
            Side::Left => b.cols(),
            Side::Right => b.rows(),
        };
        self.plan_dense(a.rows(), k)?.execute_dense(a, b)
    }

    /// Plan and execute a sparse multi-RHS solve of `op(A)·X = B`.
    pub fn solve_sparse(&self, a: &SparseTri, b: &Matrix) -> Result<Solution<Matrix>> {
        self.plan_sparse(a, b.cols())?.execute_sparse(a, b)
    }

    /// Plan and execute a distributed solve of `op(A)·X = B` on the
    /// simulated machine `l` and `b` live on.
    pub fn solve_distributed(
        &self,
        l: &DistMatrix,
        b: &DistMatrix,
    ) -> Result<Solution<DistMatrix>> {
        self.plan_distributed(l.rows(), b.cols(), l.grid().comm().size())?
            .execute_distributed(l, b)
    }

    /// The sparse execution options this request lowers to.
    fn sparse_opts(&self) -> sparse::SolveOpts {
        let mut o = sparse::SolveOpts::new().transpose(self.opts.transpose);
        if let Some(t) = self.threads {
            o = o.threads(t);
        }
        if let Some(r) = self.reuse {
            o = o.reuse(r);
        }
        o
    }
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Backend-specific part of a [`Plan`]: the chosen algorithm and its
/// concrete parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanBackend {
    /// Local dense blocked solve: GEMM panel updates between `block`-wide
    /// diagonal blocks, which are substituted through or — for a solve wide
    /// enough to pay for it — inverted and applied as triangle-aware packed
    /// products.
    Dense {
        /// `DENSE_THREADS` worker-pool size the GEMM updates may use.
        threads: usize,
        /// Width `NB` of the diagonal blocks (`dense::TRSM_BLOCK`).
        block: usize,
        /// Whether a solve `k` right-hand sides wide inverts its diagonal
        /// blocks: `dense::inverts_diagonal_blocks(k)`, the same function
        /// the kernel decides with.  The two kernels round differently, and
        /// the inverted one's residual grows with the condition number of
        /// the diagonal blocks (see `crates/dense/README.md`).
        inverts_blocks: bool,
    },
    /// Sparse executor: the sequential sweep or the level sweep.
    Sparse {
        /// Workers the executor will run with (1 = sequential sweep).
        workers: usize,
        /// Dependency levels of the schedule (0 when the pattern was never
        /// analysed; kept when the rule analysed it and stayed sequential).
        levels: usize,
        /// Contiguous runs of the schedule (`sparse::Schedule::num_runs`):
        /// what the go-parallel rule weighed.
        runs: usize,
        /// Barriers the executor will cross: `levels` under the level
        /// sweep, 0 sequentially.
        predicted_barriers: usize,
        /// Rows in the widest level (the level executor's parallelism
        /// ceiling).
        max_level_width: usize,
        /// Stored entries of the matrix.
        nnz: usize,
        /// Whether the executor runs on the cached transpose.
        via_transpose: bool,
    },
    /// Distributed algorithm on the simulated machine.
    Distributed {
        /// The resolved algorithm (never [`Algorithm::Auto`]).
        algorithm: Algorithm,
        /// Number of simulated processors.
        p: usize,
        /// The planner's full parameter selection when `Auto` resolved it.
        params: Option<planner::Plan>,
    },
}

/// An inspectable, executable lowering of a [`SolveRequest`]: the chosen
/// algorithm, its parameters, and the predicted cost — *before* anything
/// runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Operand dimension.
    pub n: usize,
    /// Number of right-hand sides.
    pub k: usize,
    /// The request this plan was lowered from, whole: the executors read
    /// the solve options, pins and residual flag from here.
    pub request: SolveRequest,
    /// Backend-specific algorithm choice and parameters.
    pub backend: PlanBackend,
    /// Predicted flop count (the `γ·F` term).
    pub predicted_flops: FlopCount,
    /// Predicted α–β–γ critical-path cost (distributed plans, and sparse
    /// plans — whose latency term counts the barriers the plan will cross,
    /// via `costmodel::sparse_solve_cost`; with a declared
    /// [`SolveRequest::reuse`], via
    /// `costmodel::sparse_solve_cost_amortized`, which adds the analysis
    /// bill amortized over that many applies).
    pub predicted_cost: Option<Cost>,
    /// The Section VIII regime (distributed plans only).
    pub regime: Option<Regime>,
}

/// The two kernels of the blocked dense solve, by name.
fn dense_algorithm_name(inverts_blocks: bool) -> &'static str {
    if inverts_blocks {
        "dense blocked solve, inverted diagonal blocks"
    } else {
        "dense blocked substitution"
    }
}

/// The two sparse executors, by name.
fn sparse_algorithm_name(workers: usize) -> &'static str {
    if workers > 1 {
        "sparse level-scheduled parallel sweep"
    } else {
        "sparse sequential sweep"
    }
}

impl Plan {
    /// Human-readable name of the algorithm this plan executes.
    pub fn algorithm_name(&self) -> &'static str {
        match &self.backend {
            PlanBackend::Dense { inverts_blocks, .. } => dense_algorithm_name(*inverts_blocks),
            PlanBackend::Sparse { workers, .. } => sparse_algorithm_name(*workers),
            PlanBackend::Distributed { algorithm, .. } => match algorithm {
                Algorithm::Auto => "auto",
                Algorithm::Recursive { .. } => "recursive",
                Algorithm::IterativeInversion(_) => "iterative inversion-based",
                Algorithm::Wavefront => "wavefront",
            },
        }
    }

    /// A plan is only valid for operands shaped like the one it was
    /// lowered against; executing it on a different matrix would silently
    /// invalidate everything the plan recorded.
    fn check_dense_operand(&self, a: &Matrix) -> Result<()> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(config_error(
                "plan",
                format!(
                    "planned for an {0}×{0} operand, got {1}×{2}",
                    self.n,
                    a.rows(),
                    a.cols()
                ),
            ));
        }
        Ok(())
    }

    /// See [`Plan::check_dense_operand`]: the sparse plan additionally
    /// recorded the matrix's triangle and diagonal kind, which the request
    /// was validated against at planning time.
    fn check_sparse_operand(&self, a: &SparseTri) -> Result<()> {
        let opts = self.request.opts;
        if a.n() != self.n || a.triangle() != opts.triangle || a.diag() != opts.diag {
            return Err(config_error(
                "plan",
                format!(
                    "planned for an n = {} {:?} {:?} matrix, got n = {} {:?} {:?}",
                    self.n,
                    opts.triangle,
                    opts.diag,
                    a.n(),
                    a.triangle(),
                    a.diag()
                ),
            ));
        }
        Ok(())
    }

    fn report(&self, algorithm: &'static str, flops: FlopCount) -> SolveReport {
        SolveReport {
            algorithm,
            flops,
            comm: None,
            phases: None,
            levels: None,
            residual: None,
        }
    }

    // -- dense -------------------------------------------------------------

    /// Execute this dense plan, returning the solution and report.
    pub fn execute_dense(&self, a: &Matrix, b: &Matrix) -> Result<Solution<Matrix>> {
        let mut x = b.clone();
        let mut report = self.execute_dense_in_place(a, &mut x)?;
        if self.request.residual {
            report.residual = Some(dense_residual(&self.request.opts, a, &x, b)?);
        }
        Ok(Solution { x, report })
    }

    /// Execute this dense plan in place with the blocked kernel: `b` — a
    /// `&mut Matrix` or any [`MatMut`] block — holds `B` on entry and `X` on
    /// exit, and nothing is allocated.  (The residual option is skipped:
    /// `B` is consumed.)
    pub fn execute_dense_in_place<'b>(
        &self,
        a: &Matrix,
        b: impl Into<MatMut<'b>>,
    ) -> Result<SolveReport> {
        let b = b.into();
        // Named from the block actually handed in, so the report says what
        // ran even if the caller's `B` is not as wide as the plan's `k`.
        let k = match self.request.opts.side {
            Side::Left => b.cols(),
            Side::Right => b.rows(),
        };
        let algorithm = dense_algorithm_name(dense::inverts_diagonal_blocks(k));
        self.run_dense(algorithm, a, |opts| dense::trsm_in_place_opts(opts, a, b))
    }

    /// Execute this dense plan for one right-hand side in place with the
    /// row-substitution kernel [`dense::trsv_in_place_opts`], allocating
    /// nothing.
    ///
    /// This is the one place a vector is *not* just the `n×1` view of the
    /// block executor: with a single column the blocked kernel's GEMM
    /// updates degenerate to dot products, so vectors get their own kernel
    /// — and the two round differently, so the choice stays with the
    /// caller's type instead of being inferred from the shape (an `n×1`
    /// `Matrix` keeps the bits of [`dense::trsm()`]).
    pub fn execute_dense_vec_in_place(&self, a: &Matrix, x: &mut [f64]) -> Result<SolveReport> {
        self.run_dense("dense substitution (single RHS)", a, |opts| {
            dense::trsv_in_place_opts(opts, a, x)
        })
    }

    /// The part every dense execution shares: backend and operand checks,
    /// the `execute` span, the report.
    fn run_dense(
        &self,
        algorithm: &'static str,
        a: &Matrix,
        kernel: impl FnOnce(&SolveOpts) -> dense::Result<FlopCount>,
    ) -> Result<SolveReport> {
        let PlanBackend::Dense { .. } = self.backend else {
            return Err(config_error("plan", "not a dense plan"));
        };
        self.check_dense_operand(a)?;
        let flops = {
            let _span = obs::span_with("core", "execute", "n", self.n as u64);
            kernel(&self.request.opts)?
        };
        Ok(self.report(algorithm, flops))
    }

    // -- sparse ------------------------------------------------------------

    /// Execute this sparse plan for a block of right-hand sides.
    pub fn execute_sparse(&self, a: &SparseTri, b: &Matrix) -> Result<Solution<Matrix>> {
        let mut x = b.clone();
        let mut report = self.execute_sparse_in_place(a, &mut x)?;
        if self.request.residual {
            let e = a.executor(self.request.opts.transpose);
            report.residual = Some(sparse_residual(e, &x, b));
        }
        Ok(Solution { x, report })
    }

    /// Execute this sparse plan in place: `x` — a `&mut Matrix`, a
    /// `&mut [f64]` (its `n×1` view) or any [`MatMut`] block — holds `B` on
    /// entry and `X` on exit, allocating nothing beyond the (cached)
    /// analysis.  (The residual option is skipped: `B` is consumed.)
    ///
    /// This is the shared-plan steady-state path: the plan and the operand
    /// are only ever *borrowed* (callers typically hold them behind
    /// `Arc<Plan>` / `Arc<SparseTri>`, both `Send + Sync`).
    pub fn execute_sparse_in_place<'x>(
        &self,
        a: &SparseTri,
        x: impl Into<MatMut<'x>>,
    ) -> Result<SolveReport> {
        let PlanBackend::Sparse { .. } = self.backend else {
            return Err(config_error("plan", "not a sparse plan"));
        };
        self.check_sparse_operand(a)?;
        let x = x.into();
        let k = x.cols();
        let shape = {
            let _span = obs::span_with("core", "execute", "n", self.n as u64);
            a.solve_multi_shaped(&self.request.sparse_opts(), x)?
        };
        // Named and reported from the shape the executor returned, so the
        // report says what ran even if the caller's `B` is not as wide as
        // the plan's `k`.
        let mut report = self.report(sparse_algorithm_name(shape.workers), a.solve_flops(k));
        report.levels = Some(LevelReport {
            workers: shape.workers,
            levels: shape.levels,
            barriers: shape.barriers,
        });
        Ok(report)
    }

    /// [`Plan::execute_sparse_in_place`] for one right-hand-side slice (the
    /// name the frozen `perfbench/` package calls).
    pub fn execute_sparse_vec_in_place(&self, a: &SparseTri, x: &mut [f64]) -> Result<SolveReport> {
        self.execute_sparse_in_place(a, x)
    }

    // -- distributed -------------------------------------------------------

    /// Execute this distributed plan on the simulated machine `l` and `b`
    /// live on, returning `X` in `b`'s layout.
    ///
    /// The report carries this rank's communication-counter delta for the
    /// whole solve, the per-phase breakdown when the iterative
    /// inversion-based algorithm ran, and the measured flops — every
    /// algorithm feeds the same report shape.
    pub fn execute_distributed(
        &self,
        l: &DistMatrix,
        b: &DistMatrix,
    ) -> Result<Solution<DistMatrix>> {
        let PlanBackend::Distributed { algorithm, .. } = &self.backend else {
            return Err(config_error("plan", "not a distributed plan"));
        };
        if l.rows() != self.n || l.cols() != self.n {
            return Err(config_error(
                "plan",
                format!(
                    "planned for an {0}×{0} operand, got {1}×{2}",
                    self.n,
                    l.rows(),
                    l.cols()
                ),
            ));
        }
        let comm = l.grid().comm();
        let before = comm.counters();
        let span = obs::span_with("core", "execute", "n", self.n as u64);

        // Apply op(A): the *cached* transpose if requested (one
        // all-to-all on the first transposed solve of this matrix, reused
        // by every subsequent one — so the Cholesky/LU apps' repeated
        // backward substitutions redistribute once, not per solve), then
        // the *cached* implicit-unit diagonal overlay if requested (a
        // purely local copy, built once per matrix and invalidated with
        // the transpose cache by mutators).
        let opts = self.request.opts;
        let op_a = match opts.transpose {
            Transpose::No => l,
            Transpose::Yes => l.try_transposed()?,
        };
        let solve_mat = match opts.diag {
            Diag::NonUnit => op_a,
            Diag::Unit => op_a.unit_diagonal(),
        };

        // Solve: effective-lower directly, effective-upper via the reversal
        // permutation (J·U·J is lower triangular).
        let (x, phases) = match opts.op_triangle() {
            Triangle::Lower => run_lower(solve_mat, b, *algorithm)?,
            Triangle::Upper => {
                let l_rev = reverse_both(solve_mat)?;
                let b_rev = reverse_rows(b)?;
                let (x_rev, phases) = run_lower(&l_rev, &b_rev, *algorithm)?;
                (reverse_rows(&x_rev)?, phases)
            }
        };
        drop(span);
        let delta = comm.counters().since(&before);

        let mut report = self.report(self.algorithm_name(), FlopCount::new(delta.flops));
        report.comm = Some(delta);
        report.phases = phases;
        if self.request.residual {
            // Residual verification communicates; it runs outside the
            // measured window on the op-applied matrix.
            report.residual = Some(verify::residual(solve_mat, &x, b)?);
        }
        Ok(Solution { x, report })
    }

    // -- cost drift --------------------------------------------------------

    /// Line up this plan's *predicted* α–β–γ cost against what `report`
    /// measured, priced on `machine`.
    ///
    /// Every backend contributes a total row.  Distributed reports measure
    /// messages, words and flops from this rank's communication-counter
    /// delta, with the virtual-clock advance attached as the measured time
    /// — so predicted and measured times are in the same model seconds
    /// whenever `machine` matches the simulated `MachineParams`.  Sparse
    /// reports measure the barriers actually crossed and each worker's
    /// flop share; dense reports measure flops only.  Iterative
    /// inversion-based solves additionally contribute one row per Section
    /// VII phase (inversion / solve / update), with the per-phase formulas
    /// of `costmodel::itinv` on the predicted side.
    pub fn drift_report(
        &self,
        report: &SolveReport,
        machine: costmodel::Machine,
    ) -> costmodel::DriftReport {
        let mut out = costmodel::DriftReport::new(machine);
        let predicted = self.predicted_cost.unwrap_or(Cost {
            latency: 0.0,
            bandwidth: 0.0,
            flops: self.predicted_flops.get() as f64,
        });
        match &self.backend {
            PlanBackend::Dense { .. } => {
                out.push(costmodel::DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    Cost::new(0.0, 0.0, report.flops.get() as f64),
                ));
            }
            PlanBackend::Sparse { workers, .. } => {
                let (barriers, w) = report.levels.map_or((0.0, *workers as f64), |lr| {
                    (lr.barriers as f64, lr.workers as f64)
                });
                let w = w.max(1.0);
                let measured = Cost::new(
                    barriers * costmodel::cost::log2c(w),
                    barriers * self.k as f64,
                    report.flops.get() as f64 / w,
                );
                out.push(costmodel::DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    measured,
                ));
            }
            PlanBackend::Distributed { algorithm, .. } => {
                let mut row = costmodel::DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    report.comm.as_ref().map_or(Cost::ZERO, counters_cost),
                );
                if let Some(c) = report.comm {
                    row = row.with_seconds(c.time);
                }
                out.push(row);
                if let (Algorithm::IterativeInversion(cfg), Some(ph)) = (algorithm, &report.phases)
                {
                    let (n, k) = (self.n as f64, self.k as f64);
                    let (p1, p2, n0) = (cfg.p1 as f64, cfg.p2 as f64, cfg.n0 as f64);
                    // The inversion sub-grids are r1 × r1 × r2 with
                    // r1²·r2 = p·n0/n (Section VII-A); derive a feasible
                    // shape the same way the tuned planner does.
                    let q = (p1 * p1 * p2 * n0 / n).max(1.0);
                    let r1 = q.sqrt().floor().max(1.0);
                    let r2 = (q / (r1 * r1)).max(1.0);
                    for (name, pred, meas) in [
                        (
                            "itinv: inversion",
                            costmodel::itinv::inversion_phase(n, n0, r1, r2),
                            &ph.inversion,
                        ),
                        (
                            "itinv: solve",
                            costmodel::itinv::solve_phase(n, k, n0, p1, p2),
                            &ph.solve,
                        ),
                        (
                            "itinv: update",
                            costmodel::itinv::update_phase(n, k, n0, p1, p2),
                            &ph.update,
                        ),
                    ] {
                        out.push(
                            costmodel::DriftRow::new(name, pred, counters_cost(meas))
                                .with_seconds(meas.time),
                        );
                    }
                }
            }
        }
        out
    }
}

// Shared-plan audit: one lowered plan serves concurrent requests — the
// `serve` crate hands the same `Arc<Plan>` to every thread that hits its
// cache — so the plan and everything it embeds must be `Send + Sync`.
// Asserted at compile time here: caching a `Rc`, `Cell`, or raw pointer on
// the plan would fail this build, not a downstream crate's.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Plan>();
    assert_send_sync::<SolveRequest>();
    assert_send_sync::<SolveReport>();
};

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n = {}, k = {}, {:?} {:?}{}{})",
            self.algorithm_name(),
            self.n,
            self.k,
            self.request.opts.triangle,
            self.request.opts.diag,
            if self.request.opts.transpose == Transpose::Yes {
                ", transposed"
            } else {
                ""
            },
            match &self.backend {
                PlanBackend::Dense {
                    threads,
                    block,
                    inverts_blocks,
                } => format!(
                    ", NB = {block} ({}), {threads} worker(s)",
                    if *inverts_blocks {
                        "k >= NB: diagonal blocks inverted"
                    } else {
                        "k < NB: diagonal blocks substituted"
                    }
                ),
                PlanBackend::Sparse {
                    workers,
                    levels,
                    runs,
                    predicted_barriers,
                    max_level_width,
                    nnz,
                    ..
                } => {
                    // Re-asks the rule with what the plan recorded, so the
                    // line is the decision's own account of itself.
                    let opts = self.request.sparse_opts();
                    let why = sparse::level_rule(opts.budget(), *nnz, self.k, opts.reuse, || {
                        (*runs, *max_level_width)
                    });
                    format!(
                        ", nnz = {nnz}, {workers} worker(s), {levels} level(s) in {runs} \
                         run(s), {predicted_barriers} barrier(s): {why}"
                    )
                }
                PlanBackend::Distributed { algorithm, p, .. } =>
                    format!(", p = {p}, {algorithm:?}"),
            }
        )
    }
}

// ---------------------------------------------------------------------------
// Solution & SolveReport
// ---------------------------------------------------------------------------

/// The outcome of executing a [`Plan`]: the solution `X` plus the uniform
/// measured report.
#[derive(Debug, Clone)]
pub struct Solution<X> {
    /// The solution of `op(A)·X = B` (or `X·op(A) = B`).
    pub x: X,
    /// What the execution measured.
    pub report: SolveReport,
}

/// Level/barrier shape of a sparse execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelReport {
    /// Workers the executor ran with.
    pub workers: usize,
    /// Dependency levels of the schedule (0 when the pattern was never
    /// analysed; kept when the rule analysed it and stayed sequential).
    pub levels: usize,
    /// Barriers each worker actually waited on: one per level under the
    /// level sweep, none sequentially.
    pub barriers: usize,
}

/// The uniform measured report every backend fills.
///
/// The dense backend reports the substitution [`FlopCount`]; the sparse
/// backend additionally reports its [`LevelReport`]; the distributed
/// backend reports this rank's communication-counter delta and — for the
/// iterative inversion-based algorithm — the Section VII per-phase
/// breakdown.  The residual is attached when the request asked for it.
///
/// A trace is not part of the report: a caller that wants one runs the
/// solve under [`obs::Recorder::record`] and reads the recorder
/// (`rec.report()`), which holds that solve's spans — pool workers and
/// simulated ranks included — and nobody else's.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Name of the algorithm that ran.
    pub algorithm: &'static str,
    /// Measured flops (local count, or this rank's charged flops for
    /// distributed solves).
    pub flops: FlopCount,
    /// This rank's communication counters for the solve (distributed).
    pub comm: Option<CostCounters>,
    /// Per-phase cost breakdown (iterative inversion-based solves).
    pub phases: Option<PhaseBreakdown>,
    /// Level/barrier counts (sparse).
    pub levels: Option<LevelReport>,
    /// Relative residual, when requested.
    pub residual: Option<f64>,
}

impl SolveReport {
    /// Message retransmissions this rank performed during a distributed
    /// solve under an active fault plan (0 otherwise).
    pub fn retries(&self) -> u64 {
        self.comm.map_or(0, |c| c.retries)
    }

    /// Injected message drops this rank's sends absorbed (each one costs a
    /// retry; 0 without a fault plan).
    pub fn dropped(&self) -> u64 {
        self.comm.map_or(0, |c| c.dropped)
    }

    /// Duplicate deliveries this rank injected (suppressed by receive-side
    /// dedup; 0 without a fault plan).
    pub fn duplicates(&self) -> u64 {
        self.comm.map_or(0, |c| c.duplicates)
    }

    /// Sends that exhausted the retry budget on this rank — each one also
    /// surfaced as a [`simnet::SimError::Timeout`] through the solve's
    /// `Result` (0 on a successful solve).
    pub fn timeouts(&self) -> u64 {
        self.comm.map_or(0, |c| c.timeouts)
    }

    /// Virtual seconds of local compute this rank performed *under* a
    /// posted send during a distributed solve — the communication the
    /// machine's overlap model hid.  Nonzero only when the machine ran
    /// with [`simnet::MachineParams::with_overlap`]; always 0 under the
    /// default blocking-send timing.
    pub fn overlap_seconds(&self) -> f64 {
        self.comm.as_ref().map_or(0.0, |c| c.overlap)
    }
}

// ---------------------------------------------------------------------------
// Internal helpers
// ---------------------------------------------------------------------------

/// Measured α–β–γ counts of one rank's communication-counter delta: the
/// full-duplex message maximum, the word maximum, and the charged flops.
fn counters_cost(c: &CostCounters) -> Cost {
    Cost::new(c.latency() as f64, c.bandwidth() as f64, c.flops as f64)
}

/// Run one resolved algorithm on an effective lower-triangular system.
fn run_lower(
    l: &DistMatrix,
    b: &DistMatrix,
    algorithm: Algorithm,
) -> Result<(DistMatrix, Option<PhaseBreakdown>)> {
    match algorithm {
        Algorithm::Auto => Err(config_error(
            "solve",
            "Auto must be resolved during planning",
        )),
        Algorithm::IterativeInversion(cfg) => {
            let (x, phases) = it_inv_trsm(l, b, &cfg)?;
            Ok((x, Some(phases)))
        }
        Algorithm::Recursive { base_size } => {
            let x = rec_trsm(l, b, &RecTrsmConfig { base_size })?;
            Ok((x, None))
        }
        Algorithm::Wavefront => Ok((wavefront_trsm(l, b)?, None)),
    }
}

/// Relative residual `‖op(A)·X − B‖_F / (‖A‖_F·‖X‖_F + ‖B‖_F)` for a local
/// dense solve.
fn dense_residual(opts: &SolveOpts, a: &Matrix, x: &Matrix, b: &Matrix) -> Result<f64> {
    // The solver reads only the declared triangle (and, for Diag::Unit, an
    // implicit unit diagonal), so the residual must measure that effective
    // operand: callers may legitimately store other data in the ignored
    // triangle (e.g. a combined LU workspace).
    let mut a_eff_storage = match opts.triangle {
        Triangle::Lower => a.lower_triangular_part(),
        Triangle::Upper => a.upper_triangular_part(),
    };
    if opts.diag == Diag::Unit {
        for i in 0..a_eff_storage.rows() {
            a_eff_storage[(i, i)] = 1.0;
        }
    }
    let a_eff = &a_eff_storage;
    let mut p = Matrix::zeros(b.rows(), b.cols());
    match (opts.side, opts.transpose) {
        (Side::Left, Transpose::No) => dense::gemm(1.0, a_eff, x, 0.0, &mut p)?,
        (Side::Left, Transpose::Yes) => dense::gemm_at_b(1.0, a_eff, x, 0.0, &mut p)?,
        (Side::Right, Transpose::No) => dense::gemm(1.0, x, a_eff, 0.0, &mut p)?,
        (Side::Right, Transpose::Yes) => dense::gemm_a_bt(1.0, x, a_eff, 0.0, &mut p)?,
    };
    let diff_sq: f64 = p
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(got, want)| (got - want) * (got - want))
        .sum();
    let a_sq: f64 = a_eff.as_slice().iter().map(|v| v * v).sum();
    let x_sq: f64 = x.as_slice().iter().map(|v| v * v).sum();
    let b_sq: f64 = b.as_slice().iter().map(|v| v * v).sum();
    let denom = a_sq.sqrt() * x_sq.sqrt() + b_sq.sqrt();
    Ok(if denom == 0.0 {
        diff_sq.sqrt()
    } else {
        diff_sq.sqrt() / denom
    })
}

/// Relative residual for a sparse solve, computed against the executor
/// matrix `e` (already op-applied): `‖E·X − B‖_F / (‖E‖_F·‖X‖_F + ‖B‖_F)`.
fn sparse_residual(e: &SparseTri, x: &Matrix, b: &Matrix) -> f64 {
    let n = e.n();
    let k = x.cols();
    let mut diff_sq = 0.0;
    for i in 0..n {
        let (cols, vals) = e.row_entries(i);
        for c in 0..k {
            let mut acc = e.diag_value(i) * x[(i, c)];
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[(j, c)];
            }
            let d = acc - b[(i, c)];
            diff_sq += d * d;
        }
    }
    let mut e_sq: f64 = (0..n).map(|i| e.diag_value(i) * e.diag_value(i)).sum();
    for i in 0..n {
        let (_, vals) = e.row_entries(i);
        e_sq += vals.iter().map(|v| v * v).sum::<f64>();
    }
    let x_sq: f64 = x.as_slice().iter().map(|v| v * v).sum();
    let b_sq: f64 = b.as_slice().iter().map(|v| v * v).sum();
    let denom = e_sq.sqrt() * x_sq.sqrt() + b_sq.sqrt();
    if denom == 0.0 {
        diff_sq.sqrt()
    } else {
        diff_sq.sqrt() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::it_inv_trsm::ItInvConfig;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};
    use sparse::gen as sgen;

    /// One right-hand-side vector through a sparse plan's in-place executor.
    fn sparse_vec(plan: &Plan, m: &SparseTri, b: &[f64]) -> (Vec<f64>, SolveReport) {
        let mut x = b.to_vec();
        let report = plan.execute_sparse_in_place(m, x.as_mut_slice()).unwrap();
        (x, report)
    }

    // -- dense -------------------------------------------------------------

    #[test]
    fn dense_plan_and_execution_round_trip() {
        let n = 130;
        let k = 7;
        let l = gen::well_conditioned_lower(n, 1);
        let x_true = gen::rhs(n, k, 2);
        let b = dense::matmul(&l, &x_true);
        let req = SolveRequest::lower().with_residual();
        let plan = req.plan_dense(n, k).unwrap();
        assert!(matches!(plan.backend, PlanBackend::Dense { .. }));
        assert_eq!(plan.predicted_flops, trsm_flops(n, k));
        let sol = plan.execute_dense(&l, &b).unwrap();
        assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
        assert_eq!(sol.report.flops, trsm_flops(n, k));
        assert!(sol.report.residual.unwrap() < 1e-12);
        assert!(sol.report.comm.is_none());
        // Old entry point and new API agree bitwise.
        let old = dense::trsm(Triangle::Lower, Diag::NonUnit, &l, &b).unwrap();
        assert_eq!(old, sol.x);
    }

    #[test]
    fn dense_transposed_request_solves_lt() {
        let n = 90;
        let k = 5;
        let l = gen::well_conditioned_lower(n, 3);
        let x_true = gen::rhs(n, k, 4);
        let b = dense::gemm::matmul(&l.transpose(), &x_true);
        let sol = SolveRequest::lower()
            .transposed()
            .with_residual()
            .solve_dense(&l, &b)
            .unwrap();
        assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-8);
        assert!(sol.report.residual.unwrap() < 1e-12);
    }

    #[test]
    fn dense_vec_and_unit_diagonal() {
        let n = 64;
        let mut l = gen::well_conditioned_lower(n, 5);
        for i in 0..n {
            l[(i, i)] = 123.0; // must be ignored under Diag::Unit
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut l_unit = l.clone();
        for i in 0..n {
            l_unit[(i, i)] = 1.0;
        }
        let xt = Matrix::from_vec(n, 1, x_true.clone()).unwrap();
        let b = dense::matmul(&l_unit, &xt);
        let req = SolveRequest::lower().unit_diagonal().with_residual();
        let sol = req.solve_dense(&l, &b).unwrap();
        for (got, want) in sol.x.as_slice().iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
        assert!(sol.report.residual.unwrap() < 1e-12);
        // The vector executor is bitwise the `trsv` kernel; the n×1 view of
        // the same data through the block executor is bitwise `trsm` (what
        // the allocating form returned above), however the view was built.
        let plan = req.plan_dense(n, 1).unwrap();
        let mut want = b.as_slice().to_vec();
        dense::trsv_in_place_opts(&req.opts(), &l, &mut want).unwrap();
        let mut via_vec = b.as_slice().to_vec();
        plan.execute_dense_vec_in_place(&l, &mut via_vec).unwrap();
        assert_eq!(via_vec, want);
        let mut of_slice = b.as_slice().to_vec();
        plan.execute_dense_in_place(&l, of_slice.as_mut_slice())
            .unwrap();
        let mut of_matrix = b.clone();
        plan.execute_dense_in_place(&l, of_matrix.as_view_mut())
            .unwrap();
        assert_eq!(of_slice, sol.x.as_slice());
        assert_eq!(of_matrix, sol.x);
        for (v, m) in via_vec.iter().zip(&of_slice) {
            assert!((v - m).abs() < 1e-10, "the two kernels agree to rounding");
        }
    }

    #[test]
    fn plan_backend_mismatch_is_rejected() {
        let plan = SolveRequest::lower().plan_dense(8, 1).unwrap();
        let m = sgen::random_lower(8, 2, 1);
        let mut x = [1.0; 8];
        assert!(plan.execute_sparse_in_place(&m, &mut x[..]).is_err());
        let l = gen::well_conditioned_lower(8, 1);
        let sparse_plan = SolveRequest::lower().plan_sparse(&m, 1).unwrap();
        assert!(sparse_plan.execute_dense_vec_in_place(&l, &mut x).is_err());
    }

    #[test]
    fn plan_rejects_operands_it_was_not_lowered_for() {
        // A sparse plan validated against a lower matrix must not silently
        // execute against an upper (or differently sized) one.
        let lower = sgen::random_lower(16, 2, 1);
        let upper = sgen::random_upper(16, 2, 2);
        let plan = SolveRequest::lower().plan_sparse(&lower, 1).unwrap();
        assert!(plan
            .execute_sparse_in_place(&upper, &mut [1.0; 16][..])
            .is_err());
        let small = sgen::random_lower(8, 2, 3);
        assert!(plan
            .execute_sparse_in_place(&small, &mut [1.0; 8][..])
            .is_err());
        // Same for dense plans.
        let dplan = SolveRequest::lower().plan_dense(16, 1).unwrap();
        let wrong = gen::well_conditioned_lower(8, 4);
        assert!(dplan
            .execute_dense_vec_in_place(&wrong, &mut [1.0; 8])
            .is_err());
    }

    #[test]
    fn dense_residual_ignores_the_opposite_triangle() {
        // A combined-workspace operand (garbage in the triangle the solver
        // never reads) must still report a tiny residual for a correct
        // solve.
        let n = 40;
        let l = gen::well_conditioned_lower(n, 9);
        let x_true = gen::rhs(n, 3, 10);
        let b = dense::matmul(&l, &x_true);
        let mut workspace = l.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                workspace[(i, j)] = 1e6; // "U" half of an LU workspace
            }
        }
        let sol = SolveRequest::lower()
            .with_residual()
            .solve_dense(&workspace, &b)
            .unwrap();
        assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
        assert!(
            sol.report.residual.unwrap() < 1e-12,
            "residual must measure the effective triangular operand, got {}",
            sol.report.residual.unwrap()
        );
    }

    // -- sparse ------------------------------------------------------------

    #[test]
    fn sparse_plan_reports_levels_and_workers() {
        // 25 levels of 2 048 rows, ~14 000 stored entries each: heavy
        // enough for a budget of 4 to become 4 workers.
        let n = 51_200;
        let m = sgen::deep_narrow_lower(n, 2048, 6, 7);
        let b = sgen::rhs_vec(n, 8);
        let req = SolveRequest::lower().threads(4);
        let plan = req.plan_sparse(&m, 1).unwrap();
        let PlanBackend::Sparse {
            workers,
            levels,
            runs,
            predicted_barriers,
            max_level_width,
            nnz,
            via_transpose,
        } = plan.backend
        else {
            panic!("expected a sparse plan");
        };
        assert_eq!(
            workers, 4,
            "heavy levels turn the whole budget into workers"
        );
        assert_eq!((levels, runs, max_level_width), (25, 25, 2048));
        assert_eq!(predicted_barriers, levels, "one barrier per level");
        assert_eq!(nnz, m.nnz());
        assert!(!via_transpose);
        assert_eq!(
            plan.algorithm_name(),
            "sparse level-scheduled parallel sweep"
        );
        let cost = plan.predicted_cost.expect("sparse plans carry a cost");
        assert!(cost.latency > 0.0 && cost.flops > 0.0);
        let (x, report) = sparse_vec(&plan, &m, &b);
        assert_eq!(
            report.levels.unwrap(),
            LevelReport {
                workers,
                levels,
                barriers: predicted_barriers
            }
        );
        assert_eq!(report.algorithm, plan.algorithm_name());
        assert_eq!(report.flops, m.solve_flops(1));
        // Identical to the raw executor's slice path, and so is the n×1 view
        // of a matrix through the same in-place executor.
        let mut direct = b.clone();
        m.solve_with(&sparse::SolveOpts::new().threads(4), &mut direct)
            .unwrap();
        assert_eq!(x, direct);
        let mut via_view = Matrix::from_vec(n, 1, b.clone()).unwrap();
        let view_report = plan
            .execute_sparse_in_place(&m, via_view.as_view_mut())
            .unwrap();
        assert_eq!(via_view.as_slice(), direct);
        assert_eq!(view_report.levels, report.levels);
        // And bitwise what a budget of 1 computes.
        let seq_plan = SolveRequest::lower().threads(1).plan_sparse(&m, 1).unwrap();
        assert_eq!(sparse_vec(&seq_plan, &m, &b).0, x);
    }

    #[test]
    fn sparse_plans_kept_sequential_report_the_analysed_shape() {
        // A band chains every row: 20 000 one-row levels.  The rule looks,
        // declines, and both the plan and the measured report keep what it
        // saw — built from the shape the executor returned, not a second
        // resolution.
        let m = sgen::banded_lower(20_000, 4, 19);
        let b = sgen::rhs_vec(m.n(), 8);
        let plan = SolveRequest::lower().threads(4).plan_sparse(&m, 1).unwrap();
        let PlanBackend::Sparse {
            workers,
            levels,
            predicted_barriers,
            max_level_width,
            ..
        } = plan.backend
        else {
            panic!("expected a sparse plan");
        };
        assert_eq!((workers, predicted_barriers), (1, 0));
        assert_eq!((levels, max_level_width), (20_000, 1));
        assert_eq!(plan.predicted_cost.unwrap().latency, 0.0);
        let (_, report) = sparse_vec(&plan, &m, &b);
        assert_eq!(
            report.levels.unwrap(),
            LevelReport {
                workers: 1,
                levels: 20_000,
                barriers: 0
            }
        );
        assert_eq!(report.algorithm, "sparse sequential sweep");
        assert_eq!(m.analysis_count(), 1);
    }

    #[test]
    fn sparse_transposed_and_residual() {
        let n = 400;
        let m = sgen::random_lower(n, 6, 11);
        let b = sgen::rhs_vec(n, 12);
        let sol = SolveRequest::lower()
            .transposed()
            .with_residual()
            .solve_sparse(&m, &Matrix::from_vec(n, 1, b.clone()).unwrap())
            .unwrap();
        assert!(sol.report.residual.unwrap() < 1e-12);
        // Reference: solve the materialized transpose.
        let xt = m.transpose().solve(&b).unwrap();
        assert_eq!(sol.x.as_slice(), xt);
    }

    #[test]
    fn sparse_request_validates_against_matrix() {
        let m = sgen::random_lower(32, 3, 1);
        assert!(SolveRequest::upper().plan_sparse(&m, 1).is_err());
        assert!(SolveRequest::lower()
            .unit_diagonal()
            .plan_sparse(&m, 1)
            .is_err());
        assert!(SolveRequest::lower()
            .side(Side::Right)
            .plan_sparse(&m, 1)
            .is_err());
    }

    #[test]
    fn one_shot_reuse_plans_sequential_without_analysis() {
        // A declared one-shot solve cannot repay an analysis, whatever the
        // pattern would have said: sequential, never analysed, no analysis
        // bill in the cost — and bitwise the level sweep's answer.
        let m = sgen::deep_narrow_lower(20_000, 2048, 6, 72);
        let b = sgen::rhs_vec(m.n(), 73);
        let plan = SolveRequest::lower()
            .threads(4)
            .reuse(1)
            .plan_sparse(&m, 1)
            .unwrap();
        let PlanBackend::Sparse {
            workers,
            levels,
            predicted_barriers,
            ..
        } = plan.backend
        else {
            panic!("expected a sparse plan");
        };
        assert_eq!((workers, levels, predicted_barriers), (1, 0, 0));
        assert_eq!(plan.algorithm_name(), "sparse sequential sweep");
        let cost = plan.predicted_cost.expect("sparse plans carry a cost");
        assert_eq!(cost.latency, 0.0, "zero barriers price zero latency");
        assert_eq!(cost.flops, 2.0 * m.nnz() as f64, "no analysis bill");
        let (x, report) = sparse_vec(&plan, &m, &b);
        let lr = report.levels.unwrap();
        assert_eq!((lr.workers, lr.levels, lr.barriers), (1, 0, 0));
        assert_eq!(m.analysis_count(), 0, "one-shot plans never analyze");
        // A declared 100-apply loop amortizes the analysis and takes the
        // level sweep on the same factor.
        let plan = SolveRequest::lower()
            .threads(4)
            .reuse(100)
            .plan_sparse(&m, 1)
            .unwrap();
        let PlanBackend::Sparse {
            workers,
            levels,
            predicted_barriers,
            ..
        } = plan.backend
        else {
            panic!("expected a sparse plan");
        };
        assert_eq!(workers, 4);
        assert_eq!(predicted_barriers, levels);
        let cost = plan.predicted_cost.unwrap();
        assert!(cost.latency > 0.0, "the level sweep bills its barriers");
        let nnz = m.nnz() as f64;
        assert_eq!(cost.flops, 2.0 * nnz / 4.0 + nnz / 100.0);
        assert_eq!(sparse_vec(&plan, &m, &b).0, x, "bitwise identical");
    }

    #[test]
    fn sparse_sequential_plan_never_analyzes() {
        let m = sgen::random_lower(300, 3, 5);
        let plan = SolveRequest::lower().threads(1).plan_sparse(&m, 1).unwrap();
        let b = sgen::rhs_vec(300, 6);
        let (_, report) = sparse_vec(&plan, &m, &b);
        assert_eq!(report.levels.unwrap().workers, 1);
        assert_eq!(report.levels.unwrap().barriers, 0);
        assert_eq!(m.analysis_count(), 0, "sequential plans stay analysis-free");
    }

    // -- distributed -------------------------------------------------------

    fn dist_instance(
        grid: &Grid2D,
        n: usize,
        k: usize,
        seed: u64,
    ) -> (DistMatrix, DistMatrix, Matrix) {
        let l_global = gen::well_conditioned_lower(n, seed);
        let x_true = gen::rhs(n, k, seed + 1);
        let b_global = dense::matmul(&l_global, &x_true);
        (
            DistMatrix::from_global(grid, &l_global),
            DistMatrix::from_global(grid, &b_global),
            x_true,
        )
    }

    #[test]
    fn distributed_auto_plan_is_inspectable_and_executes() {
        let n = 64;
        let k = 16;
        let out = Machine::new(4, MachineParams::cluster())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let (l, b, x_true) = dist_instance(&grid, n, k, 21);
                let req = SolveRequest::lower().with_residual();
                let plan = req.plan_distributed(n, k, comm.size()).unwrap();
                // Auto resolved to the planner's iterative configuration.
                let PlanBackend::Distributed {
                    algorithm, params, ..
                } = &plan.backend
                else {
                    panic!("expected a distributed plan");
                };
                assert!(matches!(algorithm, Algorithm::IterativeInversion(_)));
                let params = params.clone().expect("auto records the planner plan");
                assert_eq!(params.it_inv.p1 * params.it_inv.p1 * params.it_inv.p2, 4);
                assert!(plan.predicted_cost.is_some());
                assert!(plan.regime.is_some());
                let sol = plan.execute_distributed(&l, &b).unwrap();
                let err = dense::norms::rel_diff(&sol.x.to_global(), &x_true);
                let phases = sol.report.phases.expect("it_inv attaches phases");
                let comm_delta = sol.report.comm.expect("distributed attaches counters");
                (
                    err,
                    sol.report.residual.unwrap(),
                    phases.total().flops,
                    comm_delta.flops,
                    sol.report.flops.get(),
                )
            })
            .unwrap();
        for (err, residual, phase_flops, comm_flops, report_flops) in out.results {
            assert!(err < 1e-8, "{err}");
            assert!(residual < 1e-10);
            assert_eq!(comm_flops, report_flops);
            assert!(phase_flops > 0 && phase_flops <= report_flops);
        }
    }

    #[test]
    fn every_distributed_algorithm_feeds_the_same_report() {
        let n = 64;
        let k = 16;
        for alg in [
            Algorithm::Recursive { base_size: 16 },
            Algorithm::IterativeInversion(ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 16,
                inv_base: 8,
            }),
            Algorithm::Wavefront,
        ] {
            let out = Machine::new(4, MachineParams::unit())
                .run(move |comm| {
                    let grid = Grid2D::new(comm, 2, 2).unwrap();
                    let (l, b, x_true) = dist_instance(&grid, n, k, 31);
                    let sol = SolveRequest::lower()
                        .algorithm(alg)
                        .solve_distributed(&l, &b)
                        .unwrap();
                    let err = dense::norms::rel_diff(&sol.x.to_global(), &x_true);
                    (
                        err,
                        sol.report.comm.is_some(),
                        sol.report.flops.get(),
                        sol.report.phases.is_some(),
                    )
                })
                .unwrap();
            let expect_phases = matches!(alg, Algorithm::IterativeInversion(_));
            for (err, has_comm, flops, has_phases) in out.results {
                assert!(err < 1e-8, "{alg:?}: {err}");
                assert!(has_comm, "{alg:?} must report its cost counters");
                assert_eq!(has_phases, expect_phases);
                let _ = flops;
            }
        }
    }

    #[test]
    fn distributed_transposed_and_upper_requests() {
        let n = 32;
        let k = 8;
        let out = Machine::new(4, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                // Lᵀ·X = B via the transposed request on the stored L.
                let l_global = gen::well_conditioned_lower(n, 41);
                let x_true = gen::rhs(n, k, 42);
                let bt_global = dense::gemm::matmul(&l_global.transpose(), &x_true);
                let l = DistMatrix::from_global(&grid, &l_global);
                let bt = DistMatrix::from_global(&grid, &bt_global);
                let sol_t = SolveRequest::lower()
                    .transposed()
                    .algorithm(Algorithm::Recursive { base_size: 8 })
                    .with_residual()
                    .solve_distributed(&l, &bt)
                    .unwrap();
                let err_t = dense::norms::rel_diff(&sol_t.x.to_global(), &x_true);

                // U·X = B with an upper request.
                let u_global = gen::well_conditioned_upper(n, 43);
                let xu_true = gen::rhs(n, k, 44);
                let bu_global = dense::matmul(&u_global, &xu_true);
                let u = DistMatrix::from_global(&grid, &u_global);
                let bu = DistMatrix::from_global(&grid, &bu_global);
                let sol_u = SolveRequest::upper()
                    .algorithm(Algorithm::Recursive { base_size: 8 })
                    .solve_distributed(&u, &bu)
                    .unwrap();
                let err_u = dense::norms::rel_diff(&sol_u.x.to_global(), &xu_true);
                (err_t, sol_t.report.residual.unwrap(), err_u)
            })
            .unwrap();
        for (err_t, res_t, err_u) in out.results {
            assert!(err_t < 1e-8, "transposed distributed solve: {err_t}");
            assert!(res_t < 1e-10);
            assert!(err_u < 1e-8, "upper distributed solve: {err_u}");
        }
    }

    #[test]
    fn repeated_transposed_solves_redistribute_once() {
        // The transpose all-to-all must run on the first transposed solve
        // only; later solves reuse the cached DistMatrix::transposed — the
        // repeated-backward-substitution pattern of the Cholesky/LU apps.
        let n = 32;
        let k = 8;
        let out = Machine::new(4, MachineParams::cluster())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let l_global = gen::well_conditioned_lower(n, 61);
                let x_true = gen::rhs(n, k, 62);
                let bt_global = dense::gemm::matmul(&l_global.transpose(), &x_true);
                let l = DistMatrix::from_global(&grid, &l_global);
                let bt = DistMatrix::from_global(&grid, &bt_global);
                let req = SolveRequest::lower()
                    .transposed()
                    .algorithm(Algorithm::Recursive { base_size: 8 });
                let s1 = req.solve_distributed(&l, &bt).unwrap();
                let count_after_first = l.transpose_count();
                let s2 = req.solve_distributed(&l, &bt).unwrap();
                let err = dense::norms::rel_diff(&s2.x.to_global(), &x_true);
                (
                    err,
                    count_after_first,
                    l.transpose_count(),
                    s1.report.comm.unwrap().words_sent,
                    s2.report.comm.unwrap().words_sent,
                    s1.x.to_global() == s2.x.to_global(),
                )
            })
            .unwrap();
        for (err, first, second, words1, words2, same) in out.results {
            assert!(err < 1e-8, "{err}");
            assert_eq!(first, 1, "first transposed solve runs the all-to-all");
            assert_eq!(second, 1, "second solve must reuse the cached transpose");
            assert!(
                words2 <= words1,
                "cached transpose must not re-communicate: {words2} vs {words1}"
            );
            assert!(same);
        }
    }

    #[test]
    fn distributed_unit_diagonal_ignores_stored_diagonal() {
        let n = 32;
        let k = 8;
        let out = Machine::new(4, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let mut l_global = gen::well_conditioned_lower(n, 51);
                for i in 0..n {
                    l_global[(i, i)] = 1.0;
                }
                let x_true = gen::rhs(n, k, 52);
                let b_global = dense::matmul(&l_global, &x_true);
                // Store garbage on the diagonal; Diag::Unit must ignore it.
                let mut l_garbage = l_global.clone();
                for i in 0..n {
                    l_garbage[(i, i)] = 1e6;
                }
                let l = DistMatrix::from_global(&grid, &l_garbage);
                let b = DistMatrix::from_global(&grid, &b_global);
                let request = SolveRequest::lower()
                    .unit_diagonal()
                    .algorithm(Algorithm::Wavefront);
                let sol = request.solve_distributed(&l, &b).unwrap();
                // Repeated unit-diagonal solves reuse the cached overlay:
                // it is built exactly once per DistMatrix, not per solve.
                let sol2 = request.solve_distributed(&l, &b).unwrap();
                (
                    dense::norms::rel_diff(&sol.x.to_global(), &x_true),
                    sol.x.rel_diff(&sol2.x).unwrap(),
                    l.unit_overlay_count(),
                )
            })
            .unwrap();
        for (err, repeat_diff, overlays) in out.results {
            assert!(err < 1e-8, "{err}");
            assert_eq!(repeat_diff, 0.0, "repeated solves must be bitwise equal");
            assert_eq!(
                overlays, 1,
                "unit overlay must be built once, not per solve"
            );
        }
    }

    #[test]
    fn right_side_requests_are_rejected_off_the_dense_backend() {
        assert!(SolveRequest::lower()
            .side(Side::Right)
            .plan_distributed(32, 8, 4)
            .is_err());
    }

    #[test]
    fn plan_display_is_informative() {
        let plan = SolveRequest::lower().plan_dense(128, 8).unwrap();
        let s = plan.to_string();
        assert!(s.contains("dense"));
        assert!(s.contains("128"));
        let m = sgen::random_lower(64, 2, 3);
        let sp = SolveRequest::lower().plan_sparse(&m, 1).unwrap();
        assert!(sp.to_string().contains("nnz"));
        // Why this plan, in one line, on every branch of the rule.
        let band = sgen::banded_lower(20_000, 4, 19);
        let wide = sgen::deep_narrow_lower(20_000, 2048, 6, 7);
        let budget4 = SolveRequest::lower().threads(4);
        for (plan, why) in [
            (
                SolveRequest::lower().threads(1).plan_sparse(&wide, 1),
                "not analysed (budget 1)",
            ),
            (
                budget4.plan_sparse(&m, 1),
                "not analysed (nnz·k below threshold)",
            ),
            (
                budget4.reuse(1).plan_sparse(&wide, 1),
                "not analysed (reuse 1)",
            ),
            (
                budget4.plan_sparse(&band, 1),
                "20000 level(s) in 20000 run(s), 0 barrier(s): 4 stored entries per run \
                 against a threshold of 4096: sequential",
            ),
            (
                budget4.plan_sparse(&wide, 1),
                "10 level(s) in 10 run(s), 10 barrier(s): 12771 stored entries per run \
                 against a threshold of 4096: level sweep on 4 workers",
            ),
        ] {
            let line = plan.unwrap().to_string();
            assert!(line.contains(why), "{line:?} should say {why:?}");
        }
        let dp = SolveRequest::lower().plan_distributed(256, 64, 16).unwrap();
        assert!(dp.to_string().contains("p = 16"));
    }
}
