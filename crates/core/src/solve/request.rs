//! The request: what to solve, and its lowering to a [`SolvePlan`].

use super::plan::{PlanBackend, SolvePlan};
use super::report::Solution;
use crate::api::Algorithm;
use crate::error::config_error;
use crate::planner;
use crate::Result;
use costmodel::CostModelRev;
use dense::flops::solve_flops;
use dense::{Diag, FlopCount, Matrix, Side, SolveOpts, Transpose, Triangle};
use pgrid::DistMatrix;
use sparse::SparseTri;

/// A backend-independent description of one triangular solve.
///
/// Built with the fluent constructors ([`SolveRequest::lower`] /
/// [`SolveRequest::upper`] plus `.transposed()`, `.unit_diagonal()`,
/// `.side(..)`, `.threads(..)`, `.algorithm(..)`, `.with_residual()`), then
/// either lowered explicitly (`plan_dense` / `plan_sparse` /
/// `plan_distributed`) or solved in one shot (`solve_dense` /
/// `solve_sparse` / `solve_distributed`).
///
/// The request is one value: a [`SolvePlan`] stores the request it was lowered
/// from, and a plan cache keys on it whole (`Eq + Hash`), so every field is
/// part of a solve's identity by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveRequest {
    pub(super) opts: SolveOpts,
    threads: Option<usize>,
    reuse: Option<usize>,
    algorithm: Option<Algorithm>,
    pub(super) residual: bool,
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
    /// O(nnz) [`SparseTri::transposed`], and the distributed path relabels
    /// the operand's layout (`DistMatrix::transpose`), moving no word.
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

    /// Pin the distributed algorithm.  `None` (or not calling this at all)
    /// lets the Section VIII planner choose, under the paper's own bounds
    /// (`costmodel::CostModelRev::Ipdps17`).  To run the configuration
    /// another revision of the model picks, pin what
    /// [`planner::plan`] returns under it.
    pub fn algorithm(mut self, algorithm: impl Into<Option<Algorithm>>) -> SolveRequest {
        self.algorithm = algorithm.into();
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
    pub fn plan_dense(&self, n: usize, k: usize) -> Result<SolvePlan> {
        let _span = obs::span_with("planner", "plan_dense", "n", n as u64);
        Ok(SolvePlan {
            n,
            k,
            request: *self,
            predicted_flops: solve_flops(n, k),
            predicted_cost: None,
            backend: PlanBackend::Dense {
                threads: dense::dense_threads(),
                block: dense::TRSM_BLOCK,
                kernel: dense::solve_kernel(k),
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
    pub fn plan_sparse(&self, a: &SparseTri, k: usize) -> Result<SolvePlan> {
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
        Ok(SolvePlan {
            n: a.n(),
            k,
            request: *self,
            predicted_flops: a.solve_flops(k),
            predicted_cost: None,
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
    /// With no algorithm pin this is where the choice is made: the
    /// [`crate::planner`] rounds Section VIII's real-valued optimum for
    /// `(n, k, p)`, under the paper's bounds, to a feasible
    /// `p1 × p1 × p2` grid and block size — recorded on the plan as the
    /// resolved [`Algorithm`], so the choice is inspectable before (and
    /// after) execution.  A shape no grid fits, or a pinned iterative or
    /// recursive algorithm whose executor would refuse the shape (checked
    /// on the caller grid the quote assumes), is an error here, not at
    /// execution.  The plan's prediction is
    /// [`Algorithm::predicted_cost`], the walk of what the resolved
    /// algorithm runs — for the iterative one its five phases at the
    /// resolved configuration, for the recursive one its recursion at the
    /// pinned base size, for the wavefront its moves and broadcasts — so its
    /// S, W and F ([`SolvePlan::predicted_flops`] too) are the most
    /// messages, words and flops any rank will send, receive or be charged.
    pub fn plan_distributed(&self, n: usize, k: usize, p: usize) -> Result<SolvePlan> {
        let _span = obs::span_with("planner", "plan_distributed", "n", n as u64);
        if self.opts.side == Side::Right {
            return Err(config_error(
                "plan_distributed",
                "distributed solves are left-sided (op(A)·X = B)",
            ));
        }
        let algorithm = match self.algorithm {
            Some(pinned) => pinned,
            None => Algorithm::IterativeInversion(planner::plan(CostModelRev::Ipdps17, n, k, p)?),
        };
        match &algorithm {
            Algorithm::IterativeInversion(cfg) => cfg.check(n, k, p)?,
            Algorithm::Recursive { .. } => {
                let (pr, pc) = Algorithm::caller_grid(p);
                crate::rec_trsm::check(n, k, pr, pc)?;
            }
            Algorithm::Wavefront => {}
        }
        let predicted = algorithm.predicted_cost(n, k, p);
        Ok(SolvePlan {
            n,
            k,
            request: *self,
            predicted_flops: FlopCount::new(predicted.flops as u64),
            predicted_cost: Some(predicted),
            backend: PlanBackend::Distributed { algorithm, p },
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
    pub(super) fn sparse_opts(&self) -> sparse::SolveOpts {
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
