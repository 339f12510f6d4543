//! The request: what to solve, whatever the operand.

#[cfg(doc)]
use super::plan::SolvePlan;
use crate::api::Algorithm;
use dense::{Diag, Side, SolveOpts, Transpose, Triangle};
#[cfg(doc)]
use sparse::SparseTri;

/// A backend-independent description of one triangular solve.
///
/// Built with the fluent constructors ([`SolveRequest::lower`] /
/// [`SolveRequest::upper`] plus `.transposed()`, `.unit_diagonal()`,
/// `.side(..)`, `.threads(..)`, `.algorithm(..)`, `.with_residual()`), then
/// lowered for an operand ([`SolveRequest::plan`]) or solved in one shot
/// ([`SolveRequest::solve`]).
///
/// The request is one value: a [`SolvePlan`] stores the request it was lowered
/// from, and a plan cache keys on it whole (`Eq + Hash`), so every field is
/// part of a solve's identity by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveRequest {
    pub(super) opts: SolveOpts,
    threads: Option<usize>,
    reuse: Option<usize>,
    pub(super) algorithm: Option<Algorithm>,
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
    /// [`crate::planner::plan`] returns under it.
    pub fn algorithm(mut self, algorithm: impl Into<Option<Algorithm>>) -> SolveRequest {
        self.algorithm = algorithm.into();
        self
    }

    /// Run a pre-solve numerical-health scan on a dense operand: NaN or
    /// infinite entries in the operand triangle or the right-hand side are
    /// rejected with `DenseError::NonFiniteEntry` before any arithmetic
    /// runs.  A sparse operand's entries are validated at construction, so
    /// the flag adds no scan there.  A distributed request with the flag is
    /// refused when it is planned: `DistMatrix::from_global` scans nothing
    /// and no rank scans its pieces.
    pub fn validate_finite(mut self) -> SolveRequest {
        self.opts.check_finite = true;
        self
    }

    /// Also compute the relative residual
    /// `‖op(A)·X − B‖_F / (‖A‖_F·‖X‖_F + ‖B‖_F)` after the solve and
    /// attach it to the report (skipped by [`SolvePlan::execute_in_place`],
    /// which consumes `B`).
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
