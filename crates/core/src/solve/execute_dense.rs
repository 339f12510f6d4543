//! The local dense operand: a [`Matrix`].

use super::operand::sealed::{LocalOperand, Operand};
use super::operand::{execute_local, SolveOperand};
use super::plan::{dense_algorithm_name, PlanBackend, SolvePlan};
use super::report::{Solution, SolveReport};
use super::request::SolveRequest;
use crate::error::config_error;
use crate::Result;
use dense::flops::solve_flops;
use dense::{Diag, MatMut, Matrix, Side, Transpose, Triangle};

/// The dense lowering: an `n×n` operand and `k` right-hand sides.
pub(super) fn lower(request: &SolveRequest, n: usize, k: usize) -> Result<SolvePlan> {
    let _span = obs::span_with("planner", "plan_dense", "n", n as u64);
    Ok(SolvePlan {
        n,
        k,
        request: *request,
        predicted_flops: solve_flops(n, k),
        predicted_cost: None,
        backend: PlanBackend::Dense {
            threads: dense::dense_threads(),
            block: dense::TRSM_BLOCK,
            kernel: dense::solve_kernel(k),
        },
    })
}

impl SolveOperand for Matrix {
    type Rhs = Matrix;
}

impl Operand for Matrix {
    fn plan(&self, request: &SolveRequest, k: usize) -> Result<SolvePlan> {
        lower(request, self.rows(), k)
    }

    fn rhs_dims(b: &Matrix) -> (usize, usize) {
        (b.rows(), b.cols())
    }

    fn execute(&self, plan: &SolvePlan, b: &Matrix) -> Result<Solution<Matrix>> {
        execute_local(self, plan, b)
    }
}

impl LocalOperand for Matrix {
    fn solve_in_place(&self, plan: &SolvePlan, b: MatMut<'_>) -> Result<SolveReport> {
        let dense = matches!(plan.backend, PlanBackend::Dense { .. });
        if !dense || self.rows() != plan.n || self.cols() != plan.n {
            let reason = format!(
                "planned {plan}, got a {}×{} matrix",
                self.rows(),
                self.cols()
            );
            return Err(config_error("plan", reason));
        }
        // Named from the block actually handed in, so the report says what
        // ran even if the caller's `B` is not as wide as the plan's `k`.
        let k = match plan.request.opts.side {
            Side::Left => b.cols(),
            Side::Right => b.rows(),
        };
        let flops = {
            let _span = obs::span_with("core", "execute", "n", plan.n as u64);
            dense::trsm_in_place_opts(&plan.request.opts, self, b)?
        };
        Ok(plan.report(dense_algorithm_name(dense::solve_kernel(k)), flops))
    }

    /// `op(A)·X` (or `X·op(A)`) of the operand the solver reads: only the
    /// declared triangle and, for `Diag::Unit`, an implicit unit diagonal,
    /// since callers may store other data in the ignored triangle (e.g. a
    /// combined LU workspace).
    fn product(&self, plan: &SolvePlan, x: &Matrix) -> Result<(Matrix, f64)> {
        let opts = plan.request.opts;
        let mut a_eff = match opts.triangle {
            Triangle::Lower => self.lower_triangular_part(),
            Triangle::Upper => self.upper_triangular_part(),
        };
        if opts.diag == Diag::Unit {
            for i in 0..a_eff.rows() {
                a_eff[(i, i)] = 1.0;
            }
        }
        let mut p = Matrix::zeros(x.rows(), x.cols());
        let trans = opts.transpose == Transpose::Yes;
        let (a_op, x_op, mut p_op) = (a_eff.as_view(), x.as_view(), p.as_view_mut());
        match opts.side {
            Side::Left => dense::gemm_views(1.0, a_op, trans, x_op, false, 0.0, &mut p_op, None)?,
            Side::Right => dense::gemm_views(1.0, x_op, false, a_op, trans, 0.0, &mut p_op, None)?,
        };
        Ok((p, a_eff.as_slice().iter().map(|v| v * v).sum()))
    }
}
