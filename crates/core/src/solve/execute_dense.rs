//! Executing a plan on the local dense backend.

use super::plan::{dense_algorithm_name, PlanBackend, SolvePlan};
use super::report::{Solution, SolveReport};
use crate::error::config_error;
use crate::Result;
use dense::{Diag, MatMut, Matrix, Side, SolveOpts, Transpose, Triangle};

impl SolvePlan {
    /// Execute this dense plan, returning the solution and report.
    pub fn execute_dense(&self, a: &Matrix, b: &Matrix) -> Result<Solution<Matrix>> {
        let mut x = b.clone();
        let mut report = self.execute_dense_in_place(a, &mut x)?;
        if self.request.residual {
            report.residual = Some(dense_residual(&self.request.opts, a, &x, b)?);
        }
        Ok(Solution { x, report })
    }

    /// Execute this dense plan in place: `b` — a `&mut Matrix`, a
    /// `&mut [f64]` (one right-hand side) or any [`MatMut`] block — holds
    /// `B` on entry and `X` on exit, and nothing is allocated.  (The
    /// residual option is skipped: `B` is consumed.)
    pub fn execute_dense_in_place<'b>(
        &self,
        a: &Matrix,
        b: impl Into<MatMut<'b>>,
    ) -> Result<SolveReport> {
        let PlanBackend::Dense { .. } = self.backend else {
            return Err(config_error("plan", "not a dense plan"));
        };
        self.check_dense_operand(a)?;
        let b = b.into();
        // Named from the block actually handed in, so the report says what
        // ran even if the caller's `B` is not as wide as the plan's `k`.
        let k = match self.request.opts.side {
            Side::Left => b.cols(),
            Side::Right => b.rows(),
        };
        let flops = {
            let _span = obs::span_with("core", "execute", "n", self.n as u64);
            dense::trsm_in_place_opts(&self.request.opts, a, b)?
        };
        Ok(self.report(dense_algorithm_name(dense::solve_kernel(k)), flops))
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
    let trans = opts.transpose == Transpose::Yes;
    let (a_op, x_op) = (a_eff.as_view(), x.as_view());
    let mut p_op = p.as_view_mut();
    match opts.side {
        Side::Left => dense::gemm_views(1.0, a_op, trans, x_op, false, 0.0, &mut p_op, None)?,
        Side::Right => dense::gemm_views(1.0, x_op, false, a_op, trans, 0.0, &mut p_op, None)?,
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
