//! Executing a plan on the local dense backend.

use super::plan::{dense_algorithm_name, PlanBackend, SolvePlan};
use super::report::{Solution, SolveReport};
use crate::error::config_error;
use crate::Result;
use dense::{Diag, FlopCount, MatMut, Matrix, Side, SolveOpts, Transpose, Triangle};

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
