//! Executing a plan on the sparse backend.

use super::plan::{sparse_algorithm_name, PlanBackend, SolvePlan};
use super::report::{LevelReport, Solution, SolveReport};
use crate::error::config_error;
use crate::Result;
use dense::{MatMut, Matrix};
use sparse::SparseTri;

impl SolvePlan {
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
    /// `Arc<SolvePlan>` / `Arc<SparseTri>`, both `Send + Sync`).
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

    /// [`SolvePlan::execute_sparse_in_place`] for one right-hand-side slice (the
    /// name the frozen `perfbench/` package calls).
    pub fn execute_sparse_vec_in_place(&self, a: &SparseTri, x: &mut [f64]) -> Result<SolveReport> {
        self.execute_sparse_in_place(a, x)
    }
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
