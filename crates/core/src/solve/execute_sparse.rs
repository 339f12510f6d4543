//! The sparse operand: a [`SparseTri`].

use super::operand::sealed::{LocalOperand, Operand};
use super::operand::{execute_local, SolveOperand};
use super::plan::{sparse_algorithm_name, PlanBackend, SolvePlan};
use super::report::{LevelReport, Solution, SolveReport};
use super::request::SolveRequest;
use crate::error::config_error;
use crate::Result;
use dense::{MatMut, Matrix, Side, Transpose};
use sparse::SparseTri;

/// The sparse storage carries its triangle and diagonal kind, so a request
/// (and the plan lowered from it) must describe the matrix it runs on.
fn check(a: &SparseTri, opts: &dense::SolveOpts, n: usize, stage: &'static str) -> Result<()> {
    if a.n() != n || a.triangle() != opts.triangle || a.diag() != opts.diag {
        let reason = format!(
            "a request for an n = {n} {:?} {:?} matrix, got n = {} {:?} {:?}",
            opts.triangle,
            opts.diag,
            a.n(),
            a.triangle(),
            a.diag()
        );
        return Err(config_error(stage, reason));
    }
    Ok(())
}

impl SolveOperand for SparseTri {
    type Rhs = Matrix;
}

impl Operand for SparseTri {
    /// The plan records the worker count the executor will use and —
    /// whenever the rule consulted it — the shape of the level schedule.
    fn plan(&self, request: &SolveRequest, k: usize) -> Result<SolvePlan> {
        let _span = obs::span_with("planner", "plan_sparse", "n", self.n() as u64);
        if request.opts.side == Side::Right {
            let reason = "sparse solves are left-sided (op(A)·X = B)";
            return Err(config_error("plan_sparse", reason));
        }
        check(self, &request.opts, self.n(), "plan_sparse")?;
        let sopts = request.sparse_opts();
        let shape = self.execution_shape(&sopts, k);
        Ok(SolvePlan {
            n: self.n(),
            k,
            request: *request,
            predicted_flops: self.solve_flops(k),
            predicted_cost: None,
            backend: PlanBackend::Sparse {
                workers: shape.workers,
                levels: shape.levels,
                runs: shape.runs,
                predicted_barriers: shape.barriers,
                max_level_width: shape.max_level_width,
                nnz: self.nnz(),
                via_transpose: sopts.transpose == Transpose::Yes,
            },
        })
    }

    fn rhs_dims(b: &Matrix) -> (usize, usize) {
        (b.rows(), b.cols())
    }

    fn execute(&self, plan: &SolvePlan, b: &Matrix) -> Result<Solution<Matrix>> {
        execute_local(self, plan, b)
    }
}

impl LocalOperand for SparseTri {
    /// The shared-plan steady-state path: the plan and the operand are
    /// only borrowed (callers hold them behind `Arc`s).
    fn solve_in_place(&self, plan: &SolvePlan, x: MatMut<'_>) -> Result<SolveReport> {
        let PlanBackend::Sparse { .. } = plan.backend else {
            return Err(config_error("plan", "not a sparse plan"));
        };
        check(self, &plan.request.opts, plan.n, "plan")?;
        let k = x.cols();
        let shape = {
            let _span = obs::span_with("core", "execute", "n", plan.n as u64);
            self.solve_multi_shaped(&plan.request.sparse_opts(), x)?
        };
        // Named and reported from the shape the executor returned, so the
        // report says what ran even if the caller's `B` is not as wide as
        // the plan's `k`.
        let mut report = plan.report(sparse_algorithm_name(shape.workers), self.solve_flops(k));
        report.levels = Some(LevelReport {
            workers: shape.workers,
            levels: shape.levels,
            barriers: shape.barriers,
        });
        Ok(report)
    }

    /// Through the executor matrix `E` (already op-applied), row by row.
    fn product(&self, plan: &SolvePlan, x: &Matrix) -> Result<(Matrix, f64)> {
        let e = self.executor(plan.request.opts.transpose);
        let mut p = Matrix::zeros(x.rows(), x.cols());
        let mut e_sq: f64 = (0..e.n()).map(|i| e.diag_value(i) * e.diag_value(i)).sum();
        for i in 0..e.n() {
            let (cols, vals) = e.row_entries(i);
            e_sq += vals.iter().map(|v| v * v).sum::<f64>();
            for c in 0..x.cols() {
                let mut acc = e.diag_value(i) * x[(i, c)];
                for (&j, &v) in cols.iter().zip(vals) {
                    acc += v * x[(j, c)];
                }
                p[(i, c)] = acc;
            }
        }
        Ok((p, e_sq))
    }
}
