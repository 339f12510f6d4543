//! Executing a plan on the simulated distributed machine.

use super::plan::{PlanBackend, SolvePlan};
use super::report::Solution;
use crate::api::{reverse_both, reverse_rows, Algorithm};
use crate::error::config_error;
use crate::it_inv_trsm::{it_inv_trsm, PhaseBreakdown};
use crate::rec_trsm::rec_trsm;
use crate::verify;
use crate::wavefront::wavefront_trsm;
use crate::Result;
use dense::{Diag, FlopCount, Transpose, Triangle};
use pgrid::DistMatrix;

impl SolvePlan {
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
}

/// Run one resolved algorithm on an effective lower-triangular system.
fn run_lower(
    l: &DistMatrix,
    b: &DistMatrix,
    algorithm: Algorithm,
) -> Result<(DistMatrix, Option<PhaseBreakdown>)> {
    match algorithm {
        Algorithm::IterativeInversion(cfg) => {
            let (x, phases) = it_inv_trsm(l, b, &cfg)?;
            Ok((x, Some(phases)))
        }
        Algorithm::Recursive { base_size } => {
            let x = rec_trsm(l, b, base_size)?;
            Ok((x, None))
        }
        Algorithm::Wavefront => Ok((wavefront_trsm(l, b)?, None)),
    }
}
