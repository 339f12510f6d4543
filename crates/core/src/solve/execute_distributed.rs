//! Executing a plan on the simulated distributed machine.

use super::plan::{PlanBackend, SolvePlan};
use super::report::Solution;
use crate::api::Algorithm;
use crate::error::config_error;
use crate::it_inv_trsm::{it_inv_trsm, PhaseBreakdown};
use crate::rec_trsm::rec_trsm;
use crate::verify;
use crate::wavefront::wavefront_trsm;
use crate::Result;
use dense::{FlopCount, Transpose, Triangle};
use pgrid::DistMatrix;
use std::borrow::Cow;

impl SolvePlan {
    /// Execute this distributed plan on the simulated machine `l` and `b`
    /// live on, returning `X` in `b`'s layout.
    ///
    /// The report carries this rank's communication-counter delta for the
    /// whole solve, the per-phase breakdown when the iterative
    /// inversion-based algorithm ran, and the measured flops — every
    /// algorithm feeds the same report shape.  A plan runs only on the
    /// operand shape, right-hand-side count and machine size it was planned
    /// for.
    pub fn execute_distributed(
        &self,
        l: &DistMatrix,
        b: &DistMatrix,
    ) -> Result<Solution<DistMatrix>> {
        let PlanBackend::Distributed { algorithm, p } = &self.backend else {
            return Err(config_error("plan", "not a distributed plan"));
        };
        let comm = l.grid().comm();
        let got = (l.rows(), l.cols(), b.cols(), comm.size());
        if got != (self.n, self.n, self.k, *p) {
            return Err(config_error(
                "plan",
                format!(
                    "planned for an {0}×{0} operand, {1} right-hand sides and {2} ranks, \
                     got {3}×{4}, {5} and {6}",
                    self.n, self.k, p, got.0, got.1, got.2, got.3
                ),
            ));
        }
        let before = comm.counters();
        let span = obs::span_with("core", "execute", "n", self.n as u64);

        // Every algorithm solves a lower system, and op(A) is a relabelling
        // of the stored data, not a move: `Aᵀ` swaps the layout's axes (the
        // local piece is transposed in place of a message), and an upper
        // `U·X = B` is solved as `(J·U·J)·(J·X) = J·B` by reversing them.
        // The diagonal kind rides on the operand for the kernels that copy
        // the diagonal.
        let opts = self.request.opts;
        let upper = opts.op_triangle() == Triangle::Upper;
        let lower_op = |a: DistMatrix| (if upper { a.reversed() } else { a }).with_diag(opts.diag);
        let l_op = match opts.transpose {
            Transpose::Yes => Cow::Owned(lower_op(l.transpose())),
            Transpose::No if upper || l.diag() != opts.diag => Cow::Owned(lower_op(l.clone())),
            Transpose::No => Cow::Borrowed(l),
        };
        let b_op = match upper {
            true => Cow::Owned(b.clone().reversed_rows()),
            false => Cow::Borrowed(b),
        };
        let (x, phases) = run_lower(&l_op, &b_op, *algorithm)?;
        drop(span);
        let delta = comm.counters().since(&before);

        let mut report = self.report(self.algorithm_name(), FlopCount::new(delta.flops));
        report.comm = Some(delta);
        report.phases = phases;
        if self.request.residual {
            // Residual verification communicates; it runs outside the
            // measured window on the lower system the algorithm solved.
            report.residual = Some(verify::residual(&l_op, &x, &b_op)?);
        }
        let x = match upper {
            true => x.reversed_rows(),
            false => x,
        };
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
