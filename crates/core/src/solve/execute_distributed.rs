//! The distributed operand: a [`DistMatrix`] on the simulated machine.

use super::operand::sealed::Operand;
use super::operand::SolveOperand;
use super::plan::{PlanBackend, SolvePlan};
use super::report::Solution;
use super::request::SolveRequest;
use crate::api::Algorithm;
use crate::error::config_error;
use crate::it_inv_trsm::it_inv_trsm;
use crate::planner;
use crate::rec_trsm::rec_trsm;
use crate::verify;
use crate::wavefront::wavefront_trsm;
use crate::Result;
use costmodel::CostModelRev;
use dense::{FlopCount, Side, Transpose, Triangle};
use pgrid::DistMatrix;
use std::borrow::Cow;

impl SolveRequest {
    /// Lower to a distributed plan for an `n×n` operand, `k` right-hand
    /// sides and `p` simulated processors, from the shape alone.  With no
    /// pin, the [`crate::planner`] rounds Section VIII's optimum to a
    /// feasible `p1 × p1 × p2` grid and block size, the plan's resolved
    /// [`Algorithm`].  A shape no grid fits, a pinned algorithm whose
    /// executor would refuse it (on the caller grid the quote assumes), a
    /// right-sided request and [`SolveRequest::validate_finite`] are refused
    /// here.  The prediction is [`Algorithm::predicted_cost`], the walk of
    /// what runs: its S, W and F are the most any rank will send, receive or
    /// be charged.
    pub fn plan_distributed(&self, n: usize, k: usize, p: usize) -> Result<SolvePlan> {
        let _span = obs::span_with("planner", "plan_distributed", "n", n as u64);
        if self.opts.side == Side::Right || self.opts.check_finite {
            let reason = match self.opts.side {
                Side::Right => "distributed solves are left-sided (op(A)·X = B)",
                Side::Left => "no rank scans its pieces for NaN or infinity: validate the inputs",
            };
            return Err(config_error("plan_distributed", reason));
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
}

impl SolveOperand for DistMatrix {
    type Rhs = DistMatrix;
}

impl Operand for DistMatrix {
    /// The plan is the same on every rank, so the first rank to arrive
    /// lowers it and the others read it: planning on every rank would pay
    /// one lowering, a walk of all `p` ranks, per rank.
    fn plan(&self, request: &SolveRequest, k: usize) -> Result<SolvePlan> {
        let comm = self.grid().comm();
        let key = (*request, self.rows(), k, comm.size());
        comm.agree(key, |&(r, n, k, p)| r.plan_distributed(n, k, p))?
    }

    fn rhs_dims(b: &DistMatrix) -> (usize, usize) {
        (b.rows(), b.cols())
    }

    /// `X` comes back in `b`'s layout.  The report carries this rank's
    /// communication-counter delta for the whole solve, the measured flops
    /// and, for the iterative algorithm, the per-phase breakdown.  A plan
    /// runs only on the shape, right-hand-side count and machine size it
    /// was planned for.
    fn execute(&self, plan: &SolvePlan, b: &DistMatrix) -> Result<Solution<DistMatrix>> {
        let PlanBackend::Distributed { algorithm, p } = &plan.backend else {
            return Err(config_error("plan", "not a distributed plan"));
        };
        let comm = self.grid().comm();
        let (n, k) = (plan.n, plan.k);
        let got = (self.rows(), self.cols(), b.cols(), comm.size());
        if got != (n, n, k, *p) {
            let reason = format!(
                "planned for an {n}×{n} operand, {k} right-hand sides and {p} ranks, \
                 got {}×{}, {} and {}",
                got.0, got.1, got.2, got.3
            );
            return Err(config_error("plan", reason));
        }
        let before = comm.counters();
        let span = obs::span_with("core", "execute", "n", plan.n as u64);

        // Every algorithm solves a lower system, and op(A) is a relabelling
        // of the stored data, not a move: `Aᵀ` swaps the layout's axes (the
        // local piece is transposed in place of a message), and an upper
        // `U·X = B` is solved as `(J·U·J)·(J·X) = J·B` by reversing them.
        // The diagonal kind rides on the operand for the kernels that copy
        // the diagonal.
        let opts = plan.request.opts;
        let upper = opts.op_triangle() == Triangle::Upper;
        let lower_op = |a: DistMatrix| (if upper { a.reversed() } else { a }).with_diag(opts.diag);
        let l_op = match opts.transpose {
            Transpose::Yes => Cow::Owned(lower_op(self.transpose())),
            Transpose::No if upper || self.diag() != opts.diag => {
                Cow::Owned(lower_op(self.clone()))
            }
            Transpose::No => Cow::Borrowed(self),
        };
        let b_op = match upper {
            true => Cow::Owned(b.clone().reversed_rows()),
            false => Cow::Borrowed(b),
        };
        // From here on, `l` and `b` are the lower system the algorithm solves.
        let (l, b) = (&*l_op, &*b_op);
        let (x, phases) = match *algorithm {
            Algorithm::IterativeInversion(cfg) => {
                it_inv_trsm(l, b, &cfg).map(|(x, ph)| (x, Some(ph)))?
            }
            Algorithm::Recursive { base_size } => (rec_trsm(l, b, base_size)?, None),
            Algorithm::Wavefront => (wavefront_trsm(l, b)?, None),
        };
        drop(span);
        let delta = comm.counters().since(&before);

        let mut report = plan.report(plan.algorithm_name(), FlopCount::new(delta.flops));
        report.comm = Some(delta);
        report.phases = phases;
        if plan.request.residual {
            // Residual verification communicates; it runs outside the
            // measured window on the lower system the algorithm solved.
            report.residual = Some(verify::residual(l, &x, b)?);
        }
        let x = if upper { x.reversed_rows() } else { x };
        Ok(Solution { x, report })
    }
}
