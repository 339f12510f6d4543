//! The operand trait and the four entry points every operand kind shares.

use super::plan::SolvePlan;
use super::report::{Solution, SolveReport};
use super::request::SolveRequest;
use crate::Result;
use dense::{MatMut, Matrix, Side};
use pgrid::DistMatrix;
use sealed::{LocalOperand, Operand};
use sparse::SparseTri;

/// A triangular operand: a dense [`Matrix`], a [`SparseTri`] or a
/// [`DistMatrix`].  Sealed.  A distributed one does not solve in place:
///
/// ```compile_fail
/// # use catrsm::SolveRequest;
/// fn in_place(l: &pgrid::DistMatrix, x: &mut [f64]) {
///     let plan = SolveRequest::lower().plan(l, 1).unwrap();
///     plan.execute_in_place(l, x).unwrap();
/// }
/// ```
pub trait SolveOperand: Operand {
    /// `B` and `X`: a [`Matrix`], or a [`DistMatrix`] on the same grid.
    type Rhs;
}

pub(super) mod sealed {
    use super::*;

    /// What each backend provides; not nameable outside the crate.
    pub trait Operand {
        fn plan(&self, request: &SolveRequest, k: usize) -> Result<SolvePlan>;

        /// `(rows, cols)` of a right-hand side.
        fn rhs_dims(b: &Self::Rhs) -> (usize, usize)
        where
            Self: SolveOperand;

        fn execute(&self, plan: &SolvePlan, b: &Self::Rhs) -> Result<Solution<Self::Rhs>>
        where
            Self: SolveOperand;
    }

    /// An operand on this process: it solves in place.
    pub trait LocalOperand: SolveOperand<Rhs = Matrix> {
        fn solve_in_place(&self, plan: &SolvePlan, x: MatMut<'_>) -> Result<SolveReport>;

        /// `op(A)·X` and `‖A‖²_F` of the operand the solve read.
        fn product(&self, plan: &SolvePlan, x: &Matrix) -> Result<(Matrix, f64)>;
    }
}

/// The allocating solve of a local operand: clone `B`, solve in place, then
/// compute the relative residual if the request asked for one.
pub(super) fn execute_local<A: LocalOperand>(
    a: &A,
    plan: &SolvePlan,
    b: &Matrix,
) -> Result<Solution<Matrix>> {
    let mut x = b.clone();
    let mut report = a.solve_in_place(plan, (&mut x).into())?;
    if plan.request.residual {
        let (p, a_sq) = a.product(plan, &x)?;
        let sq = |m: &Matrix| m.as_slice().iter().map(|v| v * v).sum::<f64>();
        // ‖op(A)·X − B‖_F / (‖A‖_F·‖X‖_F + ‖B‖_F)
        let denom = a_sq.sqrt() * sq(&x).sqrt() + sq(b).sqrt();
        let scale = if denom == 0.0 { 1.0 } else { denom };
        report.residual = Some(sq(&p.sub(b)?).sqrt() / scale);
    }
    Ok(Solution { x, report })
}

impl SolveRequest {
    /// Lower this request for `a` and `k` right-hand sides (columns of `B`
    /// on the left, rows on the right).  On a distributed `a` it is
    /// collective: the first rank to arrive runs
    /// [`SolveRequest::plan_distributed`] and the others read its plan
    /// ([`simnet::Communicator::agree`]).
    pub fn plan<A: SolveOperand>(&self, a: &A, k: usize) -> Result<SolvePlan> {
        a.plan(self, k)
    }

    /// Plan and execute `op(A)·X = B` (or `X·op(A) = B`).
    pub fn solve<A: SolveOperand>(&self, a: &A, b: &A::Rhs) -> Result<Solution<A::Rhs>> {
        let (rows, cols) = A::rhs_dims(b);
        let k = match self.opts.side {
            Side::Left => cols,
            Side::Right => rows,
        };
        self.plan(a, k)?.execute(a, b)
    }

    // Five older names stay as hidden one-line forwarders, because the
    // frozen `perfbench` package calls them: two here, three on the plan.

    #[doc(hidden)]
    pub fn plan_dense(&self, n: usize, k: usize) -> Result<SolvePlan> {
        super::execute_dense::lower(self, n, k)
    }

    #[doc(hidden)]
    pub fn plan_sparse(&self, a: &SparseTri, k: usize) -> Result<SolvePlan> {
        self.plan(a, k)
    }
}

impl SolvePlan {
    /// `B` in, a [`Solution`] out, with the residual on request.  A plan runs
    /// only on an operand of the kind and shape it was planned for.
    pub fn execute<A: SolveOperand>(&self, a: &A, b: &A::Rhs) -> Result<Solution<A::Rhs>> {
        a.execute(self, b)
    }

    /// On a local operand, `x` — a `&mut Matrix`, a `&mut [f64]` or any
    /// [`MatMut`] block — holds `B` on entry and `X` on exit.  Nothing is
    /// allocated beyond a sparse operand's cached analysis, and no residual
    /// is computed.
    pub fn execute_in_place<'x, A: LocalOperand>(
        &self,
        a: &A,
        x: impl Into<MatMut<'x>>,
    ) -> Result<SolveReport> {
        a.solve_in_place(self, x.into())
    }

    // The plan's three `perfbench` names.

    #[doc(hidden)]
    pub fn execute_dense(&self, a: &Matrix, b: &Matrix) -> Result<Solution<Matrix>> {
        self.execute(a, b)
    }

    #[doc(hidden)]
    pub fn execute_sparse_vec_in_place(&self, a: &SparseTri, x: &mut [f64]) -> Result<SolveReport> {
        self.execute_in_place(a, x)
    }

    #[doc(hidden)]
    pub fn execute_distributed(
        &self,
        l: &DistMatrix,
        b: &DistMatrix,
    ) -> Result<Solution<DistMatrix>> {
        self.execute(l, b)
    }
}
