//! The staged, backend-uniform solver API: **request → plan → solution**.
//!
//! Every triangular solve in the workspace — local dense, level-scheduled
//! sparse, or distributed on the simulated machine — is described by the
//! same [`SolveRequest`]: which triangle the operand occupies, whether it
//! is applied transposed ([`Transpose`]), whether its diagonal is implicit
//! ones ([`Diag`]), which side of the unknown it sits on ([`Side`]), a
//! sparse worker budget and an optional distributed-algorithm pin.
//!
//! A request **lowers** into an inspectable [`SolvePlan`] before anything
//! runs: the chosen algorithm, its parameters (the Section VIII
//! [`crate::planner`] grid, the level-schedule shape, the panel blocking)
//! and, for a distributed plan, the *predicted* α–β–γ cost — the paper's "a
//! priori" workflow as an API stage.  Executing a plan yields a
//! [`Solution`] whose [`SolveReport`] carries what was *measured*: the
//! [`FlopCount`], the simulated communication [`CostCounters`] and
//! per-phase breakdown, the level/barrier counts, and an optional relative
//! residual.
//!
//! The operand picks the backend: [`SolveOperand`] is implemented by a
//! dense [`Matrix`], a [`SparseTri`] and a [`DistMatrix`], and four entry
//! points take any of them — [`SolveRequest::plan`]`(&a, k)`,
//! [`SolvePlan::execute`]`(&a, &b)`, [`SolvePlan::execute_in_place`]`(&a,
//! x)` (local operands) and [`SolveRequest::solve`]`(&a, &b)`.
//! [`SolveRequest::plan_distributed`]`(n, k, p)` lowers from a shape alone.
//!
//! ```
//! use catrsm::SolveRequest;
//! use dense::gen;
//! let n = 96;
//! let l = gen::well_conditioned_lower(n, 3);
//! let x_true = gen::rhs(n, 8, 4);
//! let b = dense::matmul(&l, &x_true);
//! let plan = SolveRequest::lower().plan(&l, 8).unwrap();
//! let sol = plan.execute(&l, &b).unwrap();
//! assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
//! assert_eq!(sol.report.flops, dense::flops::solve_flops(n, 8));
//! // Transposed solves need no materialized Lᵀ on any backend:
//! let bt = dense::gemm::matmul(&l.transpose(), &x_true);
//! let st = SolveRequest::lower().transposed().solve(&l, &bt).unwrap();
//! assert!(dense::norms::rel_diff(&st.x, &x_true) < 1e-8);
//! ```
//!
//! The in-place right-hand side is a [`dense::MatMut`] view: a `&mut
//! Matrix` is its own full view and a `&mut [f64]` the `n×1` one.  One
//! right-hand side is a shape, not a second API: the dense solve picks its
//! kernel from the width of `B` ([`dense::solve_kernel`]), so an `n×1`
//! `Matrix` and a slice return the same bits.

mod drift;
mod execute_dense;
mod execute_distributed;
mod execute_sparse;
mod operand;
mod plan;
mod report;
mod request;
#[cfg(test)]
mod tests;

pub use operand::SolveOperand;
pub use plan::{PlanBackend, SolvePlan};
pub use report::{LevelReport, Solution, SolveReport};
pub use request::SolveRequest;

// What the module documentation above links to.
#[cfg(doc)]
use {
    dense::{Diag, FlopCount, Matrix, Side, Transpose},
    pgrid::DistMatrix,
    simnet::CostCounters,
    sparse::SparseTri,
};

// Shared-plan audit: one lowered plan serves concurrent requests — the
// `serve` crate hands the same `Arc<SolvePlan>` to every thread that hits its
// cache — so the plan and everything it embeds must be `Send + Sync`.
// Asserted at compile time here: caching a `Rc`, `Cell`, or raw pointer on
// the plan would fail this build, not a downstream crate's.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolvePlan>();
    assert_send_sync::<SolveRequest>();
    assert_send_sync::<SolveReport>();
};
