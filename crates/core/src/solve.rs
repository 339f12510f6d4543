//! The staged, backend-uniform solver API: **request → plan → solution**.
//!
//! Every triangular solve in the workspace — a local dense solve
//! ([`dense::trsm_in_place_opts`]), a level-scheduled sparse apply
//! (`sparse`), or a distributed solve on the simulated machine (`catrsm`'s
//! algorithms) — is described by
//! the same [`SolveRequest`]: which triangle the operand occupies, whether
//! it is applied transposed ([`Transpose`]), whether its diagonal is
//! implicit ones ([`Diag`]), which side of the unknown it sits on
//! ([`Side`]), a sparse worker budget and an optional distributed-algorithm
//! pin.
//!
//! A request **lowers** into an inspectable [`SolvePlan`] before anything runs:
//! the plan records the chosen algorithm and its concrete parameters (the
//! Section VIII [`crate::planner`] grid for distributed solves, the
//! level-schedule shape for sparse ones, the panel blocking for dense
//! ones) together with the cost model's *predicted* α–β–γ cost — the
//! "a priori" workflow of the paper, exposed as an API stage.  Executing a
//! plan yields a [`Solution`] whose [`SolveReport`] uniformly carries what
//! was *measured*: the [`FlopCount`], the simulated communication
//! [`CostCounters`] and per-phase breakdown (distributed), the
//! level/barrier counts (sparse), and an optional relative residual.
//!
//! ```
//! use catrsm::SolveRequest;
//! use dense::gen;
//! let n = 96;
//! let l = gen::well_conditioned_lower(n, 3);
//! let x_true = gen::rhs(n, 8, 4);
//! let b = dense::matmul(&l, &x_true);
//! let plan = SolveRequest::lower().plan_dense(n, 8).unwrap();
//! let sol = plan.execute_dense(&l, &b).unwrap();
//! assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
//! assert_eq!(sol.report.flops, dense::flops::solve_flops(n, 8));
//! // Transposed solves need no materialized Lᵀ on any backend:
//! let bt = dense::gemm::matmul(&l.transpose(), &x_true);
//! let st = SolveRequest::lower().transposed().solve_dense(&l, &bt).unwrap();
//! assert!(dense::norms::rel_diff(&st.x, &x_true) < 1e-8);
//! ```
//!
//! Each local backend has one allocating executor (`execute_dense` /
//! `execute_sparse`: `B` in, a [`Solution`] out, residual on request) over
//! one in-place executor (`execute_dense_in_place` /
//! `execute_sparse_in_place`) whose right-hand side is a [`dense::MatMut`]
//! view — a `&mut Matrix` is its own full view, so block and sub-block
//! solves are the same call, and a `&mut [f64]` is simply the `n×1` view.
//! One right-hand side is a shape, not a second API: the dense solve picks
//! its kernel from the width of `B` ([`dense::solve_kernel`]), so an `n×1`
//! `Matrix` and a slice run the same row substitution and return the same
//! bits.

mod drift;
mod execute_dense;
mod execute_distributed;
mod execute_sparse;
mod plan;
mod report;
mod request;
#[cfg(test)]
mod tests;

pub use plan::{PlanBackend, SolvePlan};
pub use report::{LevelReport, Solution, SolveReport};
pub use request::SolveRequest;

// What the module documentation above links to.
#[cfg(doc)]
use {
    dense::{Diag, FlopCount, Side, Transpose},
    simnet::CostCounters,
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
