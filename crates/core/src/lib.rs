//! # `catrsm` — communication-avoiding parallel TRSM
//!
//! A from-scratch Rust reproduction of
//! *"Communication-Avoiding Parallel Algorithms for Solving Triangular
//! Systems of Linear Equations"* (Wicky, Solomonik, Hoefler, IPDPS 2017).
//!
//! The crate implements every algorithm the paper describes, on top of the
//! simulated distributed-memory machine of the `simnet` crate (which measures
//! messages `S`, words `W`, flops `F` and virtual time along the critical
//! path in the α–β–γ model the paper uses):
//!
//! | paper section | algorithm | module |
//! |---|---|---|
//! | III  | 3D matrix multiplication from a 2D cyclic layout | [`mm3d`] |
//! | IV   | recursive TRSM (the "standard" baseline)        | [`rec_trsm`] |
//! | V    | recursive distributed triangular inversion       | [`tri_inv`] |
//! | VI-A | block-diagonal inverter                          | [`diag_inv`] |
//! | VI   | iterative inversion-based TRSM (main contribution) | [`it_inv_trsm`] |
//! | VIII | a-priori parameter / processor-grid selection ([`planner::plan`] → [`ItInvConfig`]) | [`planner`] |
//! | —    | 2D wavefront TRSM (extra sanity baseline)        | [`wavefront`] |
//! | IX   | the one algorithm vocabulary ([`Algorithm`]: name, predicted cost) | [`api`] |
//! | —    | the staged request → plan → solution API         | [`solve`] |
//! | I    | applications: distributed Cholesky and LU solvers | [`apps`] |
//!
//! The algorithms are plain functions with plain arguments
//! (`rec_trsm(l, b, base_size)`, `mm3d(a, x, p1, a_tri)`, …); the high-level
//! entry point is the staged API of [`solve`]: a [`SolveRequest`] lowers to
//! an inspectable [`SolvePlan`] — the resolved [`Algorithm`] plus the
//! Section VIII cost prediction — which executes into a [`Solution`] and its
//! measured [`SolveReport`].  The operand picks the backend
//! ([`SolveOperand`]: a dense `Matrix`, a `SparseTri` or a `DistMatrix`), so
//! one call covers all three.
//!
//! ## Example
//!
//! ```
//! use simnet::{Machine, MachineParams};
//! use pgrid::{Grid2D, DistMatrix};
//! use catrsm::SolveRequest;
//!
//! let n = 64;
//! let k = 16;
//! let out = Machine::new(4, MachineParams::cluster())
//!     .run(|comm| {
//!         let grid = Grid2D::new(comm, 2, 2).unwrap();
//!         let l_global = dense::gen::well_conditioned_lower(n, 7);
//!         let x_true = dense::gen::rhs(n, k, 8);
//!         let b_global = dense::matmul(&l_global, &x_true);
//!         let l = DistMatrix::from_global(&grid, &l_global);
//!         let b = DistMatrix::from_global(&grid, &b_global);
//!         // One call: the first rank to arrive plans for the run (the
//!         // plan names the chosen algorithm and its predicted cost), then
//!         // every rank executes it; the report carries the measured counters.
//!         let sol = SolveRequest::lower().solve(&l, &b).unwrap();
//!         let x_ref = DistMatrix::from_global(&grid, &x_true);
//!         (sol.x.rel_diff(&x_ref).unwrap(), sol.report.flops.get())
//!     })
//!     .unwrap();
//! assert!(out.results.iter().all(|&(d, f)| d < 1e-8 && f > 0));
//! ```

pub mod api;
pub mod apps;
pub mod diag_inv;
pub mod error;
pub mod it_inv_trsm;
pub mod mm3d;
pub mod planner;
pub mod rec_trsm;
pub mod solve;
pub mod tri_inv;
pub mod verify;
mod walk;
pub mod wavefront;

pub use api::Algorithm;
pub use error::TrsmError;
pub use it_inv_trsm::{ItInvConfig, PhaseBreakdown};
pub use solve::{
    LevelReport, PlanBackend, Solution, SolveOperand, SolvePlan, SolveReport, SolveRequest,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TrsmError>;
