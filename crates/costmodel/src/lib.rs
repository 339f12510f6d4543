//! # `costmodel` — the paper's analytic α–β–γ cost model
//!
//! Every section of Wicky, Solomonik & Hoefler (IPDPS 2017) derives
//! closed-form costs in the α–β–γ model: the collectives of Section II-C1,
//! the 3D matrix multiplication of Section III, the recursive triangular
//! inversion of Section V, the iterative inversion-based TRSM of Sections
//! VI–VII, the optimal parameters of Section VIII and the comparison table
//! of Section IX.
//!
//! This crate implements those formulas as plain functions so that
//!
//! 1. the experiment harness can print *predicted* S/W/F next to the values
//!    *measured* on the simulated machine (`simnet`), and
//! 2. the parameter planner in `catrsm` can pick processor grids and block
//!    sizes **a priori**, which is one of the paper's stated contributions.
//!
//! Which formula prices which algorithm is not this crate's business: the
//! workspace's one algorithm enum is `catrsm::Algorithm`, whose
//! `predicted_cost` walks what each baseline runs — the recursion
//! (`catrsm::rec_trsm::predicted_cost`, a sum of [`collectives`] and
//! [`mm::mm_cost`] terms) and the wavefront's layout moves and broadcasts
//! (`catrsm::wavefront::predicted_cost`, priced on simnet's own schedules)
//! — and for the iterative algorithm sums the [`itinv`] phases at the
//! configuration (`n0`, `p1 × p1 × p2`, inversion sub-grid) the plan
//! resolved.  Both communication-avoiding algorithms are also
//! written down once at leading order, per regime, in the Section IX table
//! ([`CostModelRev::standard_cost`], [`CostModelRev::new_cost`]), the one
//! place the cost-model revision changes a formula.
//!
//! The crate is dependency-free and purely numeric: costs are returned as
//! [`Cost`] records with fractional counts (leading-order expressions, not
//! integer message counts).
//!
//! ```
//! use costmodel::{CostModelRev, Regime};
//! // 4k/p ≤ n ≤ 4k√p  →  three large dimensions, 3D processor grid.
//! let plan = CostModelRev::Ipdps17.plan(4096, 1024, 64);
//! assert_eq!(plan.regime, Regime::ThreeLargeDims);
//! assert!(plan.p1 * plan.p1 * plan.p2 <= 64.0);
//! ```

pub mod collectives;
pub mod compare;
pub mod cost;
pub mod drift;
pub mod inversion;
pub mod itinv;
pub mod mm;
pub mod predict;
pub mod tuning;

pub use cost::{Cost, Machine};
pub use drift::{DriftReport, DriftRow};
pub use predict::{sparse_solve_cost, sparse_solve_cost_amortized, CostModelRev};
pub use tuning::{Regime, TrsmPlan};
