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
//! No formula here prices a plan: the workspace's one algorithm enum is
//! `catrsm::Algorithm`, whose `predicted_cost` walks what each algorithm
//! runs beside its executor — the iterative algorithm's five phases
//! (`catrsm::it_inv_trsm::predicted_cost`), the recursion
//! (`catrsm::rec_trsm::predicted_cost`) and the wavefront's layout moves and
//! broadcasts (`catrsm::wavefront::predicted_cost`) — and prices every
//! message on simnet's own schedules, and local work by the `dense::flops`
//! count of the kernel that runs it, so a plan's S, W and F are exact.  The
//! formulas are the paper's claims, which the experiments print beside the
//! measurements and the tests hold to stated bands: the Section VII phases
//! ([`itinv`], at a configuration's `n0`, `p1 × p1 × p2` and inversion
//! sub-grid, `catrsm::ItInvConfig::phase_model`), the Section III product
//! ([`mm::mm_cost`]) and the collectives ([`collectives`]).  Both
//! communication-avoiding algorithms are also written down once at leading
//! order, per regime, in the Section IX table
//! ([`CostModelRev::standard_cost`], [`CostModelRev::new_cost`]), the one
//! place the cost-model revision changes a formula.
//!
//! The crate is dependency-free and purely numeric: costs are returned as
//! [`Cost`] records with fractional counts (leading-order expressions, not
//! integer message counts).  `F` is in flops, two per multiply–add, the unit
//! `dense::flops` defines and every measured `F` is counted in.
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
pub use predict::CostModelRev;
pub use tuning::{Regime, TrsmPlan};
