//! # `sparse` — level-scheduled parallel sparse triangular solves
//!
//! The paper's algorithms assume *dense* triangular systems, but most
//! real-world triangular-solve traffic is sparse: applying incomplete
//! factorizations (`ILU`/`IC` preconditioners) inside iterative solvers
//! means solving `L x = b` with an `L` that has a handful of entries per
//! row, thousands of times per run.  This crate opens that workload for the
//! reproduction, following the *level scheduling* literature cited in
//! `PAPERS.md` (Li, *On Parallel Solution of Sparse Triangular Linear
//! Systems in CUDA*; Böhnlein et al., *Efficient Parallel Scheduling for
//! Sparse Triangular Solvers*).
//!
//! The design splits the classical **analyze / solve** phases:
//!
//! * [`SparseTri`] — validated CSR storage for a lower- or upper-triangular
//!   matrix, reusing the dense crate's [`dense::Triangle`] / [`dense::Diag`]
//!   vocabulary, with a densify bridge ([`SparseTri::to_dense`]) to the
//!   dense kernels;
//! * [`Schedule`] — the analysis phase: an O(nnz) pass grouping rows into
//!   dependency *levels* (every row of a level depends only on earlier
//!   levels).  Computed once per matrix and cached
//!   ([`SparseTri::schedule`]), because iterative-solver traffic re-applies
//!   one pattern many times;
//! * two solve executors behind one entry point
//!   ([`SparseTri::solve_with`] / [`SparseTri::solve_multi_with`]; also
//!   [`SparseTri::solve`] and [`SparseTri::solve_multi`]): the sequential
//!   sweep, and barrier-separated level sweeps on the `dense::threads`
//!   worker pool — **bitwise identical** at every worker count.  [`SolveOpts::threads`]
//!   is a budget; [`level_rule`] gives a solve more than one worker only
//!   when its mean run weight clears the measured
//!   [`PAR_MIN_RUN_WEIGHT`], and skips the analysis altogether when the
//!   budget, the work or the declared [`SolveOpts::reuse`] cannot use it
//!   (`README.md` has the measurements, and why the merged-level and
//!   flag-per-row executors that used to sit beside this one are gone);
//! * [`gen`] — seeded generators for tests and benches.
//!
//! Every solve reports a [`dense::FlopCount`] under the dense crate's
//! conventions, so sparse applies charge the simulated machine's `γ·F`
//! term consistently with the dense kernels.
//!
//! ## Quick example
//!
//! ```
//! use sparse::{gen, SolveOpts};
//! let l = gen::deep_narrow_lower(40_000, 8192, 6, 42); // 5 levels × ≤ 8192 rows
//! let b = gen::rhs_vec(40_000, 7);
//! let opts = SolveOpts::new().threads(4);        // a budget of 4 workers
//! assert_eq!(l.execution_shape(&opts, 1).workers, 4); // heavy levels: parallel
//! let mut x = b.clone();
//! l.solve_with(&opts, &mut x).unwrap();
//! let mut x1 = b.clone();
//! l.solve_with(&SolveOpts::new().threads(1), &mut x1).unwrap();
//! assert_eq!(x, x1);                             // bitwise identical
//! assert_eq!(l.analysis_count(), 1);             // schedule reused, not re-run
//! let band = gen::banded_lower(20_000, 4, 1);    // 20 000 one-row levels
//! assert_eq!(band.execution_shape(&opts, 1).workers, 1); // stays sequential
//! let mut xt = b.clone();
//! l.solve_with(&SolveOpts::new().transposed(), &mut xt).unwrap(); // Lᵀ·x = b
//! ```

pub mod csr;
pub mod error;
pub mod gen;
pub mod schedule;
pub mod solve;

pub use csr::SparseTri;
pub use error::SparseError;
pub use schedule::Schedule;
pub use solve::{
    level_rule, ExecutionShape, NotAnalysed, SolveOpts, Verdict, ANALYZE_REUSE_MIN,
    PAR_MIN_RUN_WEIGHT,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
