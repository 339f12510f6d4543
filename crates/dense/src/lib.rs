//! # `dense` — local dense linear-algebra kernels
//!
//! This crate is the *BLAS substitute* for the communication-avoiding TRSM
//! reproduction (Wicky, Solomonik, Hoefler, IPDPS 2017).  The paper's
//! algorithms only need a small set of local kernels on each processor, and
//! the crate has one entry point for each:
//!
//! * general matrix–matrix multiplication: [`gemm_views`] on borrowed
//!   blocks (either operand transposed, either one triangular — a
//!   triangular product `tri(A)·B` is `gemm_views` with
//!   `Some(TriMask::a(tri))`), with [`gemm`](fn@gemm), [`matmul`] and
//!   [`gemm_with_threads`] its whole-matrix forms;
//! * triangular solve with one or many right-hand sides:
//!   [`trsm_in_place_opts`], with [`trsm_opts`] its copying form;
//! * triangular matrix inversion: [`tri_invert_in_place`], with
//!   [`tri_invert`] its copying form;
//! * Cholesky and LU factorization ([`cholesky`], [`lu`], [`lu_partial_pivot`])
//!   for the example applications;
//! * norms and residual checks ([`norms`]) and random well-conditioned test
//!   matrices ([`gen`]);
//! * the content hash that keys operands by their exact bits
//!   ([`fingerprint`]).
//!
//! All kernels operate on the row-major [`Matrix`] type.  The O(n³) hot
//! paths all funnel through one packed-panel GEMM: [`pack`] copies `(MC, KC)`
//! blocks of `A` and `(KC, NC)` blocks of `B` into thread-local micro-panel
//! buffers, and [`microkernel`] drives an `MR×NR` register tile over them.
//! Large products additionally run that same GEMM on one chunk of `C` per
//! worker of the [`threads`] pool (`DENSE_THREADS` workers, scoped per GEMM
//! call), with bitwise-identical results at every worker count.  The triangular
//! kernels are blocked so their off-diagonal updates — where almost all of
//! their flops are — run through that same GEMM, and their triangular
//! factors through its triangle-aware form ([`gemm_views`] with a
//! [`TriMask`]: tiles in the zero half are skipped, the other triangle is
//! never multiplied in).  A solve picks its kernel from its width alone
//! ([`solve_kernel`]): one right-hand side substitutes row by row, fewer
//! than [`TRSM_BLOCK`] substitute through `NB×NB` diagonal blocks, and
//! wider ones invert those blocks and apply them as products, so the whole
//! solve is microkernel work.  [`reference`](mod@reference) keeps the
//! original unblocked kernels as the ground truth for tests and benches.
//! Block-level operations avoid copies via the borrowed views [`MatRef`] /
//! [`MatMut`]; [`MatMut`] is a raw pointer inside (safe API) so it can split
//! by rows *and* by columns ([`MatMut::split_cols_at_mut`]), which is what
//! lets every blocked update — including the right-side TRSM cases — stay
//! on the safe [`gemm_views`] path.
//!
//! Every kernel reports a [`FlopCount`] of the arithmetic it runs, in the
//! one unit [`flops`] defines (a multiply–add is two flops): a solve its
//! substitution's `n²k`, a masked product the triangle it multiplies, an
//! inversion its recursion.  The distributed algorithms in `catrsm` charge
//! these counts to the simulated machine, and the walks that price their
//! plans call the same functions.
//!
//! See `crates/dense/README.md` for the kernel architecture and the
//! `(MC, KC, NC, MR, NR)` tuning knobs.
//!
//! ## Quick example
//!
//! ```
//! use dense::{gen, trsm_in_place_opts, trsm_opts, Matrix, SolveOpts};
//! let n = 32;
//! let k = 8;
//! let l = gen::well_conditioned_lower(n, 42);
//! let x_true = Matrix::from_fn(n, k, |i, j| (i + j) as f64 / (n + k) as f64);
//! let b = dense::matmul(&l, &x_true);
//! let x = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
//! assert!(dense::norms::rel_diff(&x, &x_true) < 1e-10);
//! // One right-hand side is the same call on a slice:
//! let mut v = b.col(0);
//! trsm_in_place_opts(&SolveOpts::lower(), &l, v.as_mut_slice()).unwrap();
//! assert!(v.iter().zip(x.col(0)).all(|(a, b)| (a - b).abs() < 1e-12));
//! ```

pub mod error;
pub mod factor;
pub mod fingerprint;
pub mod flops;
pub mod gemm;
pub mod gen;
pub mod matrix;
pub mod microkernel;
pub mod norms;
pub mod pack;
pub mod reference;
pub mod threads;
pub mod trinv;
#[cfg(test)]
mod trmm;
pub mod trsm;

pub use error::DenseError;
pub use factor::{cholesky, lu, lu_partial_pivot, LuFactors};
pub use flops::FlopCount;
pub use gemm::{gemm, gemm_views, gemm_with_threads, matmul};
pub use matrix::{MatMut, MatRef, Matrix};
pub use microkernel::{kernel_class, TriMask};
pub use threads::{
    dense_threads, replace_thread_budget, run_region, thread_budget, with_thread_budget,
};
pub use trinv::{tri_invert, tri_invert_in_place};
pub use trsm::{
    solve_kernel, trsm_in_place_opts, trsm_opts, Diag, Side, SolveKernel, SolveOpts, Transpose,
    Triangle, PIVOT_TOL, TRSM_BLOCK,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DenseError>;
