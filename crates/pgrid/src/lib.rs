//! # `pgrid` — processor grids, cyclic layouts and distributed matrices
//!
//! The algorithms in the paper (Wicky, Solomonik, Hoefler, IPDPS 2017) are
//! formulated on 2D, 3D and 4D processor grids with matrices distributed in a
//! **cyclic** layout: processor `(x, y)` of a `pr × pc` grid owns the matrix
//! entries `A(x : pr : m, y : pc : n)` in the paper's colon notation.  This
//! crate provides those building blocks on top of the simulated machine:
//!
//! * [`Grid2D`] and [`Grid3D`] — Cartesian views over a [`simnet::Communicator`]
//!   with cheap (communication-free) row / column / fiber sub-communicators,
//! * [`DistMatrix`] — a matrix distributed over a [`Grid2D`] under a layout
//!   (cyclic when built), with construction from / collection to a
//!   replicated global matrix, aligned sub-views (the recursive algorithms
//!   split matrices in halves), the relabellings `J·A`, `J·A·J` and `Aᵀ`
//!   that move no word, and residual helpers,
//! * [`redist`] — key-free redistribution between arbitrary layouts: both
//!   ends derive the order of the values from the layouts alone, so one
//!   Bruck all-to-all-v of the values is all that crosses the wire — the
//!   primitive the paper charges as "an all-to-all" for its layout
//!   transposes and redistributions.
//!
//! Redistribution buffers and the local matrices they produce are stored in
//! buffers from the machine's pool ([`simnet::Communicator::take_buffer`]);
//! a caller done with a transient local matrix hands its storage back with
//! `comm.give_buffer(matrix.into_vec())`.

pub mod distmat;
pub mod error;
pub mod grid;
pub mod redist;

pub use distmat::DistMatrix;
pub use error::GridError;
pub use grid::{Grid2D, Grid3D};

use dense::Matrix;
use simnet::Communicator;

/// Result alias for grid operations.
pub type Result<T> = std::result::Result<T, GridError>;

/// A `rows × cols` zero matrix stored in a buffer from `comm`'s machine
/// pool.
pub fn pooled_zeros(comm: &Communicator, rows: usize, cols: usize) -> Matrix {
    let mut buf = comm.take_buffer(rows * cols);
    buf.resize(rows * cols, 0.0);
    Matrix::from_vec(rows, cols, buf).expect("the buffer holds rows × cols values")
}
