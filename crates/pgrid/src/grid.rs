//! Cartesian processor grids over a communicator.
//!
//! Grids are *views*: they do not own processors, they interpret the ranks of
//! a [`Communicator`] as coordinates.  Creating a grid or any of its
//! sub-communicators performs no communication and charges no cost, because
//! membership is pure rank arithmetic — exactly the situation in the paper,
//! where every processor can compute every grid assignment locally.

use crate::error::GridError;
use crate::Result;
use simnet::Communicator;

/// A 2D (`rows × cols`) view over a communicator, rank-major by rows:
/// rank `r` has coordinates `(r / cols, r % cols)`.
#[derive(Clone)]
pub struct Grid2D {
    comm: Communicator,
    rows: usize,
    cols: usize,
}

impl Grid2D {
    /// Interpret `comm` as a `rows × cols` grid.
    pub fn new(comm: &Communicator, rows: usize, cols: usize) -> Result<Self> {
        if rows * cols != comm.size() {
            return Err(GridError::GridSizeMismatch {
                comm_size: comm.size(),
                grid_size: rows * cols,
            });
        }
        Ok(Grid2D {
            comm: comm.clone(),
            rows,
            cols,
        })
    }

    /// The underlying communicator (all `rows × cols` processors).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Number of processor rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of processor columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of processors in the grid.
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }

    /// This rank's row coordinate.
    pub fn my_row(&self) -> usize {
        self.comm.rank() / self.cols
    }

    /// This rank's column coordinate.
    pub fn my_col(&self) -> usize {
        self.comm.rank() % self.cols
    }

    /// This rank's `(row, col)` coordinates.
    pub fn my_coords(&self) -> (usize, usize) {
        (self.my_row(), self.my_col())
    }

    /// The communicator-local rank of the processor at `(row, col)`.
    pub fn rank_of(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Coordinates of a communicator-local rank.
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        (rank / self.cols, rank % self.cols)
    }

    /// Sub-communicator of this rank's processor row (`cols` members, ordered
    /// by column).
    pub fn row_comm(&self) -> Communicator {
        let row = self.my_row();
        let members: Vec<usize> = (0..self.cols).map(|c| self.rank_of(row, c)).collect();
        self.comm.subgroup(&members).expect("row membership")
    }

    /// Sub-communicator of this rank's processor column (`rows` members,
    /// ordered by row).
    pub fn col_comm(&self) -> Communicator {
        let col = self.my_col();
        let members: Vec<usize> = (0..self.rows).map(|r| self.rank_of(r, col)).collect();
        self.comm.subgroup(&members).expect("column membership")
    }

    /// Sub-communicator of all processors `(r, c)` for which `pred(r, c)` is
    /// true **and** which contains this rank.  `pred` must be a pure function
    /// identical on every rank.  Members are ordered row-major.
    pub fn subgroup_where<F: Fn(usize, usize) -> bool>(&self, pred: F) -> Result<Communicator> {
        let members: Vec<usize> = (0..self.size())
            .filter(|&r| {
                let (row, col) = self.coords_of(r);
                pred(row, col)
            })
            .collect();
        Ok(self.comm.subgroup(&members)?)
    }
}

/// A 3D (`dim0 × dim1 × dim2`) view over a communicator.
///
/// Rank layout is `rank = (x * dim1 + y) * dim2 + z` for coordinates
/// `(x, y, z)`; in the paper's iterative TRSM the grid is `p1 × p1 × p2` with
/// `x, y` indexing the square face holding `L` and `z` indexing the
/// right-hand-side layers.
#[derive(Clone)]
pub struct Grid3D {
    comm: Communicator,
    dims: [usize; 3],
}

impl Grid3D {
    /// Interpret `comm` as a `d0 × d1 × d2` grid.
    pub fn new(comm: &Communicator, d0: usize, d1: usize, d2: usize) -> Result<Self> {
        if d0 * d1 * d2 != comm.size() {
            return Err(GridError::GridSizeMismatch {
                comm_size: comm.size(),
                grid_size: d0 * d1 * d2,
            });
        }
        Ok(Grid3D {
            comm: comm.clone(),
            dims: [d0, d1, d2],
        })
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Grid dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// This rank's `(x, y, z)` coordinates.
    pub fn my_coords(&self) -> (usize, usize, usize) {
        self.coords_of(self.comm.rank())
    }

    /// Communicator-local rank of coordinates `(x, y, z)`.
    pub fn rank_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        (x * self.dims[1] + y) * self.dims[2] + z
    }

    /// Coordinates of a communicator-local rank.
    pub fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        let z = rank % self.dims[2];
        let rest = rank / self.dims[2];
        let y = rest % self.dims[1];
        let x = rest / self.dims[1];
        (x, y, z)
    }

    /// Sub-communicator along `axis` (0, 1 or 2): the processors that share
    /// this rank's coordinates on the other two axes, ordered by the varying
    /// coordinate.
    pub fn axis_comm(&self, axis: usize) -> Communicator {
        assert!(axis < 3, "axis must be 0, 1 or 2");
        let (x, y, z) = self.my_coords();
        let members: Vec<usize> = (0..self.dims[axis])
            .map(|v| match axis {
                0 => self.rank_of(v, y, z),
                1 => self.rank_of(x, v, z),
                _ => self.rank_of(x, y, v),
            })
            .collect();
        self.comm.subgroup(&members).expect("axis membership")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{coll, Machine, MachineParams};

    #[test]
    fn grid2d_rejects_wrong_size() {
        let out = Machine::new(6, MachineParams::unit())
            .run(|comm| {
                let bad = Grid2D::new(comm, 2, 2).is_err();
                let good = Grid2D::new(comm, 2, 3).is_ok();
                bad && good
            })
            .unwrap();
        assert!(out.results.into_iter().all(|v| v));
    }

    #[test]
    fn grid2d_coordinates_are_consistent() {
        let out = Machine::new(12, MachineParams::unit())
            .run(|comm| {
                let g = Grid2D::new(comm, 3, 4).unwrap();
                let (r, c) = g.my_coords();
                assert_eq!(g.rank_of(r, c), comm.rank());
                assert_eq!(g.coords_of(comm.rank()), (r, c));
                assert_eq!(g.rows(), 3);
                assert_eq!(g.cols(), 4);
                assert_eq!(g.size(), 12);
                (r, c)
            })
            .unwrap();
        assert_eq!(out.results[0], (0, 0));
        assert_eq!(out.results[5], (1, 1));
        assert_eq!(out.results[11], (2, 3));
    }

    #[test]
    fn row_and_column_communicators_sum_correctly() {
        let out = Machine::new(12, MachineParams::unit())
            .run(|comm| {
                let g = Grid2D::new(comm, 3, 4).unwrap();
                let row_sum =
                    coll::allreduce(&g.row_comm(), &[comm.rank() as f64], coll::ReduceOp::Sum)
                        .unwrap()[0];
                let col_sum =
                    coll::allreduce(&g.col_comm(), &[comm.rank() as f64], coll::ReduceOp::Sum)
                        .unwrap()[0];
                (row_sum, col_sum)
            })
            .unwrap();
        // Rank 5 = (1,1): its row is ranks 4..8 (sum 22); its column is ranks 1,5,9 (sum 15).
        assert_eq!(out.results[5], (22.0, 15.0));
        // Rank 0 = (0,0): row 0+1+2+3 = 6, column 0+4+8 = 12.
        assert_eq!(out.results[0], (6.0, 12.0));
    }

    #[test]
    fn subgroup_where_selects_diagonal() {
        let out = Machine::new(9, MachineParams::unit())
            .run(|comm| {
                let g = Grid2D::new(comm, 3, 3).unwrap();
                let (r, c) = g.my_coords();
                if r == c {
                    let diag = g.subgroup_where(|a, b| a == b).unwrap();
                    Some(coll::allreduce(&diag, &[1.0], coll::ReduceOp::Sum).unwrap()[0] as usize)
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(out.results[0], Some(3));
        assert_eq!(out.results[4], Some(3));
        assert_eq!(out.results[8], Some(3));
        assert_eq!(out.results[1], None);
    }

    #[test]
    fn grid3d_coordinates_and_axes() {
        let out = Machine::new(2 * 2 * 3, MachineParams::unit())
            .run(|comm| {
                let g = Grid3D::new(comm, 2, 2, 3).unwrap();
                let (x, y, z) = g.my_coords();
                assert_eq!(g.rank_of(x, y, z), comm.rank());
                assert_eq!(g.dims(), [2, 2, 3]);
                let a0 = g.axis_comm(0).size();
                let a1 = g.axis_comm(1).size();
                let a2 = g.axis_comm(2).size();
                (a0, a1, a2)
            })
            .unwrap();
        for r in out.results {
            assert_eq!(r, (2, 2, 3));
        }
    }

    #[test]
    fn grid3d_axis_comm_sums() {
        let out = Machine::new(8, MachineParams::unit())
            .run(|comm| {
                let g = Grid3D::new(comm, 2, 2, 2).unwrap();
                // Sum of world ranks along the z axis.
                let z_comm = g.axis_comm(2);
                coll::allreduce(&z_comm, &[comm.rank() as f64], coll::ReduceOp::Sum).unwrap()[0]
            })
            .unwrap();
        // (x,y,0) and (x,y,1) are ranks 2*(x*2+y) and 2*(x*2+y)+1.
        for x in 0..2 {
            for y in 0..2 {
                let base = (x * 2 + y) * 2;
                let expect = (base + base + 1) as f64;
                assert_eq!(out.results[base], expect);
                assert_eq!(out.results[base + 1], expect);
            }
        }
    }

    #[test]
    fn grid3d_rejects_wrong_size() {
        let out = Machine::new(7, MachineParams::unit())
            .run(|comm| Grid3D::new(comm, 2, 2, 2).is_err())
            .unwrap();
        assert!(out.results.into_iter().all(|v| v));
    }
}
