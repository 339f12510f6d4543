//! Distributed recursive triangular inversion (Section V of the paper).
//!
//! The inverse of a blocked lower-triangular matrix is
//!
//! ```text
//! [ L11   0  ]⁻¹   =   [        L11⁻¹          0    ]
//! [ L21  L22 ]          [ -L22⁻¹·L21·L11⁻¹    L22⁻¹ ]
//! ```
//!
//! The two diagonal blocks are **independent**, so the paper assigns each to
//! half of the processors and inverts them *concurrently*; the off-diagonal
//! block then needs two matrix multiplications on the full grid.  Because the
//! recursion depth is `log n` (bounded by `log q` here, since the processor
//! grid halves at every level) and every level costs only `O(log p)` messages,
//! the total synchronization cost is `O(log² p)` — the key property that lets
//! the iterative TRSM avoid the `Θ(√p)`-type latency of the recursive solver.
//!
//! Deviation from the paper's pseudocode: the two
//! children use the diagonal `(q/2)×(q/2)` quadrants of the parent grid (p/4
//! processors each, p/2 in total), exactly as the paper's `dim(Π1) = dim(Π2) =
//! (√p/2 × √p/2)` split; redistribution between parent and child grids is the
//! exchange of values the paper bounds "by an all-to-all".

use crate::error::config_error;
use crate::mm3d::mm3d;
use crate::planner::choose_mm_p1;
use crate::{walk, Result};
use dense::flops::tri_inv_flops;
use dense::{Matrix, Triangle};
use pgrid::distmat::cyclic_local_count;
use pgrid::redist::{move_counts, redistribute, Axis, Filter, Holders, Layout};
use pgrid::{DistMatrix, Grid2D};
use simnet::{coll, Communicator, CostCounters};

/// Invert a lower-triangular matrix distributed cyclically over a square
/// processor grid.  Returns the inverse in the same distribution.  At or
/// below dimension `base_size` the matrix is gathered — with ones on its
/// diagonal under `Diag::Unit` — and inverted redundantly by every processor
/// of the (sub-)grid.
pub fn tri_inv(l: &DistMatrix, base_size: usize) -> Result<DistMatrix> {
    let grid = l.grid();
    if grid.rows() != grid.cols() {
        return Err(config_error(
            "tri_inv",
            format!("grid must be square, got {}x{}", grid.rows(), grid.cols()),
        ));
    }
    if l.rows() != l.cols() {
        return Err(config_error(
            "tri_inv",
            format!("matrix must be square, got {}x{}", l.rows(), l.cols()),
        ));
    }
    tri_inv_inner(l, base_size)
}

fn tri_inv_inner(l: &DistMatrix, base_size: usize) -> Result<DistMatrix> {
    let grid = l.grid();
    let q = grid.rows();
    let n = l.rows();

    // Base case: gather the whole matrix and invert it redundantly on every
    // processor of this (sub-)grid, as the paper's pseudocode does once the
    // grid is one-dimensional.
    if !splittable(n, q, base_size) {
        // Keep only the lower triangle so the returned inverse has a clean
        // zero upper part regardless of what the storage held there (the
        // recursive path below drops those entries too).
        let mut full = l.try_to_global()?;
        for i in 0..n {
            full.row_mut(i)[i + 1..].fill(0.0);
        }
        let flops = dense::tri_invert_in_place(Triangle::Lower, &mut full.as_view_mut())?;
        grid.comm().charge_flops(flops.get());
        let inverse = DistMatrix::from_global(grid, &full);
        grid.comm().give_buffer(full.into_vec());
        return Ok(inverse);
    }

    let h = n / 2;
    let qh = q / 2;
    let comm = grid.comm();

    let l11 = l.subview(0, h, 0, h)?;
    let l21 = l.subview(h, h, 0, h)?;
    let l22 = l.subview(h, h, h, h)?;

    // Children: the two diagonal (q/2)×(q/2) quadrants of the grid.
    let child_a_members: Vec<usize> = (0..q * q)
        .filter(|&r| {
            let (row, col) = grid.coords_of(r);
            row < qh && col < qh
        })
        .collect();
    let child_b_members: Vec<usize> = (0..q * q)
        .filter(|&r| {
            let (row, col) = grid.coords_of(r);
            row >= qh && col >= qh
        })
        .collect();
    // Every rank calls both subgroups so the context derivation stays aligned.
    let child_a_comm = comm.subgroup(&child_a_members);
    let child_b_comm = comm.subgroup(&child_b_members);

    // Send each child its diagonal block, redistributed to the child grid's
    // cyclic layout (only the lower-triangular part carries information).
    let (on_a, on_b) = (child_layout(q, h, 0), child_layout(q, h, qh));
    let recv_a = l11.redistribute_to(&on_a, Filter::Lower)?;
    let recv_b = l22.redistribute_to(&on_b, Filter::Lower)?;
    // The halves are copies: back to the pool before the children recurse.
    drop((l11, l22));

    // Each child inverts its block concurrently on its own grid.
    let invert_on = |sub: &Communicator, piece: Matrix| -> Result<Matrix> {
        let child_grid = Grid2D::new(sub, qh, qh)?;
        let child_l = DistMatrix::from_local(&child_grid, h, h, piece)?.with_diag(l.diag());
        Ok(tri_inv_inner(&child_l, base_size)?.into_local())
    };
    let nothing = || Matrix::zeros(0, 0);
    let (piece_a, piece_b) = if let Ok(sub) = &child_a_comm {
        (invert_on(sub, recv_a)?, nothing())
    } else if let Ok(sub) = &child_b_comm {
        (nothing(), invert_on(sub, recv_b)?)
    } else {
        (nothing(), nothing())
    };

    // Redistribute both inverted diagonal blocks back to the parent grid.
    let to_parent = |piece: &Matrix, child: &Layout| {
        let parent = Layout::cyclic(grid, h, h);
        let local = redistribute(comm, child, piece, &parent, Filter::Lower)?;
        DistMatrix::from_layout(grid, parent, local)
    };
    let inv11 = to_parent(&piece_a, &on_a)?;
    let inv22 = to_parent(&piece_b, &on_b)?;
    comm.give_buffer(piece_a.into_vec());
    comm.give_buffer(piece_b.into_vec());

    // Off-diagonal block: inv21 = −inv22 · L21 · inv11, as two multiplications
    // on the full grid.
    let p1 = choose_mm_p1(h, h, q);
    // Only the first product has a triangular `A`.  In the second the
    // triangle is `X = inv11`, which mm3d gathers with row stride p1 over
    // contiguous slab columns: its pieces have no unit-slope diagonal to mask.
    let t = mm3d(&inv22, &l21, p1, Some(Triangle::Lower))?;
    let mut inv21 = mm3d(&t, &inv11, p1, None)?;
    inv21.local_mut().scale_in_place(-1.0);

    // Assemble the inverse.
    let mut out = DistMatrix::zeros(grid, n, n);
    out.set_subview(0, 0, &inv11)?;
    out.set_subview(h, 0, &inv21)?;
    out.set_subview(h, h, &inv22)?;
    Ok(out)
}

/// Whether the recursion splits an `n × n` triangle on a `q × q` grid
/// instead of gathering it: the one decision the executor and [`walk`]
/// share.
fn splittable(n: usize, q: usize, base_size: usize) -> bool {
    q >= 2 && q.is_multiple_of(2) && n.is_multiple_of(2 * q) && n > base_size
}

/// The cyclic layout of an `h × h` half on the diagonal `(q/2) × (q/2)`
/// quadrant of the `q × q` grid whose first row and column is `base`: piece
/// `(cx, cy)` on rank `(base + cx)·q + base + cy`, the grid's cyclic map
/// offset by `base·(q + 1)`.
fn child_layout(q: usize, h: usize, base: usize) -> Layout {
    let quadrant = Axis::cyclic(h, q / 2);
    let holders = Holders::strides(q, 1).offset(base * (q + 1));
    Layout::new(q * q, quadrant, quadrant, holders)
}

/// What [`tri_inv`] charges each rank `x·q + y` of the `q × q` grid for an
/// `n × n` triangle stored cyclically, with leaves of `base_size`: at a
/// leaf the allgatherv gathering it and the local inversion; at a split
/// the moves of both halves onto their quadrants and back, the quadrants'
/// inversions (one walk, charged to both), and the two `mm3d` products,
/// the first of a lower triangle.
pub(crate) fn walk(n: usize, q: usize, base_size: usize) -> Vec<CostCounters> {
    if !splittable(n, q, base_size) {
        let longest = cyclic_local_count(n, q, 0).pow(2);
        let invert = walk::work(tri_inv_flops(n));
        return (0..q * q)
            .map(|r| coll::allgatherv_counts(q * q, longest, r).merge(&invert))
            .collect();
    }
    let (h, qh) = (n / 2, q / 2);
    let half = Layout::cyclic_over(q, q, h, h);
    let product = |a_tri| crate::mm3d::walk(h, h, q, choose_mm_p1(h, h, q), a_tri);
    let mut ranks = product(Some(Triangle::Lower));
    walk::add(&mut ranks, &product(None));
    let child = walk(h, qh, base_size);
    for base in [0, qh] {
        let on_child = child_layout(q, h, base);
        walk::add(&mut ranks, &move_counts(&half, &on_child, Filter::Lower));
        walk::add(&mut ranks, &move_counts(&on_child, &half, Filter::Lower));
        let members = (0..qh * qh).map(|c| (base + c / qh) * q + base + c % qh);
        walk::add_members(&mut ranks, members, &child);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use simnet::{Machine, MachineParams};

    fn on_grid<T: Send>(
        q: usize,
        f: impl Fn(&Grid2D) -> T + Send + Sync,
    ) -> (Vec<T>, simnet::CostReport) {
        let out = Machine::new(q * q, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, q, q).unwrap();
                f(&grid)
            })
            .unwrap();
        (out.results, out.report)
    }

    fn check_inverse(q: usize, n: usize, base: usize) {
        let (results, _) = on_grid(q, move |grid| {
            let l_global = gen::well_conditioned_lower(n, 42);
            let l = DistMatrix::from_global(grid, &l_global);
            let inv = tri_inv(&l, base).unwrap();
            let got = inv.to_global();
            let prod = dense::matmul(&l_global, &got);
            let lower_ok = got.is_lower_triangular();
            (
                dense::norms::rel_diff(&prod, &Matrix::identity(n)),
                lower_ok,
            )
        });
        for (d, lower_ok) in results {
            assert!(d < 1e-8, "q={q} n={n}: L·L⁻¹ differs from I by {d}");
            assert!(lower_ok, "inverse must stay lower triangular");
        }
    }

    #[test]
    fn single_processor_inverts() {
        check_inverse(1, 32, 8);
    }

    #[test]
    fn two_by_two_grid_recursion() {
        check_inverse(2, 32, 8);
    }

    #[test]
    fn four_by_four_grid_two_levels() {
        check_inverse(4, 64, 8);
    }

    #[test]
    fn base_size_forces_early_gather() {
        // With base_size >= n the whole inversion happens in the base case.
        check_inverse(2, 32, 64);
    }

    #[test]
    fn non_power_of_two_dimension_falls_back() {
        // n = 48 on a 2x2 grid: first split gives h = 24, which on the child
        // 1x1 grids is a plain local inversion.
        check_inverse(2, 48, 8);
    }

    /// Every rank is charged what the walk says, through leaves, splits
    /// and splits of splits.
    #[test]
    fn the_walk_is_what_every_rank_is_charged() {
        let traffic = |c: &CostCounters| (c.msgs_sent, c.msgs_recv, c.words_sent, c.words_recv);
        for (q, n, base) in [
            (1, 32, 8),
            (2, 32, 8),
            (2, 48, 8),
            (4, 64, 8),
            (4, 128, 16),
            (2, 32, 64),
        ] {
            let (_, report) = on_grid(q, move |grid| {
                let l = DistMatrix::from_global(grid, &gen::well_conditioned_lower(n, 3));
                tri_inv(&l, base).unwrap();
            });
            let walked = walk(n, q, base);
            for (rank, charged) in report.per_rank.iter().enumerate() {
                let what = format!("q={q} n={n} base={base} rank {rank}");
                assert_eq!(traffic(charged), traffic(&walked[rank]), "{what}");
            }
        }
    }

    #[test]
    fn rejects_rectangular_inputs() {
        let (results, _) = on_grid(2, |grid| {
            let rect = DistMatrix::zeros(grid, 8, 12);
            tri_inv(&rect, 64).is_err()
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn rejects_non_square_grid() {
        let out = Machine::new(2, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 1, 2).unwrap();
                let l = DistMatrix::zeros(&grid, 8, 8);
                tri_inv(&l, 64).is_err()
            })
            .unwrap();
        assert!(out.results.into_iter().all(|v| v));
    }

    #[test]
    fn latency_stays_polylogarithmic() {
        // The whole point of the inversion: on a 4x4 grid the number of
        // messages along the critical path stays small (O(log² p) collective
        // rounds), far below the O(n/q) rounds a wavefront solve would need.
        let n = 128;
        let (_, report) = on_grid(4, move |grid| {
            let l_global = gen::well_conditioned_lower(n, 1);
            let l = DistMatrix::from_global(grid, &l_global);
            tri_inv(&l, 16).unwrap();
        });
        assert!(
            report.max_messages() < 300,
            "latency {} should be polylogarithmic, not O(n)",
            report.max_messages()
        );
    }
}
