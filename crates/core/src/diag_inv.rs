//! Block-diagonal triangular inversion (`Diagonal-Inverter`, Section VI-A).
//!
//! Before the iterative solve starts, the `n/n0` diagonal blocks
//! `L(S_g, S_g)` of size `n0 × n0` are inverted, each by a *distinct* group
//! of processors working concurrently.  Replacing the small, latency-bound
//! triangular solves with multiplications by these explicit inverses is what
//! removes the `Θ(n/n0)` synchronisation bottleneck from the solve phase.
//!
//! Two cases, both handled here:
//!
//! * **fewer blocks than processors** — each block is redistributed onto its
//!   own sub-grid (the redistribution the paper bounds "by an all-to-all")
//!   and inverted with the distributed recursion of [`crate::tri_inv`];
//! * **at least as many blocks as processors** — blocks are assigned
//!   round-robin, each processor inverts its blocks locally (a single
//!   processor simply owns them all).
//!
//! The inverses come back *stacked* ([`stacked_layout`]): the cyclic owners
//! of `L`'s diagonal blocks on the `q × q` grid receive them, each row
//! keeping only the columns of its own diagonal block, so a rank holds
//! `n/q × n0/q` words instead of a copy of its piece of `L`.
//!
//! Deviations from the paper:
//!
//! * the groups are formed from the processors of the grid that owns `L`
//!   (the face of the 3D grid in `It-Inv-TRSM`) rather than from all `p`
//!   processors.  So the phase can dominate: with few blocks on a small
//!   face a block's sub-grid can be a single rank.  At T1's 3D row
//!   (`conclusion_table`: n = 256, k = 64, p1 = 2, p2 = 4, n0 = 128) one
//!   rank inverts a whole 128-block, 714 432 of its 981 184 flops, while
//!   14 of the 16 ranks wait.  ROADMAP item 25 tracks spreading the
//!   inversion over all `p` ranks;
//! * the paper's `L̃` — `L` with every diagonal block replaced by its
//!   inverse — is never materialised.  Off the diagonal blocks `L̃` *is*
//!   `L`, so `It-Inv-TRSM` reads its panels from `L` and its inverted blocks
//!   from the stacked output.  The messages are the paper's: the same
//!   entries travel between the same ranks, in the same order, as writing
//!   the inverses back into `L̃` would send.

use crate::error::config_error;
use crate::tri_inv::tri_inv;
use crate::{walk, Result};
use dense::{Diag, Matrix, Triangle};
use pgrid::redist::{move_counts, redistribute, Axis, Filter, Holders, Layout};
use pgrid::{DistMatrix, Grid2D};
use simnet::CostCounters;

/// The columns of every row's own diagonal block of size `n0`, cut over `q`
/// classes: column `j` is entry `(j mod n0) / q` of class `j mod q` — blocks
/// of `n0` in one block class, stacked, offsets over `q`.  Not injective
/// across blocks, so only a `Filter::DiagBlocksLower(n0)` redistribution may
/// use it; `q` must divide `n0`.
pub(crate) fn block_columns(n: usize, n0: usize, q: usize) -> Axis {
    Axis::new(n, n0, 1, q).stacked()
}

/// The layout [`diagonal_inverter`] returns its output in, on a square
/// `q × q` grid: piece `(x, y)` — the rows `≡ x` and, of each, the columns
/// `≡ y (mod q)` of the row's own `n0 × n0` diagonal block — on rank
/// `x·q + y`, the cyclic owner of those entries, an `n/q × n0/q` piece.
/// Local row `i / q` holds global row `i`, local column `(j mod n0) / q`
/// column `j`.
pub fn stacked_layout(q: usize, n: usize, n0: usize) -> Layout {
    let (rows, cols) = (Axis::cyclic(n, q), block_columns(n, n0, q));
    Layout::new(q * q, rows, cols, Holders::strides(q, 1))
}

/// The round-robin route of `p_face ≤ n/n0` ranks: block `g` on rank
/// `g mod p_face`, stacked — its `t`-th block occupies rows `t·n0 ..` of an
/// `n0`-column local matrix.  Piece `(rc, cc)` is held when `rc = cc`, on
/// rank `rc`: the block-diagonal map at modulus 1.  On one rank this is
/// [`stacked_layout`] itself.
fn round_robin(p_face: usize, n: usize, n0: usize) -> Layout {
    let blocks = Axis::new(n, n0, p_face, 1);
    let diagonal = Holders::block_diagonal(1, (0, 1), 0);
    Layout::new(p_face, blocks, blocks.stacked(), diagonal)
}

/// The sub-grid route of `p_face > nblocks` ranks: `(group_size, side)`,
/// each block's group of `p_face / nblocks` consecutive ranks and the side
/// of the largest power-of-two square that fits in it, whose first
/// `side²` ranks invert the block.
fn sub_grids(p_face: usize, nblocks: usize) -> (usize, usize) {
    let group_size = p_face / nblocks;
    let mut side = 1usize;
    while 4 * side * side <= group_size {
        side *= 2;
    }
    (group_size, side)
}

/// Block `g` cyclic on the `side × side` sub-grid formed by the first
/// `side²` ranks of group `g`: its row at offset `o` is entry `o / side` of
/// class `g·side + o mod side`.  Piece `(rc, cc)` is held when
/// `rc div side = cc div side = g`, on rank
/// `g·group_size + (rc mod side)·side + cc mod side`: the block-diagonal
/// map at modulus `side`.
fn on_sub_grids(p_face: usize, n: usize, n0: usize) -> Layout {
    let nblocks = n / n0;
    let (group_size, side) = sub_grids(p_face, nblocks);
    let block_axis = Axis::new(n, n0, nblocks, side);
    let sub_grid = Holders::block_diagonal(side, (side, group_size), 1);
    Layout::new(p_face, block_axis, block_axis, sub_grid)
}

/// What [`diagonal_inverter`] charges each rank `x·q + y` of the `q × q`
/// grid for the diagonal blocks of size `n0` of an `n × n` triangle stored
/// cyclically: the move onto the route the executor picks, the inversions
/// (one [`crate::tri_inv`] walk per sub-grid size, charged to every
/// sub-grid), and the move into [`stacked_layout`].
pub(crate) fn walk(n: usize, n0: usize, q: usize, inv_base: usize) -> Vec<CostCounters> {
    let (p_face, nblocks) = (q * q, n / n0);
    let (cyclic, stacked) = (Layout::cyclic_over(q, q, n, n), stacked_layout(q, n, n0));
    let diag_blocks = Filter::DiagBlocksLower(n0);
    let invert = walk::work(dense::flops::tri_inv_flops(n0));
    if nblocks >= p_face {
        let route = round_robin(p_face, n, n0);
        let mut ranks = move_counts(&cyclic, &route, diag_blocks);
        walk::add(&mut ranks, &move_counts(&route, &stacked, diag_blocks));
        for (r, rank) in ranks.iter_mut().enumerate() {
            let mine = (nblocks - r).div_ceil(p_face);
            *rank = rank.merge(&walk::times(invert, mine));
        }
        return ranks;
    }
    let (group_size, side) = sub_grids(p_face, nblocks);
    let route = on_sub_grids(p_face, n, n0);
    let mut ranks = move_counts(&cyclic, &route, diag_blocks);
    walk::add(&mut ranks, &move_counts(&route, &stacked, diag_blocks));
    let block = match side {
        1 => vec![invert],
        _ => crate::tri_inv::walk(n0, side, inv_base),
    };
    for g in 0..nblocks {
        walk::add_members(&mut ranks, g * group_size.., &block);
    }
    ranks
}

/// Invert the diagonal blocks of a lower-triangular matrix distributed over
/// a square `q × q` grid, in any layout.  Returns this rank's piece of the
/// inverses under [`stacked_layout`]`(q, n, n0)`, zero above each block's
/// diagonal; `L` itself is read, never copied, and the blocks' copies read
/// its diagonal kind.  `n0` must divide the matrix dimension and be a
/// multiple of `q`; `inv_base` is the base-case size handed to the
/// distributed triangular inversion used when several ranks share one
/// diagonal block (local inversions recurse to `dense`'s own cut-off, so
/// their flop accounting is independent of the configuration).
pub fn diagonal_inverter(l: &DistMatrix, n0: usize, inv_base: usize) -> Result<Matrix> {
    let grid = l.grid();
    let q = grid.rows();
    let n = l.rows();

    if grid.rows() != grid.cols() {
        return Err(config_error(
            "diagonal_inverter",
            format!("grid must be square, got {}x{}", grid.rows(), grid.cols()),
        ));
    }
    if l.rows() != l.cols() {
        return Err(config_error(
            "diagonal_inverter",
            format!("matrix must be square, got {}x{}", l.rows(), l.cols()),
        ));
    }
    if n0 == 0 || !n.is_multiple_of(n0) || !n0.is_multiple_of(q) {
        return Err(config_error(
            "diagonal_inverter",
            format!("block size n0 = {n0} must divide n = {n} and be a multiple of q = {q}"),
        ));
    }

    let comm = grid.comm();
    let unit = l.diag() == Diag::Unit;
    let p_face = q * q;
    let nblocks = n / n0;
    let stacked = stacked_layout(q, n, n0);
    let diag_blocks = Filter::DiagBlocksLower(n0);

    if nblocks >= p_face {
        // --- At least as many blocks as processors: round-robin local
        //     inversions, where the blocks land.
        let round_robin = round_robin(p_face, n, n0);
        let mut mine = l.redistribute_to(&round_robin, diag_blocks)?;

        // Invert the blocks this rank owns, where they lie.
        for t in 0..mine.rows() / n0 {
            if unit {
                (0..n0).for_each(|o| mine[(t * n0 + o, o)] = 1.0);
            }
            let flops =
                dense::tri_invert_in_place(Triangle::Lower, &mut mine.view_mut(t * n0, 0, n0, n0))?;
            comm.charge_flops(flops.get());
        }
        let inverses = redistribute(comm, &round_robin, &mine, &stacked, diag_blocks)?;
        comm.give_buffer(mine.into_vec());
        return Ok(inverses);
    }

    // --- Fewer blocks than processors: one sub-grid per block. -------------
    let (group_size, side) = sub_grids(p_face, nblocks);
    let active = side * side;
    let on_subgrids = on_sub_grids(p_face, n, n0);
    let received = l.redistribute_to(&on_subgrids, diag_blocks)?;

    // Every rank joins exactly one subgroup call so communicator bookkeeping
    // stays aligned; ranks that are not active members get `Err` and skip.
    let my_rank = comm.rank();
    let my_group = my_rank / group_size;
    let my_slot = my_rank % group_size;
    let members: Vec<usize> = if my_group < nblocks && my_slot < active {
        (my_group * group_size..my_group * group_size + active).collect()
    } else {
        Vec::new()
    };
    let sub_comm = comm.subgroup(&members);

    let inverted = match &sub_comm {
        Ok(sub) => {
            let sub_grid = Grid2D::new(sub, side, side)?;
            let mut block = DistMatrix::from_local(&sub_grid, n0, n0, received)?;
            Some(if side == 1 {
                if unit {
                    (0..n0).for_each(|o| block.local_mut()[(o, o)] = 1.0);
                }
                let flops = dense::tri_invert_in_place(
                    Triangle::Lower,
                    &mut block.local_mut().as_view_mut(),
                )?;
                comm.charge_flops(flops.get());
                block
            } else {
                tri_inv(&block.with_diag(l.diag()), inv_base)?
            })
        }
        Err(_) => None,
    };
    // Send the inverted blocks back to their cyclic owners on the face grid.
    let nothing = Matrix::zeros(0, 0);
    let inverses = redistribute(
        comm,
        &on_subgrids,
        inverted.as_ref().map_or(&nothing, DistMatrix::local),
        &stacked,
        diag_blocks,
    )?;
    Ok(inverses)
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

    /// Check that every rank's stacked piece holds its entries of the
    /// inverted diagonal blocks, and zeros above their diagonals.
    fn check(q: usize, n: usize, n0: usize) {
        let (results, _) = on_grid(q, move |grid| {
            let l_global = gen::well_conditioned_lower(n, 17);
            let l = DistMatrix::from_global(grid, &l_global);
            let got = diagonal_inverter(&l, n0, 8).unwrap();
            assert_eq!(got.dims(), (n / q, n0 / q));
            let inverses: Vec<Matrix> = (0..n / n0)
                .map(|g| {
                    let blk = l_global.block(g * n0, g * n0, n0, n0);
                    dense::tri_invert(Triangle::Lower, &blk).unwrap().0
                })
                .collect();
            let (x, y) = grid.my_coords();
            let (mut max_err, mut upper_zero) = (0.0f64, true);
            for li in 0..n / q {
                for lj in 0..n0 / q {
                    // Global row i, column bj of row i's own block.
                    let (i, bj) = (li * q + x, lj * q + y);
                    let (g, bi) = (i / n0, i % n0);
                    if bj <= bi {
                        max_err = max_err.max((got[(li, lj)] - inverses[g][(bi, bj)]).abs());
                    } else {
                        upper_zero &= got[(li, lj)] == 0.0;
                    }
                }
            }
            (max_err, upper_zero)
        });
        for (err, upper_zero) in results {
            assert!(
                err < 1e-8,
                "q={q} n={n} n0={n0}: diagonal block error {err}"
            );
            assert!(upper_zero, "entries above a block's diagonal must be zero");
        }
    }

    #[test]
    fn single_processor_all_block_sizes() {
        check(1, 32, 8);
        check(1, 32, 32);
        check(1, 32, 4);
    }

    #[test]
    fn more_blocks_than_processors() {
        // 2x2 grid (4 procs), 8 blocks → round-robin local inversions.
        check(2, 64, 8);
    }

    #[test]
    fn fewer_blocks_than_processors() {
        // 4x4 grid (16 procs), 2 blocks → each block inverted on a sub-grid.
        check(4, 64, 32);
        // One block = the full matrix (n0 = n): equivalent to tri_inv.
        check(4, 64, 64);
    }

    #[test]
    fn equal_blocks_and_processors() {
        check(2, 32, 8); // 4 blocks on 4 processors
    }

    #[test]
    fn block_size_one_degenerates_to_reciprocals() {
        let (results, _) = on_grid(1, |grid| {
            let l_global = gen::well_conditioned_lower(8, 3);
            let l = DistMatrix::from_global(grid, &l_global);
            let got = diagonal_inverter(&l, 1, 8).unwrap();
            (0..8)
                .map(|i| (got[(i, 0)] - 1.0 / l_global[(i, i)]).abs())
                .fold(0.0, f64::max)
        });
        assert!(results.into_iter().all(|e| e < 1e-12));
    }

    #[test]
    fn invalid_block_sizes_rejected() {
        let (results, _) = on_grid(2, |grid| {
            let l = DistMatrix::zeros(grid, 16, 16);
            let bad_zero = diagonal_inverter(&l, 0, 8).is_err();
            let bad_divide = diagonal_inverter(&l, 5, 8).is_err();
            // n0 = 1 divides n but is not a multiple of q = 2.
            let bad_multiple = matches!(
                diagonal_inverter(&l, 1, 8),
                Err(crate::TrsmError::InvalidConfig { .. })
            );
            let rect = DistMatrix::zeros(grid, 16, 8);
            let bad_rect = diagonal_inverter(&rect, 4, 8).is_err();
            bad_zero && bad_divide && bad_multiple && bad_rect
        });
        assert!(results.into_iter().all(|v| v));
    }
}
