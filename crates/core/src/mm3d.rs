//! 3D matrix multiplication from a 2D cyclic layout (Section III of the paper).
//!
//! Computes `B = A·X` where `A` is `n×n` and `X` is `n×k`, both distributed
//! cyclically over the same square `q×q` processor grid, using a logical
//! `p1 × p1 × p2` processor grid with `p = q² = p1²·p2`.  The schedule follows
//! the paper:
//!
//! 1. each group of `p2` processors sharing the coordinates
//!    `(i, j) = (x mod p1, y mod p1)` **allgathers** its pieces of the strided
//!    block `A(i : p1 : n, j : p1 : n)`                      (cost `β·n²/p1²`),
//! 2. the right-hand side is **transposed** to the layout the next step
//!    needs (the paper's lines 3–4; one all-to-all of the values, a
//!    lower-order term `O(β·nk·log p / p)`),
//! 3. each group of `p1` processors sharing `(j, l)` **allgathers**
//!    `X(j : p1 : n, slab_l)`                                (cost `β·nk/(p1p2)`),
//! 4. every processor multiplies its `(n/p1)×(n/p1)` block of `A` by its
//!    `(n/p1)×(k/p2)` block of `X`                           (cost `γ·n²k/p`),
//! 5. each group of `p1` processors sharing `(i, l)` **reduce-scatters** the
//!    partial results                                        (cost `(β+γ)·nk/(p1p2)`),
//! 6. the result is **transposed back** to the cyclic layout of `B`
//!    (lower-order, like step 2).
//!
//! The measured per-processor costs therefore reproduce the paper's
//! `T_MM = β·(n²/p1²·1_{p2} + 2nk/(p1p2)) + γ·n²k/p + O(α·log p + β·nk·log p/p)`.
//!
//! A triangular `A` is multiplied only on its triangle: every gathered block
//! `A(i : p1 : n, j : p1 : n)` is then a triangle too (of a lower `A`, the
//! block's lower triangle, strictly so when `j > i`), and the charged flops
//! are the triangle's ([`dense::flops::masked_gemm_flops`]).
//!
//! The gathered blocks, the partial product and the reduce buffer are
//! buffers from the machine's pool and go back to it once used.

use crate::error::config_error;
use crate::{walk, Result};
use dense::flops::masked_gemm_flops;
use dense::{MatRef, Matrix, TriMask, Triangle};
use pgrid::redist::{move_counts, redistribute, Axis, Filter, Holders, Layout};
use pgrid::{pooled_zeros, DistMatrix};
use simnet::{coll, CostCounters};
use std::borrow::Cow;

/// Multiply `A (n×n) · X (n×k)` on the grid both operands are distributed
/// over, using the automatically chosen (cost-optimal feasible) `p1`; `a_tri`
/// as in [`mm3d`].
pub fn mm3d_auto(a: &DistMatrix, x: &DistMatrix, a_tri: Option<Triangle>) -> Result<DistMatrix> {
    let q = a.grid().rows();
    let p1 = crate::planner::choose_mm_p1(a.rows(), x.cols(), q);
    mm3d(a, x, p1, a_tri)
}

/// Multiply `A (n×n) · X (n×k)` on a logical `p1 × p1 × p2` grid: `p1`, the
/// square-face dimension, must divide the 2D grid dimension `q`, and
/// `p2 = (q/p1)²` (`p1 = q` is the 2D case, with no replication of `A`).
///
/// `a_tri = Some(tri)` declares `A` triangular: only its `tri` triangle is
/// multiplied, whatever is stored in the other one.  For finite operands the
/// result is bitwise that of the product on `A` with the other triangle
/// filled with zeros, and the charged flops are those of the triangle.
pub fn mm3d(
    a: &DistMatrix,
    x: &DistMatrix,
    p1: usize,
    a_tri: Option<Triangle>,
) -> Result<DistMatrix> {
    let grid = a.grid();
    let q = grid.rows();
    let n = a.rows();
    let k = x.cols();

    if grid.rows() != grid.cols() {
        return Err(config_error(
            "mm3d",
            format!("grid must be square, got {}x{}", grid.rows(), grid.cols()),
        ));
    }
    if a.cols() != n {
        return Err(config_error(
            "mm3d",
            format!("A must be square, got {}x{}", n, a.cols()),
        ));
    }
    if x.rows() != n {
        return Err(config_error(
            "mm3d",
            format!(
                "inner dimensions disagree: A is {}x{}, X is {}x{}",
                n,
                n,
                x.rows(),
                k
            ),
        ));
    }
    if x.grid().rows() != q || x.grid().cols() != q || !a.is_cyclic() || !x.is_cyclic() {
        return Err(config_error(
            "mm3d",
            "A and X must be distributed cyclically over the same grid",
        ));
    }

    // Single processor: plain local multiplication.
    if q == 1 {
        let mut c = Matrix::zeros(n, k);
        let flops = dense::gemm_views(
            1.0,
            a.local().as_view(),
            false,
            x.local().as_view(),
            false,
            0.0,
            &mut c.as_view_mut(),
            a_tri.map(TriMask::a),
        )?;
        grid.comm().charge_flops(flops.get());
        return DistMatrix::from_local(grid, n, k, c).map_err(Into::into);
    }

    if p1 == 0 || !q.is_multiple_of(p1) {
        return Err(config_error(
            "mm3d",
            format!("p1 = {p1} must divide the grid dimension q = {q}"),
        ));
    }
    let s = q / p1;
    let p2 = s * s;
    if !n.is_multiple_of(q) || !k.is_multiple_of(q) {
        return Err(config_error(
            "mm3d",
            format!("n = {n} and k = {k} must be divisible by the grid dimension q = {q}"),
        ));
    }
    if !n.is_multiple_of(p1 * p1) {
        return Err(config_error(
            "mm3d",
            format!("n = {n} must be divisible by p1² = {}", p1 * p1),
        ));
    }
    if !k.is_multiple_of(p2) {
        return Err(config_error(
            "mm3d",
            format!("k = {k} must be divisible by p2 = {p2}"),
        ));
    }

    let comm = grid.comm();
    let (gx, gy) = grid.my_coords();
    let i = gx % p1;
    let j = gy % p1;
    let li = gx / p1;
    let lj = gy / p1;
    let nb = n / p1; // edge of the gathered A block
    let kw = k / p2; // width of a right-hand-side slab
    let contrib_rows = n / (p1 * p1); // rows each member contributes to the X allgather

    // ---- Step 1: allgather the strided block A(i : p1 : n, j : p1 : n). ----
    let a_blk = if p2 == 1 {
        Cow::Borrowed(a.local())
    } else {
        let group = grid.subgroup_where(|r, c| r % p1 == i && c % p1 == j)?;
        let gathered = coll::allgather(&group, a.local().as_slice())?;
        let piece_len = (n / q) * (n / q);
        let mut blk = pooled_zeros(comm, nb, nb);
        for m in 0..p2 {
            let piece = &gathered[m * piece_len..(m + 1) * piece_len];
            blk.set_strided_block(m / s, s, m % s, s, MatRef::from_slice(piece, n / q, n / q));
        }
        comm.give_buffer(gathered);
        Cow::Owned(blk)
    };

    // ---- Step 2: transpose X to the pre-allgather layout. ----
    let x_contrib = x.redistribute_to(&strided_layout(n, k, q, p1, true), Filter::All)?;
    debug_assert_eq!(x_contrib.dims(), (contrib_rows, kw));

    // ---- Step 3: allgather X(j : p1 : n, slab_l) within the p1-group. ----
    let x_blk = if p1 == 1 {
        x_contrib
    } else {
        let group = grid.subgroup_where(|r, c| c == gy && r / p1 == li)?;
        let gathered = coll::allgather(&group, x_contrib.as_slice())?;
        comm.give_buffer(x_contrib.into_vec());
        let mut blk = pooled_zeros(comm, nb, kw);
        let piece_len = contrib_rows * kw;
        for m in 0..p1 {
            let piece = &gathered[m * piece_len..(m + 1) * piece_len];
            blk.set_strided_block(m, p1, 0, 1, MatRef::from_slice(piece, contrib_rows, kw));
        }
        comm.give_buffer(gathered);
        blk
    };

    // ---- Step 4: local multiplication of the gathered blocks. ----
    let mut c_part = pooled_zeros(comm, nb, kw);
    let flops = dense::gemm_views(
        1.0,
        a_blk.as_view(),
        false,
        x_blk.as_view(),
        false,
        0.0,
        &mut c_part.as_view_mut(),
        a_tri.map(|tri| strided_block_mask(tri, i, j)),
    )?;
    comm.charge_flops(flops.get());
    comm.give_buffer(x_blk.into_vec());
    if let Cow::Owned(blk) = a_blk {
        comm.give_buffer(blk.into_vec());
    }

    // ---- Step 5: reduce-scatter the partial results within the p1-group. ----
    let my_chunk = if p1 == 1 {
        c_part
    } else {
        // Reorder rows so member j' owns the contiguous chunk of rows rb ≡ j'.
        let mut buffer = comm.take_buffer(nb * kw);
        for owner in 0..p1 {
            for t in 0..contrib_rows {
                buffer.extend_from_slice(c_part.row(owner + t * p1));
            }
        }
        comm.give_buffer(c_part.into_vec());
        let group = grid.subgroup_where(|r, c| r == gx && c / p1 == lj)?;
        let reduced = coll::reduce_scatter(&group, &buffer, coll::ReduceOp::Sum)?;
        comm.give_buffer(buffer);
        Matrix::from_vec(contrib_rows, kw, reduced)?
    };

    // ---- Step 6: transpose the result back to the cyclic layout of B. ----
    let chunks = strided_layout(n, k, q, p1, false);
    let cyclic = Layout::cyclic(grid, n, k);
    let b = redistribute(comm, &chunks, &my_chunk, &cyclic, Filter::All)?;
    comm.give_buffer(my_chunk.into_vec());
    Ok(DistMatrix::from_layout(grid, cyclic, b)?)
}

/// The layouts [`mm3d`] moves the `n × k` right-hand side and result through
/// on the `q × q` grid at `p1`: rows dealt in classes of `g mod p1²`, columns
/// in the `p2` slabs.  Row `g` of the `contributions` (step 2) goes to face
/// coordinates `j = g mod p1`, `i = (g / p1) mod p1`; a chunk of the result
/// (step 6) holds rows `a = i + p1·(j + t·p1)`, with `i` and `j` the other
/// way round.  Slab `l` lies on layer `l` of the `p1 × p1 × p2` grid.  As a
/// formula, piece `(rc, l)` is on rank `q·(rc mod p1) + rc div p1 +
/// p1·(l mod s) + q·p1·(l div s)`, the two row digits swapped for the
/// contributions.
fn strided_layout(n: usize, k: usize, q: usize, p1: usize, contributions: bool) -> Layout {
    let s = q / p1;
    let (low, high) = if contributions { (1, q) } else { (q, 1) };
    let holders = Holders::split((p1, low, high), (s, p1, p1 * q));
    let (rows, cols) = (Axis::cyclic(n, p1 * p1), Axis::slabs(k, s * s));
    Layout::new(q * q, rows, cols, holders)
}

/// What [`mm3d`] charges each rank `x·q + y` of the `q × q` grid for an
/// `n×n` by `n×k` product at `p1`, from cyclic operands: the allgather of
/// `A`'s strided block over `p2` ranks, the two moves of step 2 and 6, and
/// the allgather and reduce-scatter over `p1` ranks, and the product of
/// the rank's blocks, of `A`'s triangle `a_tri` when it has one.  The mask
/// changes no message.  A shape [`mm3d`] refuses charges nothing: it fails
/// before it sends.
pub(crate) fn walk(
    n: usize,
    k: usize,
    q: usize,
    p1: usize,
    a_tri: Option<Triangle>,
) -> Vec<CostCounters> {
    let mask = |i, j| a_tri.map(|tri| strided_block_mask(tri, i, j));
    if q == 1 {
        return vec![walk::work(masked_gemm_flops(n, n, k, mask(0, 0)))];
    }
    let s = q / p1;
    let fits = q.is_multiple_of(p1) && n.is_multiple_of(q) && k.is_multiple_of(q);
    if !(fits && n.is_multiple_of(p1 * p1) && k.is_multiple_of(s * s)) {
        return vec![CostCounters::default(); q * q];
    }
    let (nb, kw, contrib_rows) = (n / p1, k / (s * s), n / (p1 * p1));
    let cyclic = Layout::cyclic_over(q, q, n, k);
    let mut ranks = move_counts(&cyclic, &strided_layout(n, k, q, p1, true), Filter::All);
    walk::add(
        &mut ranks,
        &move_counts(&strided_layout(n, k, q, p1, false), &cyclic, Filter::All),
    );
    for (r, rank) in ranks.iter_mut().enumerate() {
        let (x, y) = (r / q, r % q);
        let mut c = walk::work(masked_gemm_flops(nb, nb, kw, mask(x % p1, y % p1)));
        if s > 1 {
            c = c.merge(&coll::allgather_counts(
                s * s,
                (n / q) * (n / q),
                x / p1 * s + y / p1,
            ));
        }
        if p1 > 1 {
            c = c.merge(&coll::allgather_counts(p1, contrib_rows * kw, x % p1));
            c = c.merge(&coll::reduce_scatter_counts(p1, nb * kw, y % p1));
        }
        *rank = rank.merge(&c);
    }
    ranks
}

/// The triangle of the strided block `M(i : p : n, j : p : n)` of an `n×n`
/// matrix `M` that occupies its `tri` triangle, for any stride `p` with
/// `i, j < p`.
///
/// Block entry `(r, c)` is `M(i + p·r, j + p·c)`, so it lies in the lower
/// triangle iff `p·(c − r) ≤ i − j`: on or below the block's main diagonal
/// when `j ≤ i`, strictly below it otherwise (and symmetrically for upper).
pub(crate) fn strided_block_mask(tri: Triangle, i: usize, j: usize) -> TriMask {
    let offset = match tri {
        Triangle::Lower if j > i => -1,
        Triangle::Upper if i > j => 1,
        _ => 0,
    };
    TriMask::a(tri).with_diagonal(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};

    /// Run `f` on a q×q grid and return the per-rank results plus the report.
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

    fn check_mm(q: usize, p1: usize, n: usize, k: usize) {
        let (results, _) = on_grid(q, move |grid| {
            let a_global = gen::uniform(n, n, 11);
            let x_global = gen::uniform(n, k, 22);
            let a = DistMatrix::from_global(grid, &a_global);
            let x = DistMatrix::from_global(grid, &x_global);
            let b = mm3d(&a, &x, p1, None).unwrap();
            let expect = dense::matmul(&a_global, &x_global);
            let got = b.to_global();
            dense::norms::rel_diff(&got, &expect)
        });
        for (rank, d) in results.into_iter().enumerate() {
            assert!(
                d < 1e-10,
                "q={q} p1={p1} n={n} k={k} rank={rank}: rel diff {d}"
            );
        }
    }

    #[test]
    fn single_processor_multiplies_locally() {
        check_mm(1, 1, 16, 8);
    }

    #[test]
    fn two_by_two_grid_all_p1_choices() {
        check_mm(2, 1, 16, 8);
        check_mm(2, 2, 16, 8);
    }

    #[test]
    fn four_by_four_grid_all_p1_choices() {
        check_mm(4, 1, 32, 16);
        check_mm(4, 2, 32, 16);
        check_mm(4, 4, 32, 16);
    }

    #[test]
    fn rectangular_right_hand_sides() {
        // Wide right-hand side (k > n) and narrow (k < n).
        check_mm(2, 2, 8, 32);
        check_mm(4, 4, 64, 16);
        check_mm(4, 2, 16, 64);
    }

    /// A triangular `A` is multiplied only on its triangle, on every path
    /// (`q = 1`, `p2 = 1` and the `p2 > 1` gather), on the small-product
    /// loop and the packed kernel: the result is bitwise the product on the
    /// zero-filled `A`, and NaN stored in the other triangle never reaches it.
    #[test]
    fn a_triangular_a_multiplies_only_its_triangle() {
        for (q, tri) in [1usize, 2, 4]
            .into_iter()
            .flat_map(|q| [(q, Triangle::Lower), (q, Triangle::Upper)])
        {
            for (n, k) in [(32, 16), (128, 64)] {
                for p1 in (0..=q.ilog2()).map(|e| 1 << e) {
                    let (results, _) = on_grid(q, move |grid| {
                        let full = gen::uniform(n, n, 5);
                        let kept = |i: usize, j: usize| match tri {
                            Triangle::Lower => j <= i,
                            Triangle::Upper => j >= i,
                        };
                        let stored = |other: f64| {
                            DistMatrix::from_fn(grid, n, n, |i, j| {
                                if kept(i, j) {
                                    full[(i, j)]
                                } else {
                                    other
                                }
                            })
                        };
                        let x = DistMatrix::from_global(grid, &gen::uniform(n, k, 6));
                        let bits = |a: &DistMatrix, a_tri| -> Vec<u64> {
                            let b = mm3d(a, &x, p1, a_tri).unwrap().to_global();
                            b.as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        let (zero_filled, poisoned) = (stored(0.0), stored(f64::NAN));
                        let reference = bits(&zero_filled, None);
                        (
                            bits(&zero_filled, Some(tri)) == reference,
                            bits(&poisoned, Some(tri)) == reference,
                        )
                    });
                    for (masked, poisoned) in results {
                        let case = format!("{tri:?} q={q} p1={p1} n={n} k={k}");
                        assert!(masked, "{case}: masked product differs from zero-filled");
                        assert!(poisoned, "{case}: the other triangle leaked in");
                    }
                }
            }
        }
    }

    /// Every rank is charged what the walk says — messages, words and
    /// flops — on every face size, for a full and a triangular `A`.
    #[test]
    fn the_walk_is_what_every_rank_is_charged() {
        let charges = |c: &CostCounters| {
            let (s, w) = ((c.msgs_sent, c.msgs_recv), (c.words_sent, c.words_recv));
            (s, w, c.flops)
        };
        let shapes = [(1usize, 16, 8), (2, 16, 8), (4, 32, 16), (4, 64, 64)];
        let triangles = [None, Some(Triangle::Lower), Some(Triangle::Upper)];
        for ((q, n, k), a_tri) in shapes.into_iter().flat_map(|s| triangles.map(|t| (s, t))) {
            for p1 in (0..=q.ilog2()).map(|e| 1 << e) {
                let (_, report) = on_grid(q, move |grid| {
                    let a = DistMatrix::from_global(grid, &gen::uniform(n, n, 1));
                    let x = DistMatrix::from_global(grid, &gen::uniform(n, k, 2));
                    mm3d(&a, &x, p1, a_tri).unwrap();
                });
                let walked = walk(n, k, q, p1, a_tri);
                for (rank, charged) in report.per_rank.iter().enumerate() {
                    let what = format!("{a_tri:?} q={q} p1={p1} n={n} k={k} rank {rank}");
                    assert_eq!(charges(charged), charges(&walked[rank]), "{what}");
                }
            }
        }
    }

    #[test]
    fn auto_configuration_works() {
        let (results, _) = on_grid(4, |grid| {
            let a_global = gen::uniform(64, 64, 3);
            let x_global = gen::uniform(64, 16, 4);
            let a = DistMatrix::from_global(grid, &a_global);
            let x = DistMatrix::from_global(grid, &x_global);
            let b = mm3d_auto(&a, &x, None).unwrap();
            dense::norms::rel_diff(&b.to_global(), &dense::matmul(&a_global, &x_global))
        });
        assert!(results.into_iter().all(|d| d < 1e-10));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (results, _) = on_grid(2, |grid| {
            let a = DistMatrix::zeros(grid, 16, 16);
            let x = DistMatrix::zeros(grid, 16, 8);
            let bad_p1 = mm3d(&a, &x, 3, None).is_err();
            let rect_a = DistMatrix::zeros(grid, 16, 12);
            let bad_square = mm3d(&rect_a, &x, 2, None).is_err();
            let mismatched = {
                let y = DistMatrix::zeros(grid, 12, 8);
                mm3d(&a, &y, 2, None).is_err()
            };
            let bad_divisibility = {
                let a2 = DistMatrix::zeros(grid, 18, 18);
                let x2 = DistMatrix::zeros(grid, 18, 8);
                mm3d(&a2, &x2, 2, None).is_err()
            };
            bad_p1 && bad_square && mismatched && bad_divisibility
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn bandwidth_matches_leading_order_model() {
        // On a 4x4 grid with p1 = 2 (p2 = 4), the main bandwidth terms are
        // n²/p1² (A allgather) + 2nk/(p1·p2) (X allgather + reduce-scatter).
        let n = 256;
        let k = 64;
        let q = 4;
        let p1 = 2;
        let (_, report) = on_grid(q, move |grid| {
            let a = DistMatrix::from_fn(grid, n, n, |i, j| ((i * 7 + j) % 13) as f64);
            let x = DistMatrix::from_fn(grid, n, k, |i, j| ((i + j * 3) % 7) as f64);
            mm3d(&a, &x, p1, None).unwrap();
        });
        let p2 = (q / p1) * (q / p1);
        let main = (n * n / (p1 * p1) + 2 * n * k / (p1 * p2)) as f64;
        let measured = report.max_words() as f64;
        // The two layout transposes move only values (plus a 3-word header
        // per forwarded block), so they stay the lower-order term they are
        // in the model.
        assert!(measured > 0.8 * main, "measured {measured} vs model {main}");
        assert!(measured < 1.5 * main, "measured {measured} vs model {main}");
        // Latency stays logarithmic (a handful of collective rounds).
        assert!(report.max_messages() < 64);
        // Flops are load balanced: n²k/p multiply-adds → 2·n²k/p flops, plus
        // the (tiny) additions performed inside the reduce-scatter.
        let per_proc = (2 * n * n * k / (q * q)) as u64;
        assert!(report.max_flops() >= per_proc);
        assert!(report.max_flops() < per_proc + (n * k) as u64);
    }
}
