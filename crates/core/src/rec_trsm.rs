//! Recursive TRSM (Section IV of the paper) — the "standard" baseline.
//!
//! The algorithm follows Elmroth et al.'s recursive blocking:
//!
//! * when the processor grid is wider than it is tall (`pc > pr`, the case of
//!   many right-hand sides), the right-hand side is split into `pc/pr`
//!   independent column groups, the triangular matrix is **replicated** onto
//!   each square `pr × pr` sub-grid (an allgather), and the groups proceed
//!   independently;
//! * on a square grid the triangular matrix is split in half,
//!   `X₁ = L₁₁⁻¹·B₁` is solved recursively, the trailing right-hand side is
//!   updated with a 3D matrix multiplication (`B₂ ← B₂ − L₂₁·X₁`, Section III)
//!   and `X₂` is solved recursively;
//! * at the base case the triangular matrix is gathered everywhere and each
//!   processor solves a subset of complete right-hand-side columns locally.
//!
//! The recursion over `L` is what gives this algorithm its `Θ(poly(p))`
//! synchronization cost: every level performs at least one full collective,
//! and there are `n / n0` sequentialised levels on the critical path.
//! [`predicted_cost`] walks the same recursion, piece by piece, and prices
//! it with the cost model's collective and multiplication formulas.

use crate::error::config_error;
use crate::mm3d::mm3d;
use crate::planner::choose_mm_p1;
use crate::Result;
use costmodel::{collectives, mm, Cost};
use dense::Matrix;
use pgrid::distmat::cyclic_local_count;
use pgrid::redist::{redistribute, Axis, Filter, Layout};
use pgrid::{DistMatrix, Grid2D};
use simnet::{coll, CostCounters};
use std::borrow::Cow;

/// Solve `L·X = B` with the recursive algorithm.  `L` (`n×n`, lower
/// triangular) and `B` (`n×k`) must be distributed over the same `pr × pc`
/// grid with `pr ≤ pc` and `pr | pc`.  The recursion runs in the grid's
/// cyclic layout: an operand stored otherwise is moved into it first (of
/// `L`, only the lower triangle), and `X` is returned in `B`'s layout.  At or
/// below dimension `base_size` the base case (gather `L`, with ones on its
/// diagonal under `Diag::Unit`, and solve complete columns locally) is used.
pub fn rec_trsm(l: &DistMatrix, b: &DistMatrix, base_size: usize) -> Result<DistMatrix> {
    let grid = l.grid();
    let (pr, pc) = (grid.rows(), grid.cols());
    let n = l.rows();
    let k = b.cols();

    if l.cols() != n {
        return Err(config_error(
            "rec_trsm",
            format!("L must be square, got {}x{}", n, l.cols()),
        ));
    }
    if b.rows() != n {
        return Err(config_error(
            "rec_trsm",
            format!(
                "dimension mismatch: L is {}x{}, B is {}x{}",
                n,
                n,
                b.rows(),
                k
            ),
        ));
    }
    if b.grid().rows() != pr || b.grid().cols() != pc {
        return Err(config_error(
            "rec_trsm",
            "L and B must be distributed over the same grid",
        ));
    }
    if pr > pc || pc % pr != 0 {
        return Err(config_error(
            "rec_trsm",
            format!("grid must satisfy pr ≤ pc and pr | pc, got {pr}x{pc}"),
        ));
    }
    if pr * pc > 1 && (!n.is_multiple_of(pr) || !n.is_multiple_of(pc) || !k.is_multiple_of(pc)) {
        return Err(config_error(
            "rec_trsm",
            format!("n = {n} must be divisible by pr = {pr} and pc = {pc}, and k = {k} by pc"),
        ));
    }
    let (l_cyclic, b_cyclic) = (l.cyclic(Filter::Lower)?, b.cyclic(Filter::All)?);
    let x = rec_trsm_inner(&l_cyclic, &b_cyclic, base_size)?;
    match b_cyclic {
        Cow::Borrowed(_) => Ok(x),
        Cow::Owned(_) => Ok(x.to_layout(b.layout(), Filter::All)?),
    }
}

fn rec_trsm_inner(l: &DistMatrix, b: &DistMatrix, base_size: usize) -> Result<DistMatrix> {
    let grid = l.grid();
    let (pr, pc) = (grid.rows(), grid.cols());
    let n = l.rows();
    let k = b.cols();
    let p = pr * pc;

    // --- Column split onto square sub-grids (pc > pr). -------------------
    if pc > pr {
        let q = pc / pr;
        let (x, y) = grid.my_coords();
        let z = y / pr; // which square sub-grid this rank belongs to

        // Replicate L: allgather the pieces of L(·, cols ≡ y (mod pr)) over
        // the q ranks that share this rank's row and column residue.
        let lr = cyclic_local_count(n, pr, x);
        let lc_rep = cyclic_local_count(n, pr, y % pr);
        let l_rep = if q == 1 {
            l.local().clone()
        } else {
            let group = grid.subgroup_where(|r, c| r == x && c % pr == y % pr)?;
            let pieces = coll::allgatherv(&group, l.local().as_slice())?;
            let mut rep = Matrix::zeros(lr, lc_rep);
            for (m, piece) in pieces.into_iter().enumerate() {
                // Member m sits at grid column (y mod pr) + m·pr; its columns
                // interleave with stride q in the replicated piece.
                let src_cols = cyclic_local_count(n, pc, y % pr + m * pr);
                if src_cols == 0 || lr == 0 {
                    continue;
                }
                let block = Matrix::from_vec(lr, src_cols, piece)?;
                rep.set_strided_block(0, 1, m, q, block.as_view());
            }
            rep
        };

        // The square sub-grid of this rank (columns y with y/pr == z).
        let sub_members: Vec<usize> = (0..p)
            .filter(|&r| {
                let (_, c) = grid.coords_of(r);
                c / pr == z
            })
            .collect();
        let sub_comm = grid.comm().subgroup(&sub_members)?;
        let sub_grid = Grid2D::new(&sub_comm, pr, pr)?;

        let l_sub = DistMatrix::from_local(&sub_grid, n, n, l_rep)?.with_diag(l.diag());
        // B's columns owned by this sub-grid form a k/q-column problem whose
        // local pieces coincide with the existing ones.
        let b_sub = DistMatrix::from_local(&sub_grid, n, k / q, b.local().clone())?;
        let x_sub = rec_trsm_inner(&l_sub, &b_sub, base_size)?;
        return DistMatrix::from_local(grid, n, k, x_sub.into_local()).map_err(Into::into);
    }

    // --- Base case. -------------------------------------------------------
    if !halves(n, pr, base_size) {
        let l_full = l.try_to_global()?;
        // Give every rank complete columns: column c goes to rank c mod p.
        let by_columns = Layout::new(p, Axis::whole(n), Axis::cyclic(k, p), |_, c| Some(c));
        let mut b_cols = b.redistribute_to(&by_columns, Filter::All)?;
        let my_cols = b_cols.cols();
        if my_cols > 0 {
            // Solve in place: the gathered columns are overwritten with X.
            dense::trsm_in_place_opts(&dense::SolveOpts::lower(), &l_full, &mut b_cols)?;
            grid.comm()
                .charge_flops(dense::flops::trsm_flops(n, my_cols).get());
        }
        // Scatter the solution back to the cyclic layout.
        let cyclic = Layout::cyclic(grid, n, k);
        let x = redistribute(grid.comm(), &by_columns, &b_cols, &cyclic, Filter::All)?;
        return Ok(DistMatrix::from_layout(grid, cyclic, x)?);
    }

    // --- Recursive split of L on a square grid. ---------------------------
    let h = n / 2;
    let l11 = l.subview(0, h, 0, h)?;
    let l21 = l.subview(h, h, 0, h)?;
    let l22 = l.subview(h, h, h, h)?;
    let b1 = b.subview(0, h, 0, k)?;
    let b2 = b.subview(h, h, 0, k)?;

    let x1 = rec_trsm_inner(&l11, &b1, base_size)?;

    let update = mm3d(&l21, &x1, choose_mm_p1(h, k, pr))?;
    let mut b2_new = b2;
    b2_new.sub_assign(&update)?;

    let x2 = rec_trsm_inner(&l22, &b2_new, base_size)?;

    let mut x = DistMatrix::zeros(grid, n, k);
    x.set_subview(0, 0, &x1)?;
    x.set_subview(h, 0, &x2)?;
    Ok(x)
}

/// Whether the recursion halves an `n × n` triangle on a square `pr × pr`
/// grid instead of solving it as a base case: the one split decision the
/// executor and [`predicted_cost`] share.
fn halves(n: usize, pr: usize, base_size: usize) -> bool {
    pr > 1 && n.is_multiple_of(2 * pr) && n / 2 >= pr && n > base_size
}

/// The critical-path cost [`rec_trsm`] charges for an `n × n` triangle, `k`
/// right-hand sides and `base_size` on a `pr × pc` grid (`pr ≤ pc`,
/// `pr | pc`), from operands already in the grid's cyclic layout: the
/// recursion the executor runs, walked with its split decisions.
///
/// * column split (`pc > pr`): the allgatherv replicating `L` over the
///   `q = pc/pr` ranks of a row and column residue, then the square problem
///   with `k/q` right-hand sides;
/// * base case: the allgatherv gathering `L` everywhere, and the two Bruck
///   moves of `B` to complete columns and back ([`coll::bruck_counts`]);
/// * halving: both halves, and one `mm3d` update at the `p1` the executor
///   picks, priced by [`mm::mm_cost`].
///
/// S is exact on power-of-two grids.  W is exact but for the updates, where
/// `mm_cost` reads 0.8–1.35× what `mm3d` moves.  Flops count
/// multiply-adds, as every `costmodel` formula does.
pub fn predicted_cost(n: usize, k: usize, pr: usize, pc: usize, base_size: usize) -> Cost {
    let (nf, kf) = (n as f64, k as f64);
    if pc > pr {
        let q = pc / pr;
        let replicate = collectives::allgatherv(nf * nf / (pr * pc) as f64, q as f64);
        return replicate + predicted_cost(n, k / q, pr, pr, base_size);
    }
    let (p, pf) = (pr * pr, (pr * pr) as f64);
    if !halves(n, pr, base_size) {
        // B moves to complete columns (column c on rank c mod p) and back;
        // rank (x, y) holds the cyclic rows x and columns y.
        let block = |x: usize, d: usize| cyclic_local_count(n, pr, x) * cyclic_local_count(k, p, d);
        let there = coll::bruck_counts(p, |s| {
            (s % pr..p).step_by(pr).map(move |d| (d, block(s / pr, d)))
        });
        let back = coll::bruck_counts(p, |d| (0..pr).map(move |x| (x * pr + d % pr, block(x, d))));
        let moves = critical_path(there.iter().zip(&back).map(|(a, b)| a.merge(b)));
        let solve = Cost::new(0.0, 0.0, nf * nf * kf / (2.0 * pf));
        return collectives::allgatherv(nf * nf / pf, pf) + moves + solve;
    }
    let h = n / 2;
    let p1 = choose_mm_p1(h, k, pr);
    let update = mm::mm_cost(h as f64, kf, pf, p1 as f64, ((pr / p1) * (pr / p1)) as f64);
    predicted_cost(h, k, pr, pr, base_size).scaled(2.0) + update
}

/// The critical path of per-rank counts: the most messages, words and
/// flops any one rank is charged.
pub(crate) fn critical_path(ranks: impl IntoIterator<Item = CostCounters>) -> Cost {
    ranks.into_iter().fold(Cost::ZERO, |c, r| {
        let (s, w, f) = (r.latency() as f64, r.bandwidth() as f64, r.flops as f64);
        Cost::new(c.latency.max(s), c.bandwidth.max(w), c.flops.max(f))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use simnet::{Machine, MachineParams};

    fn on_grid<T: Send>(
        pr: usize,
        pc: usize,
        f: impl Fn(&Grid2D) -> T + Send + Sync,
    ) -> (Vec<T>, simnet::CostReport) {
        let out = Machine::new(pr * pc, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, pr, pc).unwrap();
                f(&grid)
            })
            .unwrap();
        (out.results, out.report)
    }

    fn check_solve(pr: usize, pc: usize, n: usize, k: usize, base: usize) {
        let (results, _) = on_grid(pr, pc, move |grid| {
            let l_global = gen::well_conditioned_lower(n, 9);
            let x_true = gen::rhs(n, k, 10);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(grid, &l_global);
            let b = DistMatrix::from_global(grid, &b_global);
            let x = rec_trsm(&l, &b, base).unwrap();
            dense::norms::rel_diff(&x.to_global(), &x_true)
        });
        for (rank, d) in results.into_iter().enumerate() {
            assert!(
                d < 1e-8,
                "pr={pr} pc={pc} n={n} k={k} rank={rank}: diff {d}"
            );
        }
    }

    #[test]
    fn single_processor_base_case() {
        check_solve(1, 1, 32, 8, 64);
    }

    #[test]
    fn square_grid_recursion() {
        check_solve(2, 2, 32, 8, 8);
        check_solve(2, 2, 64, 16, 16);
    }

    #[test]
    fn four_by_four_grid() {
        check_solve(4, 4, 64, 16, 16);
    }

    #[test]
    fn rectangular_grid_splits_columns() {
        // pc > pr: the right-hand side is split over two / four square grids.
        check_solve(2, 4, 32, 32, 8);
        check_solve(1, 4, 16, 32, 8);
        check_solve(2, 8, 32, 64, 8);
    }

    #[test]
    fn base_case_only_when_base_size_large() {
        check_solve(2, 2, 32, 8, 1024);
    }

    #[test]
    fn deep_recursion_with_small_base() {
        check_solve(2, 2, 128, 8, 8);
    }

    #[test]
    fn wide_right_hand_side() {
        check_solve(2, 2, 32, 128, 8);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (results, _) = on_grid(2, 2, |grid| {
            let l = DistMatrix::zeros(grid, 16, 16);
            let b = DistMatrix::zeros(grid, 16, 8);
            let rect_l = DistMatrix::zeros(grid, 16, 12);
            let bad_l = rec_trsm(&rect_l, &b, 64).is_err();
            let wrong_rows = {
                let b_bad = DistMatrix::zeros(grid, 12, 8);
                rec_trsm(&l, &b_bad, 64).is_err()
            };
            let bad_divisibility = {
                let l_odd = DistMatrix::zeros(grid, 18, 18);
                let b_odd = DistMatrix::zeros(grid, 18, 8);
                rec_trsm(&l_odd, &b_odd, 64).is_err()
            };
            bad_l && wrong_rows && bad_divisibility
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn rejects_tall_grids() {
        let out = Machine::new(8, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 4, 2).unwrap();
                let l = DistMatrix::zeros(&grid, 16, 16);
                let b = DistMatrix::zeros(&grid, 16, 8);
                rec_trsm(&l, &b, 64).is_err()
            })
            .unwrap();
        assert!(out.results.into_iter().all(|v| v));
    }

    #[test]
    fn the_walk_prices_the_column_split() {
        // (pr, pc, n, k, base, W tolerance).  1 × 16 replicates L over all
        // sixteen ranks and solves on 1 × 1 sub-grids: S 8, W 975, both
        // exact.  2 × 8 adds two base cases and one update on each 2 × 2
        // sub-grid: S 26, W 40 240, where the update's mm_cost is inexact.
        for (pr, pc, n, k, base, tol) in [(1, 16, 32, 2048, 16, 0.0), (2, 8, 256, 64, 128, 0.2)] {
            let (_, report) = on_grid(pr, pc, move |grid| {
                let l = DistMatrix::from_global(grid, &gen::well_conditioned_lower(n, 3));
                let b = DistMatrix::from_global(grid, &gen::rhs(n, k, 4));
                rec_trsm(&l, &b, base).unwrap();
            });
            let model = predicted_cost(n, k, pr, pc, base);
            assert_eq!(report.max_messages() as f64, model.latency, "{pr}x{pc}: S");
            let ratio = report.max_words() as f64 / model.bandwidth;
            assert!(
                (ratio - 1.0).abs() <= tol,
                "{pr}x{pc}: W is {ratio}× the walk's"
            );
        }
    }

    #[test]
    fn latency_grows_with_recursion_depth() {
        // The recursive algorithm's message count grows with n/base_size —
        // the behaviour the iterative algorithm is designed to avoid.
        let run = |n: usize, base: usize| {
            let (_, report) = on_grid(2, 2, move |grid| {
                let l_global = gen::well_conditioned_lower(n, 3);
                let b_global = gen::rhs(n, 8, 4);
                let l = DistMatrix::from_global(grid, &l_global);
                let b = DistMatrix::from_global(grid, &b_global);
                rec_trsm(&l, &b, base).unwrap();
            });
            report.max_messages()
        };
        let shallow = run(128, 64);
        let deep = run(128, 8);
        assert!(
            deep > shallow,
            "deeper recursion must cost more messages ({deep} vs {shallow})"
        );
    }
}
