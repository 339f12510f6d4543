//! Row-fan-out TRSM baseline (Heath & Romine, Section II-C3 of the paper).
//!
//! The classical distributed substitution algorithm for triangular systems:
//! the rows of `L`, `B` and `X` are distributed cyclically over all `p`
//! processors (a 1D layout); row `i` is solved by its owner and broadcast,
//! after which every processor updates its own later rows.  With `k`
//! right-hand sides this performs the optimal `n²k/p` flops but needs `Θ(n)`
//! broadcast rounds — the `Θ(n·log p)` synchronization cost that both the
//! recursive and the inversion-based algorithms of the paper improve on.
//! It is included as an independent sanity baseline for the experiments; the
//! conclusion-table comparison uses the paper's own recursive baseline.

use crate::error::config_error;
use crate::Result;
use dense::Diag;
use pgrid::redist::{redistribute, Axis, Filter, Layout};
use pgrid::DistMatrix;
use simnet::coll;

/// Solve `L·X = B` by row fan-out substitution.
///
/// `L` (`n×n` lower triangular) and `B` (`n×k`) may be distributed over any
/// 2D grid in any layout; they are redistributed internally to a 1D
/// row-cyclic layout over all `p` processors, and the solution is returned
/// in `B`'s layout.  The pivots read `L`'s diagonal kind.
pub fn wavefront_trsm(l: &DistMatrix, b: &DistMatrix) -> Result<DistMatrix> {
    let grid = l.grid();
    let comm = grid.comm();
    let p = comm.size();
    let n = l.rows();
    let k = b.cols();
    if l.cols() != n {
        return Err(config_error(
            "wavefront_trsm",
            format!("L must be square, got {}x{}", n, l.cols()),
        ));
    }
    if b.rows() != n {
        return Err(config_error(
            "wavefront_trsm",
            format!("dimension mismatch: L is {n}x{n}, B is {}x{k}", b.rows()),
        ));
    }
    let me = comm.rank();

    // Redistribute to a row-cyclic 1D layout: row i lives on rank i mod p.
    let by_rows =
        |cols: usize| Layout::new(p, Axis::cyclic(n, p), Axis::whole(cols), |r, _| Some(r));
    let to_rows = |m: &DistMatrix| m.redistribute_to(&by_rows(m.cols()), Filter::All);
    let l_local = to_rows(l)?;
    let mut b_local = to_rows(b)?;
    let my_rows = l_local.rows();

    // Forward substitution, one row at a time.
    for i in 0..n {
        let owner = i % p;
        let xi = if owner == me {
            let li = i / p;
            let pivot = match l.diag() {
                Diag::Unit => 1.0,
                Diag::NonUnit => l_local[(li, i)],
            };
            if pivot.abs() < 1e-300 {
                return Err(dense::DenseError::SingularPivot {
                    index: i,
                    value: pivot,
                }
                .into());
            }
            let mut row: Vec<f64> = (0..k).map(|c| b_local[(li, c)] / pivot).collect();
            comm.charge_flops(k as u64);
            // Store the solved row back.
            for (c, v) in row.iter().enumerate() {
                b_local[(li, c)] = *v;
            }
            std::mem::take(&mut row)
        } else {
            Vec::new()
        };
        let xi = coll::bcast(comm, owner, &xi, k)?;
        // Update the rows this processor owns below row i.
        for li in 0..my_rows {
            let gi = li * p + me;
            if gi <= i {
                continue;
            }
            let lij = l_local[(li, i)];
            if lij == 0.0 {
                continue;
            }
            for c in 0..k {
                b_local[(li, c)] -= lij * xi[c];
            }
        }
        comm.charge_flops(2 * ((my_rows * k) as u64));
    }

    // Return X in B's layout.
    let x = redistribute(comm, &by_rows(k), &b_local, b.layout(), Filter::All)?;
    Ok(DistMatrix::from_layout(grid, b.layout().clone(), x)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};

    fn check(pr: usize, pc: usize, n: usize, k: usize) {
        let out = Machine::new(pr * pc, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, pr, pc).unwrap();
                let l_global = gen::well_conditioned_lower(n, 31);
                let x_true = gen::rhs(n, k, 32);
                let b_global = dense::matmul(&l_global, &x_true);
                let l = DistMatrix::from_global(&grid, &l_global);
                let b = DistMatrix::from_global(&grid, &b_global);
                let x = wavefront_trsm(&l, &b).unwrap();
                dense::norms::rel_diff(&x.to_global(), &x_true)
            })
            .unwrap();
        for d in out.results {
            assert!(d < 1e-8, "pr={pr} pc={pc} n={n} k={k}: {d}");
        }
    }

    #[test]
    fn solves_on_various_grids() {
        check(1, 1, 24, 4);
        check(2, 2, 32, 8);
        check(1, 3, 21, 5);
    }

    #[test]
    fn latency_scales_linearly_with_n() {
        let run = |n: usize| {
            Machine::new(4, MachineParams::unit())
                .run(move |comm| {
                    let grid = Grid2D::new(comm, 2, 2).unwrap();
                    let l_global = gen::well_conditioned_lower(n, 1);
                    let b_global = gen::rhs(n, 4, 2);
                    let l = DistMatrix::from_global(&grid, &l_global);
                    let b = DistMatrix::from_global(&grid, &b_global);
                    wavefront_trsm(&l, &b).unwrap();
                })
                .unwrap()
                .report
                .max_messages()
        };
        let small = run(32);
        let large = run(64);
        assert!(
            large as f64 > 1.6 * small as f64,
            "wavefront latency must grow ~linearly in n"
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let rect = DistMatrix::zeros(&grid, 8, 6);
                let b = DistMatrix::zeros(&grid, 8, 4);
                let bad_l = wavefront_trsm(&rect, &b).is_err();
                let b_bad = DistMatrix::zeros(&grid, 6, 4);
                let l = DistMatrix::zeros(&grid, 8, 8);
                let bad_b = wavefront_trsm(&l, &b_bad).is_err();
                bad_l && bad_b
            })
            .unwrap();
        assert!(out.results.into_iter().all(|v| v));
    }
}
