//! Distributed verification helpers.
//!
//! The experiments and examples need to check solutions without gathering
//! full matrices on a single rank: [`residual`] computes the relative
//! residual `‖L·X − B‖_F / (‖L‖_F·‖X‖_F + ‖B‖_F)` using the distributed
//! multiplication of Section III and one allreduce.

use crate::mm3d::mm3d_auto;
use crate::Result;
use dense::{Diag, Triangle};
use pgrid::redist::Filter;
use pgrid::DistMatrix;
use simnet::coll;

/// Relative residual of a candidate solution `X` for `L·X = B`, identical on
/// every rank.  Operands stored in any other layout than the cyclic one are
/// moved into it first.  Only `L`'s lower triangle counts, in the product and
/// in `‖L‖_F`, whatever is stored above it, and a [`Diag::Unit`] `L` counts
/// with ones on its diagonal.
pub fn residual(l: &DistMatrix, x: &DistMatrix, b: &DistMatrix) -> Result<f64> {
    let mut l = l.cyclic(Filter::Lower)?;
    if l.diag() == Diag::Unit {
        let l = l.to_mut();
        let diagonal: Vec<_> = l.layout().diagonal(l.grid().comm().rank()).collect();
        for at in diagonal {
            l.local_mut()[at] = 1.0;
        }
    }
    let (x, b) = (x.cyclic(Filter::All)?, b.cyclic(Filter::All)?);
    let lx = mm3d_auto(&l, &x, Some(Triangle::Lower))?;
    let comm = l.grid().comm();
    let mut diff_sq = 0.0;
    let mut b_sq = 0.0;
    for (got, want) in lx
        .local()
        .as_slice()
        .iter()
        .zip(b.local().as_slice().iter())
    {
        diff_sq += (got - want) * (got - want);
        b_sq += want * want;
    }
    // Local row t holds global row r0 + pr·t; its columns c0 + pc·u on or
    // left of the diagonal are a prefix.
    let grid = l.grid();
    let ((r0, c0), (pr, pc)) = (grid.my_coords(), (grid.rows(), grid.cols()));
    let local = l.local();
    let l_sq: f64 = (0..local.rows())
        .flat_map(|t| {
            let lower = (r0 + pr * t + 1).saturating_sub(c0).div_ceil(pc);
            &local.row(t)[..lower.min(local.cols())]
        })
        .map(|v| v * v)
        .sum();
    let x_sq: f64 = x.local().as_slice().iter().map(|v| v * v).sum();
    let sums = coll::allreduce(comm, &[diff_sq, b_sq, l_sq, x_sq], coll::ReduceOp::Sum)?;
    let denom = sums[2].sqrt() * sums[3].sqrt() + sums[1].sqrt();
    Ok(if denom == 0.0 {
        sums[0].sqrt()
    } else {
        sums[0].sqrt() / denom
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};

    #[test]
    fn residual_is_small_for_exact_solution_and_large_otherwise() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let n = 32;
                let k = 8;
                let l_global = gen::well_conditioned_lower(n, 3);
                let x_global = gen::rhs(n, k, 4);
                let b_global = dense::matmul(&l_global, &x_global);
                let l = DistMatrix::from_global(&grid, &l_global);
                let x = DistMatrix::from_global(&grid, &x_global);
                let b = DistMatrix::from_global(&grid, &b_global);
                let good = residual(&l, &x, &b).unwrap();
                let bad = residual(&l, &b, &b).unwrap();
                (good, bad)
            })
            .unwrap();
        for (good, bad) in out.results {
            assert!(good < 1e-12);
            assert!(bad > 1e-3);
        }
    }

    #[test]
    fn residual_ignores_what_is_stored_above_the_diagonal() {
        // A cyclic `L` is read where it lies, upper triangle included: the
        // product and ‖L‖_F must still see only the lower triangle.
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let (n, k) = (32, 8);
                let l_global = gen::well_conditioned_lower(n, 3);
                let x_global = gen::rhs(n, k, 4);
                let b_global = dense::matmul(&l_global, &x_global);
                let mut stored = l_global.clone();
                for i in 0..n {
                    stored.row_mut(i)[i + 1..].fill(7.0);
                }
                let x = DistMatrix::from_global(&grid, &x_global);
                let b = DistMatrix::from_global(&grid, &b_global);
                let clean = residual(&DistMatrix::from_global(&grid, &l_global), &x, &b);
                let dirty = residual(&DistMatrix::from_global(&grid, &stored), &x, &b);
                (clean.unwrap(), dirty.unwrap())
            })
            .unwrap();
        for (clean, dirty) in out.results {
            assert!(clean < 1e-12, "{clean}");
            assert_eq!(dirty.to_bits(), clean.to_bits(), "{dirty} vs {clean}");
        }
    }
}
