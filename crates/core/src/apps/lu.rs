//! Distributed LU factorization (without pivoting) and linear-system solver.
//!
//! The recursion mirrors the Cholesky application but produces two factors;
//! both panel steps are TRSMs:
//!
//! ```text
//! A = [ A11 A12 ]     (L11, U11) = lu(A11)
//!     [ A21 A22 ]     U12 = L11⁻¹·A12              (a TRSM)
//!                     L21 = A21·U11⁻¹               (a TRSM, transposed)
//!                     (L22, U22) = lu(A22 − L21·U12)
//! ```
//!
//! Pivoting is omitted (as in most communication-cost analyses); the solver
//! is intended for diagonally dominant or otherwise well-conditioned systems,
//! which is what the examples generate.

use crate::apps::cholesky::FactorConfig;
use crate::error::config_error;
use crate::mm3d::mm3d_auto;
use crate::solve::SolveRequest;
use crate::Result;
use pgrid::redist::transpose;
use pgrid::DistMatrix;

/// Distributed LU factorization `A = L·U` (no pivoting) on a square grid.
/// Returns `(L, U)` with `L` unit-lower-triangular and `U` upper-triangular,
/// both in the same distribution as `A`.
pub fn lu_factor(a: &DistMatrix, cfg: &FactorConfig) -> Result<(DistMatrix, DistMatrix)> {
    let grid = a.grid();
    if grid.rows() != grid.cols() {
        return Err(config_error(
            "lu_factor",
            format!("grid must be square, got {}x{}", grid.rows(), grid.cols()),
        ));
    }
    if a.rows() != a.cols() {
        return Err(config_error(
            "lu_factor",
            format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
        ));
    }
    lu_inner(a, cfg)
}

fn lu_inner(a: &DistMatrix, cfg: &FactorConfig) -> Result<(DistMatrix, DistMatrix)> {
    let grid = a.grid();
    let q = grid.rows();
    let n = a.rows();

    let splittable = q > 1 && n.is_multiple_of(2 * q) && n > cfg.base_size;
    if !splittable {
        let full = a.try_to_global()?;
        let (l, u, flops) = dense::lu(&full)?;
        grid.comm().charge_flops(flops.get());
        return Ok((
            DistMatrix::from_global(grid, &l),
            DistMatrix::from_global(grid, &u),
        ));
    }

    let h = n / 2;
    let a11 = a.subview(0, h, 0, h)?;
    let a12 = a.subview(0, h, h, h)?;
    let a21 = a.subview(h, h, 0, h)?;
    let a22 = a.subview(h, h, h, h)?;

    let (l11, u11) = lu_inner(&a11, cfg)?;

    // U12 = L11⁻¹·A12.
    let req = SolveRequest::lower().algorithm(cfg.trsm);
    let u12 = req.solve_distributed(&l11, &a12)?.x;

    // L21 = A21·U11⁻¹, computed as L21ᵀ = U11⁻ᵀ·A21ᵀ (U11ᵀ is lower).
    let a21t = transpose(&a21)?;
    // U11ᵀ is lower triangular: solve it via the transposed request on the
    // stored U11 (no second materialized transpose).
    let l21t = SolveRequest::upper()
        .transposed()
        .algorithm(cfg.trsm)
        .solve_distributed(&u11, &a21t)?
        .x;
    let l21 = transpose(&l21t)?;

    // Trailing update A22 ← A22 − L21·U12.
    let update = mm3d_auto(&l21, &u12, None)?;
    let mut a22_new = a22;
    a22_new.sub_assign(&update)?;

    let (l22, u22) = lu_inner(&a22_new, cfg)?;

    let mut l = DistMatrix::zeros(grid, n, n);
    l.set_subview(0, 0, &l11)?;
    l.set_subview(h, 0, &l21)?;
    l.set_subview(h, h, &l22)?;
    let mut u = DistMatrix::zeros(grid, n, n);
    u.set_subview(0, 0, &u11)?;
    u.set_subview(0, h, &u12)?;
    u.set_subview(h, h, &u22)?;
    Ok((l, u))
}

/// Solve `A·X = B` by LU factorization followed by forward and backward
/// triangular solves.
pub fn lu_solve(a: &DistMatrix, b: &DistMatrix, cfg: &FactorConfig) -> Result<DistMatrix> {
    let (l, u) = lu_factor(a, cfg)?;
    let y = SolveRequest::lower()
        .algorithm(cfg.trsm)
        .solve_distributed(&l, b)?
        .x;
    Ok(SolveRequest::upper()
        .algorithm(cfg.trsm)
        .solve_distributed(&u, &y)?
        .x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Algorithm;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};

    fn on_grid<T: Send>(q: usize, f: impl Fn(&Grid2D) -> T + Send + Sync) -> Vec<T> {
        Machine::new(q * q, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, q, q).unwrap();
                f(&grid)
            })
            .unwrap()
            .results
    }

    #[test]
    fn factorization_reconstructs_the_matrix() {
        for q in [1usize, 2] {
            let results = on_grid(q, |grid| {
                let n = 64;
                let a_global = gen::diagonally_dominant(n, 11);
                let a = DistMatrix::from_global(grid, &a_global);
                let (l, u) = lu_factor(
                    &a,
                    &FactorConfig {
                        base_size: 16,
                        trsm: Some(Algorithm::Recursive { base_size: 8 }),
                    },
                )
                .unwrap();
                let l_global = l.to_global();
                let u_global = u.to_global();
                let rec = dense::matmul(&l_global, &u_global);
                (
                    dense::norms::rel_diff(&rec, &a_global),
                    l_global.is_lower_triangular(),
                    u_global.is_upper_triangular(),
                )
            });
            for (d, lower, upper) in results {
                assert!(d < 1e-8, "q={q}: reconstruction error {d}");
                assert!(lower && upper);
            }
        }
    }

    #[test]
    fn solver_matches_direct_solution() {
        let results = on_grid(2, |grid| {
            let n = 32;
            let k = 8;
            let a_global = gen::diagonally_dominant(n, 13);
            let x_true = gen::rhs(n, k, 14);
            let b_global = dense::matmul(&a_global, &x_true);
            let a = DistMatrix::from_global(grid, &a_global);
            let b = DistMatrix::from_global(grid, &b_global);
            let x = lu_solve(
                &a,
                &b,
                &FactorConfig {
                    base_size: 8,
                    trsm: Some(Algorithm::Recursive { base_size: 8 }),
                },
            )
            .unwrap();
            dense::norms::rel_diff(&x.to_global(), &x_true)
        });
        for d in results {
            assert!(d < 1e-7, "solution error {d}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let results = on_grid(2, |grid| {
            let rect = DistMatrix::zeros(grid, 8, 6);
            lu_factor(&rect, &FactorConfig::default()).is_err()
        });
        assert!(results.into_iter().all(|v| v));
    }
}
