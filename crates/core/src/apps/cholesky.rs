//! Distributed Cholesky factorization and SPD linear-system solver.
//!
//! The factorization is the recursive blocked scheme whose panel step *is* a
//! TRSM — the workload the paper's introduction motivates:
//!
//! ```text
//! A = [ A11  A21ᵀ ]      L11 = chol(A11)
//!     [ A21  A22  ]      L21 = A21·L11⁻ᵀ            (a TRSM)
//!                        L22 = chol(A22 − L21·L21ᵀ)  (a GEMM + recursion)
//! ```
//!
//! [`cholesky_solve`] then solves `A·X = B` by a forward TRSM with `L` and a
//! backward TRSM with `Lᵀ`, all on the simulated machine.

use crate::api::Algorithm;
use crate::error::config_error;
use crate::mm3d::mm3d_auto;
use crate::solve::SolveRequest;
use crate::Result;
use pgrid::redist::transpose;
use pgrid::DistMatrix;

/// Configuration of the distributed factorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorConfig {
    /// Dimension at or below which the matrix is gathered and factorized
    /// redundantly by every processor.
    pub base_size: usize,
    /// Algorithm pinned for the triangular panel solves (`None` lets the
    /// Section VIII planner choose).
    pub trsm: Option<Algorithm>,
}

impl Default for FactorConfig {
    fn default() -> Self {
        FactorConfig {
            base_size: 64,
            trsm: Some(Algorithm::Recursive { base_size: 32 }),
        }
    }
}

/// Distributed Cholesky factorization `A = L·Lᵀ` of a symmetric
/// positive-definite matrix on a square processor grid.  Returns the
/// lower-triangular factor in the same distribution.
pub fn cholesky_factor(a: &DistMatrix, cfg: &FactorConfig) -> Result<DistMatrix> {
    let grid = a.grid();
    if grid.rows() != grid.cols() {
        return Err(config_error(
            "cholesky_factor",
            format!("grid must be square, got {}x{}", grid.rows(), grid.cols()),
        ));
    }
    if a.rows() != a.cols() {
        return Err(config_error(
            "cholesky_factor",
            format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
        ));
    }
    cholesky_inner(a, cfg)
}

fn cholesky_inner(a: &DistMatrix, cfg: &FactorConfig) -> Result<DistMatrix> {
    let grid = a.grid();
    let q = grid.rows();
    let n = a.rows();

    let splittable = q > 1 && n.is_multiple_of(2 * q) && n > cfg.base_size;
    if !splittable {
        let full = a.try_to_global()?;
        let (l, flops) = dense::cholesky(&full)?;
        grid.comm().charge_flops(flops.get());
        return Ok(DistMatrix::from_global(grid, &l));
    }

    let h = n / 2;
    let a11 = a.subview(0, h, 0, h)?;
    let a21 = a.subview(h, h, 0, h)?;
    let a22 = a.subview(h, h, h, h)?;

    // L11 = chol(A11).
    let l11 = cholesky_inner(&a11, cfg)?;

    // L21 = A21·L11⁻ᵀ, computed as L21ᵀ = L11⁻¹·A21ᵀ (a TRSM).
    let a21t = transpose(&a21)?;
    let l21t = SolveRequest::lower()
        .algorithm(cfg.trsm)
        .solve_distributed(&l11, &a21t)?
        .x;
    let l21 = transpose(&l21t)?;

    // Trailing update A22 ← A22 − L21·L21ᵀ.
    let update = mm3d_auto(&l21, &l21t, None)?;
    let mut a22_new = a22;
    a22_new.sub_assign(&update)?;

    // L22 = chol(updated A22).
    let l22 = cholesky_inner(&a22_new, cfg)?;

    let mut l = DistMatrix::zeros(grid, n, n);
    l.set_subview(0, 0, &l11)?;
    l.set_subview(h, 0, &l21)?;
    l.set_subview(h, h, &l22)?;
    Ok(l)
}

/// Solve `A·X = B` for a symmetric positive-definite `A` by Cholesky
/// factorization followed by forward and backward triangular solves.
pub fn cholesky_solve(a: &DistMatrix, b: &DistMatrix, cfg: &FactorConfig) -> Result<DistMatrix> {
    let l = cholesky_factor(a, cfg)?;
    let req = SolveRequest::lower().algorithm(cfg.trsm);
    let y = req.solve_distributed(&l, b)?.x;
    // Backward solve Lᵀ·X = Y straight off the stored factor: the staged
    // API's transposed request relabels L (its local pieces transposed, no
    // word moved), and the algorithm pays only its entry layout change.
    Ok(req.transposed().solve_distributed(&l, &y)?.x)
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let a_global = gen::spd(n, 7);
                let a = DistMatrix::from_global(grid, &a_global);
                let l = cholesky_factor(
                    &a,
                    &FactorConfig {
                        base_size: 16,
                        trsm: Some(Algorithm::Recursive { base_size: 8 }),
                    },
                )
                .unwrap();
                let l_global = l.to_global();
                let rec = dense::matmul(&l_global, &l_global.transpose());
                (
                    dense::norms::rel_diff(&rec, &a_global),
                    l_global.is_lower_triangular(),
                )
            });
            for (d, lower) in results {
                assert!(d < 1e-8, "q={q}: reconstruction error {d}");
                assert!(lower);
            }
        }
    }

    #[test]
    fn solver_matches_direct_solution() {
        let results = on_grid(2, |grid| {
            let n = 32;
            let k = 4;
            let a_global = gen::spd(n, 3);
            let x_true = gen::rhs(n, k, 5);
            let b_global = dense::matmul(&a_global, &x_true);
            let a = DistMatrix::from_global(grid, &a_global);
            let b = DistMatrix::from_global(grid, &b_global);
            let x = cholesky_solve(
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
    fn iterative_trsm_inside_cholesky() {
        // The panel solves can also use the paper's iterative algorithm.
        let results = on_grid(2, |grid| {
            let n = 64;
            let a_global = gen::spd(n, 9);
            let a = DistMatrix::from_global(grid, &a_global);
            let l = cholesky_factor(
                &a,
                &FactorConfig {
                    base_size: 16,
                    trsm: None,
                },
            )
            .unwrap();
            let l_global = l.to_global();
            dense::norms::rel_diff(&dense::matmul(&l_global, &l_global.transpose()), &a_global)
        });
        for d in results {
            assert!(d < 1e-8);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let results = on_grid(2, |grid| {
            let rect = DistMatrix::zeros(grid, 8, 6);
            cholesky_factor(&rect, &FactorConfig::default()).is_err()
        });
        assert!(results.into_iter().all(|v| v));
    }
}
