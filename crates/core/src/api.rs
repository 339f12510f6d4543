//! The distributed algorithm selector and the layout permutations the staged
//! executor of [`crate::solve`] is built on.
//!
//! An upper-triangular solve reduces to a lower one through the reversal
//! permutation `J` (reversing row and column order): `J·U·J` is lower
//! triangular, so `U·X = B ⟺ (J·U·J)·(J·X) = J·B`.  The permutations
//! ([`reverse_rows`], [`reverse_both`]) and the transpose a transposed
//! request reads (`DistMatrix::try_transposed`) are plain all-to-all
//! remappings of the values, so the asymptotic costs are those of the
//! underlying lower solve.

use crate::it_inv_trsm::ItInvConfig;
use crate::Result;
use costmodel::{Cost, CostModelRev};
use pgrid::redist::{Axis, Filter, Layout};
use pgrid::DistMatrix;

/// Which distributed TRSM algorithm to run — the one algorithm enum of the
/// workspace: a request pins one, a plan records the one it resolved, the
/// cost model is asked about one.  A request that pins none gets the
/// iterative inversion-based algorithm with the Section VIII planner's
/// parameters (the paper's recommendation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The recursive baseline of Section IV with an explicit base-case size.
    Recursive {
        /// Dimension below which the recursion stops.
        base_size: usize,
    },
    /// The iterative inversion-based algorithm with explicit parameters.
    IterativeInversion(ItInvConfig),
    /// The row-fan-out baseline (Heath–Romine style).
    Wavefront,
}

impl Algorithm {
    /// Human-readable name used by plan displays, reports and experiment
    /// output.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Recursive { .. } => "recursive",
            Algorithm::IterativeInversion(_) => "iterative inversion-based",
            Algorithm::Wavefront => "wavefront",
        }
    }

    /// Predicted critical-path cost of solving `L·X = B` (`n×n`, `k`
    /// right-hand sides, `p` processors) with this algorithm.
    ///
    /// The iterative algorithm quotes the Section VII phase model at its own
    /// configuration ([`ItInvConfig::predicted_cost`]): `n0` and the grid
    /// enter with their constants, and `rev` acts only through the
    /// configuration the planner chose under it.  The recursive baseline
    /// quotes the Section IV leading-order expression under `rev`; the
    /// wavefront baseline (Section II-C3) has no regime structure and is
    /// identical under both revisions.
    pub fn predicted_cost(&self, rev: CostModelRev, n: usize, k: usize, p: usize) -> Cost {
        let (nf, kf, pf) = (n as f64, k as f64, p as f64);
        match self {
            Algorithm::Recursive { .. } => rev.standard_cost(nf, kf, pf),
            Algorithm::IterativeInversion(cfg) => cfg.predicted_cost(n, k),
            Algorithm::Wavefront => costmodel::predict::wavefront_cost(nf, kf, pf),
        }
    }
}

/// Reverse the row order of a distributed matrix (the permutation `J·A`).
pub fn reverse_rows(a: &DistMatrix) -> Result<DistMatrix> {
    permute(a, true, false)
}

/// Reverse both the row and the column order of a distributed matrix
/// (the permutation `J·A·J`).
pub fn reverse_both(a: &DistMatrix) -> Result<DistMatrix> {
    permute(a, true, true)
}

/// Move entry `(i, j)` to where the cyclic layout stores `(i', j')`, with
/// `i' = rows − 1 − i` if `flip_rows` (else `i`) and likewise for columns.
fn permute(a: &DistMatrix, flip_rows: bool, flip_cols: bool) -> Result<DistMatrix> {
    let grid = a.grid();
    let (rows, cols) = a.dims();
    let axis = |len: usize, procs: usize, flip: bool| {
        let cyclic = Axis::cyclic(len, procs);
        if flip {
            cyclic.reversed()
        } else {
            cyclic
        }
    };
    let permuted = Layout::new(
        grid.size(),
        axis(rows, grid.rows(), flip_rows),
        axis(cols, grid.cols(), flip_cols),
        |x, y| Some(grid.rank_of(x, y)),
    );
    let local = a.redistribute_to(&permuted, Filter::All)?;
    Ok(DistMatrix::from_local(grid, rows, cols, local)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::SolveRequest;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};

    /// The iterative configuration these tests pin.
    const IT_INV: Algorithm = Algorithm::IterativeInversion(ItInvConfig {
        p1: 2,
        p2: 1,
        n0: 16,
        inv_base: 8,
    });

    fn solve_with(algorithm: Option<Algorithm>, n: usize, k: usize) -> Vec<f64> {
        Machine::new(4, MachineParams::cluster())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let l_global = gen::well_conditioned_lower(n, 21);
                let x_true = gen::rhs(n, k, 22);
                let b_global = dense::matmul(&l_global, &x_true);
                let l = DistMatrix::from_global(&grid, &l_global);
                let b = DistMatrix::from_global(&grid, &b_global);
                let sol = SolveRequest::lower()
                    .algorithm(algorithm)
                    .solve_distributed(&l, &b)
                    .unwrap();
                dense::norms::rel_diff(&sol.x.to_global(), &x_true)
            })
            .unwrap()
            .results
    }

    #[test]
    fn auto_selects_a_working_configuration() {
        for (n, k) in [(64usize, 16usize), (32, 64), (128, 4)] {
            for d in solve_with(None, n, k) {
                assert!(d < 1e-8, "auto n={n} k={k}: {d}");
            }
        }
    }

    #[test]
    fn upper_solve_via_reversal() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let n = 32;
                let k = 8;
                let u_global = gen::well_conditioned_upper(n, 13);
                let x_true = gen::rhs(n, k, 14);
                let b_global = dense::matmul(&u_global, &x_true);
                let u = DistMatrix::from_global(&grid, &u_global);
                let b = DistMatrix::from_global(&grid, &b_global);
                let sol = SolveRequest::upper()
                    .algorithm(Algorithm::Recursive { base_size: 8 })
                    .solve_distributed(&u, &b)
                    .unwrap();
                dense::norms::rel_diff(&sol.x.to_global(), &x_true)
            })
            .unwrap();
        assert!(out.results.into_iter().all(|d| d < 1e-8));
    }

    #[test]
    fn reversal_helpers_are_involutions() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let a = DistMatrix::from_fn(&grid, 10, 6, |i, j| (i * 6 + j) as f64);
                let rr = reverse_rows(&reverse_rows(&a).unwrap()).unwrap();
                let rb = reverse_both(&reverse_both(&a).unwrap()).unwrap();
                let first = reverse_rows(&a).unwrap().to_global()[(0, 0)];
                (rr.rel_diff(&a).unwrap(), rb.rel_diff(&a).unwrap(), first)
            })
            .unwrap();
        for (rr, rb, first) in out.results {
            assert_eq!(rr, 0.0);
            assert_eq!(rb, 0.0);
            // Row 0 of the row-reversed matrix is the old last row.
            assert_eq!(first, (9 * 6) as f64);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::Recursive { base_size: 16 }.name(), "recursive");
        assert!(IT_INV.name().contains("inversion"));
        assert_eq!(Algorithm::Wavefront.name(), "wavefront");
    }

    #[test]
    fn dispatch_matches_the_underlying_formulas() {
        let (n, k, p) = (4096, 1024, 64);
        let (nf, kf, pf) = (n as f64, k as f64, p as f64);
        let it_inv = ItInvConfig {
            p1: 4,
            p2: 4,
            n0: 512,
            inv_base: 64,
        };
        let (r1, r2) = it_inv.inversion_grid(n);
        for rev in CostModelRev::ALL {
            assert_eq!(
                Algorithm::Recursive { base_size: 64 }.predicted_cost(rev, n, k, p),
                rev.standard_cost(nf, kf, pf)
            );
            // The iterative algorithm is priced at its configuration, the
            // same under both revisions.
            assert_eq!(
                Algorithm::IterativeInversion(it_inv).predicted_cost(rev, n, k, p),
                costmodel::itinv::inversion_phase(nf, 512.0, r1, r2)
                    + costmodel::itinv::solve_phase(nf, kf, 512.0, 4.0, 4.0)
                    + costmodel::itinv::update_phase(nf, kf, 512.0, 4.0, 4.0)
            );
            assert_eq!(
                Algorithm::Wavefront.predicted_cost(rev, n, k, p),
                costmodel::predict::wavefront_cost(nf, kf, pf)
            );
        }
    }

    #[test]
    fn all_algorithms_agree() {
        let n = 64;
        let k = 16;
        for alg in [
            None,
            Some(Algorithm::Recursive { base_size: 16 }),
            Some(IT_INV),
            Some(Algorithm::Wavefront),
        ] {
            for d in solve_with(alg, n, k) {
                assert!(d < 1e-8, "{alg:?}: {d}");
            }
        }
    }
}
