//! The distributed algorithm selector.
//!
//! Every algorithm solves a lower-triangular system.  An upper one reduces
//! to it through the reversal permutation `J` (reversing row and column
//! order): `J·U·J` is lower triangular, so `U·X = B ⟺ (J·U·J)·(J·X) = J·B`,
//! and a transposed one swaps the index axes.  Both are relabellings of the
//! stored layout (`DistMatrix::reversed`, `DistMatrix::transpose`) that move
//! no word, so the costs are those of the underlying lower solve.

use crate::it_inv_trsm::ItInvConfig;
use costmodel::Cost;

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

    /// The `pr × pc` caller grid a quote assumes for `p` processors: the
    /// closest to square with `pr ≤ pc` and `pr | pc`.
    pub(crate) fn caller_grid(p: usize) -> (usize, usize) {
        let pr = (1..=p.isqrt())
            .rev()
            .find(|pr| p.is_multiple_of(pr * pr))
            .unwrap_or(1);
        (pr, p / pr)
    }

    /// Predicted critical-path cost of solving `L·X = B` (`n×n`, `k`
    /// right-hand sides, `p` processors) with this algorithm: the walk of
    /// what it runs, from operands stored cyclically on the `pr × pc` grid
    /// (`pr ≤ pc`, `pr | pc`) closest to square, `√p × √p` for a square
    /// `p`.  The iterative algorithm walks its five phases at its own
    /// configuration ([`crate::it_inv_trsm::predicted_cost`] prices each),
    /// the recursive one its recursion at its base size
    /// ([`crate::rec_trsm::predicted_cost`]), the wavefront its layout moves
    /// and broadcasts ([`crate::wavefront::predicted_cost`]).  Every walk
    /// prices each message on simnet's own schedules, so S and W are the
    /// most any rank sends or receives, exactly.
    pub fn predicted_cost(&self, n: usize, k: usize, p: usize) -> Cost {
        let (pr, pc) = Algorithm::caller_grid(p);
        match self {
            Algorithm::Recursive { base_size } => {
                crate::rec_trsm::predicted_cost(n, k, pr, pc, *base_size)
            }
            Algorithm::IterativeInversion(cfg) => {
                crate::it_inv_trsm::predicted_total(n, k, pr, pc, cfg)
            }
            Algorithm::Wavefront => crate::wavefront::predicted_cost(n, k, pr, pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::SolveRequest;
    use dense::gen;
    use pgrid::{DistMatrix, Grid2D};
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
                    .solve(&l, &b)
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
                    .solve(&u, &b)
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
                // Twice relabelled is the same layout (rel_diff checks it)
                // holding the same bits.
                let rr = a.clone().reversed_rows().reversed_rows();
                let rb = a.clone().reversed().reversed();
                let tt = a.transpose().transpose();
                let first = a.clone().reversed_rows().to_global()[(0, 0)];
                let twice = [rr, rb, tt].map(|m| m.rel_diff(&a).unwrap());
                (twice, first)
            })
            .unwrap();
        for (twice, first) in out.results {
            assert_eq!(twice, [0.0; 3]);
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
        let it_inv = ItInvConfig {
            p1: 4,
            p2: 4,
            n0: 512,
            inv_base: 64,
        };
        // Every walk on the grid closest to square: 8 × 8 for p = 64, 2 × 4
        // for p = 8.
        for (p, pr) in [(64, 8), (8, 2)] {
            assert_eq!(
                Algorithm::Recursive { base_size: 64 }.predicted_cost(n, k, p),
                crate::rec_trsm::predicted_cost(n, k, pr, p / pr, 64)
            );
            assert_eq!(
                Algorithm::Wavefront.predicted_cost(n, k, p),
                crate::wavefront::predicted_cost(n, k, pr, p / pr)
            );
        }
        assert_eq!(
            Algorithm::IterativeInversion(it_inv).predicted_cost(n, k, p),
            crate::it_inv_trsm::predicted_total(n, k, 8, 8, &it_inv)
        );
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
