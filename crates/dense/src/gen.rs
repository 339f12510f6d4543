//! Random test-matrix generators.
//!
//! The experiments need reproducible, *well-conditioned* triangular matrices:
//! triangular solves amplify rounding error with the condition number, and the
//! paper's point is communication cost, not conditioning.  The generators here
//! use strong diagonals so residual checks stay meaningful at every size the
//! benchmarks run.

use crate::matrix::Matrix;

/// The workspace's one seeded generator: Steele, Lea and Flood's SplitMix64.
///
/// Every test matrix here and in `sparse::gen`, and every fault schedule
/// `simnet` injects, is drawn from this stream, so a seed names the same
/// bits on every platform and at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// An integer in `[0, n)` (`n ≥ 1`), by one draw modulo `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A uniformly random `rows × cols` matrix with entries in `[-1, 1)`.
pub fn uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

/// A random lower-triangular matrix with unit-magnitude off-diagonal entries
/// and a dominant diagonal, so its condition number stays small.
pub fn well_conditioned_lower(n: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(n, n, |i, j| {
        if j < i {
            rng.uniform(-1.0, 1.0) / (n as f64).sqrt()
        } else if j == i {
            1.0 + rng.uniform(0.0, 1.0)
        } else {
            0.0
        }
    })
}

/// A random upper-triangular matrix with a dominant diagonal.
pub fn well_conditioned_upper(n: usize, seed: u64) -> Matrix {
    well_conditioned_lower(n, seed).transpose()
}

/// A random symmetric positive-definite matrix (`M·Mᵀ + n·I`).
pub fn spd(n: usize, seed: u64) -> Matrix {
    let m = uniform(n, n, seed);
    let mut a = crate::gemm::matmul(&m, &m.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// A random diagonally-dominant general matrix (safe for non-pivoted LU).
pub fn diagonally_dominant(n: usize, seed: u64) -> Matrix {
    let mut a = uniform(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
        a[(i, i)] = row_sum + 1.0;
    }
    a
}

/// A right-hand-side matrix whose entries are `O(1)` regardless of size.
pub fn rhs(n: usize, k: usize, seed: u64) -> Matrix {
    uniform(n, k, seed ^ 0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms;
    use crate::trsm::{trsm_opts, SolveOpts};

    #[test]
    fn splitmix64_reproduces_the_reference_stream() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
        // Every experiment's inputs derive from this stream, so the bits a
        // generator returns for a seed may never move.
        let m = uniform(1, 2, 7);
        assert_eq!(m[(0, 0)].to_bits(), 0xbfcc_341e_1ba6_cdf8);
        assert_eq!(m[(0, 1)].to_bits(), 0xbfee_ecf0_ca02_f0e8);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(5, 5, 7), uniform(5, 5, 7));
        assert_eq!(well_conditioned_lower(8, 3), well_conditioned_lower(8, 3));
        assert_ne!(uniform(5, 5, 7), uniform(5, 5, 8));
    }

    #[test]
    fn lower_generator_is_lower_triangular() {
        let l = well_conditioned_lower(33, 2);
        assert!(l.is_lower_triangular());
        for i in 0..33 {
            assert!(l[(i, i)] >= 1.0);
        }
    }

    #[test]
    fn upper_generator_is_upper_triangular() {
        assert!(well_conditioned_upper(12, 5).is_upper_triangular());
    }

    #[test]
    fn spd_is_symmetric_and_choleskyable() {
        let a = spd(20, 9);
        for i in 0..20 {
            for j in 0..20 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
        assert!(crate::factor::cholesky(&a).is_ok());
    }

    #[test]
    fn diagonally_dominant_lu_without_pivoting_works() {
        let a = diagonally_dominant(18, 13);
        assert!(crate::factor::lu(&a).is_ok());
    }

    #[test]
    fn well_conditioned_solves_accurately_at_scale() {
        // The whole point of the generator: residuals stay tiny at larger n.
        let n = 256;
        let l = well_conditioned_lower(n, 77);
        let x_true = rhs(n, 4, 5);
        let b = crate::gemm::matmul(&l, &x_true);
        let x = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        assert!(norms::rel_diff(&x, &x_true) < 1e-10);
    }
}
