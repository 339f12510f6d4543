//! Flop counts, in the one unit every `F` in the workspace is counted in:
//! a multiply–add is two flops, a division, a lone multiplication or a
//! subtraction one, and a collective's fold one per word it combines.
//! Every kernel in this crate returns the count of the arithmetic it runs,
//! from a function here; `catrsm` charges those counts to the simulated
//! machine (the `γ·F` of the paper's α–β–γ model), its walks call the same
//! functions, and the `costmodel` formulas count in the same unit.

use crate::microkernel::TriMask;
use crate::trinv::RECURSION_CUTOFF;
use crate::trsm::{solve_kernel, SolveKernel, Triangle, TRSM_BLOCK};

/// Number of floating-point operations performed by a kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlopCount(pub u64);

impl FlopCount {
    /// Zero flops.
    pub const ZERO: FlopCount = FlopCount(0);

    /// Create a flop count from a raw number of operations.
    pub fn new(count: u64) -> Self {
        FlopCount(count)
    }

    /// The raw count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::ops::Add for FlopCount {
    type Output = FlopCount;
    fn add(self, rhs: FlopCount) -> FlopCount {
        FlopCount(self.0 + rhs.0)
    }
}

/// Flops of a general `m×k · k×n` matrix multiplication (multiply + add).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> FlopCount {
    FlopCount(2 * m as u64 * k as u64 * n as u64)
}

/// Flops of the `m×p · p×n` product [`crate::gemm_views`] runs under
/// `mask`: with no mask the full product, else two per entry of the masked
/// operand's triangle times the other operand's outer dimension — the
/// multiply–adds of the triangle it multiplies, not of the zeros it skips.
pub fn masked_gemm_flops(m: usize, p: usize, n: usize, mask: Option<TriMask>) -> FlopCount {
    let Some(mask) = mask else {
        return gemm_flops(m, p, n);
    };
    let (outer, other) = if mask.on_b() { (n, m) } else { (m, n) };
    let kept: usize = (0..outer)
        .map(|o| {
            let (lo, hi) = mask.k_range(o, 1, p);
            hi - lo
        })
        .sum();
    FlopCount(2 * kept as u64 * other as u64)
}

/// Flops of a triangular solve `L X = B` with `L` of dimension `n` and `k`
/// right-hand sides by substitution: per column, `n(n−1)/2` multiply–adds
/// and `n` divisions, `n²` flops.
pub fn trsm_flops(n: usize, k: usize) -> FlopCount {
    FlopCount(n as u64 * n as u64 * k as u64)
}

/// Flops of the dense solve [`crate::trsm_in_place_opts`] of dimension `n`
/// with `k` right-hand sides, as the kernel [`solve_kernel`]`(k)` runs it:
/// the substitution's [`trsm_flops`] for both substitution kernels, and for
/// the inverted-block kernel also each diagonal block's inversion and the
/// `nb·k` its triangle-aware product runs beyond substituting through it
/// (its triangle is `nb(nb+1)/2` entries, not `nb(nb−1)/2` and `nb`
/// divisions).
pub fn solve_flops(n: usize, k: usize) -> FlopCount {
    let substitution = trsm_flops(n, k);
    if solve_kernel(k) != SolveKernel::InvertedBlocks {
        return substitution;
    }
    (0..n)
        .step_by(TRSM_BLOCK)
        .map(|i0| TRSM_BLOCK.min(n - i0))
        .map(|nb| tri_inv_flops(nb) + FlopCount(nb as u64 * k as u64))
        .fold(substitution, |sum, block| sum + block)
}

/// Flops of [`crate::tri_invert_in_place`] at dimension `n` (≈ n³/3): the
/// direct inversion `Σ_{m ≤ n} m²` at or below [`RECURSION_CUTOFF`], else
/// the two halves and the two masked products that join them.
pub fn tri_inv_flops(n: usize) -> FlopCount {
    if n <= RECURSION_CUTOFF {
        let n = n as u64;
        return FlopCount(n * (n + 1) * (2 * n + 1) / 6);
    }
    let (h, rest, lower) = (n / 2, n - n / 2, Triangle::Lower);
    tri_inv_flops(h)
        + tri_inv_flops(rest)
        + masked_gemm_flops(rest, rest, h, Some(TriMask::a(lower)))
        + masked_gemm_flops(rest, h, h, Some(TriMask::b(lower)))
}

/// Flops of a Cholesky factorization of dimension `n` (≈ n³/3).
pub fn cholesky_flops(n: usize) -> FlopCount {
    FlopCount((n as u64).pow(3) / 3)
}

/// Flops of an LU factorization of dimension `n` (≈ 2n³/3).
pub fn lu_flops(n: usize) -> FlopCount {
    FlopCount(2 * (n as u64).pow(3) / 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), FlopCount(48));
        assert_eq!(gemm_flops(0, 3, 4), FlopCount::ZERO);
    }

    #[test]
    fn trsm_flops_formula() {
        assert_eq!(trsm_flops(4, 2), FlopCount(32));
    }

    #[test]
    fn a_wide_solve_counts_its_inverted_blocks() {
        // Narrower than NB: substitution, n²k.
        assert_eq!(solve_flops(200, 63), trsm_flops(200, 63));
        // n = k = 320: 320³ plus five inverted 64-blocks, each
        // tri_inv_flops(64) + 64·320.
        assert_eq!(solve_flops(320, 320).get(), 32_768_000 + 5 * 111_456);
        // A last block narrower than NB is inverted at its own size.
        let tail = tri_inv_flops(8).get() + 8 * 64;
        let full = tri_inv_flops(64).get() + 64 * 64;
        assert_eq!(solve_flops(136, 64).get(), 136 * 136 * 64 + 2 * full + tail);
    }

    #[test]
    fn inv_and_factor_flops_scale_cubically() {
        assert!(tri_inv_flops(64).get() > 8 * tri_inv_flops(32).get() / 2);
        assert!(cholesky_flops(100).get() < lu_flops(100).get());
    }

    #[test]
    fn a_masked_product_counts_its_triangle() {
        let lower = Triangle::Lower;
        // A 4×4 lower triangle holds 10 entries, 6 strictly below.
        assert_eq!(masked_gemm_flops(4, 4, 3, None), gemm_flops(4, 4, 3));
        assert_eq!(
            masked_gemm_flops(4, 4, 3, Some(TriMask::a(lower))).get(),
            2 * 10 * 3
        );
        let strict = TriMask::a(lower).with_diagonal(-1);
        assert_eq!(masked_gemm_flops(4, 4, 3, Some(strict)).get(), 2 * 6 * 3);
        assert_eq!(
            masked_gemm_flops(3, 4, 4, Some(TriMask::b(lower))).get(),
            2 * 10 * 3
        );
        let upper = TriMask::a(Triangle::Upper);
        assert_eq!(masked_gemm_flops(4, 4, 5, Some(upper)).get(), 2 * 10 * 5);
    }

    #[test]
    fn the_inversion_count_is_its_recursion() {
        // 16 is one direct base case; 64 splits twice.
        assert_eq!(tri_inv_flops(16).get(), 1496);
        assert_eq!(tri_inv_flops(32).get(), 2 * 1496 + 16 * 16 * 34);
        assert_eq!(tri_inv_flops(64).get(), 90_976);
    }

    #[test]
    fn flop_count_arithmetic() {
        let a = FlopCount(3);
        let b = FlopCount(4);
        assert_eq!(a + b, FlopCount(7));
        assert_eq!(FlopCount::new(5).get(), 5);
        assert_eq!(FlopCount::default(), FlopCount::ZERO);
    }
}
