//! Matrix-multiplication cost formulas (Section III of the paper).
//!
//! The paper multiplies an `n×n` (triangular) matrix by an `n×k` matrix on
//! `p` processors.  Depending on the ratio of `n`, `k` and `p` the optimal
//! processor grid is 1D, 2D or 3D ([`mm_grid_for`]); the concrete algorithm
//! of Section III (starting from a 2D cyclic layout) has the leading-order
//! cost `T_MM` reproduced by [`mm_cost`].

use crate::cost::{indicator, log2c, Cost};

/// Leading-order cost of the Section III algorithm
/// `MM(L, X, Π2D, n, k, p, p1, p2)` on a `p1 × p1 × p2` logical grid with
/// `p = p1²·p2`:
///
/// ```text
/// T_MM = β·( n²/p1² · 1_{p2} + 2nk/(p1 p2) · 1_{p1} )
///      + γ·( 2n²k/p )
///      + 3α·log p + O( β·nk·log p / p )
/// ```
///
/// `F` is in flops, two per multiply–add: the `n²k/p` multiply–adds of each
/// processor's share of the product.
/// The latency is exact for `catrsm::mm3d` on every grid shape: the `A`
/// allgather over `p2` (`log p2` rounds), the `X` allgather and the
/// reduce-scatter over `p1` (`log p1` each) and the two transposes (`log p`
/// each) sum to `log p1²p2 + 2·log p`.  The two `X` collectives run over
/// groups of `p1`, so at `p1 = 1` they move nothing.
pub fn mm_cost(n: f64, k: f64, p: f64, p1: f64, p2: f64) -> Cost {
    let main_bw = (n * n / (p1 * p1)) * indicator(p2) + 2.0 * n * k / (p1 * p2) * indicator(p1);
    let transpose_bw = n * k * log2c(p) / p;
    Cost {
        latency: 3.0 * log2c(p),
        bandwidth: main_bw + transpose_bw,
        flops: 2.0 * n * n * k / p,
    }
}

/// The grid shape `(p1, p2)` with `p1²·p2 = p` that minimises the bandwidth
/// term of [`mm_cost`], clamped so that `1 ≤ p1 ≤ √p`.
///
/// The unconstrained optimum makes the three communicated block faces equal,
/// `p1 = (n·p / k)^{1/3}`; when `n ≥ k√p` this hits the `p1 = √p` (2D) limit
/// and when `n ≤ k/p` it collapses to `p1 = 1` (1D).
pub fn mm_grid_for(n: f64, k: f64, p: f64) -> (f64, f64) {
    let p1 = (n * p / k).powf(1.0 / 3.0).clamp(1.0, p.sqrt());
    let p2 = (p / (p1 * p1)).max(1.0);
    (p1, p2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_cost_components() {
        let c = mm_cost(4096.0, 256.0, 64.0, 4.0, 4.0);
        // bandwidth = n²/p1² + 2nk/(p1p2) + lower-order transpose term
        let expect_main = 4096.0 * 4096.0 / 16.0 + 2.0 * 4096.0 * 256.0 / 16.0;
        assert!(c.bandwidth >= expect_main);
        assert!(c.bandwidth < expect_main * 1.2);
        assert_eq!(c.flops, 2.0 * 4096.0 * 4096.0 * 256.0 / 64.0);
        assert_eq!(c.latency, 3.0 * 6.0);
    }

    #[test]
    fn mm_cost_p2_one_drops_the_l_term_indicator() {
        // With p2 = 1 the L allgather is free (1_{p2} = 0).
        let with_p2 = mm_cost(1000.0, 1000.0, 16.0, 2.0, 4.0);
        let without_p2 = mm_cost(1000.0, 1000.0, 16.0, 4.0, 1.0);
        assert!(without_p2.bandwidth < with_p2.bandwidth + 1000.0 * 1000.0 / 4.0);
    }

    #[test]
    fn mm_cost_p1_one_drops_the_x_term_indicator() {
        // With p1 = 1 the X allgather and the reduce-scatter are free
        // (1_{p1} = 0): only the L allgather and the transposes remain.
        let c = mm_cost(16.0, 2048.0, 4.0, 1.0, 4.0);
        assert_eq!(c.bandwidth, 16.0 * 16.0 + 16.0 * 2048.0 * 2.0 / 4.0);
    }

    #[test]
    fn mm_grid_is_valid_and_optimal_shape() {
        for (n, k, p) in [
            (4096.0, 4096.0, 64.0),
            (65536.0, 64.0, 256.0),
            (64.0, 65536.0, 256.0),
        ] {
            let (p1, p2) = mm_grid_for(n, k, p);
            assert!(p1 >= 1.0 && p1 <= p.sqrt() + 1e-9);
            assert!((p1 * p1 * p2 - p).abs() / p < 1e-9 || p2 == 1.0);
            // The optimal grid never does worse (in the main bandwidth term)
            // than the extreme 2D and 1D choices.
            let bw = |q1: f64, q2: f64| mm_cost(n, k, p, q1, q2).bandwidth;
            assert!(bw(p1, p2) <= bw(p.sqrt(), 1.0) + 1e-6);
            assert!(bw(p1, p2) <= bw(1.0, p) + 1e-6);
        }
    }

    #[test]
    fn flops_are_load_balanced() {
        // 2·n²k/p on every grid shape of p = 64.
        for (p1, p2) in [(1.0, 64.0), (2.0, 16.0), (4.0, 4.0), (8.0, 1.0)] {
            let c = mm_cost(1024.0, 128.0, 64.0, p1, p2);
            assert_eq!(c.flops, 2.0 * 1024.0 * 1024.0 * 128.0 / 64.0);
        }
    }
}
