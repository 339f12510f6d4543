//! Cost of recursive triangular matrix inversion (Section V of the paper).
//!
//! The recursion splits the triangular matrix in half, inverts the two
//! diagonal blocks on disjoint halves of the processor grid concurrently, and
//! completes the inverse with two matrix multiplications.  Its key property —
//! the reason selective inversion lowers TRSM's synchronization cost — is the
//! `O(log² p)` latency, versus the polynomial-in-`p` latency of the recursive
//! TRSM.

use crate::cost::{log2c, Cost};

/// The geometric-series constant `ν = 2^{1/3} / (2^{1/3} − 1)` that appears in
/// the bandwidth and flop costs of the recursion.
pub fn nu() -> f64 {
    let c = 2.0_f64.powf(1.0 / 3.0);
    c / (c - 1.0)
}

/// `T_RecTriInv(n, p1, p2)` for inverting an `n×n` lower-triangular matrix on
/// a `p1 × p1 × p2` grid (`p = p1²·p2`):
///
/// ```text
/// W = ν·( n²/(8p1²) + n²/(2p1p2) )
/// F = ν·n³/(4·p1²·p2)
/// S = O(log² p)
/// ```
///
/// `F` is in flops, two per multiply–add: `ν·n³/(8p)` multiply–adds.
pub fn rec_tri_inv_cost(n: f64, p1: f64, p2: f64) -> Cost {
    let p = p1 * p1 * p2;
    Cost {
        latency: log2c(p) * log2c(p),
        bandwidth: nu() * (n * n / (8.0 * p1 * p1) + n * n / (2.0 * p1 * p2)),
        flops: 2.0 * nu() * n * n * n / (8.0 * p1 * p1 * p2),
    }
}

/// The inversion grid the paper selects for `q` processors:
/// `r1 = (q/4)^{1/3}` and `r2 = (16q)^{1/3}`, i.e. the aspect ratio
/// `r2 = 4·r1` of Section VII-A (with `q = p·n0/n`).
///
/// Note: the unconstrained minimiser of the leading-order bandwidth
/// expression [`inv_bandwidth`] is the slightly flatter ratio `r2 = 2·r1`;
/// the paper's choice is within a few percent of it (the `ablation_grid`
/// experiment table samples the whole curve).  We follow the paper.  Both
/// values are clamped to at least 1.
pub fn optimal_inv_grid(q: f64) -> (f64, f64) {
    let r1 = (q / 4.0).powf(1.0 / 3.0).max(1.0);
    let r2 = (q / (r1 * r1)).max(1.0);
    (r1, r2)
}

/// Bandwidth cost of the inversion as a function of the grid split, used by
/// the `ablation_grid` experiment table to show how close `r2 = 4·r1` is to
/// optimal.
pub fn inv_bandwidth(n: f64, r1: f64, r2: f64) -> f64 {
    nu() * (n * n / (8.0 * r1 * r1) + n * n / (2.0 * r1 * r2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nu_value() {
        assert!((nu() - 4.847).abs() < 0.01);
    }

    #[test]
    fn latency_is_polylogarithmic() {
        let c = rec_tri_inv_cost(1.0e6, 8.0, 4.0); // p = 256
        assert_eq!(c.latency, 64.0); // log²(256) = 8² = 64
        let c2 = rec_tri_inv_cost(1.0e6, 16.0, 4.0); // p = 1024
        assert_eq!(c2.latency, 100.0);
    }

    #[test]
    fn bandwidth_and_flops_scale_with_grid() {
        let n = 4096.0;
        let small = rec_tri_inv_cost(n, 2.0, 4.0);
        let large = rec_tri_inv_cost(n, 4.0, 16.0);
        assert!(large.bandwidth < small.bandwidth);
        assert!(large.flops < small.flops);
        // Flops scale exactly as 1/p = 1/(p1²·p2).
        let ratio = small.flops / large.flops;
        assert!((ratio - (4.0 * 4.0 * 16.0) / (2.0 * 2.0 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn optimal_grid_has_ratio_four() {
        let (r1, r2) = optimal_inv_grid(256.0);
        assert!((r2 / r1 - 4.0).abs() < 1e-9);
        assert!((r1 * r1 * r2 - 256.0).abs() < 1e-9);
        // Small q degenerates gracefully.
        let (r1, r2) = optimal_inv_grid(1.0);
        assert_eq!((r1, r2), (1.0, 1.0));
    }

    #[test]
    fn paper_ratio_four_is_near_optimal_bandwidth() {
        let n = 1.0e4;
        let q = 512.0;
        let (r1_paper, r2_paper) = optimal_inv_grid(q);
        let w_paper = inv_bandwidth(n, r1_paper, r2_paper);
        // The true minimiser over all aspect ratios with r1²·r2 = q.
        let mut w_best = f64::INFINITY;
        let mut steps = 0;
        let mut ratio = 0.25;
        while ratio <= 256.0 {
            let r1 = (q / ratio).powf(1.0 / 3.0);
            let r2 = q / (r1 * r1);
            w_best = w_best.min(inv_bandwidth(n, r1, r2));
            ratio *= 1.05;
            steps += 1;
        }
        assert!(steps > 50);
        // The paper's ratio-4 split is within a few percent of optimal …
        assert!(
            w_paper <= 1.10 * w_best,
            "paper split should be near-optimal"
        );
        // … while extreme splits are clearly worse.
        for extreme in [0.25, 64.0, 256.0] {
            let r1 = (q / extreme).powf(1.0 / 3.0);
            let r2 = q / (r1 * r1);
            assert!(inv_bandwidth(n, r1, r2) > 1.15 * w_best, "ratio {extreme}");
        }
    }
}
