//! Cost of the recursive TRSM algorithm (Section IV of the paper).
//!
//! This is the "standard" baseline of the conclusion table: a recursive
//! splitting of the triangular matrix, with a column split of the right-hand
//! side when `k > n`.  The paper derives its cost in the three regimes; the
//! functions here reproduce those expressions so the experiments can compare
//! the baseline against the iterative inversion-based algorithm.

use crate::cost::{log2c, Cost};
use crate::predict::CostModelRev;
use crate::tuning::Regime;

/// `T_RT1D(n, k, p) = O(α·log p + β·n² + γ·n²k/p)` — one large dimension
/// (`n < k/p`).
pub fn rec_trsm_1d(n: f64, k: f64, p: f64) -> Cost {
    Cost {
        latency: log2c(p),
        bandwidth: n * n,
        flops: n * n * k / p,
    }
}

/// `T_RT2D(n, k, p) = O(α·√p + β·nk·log p/√p + γ·n²k/p)` — two large
/// dimensions (`n > k·√p`).
pub fn rec_trsm_2d(n: f64, k: f64, p: f64) -> Cost {
    Cost {
        latency: p.sqrt(),
        bandwidth: n * k * log2c(p) / p.sqrt(),
        flops: n * n * k / p,
    }
}

/// `T_RT3D(n, k, p) = O(α·(np/k)^{2/3}·log p + β·(n²k/p)^{2/3} + γ·n²k/p)` —
/// three large dimensions (`k/p ≤ n ≤ k·√p`).
pub fn rec_trsm_3d(n: f64, k: f64, p: f64) -> Cost {
    Cost {
        latency: (n * p / k).powf(2.0 / 3.0) * log2c(p),
        bandwidth: (n * n * k / p).powf(2.0 / 3.0),
        flops: n * n * k / p,
    }
}

impl CostModelRev {
    /// Cost of the recursive TRSM with the regime chosen as in Section VIII
    /// (`n < c·k/p` → 1D, `n > c·k√p` → 2D, otherwise 3D), so that it can be
    /// compared term-by-term with the iterative algorithm.
    ///
    /// `Tang24` replaces the 2D and 3D bandwidth terms with the
    /// reexamination's corrected bounds (`(n² + nk·log p)/√p` and
    /// `(n²k/p)^{2/3} + n²/p^{2/3}`) and moves the regime boundaries via
    /// [`CostModelRev::classify`]; the 1D cost and all latency/flop terms are
    /// unchanged.
    pub fn rec_trsm_cost(self, n: f64, k: f64, p: f64) -> Cost {
        match self.classify(n, k, p) {
            Regime::OneLargeDim => rec_trsm_1d(n, k, p),
            Regime::TwoLargeDims => {
                let mut c = rec_trsm_2d(n, k, p);
                if self == CostModelRev::Tang24 {
                    c.bandwidth = (n * n + n * k * log2c(p)) / p.sqrt();
                }
                c
            }
            Regime::ThreeLargeDims => {
                let mut c = rec_trsm_3d(n, k, p);
                if self == CostModelRev::Tang24 {
                    c.bandwidth = (n * n * k / p).powf(2.0 / 3.0) + n * n / p.powf(2.0 / 3.0);
                }
                c
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CostModelRev::{Ipdps17, Tang24};

    #[test]
    fn regime_dispatch() {
        let p = 64.0;
        let k = 1024.0;
        // n < 4k/p = 64 → 1D.
        assert_eq!(Ipdps17.rec_trsm_cost(32.0, k, p), rec_trsm_1d(32.0, k, p));
        // n > 4k√p = 32768 → 2D.
        assert_eq!(
            Ipdps17.rec_trsm_cost(65536.0, k, p),
            rec_trsm_2d(65536.0, k, p)
        );
        // Otherwise 3D.
        assert_eq!(
            Ipdps17.rec_trsm_cost(2048.0, k, p),
            rec_trsm_3d(2048.0, k, p)
        );
    }

    #[test]
    fn tang24_raises_recursive_bandwidth_without_touching_latency() {
        let (n, k, p) = (65536.0, 1024.0, 64.0);
        let a = Ipdps17.rec_trsm_cost(n, k, p);
        let b = Tang24.rec_trsm_cost(n, k, p);
        assert!(b.bandwidth > a.bandwidth);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.flops, b.flops);
    }

    #[test]
    fn two_d_latency_scales_as_sqrt_p() {
        let a = rec_trsm_2d(1.0e6, 16.0, 64.0);
        let b = rec_trsm_2d(1.0e6, 16.0, 256.0);
        assert!((b.latency / a.latency - 2.0).abs() < 1e-12);
    }

    #[test]
    fn three_d_latency_grows_with_n_over_k() {
        let p = 4096.0;
        let a = rec_trsm_3d(4096.0, 4096.0, p);
        let b = rec_trsm_3d(16384.0, 4096.0, p);
        // (n/k)^{2/3} factor: 4^{2/3} ≈ 2.52.
        assert!((b.latency / a.latency - 4.0f64.powf(2.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn flops_always_optimal() {
        for (n, k, p) in [
            (100.0, 1.0e6, 64.0),
            (1.0e5, 10.0, 64.0),
            (4096.0, 4096.0, 512.0),
        ] {
            assert_eq!(Ipdps17.rec_trsm_cost(n, k, p).flops, n * n * k / p);
        }
    }
}
