//! Optimal parameter selection (Section VIII of the paper).
//!
//! The paper's Figure 1 shows the three processor-grid layouts — 1D, 2D and
//! 3D cuboids — selected by the relative sizes of the triangular matrix
//! (`n × n`) and the right-hand side (`n × k`):
//!
//! * `n < 4k/p`   → **1D**: every processor owns a column slab of `B`; the
//!   whole matrix `L` is inverted (`n0 = n`).
//! * `n > 4k√p`   → **2D**: a `√p × √p` grid; small diagonal blocks of size
//!   `n0 = Θ((n·k³·√p)^{1/4})` are inverted.
//! * otherwise    → **3D**: a `p1 × p1 × p2` cuboid with
//!   `p1 = (p·n/(4k))^{1/3}`, `n0 = Θ(min(√(nk), n))`.

use crate::predict::CostModelRev;

/// The layout regime of Section VIII / Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `n < 4k/p`: one large dimension, 1D processor layout.
    OneLargeDim,
    /// `4k/p ≤ n ≤ 4k√p`: three large dimensions, 3D processor layout.
    ThreeLargeDims,
    /// `n > 4k√p`: two large dimensions, 2D processor layout.
    TwoLargeDims,
}

impl Regime {
    /// Human-readable name used by the experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Regime::OneLargeDim => "1 large dimension (1D layout)",
            Regime::ThreeLargeDims => "3 large dimensions (3D layout)",
            Regime::TwoLargeDims => "2 large dimensions (2D layout)",
        }
    }
}

/// The asymptotically optimal parameters of the iterative inversion-based
/// TRSM for one `(n, k, p)` input (real-valued; the `catrsm` planner rounds
/// them to feasible integer grids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrsmPlan {
    /// Triangular matrix dimension.
    pub n: f64,
    /// Number of right-hand sides.
    pub k: f64,
    /// Number of processors.
    pub p: f64,
    /// The selected regime / layout.
    pub regime: Regime,
    /// Square-face dimension of the `p1 × p1 × p2` grid.
    pub p1: f64,
    /// Depth of the grid (number of right-hand-side layers).
    pub p2: f64,
    /// Diagonal-block size that is inverted.
    pub n0: f64,
    /// Square-face dimension of each inversion sub-grid.
    pub r1: f64,
    /// Depth of each inversion sub-grid (`r2 ≈ 4·r1` at the optimum).
    pub r2: f64,
}

impl CostModelRev {
    /// Classify `(n, k, p)` into the Section VIII regime.  The boundary
    /// constant is 4 in the source paper and 2 after the 2024 reexamination
    /// rebalances the boundaries under the corrected recursive-TRSM
    /// bandwidth bound, so `Tang24` widens the 1D and 2D regimes at the 3D
    /// regime's expense.
    pub fn classify(self, n: f64, k: f64, p: f64) -> Regime {
        let c = self.regime_constant();
        if n < c * k / p {
            Regime::OneLargeDim
        } else if n > c * k * p.sqrt() {
            Regime::TwoLargeDims
        } else {
            Regime::ThreeLargeDims
        }
    }

    /// Compute the Section VIII optimal parameters for `(n, k, p)`: the
    /// regime is chosen by [`CostModelRev::classify`] and the 3D cuboid face
    /// `p1 = (p·n/(c·k))^{1/3}` uses the revision's boundary constant `c`, so
    /// the grid stays continuous across the (shifted) regime boundaries.
    pub fn plan(self, n: usize, k: usize, p: usize) -> TrsmPlan {
        let nf = n as f64;
        let kf = k as f64;
        let pf = p as f64;
        let regime = self.classify(nf, kf, pf);
        let (p1, p2, n0) = match regime {
            Regime::OneLargeDim => (1.0, pf, nf),
            Regime::TwoLargeDims => {
                let n0 = (nf * kf.powi(3) * pf.sqrt()).powf(0.25).min(nf).max(1.0);
                (pf.sqrt(), 1.0, n0)
            }
            Regime::ThreeLargeDims => {
                let c = self.regime_constant();
                let p1 = (pf * nf / (c * kf)).powf(1.0 / 3.0).clamp(1.0, pf.sqrt());
                let p2 = (pf / (p1 * p1)).max(1.0);
                let n0 = (nf * kf).sqrt().min(nf).max(1.0);
                (p1, p2, n0)
            }
        };
        // Inversion sub-grids: q = p·n0/n processors per diagonal block, split
        // with the optimal ratio r2 = 4·r1 (Section VII-A).
        let q = (pf * n0 / nf).max(1.0);
        let (r1, r2) = crate::inversion::optimal_inv_grid(q);
        TrsmPlan {
            n: nf,
            k: kf,
            p: pf,
            regime,
            p1,
            p2,
            n0,
            r1,
            r2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CostModelRev::{Ipdps17, Tang24};

    #[test]
    fn regime_boundaries() {
        let p = 64.0;
        let k = 1024.0;
        assert_eq!(Ipdps17.classify(32.0, k, p), Regime::OneLargeDim); // 4k/p = 64
        assert_eq!(Ipdps17.classify(64.0, k, p), Regime::ThreeLargeDims);
        assert_eq!(Ipdps17.classify(32768.0, k, p), Regime::ThreeLargeDims); // 4k√p = 32768
        assert_eq!(Ipdps17.classify(40000.0, k, p), Regime::TwoLargeDims);
        assert!(Ipdps17.classify(32.0, k, p).name().contains("1 large"));
    }

    #[test]
    fn tang24_moves_the_regime_boundaries_inward() {
        let p = 64.0;
        let k = 1024.0;
        // 1D/3D boundary: 4k/p = 64 under Ipdps17, 2k/p = 32 under Tang24 —
        // n = 48 flips from 1D to 3D.
        assert_eq!(Ipdps17.classify(48.0, k, p), Regime::OneLargeDim);
        assert_eq!(Tang24.classify(48.0, k, p), Regime::ThreeLargeDims);
        // 3D/2D boundary: 4k√p = 32768 vs 2k√p = 16384 — n = 20000 flips
        // from 3D to 2D.
        assert_eq!(Ipdps17.classify(20000.0, k, p), Regime::ThreeLargeDims);
        assert_eq!(Tang24.classify(20000.0, k, p), Regime::TwoLargeDims);
    }

    #[test]
    fn tang24_grows_the_3d_cuboid_face() {
        // Deep in the 3D regime under both revisions: the cuboid face grows
        // with the smaller boundary constant (p1 = (pn/(c·k))^{1/3}).
        let a = Ipdps17.plan(4096, 1024, 64);
        let b = Tang24.plan(4096, 1024, 64);
        assert_eq!(a.regime, Regime::ThreeLargeDims);
        assert_eq!(b.regime, Regime::ThreeLargeDims);
        assert!(b.p1 > a.p1);
    }

    #[test]
    fn one_d_plan_inverts_everything() {
        let plan = Ipdps17.plan(16, 65536, 64);
        assert_eq!(plan.regime, Regime::OneLargeDim);
        assert_eq!(plan.p1, 1.0);
        assert_eq!(plan.p2, 64.0);
        assert_eq!(plan.n0, 16.0);
    }

    #[test]
    fn two_d_plan_uses_square_grid() {
        let plan = Ipdps17.plan(1 << 20, 16, 256);
        assert_eq!(plan.regime, Regime::TwoLargeDims);
        assert_eq!(plan.p1, 16.0);
        assert_eq!(plan.p2, 1.0);
        assert!(plan.n0 >= 1.0 && plan.n0 <= plan.n);
        // n0 ~ (n k³ √p)^{1/4}
        let expect = ((1u64 << 20) as f64 * 16.0f64.powi(3) * 16.0).powf(0.25);
        assert!((plan.n0 - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn three_d_plan_grid_multiplies_to_p() {
        let plan = Ipdps17.plan(4096, 1024, 64);
        assert_eq!(plan.regime, Regime::ThreeLargeDims);
        assert!((plan.p1 * plan.p1 * plan.p2 - 64.0).abs() < 1e-9);
        assert!((plan.n0 - (4096.0f64 * 1024.0).sqrt()).abs() < 1e-9);
        assert!(plan.r1 >= 1.0 && plan.r2 >= 1.0);
        // p1 = (pn/4k)^{1/3} = (64*4096/4096)^{1/3} = 4
        assert!((plan.p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn inversion_subgrid_size_matches_block_share() {
        let plan = Ipdps17.plan(16384, 4096, 256);
        let q = plan.p * plan.n0 / plan.n;
        assert!((plan.r1 * plan.r1 * plan.r2 - q).abs() / q < 1e-6);
    }

    #[test]
    fn bandwidth_matches_matrix_multiplication_lower_bound() {
        // In the 3D regime the tuned algorithm reaches the MM bandwidth.
        let (n, k, p) = (8192.0, 2048.0, 512.0);
        assert_eq!(Ipdps17.classify(n, k, p), Regime::ThreeLargeDims);
        let c = Ipdps17.new_cost(n, k, p);
        assert!((c.bandwidth - crate::mm::wmm(n, k, p)).abs() / c.bandwidth < 1e-9);
    }
}
