//! A-priori parameter selection (the integer counterpart of Section VIII).
//!
//! The cost model (`costmodel::tuning`) gives asymptotically optimal
//! *real-valued* parameters.  The planner turns them into concrete choices
//! that satisfy the divisibility requirements of the implementations:
//! power-of-two grid faces that divide the communicator, block sizes that
//! divide the matrix dimension, and so on.  This is what makes the "a priori
//! determination of block sizes and processor grids" claim of the paper
//! actionable in code.

use crate::it_inv_trsm::ItInvConfig;
use costmodel::{CostModelRev, Regime};

/// A concrete, feasible execution plan for one TRSM instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Matrix dimension.
    pub n: usize,
    /// Number of right-hand sides.
    pub k: usize,
    /// Number of processors.
    pub p: usize,
    /// The regime the cost model assigned.
    pub regime: Regime,
    /// Configuration of the iterative inversion-based algorithm.
    pub it_inv: ItInvConfig,
    /// Block size below which the recursive algorithm stops recursing.
    pub rec_base: usize,
}

/// Largest power of two `≤ limit` that divides `value`.
pub fn largest_pow2_divisor_at_most(value: usize, limit: usize) -> usize {
    let mut best = 1;
    let mut candidate = 1;
    while candidate <= limit {
        if value.is_multiple_of(candidate) {
            best = candidate;
        }
        candidate *= 2;
    }
    best
}

/// The divisor of `value` that is closest to `target` (ties broken downward)
/// among divisors that are multiples of `multiple_of`.
pub fn closest_divisor(value: usize, target: usize, multiple_of: usize) -> usize {
    let mut best = value;
    let mut best_dist = f64::INFINITY;
    for d in 1..=value {
        if !value.is_multiple_of(d) || d % multiple_of != 0 {
            continue;
        }
        let dist = (d as f64).ln() - (target.max(1) as f64).ln();
        let dist = dist.abs();
        if dist < best_dist {
            best_dist = dist;
            best = d;
        }
    }
    best
}

/// Choose the square-face dimension `p1` for the 3D matrix multiplication on
/// a `q × q` grid (so `p = q²`, `p1 | q`) multiplying an `n×n` matrix by an
/// `n×k` matrix.  `p1` must satisfy `p1² | n` and `(q/p1)² | k` for the
/// implementation's exact block exchanges; among the feasible powers of two
/// the one closest to the cost-optimal `(n·p/k)^{1/3}` is selected.
pub fn choose_mm_p1(n: usize, k: usize, q: usize) -> usize {
    let p = q * q;
    let (target, _) = costmodel::mm::mm_grid_for(n as f64, k as f64, p as f64);
    let mut best = 1usize;
    let mut best_dist = f64::INFINITY;
    let mut cand = 1usize;
    while cand <= q {
        let s = q / cand;
        let feasible = q.is_multiple_of(cand)
            && n.is_multiple_of(cand * cand)
            && k.is_multiple_of(s * s)
            && k.is_multiple_of(q);
        if feasible {
            let dist = ((cand as f64).ln() - target.ln()).abs();
            if dist < best_dist {
                best_dist = dist;
                best = cand;
            }
        }
        cand *= 2;
    }
    best
}

/// Build a feasible plan for solving `L·X = B` with `L` of dimension `n`,
/// `k` right-hand sides and `p` processors under the cost model `model`.
///
/// The real-valued targets (regime, `p1`, `n0`) come from
/// [`CostModelRev::plan`], so a `Tang24` caller gets grids placed by the
/// corrected bandwidth bound's regime boundaries; the integer feasibility
/// rounding below is revision-independent.  The caller's grid is assumed to
/// be (close to) square; the iterative algorithm internally re-grids the
/// processors as `p1 × p1 × p2`, so the only hard requirement is that the
/// returned `p1² · p2 = p`.
pub fn plan(model: CostModelRev, n: usize, k: usize, p: usize) -> Plan {
    let target = model.plan(n, k, p);

    // p1: power of two with p1² | p, close to the model's target.
    let mut p1 = 1usize;
    let mut best_dist = f64::INFINITY;
    let mut cand = 1usize;
    while cand * cand <= p {
        if p.is_multiple_of(cand * cand) && n.is_multiple_of(cand) {
            let dist = ((cand as f64).ln() - target.p1.max(1.0).ln()).abs();
            if dist < best_dist {
                best_dist = dist;
                p1 = cand;
            }
        }
        cand *= 2;
    }
    let mut p2 = p / (p1 * p1);
    // k must be divisible by p2 (the right-hand side is split into p2 slabs).
    while p2 > 1 && !k.is_multiple_of(p2) {
        // Fall back to a flatter grid: fold excess depth into idle replication
        // by halving p2 and doubling nothing (the implementation requires
        // p1²·p2 = p exactly, so instead shrink p1 if possible).
        if p1 > 1 && p.is_multiple_of((p1 / 2) * (p1 / 2)) {
            p1 /= 2;
            p2 = p / (p1 * p1);
        } else {
            break;
        }
    }
    if !k.is_multiple_of(p2) || p1 * p1 * p2 != p {
        // Last resort: 1D layout (always feasible when k % p == 0, otherwise
        // the caller should pad; we still return a structurally valid plan).
        p1 = 1;
        p2 = p;
    }

    // n0: divisor of n, multiple of p1, close to the model's target.
    let n0 = closest_divisor(n, target.n0.round().max(1.0) as usize, p1.max(1));

    // Inversion sub-grid: q = p_face·n0/n processors per diagonal block on the
    // face (see diag_inv); the concrete side length is chosen there, so the
    // plan records the model's recommendation for reporting purposes only.
    let it_inv = ItInvConfig {
        p1,
        p2,
        n0,
        inv_base: 64,
    };

    // Recursive baseline: stop recursing around the paper's base-case size.
    let rec_base = closest_divisor(n, (n / (p.max(2)).isqrt().max(2)).max(8), 1);

    Plan {
        n,
        k,
        p,
        regime: target.regime,
        it_inv,
        rec_base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_divisor_helper() {
        assert_eq!(largest_pow2_divisor_at_most(64, 16), 16);
        assert_eq!(largest_pow2_divisor_at_most(48, 64), 16);
        assert_eq!(largest_pow2_divisor_at_most(7, 8), 1);
        assert_eq!(largest_pow2_divisor_at_most(96, 8), 8);
    }

    #[test]
    fn closest_divisor_helper() {
        assert_eq!(closest_divisor(64, 16, 1), 16);
        assert_eq!(closest_divisor(64, 15, 1), 16);
        assert_eq!(closest_divisor(60, 16, 1), 15);
        assert_eq!(closest_divisor(64, 10, 4), 8);
        assert_eq!(closest_divisor(64, 1000, 1), 64);
    }

    #[test]
    fn mm_p1_is_feasible() {
        for (n, k, q) in [
            (256usize, 64usize, 4usize),
            (512, 512, 8),
            (64, 4096, 8),
            (1024, 32, 16),
        ] {
            let p1 = choose_mm_p1(n, k, q);
            assert!(q % p1 == 0);
            assert_eq!(n % (p1 * p1), 0);
            let s = q / p1;
            assert_eq!(k % (s * s), 0);
        }
    }

    #[test]
    fn plan_produces_exact_grid_factorisation() {
        for (n, k, p) in [
            (256usize, 64usize, 16usize),
            (512, 128, 64),
            (128, 4096, 64),
            (4096, 64, 16),
        ] {
            let plan = plan(CostModelRev::Ipdps17, n, k, p);
            assert_eq!(plan.it_inv.p1 * plan.it_inv.p1 * plan.it_inv.p2, p);
            assert_eq!(n % plan.it_inv.n0, 0);
            assert_eq!(plan.it_inv.n0 % plan.it_inv.p1.max(1), 0);
            assert_eq!(n % plan.it_inv.p1.max(1), 0);
        }
    }

    #[test]
    fn plan_follows_regimes() {
        // Few right-hand sides at scale → 2D-ish (p2 small).
        let wide = plan(CostModelRev::Ipdps17, 4096, 16, 64);
        assert!(wide.it_inv.p2 <= 4);
        // Many right-hand sides → 1D (p1 = 1).
        let tall = plan(CostModelRev::Ipdps17, 32, 8192, 64);
        assert_eq!(tall.it_inv.p1, 1);
        assert_eq!(tall.it_inv.p2, 64);
        assert_eq!(tall.regime, Regime::OneLargeDim);
    }

    #[test]
    fn plan_n0_spans_generalisation_range() {
        // In the 1D regime the whole matrix is inverted (n0 = n).
        let p = plan(CostModelRev::Ipdps17, 32, 8192, 64);
        assert_eq!(p.it_inv.n0, 32);
        // In the 2D regime only small blocks are inverted (n0 < n).
        let p = plan(CostModelRev::Ipdps17, 8192, 16, 16);
        assert!(p.it_inv.n0 < 8192);
    }
}
