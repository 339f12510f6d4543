//! A-priori parameter selection (the integer counterpart of Section VIII).
//!
//! The cost model (`costmodel::tuning`) gives asymptotically optimal
//! *real-valued* parameters.  The planner turns them into concrete choices
//! that satisfy the divisibility requirements of the implementations:
//! power-of-two grid faces that divide the communicator, block sizes that
//! divide the matrix dimension, and so on.  This is what makes the "a priori
//! determination of block sizes and processor grids" claim of the paper
//! actionable in code.

use crate::error::config_error;
use crate::it_inv_trsm::ItInvConfig;
use crate::Result;
use costmodel::CostModelRev;

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

/// The power of two `≤ limit` satisfying `feasible` that is closest to
/// `target` (log distance, ties to the smaller), if any is feasible.
fn closest_feasible_pow2(
    limit: usize,
    target: f64,
    feasible: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best = None;
    let mut best_dist = f64::INFINITY;
    let mut cand = 1usize;
    while cand <= limit {
        if feasible(cand) {
            let dist = ((cand as f64).ln() - target.ln()).abs();
            if dist < best_dist {
                best_dist = dist;
                best = Some(cand);
            }
        }
        cand *= 2;
    }
    best
}

/// Choose the square-face dimension `p1` for the 3D matrix multiplication on
/// a `q × q` grid (so `p = q²`, `p1 | q`) multiplying an `n×n` matrix by an
/// `n×k` matrix.  `p1` must satisfy `p1² | n` and `(q/p1)² | k` for the
/// implementation's exact block exchanges; among the feasible powers of two
/// the one closest to the cost-optimal `(n·p/k)^{1/3}` is selected.
pub fn choose_mm_p1(n: usize, k: usize, q: usize) -> usize {
    let (target, _) = costmodel::mm::mm_grid_for(n as f64, k as f64, (q * q) as f64);
    closest_feasible_pow2(q, target, |p1| {
        let s = q / p1;
        q.is_multiple_of(p1)
            && n.is_multiple_of(p1 * p1)
            && k.is_multiple_of(s * s)
            && k.is_multiple_of(q)
    })
    .unwrap_or(1)
}

/// The feasible `It-Inv-TRSM` configuration for solving `L·X = B` with `L`
/// of dimension `n`, `k` right-hand sides and `p` processors under the cost
/// model `model`, or a configuration error when `(n, k, p)` admits none.
///
/// The real-valued targets (`p1`, `n0`) come from [`CostModelRev::plan`], so
/// a `Tang24` caller gets grids placed by the corrected bandwidth bound's
/// regime boundaries; the integer feasibility rounding below is
/// revision-independent.  The caller's grid is assumed to be (close to)
/// square; the iterative algorithm internally re-grids the processors as
/// `p1 × p1 × p2`.
pub fn plan(model: CostModelRev, n: usize, k: usize, p: usize) -> Result<ItInvConfig> {
    let target = model.plan(n, k, p);

    // p1: among the powers of two whose cuboid p1 × p1 × p/p1² the algorithm
    // accepts — p1² | p, p1 | n, and k splits into p2 = p/p1² slabs — the
    // one closest to the model's target.
    let p1 = closest_feasible_pow2(p.isqrt(), target.p1.max(1.0), |p1| {
        p.is_multiple_of(p1 * p1) && n.is_multiple_of(p1) && k.is_multiple_of(p / (p1 * p1))
    })
    .ok_or_else(|| {
        config_error(
            "planner",
            format!(
                "no p1 × p1 × p2 grid fits n = {n}, k = {k} on p = {p} processors \
                 (needs a power of two p1 with p1² | p, p1 | n and (p/p1²) | k)"
            ),
        )
    })?;

    // n0: divisor of n, multiple of p1, close to the model's target.
    let n0 = closest_divisor(n, target.n0.round().max(1.0) as usize, p1);

    Ok(ItInvConfig {
        p1,
        p2: p / (p1 * p1),
        n0,
        inv_base: 64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let cfg = plan(CostModelRev::Ipdps17, n, k, p).unwrap();
            assert_eq!(cfg.p1 * cfg.p1 * cfg.p2, p);
            assert_eq!(n % cfg.n0, 0);
            assert_eq!(cfg.n0 % cfg.p1, 0);
            assert_eq!(n % cfg.p1, 0);
            assert_eq!(k % cfg.p2, 0);
        }
    }

    #[test]
    fn plan_follows_regimes() {
        // Few right-hand sides at scale → 2D-ish (p2 small).
        let wide = plan(CostModelRev::Ipdps17, 4096, 16, 64).unwrap();
        assert!(wide.p2 <= 4);
        // Many right-hand sides → 1D (p1 = 1).
        let tall = plan(CostModelRev::Ipdps17, 32, 8192, 64).unwrap();
        assert_eq!((tall.p1, tall.p2), (1, 64));
    }

    #[test]
    fn plan_n0_spans_generalisation_range() {
        // In the 1D regime the whole matrix is inverted (n0 = n).
        let cfg = plan(CostModelRev::Ipdps17, 32, 8192, 64).unwrap();
        assert_eq!(cfg.n0, 32);
        // In the 2D regime only small blocks are inverted (n0 < n).
        let cfg = plan(CostModelRev::Ipdps17, 8192, 16, 16).unwrap();
        assert!(cfg.n0 < 8192);
    }
}
