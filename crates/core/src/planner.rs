//! A-priori parameter selection (the integer counterpart of Section VIII).
//!
//! The cost model (`costmodel::tuning`) gives asymptotically optimal
//! *real-valued* parameters.  The planner turns them into concrete choices
//! that satisfy the divisibility requirements of the implementations:
//! power-of-two grid faces that divide the communicator, block sizes that
//! divide the matrix dimension, and so on.  Every choice is made by one
//! rule, `closest`: the feasible candidate nearest the model's target in
//! log distance, the smaller on a tie.  This is what makes the "a priori
//! determination of block sizes and processor grids" claim of the paper
//! actionable in code.

use crate::error::config_error;
use crate::it_inv_trsm::ItInvConfig;
use crate::Result;
use costmodel::CostModelRev;

/// The candidate nearest `target` in log distance, the first of a tie:
/// candidates come in ascending order, so the smaller wins.  `None` when
/// no candidate is at a finite distance.
fn closest(candidates: impl Iterator<Item = usize>, target: f64) -> Option<usize> {
    let mut best = (None, f64::INFINITY);
    for c in candidates {
        let dist = ((c as f64).ln() - target.ln()).abs();
        if dist < best.1 {
            best = (Some(c), dist);
        }
    }
    best.0
}

/// The powers of two up to `limit`, ascending.
fn powers_of_two(limit: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |c| c.checked_mul(2)).take_while(move |&c| c <= limit)
}

/// The divisors of `n` that are multiples of `step`, ascending.
fn divisors(n: usize, step: usize) -> impl Iterator<Item = usize> {
    (step..=n)
        .step_by(step)
        .filter(move |&d| n.is_multiple_of(d))
}

/// Choose the square-face dimension `p1` for the 3D matrix multiplication on
/// a `q × q` grid (so `p = q²`, `p1 | q`) multiplying an `n×n` matrix by an
/// `n×k` matrix.  `p1` must satisfy `p1² | n` and `(q/p1)² | k` for the
/// implementation's exact block exchanges; among the feasible powers of two
/// the one closest to the cost-optimal `(n·p/k)^{1/3}` is selected.
pub fn choose_mm_p1(n: usize, k: usize, q: usize) -> usize {
    let (target, _) = costmodel::mm::mm_grid_for(n as f64, k as f64, (q * q) as f64);
    let feasible = powers_of_two(q).filter(|&p1| {
        let s = q / p1;
        q.is_multiple_of(p1)
            && n.is_multiple_of(p1 * p1)
            && k.is_multiple_of(s * s)
            && k.is_multiple_of(q)
    });
    closest(feasible, target).unwrap_or(1)
}

/// The feasible `It-Inv-TRSM` configuration for solving `L·X = B` with `L`
/// of dimension `n`, `k` right-hand sides and `p` processors under the cost
/// model `model`, or a configuration error when `(n, k, p)` admits none.
///
/// The real-valued targets (`p1`, `n0`) come from [`CostModelRev::plan`];
/// the rounding to feasible integers is revision-independent.  An unpinned
/// `SolveRequest` plans under [`CostModelRev::Ipdps17`], the paper's own
/// bounds; comparing revisions is calling this with each and pinning the
/// results.  The caller's grid is assumed to be (close to) square; the
/// iterative algorithm internally re-grids the processors as
/// `p1 × p1 × p2`.
pub fn plan(model: CostModelRev, n: usize, k: usize, p: usize) -> Result<ItInvConfig> {
    let target = model.plan(n, k, p);

    // p1: among the powers of two whose cuboid p1 × p1 × p/p1² the algorithm
    // accepts — p1² | p, p1 | n, and k splits into p2 = p/p1² slabs — the
    // one closest to the model's target.
    let faces = powers_of_two(p.isqrt()).filter(|&p1| {
        p.is_multiple_of(p1 * p1) && n.is_multiple_of(p1) && k.is_multiple_of(p / (p1 * p1))
    });
    let p1 = closest(faces, target.p1.max(1.0)).ok_or_else(|| {
        config_error(
            "planner",
            format!(
                "no p1 × p1 × p2 grid fits n = {n}, k = {k} on p = {p} processors \
                 (needs a power of two p1 with p1² | p, p1 | n and (p/p1²) | k)"
            ),
        )
    })?;

    // n0: a divisor of n and a multiple of p1 (n itself is one), close to the
    // model's target.
    let n0 = closest(divisors(n, p1), target.n0.round().max(1.0)).unwrap_or(n);

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
    fn closest_rounds_by_log_distance() {
        // Divisors, as `plan` offers n0.
        let divisor = |n, target, step| closest(divisors(n, step), target).unwrap();
        assert_eq!(divisor(64, 16.0, 1), 16);
        assert_eq!(divisor(64, 15.0, 1), 16);
        assert_eq!(divisor(60, 16.0, 1), 15);
        assert_eq!(divisor(64, 10.0, 4), 8);
        assert_eq!(divisor(64, 1000.0, 1), 64);
        // Powers of two, as `plan` offers p1: 5 is nearer 4 than 8.
        assert_eq!(closest(powers_of_two(16), 5.0), Some(4));
        assert_eq!(closest(powers_of_two(16).filter(|&c| c > 16), 5.0), None);
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
