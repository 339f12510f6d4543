//! Cost of the iterative inversion-based TRSM (Sections VI–VII of the paper).
//!
//! The algorithm has three phases whose costs Section VII derives separately
//! and sums (`catrsm::ItInvConfig::phase_model` evaluates them at a
//! configuration; experiment E5 prints them beside the measured phases, and
//! a plan quotes the walk of what it runs instead):
//!
//! * **inversion** — invert the `n/n0` diagonal blocks of size `n0` on
//!   disjoint `r1 × r1 × r2` sub-grids (`r1²·r2 = p·n0/n`),
//! * **solve** — one triangular-block × right-hand-side multiplication per
//!   diagonal block,
//! * **update** — the trailing updates `B(T_{i+1}) −= L(T_{i+1}, S_i)·X(S_i)`,
//!   with partial sums accumulated locally and only the next block row
//!   reduced each iteration.
//!
//! `F` is in flops, two per multiply–add, like every count in the
//! workspace (`dense::flops`).

use crate::cost::{indicator, log2c, Cost};
use crate::inversion;

/// Cost of the inversion phase: `n/n0` independent inversions of `n0 × n0`
/// blocks on `r1 × r1 × r2` sub-grids, plus the (lower-order) redistribution
/// of the blocks to and from those sub-grids.
pub fn inversion_phase(_n: f64, n0: f64, r1: f64, r2: f64) -> Cost {
    let per_block = inversion::rec_tri_inv_cost(n0, r1, r2);
    // The redistribution (lines 6, 9, 16, 17 of Diagonal-Inverter) is never of
    // leading order; we include the dominant n·n0/(2p1²)-type term through the
    // all-to-all bound the paper quotes.
    let q = r1 * r1 * r2;
    let redistribution = Cost {
        latency: 2.0 * log2c(q) + 2.0 * log2c(q),
        bandwidth: n0 * n0 / q.max(1.0) * log2c(q),
        flops: 0.0,
    };
    Cost {
        latency: per_block.latency + redistribution.latency,
        bandwidth: per_block.bandwidth + redistribution.bandwidth,
        flops: per_block.flops,
    }
}

/// Cost of the solve phase (Section VII-B):
///
/// ```text
/// S = (n/n0)·log p
/// W = (n/n0)·[ n0²/p1²·1_{p2} + 4·n0·k/(p1·p2)·1_{p1} ]
/// F = (n/n0)·( 2·n0²·k/(p1²·p2) )
/// ```
pub fn solve_phase(n: f64, k: f64, n0: f64, p1: f64, p2: f64) -> Cost {
    let p = p1 * p1 * p2;
    let blocks = n / n0;
    Cost {
        latency: blocks * log2c(p),
        bandwidth: blocks
            * (n0 * n0 / (p1 * p1) * indicator(p2) + 4.0 * n0 * k / (p1 * p2) * indicator(p1)),
        flops: blocks * (2.0 * n0 * n0 * k / (p1 * p1 * p2)),
    }
}

/// Cost of the update phase (Section VII-C), evaluated as the exact sum over
/// iterations rather than the leading-order closed form:
///
/// ```text
/// S = (n/n0 − 1)·log p
/// W = Σ_{i=1}^{n/n0−1} [ 2·(n − i·n0)·n0/p1²·1_{p2} + 4·n0·k/(p1·p2)·1_{p1} ]
/// F = Σ_{i=1}^{n/n0−1} 2·(n − i·n0)·n0·k/(p1²·p2)
/// ```
pub fn update_phase(n: f64, k: f64, n0: f64, p1: f64, p2: f64) -> Cost {
    let p = p1 * p1 * p2;
    let blocks = (n / n0).round() as usize;
    let mut bandwidth = 0.0;
    let mut flops = 0.0;
    for i in 1..blocks {
        let remaining = n - i as f64 * n0;
        bandwidth += 2.0 * remaining * n0 / (p1 * p1) * indicator(p2)
            + 4.0 * n0 * k / (p1 * p2) * indicator(p1);
        flops += 2.0 * remaining * n0 * k / (p1 * p1 * p2);
    }
    Cost {
        latency: (blocks.saturating_sub(1)) as f64 * log2c(p),
        bandwidth,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_phase_matches_formula() {
        let c = solve_phase(4096.0, 1024.0, 256.0, 4.0, 4.0);
        let blocks = 16.0;
        assert_eq!(c.latency, blocks * 6.0);
        let per_block_w = 256.0 * 256.0 / 16.0 + 4.0 * 256.0 * 1024.0 / 16.0;
        assert!((c.bandwidth - blocks * per_block_w).abs() < 1e-6);
        assert!((c.flops - blocks * 2.0 * 256.0 * 256.0 * 1024.0 / 64.0).abs() < 1e-6);
    }

    #[test]
    fn update_phase_sums_over_iterations() {
        let n = 1024.0;
        let n0 = 256.0;
        let c = update_phase(n, 64.0, n0, 2.0, 2.0);
        assert_eq!(c.latency, 3.0 * 3.0); // 3 iterations × log2(8)
        assert!(c.bandwidth > 0.0);
        assert!(c.flops > 0.0);
        // With a single block (n0 = n) there is no update at all.
        let none = update_phase(n, 64.0, n, 2.0, 2.0);
        assert_eq!(none, Cost::ZERO);
    }

    #[test]
    fn p1_equals_one_removes_rhs_reductions() {
        // With p1 = 1 the 1_{p1} indicator vanishes: no right-hand-side
        // reduction traffic in solve or update.
        let c = solve_phase(1024.0, 4096.0, 1024.0, 1.0, 16.0);
        assert_eq!(c.bandwidth, 1024.0 * 1024.0);
        let u = update_phase(1024.0, 4096.0, 1024.0, 1.0, 16.0);
        assert_eq!(u.bandwidth, 0.0);
    }

    #[test]
    fn p2_equals_one_removes_l_broadcasts() {
        // With p2 = 1 the 1_{p2} indicator vanishes: no L broadcast traffic.
        let c = solve_phase(1024.0, 64.0, 128.0, 8.0, 1.0);
        assert_eq!(c.bandwidth, (1024.0 / 128.0) * 4.0 * 128.0 * 64.0 / 8.0);
    }

    #[test]
    fn total_flops_close_to_optimal() {
        // F_total ≈ 2·(n²k/p + n·n0²/p) (paper Section VII-D, in flops).
        let (n, k, n0, p1, p2) = (4096.0, 1024.0, 512.0, 4.0, 4.0);
        let p = p1 * p1 * p2;
        let c = inversion_phase(n, n0, 4.0, 4.0)
            + solve_phase(n, k, n0, p1, p2)
            + update_phase(n, k, n0, p1, p2);
        let expect = 2.0 * n * n * k / p;
        assert!(c.flops > 0.5 * expect);
        assert!(c.flops < 2.5 * expect);
    }

    #[test]
    fn inversion_phase_latency_is_polylog() {
        let c = inversion_phase(65536.0, 1024.0, 4.0, 16.0);
        // log²(256) = 64 plus lower-order redistribution latency.
        assert!(c.latency >= 64.0);
        assert!(c.latency < 120.0);
    }

    #[test]
    fn larger_n0_means_fewer_blocks_and_less_latency() {
        let (n, k, p1, p2) = (8192.0, 2048.0, 4.0, 4.0);
        let coarse = solve_phase(n, k, 1024.0, p1, p2) + update_phase(n, k, 1024.0, p1, p2);
        let fine = solve_phase(n, k, 128.0, p1, p2) + update_phase(n, k, 128.0, p1, p2);
        assert!(coarse.latency < fine.latency);
    }
}
