//! Prediction hook for the staged solver API (`catrsm::SolveRequest` →
//! `SolvePlan` → `Solution`).
//!
//! When a request is lowered to a plan, the plan carries the *predicted*
//! α–β–γ cost of the algorithm it chose, so callers can inspect what a
//! solve will cost before running it — the "a priori" workflow the paper
//! advocates, and the plan-inspection pattern the re-examination of this
//! paper's bandwidth analysis (arXiv:2407.00871) treats as first-class.
//! `catrsm::Algorithm::predicted_cost` is the dispatch: a recursive plan
//! quotes the walk of the recursion it runs at its base size
//! (`catrsm::rec_trsm::predicted_cost`, built from [`crate::collectives`]
//! and [`crate::mm::mm_cost`]), a wavefront plan the walk of its layout
//! moves and broadcasts (`catrsm::wavefront::predicted_cost`, priced on
//! simnet's own schedules), and an iterative plan the sum of the Section
//! VII phases of [`crate::itinv`] at its own `n0` and `p1 × p1 × p2` — the
//! same functions the drift report and the experiment harness print per
//! phase, so a plan's total is the sum of its own rows.  None of them reads
//! the revision: [`CostModelRev`] reaches a plan only through the It-Inv
//! configuration the planner chose under it.

use crate::cost::{log2c, Cost};

/// Which revision of the analytical cost model to evaluate.
///
/// Tang's 2024 reexamination of this paper's recursive-TRSM bandwidth
/// analysis (arXiv:2407.00871) argues the original W bound understates the
/// recursive algorithm's communication in the 2D and 3D regimes.  The exact
/// corrected expressions are reconstructed here from the reexamination's
/// argument (the triangular-solve panel broadcasts move `Θ(n²/√p)` words in
/// the 2D layout and an extra `Θ(n²/p^{2/3})` in the 3D cuboid, terms the
/// original leading-order analysis dropped), with the regime-boundary
/// constant rebalanced from 4 to 2 so the boundaries again equalise the
/// neighbouring regimes' dominant terms under the corrected W.
///
/// The revision is the one cost-model value: every regime-dependent formula
/// in this crate is a method on it, and callers that want the source paper's
/// numbers say [`CostModelRev::Ipdps17`] (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModelRev {
    /// The source paper's Section VIII / IX expressions, verbatim.
    #[default]
    Ipdps17,
    /// The corrected recursive-TRSM bandwidth bound and rebalanced regime
    /// boundaries after the 2024 reexamination.
    Tang24,
}

impl CostModelRev {
    /// Both revisions, in publication order.
    pub const ALL: [CostModelRev; 2] = [CostModelRev::Ipdps17, CostModelRev::Tang24];

    /// Human-readable name used by experiment output and diff tables.
    pub fn name(&self) -> &'static str {
        match self {
            CostModelRev::Ipdps17 => "ipdps17",
            CostModelRev::Tang24 => "tang24",
        }
    }

    /// The constant `c` in the regime boundaries `n < c·k/p` (1D) and
    /// `n > c·k·√p` (2D): 4 in the source paper's Section VIII, 2 after the
    /// reexamination rebalances the boundaries under the corrected W bound.
    pub fn regime_constant(&self) -> f64 {
        match self {
            CostModelRev::Ipdps17 => 4.0,
            CostModelRev::Tang24 => 2.0,
        }
    }
}

/// Predicted cost of a level-scheduled sparse triangular solve with `nnz`
/// stored entries, `k` right-hand sides, `workers` workers, and `barriers`
/// synchronization points.
///
/// The solve is a sequence of parallel sweeps separated by global
/// synchronizations, as the distributed wavefront's broadcasts are, so the
/// latency term is **proportional to the number of barriers actually
/// crossed** — one per level under the level sweep, none sequentially —
/// which is why the staged planner records the barrier count on its plans
/// and prices them through this formula.  The bandwidth term charges the
/// `k` solution words that cross between dependent sweeps at each
/// synchronization; the flop term is the solve's `2·nnz·k` arithmetic
/// divided over the workers.
pub fn sparse_solve_cost(nnz: f64, k: f64, barriers: f64, workers: f64) -> Cost {
    let p = workers.max(1.0);
    Cost {
        latency: barriers * log2c(p),
        bandwidth: barriers * k,
        flops: 2.0 * nnz * k / p,
    }
}

/// [`sparse_solve_cost`] with the **analysis phase amortized over the
/// declared reuse** — the per-apply cost of a plan that spends
/// `analysis_flops` once (~`nnz` for the level analysis, zero when the
/// pattern is never analysed) and is then applied `reuse` times.
pub fn sparse_solve_cost_amortized(
    nnz: f64,
    k: f64,
    barriers: f64,
    workers: f64,
    analysis_flops: f64,
    reuse: f64,
) -> Cost {
    let mut cost = sparse_solve_cost(nnz, k, barriers, workers);
    cost.flops += analysis_flops / reuse.max(1.0);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use CostModelRev::Ipdps17;

    #[test]
    fn all_kinds_do_the_optimal_flops_to_leading_order() {
        // The wavefront's flops come from its walk and are not bounded here.
        let (n, k, p) = (8192.0, 512.0, 256.0);
        let optimal = n * n * k / p;
        for (name, c) in [
            ("recursive", Ipdps17.standard_cost(n, k, p)),
            ("iterative", Ipdps17.new_cost(n, k, p)),
        ] {
            assert!(
                c.flops >= optimal && c.flops <= 2.5 * optimal,
                "{name} flops {} vs optimal {optimal}",
                c.flops
            );
        }
    }

    #[test]
    fn sparse_sync_term_scales_with_barriers_not_levels() {
        // Same matrix, same workers: a 50-level schedule must price
        // strictly below a 10000-level one, with identical flop terms.
        let (nnz, k, p) = (200_000.0, 8.0, 4.0);
        let deep = sparse_solve_cost(nnz, k, 10_000.0, p);
        let shallow = sparse_solve_cost(nnz, k, 50.0, p);
        assert_eq!(deep.flops, shallow.flops);
        assert!(shallow.latency < deep.latency / 100.0);
        assert!(shallow.bandwidth < deep.bandwidth);
        // More workers divide the flop term and raise the per-barrier cost.
        let wide = sparse_solve_cost(nnz, k, 50.0, 16.0);
        assert!(wide.flops < shallow.flops);
        assert!(wide.latency > shallow.latency);
    }

    #[test]
    fn amortized_cost_spreads_the_analysis_over_the_declared_reuse() {
        let (nnz, k, p) = (160_000.0, 1.0, 4.0);
        let plain = sparse_solve_cost(nnz, k, 50.0, p);
        // With reuse 1 the amortized cost is the plain formula plus the
        // full analysis bill; 100 applies shrink that bill 100×; a plan
        // that never analysed pays none at any reuse.
        let once = sparse_solve_cost_amortized(nnz, k, 50.0, p, nnz, 1.0);
        assert_eq!(once.latency, plain.latency);
        assert_eq!(once.bandwidth, plain.bandwidth);
        assert_eq!(once.flops, plain.flops + nnz);
        let often = sparse_solve_cost_amortized(nnz, k, 50.0, p, nnz, 100.0);
        assert_eq!(often.flops, plain.flops + nnz / 100.0);
        assert_eq!(
            sparse_solve_cost_amortized(nnz, k, 50.0, p, 0.0, 1.0),
            plain
        );
    }
}
