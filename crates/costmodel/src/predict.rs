//! Prediction hook for the staged solver API (`catrsm::SolveRequest` →
//! `SolvePlan` → `Solution`).
//!
//! When a request is lowered to a distributed plan, the plan carries the
//! *predicted* α–β–γ cost of the algorithm it chose, so callers can inspect
//! what a solve will cost before running it — the "a priori" workflow the paper
//! advocates, and the plan-inspection pattern the re-examination of this
//! paper's bandwidth analysis (arXiv:2407.00871) treats as first-class.
//! `catrsm::Algorithm::predicted_cost` is the dispatch, and every arm
//! quotes a walk: a function beside the executor that makes its decisions
//! and prices each message on simnet's own schedules, without running
//! anything.  An iterative plan walks its five phases at its own `n0` and
//! `p1 × p1 × p2` (`catrsm::it_inv_trsm::predicted_cost`, which the drift
//! report prints per phase), a recursive plan the recursion it runs at its
//! base size (`catrsm::rec_trsm::predicted_cost`), a wavefront plan its
//! layout moves and broadcasts (`catrsm::wavefront::predicted_cost`).  A
//! walk charges each rank what its executor charges it — local work by the
//! `dense::flops` count of the kernel that runs it — so a quote's S, W and F
//! are the measured maxima.  None of them reads the revision:
//! [`CostModelRev`] reaches a plan only through the It-Inv configuration
//! the planner chose under it.  Dense and sparse plans quote no cost here:
//! they state their flops, and sparse ones the levels and barriers they
//! will cross.

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

#[cfg(test)]
mod tests {
    use super::*;
    use CostModelRev::Ipdps17;

    #[test]
    fn all_kinds_do_the_optimal_flops_to_leading_order() {
        // The wavefront's flops come from its walk and are not bounded here.
        // Optimal: n²k/p multiply-adds, two flops each.
        let (n, k, p) = (8192.0, 512.0, 256.0);
        let optimal = 2.0 * n * n * k / p;
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
}
