//! What an execution returns: the solution and the uniform measured report.

#[cfg(doc)]
use super::SolvePlan;
use crate::it_inv_trsm::PhaseBreakdown;
use dense::FlopCount;
use simnet::CostCounters;

/// The outcome of executing a [`SolvePlan`]: the solution `X` plus the uniform
/// measured report.
#[derive(Debug, Clone)]
pub struct Solution<X> {
    /// The solution of `op(A)·X = B` (or `X·op(A) = B`).
    pub x: X,
    /// What the execution measured.
    pub report: SolveReport,
}

/// Level/barrier shape of a sparse execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelReport {
    /// Workers the executor ran with.
    pub workers: usize,
    /// Dependency levels of the schedule (0 when the pattern was never
    /// analysed; kept when the rule analysed it and stayed sequential).
    pub levels: usize,
    /// Barriers each worker actually waited on: one per level under the
    /// level sweep, none sequentially.
    pub barriers: usize,
}

/// The uniform measured report every backend fills.
///
/// The dense backend reports the substitution [`FlopCount`]; the sparse
/// backend additionally reports its [`LevelReport`]; the distributed
/// backend reports this rank's communication-counter delta and — for the
/// iterative inversion-based algorithm — the Section VII per-phase
/// breakdown.  The residual is attached when the request asked for it.
///
/// A trace is not part of the report: a caller that wants one runs the
/// solve under [`obs::Recorder::record`] and reads the recorder
/// (`rec.report()`), which holds that solve's spans — pool workers and
/// simulated ranks included — and nobody else's.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Name of the algorithm that ran.
    pub algorithm: &'static str,
    /// Measured flops (local count, or this rank's charged flops for
    /// distributed solves).
    pub flops: FlopCount,
    /// This rank's communication counters for the solve (distributed).
    pub comm: Option<CostCounters>,
    /// Per-phase cost breakdown (iterative inversion-based solves).
    pub phases: Option<PhaseBreakdown>,
    /// Level/barrier counts (sparse).
    pub levels: Option<LevelReport>,
    /// Relative residual, when requested.
    pub residual: Option<f64>,
}
