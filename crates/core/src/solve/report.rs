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

impl SolveReport {
    /// Message retransmissions this rank performed during a distributed
    /// solve under an active fault plan (0 otherwise).
    pub fn retries(&self) -> u64 {
        self.comm.map_or(0, |c| c.retries)
    }

    /// Injected message drops this rank's sends absorbed (each one costs a
    /// retry; 0 without a fault plan).
    pub fn dropped(&self) -> u64 {
        self.comm.map_or(0, |c| c.dropped)
    }

    /// Duplicate deliveries this rank injected (suppressed by receive-side
    /// dedup; 0 without a fault plan).
    pub fn duplicates(&self) -> u64 {
        self.comm.map_or(0, |c| c.duplicates)
    }

    /// Sends that exhausted the retry budget on this rank — each one also
    /// surfaced as a [`simnet::SimError::Timeout`] through the solve's
    /// `Result` (0 on a successful solve).
    pub fn timeouts(&self) -> u64 {
        self.comm.map_or(0, |c| c.timeouts)
    }

    /// Virtual seconds of local compute this rank performed *under* a
    /// posted send during a distributed solve — the communication the
    /// machine's overlap model hid.  Nonzero only when the machine ran
    /// with [`simnet::MachineParams::with_overlap`]; always 0 under the
    /// default blocking-send timing.
    pub fn overlap_seconds(&self) -> f64 {
        self.comm.as_ref().map_or(0.0, |c| c.overlap)
    }
}
