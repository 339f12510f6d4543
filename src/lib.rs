//! Umbrella crate for the communication-avoiding TRSM reproduction.
//!
//! This crate only exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the actual functionality lives
//! in the workspace crates, re-exported here for convenience:
//!
//! * [`obs`] — the solver-wide tracing and metrics layer (span recorder,
//!   Chrome-trace exporter, aggregated `TraceReport`s),
//! * [`dense`] — local dense kernels (the BLAS substitute),
//! * [`sparse`] — level-scheduled parallel sparse triangular solves
//!   (CSR storage, dependency-DAG analysis, multi-RHS executors),
//! * [`simnet`] — the simulated distributed-memory machine (the MPI
//!   substitute) with α–β–γ cost accounting,
//! * [`pgrid`] — processor grids, cyclic layouts and distributed matrices,
//! * [`costmodel`] — the paper's analytic cost model and parameter tuning,
//! * [`catrsm`] — the paper's algorithms: 3D matrix multiplication,
//!   recursive TRSM, distributed triangular inversion, the block-diagonal
//!   inverter, the iterative inversion-based TRSM, and the Cholesky/LU
//!   applications,
//! * [`serve`] — the long-lived solve service: a fingerprint-keyed plan
//!   cache with canonical-operand pinning plus a batching engine that
//!   fuses compatible single-RHS requests.

pub use catrsm;
pub use costmodel;
pub use dense;
pub use obs;
pub use pgrid;
pub use serve;
pub use simnet;
pub use sparse;

/// Convenience prelude for the examples and integration tests.
///
/// The primary solver surface is the staged API re-exported here:
/// [`SolveRequest`](catrsm::SolveRequest) →
/// [`SolvePlan`](catrsm::SolvePlan) → [`Solution`](catrsm::Solution).
pub mod prelude {
    pub use catrsm::api::Algorithm;
    pub use catrsm::it_inv_trsm::{it_inv_trsm, ItInvConfig};
    pub use catrsm::rec_trsm::rec_trsm;
    pub use catrsm::{LevelReport, PlanBackend, Solution, SolvePlan, SolveReport, SolveRequest};
    pub use dense::{gen, Diag, Matrix, Side, Transpose, Triangle};
    pub use pgrid::{DistMatrix, Grid2D};
    pub use serve::{Operand, ServiceConfig, ServiceRequest, SolveService};
    pub use simnet::{coll, Machine, MachineParams};
    pub use sparse::{Schedule, SparseTri};
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // A smoke test that the re-exported crates are usable together.
        let plan = costmodel::CostModelRev::Ipdps17.plan(1024, 256, 64);
        assert!(plan.p1 >= 1.0);
        let m = dense::Matrix::identity(3);
        assert_eq!(m[(2, 2)], 1.0);
    }
}
