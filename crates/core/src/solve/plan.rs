//! The plan: the chosen algorithm, its parameters and the predicted cost.

use super::report::SolveReport;
use super::request::SolveRequest;
use crate::api::Algorithm;
use costmodel::Cost;
use dense::{FlopCount, SolveKernel, Transpose};
use std::fmt;

/// Backend-specific part of a [`SolvePlan`]: the chosen algorithm and its
/// concrete parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanBackend {
    /// Local dense solve: row substitution for one right-hand side, else
    /// GEMM panel updates between `block`-wide diagonal blocks, which are
    /// substituted through or — for a solve wide enough to pay for it —
    /// inverted and applied as triangle-aware packed products.
    Dense {
        /// `DENSE_THREADS` worker-pool size the GEMM updates may use.
        threads: usize,
        /// Width `NB` of the diagonal blocks (`dense::TRSM_BLOCK`).
        block: usize,
        /// The kernel a solve `k` right-hand sides wide runs:
        /// `dense::solve_kernel(k)`, the same function the solve decides
        /// with.  The kernels round differently, and the inverted one's
        /// residual grows with the condition number of the diagonal blocks
        /// (see `crates/dense/README.md`).
        kernel: SolveKernel,
    },
    /// Sparse executor: the sequential sweep or the level sweep.
    Sparse {
        /// Workers the executor will run with (1 = sequential sweep).
        workers: usize,
        /// Dependency levels of the schedule (0 when the pattern was never
        /// analysed; kept when the rule analysed it and stayed sequential).
        levels: usize,
        /// Contiguous runs of the schedule (`sparse::Schedule::num_runs`):
        /// what the go-parallel rule weighed.
        runs: usize,
        /// Barriers the executor will cross: `levels` under the level
        /// sweep, 0 sequentially.
        predicted_barriers: usize,
        /// Rows in the widest level (the level executor's parallelism
        /// ceiling).
        max_level_width: usize,
        /// Stored entries of the matrix.
        nnz: usize,
        /// Whether the executor runs on the cached transpose.
        via_transpose: bool,
    },
    /// Distributed algorithm on the simulated machine.
    Distributed {
        /// The resolved algorithm: the request's pin, or the planner's
        /// iterative configuration when it pinned none.
        algorithm: Algorithm,
        /// Number of simulated processors.
        p: usize,
    },
}

/// An inspectable, executable lowering of a [`SolveRequest`]: the chosen
/// algorithm, its parameters, and the predicted cost — *before* anything
/// runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvePlan {
    /// Operand dimension.
    pub n: usize,
    /// Number of right-hand sides.
    pub k: usize,
    /// The request this plan was lowered from, whole: the executors read
    /// the solve options, pins and residual flag from here.
    pub request: SolveRequest,
    /// Backend-specific algorithm choice and parameters.
    pub backend: PlanBackend,
    /// Predicted flop count (the `γ·F` term), in `dense::flops`' unit: a
    /// dense plan's `solve_flops` for the kernel it runs, a sparse plan's `SparseTri::solve_flops`,
    /// a distributed plan's most flops any rank is charged — each what its
    /// solve reports.
    pub predicted_flops: FlopCount,
    /// Predicted α–β–γ critical-path cost: distributed plans only, the walk
    /// of what the resolved algorithm runs.  A dense or sparse plan states
    /// what it knows exactly instead: its flops, and for sparse its levels,
    /// barriers and workers.
    pub predicted_cost: Option<Cost>,
}

/// The three kernels of the dense solve, by name.
pub(super) fn dense_algorithm_name(kernel: SolveKernel) -> &'static str {
    match kernel {
        SolveKernel::RowSubstitution => "dense substitution (single RHS)",
        SolveKernel::BlockedSubstitution => "dense blocked substitution",
        SolveKernel::InvertedBlocks => "dense blocked solve, inverted diagonal blocks",
    }
}

/// The two sparse executors, by name.
pub(super) fn sparse_algorithm_name(workers: usize) -> &'static str {
    if workers > 1 {
        "sparse level-scheduled parallel sweep"
    } else {
        "sparse sequential sweep"
    }
}

impl SolvePlan {
    /// Human-readable name of the algorithm this plan executes.
    pub fn algorithm_name(&self) -> &'static str {
        match &self.backend {
            PlanBackend::Dense { kernel, .. } => dense_algorithm_name(*kernel),
            PlanBackend::Sparse { workers, .. } => sparse_algorithm_name(*workers),
            PlanBackend::Distributed { algorithm, .. } => algorithm.name(),
        }
    }

    pub(super) fn report(&self, algorithm: &'static str, flops: FlopCount) -> SolveReport {
        SolveReport {
            algorithm,
            flops,
            comm: None,
            phases: None,
            levels: None,
            residual: None,
        }
    }
}

impl fmt::Display for SolvePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n = {}, k = {}, {:?} {:?}{}{})",
            self.algorithm_name(),
            self.n,
            self.k,
            self.request.opts.triangle,
            self.request.opts.diag,
            if self.request.opts.transpose == Transpose::Yes {
                ", transposed"
            } else {
                ""
            },
            match &self.backend {
                PlanBackend::Dense {
                    threads,
                    block,
                    kernel,
                } => format!(
                    ", NB = {block} ({}), {threads} worker(s)",
                    match kernel {
                        SolveKernel::RowSubstitution => "k = 1: rows substituted, no blocking",
                        SolveKernel::BlockedSubstitution => "k < NB: diagonal blocks substituted",
                        SolveKernel::InvertedBlocks => "k >= NB: diagonal blocks inverted",
                    }
                ),
                PlanBackend::Sparse {
                    workers,
                    levels,
                    runs,
                    predicted_barriers,
                    max_level_width,
                    nnz,
                    ..
                } => {
                    // Re-asks the rule with what the plan recorded, so the
                    // line is the decision's own account of itself.
                    let opts = self.request.sparse_opts();
                    let why = sparse::level_rule(opts.budget(), *nnz, self.k, opts.reuse, || {
                        (*runs, *max_level_width)
                    });
                    format!(
                        ", nnz = {nnz}, {workers} worker(s), {levels} level(s) in {runs} \
                         run(s), {predicted_barriers} barrier(s): {why}"
                    )
                }
                PlanBackend::Distributed { algorithm, p, .. } =>
                    format!(", p = {p}, {algorithm:?}"),
            }
        )
    }
}
