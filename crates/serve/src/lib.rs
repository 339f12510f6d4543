//! # `serve` — the long-lived solve service
//!
//! The repo's other crates answer *one* solve well: lower a
//! [`catrsm::SolveRequest`] into an inspectable plan, execute it, read
//! the report.  Production traffic is different — the same handful of
//! triangular factors applied thousands of times, often one right-hand
//! side at a time (iterative-solver preconditioner applies, repeated
//! back-substitutions).  This crate adds the serving layer that captures
//! the amortization the staged API only *prices*:
//!
//! * [`fingerprint`] — 64-bit content hashes of dense triangles and
//!   `SparseTri` operands (dims, triangle/diagonal, pattern, value bits;
//!   a sparse operand hashes itself once and keeps the value), combined
//!   with the request shape into the plan-cache key ([`PlanKey`]);
//! * [`cache`] — a small LRU with hit/miss/eviction accounting;
//! * [`service`] — the [`SolveService`] itself: one lock over a
//!   fingerprint-keyed LRU of lowered `Arc<SolvePlan>`s with
//!   canonical-operand pinning (repeat traffic skips `planner` lowering
//!   **and** schedule analysis), a submission queue whose flush fuses
//!   compatible single-RHS jobs into one multi-RHS execute per plan
//!   (sparse) or runs them one after another (dense), and a reusable
//!   arena so the warm path allocates nothing per request.
//!
//! Determinism contract: a cache hit returns bitwise the answer the cold
//! path would have computed, on the sparse and the dense backend alike.
//! Fusion preserves this: the sparse row kernel treats RHS columns
//! independently, and dense batch-mates never share arithmetic.
//!
//! Cache and batching behavior is observable: the service emits
//! `plan_cache_hit` / `plan_cache_miss` / `plan_cache_evict` /
//! `batch_width` counters through [`obs`], which `TraceReport` surfaces
//! as first-class fields.

pub mod cache;
pub mod fingerprint;
pub mod service;

pub use cache::LruCache;
pub use fingerprint::{fingerprint_dense, fingerprint_sparse, Fingerprint, PlanKey};
pub use service::{
    Completion, Operand, ServiceConfig, ServiceRequest, ServiceStats, SolveService, Ticket,
};
