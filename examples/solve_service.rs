//! Solve-service quickstart: stand up a long-lived `SolveService`, watch
//! the plan cache amortize planning and schedule analysis across repeat
//! traffic, and fuse a burst of single-RHS submissions into one batched
//! execute.
//!
//! ```text
//! cargo run --release --example solve_service
//! ```

use catrsm_suite::prelude::*;
use std::sync::Arc;

fn main() {
    let n = 2_000;
    let svc = SolveService::new(ServiceConfig::default());
    let request = SolveRequest::lower().threads(4);

    // A sparse lower-triangular factor — think "the L of an incomplete
    // factorization that a preconditioner applies thousands of times".
    let factor = Arc::new(sparse::gen::random_lower(n, 6, 42));
    let b = sparse::gen::rhs_vec(n, 7);

    println!("solve-service quickstart (n = {n})");

    // --- Immediate path: miss once, hit forever. -------------------------
    let builds_before = svc.stats().plan_builds;
    let cold = svc
        .solve_vec(&request, &Operand::Sparse(Arc::clone(&factor)), &b)
        .expect("cold solve");
    println!(
        "  cold request:   planned (plan builds {} -> {}), analyzed \
         (analysis_count = {})",
        builds_before,
        svc.stats().plan_builds,
        factor.analysis_count()
    );

    // Clients often rebuild content-identical operands; the fingerprint
    // sees through the fresh allocation.
    let rebuilt = Arc::new(sparse::gen::random_lower(n, 6, 42));
    let hit = svc
        .solve_vec(&request, &Operand::Sparse(Arc::clone(&rebuilt)), &b)
        .expect("warm solve");
    assert_eq!(hit.x, cold.x, "a cache hit is bitwise the cold answer");
    println!(
        "  warm request:   cache hit, no new plan (builds still {}), the \
         rebuilt operand was never analyzed (analysis_count = {}), answer \
         bitwise identical",
        svc.stats().plan_builds,
        rebuilt.analysis_count()
    );

    // --- Batched path: submit a burst, flush once. -----------------------
    let width = 8;
    for j in 0..width {
        let rhs = sparse::gen::rhs_vec(n, 100 + j);
        svc.submit(ServiceRequest {
            request,
            operand: Operand::Sparse(Arc::clone(&factor)),
            rhs,
        })
        .expect("submit");
    }
    println!(
        "  submitted:      {width} single-RHS jobs (queue depth {})",
        svc.queue_depth()
    );
    let completions = svc.flush();
    assert!(completions.iter().all(|c| c.result.is_ok()));
    println!(
        "  flushed:        {} completions in ticket order, fused into one \
         {width}-wide multi-RHS execute",
        completions.len()
    );

    let stats = svc.stats();
    println!(
        "  service stats:  hits = {}, misses = {}, hit ratio = {:.2}, plan \
         builds = {}, batches = {}, fused requests = {}, max width = {}",
        stats.hits,
        stats.misses,
        stats.hit_ratio(),
        stats.plan_builds,
        stats.batches,
        stats.fused_requests,
        stats.max_batch_width
    );
    assert_eq!(stats.misses, 1, "one fingerprint, one miss");
    assert_eq!(stats.plan_builds, 1);
    assert_eq!(factor.analysis_count(), 1, "analyzed exactly once, ever");
}
