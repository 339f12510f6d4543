//! The distributed leg of the solve-service cache tests.  A distributed
//! plan depends only on the shape `(n, k, p)` and the request options, so
//! the service can cache it without an operand fingerprint; executing the
//! cached `Arc<SolvePlan>` inside the simulated machine must be bitwise
//! the solve a freshly lowered plan performs.

use catrsm_suite::prelude::*;
use std::sync::Arc;

#[test]
fn cached_distributed_plan_executes_bitwise_like_fresh() {
    let n = 96;
    let k = 24;
    let p = 4;
    let svc = SolveService::new(ServiceConfig::default());
    let req = SolveRequest::lower();

    let cold: Arc<SolvePlan> = svc.plan_distributed(&req, n, k, p).unwrap();
    assert_eq!(svc.stats().plan_builds, 1, "cold path must lower");

    // Same shape again: a cache hit, same plan object, zero new builds.
    let hit = svc.plan_distributed(&req, n, k, p).unwrap();
    assert!(Arc::ptr_eq(&cold, &hit), "hit must return the cached plan");
    let stats = svc.stats();
    assert_eq!(stats.plan_builds, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);

    // A different shape is a different key.
    let other = svc.plan_distributed(&req, n, k + 1, p).unwrap();
    assert!(!Arc::ptr_eq(&cold, &other));
    assert_eq!(svc.stats().misses, 2);

    // Execute the cached plan and a freshly lowered one inside the
    // machine: bitwise-identical solutions, and correct ones.
    let cached = Arc::clone(&hit);
    let out = Machine::new(p, MachineParams::unit())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let l_global = gen::well_conditioned_lower(n, 901);
            let x_true = gen::rhs(n, k, 902);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            let fresh_plan = SolveRequest::lower()
                .plan_distributed(n, k, comm.size())
                .unwrap();
            let fresh = fresh_plan.execute_distributed(&l, &b).unwrap();
            let served = cached.execute_distributed(&l, &b).unwrap();
            (
                served.x.rel_diff(&fresh.x).unwrap(),
                dense::norms::rel_diff(&served.x.to_global(), &x_true),
            )
        })
        .unwrap();
    for (vs_fresh, vs_true) in out.results {
        assert_eq!(vs_fresh, 0.0, "cached plan must run the identical solve");
        assert!(vs_true < 1e-8);
    }
}

#[test]
fn distributed_plans_share_the_cache_with_local_plans() {
    // Distributed pseudo-fingerprints must not collide with dense/sparse
    // keys: fill the cache with a mix and check every entry survives.
    // Capacity 64 is eight slots in each of the eight shards, so the three
    // keys fit wherever their hashes happen to place them.
    let svc = SolveService::new(ServiceConfig {
        plan_cache_capacity: 64,
        admission_window: 4,
    });
    let req = SolveRequest::lower();
    svc.plan_distributed(&req, 64, 16, 4).unwrap();
    svc.plan_distributed(&req, 64, 16, 16).unwrap();

    let m = Arc::new(sparse::gen::random_lower(64, 3, 5));
    let b = sparse::gen::rhs_vec(64, 6);
    svc.solve_vec(&req, &Operand::Sparse(Arc::clone(&m)), &b)
        .unwrap();

    assert_eq!(svc.cached_plans(), 3);
    // Re-requesting each is a hit, not a collision-miss.
    svc.plan_distributed(&req, 64, 16, 4).unwrap();
    svc.plan_distributed(&req, 64, 16, 16).unwrap();
    svc.solve_vec(&req, &Operand::Sparse(m), &b).unwrap();
    let stats = svc.stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 3);
}
