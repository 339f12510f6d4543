//! Integration tests of the solve service: cache-hit answers must be
//! *bitwise* the cold-path answers (barriered policies and dense), repeat
//! traffic must stop planning and analyzing after warm-up, batch fusion
//! must not perturb results, and the LRU must evict under pressure while
//! staying correct.

use catrsm::SolveRequest;
use dense::Matrix;
use proptest::prelude::*;
use serve::{Operand, ServiceConfig, ServiceRequest, SolveService};
use sparse::{gen as sgen, SchedulePolicy, SparseTri};
use std::sync::Arc;

fn sparse_request(policy: Option<SchedulePolicy>) -> SolveRequest {
    let req = SolveRequest::lower().threads(4);
    match policy {
        Some(p) => req.policy(p),
        None => req,
    }
}

fn service() -> SolveService {
    SolveService::new(ServiceConfig {
        plan_cache_capacity: 16,
        admission_window: 8,
    })
}

/// One vector through the staged API directly (no service, no cache).
fn cold_sparse(req: &SolveRequest, m: &SparseTri, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    let plan = req.plan_sparse(m, 1).unwrap();
    plan.execute_sparse_in_place(m, x.as_mut_slice()).unwrap();
    x
}

/// Max |a-b| over two equal-length vectors.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache-hit solves are bitwise identical to cache-miss (cold) solves
    /// on the sparse backend, across all three scheduling policies — the
    /// two barriered policies exactly, sync-free within its documented
    /// 1e-12 two-tier tolerance (it is bitwise per fixed worker count,
    /// which the single-RHS service path preserves, but the contract we
    /// promise is the tolerance).
    #[test]
    fn sparse_cache_hit_matches_cold_path(
        n in 60usize..220,
        fill in 1usize..5,
        seed in 0u64..500,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            None,
            Some(SchedulePolicy::Level),
            Some(SchedulePolicy::Merged),
            Some(SchedulePolicy::SyncFree),
        ][policy_idx];
        let req = sparse_request(policy);
        let b = sgen::rhs_vec(n, seed ^ 0x51);

        // Cold path: a fresh matrix, solved directly through the staged
        // API (no service, no cache).
        let cold_mat = sgen::random_lower(n, fill, seed);
        let cold = cold_sparse(&req, &cold_mat, &b);

        // Service path: warm the cache with one build of the matrix, then
        // hit it with an independently rebuilt (content-identical) one.
        let svc = service();
        let warm = svc
            .solve_vec(&req, &Operand::Sparse(Arc::new(sgen::random_lower(n, fill, seed))), &b)
            .unwrap()
            .x;
        let hit = svc
            .solve_vec(&req, &Operand::Sparse(Arc::new(sgen::random_lower(n, fill, seed))), &b)
            .unwrap()
            .x;
        prop_assert_eq!(svc.stats().hits, 1);
        prop_assert_eq!(svc.stats().misses, 1);

        if policy == Some(SchedulePolicy::SyncFree) {
            prop_assert!(max_abs_diff(&hit, &cold) < 1e-12);
            prop_assert!(max_abs_diff(&warm, &cold) < 1e-12);
        } else {
            prop_assert_eq!(&hit, &cold, "cache hit must be bitwise the cold answer");
            prop_assert_eq!(&warm, &cold, "cache miss through the service must also match");
        }
    }

    /// Same property on the dense backend (single- and multi-RHS paths).
    #[test]
    fn dense_cache_hit_matches_cold_path(
        nb in 8usize..60,
        seed in 0u64..500,
        k in 1usize..6,
    ) {
        let n = nb * 2;
        let req = SolveRequest::lower();
        let l = dense::gen::well_conditioned_lower(n, seed);
        let b = dense::gen::rhs(n, k, seed ^ 0x7e);
        let cold = req.solve_dense(&l, &b).unwrap().x;

        let svc = service();
        let op = Operand::Dense(Arc::new(l.clone()));
        let warm = svc.solve(&req, &op, &b).unwrap().x;
        // A rebuilt operand object with identical content must hit.
        let rebuilt = Operand::Dense(Arc::new(l.clone()));
        let hit = svc.solve(&req, &rebuilt, &b).unwrap().x;
        prop_assert_eq!(svc.stats().hits, 1);
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!(&hit, &cold);
    }

    /// Fused batched execution returns bitwise the same answers as
    /// solving each submission alone (barriered policies; each RHS column
    /// is eliminated independently inside the row kernel).
    #[test]
    fn fused_batches_match_individual_solves(
        n in 80usize..200,
        fill in 1usize..4,
        seed in 0u64..300,
        width in 2usize..8,
        merged in prop::bool::ANY,
    ) {
        let policy = if merged { SchedulePolicy::Merged } else { SchedulePolicy::Level };
        let req = sparse_request(Some(policy));
        let mat = Arc::new(sgen::random_lower(n, fill, seed));
        let svc = service();

        let mut tickets = Vec::new();
        let mut want = Vec::new();
        for j in 0..width {
            let rhs = sgen::rhs_vec(n, seed ^ (j as u64 + 1));
            want.push(cold_sparse(&req, &mat, &rhs));
            tickets.push(
                svc.submit(ServiceRequest {
                    request: req,
                    operand: Operand::Sparse(Arc::clone(&mat)),
                    rhs,
                })
                .unwrap(),
            );
        }
        let done = svc.flush();
        prop_assert_eq!(done.len(), width);
        for (c, w) in done.iter().zip(&want) {
            prop_assert!(c.result.is_ok());
            prop_assert_eq!(&c.x, w, "fused answer must be bitwise the solo answer");
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.batches, 1);
        prop_assert_eq!(stats.fused_requests, width as u64);
        prop_assert_eq!(stats.errors, 0);
        let _ = tickets;
    }
}

/// After warm-up, repeat traffic (content-identical rebuilt matrices)
/// performs zero plan builds and zero schedule analyses: the acceptance
/// invariant of the serving layer.
#[test]
fn repeat_traffic_keeps_planning_and_analysis_flat() {
    let n = 300;
    let req = sparse_request(None);
    let svc = service();
    let canonical = Arc::new(sgen::random_lower(n, 4, 11));
    let b = sgen::rhs_vec(n, 99);

    // Warm-up: one miss, which plans and (lazily, at execute) analyzes.
    let warm = svc
        .solve_vec(&req, &Operand::Sparse(Arc::clone(&canonical)), &b)
        .unwrap()
        .x;
    let plans_after_warmup = svc.stats().plan_builds;
    let analyses_after_warmup = canonical.analysis_count();
    let merged_after_warmup = canonical.merged_analysis_count();

    // Steady state: 50 requests, every one a *fresh* matrix object with
    // the same content, through both the immediate and the batched path.
    let mut fresh_mats = Vec::new();
    for i in 0..50 {
        let fresh = Arc::new(sgen::random_lower(n, 4, 11));
        let x = if i % 2 == 0 {
            svc.solve_vec(&req, &Operand::Sparse(Arc::clone(&fresh)), &b)
                .unwrap()
                .x
        } else {
            let t = svc
                .submit(ServiceRequest {
                    request: req,
                    operand: Operand::Sparse(Arc::clone(&fresh)),
                    rhs: b.clone(),
                })
                .unwrap();
            let done = svc.flush();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].ticket, t);
            done[0].x.clone()
        };
        assert_eq!(x, warm, "steady-state answers must stay bitwise stable");
        fresh_mats.push(fresh);
    }

    assert_eq!(
        svc.stats().plan_builds,
        plans_after_warmup,
        "steady state must not lower any new plans"
    );
    assert_eq!(
        canonical.analysis_count(),
        analyses_after_warmup,
        "steady state must not re-run the level analysis"
    );
    assert_eq!(
        canonical.merged_analysis_count(),
        merged_after_warmup,
        "steady state must not re-run the merge analysis"
    );
    // The rebuilt matrices were never analyzed at all: the service
    // executed every hit against the canonical operand.
    for fresh in &fresh_mats {
        assert_eq!(fresh.analysis_count(), 0);
        assert_eq!(fresh.merged_analysis_count(), 0);
    }
    let stats = svc.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 50);
    assert_eq!(stats.plan_builds, 1);
    assert_eq!(stats.errors, 0);
}

/// LRU pressure through the service: a capacity-2 cache cycling three
/// matrices evicts, rebuilds on re-miss, and stays correct throughout.
#[test]
fn eviction_under_pressure_stays_correct() {
    let n = 120;
    let req = sparse_request(Some(SchedulePolicy::Level));
    let svc = SolveService::new(ServiceConfig {
        plan_cache_capacity: 2,
        admission_window: 4,
    });
    let mats: Vec<Arc<SparseTri>> = (0..3)
        .map(|s| Arc::new(sgen::random_lower(n, 3, 40 + s)))
        .collect();
    let b = sgen::rhs_vec(n, 7);
    let want: Vec<Vec<f64>> = mats.iter().map(|m| cold_sparse(&req, m, &b)).collect();

    for round in 0..4 {
        for (m, w) in mats.iter().zip(&want) {
            let x = svc
                .solve_vec(&req, &Operand::Sparse(Arc::clone(m)), &b)
                .unwrap()
                .x;
            assert_eq!(&x, w, "round {round}: eviction must not corrupt answers");
        }
    }
    let stats = svc.stats();
    assert!(
        stats.evictions > 0,
        "three keys through a capacity-2 LRU must evict"
    );
    assert!(svc.cached_plans() <= 2);
    assert_eq!(stats.errors, 0);
}

/// One service, many client threads: concurrent immediate solves share
/// the cached plan and the canonical operand's single analysis, and all
/// agree bitwise (barriered policy).
#[test]
fn concurrent_clients_share_one_cached_plan() {
    let n = 400;
    let req = sparse_request(Some(SchedulePolicy::Merged));
    let svc = Arc::new(service());
    let canonical = Arc::new(sgen::random_lower(n, 5, 77));
    let b = sgen::rhs_vec(n, 13);

    // Warm once so every thread hits.
    let want = svc
        .solve_vec(&req, &Operand::Sparse(Arc::clone(&canonical)), &b)
        .unwrap()
        .x;

    let mut handles = Vec::new();
    for _ in 0..4 {
        let svc = Arc::clone(&svc);
        let b = b.clone();
        let fresh = Arc::new(sgen::random_lower(n, 5, 77));
        handles.push(std::thread::spawn(move || {
            let mut xs = Vec::new();
            for _ in 0..8 {
                xs.push(
                    svc.solve_vec(&req, &Operand::Sparse(Arc::clone(&fresh)), &b)
                        .unwrap()
                        .x,
                );
            }
            xs
        }));
    }
    for h in handles {
        for x in h.join().unwrap() {
            assert_eq!(x, want, "every concurrent hit must be bitwise stable");
        }
    }
    assert_eq!(canonical.analysis_count(), 1);
    assert_eq!(canonical.merged_analysis_count(), 1);
    let stats = svc.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 32);
    assert_eq!(stats.errors, 0);
}

/// Dense single-RHS jobs with the same key run side by side on the
/// worker pool and still answer bitwise like solo solves; jobs with
/// different keys in one window batch separately.
#[test]
fn dense_side_by_side_batching_matches_solo() {
    let n = 64;
    let req = SolveRequest::lower();
    let svc = service();
    let l = Arc::new(dense::gen::well_conditioned_lower(n, 5));
    let u_req = SolveRequest::upper();
    let u = Arc::new(dense::gen::well_conditioned_lower(n, 6).transpose());

    let mut want = Vec::new();
    for j in 0..6 {
        let rhs: Vec<f64> = sgen::rhs_vec(n, 100 + j);
        let (r, m): (&SolveRequest, &Arc<Matrix>) =
            if j % 2 == 0 { (&req, &l) } else { (&u_req, &u) };
        let mut solo = rhs.clone();
        r.plan_dense(n, 1)
            .unwrap()
            .execute_dense_vec_in_place(m, &mut solo)
            .unwrap();
        want.push(solo);
        svc.submit(ServiceRequest {
            request: *r,
            operand: Operand::Dense(Arc::clone(m)),
            rhs,
        })
        .unwrap();
    }
    let done = svc.flush();
    assert_eq!(done.len(), 6);
    for (c, w) in done.iter().zip(&want) {
        assert!(c.result.is_ok());
        assert_eq!(&c.x, w);
    }
    let stats = svc.stats();
    assert_eq!(stats.errors, 0);
    // Two keys → two fused groups of width 3.
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.max_batch_width, 3);
}

/// Residual-requesting jobs are not fused (their B must be preserved) but
/// still ride the cached plan and report a residual.
#[test]
fn residual_jobs_execute_individually() {
    let n = 90;
    let req = sparse_request(Some(SchedulePolicy::Level)).with_residual();
    let svc = service();
    let mat = Arc::new(sgen::random_lower(n, 3, 21));
    for j in 0..3 {
        svc.submit(ServiceRequest {
            request: req,
            operand: Operand::Sparse(Arc::clone(&mat)),
            rhs: sgen::rhs_vec(n, 200 + j),
        })
        .unwrap();
    }
    let done = svc.flush();
    assert_eq!(done.len(), 3);
    for c in &done {
        let report = c.result.as_ref().unwrap();
        let resid = report.residual.expect("requested residual");
        assert!(resid < 1e-10, "residual {resid} too large");
    }
    // No fusion happened: residual jobs run alone.
    assert_eq!(svc.stats().batches, 0);
}

/// The cache key holds the whole request: a request that asks for a
/// residual never rides a plan cached for one that did not (it would come
/// back without its residual), nor the other way round.
#[test]
fn residual_request_hits_a_plan_cached_without_residual() {
    let n = 90;
    let plain = sparse_request(Some(SchedulePolicy::Level));
    let mat = Operand::Sparse(Arc::new(sgen::random_lower(n, 3, 21)));
    let b = sgen::rhs_vec(n, 200);
    for (first, second) in [
        (plain, plain.with_residual()),
        (plain.with_residual(), plain),
    ] {
        let svc = service();
        let one = svc.solve_vec(&first, &mat, &b).unwrap();
        let two = svc.solve_vec(&second, &mat, &b).unwrap();
        assert_eq!(one.x, two.x);
        for (req, sol) in [(first, one), (second, two)] {
            assert_eq!(sol.report.residual.is_some(), req.wants_residual());
        }
    }
}

/// Submitting a wrong-length RHS fails at submit time, not at flush.
#[test]
fn bad_rhs_rejected_at_submit() {
    let svc = service();
    let mat = Arc::new(sgen::random_lower(32, 2, 3));
    let err = svc.submit(ServiceRequest {
        request: SolveRequest::lower(),
        operand: Operand::Sparse(mat),
        rhs: vec![1.0; 31],
    });
    assert!(err.is_err());
    assert_eq!(svc.queue_depth(), 0);
}

/// A request-shape mismatch (upper request, lower matrix) errors on the
/// cold path and is not cached.
#[test]
fn shape_mismatch_is_not_cached() {
    let svc = service();
    let mat = Arc::new(sgen::random_lower(32, 2, 3));
    let req = SolveRequest::upper();
    let b = sgen::rhs_vec(32, 4);
    assert!(svc
        .solve_vec(&req, &Operand::Sparse(Arc::clone(&mat)), &b)
        .is_err());
    assert_eq!(svc.cached_plans(), 0);
}
