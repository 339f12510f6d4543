//! Integration tests of the solve service: cache-hit answers must be
//! *bitwise* the cold-path answers (sparse and dense), repeat
//! traffic must stop planning and analyzing after warm-up, batch fusion
//! must not perturb results, and the LRU must evict under pressure while
//! staying correct.

use catrsm::SolveRequest;
use dense::{Diag, Matrix, Triangle};
use proptest::prelude::*;
use serve::{
    fingerprint_sparse, Operand, PlanKey, ServiceConfig, ServiceRequest, ServiceStats, SolveService,
};
use sparse::{gen as sgen, SparseTri};
use std::sync::Arc;

fn sparse_request() -> SolveRequest {
    SolveRequest::lower().threads(4)
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

/// Every stored entry of `m`, diagonal included, as `(row, col, value)`.
fn triplets(m: &SparseTri) -> Vec<(usize, usize, f64)> {
    (0..m.n())
        .flat_map(|i| {
            let (cols, vals) = m.row_entries(i);
            let off_diagonal = cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v));
            off_diagonal.chain([(i, i, m.diag_value(i))])
        })
        .collect()
}

fn lower_from(n: usize, entries: &[(usize, usize, f64)]) -> SparseTri {
    SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, entries)
        .expect("the perturbed matrix is still a valid factor")
}

/// The fingerprint as a contract, through the public constructors: one
/// matrix however it is assembled has one fingerprint, and every change to
/// what a solve reads — one bit of one value, of the diagonal, of a column
/// index, one entry moved to the next row, the sign of a zero — changes it.
/// `pick` chooses where to perturb.
fn assert_fingerprint_contract(n: usize, fill: usize, seed: u64, pick: usize) {
    let base = sgen::random_lower(n, fill, seed);
    let fp = fingerprint_sparse(&base);
    let entries = triplets(&base);
    assert_eq!(fingerprint_sparse(&lower_from(n, &entries)), fp);

    // The same content as raw CSR with the diagonal inline: `triplets`
    // yields row-major order with each lower row's diagonal last, so row i
    // starts after the i diagonals before it.
    let row_ptr: Vec<usize> = (0..=n).map(|i| base.row_ptr()[i] + i).collect();
    let cols: Vec<usize> = entries.iter().map(|e| e.1).collect();
    let vals: Vec<f64> = entries.iter().map(|e| e.2).collect();
    let from_csr =
        SparseTri::from_csr(n, Triangle::Lower, Diag::NonUnit, &row_ptr, &cols, &vals).unwrap();
    assert_eq!(fingerprint_sparse(&from_csr), fp);

    let perturbed = |at: usize, entry: (usize, usize, f64)| {
        let mut changed = entries.clone();
        changed[at] = entry;
        fingerprint_sparse(&lower_from(n, &changed))
    };
    // Flips that keep a value finite and a pivot's magnitude: the sign bit
    // or a mantissa bit.
    let bit = [63, pick % 52][pick % 2];
    let flip = |v: f64| f64::from_bits(v.to_bits() ^ (1 << bit));
    // The first entry at or after `pick` (cyclically) that `wanted` accepts.
    let first = |wanted: &dyn Fn(usize, usize) -> bool| {
        (0..entries.len())
            .map(|o| (pick + o) % entries.len())
            .find(|&at| wanted(entries[at].0, entries[at].1))
    };

    let at = first(&|i, j| i == j).expect("every row has a diagonal entry");
    let (i, j, d) = entries[at];
    assert_ne!(
        perturbed(at, (i, j, flip(d))),
        fp,
        "diagonal ({i},{i}) bit {bit}"
    );

    // n = 1 has no off-diagonal entries to perturb.
    let Some(at) = first(&|i, j| i != j) else {
        return;
    };
    let (i, j, v) = entries[at];
    assert_ne!(
        perturbed(at, (i, j, flip(v))),
        fp,
        "value ({i},{j}) bit {bit}"
    );
    assert_ne!(
        perturbed(at, (i, j, 0.0)),
        perturbed(at, (i, j, -0.0)),
        "the sign of a zero at ({i},{j})"
    );

    // One bit of one column index, where that names a free column of the
    // same row.
    let in_row = |i: usize, j: usize| base.row_entries(i).0.contains(&j);
    let index_flip = (0..usize::BITS)
        .map(|b| j ^ (1 << b))
        .find(|&other| other < i && !in_row(i, other));
    if let Some(other) = index_flip {
        assert_ne!(
            perturbed(at, (i, other, v)),
            fp,
            "column {j} -> {other} in row {i}"
        );
    }

    // Empty row i + 1, then move the last entry of row i down into it:
    // `col_idx` and `values` read the same either way, and only `row_ptr`
    // tells the two matrices apart.
    let movable = first(&|i, j| i != j && i + 1 < n && base.row_entries(i).0.last() == Some(&j));
    if let Some(at) = movable {
        let (i, j, v) = entries[at];
        let above: Vec<_> = entries
            .iter()
            .copied()
            .filter(|&(r, c, _)| r != i + 1 || c == r)
            .collect();
        let mut below = above.clone();
        let at = below
            .iter()
            .position(|&(r, c, _)| (r, c) == (i, j))
            .expect("row i was kept whole");
        below[at] = (i + 1, j, v);
        let (above, below) = (lower_from(n, &above), lower_from(n, &below));
        assert_eq!(above.col_idx(), below.col_idx());
        assert_eq!(above.values(), below.values());
        assert_ne!(above.row_ptr(), below.row_ptr());
        assert_ne!(
            fingerprint_sparse(&above),
            fingerprint_sparse(&below),
            "entry ({i},{j}) moved down a row"
        );
    }
}

/// The contract at the benchmark's scale, where the bulk lane loop does
/// nearly all the hashing.
#[test]
fn fingerprint_contract_holds_on_a_large_factor() {
    for pick in [0, 4099, 17_321] {
        assert_fingerprint_contract(1536, 8, 5, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The contract on small factors: n in 1..=40 takes the four hashed
    /// arrays through every tail length of the lane loop.
    #[test]
    fn fingerprint_is_a_content_contract(
        n in 1usize..=40,
        fill in 1usize..5,
        seed in 0u64..500,
        pick in 0usize..10_000,
    ) {
        assert_fingerprint_contract(n, fill, seed, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache-hit solves are bitwise identical to cache-miss (cold) solves
    /// on the sparse backend.
    #[test]
    fn sparse_cache_hit_matches_cold_path(
        n in 60usize..220,
        fill in 1usize..5,
        seed in 0u64..500,
    ) {
        let req = sparse_request();
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

        prop_assert_eq!(&hit, &cold, "cache hit must be bitwise the cold answer");
        prop_assert_eq!(&warm, &cold, "cache miss through the service must also match");
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
    /// solving each submission alone (each RHS column is eliminated
    /// independently inside the row kernel).
    #[test]
    fn fused_batches_match_individual_solves(
        n in 80usize..200,
        fill in 1usize..4,
        seed in 0u64..300,
        width in 2usize..8,
    ) {
        let req = sparse_request();
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
    // Levels of 8 192 rows clear the go-parallel rule, so the warm-up
    // analyzes and every apply is a 4-worker level sweep.
    let build = || Arc::new(sgen::deep_narrow_lower(40_000, 8192, 6, 11));
    let req = sparse_request();
    let svc = service();
    let canonical = build();
    let b = sgen::rhs_vec(canonical.n(), 99);

    // Warm-up: one miss, which plans and (lazily, at execute) analyzes.
    let warm = svc
        .solve_vec(&req, &Operand::Sparse(Arc::clone(&canonical)), &b)
        .unwrap()
        .x;
    let plans_after_warmup = svc.stats().plan_builds;
    assert_eq!(canonical.analysis_count(), 1);

    // Steady state: 50 requests, every one a *fresh* matrix object with
    // the same content, through both the immediate and the batched path.
    let mut fresh_mats = Vec::new();
    for i in 0..50 {
        let fresh = build();
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
        1,
        "steady state must not re-run the level analysis"
    );
    // The rebuilt matrices were never analyzed at all: the service
    // executed every hit against the canonical operand.
    for fresh in &fresh_mats {
        assert_eq!(fresh.analysis_count(), 0);
    }
    let stats = svc.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 50);
    assert_eq!(stats.plan_builds, 1);
    assert_eq!(stats.errors, 0);
}

/// One operand object submitted `N` times plans once and hits `N − 1`
/// times, hashing its content on the first submit only; a content-equal
/// twin built from scratch has the same key, so it hits too.
#[test]
fn one_object_plans_once_and_its_rebuilt_twin_shares_its_key() {
    const N: u64 = 12;
    let req = sparse_request();
    let svc = service();
    let a = Arc::new(sgen::random_lower(300, 4, 21));
    let b = sgen::rhs_vec(a.n(), 3);
    let want = cold_sparse(&req, &a, &b);
    for _ in 0..N {
        svc.submit(ServiceRequest {
            request: req,
            operand: Operand::Sparse(Arc::clone(&a)),
            rhs: b.clone(),
        })
        .unwrap();
    }
    for done in svc.flush() {
        assert_eq!(done.x, want);
    }
    let stats = svc.stats();
    assert_eq!((stats.plan_builds, stats.misses, stats.hits), (1, 1, N - 1));

    let twin = Arc::new(sgen::random_lower(300, 4, 21));
    let key = |m: &SparseTri| PlanKey::new(fingerprint_sparse(m), m.n(), m.nnz(), &req);
    assert_eq!(key(&twin), key(&a));
    let x = svc.solve_vec(&req, &Operand::Sparse(twin), &b).unwrap().x;
    assert_eq!(x, want);
    let stats = svc.stats();
    assert_eq!((stats.plan_builds, stats.hits), (1, N));
}

/// A closed hot set of eight factors (n = 256) under a stream of
/// `requests` submissions flushed every `window`: every `cold_every`-th
/// request presents a never-seen factor instead (`None`: pure hot).
/// Asserts the invariants that hold on any machine — the timing side of
/// this workload is `perfbench`'s `serve_hot90`.
fn assert_traffic_mix_invariants(requests: usize, cold_every: Option<usize>, window: usize) {
    const HOT: usize = 8;
    let (n, fill, seed) = (256, 4, 0x10ad_u64);
    let req = SolveRequest::lower();
    let svc = SolveService::new(ServiceConfig {
        // The whole key population fits: this measures amortisation, not
        // eviction churn.
        plan_cache_capacity: requests + HOT,
        admission_window: window,
    });
    let hot: Vec<Arc<SparseTri>> = (0..HOT)
        .map(|i| Arc::new(sgen::random_lower(n, fill, seed ^ ((i as u64) << 8))))
        .collect();
    for m in &hot {
        svc.solve_vec(
            &req,
            &Operand::Sparse(Arc::clone(m)),
            &sgen::rhs_vec(n, seed),
        )
        .expect("warm-up solve");
    }
    let builds_after_warmup = svc.stats().plan_builds;

    let mut cold = 0;
    for i in 0..requests {
        let operand = if cold_every.is_some_and(|c| i % c == c - 1) {
            cold += 1;
            Arc::new(sgen::random_lower(n, fill, seed + 0xF4E5 + cold as u64))
        } else {
            Arc::clone(&hot[i % HOT])
        };
        svc.submit(ServiceRequest {
            request: req,
            operand: Operand::Sparse(operand),
            rhs: sgen::rhs_vec(n, seed ^ i as u64),
        })
        .expect("submit");
        if svc.queue_depth() >= window || i + 1 == requests {
            assert!(svc.flush().iter().all(|done| done.result.is_ok()));
        }
    }

    let stats = svc.stats();
    assert_eq!(stats.errors, 0);
    assert!(
        stats.max_queue_depth <= window as u64,
        "queue outgrew the window"
    );
    assert!(
        stats.plan_builds <= (HOT + cold) as u64,
        "{} plan builds for {} distinct keys: the cache failed to amortise",
        stats.plan_builds,
        HOT + cold
    );
    assert!(stats.hits + stats.misses >= requests as u64);
    // Steady state plans the never-seen factors and nothing else.
    assert_eq!(stats.plan_builds - builds_after_warmup, cold as u64);
    let target = 1.0 - cold_every.map_or(0.0, |c| 1.0 / c as f64);
    if target >= 0.8 {
        // Approximate by construction, but a 0.9 stream collapsing below
        // 0.6 means the fingerprint path is broken.
        assert!(
            stats.hit_ratio() >= target - 0.3,
            "hit ratio {}",
            stats.hit_ratio()
        );
    }
}

#[test]
fn hot_traffic_amortises_planning() {
    assert_traffic_mix_invariants(2000, Some(10), 16);
}

#[test]
fn mixed_traffic_through_a_small_window_amortises_planning() {
    assert_traffic_mix_invariants(1000, Some(2), 4);
}

#[test]
fn pure_hot_traffic_plans_nothing_after_warmup() {
    assert_traffic_mix_invariants(1000, None, 16);
}

/// The small shape the suite uses elsewhere, and the benchmark's
/// (`serve_hot90`: n = 4096, fill 8).  A hit runs on the *cached* operand,
/// not the submitted one, so these tests are only as strong as the key at
/// the sizes they present.
const SHAPES: [(usize, usize); 2] = [(120, 3), (4096, 8)];

/// LRU pressure through the service: a capacity-2 cache cycling three
/// matrices evicts, rebuilds on re-miss, and stays correct throughout.
#[test]
fn eviction_under_pressure_stays_correct() {
    let req = sparse_request();
    for (n, fill) in SHAPES {
        let svc = SolveService::new(ServiceConfig {
            plan_cache_capacity: 2,
            admission_window: 4,
        });
        let build = |s: u64| Arc::new(sgen::random_lower(n, fill, 40 + s));
        let b = sgen::rhs_vec(n, 7);
        let want: Vec<Vec<f64>> = (0..3).map(|s| cold_sparse(&req, &build(s), &b)).collect();

        for round in 0..4 {
            for (s, w) in want.iter().enumerate() {
                // A rebuilt object every time: whatever the cache still
                // holds answers for it by content alone.
                let x = svc
                    .solve_vec(&req, &Operand::Sparse(build(s as u64)), &b)
                    .unwrap()
                    .x;
                assert_eq!(
                    &x, w,
                    "n {n} round {round}: eviction must not corrupt answers"
                );
            }
        }
        let stats = svc.stats();
        assert!(
            stats.evictions > 0,
            "three keys through a capacity-2 LRU must evict"
        );
        assert!(svc.cached_plans() <= 2);
        assert_eq!(stats.errors, 0);
        // Three distinct contents were presented: each planned once, and
        // again only after an eviction dropped it.
        assert_eq!(stats.plan_builds, stats.misses);
        assert_eq!(stats.hits + stats.misses, 12);
        assert!(stats.plan_builds >= 3);
        assert_eq!(
            stats.plan_builds - stats.evictions,
            svc.cached_plans() as u64
        );
    }
}

/// The cache is one LRU over every key: at capacity, the key touched
/// longest ago is the one evicted, wherever the keys hash.
#[test]
fn eviction_is_global_lru() {
    const C: usize = 8;
    let req = sparse_request();
    let svc = SolveService::new(ServiceConfig {
        plan_cache_capacity: C,
        admission_window: 4,
    });
    let ops: Vec<Operand> = (0..=C as u64)
        .map(|s| Operand::Sparse(Arc::new(sgen::random_lower(32, 2, 60 + s))))
        .collect();
    let b = sgen::rhs_vec(32, 8);
    let solve = |i: usize| svc.solve_vec(&req, &ops[i], &b).unwrap();

    for i in 0..C {
        solve(i);
    }
    for i in 1..C {
        solve(i);
    }
    solve(C);
    let stats = svc.stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.evictions),
        (C as u64 + 1, C as u64 - 1, 1)
    );
    assert_eq!(svc.cached_plans(), C);

    // Every key but the first is still cached…
    for i in 1..=C {
        solve(i);
    }
    assert_eq!(svc.stats().misses, C as u64 + 1);
    // …and the first plans again.
    solve(0);
    assert_eq!(svc.stats().misses, C as u64 + 2);
}

/// One service, many client threads: concurrent immediate solves share
/// the cached plans and each canonical operand's single analysis, and all
/// agree bitwise with the cold path.
#[test]
fn concurrent_clients_share_one_cached_plan() {
    let req = sparse_request();
    let svc = Arc::new(service());
    // The benchmark's shape (analysed, kept sequential) and one whose
    // levels clear the go-parallel rule (every hit a 4-worker sweep).
    let build = |wide: bool| {
        Arc::new(if wide {
            sgen::deep_narrow_lower(40_000, 8192, 6, 77)
        } else {
            sgen::random_lower(4096, 8, 77)
        })
    };
    let kinds = [false, true];
    let canonical = kinds.map(build);
    let rhs = [0, 1].map(|i| sgen::rhs_vec(canonical[i].n(), 13));

    // Warm once per content so every thread hits.
    let mut want = Vec::new();
    for ((wide, a), b) in kinds.iter().zip(&canonical).zip(&rhs) {
        let warm = svc
            .solve_vec(&req, &Operand::Sparse(Arc::clone(a)), b)
            .unwrap();
        assert_eq!(warm.report.levels.unwrap().workers > 1, *wide);
        assert_eq!(warm.x, cold_sparse(&req, &build(*wide), b));
        want.push(warm.x);
    }

    let mut handles = Vec::new();
    for _ in 0..4 {
        let svc = Arc::clone(&svc);
        let rhs = rhs.clone();
        let fresh = kinds.map(build);
        handles.push(std::thread::spawn(move || {
            let mut xs = Vec::new();
            for _ in 0..8 {
                for (a, b) in fresh.iter().zip(&rhs) {
                    xs.push(
                        svc.solve_vec(&req, &Operand::Sparse(Arc::clone(a)), b)
                            .unwrap()
                            .x,
                    );
                }
            }
            xs
        }));
    }
    for h in handles {
        for (i, x) in h.join().unwrap().into_iter().enumerate() {
            assert_eq!(
                x,
                want[i % 2],
                "every concurrent hit must be bitwise stable"
            );
        }
    }
    for a in &canonical {
        assert_eq!(a.analysis_count(), 1);
    }
    let stats = svc.stats();
    // Two distinct contents presented, by ten operand objects.
    assert_eq!(stats.plan_builds, 2);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 64);
    assert_eq!(stats.errors, 0);
}

/// A window of dense single-RHS jobs with the same key is one batch whose
/// jobs still answer bitwise like solo solves; jobs with different keys in
/// one flush batch separately.
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
            .execute_dense_in_place(m, solo.as_mut_slice())
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
    let req = sparse_request().with_residual();
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
    let plain = sparse_request();
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

/// A request whose plan is refused is not accepted: neither the immediate
/// path nor the queue counts it as a request, a miss or a plan build.
#[test]
fn refused_requests_count_nothing() {
    let svc = service();
    let mat = Operand::Sparse(Arc::new(sgen::random_lower(32, 2, 3)));
    let req = SolveRequest::upper();
    let b = sgen::rhs_vec(32, 4);
    assert!(svc.solve_vec(&req, &mat, &b).is_err());
    assert!(svc
        .submit(ServiceRequest {
            request: req,
            operand: mat,
            rhs: b,
        })
        .is_err());
    assert_eq!(svc.stats(), ServiceStats::default());
    assert_eq!(svc.queue_depth(), 0);
}

/// Fusing can change the executor, never the bits: one right-hand side of
/// this factor stays under the go-parallel threshold and sweeps
/// sequentially, four fused ones carry its levels over it and run the
/// level sweep — and every fused answer is still bitwise the solo one.
#[test]
fn fusion_that_crosses_the_parallel_threshold_stays_bitwise() {
    let req = sparse_request();
    // 10 levels of 2 048 rows, ~12 800 stored entries each.
    let mat = Arc::new(sgen::deep_narrow_lower(20_000, 2048, 6, 5));
    let opts = sparse::SolveOpts::new().threads(4);
    assert_eq!(mat.execution_shape(&opts, 1).workers, 1);
    assert_eq!(mat.execution_shape(&opts, 4).workers, 4);

    let svc = service();
    let mut want = Vec::new();
    for j in 0..4 {
        let rhs = sgen::rhs_vec(mat.n(), 300 + j);
        want.push(cold_sparse(&req, &mat, &rhs));
        svc.submit(ServiceRequest {
            request: req,
            operand: Operand::Sparse(Arc::clone(&mat)),
            rhs,
        })
        .unwrap();
    }
    let done = svc.flush();
    assert_eq!(svc.stats().max_batch_width, 4);
    for (c, w) in done.iter().zip(&want) {
        let report = c.result.as_ref().unwrap();
        assert_eq!(
            report.levels.unwrap().workers,
            4,
            "the fused sweep ran parallel"
        );
        assert_eq!(&c.x, w);
    }
}
