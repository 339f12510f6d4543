//! Wall-clock microbenchmarks of the local dense kernels (the BLAS
//! substitute the simulated processors run).
//!
//! The `gemm_naive_vs_packed` group is the acceptance check for the packed
//! microkernel: at 512³ the packed path must beat the naive i-k-j triple
//! loop by at least 2×.  Run with `cargo bench -p bench --bench kernels`; the
//! committed, layered ledger is `perfbench/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dense::{gemm, gemm_with_threads, gen, reference, tri_invert, trsm, Diag, Matrix, Triangle};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_gemm");
    for n in [64usize, 128, 256] {
        let a = gen::uniform(n, n, 1);
        let b = gen::uniform(n, n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            let mut out = Matrix::zeros(n, n);
            bench.iter(|| {
                gemm(1.0, &a, &b, 0.0, &mut out).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_gemm_naive_vs_packed(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_naive_vs_packed");
    let n = 512usize;
    let a = gen::uniform(n, n, 1);
    let b = gen::uniform(n, n, 2);
    group.bench_with_input(BenchmarkId::new("naive_ikj", n), &n, |bench, _| {
        let mut out = Matrix::zeros(n, n);
        bench.iter(|| {
            reference::gemm_naive_ikj(1.0, &a, &b, 0.0, &mut out);
        });
    });
    group.bench_with_input(BenchmarkId::new("packed", n), &n, |bench, _| {
        let mut out = Matrix::zeros(n, n);
        bench.iter(|| {
            gemm(1.0, &a, &b, 0.0, &mut out).unwrap();
        });
    });
    group.finish();
}

fn bench_gemm_par(c: &mut Criterion) {
    // The multithreaded packed GEMM at a size where the column partitioning
    // pays: compare worker counts at 512³ (plus the machine's own default).
    // Results are bitwise identical across rows; only throughput may differ.
    let mut group = c.benchmark_group("gemm_par");
    let n = 512usize;
    let a = gen::uniform(n, n, 1);
    let b = gen::uniform(n, n, 2);
    let mut counts = vec![1usize, 2, 4];
    let default = dense::dense_threads();
    if !counts.contains(&default) {
        counts.push(default);
    }
    for threads in counts {
        group.bench_with_input(
            BenchmarkId::new(format!("threads_{threads}"), n),
            &n,
            |bench, _| {
                let mut out = Matrix::zeros(n, n);
                bench.iter(|| {
                    gemm_with_threads(1.0, &a, &b, 0.0, &mut out, threads).unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_sparse_solve(c: &mut Criterion) {
    // Level-scheduled sparse triangular solve: sequential baseline vs the
    // level-parallel executor at pinned worker counts, plus the blocked
    // multi-RHS executor.  Results are bitwise identical across rows; only
    // throughput may differ (and only on multicore hardware — the committed
    // baseline machine has one core).
    let mut group = c.benchmark_group("sparse_solve");
    let n = 40_000usize;
    let fill = 12usize;
    let l = sparse::gen::random_lower(n, fill, 3);
    let b = sparse::gen::rhs_vec(n, 4);
    let _ = l.schedule(); // analyze once, outside the timed region
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("threads_{threads}"), n),
            &n,
            |bench, _| {
                let opts = sparse::SolveOpts::new().threads(threads);
                let mut x = vec![0.0; n];
                bench.iter(|| {
                    x.copy_from_slice(&b);
                    l.solve_with(&opts, &mut x).unwrap();
                });
            },
        );
    }
    let k = 16usize;
    let bm = Matrix::from_fn(n, k, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
    group.bench_with_input(BenchmarkId::new("multi_rhs_16", n), &n, |bench, _| {
        let mut x = bm.clone();
        bench.iter(|| {
            x.as_mut_slice().copy_from_slice(bm.as_slice());
            l.solve_multi_with(&sparse::SolveOpts::new(), &mut x)
                .unwrap();
        });
    });
    group.finish();
}

fn bench_sparse_deep_dag(c: &mut Criterion) {
    // The barrier-sensitive shape: a deep narrow DAG (n = 40000, 10000
    // levels of width 4 — band-limited dependencies, like a blocked banded
    // factor).  The level schedule crosses one barrier per level; the
    // DAG-partitioned merged schedule crosses one per super-level (~50),
    // which is the whole point of the policy.  Results are bitwise
    // identical across every row of this group.
    let mut group = c.benchmark_group("sparse_deep_dag");
    let n = 40_000usize;
    let l = sparse::gen::deep_narrow_lower(n, 4, 4, 3);
    let b = sparse::gen::rhs_vec(n, 4);
    let _ = l.schedule(); // analyze once, outside the timed region
    let _ = l.merged_schedule();
    group.bench_with_input(BenchmarkId::new("seq", n), &n, |bench, _| {
        let opts = sparse::SolveOpts::new().threads(1);
        let mut x = vec![0.0; n];
        bench.iter(|| {
            x.copy_from_slice(&b);
            l.solve_with(&opts, &mut x).unwrap();
        });
    });
    for threads in [2usize, 4] {
        for policy in [
            sparse::SchedulePolicy::Level,
            sparse::SchedulePolicy::Merged,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{}_threads_{threads}", policy.name()), n),
                &n,
                |bench, _| {
                    let opts = sparse::SolveOpts::new().threads(threads).policy(policy);
                    let mut x = vec![0.0; n];
                    bench.iter(|| {
                        x.copy_from_slice(&b);
                        l.solve_with(&opts, &mut x).unwrap();
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_sparse_oneshot(c: &mut Criterion) {
    // One-shot solves: the analysis phase runs *inside* the timed region.
    // Each iteration clones a never-analyzed master (cloning copies the
    // O(nnz) arrays but the empty schedule caches), so the barriered
    // policies pay their level/merge analysis plus their barriers per
    // solve, while the sync-free column sweep pays only its CSC storage
    // conversion — the workload `SolveOpts::reuse(1)` routes to
    // `SchedulePolicy::SyncFree`.  The `merged_amortized` row keeps the
    // analysis outside the timed region (the pre-analyzed many-apply
    // steady state) for the one-shot-vs-amortized headline.
    let mut group = c.benchmark_group("sparse_oneshot");
    let n = 40_000usize;
    let l = sparse::gen::deep_narrow_lower(n, 4, 4, 3);
    let b = sparse::gen::rhs_vec(n, 4);
    for (name, opts) in [
        (
            "level",
            sparse::SolveOpts::new()
                .threads(4)
                .policy(sparse::SchedulePolicy::Level),
        ),
        (
            "merged",
            sparse::SolveOpts::new()
                .threads(4)
                .policy(sparse::SchedulePolicy::Merged),
        ),
        ("syncfree", sparse::SolveOpts::new().threads(4).reuse(1)),
    ] {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
            let mut x = vec![0.0; n];
            bench.iter(|| {
                let fresh = l.clone();
                x.copy_from_slice(&b);
                fresh.solve_with(&opts, &mut x).unwrap();
            });
        });
    }
    let analyzed = l.clone();
    let _ = analyzed.schedule();
    let _ = analyzed.merged_schedule();
    group.bench_with_input(BenchmarkId::new("merged_amortized", n), &n, |bench, _| {
        let opts = sparse::SolveOpts::new()
            .threads(4)
            .policy(sparse::SchedulePolicy::Merged);
        let mut x = vec![0.0; n];
        bench.iter(|| {
            x.copy_from_slice(&b);
            analyzed.solve_with(&opts, &mut x).unwrap();
        });
    });
    group.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    // Traced vs untraced rows for the two paths the `obs` layer
    // instruments most densely: the level-scheduled sparse solve
    // (per-level spans, barrier-wait counters) and the multithreaded
    // packed GEMM (per-worker pack/kernel time).  The untraced rows must
    // coincide with the plain `sparse_solve` / `gemm_par` groups — the
    // disabled recorder is one relaxed atomic load per region — while the
    // traced rows price live span recording.
    let mut group = c.benchmark_group("trace_overhead");
    let n = 40_000usize;
    let l = sparse::gen::random_lower(n, 12, 3);
    let b = sparse::gen::rhs_vec(n, 4);
    let _ = l.schedule(); // analyze once, outside the timed region
    let gn = 256usize;
    let a = gen::uniform(gn, gn, 1);
    let gb = gen::uniform(gn, gn, 2);
    for (label, enabled) in [("untraced", false), ("traced", true)] {
        group.bench_with_input(
            BenchmarkId::new(format!("sparse_solve_{label}"), n),
            &n,
            |bench, _| {
                obs::set_enabled(enabled);
                obs::clear();
                let opts = sparse::SolveOpts::new().threads(4);
                let mut x = vec![0.0; n];
                bench.iter(|| {
                    x.copy_from_slice(&b);
                    l.solve_with(&opts, &mut x).unwrap();
                });
                obs::set_enabled(false);
                obs::clear();
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_par_{label}"), gn),
            &gn,
            |bench, _| {
                obs::set_enabled(enabled);
                obs::clear();
                let mut out = Matrix::zeros(gn, gn);
                bench.iter(|| {
                    gemm_with_threads(1.0, &a, &gb, 0.0, &mut out, 4).unwrap();
                });
                obs::set_enabled(false);
                obs::clear();
            },
        );
    }
    group.finish();
}

fn bench_trsm(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_trsm");
    for n in [64usize, 128, 256] {
        let l = gen::well_conditioned_lower(n, 3);
        let b = gen::rhs(n, 32, 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| trsm(Triangle::Lower, Diag::NonUnit, &l, &b).unwrap());
        });
    }
    group.finish();
}

fn bench_tri_invert(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_tri_invert");
    for n in [64usize, 128, 256] {
        let l = gen::well_conditioned_lower(n, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| tri_invert(Triangle::Lower, &l).unwrap());
        });
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm, bench_gemm_naive_vs_packed, bench_gemm_par, bench_sparse_solve, bench_sparse_deep_dag, bench_sparse_oneshot, bench_trace_overhead, bench_trsm, bench_tri_invert
}
criterion_main!(kernels);
