//! Prints a checksum of a fixed workload of dense kernels, sparse
//! level-scheduled solves and distributed solves so CI can verify that
//! results are **bitwise identical** under different `DENSE_THREADS`
//! settings (the multithreaded GEMM and the sparse level-parallel executors
//! must be throughput knobs, not semantics knobs) — and identical to the
//! parent commit's, so a change that only moves data (a redistribution, a
//! scratch arena) provably changes no bit of any result.
//!
//! CI runs this across a matrix of `DENSE_THREADS` (1 vs 4) **and**
//! `SPARSE_POLICY` (`level` vs `merged` vs unset = auto) settings and diffs
//! the output; any divergence in a single mantissa bit changes the
//! checksum, so the barrier-per-level and DAG-partitioned sparse executors
//! must agree exactly.  The worker count and policy actually used are
//! printed to stderr only, so stdout is comparable across runs.
//!
//! The sync-free executor (`SPARSE_POLICY=syncfree`) is bitwise
//! reproducible only per *fixed* worker count, so CI diffs two identical
//! sync-free runs per `DENSE_THREADS` setting against each other (not
//! against the level baseline) and additionally runs the in-process
//! `--syncfree-tolerance` mode, which solves the sparse workloads under
//! both the level and sync-free policies and asserts they agree to 1e-12
//! — plus bitwise self-consistency of two same-worker-count sync-free
//! solves.
//!
//! The in-process `--trace-transparency` mode runs a representative
//! workload with the `obs` tracing layer disabled and again with it
//! enabled, and asserts every result is bitwise identical: observability
//! must never perturb the numerics.

use catrsm::{Algorithm, ItInvConfig, SchedulePolicy, SolveRequest};
use dense::{gemm, gen, tri_invert, trsm_in_place, Diag, Matrix, Side, Triangle};
use pgrid::{DistMatrix, Grid2D};
use simnet::{Machine, MachineParams};

/// FNV-1a over the little-endian bit patterns of every element.
fn checksum_slice(label: &str, data: &[f64]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{label}: {hash:016x}")
}

fn checksum(label: &str, m: &Matrix) -> String {
    checksum_slice(label, m.as_slice())
}

/// Checksum of `X` from `req` solving `A·X = B` (`A` lower or upper to
/// match the request, `B` a fixed `n×k` right-hand side) on a `q×q` grid of
/// the simulated machine.
fn distributed_checksum(label: &str, q: usize, n: usize, k: usize, req: SolveRequest) -> String {
    let upper = req.opts().triangle == Triangle::Upper;
    let run = Machine::new(q * q, MachineParams::cluster())
        .run(move |comm| {
            let grid = Grid2D::new(comm, q, q).expect("grid");
            let a_global = if upper {
                gen::well_conditioned_upper(n, 41)
            } else {
                gen::well_conditioned_lower(n, 41)
            };
            let a = DistMatrix::from_global(&grid, &a_global);
            let b = DistMatrix::from_global(&grid, &gen::rhs(n, k, 42));
            let sol = req.solve_distributed(&a, &b).expect("distributed solve");
            sol.x.to_global()
        })
        .expect("machine run");
    checksum(label, &run.results[0])
}

/// `op(A)·x = b` for one right-hand-side vector through the staged API.
fn solve_sparse_vec(req: SolveRequest, m: &sparse::SparseTri, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    let plan = req.plan_sparse(m, 1).expect("plan_sparse");
    plan.execute_sparse_in_place(m, x.as_mut_slice())
        .expect("sparse solve");
    x
}

/// Sparse scheduling-policy pin from the `SPARSE_POLICY` environment
/// variable: `level` / `merged` / `syncfree` pin that executor, anything
/// else (or unset) leaves the auto heuristic in charge.
fn sparse_policy() -> Option<SchedulePolicy> {
    match std::env::var("SPARSE_POLICY").ok().as_deref() {
        Some("level") => Some(SchedulePolicy::Level),
        Some("merged") => Some(SchedulePolicy::Merged),
        Some("syncfree") => Some(SchedulePolicy::SyncFree),
        _ => None,
    }
}

/// Applies the `SPARSE_POLICY` pin to a request.
fn with_policy(req: SolveRequest) -> SolveRequest {
    match sparse_policy() {
        Some(p) => req.policy(p),
        None => req,
    }
}

/// `--syncfree-tolerance`: solve the sparse workloads under the level and
/// sync-free policies in-process and assert they agree to 1e-12 (the
/// FP-reduction-order caveat: sync-free is not bitwise against the
/// barriered executors), plus bitwise self-consistency of two sync-free
/// solves at the same worker count.
fn syncfree_tolerance_check() {
    const TOL: f64 = 1e-12;
    let max_abs_diff = |a: &[f64], b: &[f64]| -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0_f64, f64::max)
    };
    let check = |label: &str, level: &[f64], syncfree: &[f64], again: &[f64]| {
        let diff = max_abs_diff(level, syncfree);
        assert!(
            diff < TOL,
            "{label}: sync-free diverged from level by {diff:e} (tolerance {TOL:e})"
        );
        assert!(
            syncfree == again,
            "{label}: two same-worker-count sync-free solves must be bitwise equal"
        );
        println!("{label}: syncfree within {TOL:e} of level (max diff {diff:e})");
    };

    let sl = sparse::gen::random_lower(40_000, 12, 31);
    let sb = sparse::gen::rhs_vec(40_000, 32);
    let dl = sparse::gen::deep_narrow_lower(40_000, 4, 4, 35);
    let db = sparse::gen::rhs_vec(40_000, 36);
    let solve = |m: &sparse::SparseTri, b: &[f64], policy: SchedulePolicy, transposed: bool| {
        let mut req = SolveRequest::lower().threads(4).policy(policy);
        if transposed {
            req = req.transposed();
        }
        solve_sparse_vec(req, m, b)
    };
    for (label, m, b, transposed) in [
        ("sparse_solve_40000x12", &sl, &sb, false),
        ("sparse_solve_t_40000x12", &sl, &sb, true),
        ("sparse_deep_dag_40000w4", &dl, &db, false),
    ] {
        check(
            label,
            &solve(m, b, SchedulePolicy::Level, transposed),
            &solve(m, b, SchedulePolicy::SyncFree, transposed),
            &solve(m, b, SchedulePolicy::SyncFree, transposed),
        );
    }

    let sbm = Matrix::from_fn(8_000, 8, |i, j| ((i * 7 + j * 3) % 17) as f64 - 8.0);
    let su = sparse::gen::random_upper(8_000, 10, 33);
    let multi = |policy: SchedulePolicy| {
        SolveRequest::upper()
            .threads(4)
            .policy(policy)
            .solve_sparse(&su, &sbm)
            .unwrap()
            .x
    };
    check(
        "sparse_solve_multi_upper_8000x8",
        multi(SchedulePolicy::Level).as_slice(),
        multi(SchedulePolicy::SyncFree).as_slice(),
        multi(SchedulePolicy::SyncFree).as_slice(),
    );
    eprintln!("syncfree tolerance check passed");
}

/// `--trace-transparency`: run a representative workload (dense TRSM,
/// sparse solves under all three scheduling policies, a distributed solve
/// on the simulated machine) once with tracing disabled and once with
/// tracing enabled, and assert every result is **bitwise identical** —
/// the observability layer must be a pure observer that never touches
/// floating-point data or scheduling decisions.
fn trace_transparency_check() {
    fn workload() -> Vec<String> {
        let mut out = Vec::new();

        let l = gen::well_conditioned_lower(384, 21);
        let rhs = gen::rhs(384, 96, 22);
        let x = SolveRequest::lower().solve_dense(&l, &rhs).unwrap().x;
        out.push(checksum("dense_trsm_384x96", &x));

        let sl = sparse::gen::random_lower(20_000, 8, 31);
        let sb = sparse::gen::rhs_vec(20_000, 32);
        for policy in [
            SchedulePolicy::Level,
            SchedulePolicy::Merged,
            SchedulePolicy::SyncFree,
        ] {
            let req = SolveRequest::lower().threads(4).policy(policy);
            let sx = solve_sparse_vec(req, &sl, &sb);
            out.push(checksum_slice(
                &format!("sparse_20000_{}", policy.name()),
                &sx,
            ));
        }

        out.push(distributed_checksum(
            "distributed_64x16",
            2,
            64,
            16,
            SolveRequest::lower(),
        ));
        out
    }

    obs::set_enabled(false);
    obs::clear();
    let baseline = workload();

    obs::set_enabled(true);
    obs::clear();
    let traced = workload();
    let dump = obs::collect_all();
    obs::set_enabled(false);
    obs::clear();

    assert!(
        !dump.is_empty(),
        "the tracing-enabled run must record events"
    );
    assert_eq!(baseline.len(), traced.len());
    for (off, on) in baseline.iter().zip(&traced) {
        assert_eq!(
            off, on,
            "enabling tracing changed a result checksum (must be a pure observer)"
        );
        println!("{on}  [trace-transparent]");
    }
    eprintln!(
        "trace transparency check passed ({} events recorded while tracing)",
        dump.len()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--syncfree-tolerance") {
        syncfree_tolerance_check();
        return;
    }
    if std::env::args().any(|a| a == "--trace-transparency") {
        trace_transparency_check();
        return;
    }
    eprintln!("dense worker count: {}", dense::dense_threads());
    eprintln!(
        "sparse policy: {}",
        sparse_policy().map(|p| p.name()).unwrap_or("auto")
    );

    // Big enough to cross the implicit parallelisation threshold
    // (PAR_MIN_MADDS = 128^3) with ragged panel edges on every dimension.
    let a = gen::uniform(261, 300, 11);
    let b = gen::uniform(300, 517, 12);
    let mut c = gen::uniform(261, 517, 13);
    gemm(1.25, &a, &b, -0.5, &mut c).unwrap();
    println!("{}", checksum("gemm_261x300x517", &c));

    let l = gen::well_conditioned_lower(384, 21);
    let rhs = gen::rhs(384, 96, 22);
    // Through the staged API (bitwise identical to the old dense::trsm
    // entry point it wraps).
    let x = SolveRequest::lower().solve_dense(&l, &rhs).unwrap().x;
    println!("{}", checksum("trsm_left_lower_384x96", &x));

    let xt = SolveRequest::lower()
        .transposed()
        .solve_dense(&l, &rhs)
        .unwrap()
        .x;
    println!("{}", checksum("trsm_left_lower_t_384x96", &xt));

    let mut xr = gen::rhs(96, 384, 23);
    trsm_in_place(
        Side::Right,
        Triangle::Upper,
        Diag::NonUnit,
        &l.transpose(),
        &mut xr,
    )
    .unwrap();
    println!("{}", checksum("trsm_right_upper_96x384", &xr));

    let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
    println!("{}", checksum("tri_invert_384", &inv));

    // Sparse level-scheduled solves: big enough that `nnz·k` clears the
    // implicit PAR_MIN_WORK gate, so the DENSE_THREADS=4 CI leg runs the
    // barrier-synchronized parallel executor on the single-RHS solve and
    // the multi-RHS solve alike.
    let sl = sparse::gen::random_lower(40_000, 12, 31);
    let sb = sparse::gen::rhs_vec(40_000, 32);
    let sx = solve_sparse_vec(with_policy(SolveRequest::lower()), &sl, &sb);
    println!("{}", checksum_slice("sparse_solve_40000x12", &sx));

    let sxt = solve_sparse_vec(with_policy(SolveRequest::lower().transposed()), &sl, &sb);
    println!("{}", checksum_slice("sparse_solve_t_40000x12", &sxt));

    let sbm = Matrix::from_fn(8_000, 8, |i, j| ((i * 7 + j * 3) % 17) as f64 - 8.0);
    let su = sparse::gen::random_upper(8_000, 10, 33);
    let sxm = with_policy(SolveRequest::upper())
        .solve_sparse(&su, &sbm)
        .unwrap()
        .x;
    println!("{}", checksum("sparse_solve_multi_upper_8000x8", &sxm));

    // Deep narrow DAG: the shape where the level and merged executors
    // differ most (10000 barriers vs ~50) — their checksums must not
    // differ at all.
    let dl = sparse::gen::deep_narrow_lower(40_000, 4, 4, 35);
    let db = sparse::gen::rhs_vec(40_000, 36);
    let dx = solve_sparse_vec(with_policy(SolveRequest::lower().threads(4)), &dl, &db);
    println!("{}", checksum_slice("sparse_deep_dag_40000w4", &dx));

    // Distributed solves on 16 ranks: every algorithm (and with it every
    // layout change — face / slab routing, diagonal-block gathers, 3D-MM
    // transposes, column and row fan-outs), then the op(A) permutations.
    let (n, k) = (128, 32);
    let it_inv = |p1, p2, n0| {
        Algorithm::IterativeInversion(ItInvConfig {
            p1,
            p2,
            n0,
            inv_base: 8,
        })
    };
    for (label, req) in [
        ("dist_auto_128x32", SolveRequest::lower()),
        (
            "dist_itinv_2d_128x32",
            SolveRequest::lower().algorithm(it_inv(4, 1, 16)),
        ),
        (
            "dist_itinv_3d_128x32",
            SolveRequest::lower().algorithm(it_inv(2, 4, 64)),
        ),
        (
            "dist_recursive_128x32",
            SolveRequest::lower().algorithm(Algorithm::Recursive { base_size: 16 }),
        ),
        (
            "dist_wavefront_128x32",
            SolveRequest::lower().algorithm(Algorithm::Wavefront),
        ),
        ("dist_upper_128x32", SolveRequest::upper()),
        (
            "dist_lower_t_unit_128x32",
            SolveRequest::lower().transposed().unit_diagonal(),
        ),
    ] {
        println!("{}", distributed_checksum(label, 4, n, k, req));
    }
}
