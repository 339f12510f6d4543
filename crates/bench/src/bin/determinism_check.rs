//! Prints a checksum of a fixed workload of dense kernels, sparse solves
//! and distributed solves so CI can verify that results are **bitwise
//! identical** under different `DENSE_THREADS` settings (the multithreaded
//! GEMM and the sparse level sweep must be throughput knobs, not semantics
//! knobs) — and identical to the parent commit's, so a change that only
//! moves data (a redistribution, a scratch arena) provably changes no bit
//! of any result.
//!
//! CI runs this at `DENSE_THREADS` 1 and 4 and diffs the output; any
//! divergence in a single mantissa bit changes the checksum.  The sparse
//! rows run under the implicit worker budget (the pool size), so the two
//! legs take different executors wherever the go-parallel rule lets them —
//! `sparse_wide_levels_20000w2048` is there so that at least one row
//! always does.  The worker count is printed to stderr only, so stdout is
//! comparable across runs.
//!
//! The in-process `--trace-transparency` mode runs a representative
//! workload with no `obs` recorder installed and again under one, and
//! asserts every result is bitwise identical: observability must never
//! perturb the numerics.

use catrsm::{Algorithm, ItInvConfig, SolveRequest};
use dense::{gemm, gen, tri_invert, trsm_in_place_opts, Matrix, Side, SolveOpts, Triangle};
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

/// A factor whose levels (10 of 2 048 rows, ~12 800 stored entries each)
/// clear the go-parallel rule, with its right-hand side.
fn wide_levels() -> (sparse::SparseTri, Vec<f64>) {
    (
        sparse::gen::deep_narrow_lower(20_000, 2048, 6, 37),
        sparse::gen::rhs_vec(20_000, 38),
    )
}

/// `--trace-transparency`: run a representative workload (dense TRSM, a
/// sparse solve the rule keeps sequential and one it runs as a 4-worker
/// level sweep, a distributed solve on the simulated machine) once
/// untraced and once under an `obs::Recorder`, and assert every result is
/// **bitwise identical** —
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
        let req = SolveRequest::lower().threads(4);
        let sx = solve_sparse_vec(req, &sl, &sb);
        out.push(checksum_slice("sparse_20000_level", &sx));
        let (wl, wb) = wide_levels();
        let wx = solve_sparse_vec(req, &wl, &wb);
        out.push(checksum_slice("sparse_wide_levels_20000w2048", &wx));

        out.push(distributed_checksum(
            "distributed_64x16",
            2,
            64,
            16,
            SolveRequest::lower(),
        ));
        out
    }

    let baseline = workload();

    let recorder = obs::Recorder::new();
    let traced = recorder.record(workload);
    let dump = recorder.dump();

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
    if std::env::args().any(|a| a == "--trace-transparency") {
        trace_transparency_check();
        return;
    }
    eprintln!("dense worker count: {}", dense::dense_threads());

    // Big enough to cross the implicit parallelisation threshold
    // (PAR_MIN_MADDS = 128^3) with ragged panel edges on every dimension.
    let a = gen::uniform(261, 300, 11);
    let b = gen::uniform(300, 517, 12);
    let mut c = gen::uniform(261, 517, 13);
    gemm(1.25, &a, &b, -0.5, &mut c).unwrap();
    println!("{}", checksum("gemm_261x300x517", &c));

    let l = gen::well_conditioned_lower(384, 21);
    let rhs = gen::rhs(384, 96, 22);
    // Through the staged API (bitwise identical to the dense::trsm_opts
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
    trsm_in_place_opts(
        &SolveOpts::upper().side(Side::Right),
        &l.transpose(),
        &mut xr,
    )
    .unwrap();
    println!("{}", checksum("trsm_right_upper_96x384", &xr));

    let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
    println!("{}", checksum("tri_invert_384", &inv));

    // Sparse solves under the implicit worker budget: which executor the
    // DENSE_THREADS=4 CI leg runs on each is the go-parallel rule's call,
    // and no call may move a bit.
    let sl = sparse::gen::random_lower(40_000, 12, 31);
    let sb = sparse::gen::rhs_vec(40_000, 32);
    let sx = solve_sparse_vec(SolveRequest::lower(), &sl, &sb);
    println!("{}", checksum_slice("sparse_solve_40000x12", &sx));

    let sxt = solve_sparse_vec(SolveRequest::lower().transposed(), &sl, &sb);
    println!("{}", checksum_slice("sparse_solve_t_40000x12", &sxt));

    let sbm = Matrix::from_fn(8_000, 8, |i, j| ((i * 7 + j * 3) % 17) as f64 - 8.0);
    let su = sparse::gen::random_upper(8_000, 10, 33);
    let sxm = SolveRequest::upper().solve_sparse(&su, &sbm).unwrap().x;
    println!("{}", checksum("sparse_solve_multi_upper_8000x8", &sxm));

    // Deep narrow DAG: 10 000 four-row levels, which the rule keeps
    // sequential under any budget.
    let dl = sparse::gen::deep_narrow_lower(40_000, 4, 4, 35);
    let db = sparse::gen::rhs_vec(40_000, 36);
    let dx = solve_sparse_vec(SolveRequest::lower().threads(4), &dl, &db);
    println!("{}", checksum_slice("sparse_deep_dag_40000w4", &dx));

    // Wide levels: the one shape here the rule runs as a level sweep
    // whenever the pool has more than one worker, so the t1-against-t4
    // diff always compares the two executors.
    let (wl, wb) = wide_levels();
    let wx = solve_sparse_vec(SolveRequest::lower(), &wl, &wb);
    println!("{}", checksum_slice("sparse_wide_levels_20000w2048", &wx));

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
