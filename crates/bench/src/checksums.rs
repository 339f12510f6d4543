//! Checksums of a fixed workload of dense kernels, sparse solves and
//! distributed solves, one `label: hash` row each.
//!
//! The rows pin the result bits: the worker budget must be a throughput
//! knob, never a semantics knob (the multithreaded GEMM and the sparse
//! level sweep return the sequential bits), tracing must be a pure
//! observer, and a change that only moves data (a redistribution, a
//! scratch arena) changes no bit of any result.  The rows that pass through
//! the packed product differ between kernel classes ([`dense::kernel_class`]),
//! so the golden rows are kept per class.

use crate::on_grid;
use catrsm::{Algorithm, ItInvConfig, SolveRequest};
use dense::{gemm, gen, tri_invert, trsm_in_place_opts, Matrix, Side, SolveOpts, Triangle};
use pgrid::DistMatrix;
use simnet::MachineParams;

/// FNV-1a over the little-endian bit patterns of every element.
fn checksum(label: &str, data: &[f64]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{label}: {hash:016x}\n")
}

/// `X` from `req` solving `A·X = B` (`A` lower or upper to match the
/// request, `B` a fixed `n×k` right-hand side) on a `q×q` grid.
fn distributed(q: usize, n: usize, k: usize, req: SolveRequest) -> Matrix {
    let upper = req.opts().triangle == Triangle::Upper;
    let mut ranks = on_grid(q, q, MachineParams::cluster(), |grid| {
        let a_global = if upper {
            gen::well_conditioned_upper(n, 41)
        } else {
            gen::well_conditioned_lower(n, 41)
        };
        let a = DistMatrix::from_global(grid, &a_global);
        let b = DistMatrix::from_global(grid, &gen::rhs(n, k, 42));
        let sol = req.solve_distributed(&a, &b).expect("distributed solve");
        sol.x.to_global()
    });
    ranks.swap_remove(0)
}

/// `op(A)·x = b` for one right-hand-side vector through the staged API.
fn sparse_vec(req: SolveRequest, m: &sparse::SparseTri, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    let plan = req.plan_sparse(m, 1).expect("plan_sparse");
    plan.execute_sparse_in_place(m, x.as_mut_slice())
        .expect("sparse solve");
    x
}

/// The checksum rows with `budget` workers: the GEMM's budget
/// ([`dense::with_thread_budget`]) and every sparse request's
/// (`SolveRequest::threads`), so the rule runs the level sweep wherever
/// it may (and the wide-levels row runs it forced).  The rows are the same
/// for every budget.
pub fn checksums(budget: usize) -> String {
    dense::with_thread_budget(budget, || rows(budget))
}

fn rows(budget: usize) -> String {
    let mut out = String::new();
    let lower = SolveRequest::lower().threads(budget);

    // Big enough to cross the implicit parallelisation threshold
    // (PAR_MIN_MADDS = 128^3) with ragged panel edges on every dimension.
    let a = gen::uniform(261, 300, 11);
    let b = gen::uniform(300, 517, 12);
    let mut c = gen::uniform(261, 517, 13);
    gemm(1.25, &a, &b, -0.5, &mut c).unwrap();
    out += &checksum("gemm_261x300x517", c.as_slice());

    let l = gen::well_conditioned_lower(384, 21);
    let rhs = gen::rhs(384, 96, 22);
    let x = lower.solve_dense(&l, &rhs).unwrap().x;
    out += &checksum("trsm_left_lower_384x96", x.as_slice());
    let xt = lower.transposed().solve_dense(&l, &rhs).unwrap().x;
    out += &checksum("trsm_left_lower_t_384x96", xt.as_slice());
    let mut xr = gen::rhs(96, 384, 23);
    let right_upper = SolveOpts::upper().side(Side::Right);
    trsm_in_place_opts(&right_upper, &l.transpose(), &mut xr).unwrap();
    out += &checksum("trsm_right_upper_96x384", xr.as_slice());
    let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
    out += &checksum("tri_invert_384", inv.as_slice());

    let sl = sparse::gen::random_lower(40_000, 12, 31);
    let sb = sparse::gen::rhs_vec(40_000, 32);
    out += &checksum("sparse_solve_40000x12", &sparse_vec(lower, &sl, &sb));
    let sxt = sparse_vec(lower.transposed(), &sl, &sb);
    out += &checksum("sparse_solve_t_40000x12", &sxt);
    let sbm = Matrix::from_fn(8_000, 8, |i, j| ((i * 7 + j * 3) % 17) as f64 - 8.0);
    let su = sparse::gen::random_upper(8_000, 10, 33);
    let upper = SolveRequest::upper().threads(budget);
    let sxm = upper.solve_sparse(&su, &sbm).unwrap().x;
    out += &checksum("sparse_solve_multi_upper_8000x8", sxm.as_slice());
    // Deep narrow DAG: 10 000 four-row levels, which the rule keeps
    // sequential under any budget.
    let dl = sparse::gen::deep_narrow_lower(40_000, 4, 4, 35);
    let db = sparse::gen::rhs_vec(40_000, 36);
    out += &checksum("sparse_deep_dag_40000w4", &sparse_vec(lower, &dl, &db));
    // Wide levels (10 of 2 048 rows, ~12 800 stored entries each): run as a
    // level sweep on the whole budget whenever it allows more than one
    // worker — forced, since the rule keeps levels this light sequential —
    // so budgets 1 and 4 compare the two executors.
    let wl = sparse::gen::deep_narrow_lower(20_000, 2048, 6, 37);
    let wb = sparse::gen::rhs_vec(20_000, 38);
    let wx = if budget > 1 {
        let mut x = wb;
        wl.level_sweep_forced(budget, &mut x[..])
            .expect("level sweep");
        x
    } else {
        sparse_vec(lower, &wl, &wb)
    };
    out += &checksum("sparse_wide_levels_20000w2048", &wx);

    // Distributed solves on 16 ranks: every algorithm (and with it every
    // layout change — face / slab routing, diagonal-block gathers, 3D-MM
    // transposes, column and row fan-outs), then op(A) as relabellings.
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
        out += &checksum(label, distributed(4, 128, 32, req).as_slice());
    }
    out
}
