//! Sparse triangular solves through the staged `SolveRequest → SolvePlan →
//! Solution` API: the analyze-once / solve-many pattern of preconditioner
//! applies, plan inspection (including why a plan runs sequentially or in
//! parallel), and transposed applies on the cached transpose.
//!
//! ```text
//! cargo run --release --example sparse_solver
//! ```

use catrsm_suite::prelude::*;
use sparse::gen;

fn main() {
    let n = 20_000;
    let fill = 12; // off-diagonal entries per row
    let applies = 25; // simulated preconditioner applies
    let l = gen::random_lower(n, fill, 2026);

    println!("sparse level-scheduled triangular solve");
    println!(
        "  factor:        n = {n}, nnz = {} ({:.2} per row)",
        l.nnz(),
        l.nnz() as f64 / n as f64
    );

    // One request describes every apply; the plan is inspectable before
    // the first solve runs (planning analyzes the pattern once).  `threads`
    // is a budget: the plan line says how many workers the solve gets, and
    // why — this random fill scatters each level's rows across the matrix,
    // so the level sweep would not stream memory and the plan stays
    // sequential.
    let request = SolveRequest::lower().threads(4);
    let plan = request.plan_sparse(&l, 1).expect("plan");
    println!("  plan:          {plan}");
    let PlanBackend::Sparse {
        workers,
        levels,
        max_level_width,
        ..
    } = plan.backend
    else {
        panic!("expected a sparse plan");
    };
    println!(
        "  schedule:      {levels} levels (critical path), widest level \
         {max_level_width} rows, {workers} worker(s)"
    );

    // Solve phase: many applies of the same factor.  b is refreshed per
    // apply (as a preconditioner would see), the analysis is not.
    let mut total_flops = 0u64;
    let mut x = vec![0.0; n];
    for apply in 0..applies {
        let b = gen::rhs_vec(n, apply as u64);
        x.copy_from_slice(&b);
        let report = plan
            .execute_sparse_in_place(&l, x.as_mut_slice())
            .expect("solve");
        total_flops += report.flops.get();
    }
    println!(
        "  applies:       {applies} solves, {total_flops} flops total, \
         {} pattern analyses",
        l.analysis_count()
    );
    assert_eq!(
        l.analysis_count(),
        1,
        "analysis must be reused across applies"
    );

    // A vector is an n×1 right-hand side to the allocating executors.
    let col = |b: &[f64]| Matrix::from_vec(b.len(), 1, b.to_vec()).expect("n×1");

    // The budget is a throughput knob, not a semantics knob.
    let b = col(&gen::rhs_vec(n, 99));
    let seq = SolveRequest::lower()
        .threads(1)
        .solve_sparse(&l, &b)
        .expect("sequential solve");
    let par = request.solve_sparse(&l, &b).expect("budget-4 solve");
    assert_eq!(seq.x, par.x, "budget-4 solve must be bitwise identical");
    println!("  determinism:   budget-4 solve bitwise identical to budget 1");

    // Transposed applies (the `Lᵀ` half of a preconditioner) run on the
    // cached transpose: one O(nnz) transposition ever, schedule included.
    let bt = col(&gen::rhs_vec(n, 123));
    let xt = SolveRequest::lower()
        .transposed()
        .threads(4)
        .solve_sparse(&l, &bt)
        .expect("transposed solve");
    let xt2 = SolveRequest::lower()
        .transposed()
        .solve_sparse(&l, &bt)
        .expect("transposed solve");
    assert_eq!(xt.x, xt2.x);
    println!(
        "  transposed:    Lᵀ·x = b solved via the cached transpose \
         ({} analyses on it)",
        l.transposed().analysis_count()
    );

    // Verify against the dense kernels through the densify bridge (small
    // system: densifying a 20k² matrix would need 3.2 GB).  The report can
    // carry the residual directly.
    let small = gen::random_lower(800, 8, 7);
    let bs = gen::rhs_vec(800, 5);
    let sol = SolveRequest::lower()
        .with_residual()
        .solve_sparse(&small, &col(&bs))
        .expect("sparse solve");
    let small_dense = small.to_dense();
    let dense_opts = dense::SolveOpts::new(small.triangle()).diag(small.diag());
    let xd = dense::trsm_opts(&dense_opts, &small_dense, &col(&bs)).expect("dense solve");
    let err = sol.x.max_abs_diff(&xd).unwrap();
    println!(
        "  vs dense:      max |x_sparse - x_dense| = {err:.3e}, reported \
         residual {:.3e} (n = 800)",
        sol.report.residual.unwrap()
    );
    assert!(err < 1e-12, "sparse and dense solves must agree");
    assert!(sol.report.residual.unwrap() < 1e-12);

    // Multi-RHS: one plan drives a block of right-hand sides.
    let k = 16;
    let bm = Matrix::from_fn(800, k, |i, j| ((i * 13 + j * 7) % 23) as f64 / 11.5 - 1.0);
    let xm = SolveRequest::lower()
        .solve_sparse(&small, &bm)
        .expect("multi-RHS solve");
    let xm_dense = dense::trsm_opts(&dense_opts, &small_dense, &bm).expect("dense trsm");
    let err_m = xm.x.max_abs_diff(&xm_dense).unwrap();
    println!("  multi-RHS:     k = {k}, max diff vs dense trsm = {err_m:.3e}");
    assert!(err_m < 1e-12);

    // The go-parallel rule: a barrier per level only pays when the rows
    // between two barriers carry enough work.  A deep narrow DAG (10 000
    // four-row levels) stays sequential under any budget; the same rows in
    // levels of 8 192 run as a 4-worker level sweep — bitwise identical to
    // the sequential answer either way.
    for (label, width) in [("deep DAG:     ", 4), ("wide levels:  ", 8192)] {
        let m = gen::deep_narrow_lower(40_000, width, 4, 2026);
        let b = gen::rhs_vec(40_000, 7);
        let plan = request.plan_sparse(&m, 1).expect("plan");
        println!("  {label} {plan}");
        let mut x = b.clone();
        let report = plan
            .execute_sparse_in_place(&m, x.as_mut_slice())
            .expect("solve");
        let ran = report.levels.unwrap();
        assert_eq!(ran.workers > 1, width == 8192);
        assert_eq!(ran.barriers, if ran.workers > 1 { ran.levels } else { 0 });
        let mut x1 = b.clone();
        m.solve_with(&sparse::SolveOpts::new().threads(1), &mut x1)
            .expect("sequential solve");
        assert_eq!(x, x1, "the rule's choice must not move a bit");
    }
}
