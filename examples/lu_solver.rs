//! Solve a general (diagonally dominant) linear system with a distributed LU
//! factorization; both panel steps of the factorization are TRSMs.
//!
//! ```text
//! cargo run --release --example lu_solver
//! ```

use catrsm::apps::cholesky::FactorConfig;
use catrsm::apps::lu::{lu_factor, lu_solve};
use catrsm_suite::prelude::*;

fn main() {
    let n = 128;
    let k = 32;
    let grid_dim = 2;
    let machine = Machine::new(grid_dim * grid_dim, MachineParams::cluster());

    let cfg = FactorConfig {
        base_size: 32,
        trsm: Some(Algorithm::Recursive { base_size: 16 }),
    };

    let output = machine
        .run(|comm| {
            let grid = Grid2D::new(comm, grid_dim, grid_dim).expect("grid");
            let a_global = gen::diagonally_dominant(n, 555);
            let x_true = gen::rhs(n, k, 556);
            let b_global = dense::matmul(&a_global, &x_true);

            let a = DistMatrix::from_global(&grid, &a_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            let (l, u) = lu_factor(&a, &cfg).expect("lu");
            let x = lu_solve(&a, &b, &cfg).expect("solve");

            // The triangular phases through the staged API, with reports:
            // forward L·Y = B, then backward U·X = Y.
            let fwd = SolveRequest::lower()
                .algorithm(cfg.trsm)
                .solve_distributed(&l, &b)
                .expect("forward solve");
            let bwd = SolveRequest::upper()
                .algorithm(cfg.trsm)
                .with_residual()
                .solve_distributed(&u, &fwd.x)
                .expect("backward solve");
            let bwd_residual = bwd.report.residual.expect("requested residual");

            let rec = dense::matmul(&l.to_global(), &u.to_global());
            let factor_err = dense::norms::rel_diff(&rec, &a_global);
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            let solve_err = x.rel_diff(&x_ref).expect("conformal");
            let staged_err = bwd.x.rel_diff(&x_ref).expect("conformal");
            (factor_err, solve_err.max(staged_err), bwd_residual)
        })
        .expect("machine run");

    let factor_err = output.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let solve_err = output.results.iter().map(|r| r.1).fold(0.0, f64::max);
    let bwd_residual = output.results.iter().map(|r| r.2).fold(0.0, f64::max);
    println!("distributed LU solver (diagonally dominant system)");
    println!(
        "  problem:              n = {n}, k = {k}, p = {}",
        grid_dim * grid_dim
    );
    println!("  ‖L·U − A‖/‖A‖:         {factor_err:.3e}");
    println!("  solution error:        {solve_err:.3e}");
    println!("  U·X = Y residual:      {bwd_residual:.3e} (from the SolveReport)");
    println!(
        "  critical path:         S = {} messages, W = {} words, F = {} flops",
        output.report.max_messages(),
        output.report.max_words(),
        output.report.max_flops()
    );
    println!(
        "  α–β–γ virtual time:    {:.3e} s",
        output.report.virtual_time()
    );
    assert!(factor_err < 1e-8 && solve_err < 1e-6 && bwd_residual < 1e-8);
}
