//! Solve a symmetric positive-definite linear system with a distributed
//! Cholesky factorization whose panel solves are communication-avoiding
//! TRSMs — the first workload the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example cholesky_solver
//! ```

use catrsm::apps::cholesky::{cholesky_factor, cholesky_solve, FactorConfig};
use catrsm_suite::prelude::*;

fn main() {
    let n = 128;
    let k = 16;
    let grid_dim = 2;
    let machine = Machine::new(grid_dim * grid_dim, MachineParams::cluster());

    let cfg = FactorConfig {
        base_size: 32,
        trsm: Some(Algorithm::Recursive { base_size: 16 }),
    };

    let output = machine
        .run(|comm| {
            let grid = Grid2D::new(comm, grid_dim, grid_dim).expect("grid");
            // A well-conditioned SPD system with a known solution.
            let a_global = gen::spd(n, 99);
            let x_true = gen::rhs(n, k, 100);
            let b_global = dense::matmul(&a_global, &x_true);

            let a = DistMatrix::from_global(&grid, &a_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            // Factor once, then solve (forward + backward TRSM; the
            // backward pass is a transposed SolveRequest on the stored L).
            let l = cholesky_factor(&a, &cfg).expect("cholesky");
            let x = cholesky_solve(&a, &b, &cfg).expect("solve");

            // The staged API reports per-solve: run the forward
            // substitution explicitly and read the measured counters.
            let fwd = SolveRequest::lower()
                .algorithm(cfg.trsm)
                .with_residual()
                .solve(&l, &b)
                .expect("forward solve");
            let fwd_residual = fwd.report.residual.expect("requested residual");

            // Check the factor and the solution.
            let l_global = l.to_global();
            let factor_err =
                dense::norms::rel_diff(&dense::matmul(&l_global, &l_global.transpose()), &a_global);
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            let solve_err = x.rel_diff(&x_ref).expect("conformal");
            (factor_err, solve_err, fwd_residual)
        })
        .expect("machine run");

    let factor_err = output.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let solve_err = output.results.iter().map(|r| r.1).fold(0.0, f64::max);
    let fwd_residual = output.results.iter().map(|r| r.2).fold(0.0, f64::max);
    println!("distributed Cholesky solver (SPD system)");
    println!(
        "  problem:              n = {n}, k = {k}, p = {}",
        grid_dim * grid_dim
    );
    println!("  ‖L·Lᵀ − A‖/‖A‖:        {factor_err:.3e}");
    println!("  solution error:        {solve_err:.3e}");
    println!("  L·Y = B residual:      {fwd_residual:.3e} (from the SolveReport)");
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
    assert!(factor_err < 1e-8 && solve_err < 1e-6 && fwd_residual < 1e-8);
}
