//! Quickstart: describe a triangular solve once with the staged
//! `SolveRequest → SolvePlan → Solution` API, inspect the plan the cost model
//! chose, execute it on a simulated distributed-memory machine, and read
//! the uniform report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use catrsm_suite::prelude::*;

fn main() {
    // Problem: a 256×256 lower-triangular system with 64 right-hand sides,
    // solved on 16 simulated processors arranged as a 4×4 grid.
    let n = 256;
    let k = 64;
    let grid_dim = 4;
    let p = grid_dim * grid_dim;
    let machine = Machine::new(p, MachineParams::cluster());

    // Stage 1 — the request: what to solve, backend-independent.
    let request = SolveRequest::lower().with_residual();

    // Stage 2 — the plan: inspectable *before* anything runs.  With no
    // algorithm pin, the Section VIII cost model makes the choice here.
    let plan = request.plan_distributed(n, k, p).expect("plan");
    println!("communication-avoiding TRSM quickstart");
    println!("  problem:        n = {n}, k = {k}, p = {p}");
    println!("  plan:           {plan}");
    if let PlanBackend::Distributed {
        algorithm: Algorithm::IterativeInversion(cfg),
        ..
    } = plan.backend
    {
        println!(
            "  planner grid:   p1 × p1 × p2 = {} × {} × {}, n0 = {}",
            cfg.p1, cfg.p1, cfg.p2, cfg.n0,
        );
    }
    if let Some(cost) = &plan.predicted_cost {
        println!(
            "  predicted:      S = {:.2e} messages, W = {:.2e} words, F = {:.2e} flops",
            cost.latency, cost.bandwidth, cost.flops
        );
    }

    // Stage 3 — execution on the simulated machine.
    let output = machine
        .run(|comm| {
            // Every rank builds the same global problem deterministically and
            // keeps only its cyclic piece (in a real application the data
            // would already be distributed).
            let grid = Grid2D::new(comm, grid_dim, grid_dim).expect("grid");
            let l_global = gen::well_conditioned_lower(n, 2024);
            let x_true = gen::rhs(n, k, 7);
            let b_global = dense::matmul(&l_global, &x_true);

            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            let sol = request.solve_distributed(&l, &b).expect("solve");

            // Verify against the known solution without gathering matrices.
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            let err = sol.x.rel_diff(&x_ref).expect("conformal");
            (err, sol.report.residual.unwrap_or(f64::NAN))
        })
        .expect("machine run");

    let worst_error = output.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let worst_residual = output.results.iter().map(|r| r.1).fold(0.0, f64::max);
    println!("  max rel error:  {worst_error:.3e}");
    println!("  max residual:   {worst_residual:.3e} (from the report)");
    println!(
        "  critical path:  S = {} messages",
        output.report.max_messages()
    );
    println!("                  W = {} words", output.report.max_words());
    println!("                  F = {} flops", output.report.max_flops());
    println!(
        "  model time:     {:.3e} s (α–β–γ virtual time)",
        output.report.virtual_time()
    );
    assert!(worst_error < 1e-8, "the solve must be accurate");
    assert!(worst_residual < 1e-8, "the reported residual must be small");

    // Same request, different algorithm pin: the recursive baseline on the
    // same instance, for the paper's latency comparison.
    let baseline = machine
        .run(|comm| {
            let grid = Grid2D::new(comm, grid_dim, grid_dim).expect("grid");
            let l_global = gen::well_conditioned_lower(n, 2024);
            let x_true = gen::rhs(n, k, 7);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let sol = SolveRequest::lower()
                .algorithm(Algorithm::Recursive { base_size: 32 })
                .solve_distributed(&l, &b)
                .expect("solve");
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            assert!(sol.x.rel_diff(&x_ref).expect("conformal") < 1e-8);
        })
        .expect("machine run");
    println!("\nrecursive baseline on the same instance:");
    println!(
        "  critical path:  S = {} messages (iterative used {})",
        baseline.report.max_messages(),
        output.report.max_messages()
    );
    println!(
        "  latency saving: {:.1}x fewer messages with the inversion-based algorithm",
        baseline.report.max_messages() as f64 / output.report.max_messages() as f64
    );

    // The same request shape drives the *local* dense backend too.
    let l_local = gen::well_conditioned_lower(n, 5);
    let x_local = gen::rhs(n, 4, 6);
    let b_local = dense::matmul(&l_local, &x_local);
    let dense_sol = SolveRequest::lower()
        .solve_dense(&l_local, &b_local)
        .expect("dense solve");
    println!(
        "\nsame request on the dense backend: {} flops, error {:.1e}",
        dense_sol.report.flops.get(),
        dense::norms::rel_diff(&dense_sol.x, &x_local)
    );
}
