//! Integration tests of the example applications: distributed Cholesky and LU
//! built on the communication-avoiding TRSM, plus cross-checks of the
//! distributed multiplication against the sequential kernels.

use catrsm::apps::cholesky::{cholesky_solve, FactorConfig};
use catrsm::apps::lu::lu_solve;
use catrsm::mm3d::mm3d_auto;
use catrsm_suite::prelude::*;

#[test]
fn spd_system_solved_with_iterative_trsm_panels() {
    // Use the paper's iterative TRSM (no pin: the planner's choice) inside
    // the Cholesky panel solves and verify the final linear-system solution.
    let out = Machine::new(4, MachineParams::cluster())
        .run(|comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let n = 64;
            let k = 8;
            let a_global = gen::spd(n, 71);
            let x_true = gen::rhs(n, k, 72);
            let b_global = dense::matmul(&a_global, &x_true);
            let a = DistMatrix::from_global(&grid, &a_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let cfg = FactorConfig {
                base_size: 16,
                trsm: None,
            };
            let x = cholesky_solve(&a, &b, &cfg).unwrap();
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            x.rel_diff(&x_ref).unwrap()
        })
        .unwrap();
    assert!(out.results.into_iter().all(|d| d < 1e-6));
}

#[test]
fn general_system_solved_with_lu_and_trsm() {
    let out = Machine::new(4, MachineParams::cluster())
        .run(|comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let n = 64;
            let k = 16;
            let a_global = gen::diagonally_dominant(n, 81);
            let x_true = gen::rhs(n, k, 82);
            let b_global = dense::matmul(&a_global, &x_true);
            let a = DistMatrix::from_global(&grid, &a_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let cfg = FactorConfig {
                base_size: 16,
                trsm: Some(Algorithm::Recursive { base_size: 8 }),
            };
            let x = lu_solve(&a, &b, &cfg).unwrap();
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            x.rel_diff(&x_ref).unwrap()
        })
        .unwrap();
    assert!(out.results.into_iter().all(|d| d < 1e-6));
}

#[test]
fn distributed_multiplication_matches_sequential_for_assorted_shapes() {
    let out = Machine::new(16, MachineParams::unit())
        .run(|comm| {
            let grid = Grid2D::new(comm, 4, 4).unwrap();
            let mut worst: f64 = 0.0;
            for (n, k, seed) in [(64usize, 16usize, 1u64), (64, 64, 2), (128, 32, 3)] {
                let a_global = gen::uniform(n, n, seed);
                let x_global = gen::uniform(n, k, seed + 10);
                let a = DistMatrix::from_global(&grid, &a_global);
                let x = DistMatrix::from_global(&grid, &x_global);
                let b = mm3d_auto(&a, &x, None).unwrap();
                let expect = DistMatrix::from_global(&grid, &dense::matmul(&a_global, &x_global));
                worst = worst.max(b.rel_diff(&expect).unwrap());
            }
            worst
        })
        .unwrap();
    assert!(out.results.into_iter().all(|d| d < 1e-10));
}

#[test]
fn factorization_solvers_work_on_a_larger_grid() {
    // 3x3 grid (9 ranks) with a size that is not divisible by the grid at
    // every recursion level: the base-case fallbacks must keep it correct.
    let out = Machine::new(9, MachineParams::unit())
        .run(|comm| {
            let grid = Grid2D::new(comm, 3, 3).unwrap();
            let n = 72;
            let k = 9;
            let a_global = gen::spd(n, 91);
            let x_true = gen::rhs(n, k, 92);
            let b_global = dense::matmul(&a_global, &x_true);
            let a = DistMatrix::from_global(&grid, &a_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let cfg = FactorConfig {
                base_size: 24,
                trsm: Some(Algorithm::Wavefront),
            };
            let x = cholesky_solve(&a, &b, &cfg).unwrap();
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            x.rel_diff(&x_ref).unwrap()
        })
        .unwrap();
    assert!(out.results.into_iter().all(|d| d < 1e-6));
}
