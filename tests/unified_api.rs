//! Cross-backend properties of the staged `SolveRequest → SolvePlan → Solution`
//! API:
//!
//! * one request with identical options yields **bitwise-identical**
//!   solutions at every worker budget (the budget is a throughput knob);
//! * the measured [`FlopCount`] of the staged API matches the kernels'
//!   own entry points, on every backend;
//! * transposed requests agree with solving the materialized transpose
//!   through the reference kernels, on every backend.

use catrsm_suite::prelude::*;
use proptest::prelude::*;
use sparse::gen as sgen;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sparse: identical requests are bitwise identical across worker
    /// budgets, and the report's flops equal the executor's own count.  The
    /// factors have levels of a thousand-odd consecutive rows, heavy enough
    /// to clear the go-parallel rule — the budgets above 1 really run the
    /// level sweep, as the report confirms.
    #[test]
    fn sparse_request_is_bitwise_deterministic_across_threads(
        width in 1024usize..2100,
        blocks in 3usize..7,
        k in 1usize..6,
        transposed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = width * blocks;
        // Seven consecutive dependencies per row leave no column of a block
        // unused, so the transpose's levels are whole blocks too.
        let m = sgen::deep_narrow_lower(n, width, 7, seed);
        let b = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 29 + 3) % 31) as f64 / 15.5 - 1.0);
        let base = SolveRequest::lower().transpose(if transposed {
            Transpose::Yes
        } else {
            Transpose::No
        });
        let reference = base.threads(1).solve_sparse(&m, &b).unwrap();
        prop_assert_eq!(reference.report.flops, m.solve_flops(k));
        for threads in [2usize, 4, 6] {
            let sol = base.threads(threads).solve_sparse(&m, &b).unwrap();
            prop_assert_eq!(sol.report.levels.unwrap().workers, threads);
            prop_assert!(
                sol.x == reference.x,
                "worker budget {} changed the solution bits", threads
            );
            prop_assert_eq!(sol.report.flops, reference.report.flops);
        }
    }

    /// Dense: the request path is bitwise identical to the old `trsm` /
    /// `trsv` entry points with matching flops, for every triangle/diag,
    /// and transposed requests match the materialized transpose.
    #[test]
    fn dense_request_matches_old_entry_points(
        n in 1usize..150,
        k in 1usize..8,
        upper in any::<bool>(),
        unit in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let l = gen::well_conditioned_lower(n, seed);
        let (tri, a) = if upper {
            (Triangle::Upper, l.transpose())
        } else {
            (Triangle::Lower, l)
        };
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };
        let b = Matrix::from_fn(n, k, |i, j| ((i * 11 + j * 5 + 1) % 17) as f64 - 8.0);
        let req = SolveRequest::new(tri).diag(diag);
        let sol = req.solve_dense(&a, &b).unwrap();
        let old = dense::trsm(tri, diag, &a, &b).unwrap();
        prop_assert!(sol.x == old, "new API diverged from trsm bitwise");
        prop_assert_eq!(sol.report.flops, dense::flops::trsm_flops(n, k));

        // Transposed request vs reference solve on the materialized Aᵀ.
        let solt = req.transposed().solve_dense(&a, &b).unwrap();
        let op_tri = if upper { Triangle::Lower } else { Triangle::Upper };
        let reference = dense::trsm(op_tri, diag, &a.transpose(), &b).unwrap();
        prop_assert!(
            solt.x.max_abs_diff(&reference).unwrap() < 1e-8,
            "transposed dense request diverged from the materialized transpose"
        );
        prop_assert_eq!(solt.report.flops, dense::flops::trsm_flops(n, k));

        // Single-RHS path: bitwise the `trsv` kernel, and it agrees with
        // the block path column by column.
        let bv: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) % 13) as f64 - 6.0).collect();
        let mut sv = bv.clone();
        let plan = req.plan_dense(n, 1).unwrap();
        plan.execute_dense_vec_in_place(&a, &mut sv).unwrap();
        prop_assert!(sv == dense::trsv(tri, diag, &a, &bv).unwrap());
        let bm = Matrix::from_vec(n, 1, bv).unwrap();
        let sm = req.solve_dense(&a, &bm).unwrap();
        for (v, m) in sv.iter().zip(sm.x.as_slice()) {
            prop_assert!((v - m).abs() < 1e-9);
        }
    }
}

/// Why this plan: a dense plan says which of the blocked solve's two
/// kernels a solve this wide runs — on both sides of `k = NB` — from the
/// same `dense` function the kernel decides with, and the report names the
/// kernel that ran.
#[test]
fn dense_plan_says_whether_diagonal_blocks_are_inverted() {
    let nb = dense::TRSM_BLOCK;
    let n = 2 * nb + 3;
    let l = gen::well_conditioned_lower(n, 5);
    let req = SolveRequest::lower();
    for (k, inverted, name) in [
        (nb - 1, false, "dense blocked substitution"),
        (nb, true, "dense blocked solve, inverted diagonal blocks"),
    ] {
        assert_eq!(dense::inverts_diagonal_blocks(k), inverted);
        let plan = req.plan_dense(n, k).unwrap();
        assert!(
            matches!(
                plan.backend,
                PlanBackend::Dense { block, inverts_blocks, .. }
                    if block == nb && inverts_blocks == inverted
            ),
            "k = {k}: {:?}",
            plan.backend
        );
        assert_eq!(plan.algorithm_name(), name);
        let shown = plan.to_string();
        assert!(shown.starts_with(name), "{shown}");
        assert!(
            shown.contains(if inverted {
                "diagonal blocks inverted"
            } else {
                "diagonal blocks substituted"
            }),
            "{shown}"
        );

        let x_true = gen::rhs(n, k, 6);
        let b = dense::matmul(&l, &x_true);
        let sol = plan.execute_dense(&l, &b).unwrap();
        assert_eq!(sol.report.algorithm, name);
        assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-12);
        // The right side counts rows of B.
        let right = req.side(Side::Right).plan_dense(n, k).unwrap();
        assert_eq!(right.algorithm_name(), name);
        let sol = right.execute_dense(&l, &b.transpose()).unwrap();
        assert_eq!(sol.report.algorithm, name);
    }
}

/// Distributed: a transposed request equals solving the explicitly
/// transposed distributed matrix, and an unpinned request's plan is the
/// configuration it executes.
#[test]
fn distributed_transposed_request_matches_materialized_transpose() {
    let n = 32;
    let k = 8;
    let out = Machine::new(4, MachineParams::unit())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let l_global = gen::well_conditioned_lower(n, 61);
            let x_true = gen::rhs(n, k, 62);
            let bt_global = dense::gemm::matmul(&l_global.transpose(), &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let bt = DistMatrix::from_global(&grid, &bt_global);
            let alg = Algorithm::Recursive { base_size: 8 };

            // Transposed request on the stored L…
            let sol = SolveRequest::lower()
                .transposed()
                .algorithm(alg)
                .solve_distributed(&l, &bt)
                .unwrap();
            // …vs an upper request on the materialized transpose.
            let lt = catrsm::transpose_dist(&l).unwrap();
            let reference = SolveRequest::upper()
                .algorithm(alg)
                .solve_distributed(&lt, &bt)
                .unwrap();
            (
                sol.x.rel_diff(&reference.x).unwrap(),
                dense::norms::rel_diff(&sol.x.to_global(), &x_true),
            )
        })
        .unwrap();
    for (vs_ref, vs_true) in out.results {
        assert_eq!(vs_ref, 0.0, "both routes must run the identical solve");
        assert!(vs_true < 1e-8);
    }
}

#[test]
fn auto_plan_is_the_configuration_that_executes() {
    let n = 64;
    let k = 16;
    let out = Machine::new(4, MachineParams::unit())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let l_global = gen::well_conditioned_lower(n, 71);
            let x_true = gen::rhs(n, k, 72);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            let plan = SolveRequest::lower()
                .plan_distributed(n, k, comm.size())
                .unwrap();
            let PlanBackend::Distributed { algorithm, .. } = &plan.backend else {
                panic!("expected a distributed plan");
            };
            // Pinning the request to the algorithm the planner chose must
            // execute the identical solve.
            let auto = plan.execute_distributed(&l, &b).unwrap();
            let pinned = SolveRequest::lower()
                .algorithm(*algorithm)
                .solve_distributed(&l, &b)
                .unwrap();
            (
                auto.x.rel_diff(&pinned.x).unwrap(),
                dense::norms::rel_diff(&auto.x.to_global(), &x_true),
                auto.report.phases.is_some(),
            )
        })
        .unwrap();
    for (vs_pinned, vs_true, has_phases) in out.results {
        assert_eq!(
            vs_pinned, 0.0,
            "the unpinned request must execute exactly its plan"
        );
        assert!(vs_true < 1e-8);
        assert!(
            has_phases,
            "no pin resolves to it_inv, which reports phases"
        );
    }
}
