//! Cross-backend properties of the staged `SolveRequest → SolvePlan → Solution`
//! API:
//!
//! * one request with identical options yields **bitwise-identical**
//!   solutions at every worker budget (the budget is a throughput knob);
//! * the measured [`FlopCount`] of the staged API matches the kernels'
//!   own entry points, on every backend;
//! * transposed requests agree with solving the materialized transpose
//!   through the reference kernels, on every backend;
//! * a dense solve's kernel is the shape's, not the entry point's: the plan
//!   and the report name the same one, and one right-hand side returns the
//!   same bits however it is handed in.

use catrsm_suite::prelude::*;
use dense::SolveKernel;
use proptest::prelude::*;
use sparse::gen as sgen;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sparse: identical requests are bitwise identical across worker
    /// budgets, and the report's flops equal the executor's own count.  The
    /// factors have levels of six to eight thousand consecutive rows, heavy
    /// enough to clear the go-parallel rule — the budgets above 1 really run
    /// the level sweep, as the report confirms.
    #[test]
    fn sparse_request_is_bitwise_deterministic_across_threads(
        width in 6000usize..8400,
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

    /// Dense: the request path is bitwise identical to the dense kernel's
    /// own entry point with matching flops, for every triangle/diag, and
    /// transposed requests match the materialized transpose.
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
        let direct = dense::trsm_opts(&req.opts(), &a, &b).unwrap();
        prop_assert!(sol.x == direct, "the request path diverged from trsm_opts bitwise");
        prop_assert_eq!(sol.report.flops, dense::flops::trsm_flops(n, k));

        // Transposed request vs reference solve on the materialized Aᵀ.
        let solt = req.transposed().solve_dense(&a, &b).unwrap();
        let op_tri = if upper { Triangle::Lower } else { Triangle::Upper };
        let reference = dense::trsm_opts(
            &dense::SolveOpts::new(op_tri).diag(diag),
            &a.transpose(),
            &b,
        )
        .unwrap();
        prop_assert!(
            solt.x.max_abs_diff(&reference).unwrap() < 1e-8,
            "transposed dense request diverged from the materialized transpose"
        );
        prop_assert_eq!(solt.report.flops, dense::flops::trsm_flops(n, k));

        // Single-RHS path: a slice is the n×1 view — the same kernel, the
        // same bits as an n×1 matrix.
        let bv: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) % 13) as f64 - 6.0).collect();
        let mut sv = bv.clone();
        let plan = req.plan_dense(n, 1).unwrap();
        plan.execute_dense_in_place(&a, sv.as_mut_slice()).unwrap();
        let bm = Matrix::from_vec(n, 1, bv).unwrap();
        let sm = req.solve_dense(&a, &bm).unwrap();
        prop_assert!(sv == sm.x.as_slice(), "slice and n×1 matrix diverged");
    }
}

/// Why this plan: a dense plan says which of the solve's three kernels a
/// solve this wide runs — row substitution for one right-hand side, and the
/// blocked kernels on both sides of `k = NB` — from the same `dense`
/// function the solve decides with.
#[test]
fn dense_plan_says_whether_diagonal_blocks_are_inverted() {
    let nb = dense::TRSM_BLOCK;
    let n = 2 * nb + 3;
    for (k, kernel, why) in [
        (1, SolveKernel::RowSubstitution, "k = 1: rows substituted"),
        (
            nb - 1,
            SolveKernel::BlockedSubstitution,
            "k < NB: diagonal blocks substituted",
        ),
        (
            nb,
            SolveKernel::InvertedBlocks,
            "k >= NB: diagonal blocks inverted",
        ),
    ] {
        assert_eq!(dense::solve_kernel(k), kernel);
        // The right side counts rows of B.
        for side in [Side::Left, Side::Right] {
            let plan = SolveRequest::lower().side(side).plan_dense(n, k).unwrap();
            assert!(
                matches!(
                    plan.backend,
                    PlanBackend::Dense { block, kernel: planned, .. }
                        if block == nb && planned == kernel
                ),
                "k = {k}, {side:?}: {:?}",
                plan.backend
            );
            let shown = plan.to_string();
            assert!(shown.starts_with(plan.algorithm_name()), "{shown}");
            assert!(shown.contains(why), "{shown}");
        }
    }
}

/// The plan names the kernel the report says ran, on every dense execute
/// path — the plan's executors, the one-shot solve and the service's — for
/// one right-hand side and on both sides of `k = NB`.
#[test]
fn plan_and_report_name_the_same_dense_kernel() {
    let nb = dense::TRSM_BLOCK;
    let n = nb + 9;
    let l = Arc::new(gen::well_conditioned_lower(n, 81));
    let svc = SolveService::new(ServiceConfig::default());
    let mut names = Vec::new();
    for k in [1, nb - 1, nb] {
        for side in [Side::Left, Side::Right] {
            let req = SolveRequest::lower().side(side);
            let b = match side {
                Side::Left => gen::rhs(n, k, 82),
                Side::Right => gen::rhs(k, n, 82),
            };
            let plan = req.plan_dense(n, k).unwrap();
            let name = plan.algorithm_name();
            let what = format!("k = {k}, {side:?}");
            let mut reports = vec![
                plan.execute_dense(&l, &b).unwrap().report,
                plan.execute_dense_in_place(&l, &mut b.clone()).unwrap(),
                req.solve_dense(&l, &b).unwrap().report,
                req.with_residual().solve_dense(&l, &b).unwrap().report,
                svc.solve(&req, &Operand::Dense(Arc::clone(&l)), &b)
                    .unwrap()
                    .report,
            ];
            if (k, side) == (1, Side::Left) {
                let v = b.as_slice();
                reports.push(
                    plan.execute_dense_in_place(&l, &mut v.to_vec()[..])
                        .unwrap(),
                );
                for r in [req, req.with_residual()] {
                    let operand = Operand::Dense(Arc::clone(&l));
                    reports.push(svc.solve_vec(&r, &operand, v).unwrap().report);
                    svc.submit(ServiceRequest {
                        request: r,
                        operand,
                        rhs: v.to_vec(),
                    })
                    .unwrap();
                    reports.push(svc.flush().remove(0).result.unwrap());
                }
            }
            for report in reports {
                assert_eq!(report.algorithm, name, "{what}");
            }
            names.push(name);
        }
    }
    names.dedup();
    assert_eq!(names.len(), 3, "three kernels, three names: {names:?}");
}

/// One right-hand side has one answer: a one-column solve returns the same
/// bits through every entry point — a plain `n×1` matrix, a slice in place,
/// and the service's matrix and vector paths, with and without a residual.
#[test]
fn one_right_hand_side_gets_one_answer() {
    let svc = SolveService::new(ServiceConfig::default());
    for n in [40, 64, 200] {
        let l = gen::well_conditioned_lower(n, n as u64);
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 5.5 - 1.0)
            .collect();
        let column = Matrix::from_vec(n, 1, b.clone()).unwrap();
        for (tri, a) in [
            (Triangle::Lower, l.clone()),
            (Triangle::Upper, l.transpose()),
        ] {
            let operand = Operand::Dense(Arc::new(a.clone()));
            for transpose in [Transpose::No, Transpose::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let req = SolveRequest::new(tri).transpose(transpose).diag(diag);
                    let what = format!("n = {n}, {:?}", req.opts());
                    let x = req.solve_dense(&a, &column).unwrap().x.into_vec();
                    let mut in_place = b.clone();
                    req.plan_dense(n, 1)
                        .unwrap()
                        .execute_dense_in_place(&a, in_place.as_mut_slice())
                        .unwrap();
                    let served = svc.solve(&req, &operand, &column).unwrap().x.into_vec();
                    let vec = svc.solve_vec(&req, &operand, &b).unwrap().x;
                    let vec_residual = svc.solve_vec(&req.with_residual(), &operand, &b).unwrap();
                    assert!(vec_residual.report.residual.unwrap() < 1e-12, "{what}");
                    for (path, got) in [
                        ("execute_dense_in_place", &in_place),
                        ("SolveService::solve", &served),
                        ("SolveService::solve_vec", &vec),
                        ("solve_vec with residual", &vec_residual.x),
                    ] {
                        assert!(*got == x, "{what}: {path} diverged from solve_dense");
                    }
                }
            }
        }
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
            let lt = pgrid::redist::transpose(&l).unwrap();
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
