use super::*;
use crate::api::Algorithm;
use crate::it_inv_trsm::ItInvConfig;
use dense::flops::{solve_flops, trsm_flops};
use dense::gen;
use dense::{Matrix, Side, Transpose, Triangle};
use pgrid::DistMatrix;
use pgrid::Grid2D;
use simnet::{Machine, MachineParams};
use sparse::gen as sgen;
use sparse::SparseTri;

/// One right-hand-side vector through a sparse plan's in-place executor.
fn sparse_vec(plan: &SolvePlan, m: &SparseTri, b: &[f64]) -> (Vec<f64>, SolveReport) {
    let mut x = b.to_vec();
    let report = plan.execute_sparse_in_place(m, x.as_mut_slice()).unwrap();
    (x, report)
}

// -- dense -------------------------------------------------------------

#[test]
fn dense_plan_and_execution_round_trip() {
    let n = 130;
    let l = gen::well_conditioned_lower(n, 1);
    // Substituted diagonal blocks at k = 7, inverted ones at k = 64: each
    // plan quotes, and each solve reports, what its kernel runs.
    for k in [7, 64] {
        let x_true = gen::rhs(n, k, 2);
        let b = dense::matmul(&l, &x_true);
        let req = SolveRequest::lower().with_residual();
        let plan = req.plan_dense(n, k).unwrap();
        assert!(matches!(plan.backend, PlanBackend::Dense { .. }));
        assert_eq!(plan.predicted_flops, solve_flops(n, k));
        let sol = plan.execute_dense(&l, &b).unwrap();
        assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
        assert_eq!(sol.report.flops, solve_flops(n, k));
        assert!(sol.report.residual.unwrap() < 1e-12);
        assert!(sol.report.comm.is_none());
        // The dense kernel's own entry point and the staged API agree
        // bitwise.
        let direct = dense::trsm_opts(&req.opts(), &l, &b).unwrap();
        assert_eq!(direct, sol.x);
    }
    assert_eq!(solve_flops(n, 7), trsm_flops(n, 7));
    assert!(solve_flops(n, 64).get() > trsm_flops(n, 64).get());
}

#[test]
fn dense_transposed_request_solves_lt() {
    let n = 90;
    let k = 5;
    let l = gen::well_conditioned_lower(n, 3);
    let x_true = gen::rhs(n, k, 4);
    let b = dense::gemm::matmul(&l.transpose(), &x_true);
    let sol = SolveRequest::lower()
        .transposed()
        .with_residual()
        .solve_dense(&l, &b)
        .unwrap();
    assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-8);
    assert!(sol.report.residual.unwrap() < 1e-12);
}

#[test]
fn dense_vec_and_unit_diagonal() {
    let n = 64;
    let mut l = gen::well_conditioned_lower(n, 5);
    for i in 0..n {
        l[(i, i)] = 123.0; // must be ignored under Diag::Unit
    }
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
    let mut l_unit = l.clone();
    for i in 0..n {
        l_unit[(i, i)] = 1.0;
    }
    let xt = Matrix::from_vec(n, 1, x_true.clone()).unwrap();
    let b = dense::matmul(&l_unit, &xt);
    let req = SolveRequest::lower().unit_diagonal().with_residual();
    let sol = req.solve_dense(&l, &b).unwrap();
    for (got, want) in sol.x.as_slice().iter().zip(&x_true) {
        assert!((got - want).abs() < 1e-10);
    }
    assert!(sol.report.residual.unwrap() < 1e-12);
    // One right-hand side is one kernel, however it is handed in: a slice
    // and an n×1 view through the in-place executor return the bits the
    // allocating form (residual and all) returned above.
    let plan = req.plan_dense(n, 1).unwrap();
    let mut of_slice = b.as_slice().to_vec();
    plan.execute_dense_in_place(&l, of_slice.as_mut_slice())
        .unwrap();
    let mut of_matrix = b.clone();
    plan.execute_dense_in_place(&l, of_matrix.as_view_mut())
        .unwrap();
    assert_eq!(of_slice, sol.x.as_slice());
    assert_eq!(of_matrix, sol.x);
}

#[test]
fn plan_backend_mismatch_is_rejected() {
    let plan = SolveRequest::lower().plan_dense(8, 1).unwrap();
    let m = sgen::random_lower(8, 2, 1);
    let mut x = [1.0; 8];
    assert!(plan.execute_sparse_in_place(&m, &mut x[..]).is_err());
    let l = gen::well_conditioned_lower(8, 1);
    let sparse_plan = SolveRequest::lower().plan_sparse(&m, 1).unwrap();
    assert!(sparse_plan.execute_dense_in_place(&l, &mut x[..]).is_err());
}

#[test]
fn plan_rejects_operands_it_was_not_lowered_for() {
    // A sparse plan validated against a lower matrix must not silently
    // execute against an upper (or differently sized) one.
    let lower = sgen::random_lower(16, 2, 1);
    let upper = sgen::random_upper(16, 2, 2);
    let plan = SolveRequest::lower().plan_sparse(&lower, 1).unwrap();
    assert!(plan
        .execute_sparse_in_place(&upper, &mut [1.0; 16][..])
        .is_err());
    let small = sgen::random_lower(8, 2, 3);
    assert!(plan
        .execute_sparse_in_place(&small, &mut [1.0; 8][..])
        .is_err());
    // Same for dense plans.
    let dplan = SolveRequest::lower().plan_dense(16, 1).unwrap();
    let wrong = gen::well_conditioned_lower(8, 4);
    assert!(dplan
        .execute_dense_in_place(&wrong, &mut [1.0; 8][..])
        .is_err());
}

#[test]
fn dense_residual_ignores_the_opposite_triangle() {
    // A combined-workspace operand (garbage in the triangle the solver
    // never reads) must still report a tiny residual for a correct
    // solve.
    let n = 40;
    let l = gen::well_conditioned_lower(n, 9);
    let x_true = gen::rhs(n, 3, 10);
    let b = dense::matmul(&l, &x_true);
    let mut workspace = l.clone();
    for i in 0..n {
        for j in (i + 1)..n {
            workspace[(i, j)] = 1e6; // "U" half of an LU workspace
        }
    }
    let sol = SolveRequest::lower()
        .with_residual()
        .solve_dense(&workspace, &b)
        .unwrap();
    assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-9);
    assert!(
        sol.report.residual.unwrap() < 1e-12,
        "residual must measure the effective triangular operand, got {}",
        sol.report.residual.unwrap()
    );
}

// -- sparse ------------------------------------------------------------

#[test]
fn sparse_plan_reports_levels_and_workers() {
    // 6 levels of 8 192 rows, ~57 000 stored entries each: heavy
    // enough for a budget of 4 to become 4 workers.
    let n = 49_152;
    let m = sgen::deep_narrow_lower(n, 8192, 6, 7);
    let b = sgen::rhs_vec(n, 8);
    let req = SolveRequest::lower().threads(4);
    let plan = req.plan_sparse(&m, 1).unwrap();
    let PlanBackend::Sparse {
        workers,
        levels,
        runs,
        predicted_barriers,
        max_level_width,
        nnz,
        via_transpose,
    } = plan.backend
    else {
        panic!("expected a sparse plan");
    };
    assert_eq!(
        workers, 4,
        "heavy levels turn the whole budget into workers"
    );
    assert_eq!((levels, runs, max_level_width), (6, 6, 8192));
    assert_eq!(predicted_barriers, levels, "one barrier per level");
    assert_eq!(nnz, m.nnz());
    assert!(!via_transpose);
    assert_eq!(
        plan.algorithm_name(),
        "sparse level-scheduled parallel sweep"
    );
    assert!(
        plan.predicted_cost.is_none(),
        "a sparse plan quotes its flops"
    );
    let (x, report) = sparse_vec(&plan, &m, &b);
    assert_eq!(
        report.levels.unwrap(),
        LevelReport {
            workers,
            levels,
            barriers: predicted_barriers
        }
    );
    assert_eq!(report.algorithm, plan.algorithm_name());
    assert_eq!(plan.predicted_flops, report.flops);
    assert_eq!(report.flops, m.solve_flops(1));
    // Identical to the raw executor's slice path, and so is the n×1 view
    // of a matrix through the same in-place executor.
    let mut direct = b.clone();
    m.solve_with(&sparse::SolveOpts::new().threads(4), &mut direct)
        .unwrap();
    assert_eq!(x, direct);
    let mut via_view = Matrix::from_vec(n, 1, b.clone()).unwrap();
    let view_report = plan
        .execute_sparse_in_place(&m, via_view.as_view_mut())
        .unwrap();
    assert_eq!(via_view.as_slice(), direct);
    assert_eq!(view_report.levels, report.levels);
    // And bitwise what a budget of 1 computes.
    let seq_plan = SolveRequest::lower().threads(1).plan_sparse(&m, 1).unwrap();
    assert_eq!(sparse_vec(&seq_plan, &m, &b).0, x);
}

#[test]
fn sparse_plans_kept_sequential_report_the_analysed_shape() {
    // A band chains every row: 20 000 one-row levels.  The rule looks,
    // declines, and both the plan and the measured report keep what it
    // saw — built from the shape the executor returned, not a second
    // resolution.
    let m = sgen::banded_lower(20_000, 4, 19);
    let b = sgen::rhs_vec(m.n(), 8);
    let plan = SolveRequest::lower().threads(4).plan_sparse(&m, 1).unwrap();
    let PlanBackend::Sparse {
        workers,
        levels,
        predicted_barriers,
        max_level_width,
        ..
    } = plan.backend
    else {
        panic!("expected a sparse plan");
    };
    assert_eq!((workers, predicted_barriers), (1, 0));
    assert_eq!((levels, max_level_width), (20_000, 1));
    let (_, report) = sparse_vec(&plan, &m, &b);
    assert_eq!(plan.predicted_flops, report.flops);
    assert_eq!(
        report.levels.unwrap(),
        LevelReport {
            workers: 1,
            levels: 20_000,
            barriers: 0
        }
    );
    assert_eq!(report.algorithm, "sparse sequential sweep");
    assert_eq!(m.analysis_count(), 1);
}

#[test]
fn sparse_transposed_and_residual() {
    let n = 400;
    let m = sgen::random_lower(n, 6, 11);
    let b = sgen::rhs_vec(n, 12);
    let sol = SolveRequest::lower()
        .transposed()
        .with_residual()
        .solve_sparse(&m, &Matrix::from_vec(n, 1, b.clone()).unwrap())
        .unwrap();
    assert!(sol.report.residual.unwrap() < 1e-12);
    // Reference: solve the materialized transpose.
    let xt = m.transpose().solve(&b).unwrap();
    assert_eq!(sol.x.as_slice(), xt);
}

#[test]
fn sparse_request_validates_against_matrix() {
    let m = sgen::random_lower(32, 3, 1);
    assert!(SolveRequest::upper().plan_sparse(&m, 1).is_err());
    assert!(SolveRequest::lower()
        .unit_diagonal()
        .plan_sparse(&m, 1)
        .is_err());
    assert!(SolveRequest::lower()
        .side(Side::Right)
        .plan_sparse(&m, 1)
        .is_err());
}

#[test]
fn one_shot_reuse_plans_sequential_without_analysis() {
    // A declared one-shot solve cannot repay an analysis, whatever the
    // pattern would have said: sequential and never analysed — and bitwise
    // the level sweep's answer.
    let m = sgen::deep_narrow_lower(40_000, 8192, 6, 72);
    let b = sgen::rhs_vec(m.n(), 73);
    let plan = SolveRequest::lower()
        .threads(4)
        .reuse(1)
        .plan_sparse(&m, 1)
        .unwrap();
    let PlanBackend::Sparse {
        workers,
        levels,
        predicted_barriers,
        ..
    } = plan.backend
    else {
        panic!("expected a sparse plan");
    };
    assert_eq!((workers, levels, predicted_barriers), (1, 0, 0));
    assert_eq!(plan.algorithm_name(), "sparse sequential sweep");
    let (x, report) = sparse_vec(&plan, &m, &b);
    assert_eq!(plan.predicted_flops, report.flops);
    let lr = report.levels.unwrap();
    assert_eq!((lr.workers, lr.levels, lr.barriers), (1, 0, 0));
    assert_eq!(m.analysis_count(), 0, "one-shot plans never analyze");
    // A declared 100-apply loop amortizes the analysis and takes the
    // level sweep on the same factor.
    let plan = SolveRequest::lower()
        .threads(4)
        .reuse(100)
        .plan_sparse(&m, 1)
        .unwrap();
    let PlanBackend::Sparse {
        workers,
        levels,
        predicted_barriers,
        ..
    } = plan.backend
    else {
        panic!("expected a sparse plan");
    };
    assert_eq!(workers, 4);
    assert_eq!(predicted_barriers, levels);
    assert!(levels > 0, "the level sweep crosses its barriers");
    let (y, report) = sparse_vec(&plan, &m, &b);
    assert_eq!(plan.predicted_flops, report.flops);
    assert_eq!(y, x, "bitwise identical");
}

#[test]
fn sparse_sequential_plan_never_analyzes() {
    let m = sgen::random_lower(300, 3, 5);
    let plan = SolveRequest::lower().threads(1).plan_sparse(&m, 1).unwrap();
    let b = sgen::rhs_vec(300, 6);
    let (_, report) = sparse_vec(&plan, &m, &b);
    assert_eq!(report.levels.unwrap().workers, 1);
    assert_eq!(report.levels.unwrap().barriers, 0);
    assert_eq!(m.analysis_count(), 0, "sequential plans stay analysis-free");
}

// -- distributed -------------------------------------------------------

fn dist_instance(grid: &Grid2D, n: usize, k: usize, seed: u64) -> (DistMatrix, DistMatrix, Matrix) {
    let l_global = gen::well_conditioned_lower(n, seed);
    let x_true = gen::rhs(n, k, seed + 1);
    let b_global = dense::matmul(&l_global, &x_true);
    (
        DistMatrix::from_global(grid, &l_global),
        DistMatrix::from_global(grid, &b_global),
        x_true,
    )
}

#[test]
fn distributed_auto_plan_is_inspectable_and_executes() {
    let n = 64;
    let k = 16;
    let out = Machine::new(4, MachineParams::cluster())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let (l, b, x_true) = dist_instance(&grid, n, k, 21);
            let req = SolveRequest::lower().with_residual();
            let plan = req.plan_distributed(n, k, comm.size()).unwrap();
            // No pin: resolved to the planner's iterative configuration.
            let PlanBackend::Distributed {
                algorithm: Algorithm::IterativeInversion(cfg),
                ..
            } = plan.backend
            else {
                panic!("expected an iterative distributed plan");
            };
            assert_eq!(cfg.p1 * cfg.p1 * cfg.p2, 4);
            assert!(plan.predicted_cost.is_some());
            let sol = plan.execute_distributed(&l, &b).unwrap();
            let err = dense::norms::rel_diff(&sol.x.to_global(), &x_true);
            let phases = sol.report.phases.expect("it_inv attaches phases");
            let comm_delta = sol.report.comm.expect("distributed attaches counters");
            (
                err,
                sol.report.residual.unwrap(),
                phases.total().flops,
                comm_delta.flops,
                sol.report.flops.get(),
            )
        })
        .unwrap();
    for (err, residual, phase_flops, comm_flops, report_flops) in out.results {
        assert!(err < 1e-8, "{err}");
        assert!(residual < 1e-10);
        assert_eq!(comm_flops, report_flops);
        assert!(phase_flops > 0 && phase_flops <= report_flops);
    }
}

#[test]
fn a_distributed_plan_quotes_the_busiest_ranks_flops() {
    // The two ledger shapes, on 16 ranks: the plan's F is the most flops
    // any rank's report says it did.
    for (n, k) in [(1024, 16), (384, 384)] {
        let plan = SolveRequest::lower().plan_distributed(n, k, 16).unwrap();
        let out = Machine::new(16, MachineParams::cluster())
            .run(|comm| {
                let grid = Grid2D::new(comm, 4, 4).unwrap();
                let l = DistMatrix::from_global(&grid, &gen::well_conditioned_lower(n, 1));
                let b = DistMatrix::from_global(&grid, &gen::rhs(n, k, 2));
                plan.execute_distributed(&l, &b).unwrap().report.flops.get()
            })
            .unwrap();
        let busiest = out.results.into_iter().max();
        assert_eq!(busiest, Some(plan.predicted_flops.get()), "n={n} k={k}");
    }
}

#[test]
fn every_distributed_algorithm_feeds_the_same_report() {
    let n = 64;
    let k = 16;
    for alg in [
        Algorithm::Recursive { base_size: 16 },
        Algorithm::IterativeInversion(ItInvConfig {
            p1: 2,
            p2: 1,
            n0: 16,
            inv_base: 8,
        }),
        Algorithm::Wavefront,
    ] {
        let out = Machine::new(4, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let (l, b, x_true) = dist_instance(&grid, n, k, 31);
                let sol = SolveRequest::lower()
                    .algorithm(alg)
                    .solve_distributed(&l, &b)
                    .unwrap();
                let err = dense::norms::rel_diff(&sol.x.to_global(), &x_true);
                (
                    err,
                    sol.report.comm.is_some(),
                    sol.report.flops.get(),
                    sol.report.phases.is_some(),
                )
            })
            .unwrap();
        let expect_phases = matches!(alg, Algorithm::IterativeInversion(_));
        for (err, has_comm, flops, has_phases) in out.results {
            assert!(err < 1e-8, "{alg:?}: {err}");
            assert!(has_comm, "{alg:?} must report its cost counters");
            assert_eq!(has_phases, expect_phases);
            let _ = flops;
        }
    }
}

#[test]
fn an_it_inv_drift_table_is_its_phase_rows_and_its_total_is_the_plan() {
    let (n, k) = (64, 16);
    let pinned = Algorithm::IterativeInversion(ItInvConfig {
        p1: 2,
        p2: 1,
        n0: 16,
        inv_base: 8,
    });
    for algorithm in [None, Some(pinned)] {
        let out = Machine::new(4, MachineParams::cluster())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let (l, b, _) = dist_instance(&grid, n, k, 41);
                let request = SolveRequest::lower().algorithm(algorithm);
                let plan = request.plan_distributed(n, k, comm.size()).unwrap();
                let sol = plan.execute_distributed(&l, &b).unwrap();
                let drift = plan.drift_report(&sol.report, costmodel::Machine::cluster());
                (plan, sol.report, drift)
            })
            .unwrap();
        // The layout changes are priced: their rows quote the most any rank
        // sent or received in them.
        for row in [0, 4] {
            let most = |of: fn(&costmodel::Cost) -> f64| {
                let measured = out
                    .results
                    .iter()
                    .map(|(_, _, drift)| of(&drift.rows[row].measured));
                measured.fold(0.0, f64::max)
            };
            for (_, _, drift) in &out.results {
                let predicted = drift.rows[row].predicted;
                assert_eq!(predicted.latency, most(|c| c.latency), "row {row}: S");
                assert_eq!(predicted.bandwidth, most(|c| c.bandwidth), "row {row}: W");
            }
        }
        for (plan, report, drift) in out.results {
            let names: Vec<&str> = drift.rows.iter().map(|r| r.phase.as_str()).collect();
            assert_eq!(
                names,
                [
                    "itinv: setup",
                    "itinv: inversion",
                    "itinv: solve",
                    "itinv: update",
                    "itinv: finalize"
                ]
            );
            // TOTAL is the plan's prediction, bit for bit, and the solve's
            // measurement: no row contains another.
            let predicted = plan.predicted_cost.unwrap();
            assert_eq!(drift.total_predicted(), predicted);
            assert_eq!(plan.predicted_flops.get(), predicted.flops.round() as u64);
            assert_eq!(drift.total_measured().flops, report.flops.get() as f64);
        }
    }
}

#[test]
fn an_it_inv_prediction_follows_the_configuration() {
    let predicted = |cfg: Option<ItInvConfig>, n, k, p| {
        let request = SolveRequest::lower().algorithm(cfg.map(Algorithm::IterativeInversion));
        let plan = request.plan_distributed(n, k, p).unwrap();
        let PlanBackend::Distributed {
            algorithm: Algorithm::IterativeInversion(resolved),
            ..
        } = plan.backend
        else {
            panic!("expected an iterative distributed plan");
        };
        (resolved, plan.predicted_cost.unwrap())
    };
    use crate::planner;
    use costmodel::CostModelRev::{Ipdps17, Tang24};

    // Pins that differ only in n0, and only in the grid, predict differently.
    let base = ItInvConfig {
        p1: 4,
        p2: 1,
        n0: 32,
        inv_base: 16,
    };
    let (_, at_base) = predicted(Some(base), 512, 64, 16);
    let coarser = ItInvConfig { n0: 128, ..base };
    let deeper = ItInvConfig {
        p1: 2,
        p2: 4,
        ..base
    };
    let (_, at_coarser) = predicted(Some(coarser), 512, 64, 16);
    let (_, at_deeper) = predicted(Some(deeper), 512, 64, 16);
    assert_ne!(at_base, at_coarser);
    assert_ne!(at_base, at_deeper);
    // Fewer, larger blocks: fewer synchronised iterations.
    assert!(at_coarser.latency < at_base.latency);

    // A model revision acts through the configuration the planner chooses
    // under it, and through nothing else; an unpinned request takes the
    // paper's.
    let cfg_i17 = planner::plan(Ipdps17, 512, 512, 64).unwrap();
    let cfg_t24 = planner::plan(Tang24, 512, 512, 64).unwrap();
    assert_eq!((cfg_i17.p1, cfg_i17.p2), (2, 16));
    assert_eq!((cfg_t24.p1, cfg_t24.p2), (4, 4));
    let (unpinned, cost_i17) = predicted(None, 512, 512, 64);
    assert_eq!(unpinned, cfg_i17);
    assert_eq!(predicted(Some(cfg_i17), 512, 512, 64).1, cost_i17);
    assert_ne!(predicted(Some(cfg_t24), 512, 512, 64).1, cost_i17);
}

#[test]
fn a_pinned_configuration_that_does_not_fit_is_refused_at_planning() {
    let pin = |p1, p2, n0| {
        SolveRequest::lower().algorithm(Algorithm::IterativeInversion(ItInvConfig {
            p1,
            p2,
            n0,
            inv_base: 8,
        }))
    };
    assert!(pin(2, 1, 8).plan_distributed(32, 8, 4).is_ok());
    // No blocks, blocks that do not tile L, a grid that is not the machine,
    // a right-hand side that does not split into p2 slabs.
    assert!(pin(2, 1, 0).plan_distributed(32, 8, 4).is_err());
    assert!(pin(2, 1, 5).plan_distributed(32, 8, 4).is_err());
    assert!(pin(2, 2, 8).plan_distributed(32, 8, 4).is_err());
    assert!(pin(1, 4, 8).plan_distributed(32, 6, 4).is_err());
    // A recursive pin is held to rec_trsm's own check on the 4 × 4 caller
    // grid: n = 63 does not split over 4 ranks, nor k = 6.
    let recursive = SolveRequest::lower().algorithm(Algorithm::Recursive { base_size: 8 });
    assert!(recursive.plan_distributed(64, 8, 16).is_ok());
    assert!(recursive.plan_distributed(63, 6, 16).is_err());
    assert!(recursive.plan_distributed(64, 6, 16).is_err());
}

#[test]
fn the_model_machines_are_the_simulated_presets() {
    // `drift_report(&report, Machine::cluster())` prices a run on the machine
    // it ran on only while the two crates' presets carry the same constants.
    for (name, model, simulated) in [
        ("unit", costmodel::Machine::unit(), MachineParams::unit()),
        (
            "cluster",
            costmodel::Machine::cluster(),
            MachineParams::cluster(),
        ),
        (
            "supercomputer",
            costmodel::Machine::supercomputer(),
            MachineParams::supercomputer(),
        ),
    ] {
        assert_eq!(
            (model.alpha, model.beta, model.gamma),
            (simulated.alpha, simulated.beta, simulated.gamma),
            "{name}"
        );
    }
}

#[test]
fn distributed_transposed_and_upper_requests() {
    let n = 32;
    let k = 8;
    let out = Machine::new(4, MachineParams::unit())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            // Lᵀ·X = B via the transposed request on the stored L.
            let l_global = gen::well_conditioned_lower(n, 41);
            let x_true = gen::rhs(n, k, 42);
            let bt_global = dense::gemm::matmul(&l_global.transpose(), &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let bt = DistMatrix::from_global(&grid, &bt_global);
            let sol_t = SolveRequest::lower()
                .transposed()
                .algorithm(Algorithm::Recursive { base_size: 8 })
                .with_residual()
                .solve_distributed(&l, &bt)
                .unwrap();
            let err_t = dense::norms::rel_diff(&sol_t.x.to_global(), &x_true);

            // U·X = B with an upper request.
            let u_global = gen::well_conditioned_upper(n, 43);
            let xu_true = gen::rhs(n, k, 44);
            let bu_global = dense::matmul(&u_global, &xu_true);
            let u = DistMatrix::from_global(&grid, &u_global);
            let bu = DistMatrix::from_global(&grid, &bu_global);
            let sol_u = SolveRequest::upper()
                .algorithm(Algorithm::Recursive { base_size: 8 })
                .solve_distributed(&u, &bu)
                .unwrap();
            let err_u = dense::norms::rel_diff(&sol_u.x.to_global(), &xu_true);
            (err_t, sol_t.report.residual.unwrap(), err_u)
        })
        .unwrap();
    for (err_t, res_t, err_u) in out.results {
        assert!(err_t < 1e-8, "transposed distributed solve: {err_t}");
        assert!(res_t < 1e-10);
        assert!(err_u < 1e-8, "upper distributed solve: {err_u}");
    }
}

#[test]
fn repeated_transposed_solves_cost_alike() {
    // A transposed request relabels the stored operand: nothing is cached
    // on it, so every solve runs the same messages on the same data.
    let n = 32;
    let k = 8;
    let out = Machine::new(4, MachineParams::cluster())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let l_global = gen::well_conditioned_lower(n, 61);
            let x_true = gen::rhs(n, k, 62);
            let bt_global = dense::gemm::matmul(&l_global.transpose(), &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let bt = DistMatrix::from_global(&grid, &bt_global);
            let req = SolveRequest::lower()
                .transposed()
                .algorithm(Algorithm::Recursive { base_size: 8 });
            let s1 = req.solve_distributed(&l, &bt).unwrap();
            let s2 = req.solve_distributed(&l, &bt).unwrap();
            let err = dense::norms::rel_diff(&s2.x.to_global(), &x_true);
            let sw = |c: simnet::CostCounters| (c.latency(), c.bandwidth());
            (
                err,
                sw(s1.report.comm.unwrap()),
                sw(s2.report.comm.unwrap()),
                s1.x.to_global() == s2.x.to_global(),
            )
        })
        .unwrap();
    for (err, first, second, same) in out.results {
        assert!(err < 1e-8, "{err}");
        assert_eq!(first, second, "repeated solves must cost the same S and W");
        assert!(same, "repeated solves must be bitwise equal");
    }
}

#[test]
fn distributed_unit_diagonal_ignores_stored_diagonal() {
    // Garbage on the stored diagonal: `Diag::Unit` must read ones there in
    // every algorithm, for a lower, an upper and a transposed operand.
    let n = 32;
    let k = 8;
    let it_inv = Algorithm::IterativeInversion(ItInvConfig {
        p1: 2,
        p2: 1,
        n0: 8,
        inv_base: 8,
    });
    let algorithms = [
        None,
        Some(it_inv),
        Some(Algorithm::Recursive { base_size: 8 }),
        Some(Algorithm::Wavefront),
    ];
    let ops = [
        SolveRequest::lower(),
        SolveRequest::upper(),
        SolveRequest::lower().transposed(),
    ];
    for algorithm in algorithms {
        for op in ops {
            let request = op.unit_diagonal().algorithm(algorithm).with_residual();
            let out = Machine::new(4, MachineParams::unit())
                .run(move |comm| {
                    let grid = Grid2D::new(comm, 2, 2).unwrap();
                    let mut a = match op.opts().triangle {
                        Triangle::Lower => gen::well_conditioned_lower(n, 51),
                        Triangle::Upper => gen::well_conditioned_upper(n, 51),
                    };
                    for i in 0..n {
                        a[(i, i)] = 1.0;
                    }
                    let op_a = match op.opts().transpose {
                        Transpose::No => a.clone(),
                        Transpose::Yes => a.transpose(),
                    };
                    let x_true = gen::rhs(n, k, 52);
                    let b_global = dense::matmul(&op_a, &x_true);
                    for i in 0..n {
                        a[(i, i)] = 1e6;
                    }
                    let a = DistMatrix::from_global(&grid, &a);
                    let b = DistMatrix::from_global(&grid, &b_global);
                    let sol = request.solve_distributed(&a, &b).unwrap();
                    let err = dense::norms::rel_diff(&sol.x.to_global(), &x_true);
                    (err, sol.report.residual.unwrap())
                })
                .unwrap();
            for (err, residual) in out.results {
                assert!(err < 1e-8, "{request:?}: {err}");
                assert!(residual < 1e-10, "{request:?}: residual {residual}");
            }
        }
    }
}

#[test]
fn distributed_solves_never_read_above_the_diagonal() {
    // NaN stored above a cyclic L's diagonal, where the solvers read L in
    // place: X must keep its bits, and the residual must be the clean one.
    let (n, k) = (128, 32);
    let algorithms = [
        None,
        Some(Algorithm::Recursive { base_size: 32 }),
        Some(Algorithm::Wavefront),
    ];
    for algorithm in algorithms {
        let request = SolveRequest::lower().algorithm(algorithm).with_residual();
        let out = Machine::new(16, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 4, 4).unwrap();
                let (l, b, _) = dist_instance(&grid, n, k, 61);
                let mut stored = l.to_global();
                for i in 0..n {
                    stored.row_mut(i)[i + 1..].fill(f64::NAN);
                }
                let poisoned = DistMatrix::from_global(&grid, &stored);
                let plan = request.plan_distributed(n, k, comm.size()).unwrap();
                let planned_it_inv = matches!(
                    plan.backend,
                    PlanBackend::Distributed {
                        algorithm: Algorithm::IterativeInversion(_),
                        ..
                    }
                );
                let bits = |l: &DistMatrix| {
                    let sol = plan.execute_distributed(l, &b).unwrap();
                    let x = sol.x.to_global();
                    let x: Vec<u64> = x.as_slice().iter().map(|v| v.to_bits()).collect();
                    (x, sol.report.residual.unwrap().to_bits())
                };
                (planned_it_inv, bits(&l), bits(&poisoned))
            })
            .unwrap();
        for (planned_it_inv, clean, dirty) in out.results {
            assert!(algorithm.is_some() || planned_it_inv, "plan is not It-Inv");
            assert!(f64::from_bits(clean.1) < 1e-10, "{algorithm:?}");
            assert!(clean.0 == dirty.0, "{algorithm:?}: X moved");
            assert_eq!(clean.1, dirty.1, "{algorithm:?}: residual moved");
        }
    }
}

/// The integer counters of one rank: messages and words each way, flops.
fn counts(c: &simnet::CostCounters) -> [u64; 5] {
    [
        c.msgs_sent,
        c.msgs_recv,
        c.words_sent,
        c.words_recv,
        c.flops,
    ]
}

#[test]
fn it_inv_phases_cover_every_op_and_only_its_layout_changes_move() {
    // An upper or transposed request is a relabelling of a lower solve:
    // It-Inv's phases add up to the whole measured solve, and the
    // inversion, solve and update phases charge what the lower solve's do.
    let (n, k) = (128, 32);
    let ops = [
        SolveRequest::lower(),
        SolveRequest::upper(),
        SolveRequest::lower().transposed(),
        SolveRequest::upper().transposed(),
    ];
    let out = Machine::new(16, MachineParams::cluster())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 4, 4).unwrap();
            ops.map(|request| {
                let a = match request.opts().triangle {
                    Triangle::Lower => gen::well_conditioned_lower(n, 71),
                    Triangle::Upper => gen::well_conditioned_upper(n, 71),
                };
                let a = DistMatrix::from_global(&grid, &a);
                let b = DistMatrix::from_global(&grid, &gen::rhs(n, k, 72));
                let sol = request.solve_distributed(&a, &b).unwrap();
                (sol.report.phases.unwrap(), sol.report.comm.unwrap())
            })
        })
        .unwrap();
    for ranks in out.results {
        let (lower, _) = ranks[0];
        for (phases, comm) in ranks {
            assert_eq!(counts(&phases.total()), counts(&comm));
            for (phase, of_lower) in [
                (phases.inversion, lower.inversion),
                (phases.solve, lower.solve),
                (phases.update, lower.update),
            ] {
                assert_eq!(counts(&phase), counts(&of_lower));
            }
        }
    }
}

#[test]
fn a_distributed_plan_runs_only_on_what_it_was_planned_for() {
    let (n, k) = (32, 8);
    let out = Machine::new(4, MachineParams::unit())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let (l, b, _) = dist_instance(&grid, n, k, 81);
            let wavefront = SolveRequest::lower().algorithm(Algorithm::Wavefront);
            let refused = |plan: SolvePlan| match plan.execute_distributed(&l, &b) {
                Err(e) => e.to_string().contains("planned for"),
                Ok(_) => false,
            };
            [
                refused(wavefront.plan_distributed(n, 2 * k, 4).unwrap()),
                refused(wavefront.plan_distributed(n, k, 16).unwrap()),
                refused(wavefront.plan_distributed(2 * n, k, 4).unwrap()),
                wavefront
                    .plan_distributed(n, k, 4)
                    .unwrap()
                    .execute_distributed(&l, &b)
                    .is_ok(),
            ]
        })
        .unwrap();
    assert!(out.results.into_iter().all(|ok| ok == [true; 4]));
}

#[test]
fn right_side_requests_are_rejected_off_the_dense_backend() {
    assert!(SolveRequest::lower()
        .side(Side::Right)
        .plan_distributed(32, 8, 4)
        .is_err());
}

#[test]
fn plan_display_is_informative() {
    let plan = SolveRequest::lower().plan_dense(128, 8).unwrap();
    let s = plan.to_string();
    assert!(s.contains("dense"));
    assert!(s.contains("128"));
    let m = sgen::random_lower(64, 2, 3);
    let sp = SolveRequest::lower().plan_sparse(&m, 1).unwrap();
    assert!(sp.to_string().contains("nnz"));
    // Why this plan, in one line, on every branch of the rule.
    let band = sgen::banded_lower(20_000, 4, 19);
    let wide = sgen::deep_narrow_lower(40_000, 8192, 6, 7);
    let budget4 = SolveRequest::lower().threads(4);
    for (plan, why) in [
        (
            SolveRequest::lower().threads(1).plan_sparse(&wide, 1),
            "not analysed (budget 1)",
        ),
        (
            budget4.plan_sparse(&m, 1),
            "not analysed (nnz·k below threshold)",
        ),
        (
            budget4.reuse(1).plan_sparse(&wide, 1),
            "not analysed (reuse 1)",
        ),
        (
            budget4.plan_sparse(&band, 1),
            "20000 level(s) in 20000 run(s), 0 barrier(s): 4 stored entries per run \
             against a threshold of 32768: sequential",
        ),
        (
            budget4.plan_sparse(&wide, 1),
            "5 level(s) in 5 run(s), 5 barrier(s): 46169 stored entries per run \
             against a threshold of 32768: level sweep on 4 workers",
        ),
    ] {
        let line = plan.unwrap().to_string();
        assert!(line.contains(why), "{line:?} should say {why:?}");
    }
    let dp = SolveRequest::lower().plan_distributed(256, 64, 16).unwrap();
    assert!(dp.to_string().contains("p = 16"));
}
