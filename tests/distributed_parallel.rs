//! Parallel rank execution: the number of rank workers
//! (`Machine::with_rank_workers`, the host threads a run's ranks share)
//! must be a pure throughput knob.
//!
//! Four claims, matching the execution-model section of the simnet README:
//!
//! * **determinism matrix** — every distributed algorithm returns
//!   bitwise-identical solutions and identical per-rank α–β–γ counters at
//!   every rank-worker count (the CI `distributed-parallel` job re-runs
//!   this binary under `DENSE_THREADS=1` and `=4` on top);
//! * **chaos under parallel ranks** — the full fault taxonomy keeps its
//!   contract when ranks execute concurrently on several workers:
//!   transient plans stay bit-transparent, permanent plans fail typed on
//!   every affected rank, and nothing ever hangs;
//! * **trace acceptance** — the rank spans of a recursive-TRSM solve under
//!   4 rank workers land on distinct wall lanes in the obs trace, and the
//!   answer still matches the single-worker run bitwise;
//! * **warm runs** — a machine's buffer pool outlives its runs, and a run
//!   served from recycled buffers returns the bits, per-rank counters and
//!   virtual time of a run on a fresh machine, also after a run in which a
//!   rank panicked and under a transient fault plan.

use catrsm::{Algorithm, ItInvConfig, TrsmError};
use catrsm_suite::obs;
use catrsm_suite::prelude::*;
use simnet::{Communicator, FaultPlan, RunOutput, SimError};

const N: usize = 32;
const K: usize = 8;

/// The transport-level error at the root of a solve failure.
fn root_sim_error(e: &TrsmError) -> Option<&SimError> {
    match e {
        TrsmError::Sim(s) => Some(s),
        TrsmError::Grid(pgrid::GridError::Sim(s)) => Some(s),
        _ => None,
    }
}

/// The three distributed algorithms, configured for a 4-rank 2×2 grid.
fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Recursive { base_size: 16 },
        Algorithm::IterativeInversion(ItInvConfig {
            p1: 2,
            p2: 1,
            n0: 16,
            inv_base: 8,
        }),
        Algorithm::Wavefront,
    ]
}

/// One distributed solve per rank: the collected global solution, or the
/// typed error rendered to a string.
fn solve_on(machine: &Machine, alg: Algorithm, seed: u64) -> Vec<Result<Matrix, String>> {
    machine
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let l_g = gen::well_conditioned_lower(N, seed);
            let x_g = gen::rhs(N, K, seed + 1);
            let b_g = dense::matmul(&l_g, &x_g);
            let l = DistMatrix::from_global(&grid, &l_g);
            let b = DistMatrix::from_global(&grid, &b_g);
            SolveRequest::lower()
                .algorithm(alg)
                .solve(&l, &b)
                .map(|sol| sol.x.to_global())
                .map_err(|e| e.to_string())
        })
        .expect("machine-level run must not fail: rank errors are typed")
        .results
}

/// Satellite: the determinism matrix.  Every algorithm, every rank-worker
/// count — bitwise-identical solutions, identical per-rank counters,
/// identical virtual finish time.
#[test]
fn rank_worker_count_is_bitwise_invisible_for_every_algorithm() {
    let params = MachineParams::cluster();
    for alg in algorithms() {
        let base = Machine::new(4, params)
            .with_rank_workers(1)
            .run(solve_bits(alg, 2, N, K))
            .expect("one-worker run");
        for workers in [2usize, 4] {
            let out = Machine::new(4, params)
                .with_rank_workers(workers)
                .run(solve_bits(alg, 2, N, K))
                .expect("several-worker run");
            assert_same_run(&format!("{alg:?} at {workers} rank workers"), &base, &out);
        }
    }
}

/// One `n × n`, `k`-column solve on a `q × q` grid: the bits of the global
/// solution.
fn solve_bits(
    alg: Algorithm,
    q: usize,
    n: usize,
    k: usize,
) -> impl Fn(&Communicator) -> Vec<u64> + Send + Sync {
    move |comm| {
        let grid = Grid2D::new(comm, q, q).unwrap();
        let l_g = gen::well_conditioned_lower(n, 17);
        let b_g = dense::matmul(&l_g, &gen::rhs(n, k, 18));
        let l = DistMatrix::from_global(&grid, &l_g);
        let b = DistMatrix::from_global(&grid, &b_g);
        let sol = SolveRequest::lower()
            .algorithm(alg)
            .solve(&l, &b)
            .expect("clean solve");
        sol.x
            .to_global()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }
}

/// Two runs agree in every solution bit, every per-rank counter and the
/// virtual finish time.
fn assert_same_run(what: &str, a: &RunOutput<Vec<u64>>, b: &RunOutput<Vec<u64>>) {
    assert_eq!(a.results, b.results, "{what}: solution bits differ");
    assert_eq!(
        a.report.per_rank, b.report.per_rank,
        "{what}: per-rank counters differ"
    );
    assert_eq!(
        a.report.virtual_time(),
        b.report.virtual_time(),
        "{what}: virtual time differs"
    );
}

/// Five transient fault plans — every class plus heavy drops and all at
/// once — for the parallel-rank chaos sweep (the two permanent plans below
/// complete the seven-plan suite).
fn transient_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drops", FaultPlan::new(0xA0A0).with_drops(0.3, 2)),
        ("delays", FaultPlan::new(0xA3A3).with_delays(0.4, 2.0)),
        ("stalls", FaultPlan::new(0xA4A4).with_stalls(0.2, 2.0)),
        ("heavy-drops", FaultPlan::new(0xA5A5).with_drops(0.6, 3)),
        (
            "everything",
            FaultPlan::new(0xA7A7)
                .with_drops(0.25, 2)
                .with_delays(0.2, 2.0)
                .with_stalls(0.1, 1.0),
        ),
    ]
}

/// Satellite: transient chaos under parallel ranks.  A faulty run on 4
/// rank workers must reproduce the fault-free single-worker run bit for
/// bit, for every algorithm and every transient plan.
#[test]
fn chaos_transient_plans_stay_bit_transparent_under_parallel_ranks() {
    let params = MachineParams::unit();
    for alg in algorithms() {
        let clean = solve_on(&Machine::new(4, params).with_rank_workers(1), alg, 41);
        for (name, plan) in transient_plans() {
            assert!(plan.is_transient(&params), "{name} must be transient");
            let faulty = solve_on(
                &Machine::new(4, params)
                    .with_fault_plan(plan)
                    .with_rank_workers(4),
                alg,
                41,
            );
            for (rank, (c, f)) in clean.iter().zip(faulty.iter()).enumerate() {
                let c = c.as_ref().expect("clean run solves");
                let f = f
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{alg:?}/{name} rank {rank} failed: {e}"));
                assert_eq!(
                    c, f,
                    "{alg:?}/{name} rank {rank}: solution not bit-identical under parallel ranks"
                );
            }
        }
    }
}

/// Satellite: permanent chaos under parallel ranks.  A crashed rank and an
/// exhausted retry budget must fail typed on every affected rank — the
/// scheduler (a waiting rank yields its worker, a failure wakes every
/// waiting rank) must never convert a failure cascade into a hang.
#[test]
fn chaos_permanent_plans_fail_typed_under_parallel_ranks() {
    for alg in algorithms() {
        // Plan 6/7: rank 1 crashes after its third send.
        let params = MachineParams::unit();
        let crash = FaultPlan::new(0xBAD1).with_crash(1, 3);
        assert!(!crash.is_transient(&params));
        let out = Machine::new(4, params)
            .with_fault_plan(crash)
            .with_rank_workers(2)
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let l_g = gen::well_conditioned_lower(N, 5);
                let x_g = gen::rhs(N, K, 6);
                let b_g = dense::matmul(&l_g, &x_g);
                let l = DistMatrix::from_global(&grid, &l_g);
                let b = DistMatrix::from_global(&grid, &b_g);
                SolveRequest::lower().algorithm(alg).solve(&l, &b).err()
            })
            .expect("crash must surface as rank-level errors, not a run failure");
        let failures = out
            .results
            .iter()
            .flatten()
            .map(|err| {
                assert!(
                    matches!(root_sim_error(err), Some(SimError::RankFailure { rank: 1 })),
                    "{alg:?}/crash: untyped failure {err:?}"
                );
            })
            .count();
        assert!(failures > 0, "{alg:?}: the crash plan never fired");
        assert!(
            out.report.virtual_time().is_finite() && out.report.virtual_time() < 1.0e6,
            "{alg:?}/crash: virtual time {} not bounded",
            out.report.virtual_time()
        );

        // Plan 7/7: every transfer exhausts a one-retry budget.
        let params = MachineParams::unit().with_retry(1.0e-3, 1);
        let exhaust = FaultPlan::new(0xBAD2).with_drops(1.0, 5);
        assert!(!exhaust.is_transient(&params));
        let out = solve_on(
            &Machine::new(4, params)
                .with_fault_plan(exhaust)
                .with_rank_workers(4),
            alg,
            9,
        );
        for (rank, res) in out.iter().enumerate() {
            let err = res
                .as_ref()
                .err()
                .unwrap_or_else(|| panic!("{alg:?}: rank {rank} solved under a permanent plan"));
            assert!(
                err.contains("simulator error"),
                "{alg:?}: rank {rank} error not rooted in the transport: {err}"
            );
        }
    }
}

/// Acceptance: a 2×2 grid recursive-TRSM solve on 4 rank workers (a)
/// runs each of its four rank spans on a wall lane of its own, in this
/// test's recorder and so unmistakably its own ranks, and (b) still matches
/// the 1-worker run bitwise.
#[test]
fn distinct_lanes_with_parallel_rank_workers() {
    let alg = Algorithm::Recursive { base_size: 16 };
    let params = MachineParams::cluster();

    let recorder = obs::Recorder::new();
    let traced =
        recorder.record(|| solve_on(&Machine::new(4, params).with_rank_workers(4), alg, 77));
    let dump = recorder.dump();

    // (a) one wall lane per rank, each opening exactly one rank
    // span, for ranks 0..4 — whatever the tests running beside this one
    // are tracing.
    let mut ranks_seen = Vec::new();
    for lane in dump.threads.iter().filter(|t| t.lane == obs::Lane::Wall) {
        let ranks: Vec<u64> = lane
            .events
            .iter()
            .filter(|e| (e.kind, e.cat, e.name) == (obs::EventKind::Begin, "simnet", "rank"))
            .map(|e| e.arg)
            .collect();
        assert!(ranks.len() <= 1, "two rank spans on one wall lane");
        ranks_seen.extend(ranks);
    }
    ranks_seen.sort_unstable();
    assert_eq!(ranks_seen, [0, 1, 2, 3], "exactly 4 rank lanes, ranks 0..4");

    // (b) bitwise identical to the single-worker run on the same machine.
    let serial = solve_on(&Machine::new(4, params).with_rank_workers(1), alg, 77);
    for (rank, (a, b)) in traced.iter().zip(serial.iter()).enumerate() {
        assert_eq!(
            a.as_ref().expect("traced"),
            b.as_ref().expect("serial"),
            "rank {rank}: worker count changed the bits"
        );
    }
}

/// The 16-rank cases a warm run must reproduce: It-Inv on the benchmark's
/// two grid shapes (the `dist_cube` 2×2×4 cuboid with one block and with
/// four, and the `dist_few_rhs` 4×4 face) at small n, and the two baselines.
fn warm_cases() -> Vec<(Algorithm, usize, usize)> {
    let it_inv = |p1, p2, n0| {
        Algorithm::IterativeInversion(ItInvConfig {
            p1,
            p2,
            n0,
            inv_base: 8,
        })
    };
    vec![
        (it_inv(2, 4, 64), 64, 64),
        (it_inv(2, 4, 16), 64, 16),
        (it_inv(4, 1, 32), 128, 8),
        (Algorithm::Recursive { base_size: 16 }, 64, 16),
        (Algorithm::Wavefront, 32, 8),
    ]
}

/// Satellite: a run served from the buffers an earlier run gave back is
/// bit-transparent.  The second solve on one machine takes recycled
/// buffers; it must match a solve on a fresh machine in every bit, every
/// per-rank counter and the virtual finish time.
#[test]
fn a_warm_run_reuses_buffers_and_matches_a_fresh_machine_bitwise() {
    let params = MachineParams::cluster();
    for (alg, n, k) in warm_cases() {
        let fresh = Machine::new(16, params)
            .run(solve_bits(alg, 4, n, k))
            .unwrap();
        let warm = Machine::new(16, params);
        let cold = warm.run(solve_bits(alg, 4, n, k)).unwrap();
        let before = warm.pool_stats();
        let again = warm.run(solve_bits(alg, 4, n, k)).unwrap();
        let after = warm.pool_stats();
        assert!(
            after.reused > before.reused,
            "{alg:?}: the second run took nothing from the pool"
        );
        assert_same_run(&format!("{alg:?} cold"), &fresh, &cold);
        assert_same_run(&format!("{alg:?} warm"), &fresh, &again);
    }
}

/// Satellite: a rank that panics mid-run leaves the pool usable — the
/// buffers the aborted ranks held are simply not returned — and the next
/// run on the same machine returns a fresh machine's bits.
#[test]
fn a_clean_run_after_a_panicked_run_matches_a_fresh_machine() {
    let params = MachineParams::cluster();
    let (alg, n, k) = warm_cases()[1];
    let fresh = Machine::new(16, params)
        .run(solve_bits(alg, 4, n, k))
        .unwrap();
    let machine = Machine::new(16, params);
    let solve = solve_bits(alg, 4, n, k);
    let crashed = machine.run(|comm| {
        solve(comm);
        if comm.rank() == 5 {
            panic!("rank 5 fails between two collectives");
        }
        // Every other rank is blocked here, holding pooled buffers, when
        // rank 5's failure notification reaches it; the unwrap then panics
        // it in turn, but the run still names rank 5.
        coll::allreduce(comm, &[comm.rank() as f64; 64], coll::ReduceOp::Sum).unwrap();
    });
    assert!(
        matches!(crashed, Err(SimError::RankPanicked { rank: 5 })),
        "{crashed:?}"
    );
    let clean = machine.run(solve_bits(alg, 4, n, k)).unwrap();
    assert_same_run("after a panicked run", &fresh, &clean);
}

/// Satellite: a transient fault plan run twice on one machine stays
/// bit-transparent — resent and delayed payloads go back to the pool like
/// any consumed payload, and nothing recycled leaks into a result.
#[test]
fn a_transient_plan_run_twice_on_one_machine_stays_bit_transparent() {
    let params = MachineParams::unit();
    let plan = FaultPlan::new(0xC4A0)
        .with_drops(0.3, 2)
        .with_delays(0.3, 2.0);
    assert!(plan.is_transient(&params));
    let (alg, n, k) = warm_cases()[1];
    let clean = Machine::new(16, params)
        .run(solve_bits(alg, 4, n, k))
        .unwrap();
    let faulty = Machine::new(16, params).with_fault_plan(plan);
    let first = faulty.run(solve_bits(alg, 4, n, k)).unwrap();
    let second = faulty.run(solve_bits(alg, 4, n, k)).unwrap();
    assert!(
        first.report.total_retries() > 0,
        "the plan injected nothing"
    );
    assert_eq!(clean.results, first.results, "first faulty run");
    assert_same_run("second faulty run", &first, &second);
}

/// A planned solve at p = 1 024 (n = 4 096, k = 64) on operands built once
/// and shared by every rank, on 2 rank workers, solves its system.  The run
/// plans once, so its host time stays near linear in p; CI runs it in
/// release under a `timeout`, untraced, because a traced member replays
/// each collective for itself.
#[test]
#[ignore = "release-only, about a second: CI runs it under a timeout"]
fn a_planned_solve_on_1024_ranks_solves_its_system() {
    let (n, k) = (4096, 64);
    let l_global = gen::well_conditioned_lower(n, 41);
    let x_global = gen::rhs(n, k, 42);
    let b_global = dense::matmul(&l_global, &x_global);
    let out = Machine::new(1024, MachineParams::cluster())
        .with_rank_workers(2)
        .run(|comm| {
            let grid = Grid2D::new(comm, 32, 32).unwrap();
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let sol = SolveRequest::lower().solve(&l, &b).unwrap();
            let x = DistMatrix::from_global(&grid, &x_global);
            sol.x.rel_diff(&x).unwrap()
        })
        .unwrap();
    // `rel_diff` is one allreduce: every rank holds the same value.
    let err = out.results[0];
    assert!(err < 1e-8, "relative error {err:e}");
}
