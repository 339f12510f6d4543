//! Chaos harness: distributed solves under seeded fault plans.
//!
//! Two claims are exercised here, matching the fault taxonomy of
//! `simnet::FaultPlan`:
//!
//! * **transient** plans (drops within the retry budget, delays, stalls) are
//!   *bit-transparent*: every algorithm returns exactly the solution of the
//!   fault-free run, while the `SolveReport` records the recovery work (the
//!   retries that absorbed the drops);
//! * **permanent** plans (rank crashes, retry budgets exhausted) surface as
//!   typed `TrsmError`s on every rank within bounded virtual time — never a
//!   hang, never a panic.
//!
//! Fault schedules are seeded, so every test here is exactly reproducible.

use catrsm::{Algorithm, ItInvConfig, TrsmError};
use catrsm_suite::prelude::*;
use proptest::prelude::*;
use simnet::{CostCounters, FaultPlan, SimError};

const N: usize = 32;
const K: usize = 8;

/// The transport-level error at the root of a solve failure, however many
/// layers (grid redistribution, collectives, algorithm wiring) it crossed.
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

/// Run one distributed solve per rank and return, per rank, the collected
/// global solution plus the report's communication counters (fault
/// counters included).
fn solve_on(
    machine: &Machine,
    alg: Algorithm,
    seed: u64,
) -> Vec<Result<(Matrix, CostCounters), String>> {
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
                .map(|sol| (sol.x.to_global(), sol.report.comm.expect("counters")))
                .map_err(|e| e.to_string())
        })
        .expect("machine-level run must not fail: rank errors are typed")
        .results
}

/// Transient plans exercised by the bit-transparency tests: one per fault
/// class plus an everything-at-once plan.
fn transient_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drops", FaultPlan::new(0xD0D0).with_drops(0.3, 2)),
        ("delays", FaultPlan::new(0xD2D2).with_delays(0.25, 3.0)),
        ("stalls", FaultPlan::new(0xD3D3).with_stalls(0.2, 2.0)),
        ("heavy-drops", FaultPlan::new(0xD4D4).with_drops(0.6, 3)),
        (
            "everything",
            FaultPlan::new(0xD5D5)
                .with_drops(0.25, 2)
                .with_delays(0.2, 2.0)
                .with_stalls(0.1, 1.0),
        ),
    ]
}

#[test]
fn transient_plans_are_bit_transparent_for_every_algorithm() {
    let params = MachineParams::unit();
    for alg in algorithms() {
        let clean = solve_on(&Machine::new(4, params), alg, 77);
        for (name, plan) in transient_plans() {
            assert!(plan.is_transient(&params), "{name} must be transient");
            let faulty = solve_on(&Machine::new(4, params).with_fault_plan(plan), alg, 77);
            for (rank, (c, f)) in clean.iter().zip(faulty.iter()).enumerate() {
                let c = c.as_ref().expect("clean run solves");
                let f = f
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{alg:?}/{name} rank {rank} failed: {e}"));
                assert_eq!(
                    c.0, f.0,
                    "{alg:?}/{name} rank {rank}: solution not bit-identical"
                );
                assert_eq!(
                    f.1.timeouts, 0,
                    "{alg:?}/{name}: transient run logged a timeout"
                );
            }
        }
    }
}

#[test]
fn transient_recovery_work_reaches_the_solve_report() {
    let params = MachineParams::unit();
    let plan = FaultPlan::new(0xBEEF).with_drops(0.4, 2);
    for alg in algorithms() {
        let out = solve_on(
            &Machine::new(4, params).with_fault_plan(plan.clone()),
            alg,
            13,
        );
        let retries: u64 = out
            .iter()
            .map(|res| res.as_ref().expect("transient plan must solve").1.retries)
            .sum();
        assert!(
            retries > 0,
            "{alg:?}: drop recovery invisible in SolveReport"
        );
    }
}

#[test]
fn crashed_rank_fails_every_algorithm_cleanly() {
    let params = MachineParams::unit();
    // Three crash plans: mid-solve, before the very first send, and halfway
    // through the victim's send schedule (derived from a clean run so the
    // crash is guaranteed to fire whatever the algorithm's send count is).
    // Early crashes (before any rank can finish) must fail *every* rank; a
    // late crash may let ranks whose communication already completed return
    // their result — but whoever fails must fail typed, and nobody may hang.
    for alg in algorithms() {
        let clean = Machine::new(4, params)
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let l_g = gen::well_conditioned_lower(N, 5);
                let x_g = gen::rhs(N, K, 6);
                let b_g = dense::matmul(&l_g, &x_g);
                let l = DistMatrix::from_global(&grid, &l_g);
                let b = DistMatrix::from_global(&grid, &b_g);
                SolveRequest::lower()
                    .algorithm(alg)
                    .solve(&l, &b)
                    .map(|_| ())
            })
            .expect("clean run");
        let halfway = clean.report.per_rank[3].msgs_sent / 2;
        let crash_plans = [(1usize, 3u64, true), (0, 0, true), (3, halfway, false)];
        for (victim, after, early) in crash_plans {
            let plan = FaultPlan::new(0xC4A5).with_crash(victim, after);
            assert!(!plan.is_transient(&params));
            let machine = Machine::new(4, params).with_fault_plan(plan);
            let out = machine
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
            let mut failures = 0;
            for (rank, res) in out.results.iter().enumerate() {
                match res {
                    None if early => panic!(
                        "{alg:?}/crash({victim},{after}): rank {rank} solved despite the crash"
                    ),
                    None => {}
                    Some(err) => {
                        failures += 1;
                        assert!(
                            matches!(
                                root_sim_error(err),
                                Some(SimError::RankFailure { rank: r }) if *r == victim
                            ),
                            "{alg:?}/crash({victim},{after}): rank {rank} got {err:?}"
                        );
                    }
                }
            }
            assert!(
                failures > 0,
                "{alg:?}/crash({victim},{after}): the crash plan never fired"
            );
            // Bounded simulated time: the failure cascade unblocks everyone
            // long before the pathological all-timeouts budget.
            assert!(
                out.report.virtual_time().is_finite() && out.report.virtual_time() < 1.0e6,
                "{alg:?}/crash({victim},{after}): virtual time {} not bounded",
                out.report.virtual_time()
            );
        }
    }
}

#[test]
fn exhausted_retry_budget_fails_every_algorithm_cleanly() {
    // Every message is dropped up to 5 times against a budget of 1 retry, so
    // the very first point-to-point transfer exhausts its budget.
    let params = MachineParams::unit().with_retry(1.0e-3, 1);
    for alg in algorithms() {
        let plan = FaultPlan::new(0x7E57).with_drops(1.0, 5);
        assert!(!plan.is_transient(&params));
        let out = solve_on(&Machine::new(4, params).with_fault_plan(plan), alg, 9);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: fault-plan determinism.  The same seed produces the same
    /// fault schedule, the same per-rank retry and timeout counters, the
    /// same virtual finish time and the same (bit-identical) solution, run
    /// after run.
    #[test]
    fn seeded_chaos_runs_reproduce_exactly(seed in 0u64..1_000_000) {
        let params = MachineParams::unit();
        let plan = FaultPlan::new(seed)
            .with_drops(0.3, 2)
            .with_delays(0.25, 2.0)
            .with_stalls(0.1, 1.5);
        prop_assert!(plan.is_transient(&params));
        let alg = Algorithm::Recursive { base_size: 16 };
        let run = || solve_on(&Machine::new(4, params).with_fault_plan(plan.clone()), alg, seed % 97);
        let first = run();
        let second = run();
        prop_assert_eq!(&first, &second, "same seed diverged across repeats");
        // And the underlying schedule itself is reproducible per rank.
        for rank in 0..4 {
            let mut a = simnet::FaultInjector::new(&plan, rank);
            let mut b = simnet::FaultInjector::new(&plan, rank);
            for _ in 0..64 {
                prop_assert_eq!(a.next_send(), b.next_send());
            }
        }
    }

    /// The dense GEMM worker count is a throughput knob, not a semantics
    /// knob: 1 worker and 4 workers produce bitwise-identical products, so
    /// chaos solutions cannot depend on `DENSE_THREADS` (the CI matrix also
    /// runs this whole suite under `DENSE_THREADS=1` and `=4`).
    #[test]
    fn gemm_worker_count_never_changes_bits(seed in 0u64..1000) {
        let a = gen::uniform(48, 32, seed);
        let b = gen::uniform(32, 24, seed + 1);
        let mut c1 = Matrix::zeros(48, 24);
        let mut c4 = Matrix::zeros(48, 24);
        dense::gemm::gemm_with_threads(1.0, &a, &b, 0.0, &mut c1, 1).unwrap();
        dense::gemm::gemm_with_threads(1.0, &a, &b, 0.0, &mut c4, 4).unwrap();
        prop_assert_eq!(c1, c4);
    }
}
