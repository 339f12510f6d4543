//! Cross-crate integration tests for the solver-wide tracing layer
//! (`obs`): a solve run under an [`obs::Recorder`] leaves the expected
//! spans and counters in it on every backend — pool workers and simulated
//! ranks included — and in nobody else's, the Chrome-trace export
//! validates, recorders free their lanes, the cost-drift report covers the
//! iterative algorithm's phases, and — in release builds — traced solves
//! stay inside a wall-clock envelope of the untraced baseline.
//!
//! A trace is a value each test holds, so nothing here is serialised: the
//! tests run concurrently at any `--test-threads`.

use catrsm_suite::prelude::*;
use catrsm_suite::{costmodel, obs, sparse};
use std::sync::Barrier;

/// Runs `f` under a fresh recorder, returning its result and everything it
/// recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (T, obs::TraceDump) {
    let recorder = obs::Recorder::new();
    let out = recorder.record(f);
    (out, recorder.dump())
}

/// A factor whose levels (up to 8 192 rows each) clear the go-parallel
/// rule, so a budget of 4 traces a 4-worker level sweep.
fn sparse_fixture() -> (SparseTri, Matrix) {
    let m = sparse::gen::deep_narrow_lower(40_000, 8192, 6, 3);
    let b = Matrix::from_vec(m.n(), 1, sparse::gen::rhs_vec(m.n(), 5)).unwrap();
    (m, b)
}

fn dense_solve(n: usize, seed: u64) {
    let l = gen::well_conditioned_lower(n, seed);
    let b = gen::rhs(n, 8, seed + 1);
    SolveRequest::lower().solve_dense(&l, &b).unwrap();
}

/// The `n` argument of every `core/execute` span in `dump`.
fn executed_sizes(dump: &obs::TraceDump) -> Vec<u64> {
    dump.threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| (e.kind, e.cat, e.name) == (obs::EventKind::Begin, "core", "execute"))
        .map(|e| e.arg)
        .collect()
}

/// Wall lanes of `dump` holding at least one `cat`/`name` event.
fn wall_lanes_with(dump: &obs::TraceDump, cat: &str, name: &str) -> usize {
    dump.threads
        .iter()
        .filter(|t| t.lane == obs::Lane::Wall)
        .filter(|t| t.events.iter().any(|e| e.cat == cat && e.name == name))
        .count()
}

#[test]
fn traced_dense_solve_records_the_execute_span() {
    let n = 256;
    let k = 32;
    let l = gen::well_conditioned_lower(n, 7);
    let b = gen::rhs(n, k, 8);
    let ((), dump) = traced(|| {
        SolveRequest::lower()
            .plan_dense(n, k)
            .unwrap()
            .execute_dense(&l, &b)
            .unwrap();
    });
    let trace = obs::TraceReport::from_dump(&dump);
    let exec = trace.span("core", "execute").expect("execute span");
    assert_eq!(exec.count, 1);
    assert_eq!(trace.dropped, 0);
}

#[test]
fn an_unrecorded_solve_leaves_no_trace_beside_a_recording_thread() {
    const ROUNDS: usize = 8;
    let start = Barrier::new(2);
    let recorder = obs::Recorder::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            recorder.record(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    dense_solve(96, 7);
                }
            })
        });
        // This thread has no recorder, whatever its neighbour is doing.
        start.wait();
        for _ in 0..ROUNDS {
            assert!(!obs::enabled() && obs::current().is_none());
            dense_solve(64, 9);
        }
    });
    assert_eq!(executed_sizes(&recorder.dump()), [96; ROUNDS]);
}

#[test]
fn two_recorders_on_two_threads_each_see_only_their_own_spans() {
    let start = Barrier::new(2);
    let (m, b) = sparse_fixture();
    let ranks = obs::Recorder::new();
    let sweep = obs::Recorder::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            ranks.record(|| {
                start.wait();
                Machine::new(4, MachineParams::cluster())
                    .with_rank_workers(4)
                    .run(|comm| {
                        let grid = Grid2D::new(comm, 2, 2).expect("grid");
                        let l =
                            DistMatrix::from_global(&grid, &gen::well_conditioned_lower(64, 21));
                        let b = DistMatrix::from_global(&grid, &gen::rhs(64, 16, 22));
                        SolveRequest::lower()
                            .solve_distributed(&l, &b)
                            .expect("solve");
                    })
                    .expect("machine run");
            })
        });
        sweep.record(|| {
            start.wait();
            SolveRequest::lower()
                .threads(4)
                .solve_sparse(&m, &b)
                .unwrap();
        });
    });

    let (ranks, sweep) = (ranks.dump(), sweep.dump());
    let cats = |dump: &obs::TraceDump| -> Vec<&'static str> {
        let mut cats: Vec<_> = dump
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.cat))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    };
    // The distributed solve: its four ranks and nothing sparse.
    assert_eq!(executed_sizes(&ranks), [64; 4]);
    assert_eq!(wall_lanes_with(&ranks, "simnet", "rank"), 4);
    assert!(cats(&ranks).contains(&"simnet") && !cats(&ranks).contains(&"sparse"));
    // The level sweep: its four workers and nothing of the machine.
    assert_eq!(executed_sizes(&sweep), [m.n() as u64]);
    assert_eq!(wall_lanes_with(&sweep, "sparse", "barrier_wait_ns"), 4);
    assert!(sweep.threads.iter().all(|t| t.lane == obs::Lane::Wall));
    assert!(!cats(&sweep).contains(&"simnet") && !cats(&sweep).contains(&"pgrid"));
}

#[test]
fn recorders_free_their_lanes() {
    let machine = Machine::new(16, MachineParams::cluster());
    let mut leaked = 0;
    for round in 0..41u64 {
        let recorder = obs::Recorder::new();
        recorder.record(|| {
            machine
                .run(|comm| {
                    let (rank, p) = (comm.rank(), comm.size());
                    comm.send((rank + 1) % p, round, &[rank as f64]).unwrap();
                    comm.recv((rank + p - 1) % p, round).unwrap()
                })
                .expect("ring")
        });
        assert!(!recorder.dump().is_empty());
        let probe = recorder.lane_probe();
        // One wall lane and one sim lane per rank, though the 16 ranks
        // share as few as one worker thread.
        assert_eq!((probe.lanes(), probe.alive()), (32, 32));
        drop(recorder);
        leaked += probe.alive();
    }
    assert_eq!(leaked, 0, "lanes outlived their recorders");
}

#[test]
fn pool_workers_record_on_their_own_lanes() {
    // The sparse level sweep (`run_region`): one barrier-wait counter per
    // worker, each on that worker's lane.
    let (m, b) = sparse_fixture();
    let (sol, dump) = traced(|| {
        SolveRequest::lower()
            .threads(4)
            .solve_sparse(&m, &b)
            .unwrap()
    });
    assert_eq!(sol.report.levels.expect("shape").workers, 4);
    assert_eq!(wall_lanes_with(&dump, "sparse", "barrier_wait_ns"), 4);

    // The packed GEMM (`join_all`) on an explicit budget, whatever
    // `DENSE_THREADS` says.
    let a = gen::uniform(192, 160, 11);
    let bm = gen::uniform(160, 240, 12);
    let mut c = Matrix::zeros(192, 240);
    let ((), dump) = traced(|| {
        dense::gemm_with_threads(1.0, &a, &bm, 0.0, &mut c, 3).unwrap();
    });
    assert_eq!(wall_lanes_with(&dump, "dense", "gemm_worker"), 3);
    let region = obs::TraceReport::from_dump(&dump);
    assert_eq!(region.span("dense", "gemm_parallel").unwrap().count, 1);
    assert_eq!(region.span("dense", "gemm_worker").unwrap().count, 3);
}

#[test]
fn traced_sparse_solve_records_the_level_sweep() {
    let (m, b) = sparse_fixture();
    let (sol, dump) = traced(|| {
        SolveRequest::lower()
            .threads(4)
            .plan_sparse(&m, 1)
            .unwrap()
            .execute_sparse(&m, &b)
            .unwrap()
    });
    let ran = sol.report.levels.expect("sparse solves report their shape");
    assert_eq!((ran.workers, ran.barriers), (4, ran.levels));
    let trace = obs::TraceReport::from_dump(&dump);
    let exec = trace.span("sparse", "level_exec").expect("level_exec span");
    assert_eq!(exec.count, 1);
    assert_eq!(
        trace.span("sparse", "level").map(|s| s.count),
        Some(ran.levels as u64),
        "worker 0 records one span per level"
    );
    let waits = trace
        .counter("sparse", "barrier_wait_ns")
        .expect("barrier wait time");
    assert_eq!(waits.count, 4, "one barrier_wait_ns counter per worker");
    assert_eq!(trace.barrier_wait_ns, waits.total);
}

#[test]
fn chrome_export_of_traced_run_validates() {
    let (m, b) = sparse_fixture();
    let ((), dump) = traced(|| {
        SolveRequest::lower()
            .threads(4)
            .solve_sparse(&m, &b)
            .unwrap();
    });
    assert!(!dump.is_empty());
    let json = obs::chrome::to_chrome_json(&dump);
    let errors = obs::chrome::validate(&json);
    assert!(
        errors.is_empty(),
        "exported trace must validate: {errors:?}"
    );
}

#[test]
fn drift_report_covers_itinv_phases() {
    let (n, k, p) = (64usize, 16usize, 4usize);
    let out = Machine::new(p, MachineParams::cluster())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).expect("grid");
            let l_global = gen::well_conditioned_lower(n, 21);
            let b_global = gen::rhs(n, k, 22);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let plan = SolveRequest::lower()
                .plan_distributed(n, k, comm.size())
                .expect("plan");
            let sol = plan.execute_distributed(&l, &b).expect("solve");
            plan.drift_report(&sol.report, costmodel::Machine::cluster())
                .render()
        })
        .expect("machine run");
    let table = &out.results[0];
    for needle in ["itinv: inversion", "itinv: solve", "itinv: update", "TOTAL"] {
        assert!(
            table.contains(needle),
            "drift table missing {needle}:\n{table}"
        );
    }
}

/// Release-only wall-clock envelope: a traced sparse solve must finish
/// within a small multiple of the untraced baseline.  Debug builds skip
/// this — unoptimised span bookkeeping isn't what ships, and debug timings
/// are noise.
#[cfg(not(debug_assertions))]
#[test]
fn tracing_enabled_stays_in_wall_clock_envelope() {
    let (m, b) = sparse_fixture();
    let solve = || {
        SolveRequest::lower()
            .threads(4)
            .solve_sparse(&m, &b)
            .unwrap();
    };
    let best_of = |runs: usize, f: &dyn Fn()| -> std::time::Duration {
        (0..runs)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    solve(); // warm the pool and the page cache
    let untraced = best_of(5, &solve);
    let traced = best_of(5, &|| obs::Recorder::new().record(solve));
    // Generous envelope: tracing adds per-level spans and per-worker
    // counters, not per-nonzero work, so 3x + 5ms absorbs scheduler noise
    // on shared CI runners while still catching accidental hot-loop costs.
    let limit = untraced * 3 + std::time::Duration::from_millis(5);
    assert!(
        traced <= limit,
        "traced solve {traced:?} exceeded envelope {limit:?} (untraced {untraced:?})"
    );
}
