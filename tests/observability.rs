//! Cross-crate integration tests for the solver-wide tracing layer
//! (`obs`): traced solves attach `TraceReport`s with the expected spans
//! and counters on every backend, the Chrome-trace export validates, the
//! cost-drift report covers the iterative algorithm's phases, and — in
//! release builds — tracing-enabled solves stay inside a wall-clock
//! envelope of the untraced baseline.
//!
//! The recorder's enable flag and buffers are process-global, so every
//! test that toggles tracing serialises on [`trace_lock`].

use catrsm_suite::prelude::*;
use catrsm_suite::{costmodel, obs, sparse};
use std::sync::{Mutex, MutexGuard};

/// Serialises tests that touch the process-global trace recorder.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with tracing enabled on a clean buffer, returning its result
/// and the trace dump of everything it recorded.
fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, obs::TraceDump) {
    obs::set_enabled(true);
    obs::clear();
    let out = f();
    let dump = obs::collect_all();
    obs::set_enabled(false);
    obs::clear();
    (out, dump)
}

/// A factor whose levels (2 048 rows each) clear the go-parallel rule, so
/// a budget of 4 traces a 4-worker level sweep.
fn sparse_fixture() -> (SparseTri, Matrix) {
    let m = sparse::gen::deep_narrow_lower(20_000, 2048, 6, 3);
    let b = Matrix::from_vec(m.n(), 1, sparse::gen::rhs_vec(m.n(), 5)).unwrap();
    (m, b)
}

#[test]
fn traced_dense_solve_attaches_report() {
    let _guard = trace_lock();
    let n = 256;
    let k = 32;
    let l = gen::well_conditioned_lower(n, 7);
    let b = gen::rhs(n, k, 8);
    let (sol, _) = with_tracing(|| {
        SolveRequest::lower()
            .plan_dense(n, k)
            .unwrap()
            .execute_dense(&l, &b)
            .unwrap()
    });
    let trace = sol.report.trace.expect("traced solve attaches a report");
    let exec = trace.span("core", "execute").expect("execute span");
    assert_eq!(exec.count, 1);
    assert_eq!(trace.dropped, 0);
}

#[test]
fn untraced_solve_attaches_no_report() {
    let _guard = trace_lock();
    obs::set_enabled(false);
    let l = gen::well_conditioned_lower(64, 7);
    let b = gen::rhs(64, 8, 8);
    let sol = SolveRequest::lower().solve_dense(&l, &b).unwrap();
    assert!(sol.report.trace.is_none());
}

#[test]
fn traced_sparse_solve_records_the_level_sweep() {
    let _guard = trace_lock();
    let (m, b) = sparse_fixture();
    let (sol, _) = with_tracing(|| {
        SolveRequest::lower()
            .threads(4)
            .plan_sparse(&m, 1)
            .unwrap()
            .execute_sparse(&m, &b)
            .unwrap()
    });
    let ran = sol.report.levels.expect("sparse solves report their shape");
    assert_eq!((ran.workers, ran.barriers), (4, ran.levels));
    let trace = sol.report.trace.expect("traced sparse solve");
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
    let _guard = trace_lock();
    let (m, b) = sparse_fixture();
    let ((), dump) = with_tracing(|| {
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
    let _guard = trace_lock();
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

/// Release-only wall-clock envelope: a tracing-enabled sparse solve must
/// finish within a small multiple of the untraced baseline.  Debug builds
/// skip this — unoptimised span bookkeeping isn't what ships, and debug
/// timings are noise.
#[cfg(not(debug_assertions))]
#[test]
fn tracing_enabled_stays_in_wall_clock_envelope() {
    let _guard = trace_lock();
    let (m, b) = sparse_fixture();
    let solve = || {
        SolveRequest::lower()
            .threads(4)
            .solve_sparse(&m, &b)
            .unwrap()
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
    obs::set_enabled(false);
    solve(); // warm the pool and the page cache
    let untraced = best_of(5, &|| {
        solve();
    });
    obs::set_enabled(true);
    obs::clear();
    let traced = best_of(5, &|| {
        obs::clear();
        solve();
    });
    obs::set_enabled(false);
    obs::clear();
    // Generous envelope: tracing adds per-level spans and per-worker
    // counters, not per-nonzero work, so 3x + 5ms absorbs scheduler noise
    // on shared CI runners while still catching accidental hot-loop costs.
    let limit = untraced * 3 + std::time::Duration::from_millis(5);
    assert!(
        traced <= limit,
        "traced solve {traced:?} exceeded envelope {limit:?} (untraced {untraced:?})"
    );
}
