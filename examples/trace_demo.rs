//! Traced end-to-end demo: run one solve per backend under one
//! `obs::Recorder` — dense, sparse (a 4-worker level sweep), and
//! distributed (Recursive and the iterative inversion-based algorithm) —
//! then export what it recorded as one Chrome-trace JSON file,
//! validate it, and print predicted-vs-measured cost-drift tables.
//!
//! ```text
//! cargo run --release --example trace_demo [out.json]
//! ```
//!
//! The resulting file loads in `chrome://tracing` or Perfetto: wall-clock
//! lanes appear under pid 1 (one tid per worker thread), the simulated
//! machine's virtual-clock lanes under pid 2 (one tid per rank).
//!
//! The demo exits nonzero if the exported trace fails validation or any
//! expected backend left no events, so CI can run it as a trace audit.

use catrsm_suite::prelude::*;
use catrsm_suite::{costmodel, obs, sparse};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace.json".to_string());

    // -- dense backend ------------------------------------------------------
    // Operands and plan are built before recording starts, so the
    // recorder's first report is the dense execute's alone.
    let n = 512;
    let k = 64;
    let l = gen::well_conditioned_lower(n, 7);
    let x_true = gen::rhs(n, k, 8);
    let b = dense::matmul(&l, &x_true);
    let plan = SolveRequest::lower().plan(&l, k).expect("dense plan");

    let recorder = obs::Recorder::new();
    let (sparse_drift, (rec_drift, it_drift)) = recorder.record(|| {
        let sol = plan.execute(&l, &b).expect("dense solve");
        assert!(dense::norms::rel_diff(&sol.x, &x_true) < 1e-8);
        println!("dense: {}", plan);
        println!("{}", recorder.report().summary());
        (sparse_solve(), distributed_solves())
    });

    // -- cost-drift tables --------------------------------------------------
    println!("\ncost drift — recursive TRSM (cluster constants):");
    println!("{rec_drift}");
    println!("cost drift — iterative inversion-based TRSM (cluster constants):");
    println!("{it_drift}");
    println!("cost drift — sparse level-scheduled sweep (unit constants):");
    println!("{sparse_drift}");

    // -- export + audit -----------------------------------------------------
    let dump = recorder.dump();
    let json = obs::chrome::to_chrome_json(&dump);
    std::fs::write(&out_path, &json).expect("write trace file");
    println!(
        "wrote {} ({} events across {} threads, {} dropped)",
        out_path,
        dump.len(),
        dump.threads.len(),
        dump.dropped
    );

    let mut failed = false;
    let errors = obs::chrome::validate(&json);
    for e in &errors {
        eprintln!("trace validation error: {e}");
    }
    failed |= !errors.is_empty();

    // Every backend must have left its fingerprint in the trace.
    for needle in [
        "\"cat\":\"planner\"",
        "\"cat\":\"core\"",
        "\"cat\":\"dense\"",
        "\"name\":\"level_exec\"",
        "\"name\":\"barrier_wait_ns\"",
        "\"cat\":\"simnet\"",
        "\"pid\":2",
    ] {
        if !json.contains(needle) {
            eprintln!("trace audit: expected {needle} in the exported trace");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("trace audit passed");
}

/// Sparse backend: one parallel level sweep; returns its drift table.
fn sparse_solve() -> String {
    // Levels of 8 192 rows clear the go-parallel rule, so the budget of 4
    // becomes 4 workers and the trace shows the sweep and its barriers.
    let m = sparse::gen::deep_narrow_lower(40_000, 8192, 6, 3);
    let rhs = sparse::gen::rhs_vec(m.n(), 5);
    let plan = SolveRequest::lower()
        .threads(4)
        .plan(&m, 1)
        .expect("sparse plan");
    let mut x = rhs.clone();
    let report = plan
        .execute_in_place(&m, x.as_mut_slice())
        .expect("sparse solve");
    println!("sparse: {plan}");
    assert_eq!(report.levels.expect("level report").workers, 4);
    plan.drift_report(&report, costmodel::Machine::unit())
        .render()
}

/// Distributed backend: Recursive and iterative inversion on four ranks;
/// returns rank 0's two drift tables.
fn distributed_solves() -> (String, String) {
    let (dn, dk, p) = (64usize, 16usize, 4usize);
    let out = Machine::new(p, MachineParams::cluster())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).expect("grid");
            let l_global = gen::well_conditioned_lower(dn, 21);
            let x_true = gen::rhs(dn, dk, 22);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            let rec_plan = SolveRequest::lower()
                .algorithm(Algorithm::Recursive { base_size: 16 })
                .plan_distributed(dn, dk, comm.size())
                .expect("recursive plan");
            let rec = rec_plan.execute(&l, &b).expect("recursive");
            assert!(dense::norms::rel_diff(&rec.x.to_global(), &x_true) < 1e-8);
            let rec_drift = rec_plan
                .drift_report(&rec.report, costmodel::Machine::cluster())
                .render();

            let it_plan = SolveRequest::lower()
                .plan_distributed(dn, dk, comm.size())
                .expect("it-inv plan");
            let it = it_plan.execute(&l, &b).expect("it-inv");
            assert!(dense::norms::rel_diff(&it.x.to_global(), &x_true) < 1e-8);
            let it_drift = it_plan
                .drift_report(&it.report, costmodel::Machine::cluster())
                .render();
            (rec_drift, it_drift)
        })
        .expect("simulated machine run");
    out.results.into_iter().next().expect("rank 0")
}
