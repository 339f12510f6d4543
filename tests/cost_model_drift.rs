//! ROADMAP item 4(b), started: the measured S and W of a distributed solve
//! stay within a stated factor of the plan's predicted leading-order terms,
//! as a test instead of a table someone eyeballs.
//!
//! The two shapes are perfbench's `dist_few_rhs` and `dist_cube` (16 ranks),
//! priced under both cost-model revisions (which agree here: Tang's
//! correction touches the recursive bound, and both shapes plan It-Inv).
//! The ceilings are what the key-free redistribution measures — 9.92 / 11.62
//! (words) and 1.80 / 2.00 (messages) — rounded up; before it these ratios
//! were 16.87 / 19.26 and 1.85 / 2.20, so a change that puts indices back on
//! the wire — or any other words the model does not charge — fails here
//! rather than drifting in a ledger.

use catrsm::{CostModelRev, SolveRequest};
use dense::gen;
use pgrid::{DistMatrix, Grid2D};
use simnet::{Machine, MachineParams};

const GRID: usize = 4;

/// `(max_words / predicted W, max_messages / predicted S)` of one planned
/// solve on a 4×4 grid.
fn drift(n: usize, k: usize, rev: CostModelRev) -> (f64, f64) {
    let request = SolveRequest::lower().cost_model(rev);
    let predicted = request
        .plan_distributed(n, k, GRID * GRID)
        .unwrap()
        .predicted_cost
        .expect("distributed plans carry a prediction");
    let report = Machine::new(GRID * GRID, MachineParams::supercomputer())
        .run(move |comm| {
            let grid = Grid2D::new(comm, GRID, GRID).unwrap();
            let l = DistMatrix::from_global(&grid, &gen::well_conditioned_lower(n, 1));
            let b = DistMatrix::from_global(&grid, &gen::rhs(n, k, 2));
            request.solve_distributed(&l, &b).unwrap();
        })
        .unwrap()
        .report;
    (
        report.max_words() as f64 / predicted.bandwidth,
        report.max_messages() as f64 / predicted.latency,
    )
}

#[test]
fn measured_words_and_messages_stay_within_a_stated_factor_of_the_model() {
    // (n, k, revision, words ceiling, messages ceiling)
    let cases = [
        (1024, 16, CostModelRev::Ipdps17, 10.0, 1.81),
        (1024, 16, CostModelRev::Tang24, 10.0, 1.81),
        (384, 384, CostModelRev::Ipdps17, 11.7, 2.01),
        (384, 384, CostModelRev::Tang24, 11.7, 2.01),
    ];
    for (n, k, rev, max_words_ratio, max_msgs_ratio) in cases {
        let (words, msgs) = drift(n, k, rev);
        assert!(
            words <= max_words_ratio,
            "n={n} k={k} {rev:?}: W is {words:.2}× the model, ceiling {max_words_ratio}"
        );
        assert!(
            msgs <= max_msgs_ratio,
            "n={n} k={k} {rev:?}: S is {msgs:.2}× the model, ceiling {max_msgs_ratio}"
        );
    }
}
