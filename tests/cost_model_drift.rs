//! ROADMAP item 4(a): the measured S and W of a planned distributed solve
//! stay inside a stated two-sided band around the plan's prediction, as a
//! test instead of a table someone eyeballs.
//!
//! The prediction is what the plan quotes — the Section VII phase model at
//! the configuration the planner resolved, constants included — so the
//! ratios sit around 1 and a band can have a floor as well as a ceiling: a
//! change that puts words on the wire the model does not charge fails the
//! ceiling, and a model term that stops describing anything the solve does
//! fails the floor.  (Against the constants-dropped Section VIII totals the
//! same runs read 9.92× / 11.62× on W, a ratio that grew with p.)
//!
//! What is left inside the band, for the next item-4 PR: the model prices no
//! layout change (setup + finalize are ≈ 40 % of measured W on the ledger
//! shapes), and over-prices the per-block right-hand-side reductions of the
//! solve and update phases.

use catrsm::{CostModelRev, SolveRequest};
use dense::gen;
use pgrid::{DistMatrix, Grid2D};
use simnet::{Machine, MachineParams};

/// `(max_words / predicted W, max_messages / predicted S)` of one planned
/// solve on a `grid × grid` caller grid.
fn drift(n: usize, k: usize, grid: usize, rev: CostModelRev) -> (f64, f64) {
    let request = SolveRequest::lower().cost_model(rev);
    let predicted = request
        .plan_distributed(n, k, grid * grid)
        .unwrap()
        .predicted_cost
        .expect("distributed plans carry a prediction");
    let report = Machine::new(grid * grid, MachineParams::supercomputer())
        .run(move |comm| {
            let grid = Grid2D::new(comm, grid, grid).unwrap();
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

fn assert_within(what: &str, ratio: f64, (floor, ceiling): (f64, f64)) {
    assert!(
        (floor..=ceiling).contains(&ratio),
        "{what} is {ratio:.3}× the plan's prediction, outside [{floor}, {ceiling}]"
    );
}

/// The two ledger shapes (perfbench's `dist_few_rhs` and `dist_cube`, 16
/// ranks), both revisions — which plan the same configuration here, and so
/// quote the same prediction.  Measured: W 0.84 / 1.11, S 1.12 / 1.11.
#[test]
fn measured_words_and_messages_stay_within_a_stated_factor_of_the_model() {
    for (n, k) in [(1024, 16), (384, 384)] {
        for rev in CostModelRev::ALL {
            let (words, msgs) = drift(n, k, 4, rev);
            assert_within(&format!("n={n} k={k} {rev:?}: W"), words, (0.8, 1.2));
            assert_within(&format!("n={n} k={k} {rev:?}: S"), msgs, (1.0, 1.2));
        }
    }
}

/// The same contract over p ∈ {4, 16, 64} and all three regimes: every ratio
/// inside one band, so the model's error does not grow with p.  (The regime
/// formula's ratio did — 3.5–6.5× at p = 4, 7–12.5× at 16, 11–25× at 64 —
/// which a dropped constant cannot do.)
#[test]
fn the_band_holds_across_processor_counts() {
    const BAND: (f64, f64) = (0.4, 2.1);
    // (n, k, grid side) — measured W, S ratios beside each.
    let cases = [
        (256, 64, 2),  // 0.447, 1.455
        (512, 8, 2),   // 0.662, 1.075
        (128, 512, 2), // 1.223, 0.714
        (2048, 32, 4), // 0.840, 1.116
        (768, 768, 4), // 1.113, 1.111
        (1024, 64, 8), // 0.994, 1.784
        (512, 512, 8), // 2.002, 0.758
        (2048, 8, 8),  // 1.352, 1.065
    ];
    for (n, k, grid) in cases {
        let (words, msgs) = drift(n, k, grid, CostModelRev::Ipdps17);
        assert_within(&format!("n={n} k={k} p={}: W", grid * grid), words, BAND);
        assert_within(&format!("n={n} k={k} p={}: S", grid * grid), msgs, BAND);
    }
}
