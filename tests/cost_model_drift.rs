//! ROADMAP item 4(a): what a plan quotes is what its solve is charged, as a
//! test instead of a table someone eyeballs.
//!
//! Every distributed plan quotes the walk of what it runs — a function
//! beside the executor that makes the executor's decisions, prices each
//! message on simnet's own schedules and each local kernel by the
//! `dense::flops` count it returns (`catrsm::Algorithm::predicted_cost`).
//! So the quote's S, W and F are not near the measurement but equal to it:
//! the most messages, words and flops any rank sends, receives or is
//! charged, for the iterative algorithm phase by phase as well
//! (`catrsm::it_inv_trsm::predicted_cost`).  One exactness table holds all
//! three algorithms to that on named shapes, and a property test on random
//! shapes and pinned parameters at p ≤ 16.
//!
//! The paper's own Section VII phase model (`ItInvConfig::phase_model`) is
//! a claim about the iterative algorithm, held to a stated two-sided band
//! around the measurement: a change that puts words on the wire the model
//! does not charge fails the ceiling, and a model term that stops describing
//! anything the solve does fails the floor.  What is left inside its band:
//! the model prices no layout change (setup + finalize are ≈ 40 % of
//! measured W on the ledger shapes), and over-prices the per-block
//! right-hand-side reductions of the solve and update phases.

use catrsm::{planner, Algorithm, ItInvConfig, PhaseBreakdown, PlanBackend, SolveRequest};
use costmodel::{Cost, CostModelRev};
use dense::gen;
use pgrid::{DistMatrix, Grid2D};
use proptest::prelude::*;
use simnet::{CostCounters, CostReport, Machine, MachineParams};

/// One planned solve on a `pr × pc` caller grid: the plan's resolved
/// algorithm and quote, the measured report, and every rank's phases.
struct Measured {
    algorithm: Algorithm,
    quote: Cost,
    report: CostReport,
    phases: Vec<Option<PhaseBreakdown>>,
}

fn plan_and_measure(
    request: SolveRequest,
    n: usize,
    k: usize,
    (pr, pc): (usize, usize),
) -> Measured {
    let plan = request.plan_distributed(n, k, pr * pc).unwrap();
    let PlanBackend::Distributed { algorithm, .. } = plan.backend else {
        panic!("expected a distributed plan");
    };
    let quote = plan
        .predicted_cost
        .expect("distributed plans carry a prediction");
    let out = Machine::new(pr * pc, MachineParams::supercomputer())
        .run(move |comm| {
            let grid = Grid2D::new(comm, pr, pc).unwrap();
            let l = DistMatrix::from_global(&grid, &gen::well_conditioned_lower(n, 1));
            let b = DistMatrix::from_global(&grid, &gen::rhs(n, k, 2));
            request.solve(&l, &b).unwrap().report.phases
        })
        .unwrap();
    Measured {
        algorithm,
        quote,
        report: out.report,
        phases: out.results,
    }
}

/// The configuration the planner picks for `(n, k, p)` under `rev`, pinned.
fn planned(rev: CostModelRev, n: usize, k: usize, p: usize) -> SolveRequest {
    let cfg = planner::plan(rev, n, k, p).unwrap();
    SolveRequest::lower().algorithm(Algorithm::IterativeInversion(cfg))
}

/// `(max_words / modelled W, max_messages / modelled S)` of one iterative
/// solve on a `grid × grid` caller grid, against the Section VII phase
/// model at the configuration the plan resolved.
fn drift(request: SolveRequest, n: usize, k: usize, grid: usize) -> (f64, f64) {
    let m = plan_and_measure(request, n, k, (grid, grid));
    let Algorithm::IterativeInversion(cfg) = m.algorithm else {
        panic!("the plan is iterative");
    };
    let model = cfg.phase_model(n, k).named();
    let model: Cost = model.into_iter().map(|(_, m)| m.unwrap_or_default()).sum();
    (
        m.report.max_words() as f64 / model.bandwidth,
        m.report.max_messages() as f64 / model.latency,
    )
}

fn assert_within(what: &str, ratio: f64, (floor, ceiling): (f64, f64)) {
    assert!(
        (floor..=ceiling).contains(&ratio),
        "{what} is {ratio:.3}× the Section VII model, outside [{floor}, {ceiling}]"
    );
}

/// The two ledger shapes (perfbench's `dist_few_rhs` and `dist_cube`, 16
/// ranks), at what an unpinned request plans — the paper's bounds — and at
/// the planner's pick under both revisions, which is the same
/// configuration here.  Measured against the phase model: W 0.84 / 1.11,
/// S 1.12 / 1.11.
#[test]
fn measured_words_and_messages_stay_within_a_stated_factor_of_the_model() {
    for (n, k, (p1, p2, n0)) in [(1024, 16, (4, 1, 64)), (384, 384, (2, 4, 384))] {
        let plan = SolveRequest::lower().plan_distributed(n, k, 16).unwrap();
        let cfg = ItInvConfig {
            p1,
            p2,
            n0,
            inv_base: 64,
        };
        let algorithm = Algorithm::IterativeInversion(cfg);
        assert_eq!(plan.backend, PlanBackend::Distributed { algorithm, p: 16 });
        for rev in CostModelRev::ALL {
            assert_eq!(planner::plan(rev, n, k, 16).unwrap(), cfg, "{rev:?}");
            let (words, msgs) = drift(planned(rev, n, k, 16), n, k, 4);
            assert_within(&format!("n={n} k={k} {rev:?}: W"), words, (0.8, 1.2));
            assert_within(&format!("n={n} k={k} {rev:?}: S"), msgs, (1.0, 1.2));
        }
    }
}

/// The eight shapes over p ∈ {4, 16, 64} and all three regimes, against
/// the phase model.
const BAND_SHAPES: [(usize, usize, usize); 8] = [
    (256, 64, 2),
    (512, 8, 2),
    (128, 512, 2),
    (2048, 32, 4),
    (768, 768, 4),
    (1024, 64, 8),
    (512, 512, 8),
    (2048, 8, 8),
];

/// The same contract over p ∈ {4, 16, 64} and all three regimes: every ratio
/// inside one band, so the model's error does not grow with p.  (The regime
/// formula's ratio did — 3.5–6.5× at p = 4, 7–12.5× at 16, 11–25× at 64 —
/// which a dropped constant cannot do.)  Measured W, S ratios, in
/// [`BAND_SHAPES`] order: 0.447, 1.455; 0.662, 1.075; 1.223, 0.714; 0.840,
/// 1.116; 1.113, 1.111; 0.994, 1.784; 2.002, 0.758; 1.352, 1.065.
#[test]
fn the_band_holds_across_processor_counts() {
    const BAND: (f64, f64) = (0.4, 2.1);
    for (n, k, grid) in BAND_SHAPES {
        let (words, msgs) = drift(SolveRequest::lower(), n, k, grid);
        assert_within(&format!("n={n} k={k} p={}: W", grid * grid), words, BAND);
        assert_within(&format!("n={n} k={k} p={}: S", grid * grid), msgs, BAND);
    }
}

/// The exactness table: every plan's quoted S, W and F are the measured
/// rank maxima, and an iterative plan's are per phase as well.  The shapes: the
/// two ledger shapes at the planner's pick under both revisions,
/// [`BAND_SHAPES`] unpinned, E3's eight
/// rows (`exp rec_trsm`), `op_costs`' lower row for each algorithm, and
/// the wavefront on three more grids and one rank.
#[test]
fn every_plan_quotes_the_measured_maxima() {
    let recursive = |base_size| Some(Algorithm::Recursive { base_size });
    let pinned = |algorithm| SolveRequest::lower().algorithm(algorithm);
    let mut cases = Vec::new();
    for (n, k) in [(1024, 16), (384, 384)] {
        cases.extend(CostModelRev::ALL.map(|rev| (planned(rev, n, k, 16), n, k, 4)));
    }
    for (n, k, grid) in BAND_SHAPES {
        cases.push((SolveRequest::lower(), n, k, grid));
    }
    // (algorithm, n, k, grid side) — measured S, W beside each.
    cases.extend(
        [
            (recursive(16), 32, 2048, 2),             // 22, 33 398
            (recursive(16), 32, 4096, 4),             // 44, 33 782
            (recursive(32), 256, 64, 2),              // 106, 36 113
            (recursive(32), 256, 64, 4),              // 212, 26 482
            (recursive(64), 512, 128, 4),             // 212, 103 282
            (recursive(64), 512, 16, 2),              // 106, 40 685
            (recursive(64), 512, 16, 4),              // 212, 41 896
            (recursive(64), 1024, 16, 4),             // 436, 90 016
            (None, 128, 32, 4),                       // 36, 12 913
            (recursive(16), 128, 32, 4),              // 212, 7 282
            (Some(Algorithm::Wavefront), 128, 32, 4), // 644, 7 680
            (Some(Algorithm::Wavefront), 64, 16, 2),  // 182, 2 462
            (Some(Algorithm::Wavefront), 256, 8, 4),  // 1 276, 12 360
            (Some(Algorithm::Wavefront), 256, 64, 8), // 1 806, 23 886
            (Some(Algorithm::Wavefront), 64, 16, 1),  // 0, 0
        ]
        .map(|(algorithm, n, k, grid)| (pinned(algorithm), n, k, grid)),
    );
    for (request, n, k, grid) in cases {
        assert_the_quote_is_measured(request, n, k, (grid, grid));
    }
}

/// The plan of `request` for an `n × n`, `k`-column solve on the `pr × pc`
/// caller grid quotes the most messages, words and flops any rank was
/// charged — an iterative plan phase by phase as well.
fn assert_the_quote_is_measured(request: SolveRequest, n: usize, k: usize, grid: (usize, usize)) {
    let m = plan_and_measure(request, n, k, grid);
    let what = format!("{:?} n={n} k={k} on {grid:?}", m.algorithm);
    assert_eq!(m.report.max_messages() as f64, m.quote.latency, "{what}: S");
    assert_eq!(m.report.max_words() as f64, m.quote.bandwidth, "{what}: W");
    assert_eq!(m.report.max_flops() as f64, m.quote.flops, "{what}: F");
    let Algorithm::IterativeInversion(cfg) = m.algorithm else {
        return;
    };
    let quoted = catrsm::it_inv_trsm::predicted_cost(n, k, grid.0, grid.1, &cfg).named();
    let ranks: Vec<PhaseBreakdown> = m.phases.into_iter().map(Option::unwrap).collect();
    for (phase, (name, quote)) in quoted.into_iter().enumerate() {
        let most = |of: fn(&CostCounters) -> u64| {
            let measured = ranks.iter().map(|r| of(&r.named()[phase].1));
            measured.max().unwrap_or(0) as f64
        };
        let at = format!("{what}, {name}");
        assert_eq!(most(CostCounters::latency), quote.latency, "{at}: S");
        assert_eq!(most(CostCounters::bandwidth), quote.bandwidth, "{at}: W");
        assert_eq!(most(|c| c.flops), quote.flops, "{at}: F");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes on 4, 8 and 16 ranks, on the caller grid a quote
    /// assumes, with each algorithm pinned at random feasible parameters:
    /// every quote is the measured maxima.
    #[test]
    fn a_random_pinned_plan_quotes_the_measured_maxima(
        p_choice in 0usize..3,
        a in 1usize..=4,
        b in 1usize..=3,
        which in 0usize..3,
        pick in 0usize..1000,
    ) {
        let (pr, pc) = [(2usize, 2usize), (2, 4), (4, 4)][p_choice];
        let (p, n, k) = (pr * pc, 16 * pc * a, 4 * pc * b);
        let algorithm = match which {
            0 => Algorithm::Wavefront,
            1 => Algorithm::Recursive { base_size: [8, 16, 32][pick % 3] },
            _ => {
                // p1² | p and p2 = p/p1², which divides k; n0 a multiple of
                // p1 dividing n, in at most 16 blocks.
                let p1s: Vec<usize> = [1, 2, 4].into_iter().filter(|p1| p % (p1 * p1) == 0).collect();
                let p1 = p1s[pick % p1s.len()];
                let n0s: Vec<usize> = (n / 16..=n).filter(|c| n % c == 0 && c % p1 == 0).collect();
                let n0 = n0s[pick / 3 % n0s.len()];
                Algorithm::IterativeInversion(ItInvConfig { p1, p2: p / (p1 * p1), n0, inv_base: 8 })
            }
        };
        assert_the_quote_is_measured(SolveRequest::lower().algorithm(algorithm), n, k, (pr, pc));
    }
}

/// Two pins that differ only in the base size quote different S, each the
/// measured one.
#[test]
fn the_base_size_reaches_the_recursive_quote() {
    let quotes = [16, 64].map(|base_size| {
        let request = SolveRequest::lower().algorithm(Algorithm::Recursive { base_size });
        let m = plan_and_measure(request, 256, 64, (4, 4));
        assert_eq!(
            m.report.max_messages() as f64,
            m.quote.latency,
            "base {base_size}"
        );
        m.quote.latency
    });
    assert_ne!(quotes[0], quotes[1]);
}
