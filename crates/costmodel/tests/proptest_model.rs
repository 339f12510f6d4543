//! Property-based tests of the analytic cost model: invariants that must
//! hold for any problem shape, mirroring the claims of Sections II–IX.

use costmodel::CostModelRev::{Ipdps17, Tang24};
use costmodel::{collectives, compare, inversion, itinv, mm, tuning};
use proptest::prelude::*;

fn problem() -> impl Strategy<Value = (f64, f64, f64)> {
    // n, k in [2^4, 2^24], p in [4, 2^20] as powers of two.
    (4u32..24, 4u32..24, 2u32..20)
        .prop_map(|(n, k, p)| ((1u64 << n) as f64, (1u64 << k) as f64, (1u64 << p) as f64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Collective costs are monotone in the message size and never negative.
    #[test]
    fn collective_costs_are_monotone((_, k, p) in problem(), factor in 2.0f64..10.0) {
        for f in [collectives::allgather, collectives::reduce_scatter, collectives::bcast,
                  collectives::alltoall, collectives::reduction] {
            let small = f(k, p);
            let large = f(k * factor, p);
            prop_assert!(small.bandwidth >= 0.0 && small.latency >= 0.0);
            prop_assert!(large.bandwidth >= small.bandwidth);
            prop_assert!(large.latency >= small.latency);
        }
    }

    /// The three regimes partition the parameter space at the Section VIII
    /// boundaries.
    #[test]
    fn regime_classification_is_consistent((n, k, p) in problem()) {
        let r = Ipdps17.classify(n, k, p);
        match r {
            tuning::Regime::OneLargeDim => prop_assert!(n < 4.0 * k / p),
            tuning::Regime::TwoLargeDims => prop_assert!(n > 4.0 * k * p.sqrt()),
            tuning::Regime::ThreeLargeDims => {
                prop_assert!(n >= 4.0 * k / p && n <= 4.0 * k * p.sqrt());
            }
        }
    }

    /// The planner always returns a grid that uses all p processors and a
    /// block size within [1, n].
    #[test]
    fn plan_is_structurally_valid((n, k, p) in problem()) {
        let plan = Ipdps17.plan(n as usize, k as usize, p as usize);
        prop_assert!(plan.p1 >= 1.0 && plan.p2 >= 1.0);
        prop_assert!((plan.p1 * plan.p1 * plan.p2 - p).abs() / p < 1e-6);
        prop_assert!(plan.n0 >= 1.0 && plan.n0 <= n + 0.5);
        prop_assert!(plan.r2 >= plan.r1 * 0.99);
        prop_assert!(plan.r1 * plan.r1 * plan.r2 <= p * 1.01 + 4.0);
    }

    /// Both methods in the conclusion table always move the same words and
    /// the new method never does more than twice the flops.
    #[test]
    fn conclusion_table_invariants((n, k, p) in problem()) {
        let row = Ipdps17.conclusion_row(n, k, p);
        prop_assert!((row.standard.bandwidth - row.new.bandwidth).abs() <= 1e-9 * row.standard.bandwidth);
        prop_assert!(row.new.flops <= 2.0 * row.standard.flops + 1e-9);
        prop_assert!(row.standard.flops >= n * n * k / p * 0.99);
    }

    /// In the three-large-dimensions regime the latency improvement grows
    /// with p at fixed n and k.
    #[test]
    fn improvement_grows_with_p(n_exp in 16u32..24, k_exp in 10u32..16) {
        let n = (1u64 << n_exp) as f64;
        let k = (1u64 << k_exp) as f64;
        let mut last = 0.0;
        for p_exp in [8u32, 12, 16] {
            let p = (1u64 << p_exp) as f64;
            if Ipdps17.classify(n, k, p) != tuning::Regime::ThreeLargeDims {
                continue;
            }
            let imp = compare::latency_improvement(n, k, p);
            prop_assert!(imp >= last * 0.999, "improvement should grow with p");
            last = imp;
        }
    }

    /// The recursive TRSM and MM flop costs are always the optimal n²k/p.
    #[test]
    fn flop_costs_are_optimal((n, k, p) in problem()) {
        let (p1, p2) = mm::mm_grid_for(n, k, p);
        prop_assert!((Ipdps17.standard_cost(n, k, p).flops - n * n * k / p).abs() < 1e-6 * n * n * k / p);
        prop_assert!((Tang24.standard_cost(n, k, p).flops - n * n * k / p).abs() < 1e-6 * n * n * k / p);
        prop_assert!((mm::mm_cost(n, k, p, p1, p2).flops - n * n * k / p).abs() < 1e-9 * n * n * k / p);
    }

    /// Inversion cost decreases when processors are added (strong scaling in
    /// the model) and the optimal grid multiplies out to q.
    #[test]
    fn inversion_scales_and_grid_is_consistent(n_exp in 8u32..20, q_exp in 2u32..16) {
        let n = (1u64 << n_exp) as f64;
        let q = (1u64 << q_exp) as f64;
        let (r1, r2) = inversion::optimal_inv_grid(q);
        prop_assert!((r1 * r1 * r2 - q).abs() / q < 1e-6 || (r1 == 1.0 && r2 >= 1.0));
        let small = inversion::rec_tri_inv_cost(n, r1, r2);
        let (r1b, r2b) = inversion::optimal_inv_grid(q * 8.0);
        let large = inversion::rec_tri_inv_cost(n, r1b, r2b);
        prop_assert!(large.bandwidth <= small.bandwidth * 1.001);
        prop_assert!(large.flops < small.flops);
    }

    /// The It-Inv-TRSM phase costs are consistent: more blocks (smaller n0)
    /// means more latency in the solve phase, never less.
    #[test]
    fn solve_latency_monotone_in_block_count(
        n_exp in 10u32..20,
        k_exp in 6u32..16,
        p1_exp in 1u32..5,
    ) {
        let n = (1u64 << n_exp) as f64;
        let k = (1u64 << k_exp) as f64;
        let p1 = (1u64 << p1_exp) as f64;
        let coarse = itinv::solve_phase(n, k, n / 2.0, p1, 4.0);
        let fine = itinv::solve_phase(n, k, n / 16.0, p1, 4.0);
        prop_assert!(fine.latency > coarse.latency);
    }
}
