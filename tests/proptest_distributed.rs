//! Property-based integration tests: random (but feasibility-constrained)
//! problem shapes, block sizes and grid configurations must all produce
//! solutions that agree with the sequential kernels.

use catrsm::it_inv_trsm::{it_inv_trsm, ItInvConfig};
use catrsm::rec_trsm::rec_trsm;
use catrsm_suite::prelude::*;
use proptest::prelude::*;

/// Strategy producing feasible (n, k, n0, p1, p2) for a 2×2 grid (4 ranks):
/// the divisibility rules of `It-Inv-TRSM` are encoded here so every sampled
/// configuration must run.
fn itinv_configs() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    // n = 16·a with a in 1..=6, k = 4·b with b in 1..=8.
    (1usize..=6, 1usize..=8, 0usize..3, prop::bool::ANY).prop_map(|(a, b, n0_choice, flat)| {
        let n = 16 * a;
        let k = 4 * b;
        let (p1, p2) = if flat { (2, 1) } else { (1, 4) };
        // n0 must divide n and be a multiple of p1.
        let candidates: Vec<usize> = (1..=n).filter(|c| n % c == 0 && c % p1 == 0).collect();
        let n0 = candidates[n0_choice.min(candidates.len() - 1)];
        (n, k, n0, p1, p2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The iterative inversion-based TRSM solves every feasible random
    /// configuration on a 4-rank machine.
    #[test]
    fn it_inv_trsm_solves_random_feasible_configs(
        (n, k, n0, p1, p2) in itinv_configs(),
        seed in 0u64..1000,
    ) {
        // k must be divisible by p2.
        prop_assume!(k % p2 == 0);
        let errs = Machine::new(4, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let l_g = gen::well_conditioned_lower(n, seed);
                let x_g = gen::rhs(n, k, seed + 1);
                let b_g = dense::matmul(&l_g, &x_g);
                let l = DistMatrix::from_global(&grid, &l_g);
                let b = DistMatrix::from_global(&grid, &b_g);
                let cfg = ItInvConfig { p1, p2, n0, inv_base: 8 };
                let (x, _) = it_inv_trsm(&l, &b, &cfg).unwrap();
                let reference = DistMatrix::from_global(&grid, &x_g);
                x.rel_diff(&reference).unwrap()
            })
            .unwrap()
            .results;
        for err in errs {
            prop_assert!(err < 1e-7, "n={n} k={k} n0={n0} p1={p1} p2={p2}: {err}");
        }
    }

    /// The recursive and iterative algorithms agree with each other on random
    /// instances (they may differ from the true solution by rounding, but
    /// must agree to solver accuracy).
    #[test]
    fn recursive_and_iterative_agree(
        a in 1usize..=4,
        b in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let n = 32 * a;
        let k = 8 * b;
        let errs = Machine::new(4, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let l_g = gen::well_conditioned_lower(n, seed);
                let b_g = gen::rhs(n, k, seed + 1);
                let l = DistMatrix::from_global(&grid, &l_g);
                let b = DistMatrix::from_global(&grid, &b_g);
                let x_rec = rec_trsm(&l, &b, 16).unwrap();
                let cfg = ItInvConfig { p1: 2, p2: 1, n0: n / 2, inv_base: 8 };
                let (x_it, _) = it_inv_trsm(&l, &b, &cfg).unwrap();
                x_rec.rel_diff(&x_it).unwrap()
            })
            .unwrap()
            .results;
        for err in errs {
            prop_assert!(err < 1e-7, "n={n} k={k}: {err}");
        }
    }

    /// Collectives keep data consistent for arbitrary payload sizes: an
    /// allgather followed by taking one's own block is the identity, and an
    /// allreduce of rank-constant vectors equals p times the average.
    #[test]
    fn collective_round_trips(words in 1usize..200, p_choice in 0usize..3) {
        let p = [2usize, 4, 8][p_choice];
        let ok = Machine::new(p, MachineParams::unit())
            .run(move |comm| {
                let mine: Vec<f64> = (0..words).map(|w| (comm.rank() * 1000 + w) as f64).collect();
                let all = coll::allgather(comm, &mine).unwrap();
                let start = comm.rank() * words;
                let round_trip_ok = all[start..start + words] == mine[..];
                let reduced = coll::allreduce(comm, &mine, coll::ReduceOp::Sum).unwrap();
                let expect: f64 = (0..comm.size()).map(|r| (r * 1000) as f64).sum();
                let reduce_ok = (reduced[0] - expect).abs() < 1e-9;
                round_trip_ok && reduce_ok
            })
            .unwrap()
            .results;
        prop_assert!(ok.into_iter().all(|v| v));
    }

    /// Distributing a random matrix and collecting it back is the identity,
    /// for any grid shape that fits four ranks.
    #[test]
    fn distribute_collect_identity(
        rows in 1usize..40,
        cols in 1usize..40,
        shape in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (pr, pc) = [(1usize, 4usize), (2, 2), (4, 1)][shape];
        let ok = Machine::new(4, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, pr, pc).unwrap();
                let a_g = gen::uniform(rows, cols, seed);
                let a = DistMatrix::from_global(&grid, &a_g);
                a.to_global() == a_g
            })
            .unwrap()
            .results;
        prop_assert!(ok.into_iter().all(|v| v));
    }
}
