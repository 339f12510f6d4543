//! Accuracy of the distributed solve on the two factor families of the
//! dense kernel's contracts (`crates/dense/tests/trsm_contracts.rs`):
//!
//! * **off-diagonal ill-conditioning** — well-conditioned 64-blocks on the
//!   diagonal, every entry outside them scaled by 200;
//! * **one Kahan block** — the second 64-block replaced by unit diagonal
//!   and −0.6 everywhere below it (κ₁ ≈ 2.8e14).
//!
//! Every algorithm runs on both, at `n = k = 384` on 4 and 16 ranks:
//! It-Inv at `n0 ∈ {64, 128, n}` on the planner's `p1 × p1 × p2` grid,
//! Recursive and Wavefront.  Whatever a solve inverts bounds its normwise
//! residual `‖LX − B‖_F / (‖L‖_F‖X‖_F)`: `c·n·ε·κ₁` of the largest block
//! inverted, where the local dense kernel inverts its `NB`-blocks in every
//! solve at least `NB` columns wide and It-Inv its `n0`-blocks.  It-Inv's
//! forward error stays within 4× of Recursive's at every `n0`.
//!
//! Where It-Inv inverts a block holding the scaled entries — `n0 = n` on
//! the first family, which is the configuration the planner picks at both
//! machine sizes — the residual is above `c·n·ε·κ₁` of the `NB`-blocks and
//! only the `n0`-block's bound holds: [`breaks_the_nb_bound`] names it, and
//! the test asserts that the gap is there.

use catrsm::{Algorithm, ItInvConfig, PlanBackend};
use catrsm_suite::prelude::*;
use dense::{norms, tri_invert, TRSM_BLOCK};

const N: usize = 384;
const K: usize = 384;
const NB: usize = TRSM_BLOCK;
/// The constant of the `c·n·ε` bounds.
const C: f64 = 4.0;

/// Well-conditioned 64-blocks on the diagonal, every entry outside them
/// scaled by 200.
fn off_diagonal_ill_conditioned() -> Matrix {
    let mut l = gen::well_conditioned_lower(N, 17);
    for i in 0..N {
        for j in 0..i {
            if i / NB != j / NB {
                l[(i, j)] *= 200.0;
            }
        }
    }
    l
}

/// One Kahan-type diagonal block (the second): unit diagonal, −0.6
/// everywhere below it.
fn one_kahan_block() -> Matrix {
    let mut l = gen::well_conditioned_lower(N, 19);
    for i in 0..NB {
        for j in 0..=i {
            l[(NB + i, NB + j)] = if i == j { 1.0 } else { -0.6 };
        }
    }
    l
}

/// κ₁ of the worst `n0×n0` diagonal block of `l`: what It-Inv inverts.
fn largest_block_kappa(l: &Matrix, n0: usize) -> f64 {
    (0..N / n0)
        .map(|b| {
            let block = l.block(b * n0, b * n0, n0, n0);
            let (inv, _) = tri_invert(Triangle::Lower, &block).unwrap();
            norms::one_norm(&block) * norms::one_norm(&inv)
        })
        .fold(0.0, f64::max)
}

/// `‖L·X − B‖_F / (‖L‖_F·‖X‖_F)`.
fn residual(l: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    norms::frobenius(&dense::matmul(l, x).sub(b).unwrap())
        / (norms::frobenius(l) * norms::frobenius(x))
}

/// The planner's It-Inv configuration for `p` ranks.
fn planned(p: usize) -> ItInvConfig {
    match SolveRequest::lower()
        .plan_distributed(N, K, p)
        .unwrap()
        .backend
    {
        PlanBackend::Distributed {
            algorithm: Algorithm::IterativeInversion(cfg),
            ..
        } => cfg,
        backend => panic!("an unpinned plan is It-Inv: {backend:?}"),
    }
}

/// Every algorithm on `p` ranks, with the block size It-Inv inverts.
fn algorithms(p: usize) -> Vec<(Algorithm, Option<usize>)> {
    let cfg = planned(p);
    let mut algs: Vec<_> = [64, 128, N]
        .into_iter()
        .map(|n0| {
            (
                Algorithm::IterativeInversion(ItInvConfig { n0, ..cfg }),
                Some(n0),
            )
        })
        .collect();
    algs.push((Algorithm::Recursive { base_size: 64 }, None));
    algs.push((Algorithm::Wavefront, None));
    algs
}

/// The configurations whose residual is above `c·n·ε·κ₁` of the dense
/// kernel's `NB`-blocks: It-Inv inverting all of `L` on the off-diagonal
/// family, where the largest inverted block holds every scaled entry.  The
/// planner runs exactly this at `n = k = 384`, on 4 ranks and on 16
/// (measured 1.3e-11 on 4 ranks and 1.5e-11 on 16, against `c·n·ε` =
/// 3.4e-13 and `c·n·ε·κ₁` of the `NB`-blocks = 2.4e-12).
fn breaks_the_nb_bound(family: &str, n0: Option<usize>) -> bool {
    family == OFF_DIAGONAL && n0 == Some(N)
}

const OFF_DIAGONAL: &str = "off-diagonal ×200";

/// Solve `L·X = L·X_true` on `p` ranks with every algorithm, and unpinned;
/// rank 0's global `X` per solve, the unpinned one first.
fn solve_all(l: &Matrix, x_true: &Matrix, p: usize) -> Vec<(Algorithm, Matrix)> {
    let b = dense::matmul(l, x_true);
    let (l, b) = (std::sync::Arc::new(l.clone()), std::sync::Arc::new(b));
    let out = Machine::new(p, MachineParams::cluster())
        .run(move |comm| {
            // The square caller grid the plans' quotes assume.
            let side = comm.size().isqrt();
            let grid = Grid2D::new(comm, side, side).unwrap();
            let ld = DistMatrix::from_global(&grid, &l);
            let bd = DistMatrix::from_global(&grid, &b);
            let unpinned = SolveRequest::lower().solve(&ld, &bd).unwrap().x;
            let mut xs = vec![(
                Algorithm::IterativeInversion(planned(comm.size())),
                unpinned,
            )];
            for (alg, _) in algorithms(comm.size()) {
                xs.push((
                    alg,
                    SolveRequest::lower()
                        .algorithm(alg)
                        .solve(&ld, &bd)
                        .unwrap()
                        .x,
                ));
            }
            xs.into_iter()
                .map(|(alg, x)| (alg, x.to_global()))
                .collect::<Vec<_>>()
        })
        .unwrap();
    out.results.into_iter().next().unwrap()
}

fn check_family(family: &str, l: &Matrix, seed: u64) {
    let x_true = gen::rhs(N, K, seed);
    let b = dense::matmul(l, &x_true);
    let n_eps = C * N as f64 * f64::EPSILON;
    let nb_bound = n_eps * largest_block_kappa(l, NB);
    for p in [4, 16] {
        let xs = solve_all(l, &x_true, p);
        let forward = |x: &Matrix| norms::rel_diff(x, &x_true);
        let recursive = xs
            .iter()
            .find(|(a, _)| matches!(a, Algorithm::Recursive { .. }))
            .map(|(_, x)| forward(x))
            .unwrap();
        for ((alg, x), (_, n0)) in xs[1..].iter().zip(algorithms(p)) {
            let bound = n0.map_or(nb_bound, |n0| {
                nb_bound.max(n_eps * largest_block_kappa(l, n0))
            });
            let (r, e) = (residual(l, x, &b), forward(x));
            let what = format!("{family}, p = {p}, {alg:?}");
            println!(
                "{what}: residual {r:.2e} (NB bound {nb_bound:.2e}, bound {bound:.2e}), \
                 forward {e:.2e} (recursive {recursive:.2e})"
            );
            assert!(r <= bound, "{what}: residual {r:e} above {bound:e}");
            assert_eq!(
                r > nb_bound,
                breaks_the_nb_bound(family, n0),
                "{what}: residual {r:e}"
            );
            if n0.is_some() {
                assert!(e <= 4.0 * recursive, "{what}: forward error {e:e}");
            }
        }
        // The unpinned request runs its plan: the n0 = n row.
        let (planned, x) = &xs[0];
        let twin = xs[1..].iter().find(|(a, _)| a == planned);
        assert!(
            twin.is_some_and(|(_, y)| y == x),
            "{family}, p = {p}: the unpinned solve"
        );
    }
}

#[test]
fn off_diagonal_ill_conditioning_costs_only_the_inverted_blocks() {
    check_family(OFF_DIAGONAL, &off_diagonal_ill_conditioned(), 18);
}

#[test]
fn a_kahan_block_keeps_the_forward_error_of_recursive() {
    check_family("Kahan block", &one_kahan_block(), 20);
}

/// The named configuration is the planner's: at `n = k = 384` it inverts
/// all of `L`, on 4 ranks and on 16.
#[test]
fn the_planner_inverts_all_of_l_at_n_eq_k_384() {
    for p in [4, 16] {
        assert_eq!(planned(p).n0, N, "p = {p}: {:?}", planned(p));
    }
}
