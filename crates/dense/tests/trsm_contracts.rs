//! The dense solve's three kernels as contracts: which one runs
//! ([`solve_kernel`]), that all agree with plain substitution on every
//! variant and every worker budget, that none reads anything the options
//! say it must not, and the paper's stability statement for the inverted
//! one — forward-stable in the condition number of the *diagonal blocks*,
//! whatever the conditioning of the rest of the factor.

use dense::{
    gen, matmul, norms, reference, solve_kernel, tri_invert, trsm_in_place_opts,
    with_thread_budget, Diag, Matrix, Side, SolveKernel, SolveOpts, Transpose, Triangle,
    TRSM_BLOCK,
};

const NB: usize = TRSM_BLOCK;

#[test]
fn the_rule_is_k_at_least_nb() {
    assert_eq!(solve_kernel(1), SolveKernel::RowSubstitution);
    for k in [0, 2, NB - 1] {
        assert_eq!(solve_kernel(k), SolveKernel::BlockedSubstitution, "k = {k}");
    }
    for k in [NB, 10 * NB] {
        assert_eq!(solve_kernel(k), SolveKernel::InvertedBlocks, "k = {k}");
    }
}

/// `a` with NaN everywhere the solve described by `opts` must not look: the
/// other triangle, and the diagonal when it is implicit ones.
fn poisoned(a: &Matrix, opts: &SolveOpts) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| {
        let read = match opts.triangle {
            _ if i == j => opts.diag == Diag::NonUnit,
            Triangle::Lower => j < i,
            Triangle::Upper => j > i,
        };
        if read {
            a[(i, j)]
        } else {
            f64::NAN
        }
    })
}

#[test]
fn every_variant_matches_substitution_on_both_sides_of_the_rule() {
    for n in [NB - 1, NB, 2 * NB + 7] {
        let lower = gen::well_conditioned_lower(n, n as u64);
        let upper = lower.transpose();
        for k in [1, NB - 1, NB, NB + 1, 3 * NB + 5] {
            for side in [Side::Left, Side::Right] {
                let b = match side {
                    Side::Left => gen::rhs(n, k, 7 + k as u64),
                    Side::Right => gen::rhs(k, n, 7 + k as u64),
                };
                for (tri, a) in [(Triangle::Lower, &lower), (Triangle::Upper, &upper)] {
                    for transpose in [Transpose::No, Transpose::Yes] {
                        for diag in [Diag::NonUnit, Diag::Unit] {
                            let opts = SolveOpts::new(tri)
                                .side(side)
                                .transpose(transpose)
                                .diag(diag);
                            let what = format!("n={n} k={k} {opts:?}");

                            // Plain substitution with op(A) materialized.
                            let mut want = b.clone();
                            let op_a = match transpose {
                                Transpose::No => a.clone(),
                                Transpose::Yes => a.transpose(),
                            };
                            reference::trsm_unblocked(
                                side,
                                opts.op_triangle(),
                                diag,
                                &op_a,
                                &mut want,
                            );

                            // Only the declared triangle (and a non-unit
                            // diagonal) may be read — by either kernel.
                            let a_poisoned = poisoned(a, &opts);
                            let solve = |budget: usize| {
                                let mut x = b.clone();
                                with_thread_budget(budget, || {
                                    trsm_in_place_opts(&opts, &a_poisoned, &mut x)
                                })
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                                x
                            };
                            let x1 = solve(1);
                            let err = x1.max_abs_diff(&want).unwrap();
                            assert!(err < 1e-10, "{what}: off by {err:e}");
                            // The worker budget is a throughput knob only.
                            assert!(x1 == solve(4), "{what}: budgets 1 and 4 differ");
                            // Within one diagonal block a right-side solve is
                            // the row kernel on each row: every row's bits are
                            // that row's, solved alone.
                            if side == Side::Right && n <= NB && k < NB {
                                for r in 0..k {
                                    let mut row = Matrix::from_row_major(1, n, b.row(r)).unwrap();
                                    trsm_in_place_opts(&opts, &a_poisoned, &mut row)
                                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                                    assert!(x1.row(r) == row.row(0), "{what}: row {r} alone");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `‖L·X − B‖_F / (‖L‖_F·‖X‖_F)`.
fn residual(l: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    norms::frobenius(&matmul(l, x).sub(b).unwrap()) / (norms::frobenius(l) * norms::frobenius(x))
}

/// Both kernels on the same input: the blocked solve (which inverts, `k`
/// being at least `NB`) and plain substitution.
fn inverted_and_substituted(l: &Matrix, b: &Matrix) -> (Matrix, Matrix) {
    assert_eq!(solve_kernel(b.cols()), SolveKernel::InvertedBlocks);
    let mut inverted = b.clone();
    trsm_in_place_opts(&SolveOpts::lower(), l, &mut inverted).unwrap();
    let mut substituted = b.clone();
    reference::trsm_unblocked(
        Side::Left,
        Triangle::Lower,
        Diag::NonUnit,
        l,
        &mut substituted,
    );
    (inverted, substituted)
}

const N: usize = 256;
const K: usize = 128;

/// The paper's claim, first half: only diagonal blocks are inverted, so the
/// error is governed by *their* conditioning.  A factor made ill-conditioned
/// through its off-diagonal blocks (well-conditioned `NB×NB` diagonal
/// blocks, every entry outside them scaled by 200) leaves a normwise
/// residual `‖LX − B‖ / (‖L‖‖X‖)` of order ε — measured 1.6e-17 inverted
/// against 3.9e-17 substituted, the bound being `n·ε` = 5.7e-14.
#[test]
fn ill_conditioning_outside_the_diagonal_blocks_costs_the_inverted_kernel_nothing() {
    let mut l = gen::well_conditioned_lower(N, 17);
    for i in 0..N {
        for j in 0..i {
            if i / NB != j / NB {
                l[(i, j)] *= 200.0;
            }
        }
    }
    let b = matmul(&l, &gen::rhs(N, K, 18));
    let (inverted, substituted) = inverted_and_substituted(&l, &b);
    let (r_inv, r_sub) = (residual(&l, &inverted, &b), residual(&l, &substituted, &b));
    println!(
        "off-diagonal ill-conditioning: residual {r_inv:.2e} inverted, {r_sub:.2e} substituted"
    );
    assert!(r_inv <= N as f64 * f64::EPSILON, "residual {r_inv:e}");
    assert!(
        r_inv <= 4.0 * r_sub,
        "residual {r_inv:e} vs substitution's {r_sub:e}"
    );
}

/// Second half, the trade: with one Kahan-type diagonal block (unit
/// diagonal, −0.6 everywhere below it, κ₁ = 2.8e14) the inverted kernel
/// stays *forward*-stable — its error is within 4× of substitution's,
/// measured 3.9e-5 against 1.3e-4 — but not backward-stable in the block's
/// condition number: its residual is bounded by `n·ε·κ₁(block)`, not by
/// `n·ε`, and really is larger (7.6e-7 against 3.2e-17).  A caller who
/// needs to see the residual asks for it (`SolveRequest::with_residual`).
#[test]
fn an_ill_conditioned_diagonal_block_keeps_the_forward_error_of_substitution() {
    let mut l = gen::well_conditioned_lower(N, 19);
    let at = NB; // the second diagonal block
    for i in 0..NB {
        for j in 0..=i {
            l[(at + i, at + j)] = if i == j { 1.0 } else { -0.6 };
        }
    }
    let block = l.block(at, at, NB, NB);
    let (block_inv, _) = tri_invert(Triangle::Lower, &block).unwrap();
    let kappa = norms::one_norm(&block) * norms::one_norm(&block_inv);
    assert!(
        kappa > 1e12,
        "the block should be badly conditioned: {kappa:e}"
    );

    let x_true = gen::rhs(N, K, 20);
    let b = matmul(&l, &x_true);
    let (inverted, substituted) = inverted_and_substituted(&l, &b);
    let (e_inv, e_sub) = (
        norms::rel_diff(&inverted, &x_true),
        norms::rel_diff(&substituted, &x_true),
    );
    let (r_inv, r_sub) = (residual(&l, &inverted, &b), residual(&l, &substituted, &b));
    println!(
        "Kahan block, kappa_1 = {kappa:.2e}: forward error {e_inv:.2e} inverted, {e_sub:.2e} \
         substituted; residual {r_inv:.2e} inverted, {r_sub:.2e} substituted"
    );
    assert!(
        e_inv <= 4.0 * e_sub,
        "forward error {e_inv:e} vs substitution's {e_sub:e}"
    );
    assert!(
        r_inv <= N as f64 * f64::EPSILON * kappa,
        "residual {r_inv:e} exceeds n·ε·κ₁ = {:e}",
        N as f64 * f64::EPSILON * kappa
    );
    // Substitution is backward-stable regardless; the inverted kernel's
    // residual is the price of the trade, not a rounding accident.
    assert!(r_sub <= N as f64 * f64::EPSILON);
}
