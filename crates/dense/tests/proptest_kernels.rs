//! Property-based tests for the dense kernels.
//!
//! These check the algebraic invariants the distributed algorithms rely on:
//! GEMM linearity and associativity with the identity, TRSM ↔ TRMM round
//! trips, triangular inversion correctness, and factorization reconstruction
//! — on randomly sized and randomly filled matrices.

use dense::trinv::RECURSION_CUTOFF;
use dense::{
    gemm, gemm_views, gen, matmul, norms, reference, tri_invert, tri_invert_in_place,
    trsm_in_place_opts, trsm_opts, Diag, FlopCount, Matrix, Side, SolveOpts, TriMask, Triangle,
};
use proptest::prelude::*;

const TOL: f64 = 1e-8;

/// `tri(A) · B`: the masked product, with its flop count.
fn tri_product(tri: Triangle, a: &Matrix, b: &Matrix) -> (Matrix, FlopCount) {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    let flops = gemm_views(
        1.0,
        a.as_view(),
        false,
        b.as_view(),
        false,
        0.0,
        &mut c.as_view_mut(),
        Some(TriMask::a(tri)),
    )
    .unwrap();
    (c, flops)
}

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| gen::uniform(r, c, seed))
}

fn square_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, any::<u64>()).prop_map(|(n, seed)| gen::uniform(n, n, seed))
}

fn lower_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, any::<u64>()).prop_map(|(n, seed)| gen::well_conditioned_lower(n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A·B)·C == A·(B·C) for compatible random shapes.
    #[test]
    fn gemm_is_associative(
        (m, k, n, q) in (1usize..24, 1usize..24, 1usize..24, 1usize..24),
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let c = gen::uniform(n, q, s3);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        prop_assert!(norms::rel_diff(&left, &right) < TOL);
    }

    /// A·(B + C) == A·B + A·C.
    #[test]
    fn gemm_is_distributive(
        (m, k, n) in (1usize..24, 1usize..24, 1usize..24),
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let c = gen::uniform(k, n, s3);
        let left = matmul(&a, &b.add(&c).unwrap());
        let right = matmul(&a, &b).add(&matmul(&a, &c)).unwrap();
        prop_assert!(norms::rel_diff(&left, &right) < TOL);
    }

    /// gemm with beta accumulates: gemm(α,A,B,β,C) == α·A·B + β·C.
    #[test]
    fn gemm_accumulation_semantics(
        (m, k, n) in (1usize..16, 1usize..16, 1usize..16),
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let c0 = gen::uniform(m, n, s3);
        let mut c = c0.clone();
        gemm(alpha, &a, &b, beta, &mut c).unwrap();
        let expect = matmul(&a, &b).scale(alpha).add(&c0.scale(beta)).unwrap();
        prop_assert!(norms::rel_diff(&c, &expect) < TOL);
    }

    /// Transposition reverses multiplication: (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn transpose_reverses_product(
        (m, k, n) in (1usize..20, 1usize..20, 1usize..20),
        s1 in any::<u64>(), s2 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let left = matmul(&a, &b).transpose();
        let right = matmul(&b.transpose(), &a.transpose());
        prop_assert!(norms::rel_diff(&left, &right) < TOL);
    }

    /// trsm(L, L·X) == X for well-conditioned lower-triangular L.
    #[test]
    fn trsm_inverts_trmm(
        l in lower_strategy(48),
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = l.rows();
        let x_true = gen::rhs(n, k, seed);
        let (b, _) = tri_product(Triangle::Lower, &l, &x_true);
        let x = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        prop_assert!(norms::rel_diff(&x, &x_true) < TOL);
    }

    /// The computed triangular inverse actually inverts: L·L⁻¹ ≈ I.
    #[test]
    fn tri_inverse_is_inverse(l in lower_strategy(48)) {
        let n = l.rows();
        let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
        let prod = matmul(&l, &inv);
        prop_assert!(norms::rel_diff(&prod, &Matrix::identity(n)) < TOL);
        prop_assert!(inv.is_lower_triangular());
    }

    /// Solving via the explicit inverse agrees with substitution
    /// (the numerical-stability premise of the paper's selective inversion).
    #[test]
    fn inverse_solve_matches_substitution(
        l in lower_strategy(40),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let n = l.rows();
        let b = gen::rhs(n, k, seed);
        let x_sub = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
        let x_inv = matmul(&inv, &b);
        prop_assert!(norms::rel_diff(&x_inv, &x_sub) < 1e-6);
    }

    /// Cholesky reconstructs A = L·Lᵀ on random SPD matrices.
    #[test]
    fn cholesky_reconstructs(n in 1usize..40, seed in any::<u64>()) {
        let a = gen::spd(n, seed);
        let (l, _) = dense::cholesky(&a).unwrap();
        let rec = matmul(&l, &l.transpose());
        prop_assert!(norms::rel_diff(&rec, &a) < TOL);
    }

    /// LU with partial pivoting reconstructs P·A = L·U on random matrices.
    #[test]
    fn lu_reconstructs(n in 1usize..32, seed in any::<u64>()) {
        let a = gen::diagonally_dominant(n, seed);
        let f = dense::lu_partial_pivot(&a).unwrap();
        let pa = f.permute(&a);
        prop_assert!(norms::rel_diff(&matmul(&f.l, &f.u), &pa) < TOL);
    }

    /// Block extract / insert round-trips arbitrary blocks.
    #[test]
    fn block_round_trip(
        m in matrix_strategy(24),
        fr in 0.0f64..1.0, fc in 0.0f64..1.0, fh in 0.0f64..1.0, fw in 0.0f64..1.0,
    ) {
        let (rows, cols) = m.dims();
        let r0 = ((rows - 1) as f64 * fr) as usize;
        let c0 = ((cols - 1) as f64 * fc) as usize;
        let nr = 1 + ((rows - r0 - 1) as f64 * fh) as usize;
        let nc = 1 + ((cols - c0 - 1) as f64 * fw) as usize;
        let b = m.block(r0, c0, nr, nc);
        let mut copy = m.clone();
        copy.set_block(r0, c0, &b);
        prop_assert_eq!(copy, m);
    }

    /// The packed GEMM agrees with the naive i-k-j reference for arbitrary
    /// shapes (spanning the pack threshold and ragged tile edges) and
    /// arbitrary alpha/beta, with identical flop accounting.
    #[test]
    fn packed_gemm_matches_naive_reference(
        (m, k, n) in (1usize..96, 1usize..96, 1usize..96),
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let c0 = gen::uniform(m, n, s3);
        let mut c_fast = c0.clone();
        let f_fast = gemm(alpha, &a, &b, beta, &mut c_fast).unwrap();
        let mut c_ref = c0.clone();
        let f_ref = reference::gemm_naive_ikj(alpha, &a, &b, beta, &mut c_ref);
        prop_assert!(c_fast.max_abs_diff(&c_ref).unwrap() < TOL);
        prop_assert_eq!(f_fast, f_ref);
    }

    /// The transposed products (`op(X) = Xᵀ` read out of the stored `X`)
    /// agree with the naive reference applied to explicitly transposed
    /// operands.
    #[test]
    fn transposed_gemm_variants_match_naive_reference(
        (m, k, n) in (1usize..48, 1usize..48, 1usize..48),
        alpha in -2.0f64..2.0,
        s1 in any::<u64>(), s2 in any::<u64>(),
    ) {
        // Aᵀ·B with A stored as k×m.
        let a = gen::uniform(k, m, s1);
        let b = gen::uniform(k, n, s2);
        let mut c_fast = Matrix::zeros(m, n);
        gemm_views(alpha, a.as_view(), true, b.as_view(), false, 0.0, &mut c_fast.as_view_mut(), None)
            .unwrap();
        let mut c_ref = Matrix::zeros(m, n);
        reference::gemm_naive_ikj(alpha, &a.transpose(), &b, 0.0, &mut c_ref);
        prop_assert!(c_fast.max_abs_diff(&c_ref).unwrap() < TOL);

        // A·Bᵀ with B stored as n×k.
        let a2 = gen::uniform(m, k, s1 ^ 1);
        let b2 = gen::uniform(n, k, s2 ^ 1);
        let mut c_fast2 = Matrix::zeros(m, n);
        gemm_views(alpha, a2.as_view(), false, b2.as_view(), true, 0.0, &mut c_fast2.as_view_mut(), None)
            .unwrap();
        let mut c_ref2 = Matrix::zeros(m, n);
        reference::gemm_naive_ikj(alpha, &a2, &b2.transpose(), 0.0, &mut c_ref2);
        prop_assert!(c_fast2.max_abs_diff(&c_ref2).unwrap() < TOL);
    }

    /// The blocked TRSM agrees with the unblocked substitution reference on
    /// every side/triangle/diagonal combination, for shapes spanning the
    /// panel boundary, with identical flop accounting.
    #[test]
    fn blocked_trsm_matches_unblocked_reference(
        n in 1usize..150,
        k in 1usize..12,
        side_sel in prop::bool::ANY,
        tri_sel in prop::bool::ANY,
        diag_sel in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let side = if side_sel { Side::Left } else { Side::Right };
        let tri = if tri_sel { Triangle::Lower } else { Triangle::Upper };
        let diag = if diag_sel { Diag::NonUnit } else { Diag::Unit };
        let a = match tri {
            Triangle::Lower => gen::well_conditioned_lower(n, seed),
            Triangle::Upper => gen::well_conditioned_upper(n, seed),
        };
        let b = match side {
            Side::Left => gen::rhs(n, k, seed ^ 0xf00d),
            Side::Right => gen::rhs(k, n, seed ^ 0xf00d),
        };
        let mut fast = b.clone();
        let opts = SolveOpts::new(tri).side(side).diag(diag);
        let f_fast = trsm_in_place_opts(&opts, &a, &mut fast).unwrap();
        let mut slow = b.clone();
        let f_slow = reference::trsm_unblocked(side, tri, diag, &a, &mut slow);
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-6);
        prop_assert_eq!(f_fast, f_slow);
    }

    /// The masked product agrees with the unblocked TRMM reference on both
    /// triangles, and counts the triangle it multiplies, as the reference
    /// does.
    #[test]
    fn blocked_trmm_matches_unblocked_reference(
        n in 1usize..150,
        k in 1usize..12,
        tri_sel in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let tri = if tri_sel { Triangle::Lower } else { Triangle::Upper };
        let a = match tri {
            Triangle::Lower => gen::well_conditioned_lower(n, seed),
            Triangle::Upper => gen::well_conditioned_upper(n, seed),
        };
        let b = gen::rhs(n, k, seed ^ 0xbeef);
        let (fast, f_fast) = tri_product(tri, &a, &b);
        let (slow, f_slow) = reference::trmm_unblocked(tri, &a, &b);
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < TOL);
        prop_assert_eq!(f_fast, f_slow);
    }

    /// The recursive triangular inversion agrees with the direct
    /// column-by-column reference, and the direct base case carries the
    /// reference's flop formula.
    #[test]
    fn blocked_trinv_matches_direct_reference(
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let l = gen::well_conditioned_lower(n, seed);
        let (fast, _) = tri_invert(Triangle::Lower, &l).unwrap();
        let (slow, _) = reference::invert_lower_direct(&l);
        prop_assert!(norms::rel_diff(&fast, &slow) < 1e-6);
        prop_assert!(fast.is_lower_triangular());
        // A leading block no larger than the cut-off is one direct base
        // case and must report exactly the reference flop count.
        let m = n.min(RECURSION_CUTOFF);
        let head = l.block(0, 0, m, m);
        let (_, f_direct) = tri_invert(Triangle::Lower, &head).unwrap();
        prop_assert_eq!(f_direct, reference::invert_lower_direct(&head).1);
    }

    /// The in-place view inversion produces the same inverse (and flops) as
    /// the allocating wrapper, and touches nothing outside its block — nor
    /// the view's opposite triangle, which it neither reads (random values
    /// or NaN there change no bit of the result) nor writes.
    #[test]
    fn in_place_trinv_matches_wrapper(
        n in 1usize..100,
        off in 0usize..16,
        upper in prop::bool::ANY,
        nan_fill in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let (tri, a) = if upper {
            (Triangle::Upper, gen::well_conditioned_upper(n, seed))
        } else {
            (Triangle::Lower, gen::well_conditioned_lower(n, seed))
        };
        let in_triangle = |i: usize, j: usize| if upper { j >= i } else { j <= i };
        let dim = n + off + 3;
        let surround = gen::uniform(dim, dim, seed ^ 0xabc);
        // The block sits inside `surround`; its opposite triangle keeps the
        // surrounding random values, or NaN.
        let before = Matrix::from_fn(dim, dim, |r, c| {
            let inside = (off..off + n).contains(&r) && (off..off + n).contains(&c);
            if inside && in_triangle(r - off, c - off) {
                a[(r - off, c - off)]
            } else if inside && nan_fill {
                f64::NAN
            } else {
                surround[(r, c)]
            }
        });
        let mut big = before.clone();
        let f_inplace = tri_invert_in_place(tri, &mut big.view_mut(off, off, n, n)).unwrap();
        let (expect, f_wrapper) = tri_invert(tri, &a).unwrap();
        prop_assert_eq!(f_inplace, f_wrapper);
        for r in 0..dim {
            for c in 0..dim {
                let inside = (off..off + n).contains(&r) && (off..off + n).contains(&c);
                if inside && in_triangle(r - off, c - off) {
                    // Same recursion, same products, same bits as on a
                    // zero-filled block.
                    prop_assert_eq!(big[(r, c)], expect[(r - off, c - off)]);
                } else {
                    prop_assert_eq!(big[(r, c)].to_bits(), before[(r, c)].to_bits());
                }
            }
        }
    }

    /// Strided (cyclic) decomposition covers the matrix exactly once.
    #[test]
    fn cyclic_decomposition_partitions(
        m in square_strategy(24),
        pr in 1usize..5,
        pc in 1usize..5,
    ) {
        let mut rebuilt = Matrix::zeros(m.rows(), m.cols());
        let mut count = 0usize;
        for r0 in 0..pr.min(m.rows()) {
            for c0 in 0..pc.min(m.cols()) {
                let b = m.strided_block(r0, pr, c0, pc);
                count += b.len();
                rebuilt.set_strided_block(r0, pr, c0, pc, b.as_view());
            }
        }
        prop_assert_eq!(count, m.len());
        prop_assert_eq!(rebuilt, m);
    }
}

/// Past the last row or column a processor owns nothing: the piece is empty
/// (with the other dimension still counted), and scattering it back is a
/// no-op.
#[test]
fn strided_block_past_the_edge_is_empty() {
    let m = gen::uniform(5, 7, 1);
    assert_eq!(m.strided_block(5, 2, 0, 3).dims(), (0, 3));
    assert_eq!(m.strided_block(9, 2, 1, 3).dims(), (0, 2));
    assert_eq!(m.strided_block(1, 2, 7, 3).dims(), (2, 0));
    assert_eq!(m.strided_block(0, 1, 12, 1).dims(), (5, 0));
    assert_eq!(m.strided_block(5, 1, 7, 1).dims(), (0, 0));
    let mut copy = m.clone();
    copy.set_strided_block(9, 2, 1, 3, m.strided_block(9, 2, 1, 3).as_view());
    copy.set_strided_block(1, 2, 7, 3, m.strided_block(1, 2, 7, 3).as_view());
    assert_eq!(copy, m);
}
