//! Property-based tests for the raw-pointer `MatMut` view splits and the
//! multithreaded packed GEMM.
//!
//! These pin the two guarantees the PR's redesign rests on:
//!
//! * `split_cols_at_mut` / `split_rows_at_mut` produce **disjoint,
//!   correctly-strided** views — writes through one half never show up in
//!   the other, and every element address matches the parent matrix;
//! * the parallel GEMM is **bitwise identical** to the sequential packed
//!   kernel for every worker count (and numerically agrees with the naive
//!   `dense::reference` loop).

use dense::{gemm_views, gemm_with_threads, gen, norms, reference, with_thread_budget, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Column split: both halves observe exactly the parent's elements at
    /// the parent's stride, and writes land disjointly.
    #[test]
    fn split_cols_views_are_disjoint_and_correctly_strided(
        (rows, cols) in (1usize..24, 2usize..24),
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let orig = gen::uniform(rows, cols, seed);
        let mut m = orig.clone();
        let c = 1 + ((cols - 2) as f64 * frac) as usize; // 1..=cols-1
        {
            let (mut left, mut right) = m.as_view_mut().split_cols_at_mut(c);
            prop_assert_eq!(left.dims(), (rows, c));
            prop_assert_eq!(right.dims(), (rows, cols - c));
            prop_assert_eq!(left.stride(), cols);
            prop_assert_eq!(right.stride(), cols);
            for i in 0..rows {
                for j in 0..c {
                    prop_assert_eq!(left.at(i, j), orig[(i, j)]);
                }
                for j in 0..cols - c {
                    prop_assert_eq!(right.at(i, j), orig[(i, c + j)]);
                }
            }
            // Write sentinels through both halves simultaneously.
            for i in 0..rows {
                for j in 0..c {
                    *left.at_mut(i, j) = (i * cols + j) as f64;
                }
                for j in 0..cols - c {
                    *right.at_mut(i, j) = (i * cols + c + j) as f64;
                }
            }
        }
        // Every element was written exactly once, by the half that owns it.
        let expect = Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
        prop_assert_eq!(m, expect);
    }

    /// Row split: same disjointness and stride guarantees as the column
    /// split.
    #[test]
    fn split_rows_views_are_disjoint_and_correctly_strided(
        (rows, cols) in (2usize..24, 1usize..24),
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let orig = gen::uniform(rows, cols, seed);
        let mut m = orig.clone();
        let r = 1 + ((rows - 2) as f64 * frac) as usize; // 1..=rows-1
        {
            let (mut top, mut bottom) = m.as_view_mut().split_rows_at_mut(r);
            prop_assert_eq!(top.dims(), (r, cols));
            prop_assert_eq!(bottom.dims(), (rows - r, cols));
            prop_assert_eq!(top.stride(), cols);
            prop_assert_eq!(bottom.stride(), cols);
            for j in 0..cols {
                for i in 0..r {
                    prop_assert_eq!(top.at(i, j), orig[(i, j)]);
                }
                for i in 0..rows - r {
                    prop_assert_eq!(bottom.at(i, j), orig[(r + i, j)]);
                }
            }
            for i in 0..r {
                for j in 0..cols {
                    *top.at_mut(i, j) = (i * cols + j) as f64;
                }
            }
            for i in 0..rows - r {
                for j in 0..cols {
                    *bottom.at_mut(i, j) = ((r + i) * cols + j) as f64;
                }
            }
        }
        let expect = Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
        prop_assert_eq!(m, expect);
    }

    /// The multithreaded GEMM is bitwise identical to the single-worker
    /// packed kernel for arbitrary worker counts and shapes (spanning the
    /// pack threshold and ragged panel edges), and numerically agrees with
    /// the naive reference loop.
    #[test]
    fn parallel_gemm_matches_sequential_bit_for_bit(
        (m, k, n) in (24usize..72, 24usize..72, 24usize..96),
        threads in 2usize..8,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let c0 = gen::uniform(m, n, s3);

        let mut c_seq = c0.clone();
        let f_seq = gemm_with_threads(alpha, &a, &b, beta, &mut c_seq, 1).unwrap();
        let mut c_par = c0.clone();
        let f_par = gemm_with_threads(alpha, &a, &b, beta, &mut c_par, threads).unwrap();

        // Bitwise equality (Matrix PartialEq is exact f64 comparison).
        prop_assert!(c_seq == c_par, "worker count changed the result bits");
        prop_assert_eq!(f_seq, f_par);

        let mut c_ref = c0.clone();
        reference::gemm_naive_ikj(alpha, &a, &b, beta, &mut c_ref);
        prop_assert!(c_par.max_abs_diff(&c_ref).unwrap() < 1e-8);
    }

    /// Tall-skinny products (`n` too small for the column split) take the
    /// `ic`-dimension row partitioning, which must also be bitwise
    /// identical to the sequential packed kernel for every worker count.
    #[test]
    fn parallel_gemm_row_split_matches_sequential_bit_for_bit(
        m in 64usize..600,
        k in 32usize..128,
        n in 1usize..16,
        threads in 2usize..8,
        alpha in -2.0f64..2.0,
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = gen::uniform(m, k, s1);
        let b = gen::uniform(k, n, s2);
        let c0 = gen::uniform(m, n, s3);

        let mut c_seq = c0.clone();
        gemm_with_threads(alpha, &a, &b, 1.0, &mut c_seq, 1).unwrap();
        let mut c_par = c0.clone();
        gemm_with_threads(alpha, &a, &b, 1.0, &mut c_par, threads).unwrap();
        prop_assert!(c_seq == c_par, "row-split worker count changed the result bits");

        let mut c_ref = c0.clone();
        reference::gemm_naive_ikj(alpha, &a, &b, 1.0, &mut c_ref);
        prop_assert!(c_par.max_abs_diff(&c_ref).unwrap() < 1e-8);
    }

    /// Same bitwise guarantee on view-level GEMM over interior blocks, so
    /// the chunk partitioning is also exercised at `stride != cols`.  The
    /// worker budget is a thread-local one, whose gate (`32³`
    /// multiply–adds) every shape here clears.
    #[test]
    fn parallel_gemm_views_matches_sequential_bit_for_bit(
        (m, k, n) in (32usize..48, 32usize..48, 32usize..64),
        (ro, co) in (0usize..8, 0usize..8),
        threads in 2usize..6,
        s1 in any::<u64>(), s2 in any::<u64>(),
    ) {
        let big_a = gen::uniform(m + ro + 2, k + co + 2, s1);
        let big_b = gen::uniform(k + ro + 2, n + co + 2, s2);
        let mut c_seq = Matrix::zeros(m + 3, n + 3);
        let mut c_par = c_seq.clone();
        for (c, budget) in [(&mut c_seq, 1), (&mut c_par, threads)] {
            with_thread_budget(budget, || {
                gemm_views(
                    1.0,
                    big_a.view(ro, co, m, k),
                    false,
                    big_b.view(ro, co, k, n),
                    false,
                    0.0,
                    &mut c.view_mut(1, 2, m, n),
                    None,
                )
            })
            .unwrap();
        }
        prop_assert!(c_seq == c_par);
        // The halo around the target block is untouched by every worker.
        prop_assert_eq!(c_par[(0, 0)], 0.0);
        prop_assert_eq!(c_par[(m + 2, n + 2)], 0.0);
    }

    /// End-to-end: the kernels built on GEMM (here TRSM via its blocked
    /// updates) give the same answer whatever `DENSE_THREADS` says, because
    /// every internal product is bitwise thread-count-independent.
    #[test]
    fn trsm_solution_is_thread_count_independent(
        n in 65usize..140,
        k in 1usize..24,
        seed in any::<u64>(),
    ) {
        use dense::{trsm_opts, SolveOpts};
        let l = gen::well_conditioned_lower(n, seed);
        let b = gen::rhs(n, k, seed ^ 0x5eed);
        let x1 = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        let x2 = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        prop_assert!(x1 == x2, "repeated solves must be deterministic");
        prop_assert!(norms::rel_diff(&x1, &trsm_opts(&SolveOpts::lower(), &l, &b).unwrap()) == 0.0);
    }
}
