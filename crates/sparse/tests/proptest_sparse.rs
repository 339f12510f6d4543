//! Property-based tests for the sparse triangular solver.
//!
//! Three families of properties pin the acceptance criteria:
//!
//! * **differential vs dense** — on a densified copy of a random sparse
//!   pattern, `sparse::solve` / `solve_multi` must agree with
//!   the dense solve (`dense::trsm_opts`) to 1e-12 (the generators keep the
//!   systems well conditioned, so the two summation orders cannot drift);
//! * **bitwise determinism** — the level sweep must equal the sequential
//!   sweep *bit for bit* at every worker count, for lower and upper
//!   triangles, unit and explicit diagonals, single and blocked RHS.  The
//!   matrices here are far too small to clear the go-parallel rule, so the
//!   sweep is driven through `SparseTri::level_sweep_forced` — a parallel
//!   test must not pass by running sequentially — and then, on a corpus of
//!   factors that do clear it, through the ordinary options;
//! * **validation** — malformed input is rejected with its typed
//!   [`SparseError`] wherever in the input it sits.

use dense::{Diag, Matrix, Triangle};
use proptest::prelude::*;
use sparse::gen;
use sparse::{SolveOpts, SparseError, SparseTri};

/// The level sweep on exactly `workers` workers, whatever the rule says.
fn forced(m: &SparseTri, b: &[f64], workers: usize) -> Vec<f64> {
    let mut x = b.to_vec();
    m.level_sweep_forced(workers, &mut x[..]).unwrap();
    x
}

/// [`forced`] for a block of right-hand sides.
fn forced_multi(m: &SparseTri, b: &Matrix, workers: usize) -> Matrix {
    let mut x = b.clone();
    m.level_sweep_forced(workers, &mut x).unwrap();
    x
}

/// The sequential sweep (a budget of 1).
fn sequential(m: &SparseTri, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    m.solve_with(&SolveOpts::new().threads(1), &mut x).unwrap();
    x
}

/// [`sequential`] for a block of right-hand sides.
fn sequential_multi(m: &SparseTri, b: &Matrix) -> Matrix {
    let mut x = b.clone();
    m.solve_multi_with(&SolveOpts::new().threads(1), &mut x)
        .unwrap();
    x
}

/// Row-major triplets of a matrix, diagonal first per row.
fn triplets(m: &SparseTri) -> Vec<(usize, usize, f64)> {
    let mut ents = Vec::with_capacity(m.nnz());
    for i in 0..m.n() {
        ents.push((i, i, m.diag_value(i)));
        let (cols, vals) = m.row_entries(i);
        for (&j, &v) in cols.iter().zip(vals) {
            ents.push((i, j, v));
        }
    }
    ents
}

/// The deep-narrow-DAG family a barrier per level is worst on: blocked
/// ladders (`width`-wide levels chained block to block), degenerate chains
/// (`width = 1`), and unbroken bands.
fn deep_dag(kind: u32, n: usize, width: usize, deps: usize, seed: u64) -> SparseTri {
    match kind % 3 {
        0 => gen::deep_narrow_lower(n, width, deps, seed),
        1 => gen::deep_narrow_lower(n, 1, 1, seed), // pure chain, blocked form
        _ => gen::banded_lower(n, deps.max(1), seed), // unbroken band
    }
}

/// The dense solve of `m`'s densified pattern: `dense::trsm_opts` with the
/// triangle and diagonal `m` was built with, `transpose` applied.
fn dense_solve(m: &SparseTri, transpose: dense::Transpose, b: &Matrix) -> Matrix {
    let opts = dense::SolveOpts::new(m.triangle())
        .diag(m.diag())
        .transpose(transpose);
    dense::trsm_opts(&opts, &m.to_dense(), b).unwrap()
}

/// [`dense_solve`] for one right-hand side.
fn dense_solve_vec(m: &SparseTri, transpose: dense::Transpose, b: &[f64]) -> Vec<f64> {
    let b = Matrix::from_vec(b.len(), 1, b.to_vec()).unwrap();
    dense_solve(m, transpose, &b).into_vec()
}

/// Max |a - b| over two equal-length vectors.
fn vec_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `sparse::solve` agrees with the dense single-RHS solve on the
    /// densified matrix.
    #[test]
    fn solve_matches_dense_single_rhs_on_densified_pattern(
        n in 1usize..220,
        fill in 0usize..9,
        upper in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let b = gen::rhs_vec(n, seed ^ 0xb);
        let xs = m.solve(&b).unwrap();
        let xd = dense_solve_vec(&m, dense::Transpose::No, &b);
        prop_assert!(
            vec_abs_diff(&xs, &xd) < 1e-12,
            "sparse vs dense single-RHS solve diverged beyond 1e-12"
        );
    }

    /// `sparse::solve_multi` agrees with the dense solve on the densified
    /// matrix.
    #[test]
    fn solve_multi_matches_dense_trsm_on_densified_pattern(
        n in 1usize..160,
        k in 1usize..12,
        fill in 0usize..7,
        upper in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let b = Matrix::from_fn(n, k, |i, j| {
            (((i * 31 + j * 17 + seed as usize) % 23) as f64) / 11.5 - 1.0
        });
        let xs = m.solve_multi(&b).unwrap();
        let xd = dense_solve(&m, dense::Transpose::No, &b);
        prop_assert!(
            xs.max_abs_diff(&xd).unwrap() < 1e-12,
            "sparse vs dense trsm diverged beyond 1e-12"
        );
    }

    /// The level sweep and the sequential sweep are bitwise identical at
    /// every worker count.
    #[test]
    fn parallel_solve_is_bitwise_identical_to_sequential(
        n in 2usize..400,
        fill in 0usize..10,
        upper in any::<bool>(),
        threads in 2usize..8,
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let b = gen::rhs_vec(n, seed ^ 0x5eed);
        let seq = sequential(&m, &b);
        for t in [1usize, 4, threads] {
            prop_assert!(forced(&m, &b, t) == seq, "worker count {t} changed the result bits");
        }
    }

    /// Same bitwise guarantee for the blocked right-hand-side executor,
    /// and for unit-diagonal matrices.
    #[test]
    fn parallel_solve_multi_is_bitwise_identical_to_sequential(
        n in 2usize..250,
        k in 1usize..10,
        fill in 0usize..8,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let lower = gen::random_lower(n, fill, seed);
        // Rebuild as unit-diagonal with the same off-diagonal pattern.
        let mut ents: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            let (cols, vals) = lower.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                ents.push((i, j, v));
            }
        }
        let unit = SparseTri::from_triplets(n, Triangle::Lower, Diag::Unit, &ents).unwrap();
        let b = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 13 + 1) % 19) as f64 / 9.5 - 1.0);
        for m in [&lower, &unit] {
            let seq = sequential_multi(m, &b);
            for t in [1usize, 4, threads] {
                prop_assert!(
                    forced_multi(m, &b, t) == seq,
                    "worker count {t} changed multi-RHS bits"
                );
            }
        }
    }

    /// The schedule's defining invariant on random patterns: every
    /// dependency of a row lives in a strictly earlier level, and the
    /// levels partition the rows.
    #[test]
    fn schedule_levels_respect_dependencies(
        n in 1usize..300,
        fill in 0usize..10,
        upper in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let s = m.schedule();
        let mut level_of = vec![usize::MAX; n];
        for l in 0..s.num_levels() {
            for &r in s.level_rows(l) {
                prop_assert!(level_of[r] == usize::MAX, "row {r} scheduled twice");
                level_of[r] = l;
            }
        }
        for i in 0..n {
            prop_assert!(level_of[i] != usize::MAX, "row {i} never scheduled");
            let (cols, _) = m.row_entries(i);
            for &j in cols {
                prop_assert!(level_of[j] < level_of[i]);
            }
        }
    }

    /// The dense solve of the densified band agrees with the sparse
    /// executors, and the banded generator's fully sequential schedule still
    /// solves correctly under the level sweep (all but one worker idle at
    /// every barrier).
    #[test]
    fn banded_and_dense_fallback_agree(
        n in 1usize..200,
        bw in 0usize..6,
        seed in any::<u64>(),
    ) {
        let m = gen::banded_lower(n, bw, seed);
        let b = gen::rhs_vec(n, seed ^ 0xf00d);
        let xs = m.solve(&b).unwrap();
        let xd = dense_solve_vec(&m, dense::Transpose::No, &b);
        prop_assert!(vec_abs_diff(&xs, &xd) < 1e-12);
        prop_assert!(forced(&m, &b, 4) == xs);
    }

    /// Transposed sparse solves (`Lᵀ·x = b` on the cached transpose) agree
    /// with the dense transposed kernel on the densified pattern, and stay
    /// bitwise deterministic across worker counts.
    #[test]
    fn transposed_solve_matches_dense_on_densified_pattern(
        n in 1usize..200,
        fill in 0usize..8,
        upper in any::<bool>(),
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let b = gen::rhs_vec(n, seed ^ 0x7a);
        let mut xs = b.clone();
        m.solve_with(&SolveOpts::new().transposed(), &mut xs).unwrap();
        // Dense reference: op(A) = Aᵀ through the dense options path.
        let xd = dense_solve_vec(&m, dense::Transpose::Yes, &b);
        prop_assert!(
            vec_abs_diff(&xs, &xd) < 1e-12,
            "sparse vs dense transposed solve diverged beyond 1e-12"
        );
        for t in [1usize, 4, threads] {
            prop_assert!(
                forced(m.transposed(), &b, t) == xs,
                "worker count {t} changed transposed bits"
            );
        }
    }

    /// Multi-RHS transposed solves agree with the dense transposed `trsm`.
    #[test]
    fn transposed_solve_multi_matches_dense_trsm(
        n in 1usize..140,
        k in 1usize..10,
        fill in 0usize..7,
        upper in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let b = Matrix::from_fn(n, k, |i, j| {
            (((i * 29 + j * 13 + seed as usize) % 21) as f64) / 10.5 - 1.0
        });
        let mut xs = b.clone();
        m.solve_multi_with(&SolveOpts::new().transposed(), &mut xs).unwrap();
        let xd = dense_solve(&m, dense::Transpose::Yes, &b);
        prop_assert!(
            xs.max_abs_diff(&xd).unwrap() < 1e-12,
            "sparse vs dense transposed trsm diverged beyond 1e-12"
        );
    }

    /// The level sweep is bitwise identical to the sequential sweep at
    /// every worker count on deep narrow DAGs — thousands of barriers,
    /// most workers idle at each — including on the cached transpose.
    #[test]
    fn level_sweep_equals_sequential_bitwise_on_deep_dags(
        kind in 0u32..3,
        blocks in 2usize..400,
        width in 1usize..6,
        deps in 1usize..5,
        threads in 2usize..8,
        transpose in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = deep_dag(kind, blocks * width, width, deps, seed);
        let exec = if transpose { m.transposed() } else { &m };
        let b = gen::rhs_vec(m.n(), seed ^ 0xdead);
        let seq = sequential(exec, &b);
        for t in [1usize, 4, threads] {
            prop_assert!(forced(exec, &b, t) == seq, "{t} workers changed the result bits");
        }
    }

    /// Same bitwise guarantee on random lower patterns with chain-heavy
    /// structure (low fill keeps long dependency chains alive), for both
    /// the single- and blocked-RHS executors.
    #[test]
    fn level_sweep_equals_sequential_bitwise_on_chain_heavy_random(
        n in 2usize..500,
        fill in 1usize..4,
        k in 1usize..6,
        threads in 2usize..8,
        seed in any::<u64>(),
    ) {
        let m = gen::random_lower(n, fill, seed);
        let b = gen::rhs_vec(n, seed ^ 0xc0de);
        let seq = sequential(&m, &b);
        let bm = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 13 + 1) % 19) as f64 / 9.5 - 1.0);
        let seq_m = sequential_multi(&m, &bm);
        for t in [1usize, 4, threads] {
            prop_assert!(forced(&m, &b, t) == seq, "{t} workers changed single-RHS bits");
            prop_assert!(forced_multi(&m, &bm, t) == seq_m, "{t} workers changed multi-RHS bits");
        }
    }

    /// Level-sweep solves of deep DAGs agree with the dense kernels on the
    /// densified pattern to 1e-12 (single and blocked RHS).
    #[test]
    fn level_sweep_matches_dense_on_deep_dags(
        kind in 0u32..3,
        blocks in 1usize..60,
        width in 1usize..5,
        deps in 1usize..4,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let m = deep_dag(kind, blocks * width, width, deps, seed);
        let n = m.n();
        let b = gen::rhs_vec(n, seed ^ 0xfeed);
        let xd = dense_solve_vec(&m, dense::Transpose::No, &b);
        prop_assert!(
            vec_abs_diff(&forced(&m, &b, 4), &xd) < 1e-12,
            "level sweep vs dense single-RHS solve diverged beyond 1e-12"
        );
        let bm = Matrix::from_fn(n, k, |i, j| {
            (((i * 31 + j * 17 + seed as usize) % 23) as f64) / 11.5 - 1.0
        });
        let xdm = dense_solve(&m, dense::Transpose::No, &bm);
        prop_assert!(
            forced_multi(&m, &bm, 4).max_abs_diff(&xdm).unwrap() < 1e-12,
            "level sweep vs dense trsm diverged beyond 1e-12"
        );
    }

    /// A duplicated `(row, col)` triplet is rejected with
    /// `DuplicateEntry`, wherever the duplicate lands in input order.
    #[test]
    fn duplicate_triplets_are_rejected(
        n in 2usize..100,
        fill in 1usize..6,
        seed in any::<u64>(),
        dup_sel in any::<u64>(),
    ) {
        let mut ents = triplets(&gen::random_lower(n, fill, seed));
        let dup = ents[dup_sel as usize % ents.len()];
        ents.push((dup.0, dup.1, dup.2 + 1.0));
        let err = SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents)
            .unwrap_err();
        prop_assert!(
            matches!(err, SparseError::DuplicateEntry { index } if index == (dup.0, dup.1)),
            "expected DuplicateEntry at {:?}, got {err:?}",
            (dup.0, dup.1)
        );
    }

    /// Raw CSR input with one row's column indices out of order is
    /// rejected with `UnsortedRow` naming that row, whichever row it is.
    #[test]
    fn out_of_order_raw_csr_is_rejected(
        n in 3usize..100,
        fill in 2usize..6,
        seed in any::<u64>(),
        row_sel in any::<u64>(),
    ) {
        let m = gen::random_lower(n, fill, seed);
        // Rows 2.. hold at least two off-diagonal entries: swap a row's
        // first two.
        let row = 2 + row_sel as usize % (n - 2);
        let mut col_idx = m.col_idx().to_vec();
        col_idx.swap(m.row_ptr()[row], m.row_ptr()[row] + 1);
        let err = SparseTri::from_csr(
            n,
            Triangle::Lower,
            Diag::Unit,
            m.row_ptr(),
            &col_idx,
            m.values(),
        )
        .unwrap_err();
        prop_assert!(
            matches!(err, SparseError::UnsortedRow { row: r } if r == row),
            "expected UnsortedRow {{ row: {row} }}, got {err:?}"
        );
    }

    /// A NaN or infinite value anywhere in the triplets is rejected with
    /// `NonFiniteEntry` before any storage is built.
    #[test]
    fn non_finite_entries_are_rejected(
        n in 1usize..100,
        fill in 0usize..6,
        seed in any::<u64>(),
        poison_sel in any::<u64>(),
        use_nan in any::<bool>(),
    ) {
        let mut ents = triplets(&gen::random_lower(n, fill, seed));
        let p = poison_sel as usize % ents.len();
        ents[p].2 = if use_nan { f64::NAN } else { f64::INFINITY };
        let err = SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents)
            .unwrap_err();
        prop_assert!(
            matches!(err, SparseError::NonFiniteEntry { .. }),
            "expected NonFiniteEntry, got {err:?}"
        );
    }
}

/// The zoo the go-parallel rule was measured on, with the decision it must
/// reach for one right-hand side under a budget of 4 — pinned per shape, so
/// moving the constant across a shape is a visible change (the 2 048-wide
/// factor, ~12 800 entries per level, sits just below it).  Only the
/// widest deep-narrow factor has
/// levels that are both heavy enough and consecutive row ranges;
/// block-diagonal and power-law levels are heavy but scattered
/// (a handful of entries per contiguous run), which the level sweep loses
/// on at any weight.
fn corpus() -> Vec<(&'static str, SparseTri, bool)> {
    vec![
        ("random", gen::random_lower(8_000, 8, 1), false),
        ("banded", gen::banded_lower(8_000, 4, 2), false),
        (
            "deep-narrow w16",
            gen::deep_narrow_lower(8_000, 16, 4, 3),
            false,
        ),
        (
            "deep-narrow w2048",
            gen::deep_narrow_lower(20_000, 2048, 6, 4),
            false,
        ),
        (
            "deep-narrow w8192",
            gen::deep_narrow_lower(40_000, 8192, 6, 4),
            true,
        ),
        (
            "block-diagonal",
            gen::block_diagonal_lower(20_000, 10, 6, 5),
            false,
        ),
        ("power-law", gen::power_law_lower(20_000, 3, 6), false),
    ]
}

/// Over the whole corpus — lower, upper (the materialized transpose) and
/// transposed (the cached one), one and five right-hand sides — the forced
/// level sweep equals the sequential sweep bit for bit at 2, 3, 4 and 7
/// workers.
#[test]
fn corpus_level_sweep_is_bitwise_identical_to_sequential() {
    for (name, lower, _) in corpus() {
        let upper = lower.transpose();
        for (side, m) in [
            ("lower", &lower),
            ("upper", &upper),
            ("transposed", lower.transposed()),
        ] {
            let b = gen::rhs_vec(m.n(), 77);
            let bm = Matrix::from_fn(m.n(), 5, |i, j| {
                ((i * 7 + j * 13 + 1) % 19) as f64 / 9.5 - 1.0
            });
            let (seq, seq_m) = (sequential(m, &b), sequential_multi(m, &bm));
            for workers in [2usize, 3, 4, 7] {
                assert!(
                    forced(m, &b, workers) == seq,
                    "{name} {side}, {workers} workers, k = 1"
                );
                assert!(
                    forced_multi(m, &bm, workers) == seq_m,
                    "{name} {side}, {workers} workers, k = 5"
                );
            }
        }
    }
}

/// The rule's decision over the corpus, and — where it goes parallel — the
/// same bits through the ordinary options as through a budget of 1.
#[test]
fn corpus_rule_decisions_and_ordinary_api_bits() {
    let opts = SolveOpts::new().threads(4);
    for (name, m, parallel) in corpus() {
        let shape = m.execution_shape(&opts, 1);
        assert_eq!(shape.workers > 1, parallel, "{name}: {shape:?}");
        assert_eq!(
            shape.levels,
            m.schedule().num_levels(),
            "{name} was analysed"
        );
        assert_eq!(
            shape.barriers,
            if parallel { shape.levels } else { 0 },
            "{name}"
        );
        let b = gen::rhs_vec(m.n(), 78);
        let mut x = b.clone();
        let ran = m.solve_multi_shaped(&opts, &mut x[..]).unwrap();
        assert_eq!(ran, shape, "{name}: the executor ran what the plan said");
        assert!(x == sequential(&m, &b), "{name}");
        // The transposed solve decides on the transpose's own schedule.
        let t = m.execution_shape(&opts.transposed(), 1);
        assert_eq!(t.workers > 1, parallel, "{name} transposed: {t:?}");
        let mut xt = b.clone();
        m.solve_with(&opts.transposed(), &mut xt).unwrap();
        assert!(xt == sequential(m.transposed(), &b), "{name} transposed");
    }
}
