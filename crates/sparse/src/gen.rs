//! Deterministic sparse test-matrix generators.
//!
//! Like `dense::gen`, these produce reproducible, *well-conditioned*
//! triangular matrices: dominant diagonals, off-diagonal entries scaled by
//! row fill, so residual checks stay meaningful at every size the tests and
//! benches run.  Patterns are drawn from a seeded RNG and are exactly
//! reproducible per `(n, parameters, seed)` tuple — the determinism CI job
//! hashes solves of these matrices across `DENSE_THREADS` settings.

use crate::csr::SparseTri;
use dense::gen::SplitMix64;
use dense::{Diag, Triangle};

/// A random well-conditioned lower-triangular matrix with about
/// `fill` off-diagonal entries per row (capped by the row index) and a
/// dominant diagonal in `[1, 2)`.
///
/// Column positions are drawn uniformly below the diagonal, so the level
/// structure is irregular — early rows form wide levels, later rows chain
/// deeper — which is the shape level scheduling has to cope with in
/// incomplete-factor traffic.
pub fn random_lower(n: usize, fill: usize, seed: u64) -> SparseTri {
    // One block spanning the whole matrix.
    block_diagonal_lower(n, n.max(1), fill, seed)
}

/// A random well-conditioned banded lower-triangular matrix: every entry
/// within `bandwidth` below the diagonal is present.
///
/// An unbroken band chains each row to its predecessor, so the level
/// schedule is fully sequential — the worst case for level scheduling and
/// the pattern where the dense-fallback path wins.
pub fn banded_lower(n: usize, bandwidth: usize, seed: u64) -> SparseTri {
    let mut rng = SplitMix64::new(seed);
    let scale = 1.0 / (bandwidth.max(1) as f64).sqrt();
    let mut ents: Vec<(usize, usize, f64)> = Vec::with_capacity(n * (bandwidth + 1));
    for i in 0..n {
        ents.push((i, i, 1.0 + rng.uniform(0.0, 1.0)));
        for j in i.saturating_sub(bandwidth)..i {
            ents.push((i, j, rng.uniform(-1.0, 1.0) * scale));
        }
    }
    SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents)
        .expect("banded_lower: generated structure is valid by construction")
}

/// A deep, narrow dependency DAG: `n / width` levels of exactly `width`
/// rows each, every row of a block depending on `deps` rows of the
/// previous block (band-limited dependencies, like a blocked banded
/// factor).
///
/// `width` dials the level weight directly, which makes this the sweep
/// axis of the go-parallel rule ([`crate::level_rule`]): with `width`
/// small the level schedule would cross one barrier per handful of rows
/// and the rule keeps the solve sequential; with `width` in the thousands
/// each level amortizes its barrier and the parallel sweep wins.  (An
/// unbroken band, [`banded_lower`], is the degenerate `width = 1` chain;
/// this generator keeps `width`-way parallelism alive inside every level.)
pub fn deep_narrow_lower(n: usize, width: usize, deps: usize, seed: u64) -> SparseTri {
    let width = width.max(1);
    let mut rng = SplitMix64::new(seed);
    let scale = 1.0 / (deps.max(1) as f64).sqrt();
    let mut ents: Vec<(usize, usize, f64)> = Vec::with_capacity(n * (deps + 1));
    for i in 0..n {
        ents.push((i, i, 1.0 + rng.uniform(0.0, 1.0)));
        let block = i / width;
        if block == 0 {
            continue;
        }
        let prev = (block - 1) * width;
        let prev_len = width.min(n - prev);
        let want = deps.min(prev_len);
        // `want` consecutive (wrapped) columns of the previous block,
        // starting at a row-dependent offset — distinct by construction,
        // and staggered so the dependency pattern is not rank-structured.
        let start = (i * 7 + 3) % prev_len;
        for t in 0..want {
            let j = prev + (start + t) % prev_len;
            ents.push((i, j, rng.uniform(-1.0, 1.0) * scale));
        }
    }
    SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents)
        .expect("deep_narrow_lower: generated structure is valid by construction")
}

/// A random well-conditioned upper-triangular matrix: the transpose of
/// [`random_lower`] with the same parameters.
pub fn random_upper(n: usize, fill: usize, seed: u64) -> SparseTri {
    random_lower(n, fill, seed).transpose()
}

/// A block-diagonal lower-triangular matrix: `n / block` independent
/// diagonal blocks, each a [`random_lower`]-style pattern confined to its
/// own rows and columns (the last block takes the remainder).
///
/// Independent blocks share no dependencies, so the schedule has at most
/// `block` levels and every one of them collects rows from all the blocks:
/// few, very wide levels — the shape of a domain-decomposed factor, and the
/// friendliest one for a barrier-per-level sweep.
pub fn block_diagonal_lower(n: usize, block: usize, fill: usize, seed: u64) -> SparseTri {
    let block = block.max(1);
    let mut rng = SplitMix64::new(seed);
    let scale = 1.0 / (fill.max(1) as f64).sqrt();
    let mut ents: Vec<(usize, usize, f64)> = Vec::with_capacity(n * (fill + 1));
    let mut cols: Vec<usize> = Vec::with_capacity(fill);
    for i in 0..n {
        ents.push((i, i, 1.0 + rng.uniform(0.0, 1.0)));
        let start = i - i % block;
        let want = fill.min(i - start);
        if want == 0 {
            continue;
        }
        cols.clear();
        while cols.len() < want {
            let j = start + rng.below((i - start) as u64) as usize;
            if !cols.contains(&j) {
                cols.push(j);
            }
        }
        cols.sort_unstable();
        for &j in cols.iter() {
            ents.push((i, j, rng.uniform(-1.0, 1.0) * scale));
        }
    }
    SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents)
        .expect("block_diagonal_lower: generated structure is valid by construction")
}

/// A lower-triangular matrix with power-law fan-in: each row draws `deps`
/// distinct columns below the diagonal with probability proportional to
/// `1 / (column + 1)`.
///
/// A handful of leading *hub* columns feed a large share of all rows — the
/// pattern of a factor ordered with its separators first — while the long
/// tail still chains rows to recent ones, so the levels are irregular:
/// skinny where the hubs resolve, wide behind them.
pub fn power_law_lower(n: usize, deps: usize, seed: u64) -> SparseTri {
    let mut rng = SplitMix64::new(seed);
    let scale = 1.0 / (deps.max(1) as f64).sqrt();
    let mut ents: Vec<(usize, usize, f64)> = Vec::with_capacity(n * (deps + 1));
    let mut cols: Vec<usize> = Vec::with_capacity(deps);
    for i in 0..n {
        ents.push((i, i, 1.0 + rng.uniform(0.0, 1.0)));
        let want = deps.min(i);
        cols.clear();
        while cols.len() < want {
            // Inverse CDF of the 1/(j+1) weights: (i+1)^u is log-uniform on
            // [1, i+1), so its floor lands on column j with weight ~1/(j+1).
            let draw = (i as f64 + 1.0).powf(rng.uniform(0.0, 1.0)) as usize;
            let j = draw.clamp(1, i) - 1;
            if !cols.contains(&j) {
                cols.push(j);
            }
        }
        for &j in cols.iter() {
            ents.push((i, j, rng.uniform(-1.0, 1.0) * scale));
        }
    }
    SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents)
        .expect("power_law_lower: generated structure is valid by construction")
}

/// A right-hand-side vector with `O(1)` entries, matching `dense::gen::rhs`
/// seeding conventions.
pub fn rhs_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = random_lower(50, 4, 7);
        let b = random_lower(50, 4, 7);
        assert_eq!(a.to_dense(), b.to_dense());
        let c = random_lower(50, 4, 8);
        assert_ne!(a.to_dense(), c.to_dense());
        assert_eq!(rhs_vec(10, 3), rhs_vec(10, 3));
    }

    #[test]
    fn random_lower_has_requested_fill() {
        let n = 200;
        let fill = 6;
        let m = random_lower(n, fill, 1);
        assert_eq!(m.n(), n);
        assert!(m.to_dense().is_lower_triangular());
        // Rows past the warm-up have exactly `fill` off-diagonal entries.
        for i in fill..n {
            assert_eq!(m.row_entries(i).0.len(), fill, "row {i}");
        }
        for i in 0..n {
            assert!(m.diag_value(i) >= 1.0);
        }
    }

    #[test]
    fn banded_lower_is_a_full_band_and_sequential() {
        let m = banded_lower(64, 3, 9);
        for i in 0..64usize {
            let expect: Vec<usize> = (i.saturating_sub(3)..i).collect();
            assert_eq!(m.row_entries(i).0, &expect[..], "row {i}");
        }
        assert!(m.schedule().is_sequential());
        assert_eq!(m.schedule().num_levels(), 64);
    }

    #[test]
    fn deep_narrow_lower_has_exact_level_structure() {
        let (n, width, deps) = (1200usize, 4usize, 3usize);
        let m = deep_narrow_lower(n, width, deps, 2);
        let s = m.schedule();
        assert_eq!(s.num_levels(), n / width, "one level per block");
        assert_eq!(s.max_level_width(), width);
        assert_eq!(s.avg_level_width(), width as f64);
        // Every off-diagonal dependency points into the previous block.
        for i in width..n {
            let block = i / width;
            let (cols, _) = m.row_entries(i);
            assert_eq!(cols.len(), deps, "row {i}");
            for &j in cols {
                assert_eq!(j / width, block - 1, "row {i} dep {j}");
            }
        }
        // Deterministic per seed.
        assert_eq!(
            m.to_dense(),
            deep_narrow_lower(n, width, deps, 2).to_dense()
        );
    }

    #[test]
    fn block_diagonal_lower_keeps_blocks_independent() {
        let (n, block, fill) = (1050usize, 100usize, 4usize);
        let m = block_diagonal_lower(n, block, fill, 3);
        for i in 0..n {
            let (cols, _) = m.row_entries(i);
            assert_eq!(cols.len(), fill.min(i % block), "row {i}");
            for &j in cols {
                assert_eq!(j / block, i / block, "row {i} dep {j} leaves its block");
            }
        }
        let s = m.schedule();
        assert!(s.num_levels() <= block, "levels are bounded by the block");
        assert_eq!(
            s.level_rows(0).len(),
            n.div_ceil(block),
            "each block's first row"
        );
        assert!(s.max_level_width() >= n.div_ceil(block));
        assert_eq!(
            m.to_dense(),
            block_diagonal_lower(n, block, fill, 3).to_dense()
        );
    }

    #[test]
    fn power_law_lower_funnels_rows_through_the_hubs() {
        let (n, deps) = (4000usize, 3usize);
        let m = power_law_lower(n, deps, 5);
        let mut fan_out = vec![0usize; n];
        for i in 0..n {
            let (cols, _) = m.row_entries(i);
            assert_eq!(cols.len(), deps.min(i), "row {i}");
            for &j in cols {
                fan_out[j] += 1;
            }
        }
        let hubs: usize = fan_out[..8].iter().sum();
        let mid: usize = fan_out[n / 2..n / 2 + 8].iter().sum();
        assert!(hubs > 50 * mid.max(1), "hubs {hubs} vs mid columns {mid}");
        let s = m.schedule();
        assert!(s.num_levels() < n / 10, "{} levels", s.num_levels());
        assert_eq!(m.to_dense(), power_law_lower(n, deps, 5).to_dense());
    }

    #[test]
    fn random_upper_transposes_the_lower_pattern() {
        let u = random_upper(40, 5, 11);
        assert_eq!(u.triangle(), Triangle::Upper);
        assert_eq!(u.to_dense(), random_lower(40, 5, 11).to_dense().transpose());
    }

    #[test]
    fn random_patterns_expose_parallelism() {
        // Sparse random fills have far fewer levels than rows.
        let m = random_lower(400, 4, 2);
        let s = m.schedule();
        assert!(
            s.num_levels() < 200,
            "expected level compression, got {} levels",
            s.num_levels()
        );
        assert!(s.max_level_width() > 4);
    }
}
