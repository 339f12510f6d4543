//! Dependency-DAG analysis: level sets for the parallel solve.
//!
//! A sparse triangular solve is a topological traversal of the dependency
//! DAG induced by the sparsity pattern: in `L x = b`, row `i` may be
//! eliminated once every row `j` with `L[i, j] ≠ 0` (`j < i`) is done.
//! Following the classical *level scheduling* construction (Anderson &
//! Saad; Li's CUDA formulation cited in `PAPERS.md`), rows are grouped into
//! **levels**
//!
//! ```text
//! level(i) = 1 + max{ level(j) : A[i, j] ≠ 0, j ≠ i }      (max ∅ = -1)
//! ```
//!
//! so every row in a level depends only on rows in strictly earlier levels —
//! all rows of one level can be eliminated concurrently, and the solve is a
//! sequence of `num_levels` parallel sweeps separated by barriers.
//!
//! One barrier per level is only worth paying when a level carries enough
//! work, and a level sweep only streams memory where a level's rows are
//! consecutive: [`crate::level_rule`] compares the mean weight of the
//! schedule's contiguous runs ([`Schedule::num_runs`]) with a measured
//! threshold and keeps skinny-level patterns (banded factors, ILU-style
//! ladders) and scattered-level ones (random fills) on the sequential
//! sweep.
//!
//! The analysis is an O(nnz) pass over the pattern.  It is *pattern-only*
//! (values never matter), which is why [`crate::SparseTri`] caches one
//! [`Schedule`] per matrix and reuses it across every solve: iterative
//! solvers apply the same factor hundreds of times per outer iteration, and
//! re-analyzing per apply would dwarf the solve itself.

use crate::csr::SparseTri;
use dense::Triangle;

/// A level-set schedule: the rows of a [`SparseTri`], grouped into
/// dependency levels (all rows of level `l` depend only on rows in levels
/// `< l`).
///
/// Stored flattened, CSR-style: `rows[level_ptr[l] .. level_ptr[l + 1]]`
/// are the rows of level `l`, in increasing row order — a fixed,
/// worker-count-independent order, which is part of what keeps the parallel
/// executors bitwise deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    level_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Rows in the widest level and the number of contiguous runs,
    /// recorded by the analysis so the solve path never rescans the levels.
    max_level_width: usize,
    runs: usize,
}

impl Schedule {
    /// Computes the level sets of `mat`'s dependency DAG.
    ///
    /// This is the standalone entry point; most callers want the cached
    /// [`SparseTri::schedule`] instead.  For [`Triangle::Lower`] rows are
    /// visited in increasing order (dependencies point down), for
    /// [`Triangle::Upper`] in decreasing order — either way each row's
    /// dependencies are resolved before the row itself, so one pass
    /// suffices.
    pub fn analyze(mat: &SparseTri) -> Schedule {
        let _span = obs::span_with("sparse", "schedule_analyze", "n", mat.n() as u64);
        let n = mat.n();
        let row_ptr = mat.row_ptr();
        let col_idx = mat.col_idx();
        let mut level = vec![0usize; n];
        let mut num_levels = 0usize;
        let row_level = |levels: &mut Vec<usize>, i: usize| {
            let mut l = 0usize;
            for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
                l = l.max(levels[j] + 1);
            }
            levels[i] = l;
            l
        };
        match mat.triangle() {
            Triangle::Lower => {
                for i in 0..n {
                    num_levels = num_levels.max(row_level(&mut level, i) + 1);
                }
            }
            Triangle::Upper => {
                for i in (0..n).rev() {
                    num_levels = num_levels.max(row_level(&mut level, i) + 1);
                }
            }
        }
        if n == 0 {
            return Schedule {
                level_ptr: vec![0],
                rows: Vec::new(),
                max_level_width: 0,
                runs: 0,
            };
        }

        // Counting sort of rows by level; filling in increasing row order
        // keeps each level's row list sorted.
        let mut level_ptr = vec![0usize; num_levels + 1];
        for &l in &level {
            level_ptr[l + 1] += 1;
        }
        let max_level_width = level_ptr[1..].iter().copied().max().unwrap_or(0);
        for l in 0..num_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut fill = level_ptr.clone();
        let mut rows = vec![0usize; n];
        for (i, &l) in level.iter().enumerate() {
            rows[fill[l]] = i;
            fill[l] += 1;
        }
        // Every level opens a run; so does every gap inside one.
        let runs = (0..num_levels)
            .map(|l| &rows[level_ptr[l]..level_ptr[l + 1]])
            .map(|level| 1 + level.windows(2).filter(|w| w[1] != w[0] + 1).count())
            .sum();
        Schedule {
            level_ptr,
            rows,
            max_level_width,
            runs,
        }
    }

    /// Number of dependency levels (the critical-path length of the solve).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// The rows of level `l`, in increasing row order.
    #[inline]
    pub fn level_rows(&self, l: usize) -> &[usize] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// All rows in level order (a permutation of `0..n`).
    #[inline]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Width of the widest level — the peak row-parallelism the pattern
    /// exposes.  Recorded by [`Schedule::analyze`], so this is O(1).
    #[inline]
    pub fn max_level_width(&self) -> usize {
        self.max_level_width
    }

    /// Number of **contiguous runs**: maximal stretches of consecutive row
    /// ids inside one level.  A level is at least one run, so `num_levels
    /// <= num_runs <= n`.  The level sweep walks the CSR arrays and the
    /// solution in level order, so it streams memory only within a run —
    /// each run boundary is a jump, each level boundary also a barrier —
    /// which makes the mean run weight what [`crate::level_rule`] reads.
    /// Recorded by [`Schedule::analyze`], so this is O(1).
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.runs
    }

    /// Average level width (`n / num_levels`) — the mean parallelism across
    /// the whole solve.
    pub fn avg_level_width(&self) -> f64 {
        if self.num_levels() == 0 {
            return 0.0;
        }
        self.rows.len() as f64 / self.num_levels() as f64
    }

    /// `true` when every level holds a single row, i.e. the pattern chains
    /// every row to the previous one and level scheduling exposes no
    /// parallelism at all (e.g. a dense triangle or an unbroken band).
    pub fn is_sequential(&self) -> bool {
        self.max_level_width() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::{Diag, Triangle};

    fn lower(entries: &[(usize, usize, f64)], n: usize) -> SparseTri {
        let mut all: Vec<(usize, usize, f64)> = entries.to_vec();
        for i in 0..n {
            all.push((i, i, 1.0));
        }
        SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &all).unwrap()
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let m = lower(&[], 5);
        let s = Schedule::analyze(&m);
        assert_eq!(s.num_levels(), 1);
        assert_eq!(s.level_rows(0), &[0, 1, 2, 3, 4]);
        assert_eq!(s.max_level_width(), 5);
        assert_eq!(s.num_runs(), 1, "one level of consecutive rows");
        assert!(!s.is_sequential());
    }

    #[test]
    fn bidiagonal_chain_is_fully_sequential() {
        let n = 6;
        let ents: Vec<_> = (1..n).map(|i| (i, i - 1, 1.0)).collect();
        let s = Schedule::analyze(&lower(&ents, n));
        assert_eq!(s.num_levels(), n);
        assert!(s.is_sequential());
        assert_eq!(s.rows(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(s.avg_level_width(), 1.0);
        assert_eq!(s.num_runs(), n, "consecutive rows in different levels");
    }

    #[test]
    fn forest_pattern_levels_match_hand_computation() {
        // Rows 0,1,2 independent; 3 <- {0,1}; 4 <- {2}; 5 <- {3,4}.
        let m = lower(
            &[
                (3, 0, 1.0),
                (3, 1, 1.0),
                (4, 2, 1.0),
                (5, 3, 1.0),
                (5, 4, 1.0),
            ],
            6,
        );
        let s = Schedule::analyze(&m);
        assert_eq!(s.num_levels(), 3);
        assert_eq!(s.level_rows(0), &[0, 1, 2]);
        assert_eq!(s.level_rows(1), &[3, 4]);
        assert_eq!(s.level_rows(2), &[5]);
        assert_eq!(s.max_level_width(), 3);
        assert_eq!(s.num_runs(), 3);
        assert!((s.avg_level_width() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn upper_triangle_levels_run_bottom_up() {
        // Upper bidiagonal: row i depends on row i+1 -> levels reversed.
        let n = 4;
        let mut ents: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        for i in 0..n {
            ents.push((i, i, 1.0));
        }
        let m = SparseTri::from_triplets(n, Triangle::Upper, Diag::NonUnit, &ents).unwrap();
        let s = Schedule::analyze(&m);
        assert_eq!(s.num_levels(), n);
        assert_eq!(s.level_rows(0), &[3]);
        assert_eq!(s.level_rows(3), &[0]);
    }

    #[test]
    fn every_dependency_lands_in_an_earlier_level() {
        // A denser random-ish pattern: validate the defining invariant.
        let n = 40;
        let mut ents = Vec::new();
        for i in 1..n {
            for j in 0..i {
                if (i * 31 + j * 17) % 7 == 0 {
                    ents.push((i, j, 1.0));
                }
            }
        }
        let m = lower(&ents, n);
        let s = Schedule::analyze(&m);
        let mut level_of = vec![0usize; n];
        for l in 0..s.num_levels() {
            for &r in s.level_rows(l) {
                level_of[r] = l;
            }
        }
        // Runs: one per level plus one per gap inside a level.
        let gaps: usize = (0..s.num_levels())
            .map(|l| {
                s.level_rows(l)
                    .windows(2)
                    .filter(|w| w[1] != w[0] + 1)
                    .count()
            })
            .sum();
        assert!(gaps > 0, "the pattern scatters its levels");
        assert_eq!(s.num_runs(), s.num_levels() + gaps);
        // Every row appears exactly once.
        let mut seen = vec![false; n];
        for &r in s.rows() {
            assert!(!seen[r]);
            seen[r] = true;
        }
        for i in 0..n {
            let (cols, _) = m.row_entries(i);
            for &j in cols {
                assert!(
                    level_of[j] < level_of[i],
                    "dependency {j} of row {i} not in an earlier level"
                );
            }
        }
    }

    #[test]
    fn empty_matrix_has_no_levels() {
        let m = SparseTri::from_triplets(0, Triangle::Lower, Diag::NonUnit, &[]).unwrap();
        let s = Schedule::analyze(&m);
        assert_eq!(s.num_levels(), 0);
        assert_eq!(s.max_level_width(), 0);
        assert_eq!(s.num_runs(), 0);
        assert_eq!(s.avg_level_width(), 0.0);
    }
}
