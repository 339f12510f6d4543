//! Dependency-DAG analysis: level sets (and merged super-levels) for the
//! parallel solve.
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
//! Pure level scheduling pays **one barrier per level**, which is ruinous on
//! deep narrow DAGs (banded factors, ILU-style patterns): thousands of
//! skinny levels, a handful of rows each, and the barrier wait dwarfs the
//! row arithmetic.  The DAG-partitioned remedy (Böhnlein et al., *Efficient
//! Parallel Scheduling for Sparse Triangular Solvers*; the sync-free CUDA
//! solvers of Liu et al.) is the second analysis product here: a
//! [`MergedSchedule`] greedily merges *consecutive* levels into coarse
//! **super-levels** until each clears a work threshold
//! ([`SUPER_MIN_WEIGHT`]), so the executor crosses one barrier per
//! super-level instead of one per level, and *within* a super-level tracks
//! readiness **point-to-point**: per-row atomic flags, each worker
//! spinning/yielding only on the rows its own rows actually consume.
//! [`SchedulePolicy`] names the two executors; [`SchedulePolicy::auto`]
//! picks between them from the level-shape statistics.
//!
//! The analysis is an O(nnz) pass over the pattern.  It is *pattern-only*
//! (values never matter), which is why [`crate::SparseTri`] caches one
//! [`Schedule`] (and one [`MergedSchedule`]) per matrix and reuses them
//! across every solve: iterative solvers apply the same factor hundreds of
//! times per outer iteration, and re-analyzing per apply would dwarf the
//! solve itself.

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
            };
        }

        // Counting sort of rows by level; filling in increasing row order
        // keeps each level's row list sorted.
        let mut level_ptr = vec![0usize; num_levels + 1];
        for &l in &level {
            level_ptr[l + 1] += 1;
        }
        for l in 0..num_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut fill = level_ptr.clone();
        let mut rows = vec![0usize; n];
        for (i, &l) in level.iter().enumerate() {
            rows[fill[l]] = i;
            fill[l] += 1;
        }
        Schedule { level_ptr, rows }
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
    /// exposes.
    pub fn max_level_width(&self) -> usize {
        (0..self.num_levels())
            .map(|l| self.level_ptr[l + 1] - self.level_ptr[l])
            .max()
            .unwrap_or(0)
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

    /// The range level `l` occupies in the flattened [`Schedule::rows`]
    /// array (what the merged schedule's super-level boundaries index into).
    #[inline]
    pub fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        self.level_ptr[l]..self.level_ptr[l + 1]
    }
}

// ---------------------------------------------------------------------------
// SchedulePolicy & MergedSchedule: DAG-partitioned scheduling.
// ---------------------------------------------------------------------------

/// Which parallel executor a sparse solve runs.
///
/// * [`SchedulePolicy::Level`] — the classical level schedule: one parallel
///   sweep per dependency level, a global barrier between levels
///   (`num_levels` barriers per solve).
/// * [`SchedulePolicy::Merged`] — the DAG-partitioned schedule: consecutive
///   levels merged into super-levels that clear [`SUPER_MIN_WEIGHT`], one
///   barrier per *super-level*, and per-row point-to-point readiness flags
///   inside each super-level.
/// * [`SchedulePolicy::SyncFree`] — the analysis-free CSC column sweep
///   (Liu et al., Euro-Par'16): per-row atomic in-degree counters and
///   per-worker partial-sum accumulators, **zero** levels, **zero**
///   barriers.  Runs on the cached CSC mirror of the matrix.
///
/// The two barriered executors are **bitwise identical** to the sequential
/// sweep (and to each other) at every worker count.  The sync-free executor
/// is bitwise reproducible only *per fixed worker count* — changing the
/// worker count re-associates its per-row floating-point reductions, so it
/// agrees with the others to rounding (1e-12 in the test suites), not
/// bitwise.  Callers normally leave the choice to [`SchedulePolicy::auto`]
/// via `SolveOpts::policy(None)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Barrier-separated level sweeps (one barrier per dependency level).
    Level,
    /// Merged super-levels with point-to-point readiness inside each
    /// (one barrier per super-level).
    Merged,
    /// Analysis-free sync-free CSC column sweep (no levels, no barriers;
    /// deterministic per fixed worker count only).
    SyncFree,
}

impl SchedulePolicy {
    /// Stable lower-case name (`"level"` / `"merged"` / `"syncfree"`), used
    /// by reports, bench labels and the `SPARSE_POLICY` CI knob.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::Level => "level",
            SchedulePolicy::Merged => "merged",
            SchedulePolicy::SyncFree => "syncfree",
        }
    }

    /// Picks the executor from the level-shape statistics and the caller's
    /// declared reuse.
    ///
    /// A solve that will be applied fewer than [`ANALYZE_REUSE_MIN`] times
    /// (`reuse: Some(r)` with `r < 4`) cannot amortize a dependency
    /// analysis at all, so it goes straight to the analysis-free
    /// [`SchedulePolicy::SyncFree`] column sweep.  `reuse: None` declares
    /// nothing and is treated as "apply many times" — the historical
    /// behavior, which iterative-solver callers rely on.
    ///
    /// Above the reuse threshold the analyzed schedules pay for themselves
    /// and the choice falls to the level shape: the merged schedule wins
    /// when there are many levels to merge ([`MERGE_MIN_LEVELS`]) and they
    /// are skinny relative to the worker count (mean width below `workers ·`
    /// [`MERGE_WIDTH_FACTOR`] — wide levels amortize their barrier over
    /// lots of parallel rows, skinny ones do not).  Fully sequential
    /// patterns (an unbroken chain) stay on [`SchedulePolicy::Level`],
    /// whose width cap degrades them to the analysis-free sequential sweep.
    ///
    /// Depends only on the cached analysis, `workers` and `reuse`, never on
    /// timing, so the choice is itself deterministic and plan-reportable.
    pub fn auto(schedule: &Schedule, workers: usize, reuse: Option<usize>) -> SchedulePolicy {
        if reuse.is_some_and(|r| r < ANALYZE_REUSE_MIN) {
            return SchedulePolicy::SyncFree;
        }
        if schedule.is_sequential() {
            return SchedulePolicy::Level;
        }
        let skinny = schedule.avg_level_width() < (workers.max(1) * MERGE_WIDTH_FACTOR) as f64;
        if schedule.num_levels() >= MERGE_MIN_LEVELS && skinny {
            SchedulePolicy::Merged
        } else {
            SchedulePolicy::Level
        }
    }
}

/// Minimum aggregate weight (rows + stored off-diagonal entries — roughly
/// half the flops per right-hand side) of one super-level.  Consecutive
/// levels are merged until this clears, so a worker's share of a
/// super-level is substantial enough to amortize the one barrier the
/// super-level costs.  Chosen for the worker counts this crate targets
/// (≤ ~8): ≥ 512 weight units per worker at 8 workers.
pub const SUPER_MIN_WEIGHT: usize = 4096;

/// Below this many levels the barrier count is too small for merging to
/// matter; [`SchedulePolicy::auto`] stays on the level schedule.
pub const MERGE_MIN_LEVELS: usize = 64;

/// [`SchedulePolicy::auto`] calls a level shape *skinny* when the mean
/// level width is below `workers ·` this factor.
pub const MERGE_WIDTH_FACTOR: usize = 16;

/// Minimum declared reuse for a dependency analysis to be worth running:
/// below this many applies of the same matrix, [`SchedulePolicy::auto`]
/// picks the analysis-free [`SchedulePolicy::SyncFree`] sweep.  The level
/// analysis costs roughly one solve's worth of pattern traversal (the
/// merged analysis a second), so a handful of applies amortizes it and
/// anything less does not.
pub const ANALYZE_REUSE_MIN: usize = 4;

/// The DAG-partitioned companion of a [`Schedule`]: consecutive levels
/// merged into **super-levels** whose aggregate row/nnz weight clears
/// [`SUPER_MIN_WEIGHT`].
///
/// A super-level is a contiguous range of the parent schedule's flattened
/// [`Schedule::rows`] array (levels are contiguous there, and merging only
/// ever joins *consecutive* levels), so this analysis stores boundaries
/// into that array plus the inverse `row → super-level` map the executor
/// uses for its point-to-point dependency checks: a dependency in an
/// *earlier* super-level is already complete (the barrier between
/// super-levels guarantees it), so workers spin only on dependencies inside
/// the super-level they are currently sweeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedSchedule {
    /// Super-level boundaries as indices into the flattened row arrays
    /// (both [`MergedSchedule::rows`] and the parent [`Schedule::rows`] —
    /// the reordering below permutes rows only *within* these boundaries):
    /// super-level `s` covers flat positions `super_ptr[s] .. super_ptr[s +
    /// 1]`.
    super_ptr: Vec<usize>,
    /// The merged executor's own sweep order: the parent schedule's
    /// flattened row array with each super-level's rows reordered by
    /// `(level ascending, fan-out descending, row id)`.  Level stays the
    /// primary key, so every dependency still sits at a strictly earlier
    /// flat position — the executor's deadlock-freedom invariant — while
    /// within a level the rows that unblock the most same-super-level
    /// dependents are eliminated (and their readiness flags published)
    /// first, shortening the point-to-point spins.
    rows: Vec<usize>,
    /// Per row (indexed by row id), the super-level containing it.
    super_of: Vec<u32>,
    /// Levels of the parent schedule (what the merging compressed).
    levels: usize,
}

impl MergedSchedule {
    /// Merges the levels of `schedule` (analyzed from `mat`) into
    /// super-levels.
    ///
    /// Greedy in level order: accumulate consecutive levels until the
    /// running weight (rows + stored off-diagonal entries) reaches
    /// [`SUPER_MIN_WEIGHT`], then close the super-level.  A single level
    /// heavier than the threshold forms its own super-level, so wide-level
    /// patterns degenerate to exactly the level schedule's shape.  O(n +
    /// nnz) given the cached level analysis; most callers want the cached
    /// [`SparseTri::merged_schedule`] instead.
    pub fn build(schedule: &Schedule, mat: &SparseTri) -> MergedSchedule {
        let _span = obs::span_with("sparse", "merged_build", "n", mat.n() as u64);
        let n = mat.n();
        assert!(n < u32::MAX as usize, "row ids must fit in u32");
        let num_levels = schedule.num_levels();
        let mut super_ptr = Vec::with_capacity(16);
        super_ptr.push(0usize);
        let mut super_of = vec![0u32; n];
        let mut level_of = vec![0u32; n];
        let mut weight = 0usize;
        for l in 0..num_levels {
            let range = schedule.level_range(l);
            for &i in &schedule.rows()[range.clone()] {
                let (cols, _) = mat.row_entries(i);
                weight += 1 + cols.len();
            }
            let s = super_ptr.len() - 1;
            for &i in &schedule.rows()[range.clone()] {
                super_of[i] = s as u32;
                level_of[i] = l as u32;
            }
            if weight >= SUPER_MIN_WEIGHT && l + 1 < num_levels {
                super_ptr.push(range.end);
                weight = 0;
            }
        }
        if n > 0 {
            super_ptr.push(n);
        }

        // In-super-level fan-out: how many rows of the *same* super-level
        // consume each row (only those spins exist — earlier super-levels
        // are settled by the barrier).
        let mut fan_out = vec![0u32; n];
        for i in 0..n {
            let (cols, _) = mat.row_entries(i);
            for &j in cols {
                if super_of[j] == super_of[i] {
                    fan_out[j] += 1;
                }
            }
        }

        // The executor's sweep order: within each super-level sort by
        // (level asc, fan-out desc, row id).  The key is a total order, so
        // the permutation — like everything else here — depends only on the
        // pattern.
        let mut rows = schedule.rows().to_vec();
        for s in 0..super_ptr.len().saturating_sub(1) {
            rows[super_ptr[s]..super_ptr[s + 1]]
                .sort_unstable_by_key(|&i| (level_of[i], u32::MAX - fan_out[i], i));
        }

        MergedSchedule {
            super_ptr,
            rows,
            super_of,
            levels: num_levels,
        }
    }

    /// Number of super-levels — the barrier count of one merged-schedule
    /// solve.
    #[inline]
    pub fn num_super_levels(&self) -> usize {
        self.super_ptr.len() - 1
    }

    /// Levels of the parent schedule this analysis merged.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// The range super-level `s` occupies in the flattened row arrays
    /// (this schedule's reordered [`MergedSchedule::rows`] and the parent
    /// [`Schedule::rows`] — the boundaries are shared).
    #[inline]
    pub fn super_range(&self, s: usize) -> std::ops::Range<usize> {
        self.super_ptr[s]..self.super_ptr[s + 1]
    }

    /// The merged executor's sweep order: all rows, super-level by
    /// super-level, each super-level internally reordered by `(level asc,
    /// in-super-level fan-out desc, row id)`.  A permutation of `0..n` that
    /// keeps every dependency at a strictly earlier flat position.
    #[inline]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The super-level containing row `i`.
    #[inline]
    pub fn super_of(&self, i: usize) -> u32 {
        self.super_of[i]
    }

    /// Rows in the largest super-level — the merged executor's worker
    /// ceiling (more workers than rows in the widest super-level would
    /// never receive a row).
    pub fn max_super_width(&self) -> usize {
        (0..self.num_super_levels())
            .map(|s| self.super_ptr[s + 1] - self.super_ptr[s])
            .max()
            .unwrap_or(0)
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
        assert_eq!(s.avg_level_width(), 0.0);
        let g = MergedSchedule::build(&s, &m);
        assert_eq!(g.num_super_levels(), 0);
        assert_eq!(g.max_super_width(), 0);
    }

    #[test]
    fn merged_super_levels_partition_rows_on_level_boundaries() {
        // A deep narrow DAG: every super-level must be a contiguous run of
        // whole levels, cover every row exactly once, and agree with the
        // row → super-level inverse map.
        let m = crate::gen::deep_narrow_lower(6000, 3, 2, 5);
        let s = Schedule::analyze(&m);
        let g = MergedSchedule::build(&s, &m);
        let level_ends: std::collections::HashSet<usize> =
            (0..s.num_levels()).map(|l| s.level_range(l).end).collect();
        let mut covered = 0usize;
        for sl in 0..g.num_super_levels() {
            let r = g.super_range(sl);
            assert_eq!(r.start, covered, "super-levels must tile contiguously");
            assert!(r.end > r.start);
            assert!(
                level_ends.contains(&r.end),
                "super-level {sl} ends mid-level at {}",
                r.end
            );
            for &i in &s.rows()[r.clone()] {
                assert_eq!(g.super_of(i), sl as u32, "row {i} super map");
            }
            covered = r.end;
        }
        assert_eq!(covered, m.n());
        assert_eq!(g.num_levels(), s.num_levels());
    }

    #[test]
    fn merged_sweep_order_reorders_within_super_levels_only() {
        let m = crate::gen::deep_narrow_lower(6000, 3, 2, 5);
        let s = Schedule::analyze(&m);
        let g = MergedSchedule::build(&s, &m);
        // Level of each row, for the invariant checks below.
        let mut level_of = vec![0usize; m.n()];
        for l in 0..s.num_levels() {
            for &r in s.level_rows(l) {
                level_of[r] = l;
            }
        }
        let mut flat_pos = vec![0usize; m.n()];
        for (p, &i) in g.rows().iter().enumerate() {
            flat_pos[i] = p;
        }
        for sl in 0..g.num_super_levels() {
            let r = g.super_range(sl);
            // Same row set per super-level as the parent schedule…
            let mut a: Vec<usize> = s.rows()[r.clone()].to_vec();
            let mut b: Vec<usize> = g.rows()[r.clone()].to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "super-level {sl} must be a permutation");
            // …with level still the primary order inside it.
            for w in g.rows()[r].windows(2) {
                assert!(
                    level_of[w[0]] <= level_of[w[1]],
                    "level order violated between rows {} and {}",
                    w[0],
                    w[1]
                );
            }
        }
        // The executor's deadlock-freedom invariant: every dependency sits
        // at a strictly earlier flat position in the sweep order.
        for i in 0..m.n() {
            let (cols, _) = m.row_entries(i);
            for &j in cols {
                assert!(
                    flat_pos[j] < flat_pos[i],
                    "dependency {j} of row {i} not earlier in the sweep"
                );
            }
        }
        // Pattern-only analysis: rebuilding gives the identical permutation.
        assert_eq!(g.rows(), MergedSchedule::build(&s, &m).rows());
    }

    #[test]
    fn high_fan_out_rows_move_to_the_front_of_their_level() {
        // One super-level (total weight << SUPER_MIN_WEIGHT), two levels.
        // Every level-1 row consumes row 9, one also consumes row 0 — so
        // within level 0 the sweep must hoist 9 ahead of 0..=8, while the
        // zero-fan-out rows keep their row-id order behind it.
        let mut ents: Vec<(usize, usize, f64)> = (10..20).map(|i| (i, 9, 1.0)).collect();
        ents.push((10, 0, 1.0));
        let m = lower(&ents, 20);
        let s = Schedule::analyze(&m);
        let g = MergedSchedule::build(&s, &m);
        assert_eq!(g.num_super_levels(), 1);
        assert_eq!(s.level_rows(0), (0..10).collect::<Vec<_>>().as_slice());
        assert_eq!(
            &g.rows()[..10],
            &[9, 0, 1, 2, 3, 4, 5, 6, 7, 8],
            "fan-out 10 beats fan-out 1 beats fan-out 0"
        );
        assert_eq!(&g.rows()[10..], (10..20).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn merging_compresses_deep_dags_but_not_wide_ones() {
        // 2000 skinny levels -> far fewer super-levels.
        let deep = crate::gen::deep_narrow_lower(8000, 4, 3, 7);
        let ds = Schedule::analyze(&deep);
        let dg = MergedSchedule::build(&ds, &deep);
        assert_eq!(ds.num_levels(), 2000);
        assert!(
            dg.num_super_levels() * 10 <= ds.num_levels(),
            "expected >=10x barrier compression, got {} super-levels for {} levels",
            dg.num_super_levels(),
            ds.num_levels()
        );
        assert!(dg.max_super_width() >= SUPER_MIN_WEIGHT / (4 + 1 + 1));
        // A diagonal matrix is one wide level: nothing to merge.
        let wide = lower(&[], 500);
        let ws = Schedule::analyze(&wide);
        let wg = MergedSchedule::build(&ws, &wide);
        assert_eq!(wg.num_super_levels(), 1);
        assert_eq!(wg.max_super_width(), 500);
    }

    #[test]
    fn auto_policy_follows_the_level_shape() {
        // Unbroken chain: no parallelism, stay on Level (which degrades to
        // the sequential sweep through the width cap).
        let chain = crate::gen::banded_lower(2000, 1, 1);
        assert!(chain.schedule().is_sequential());
        assert_eq!(
            SchedulePolicy::auto(chain.schedule(), 4, None),
            SchedulePolicy::Level
        );
        // Deep narrow DAG: many skinny levels -> Merged.
        let deep = crate::gen::deep_narrow_lower(8000, 4, 3, 7);
        assert_eq!(
            SchedulePolicy::auto(deep.schedule(), 4, None),
            SchedulePolicy::Merged
        );
        // One wide level: too few levels to merge -> Level.
        let wide = lower(&[], 500);
        assert_eq!(
            SchedulePolicy::auto(wide.schedule(), 4, None),
            SchedulePolicy::Level
        );
        assert_eq!(SchedulePolicy::Level.name(), "level");
        assert_eq!(SchedulePolicy::Merged.name(), "merged");
        assert_eq!(SchedulePolicy::SyncFree.name(), "syncfree");
    }

    #[test]
    fn auto_policy_prices_analysis_against_reuse() {
        let deep = crate::gen::deep_narrow_lower(8000, 4, 3, 7);
        // One-shot (and anything under the amortization threshold): the
        // analysis can never pay for itself -> SyncFree, whatever the shape.
        for r in [0usize, 1, ANALYZE_REUSE_MIN - 1] {
            assert_eq!(
                SchedulePolicy::auto(deep.schedule(), 4, Some(r)),
                SchedulePolicy::SyncFree
            );
        }
        // At or above the threshold the shape decides again.
        assert_eq!(
            SchedulePolicy::auto(deep.schedule(), 4, Some(ANALYZE_REUSE_MIN)),
            SchedulePolicy::Merged
        );
        assert_eq!(
            SchedulePolicy::auto(deep.schedule(), 4, Some(100)),
            SchedulePolicy::Merged
        );
        // Undeclared reuse keeps the historical many-apply behavior.
        assert_eq!(
            SchedulePolicy::auto(deep.schedule(), 4, None),
            SchedulePolicy::Merged
        );
        // Even a chain goes sync-free on a one-shot: the sequential column
        // sweep it degrades to is still analysis-free.
        let chain = crate::gen::banded_lower(2000, 1, 1);
        assert_eq!(
            SchedulePolicy::auto(chain.schedule(), 4, Some(1)),
            SchedulePolicy::SyncFree
        );
    }
}
