//! Key-free redistribution between layouts.
//!
//! The paper's algorithms change data layouts in a few places — the
//! transposes inside the 3D matrix multiplication (Section III), the move of
//! sub-matrices onto smaller processor grids inside the recursive inversion
//! (Section V), the collection of diagonal blocks onto dedicated sub-grids in
//! the `Diagonal-Inverter` (Section VI-A), and the face / slab routing of
//! `It-Inv-TRSM` (Section VI).  In every case the paper charges one
//! **all-to-all of the values**: `O(α·log p + β·(volume/p)·log p)` per
//! processor.
//!
//! [`redistribute`] is that primitive.  Every layout here is computable from
//! rank arithmetic, so a [`Layout`] describes it completely on every rank:
//! each axis of the global index space is cut into *classes* ([`Axis`]), a
//! *piece* is a (row class, column class) pair, and each piece is stored by
//! zero or more ranks.  Sender and receiver of a (source, destination) pair
//! therefore agree, without exchanging a word, on which entries travel
//! between them and in which order — global row-major — so only the values
//! are sent: the sender gathers runs straight out of its local matrix into
//! one buffer per destination, the receiver scatters each buffer straight
//! into its local matrix, and no index ever crosses the wire.
//!
//! The buffers are routed by the same Bruck all-to-all-v of `simnet::coll`
//! the algorithms have always used (`⌈log₂ p⌉` messages per rank, a
//! [`simnet::coll::BRUCK_BLOCK_HEADER`]-word header per forwarded block).  A
//! redistribution between two layouts that place every entry identically
//! ([`Layout::same_placement`]) — decided from the two layouts alone, so
//! every rank decides alike — sends nothing.
//!
//! Both ends walk their piece's rows in ascending global order, and every
//! [`Filter`] passes one contiguous column range per row that never moves
//! left as the row grows (`All` is fixed, `Lower` only widens to the right,
//! `DiagBlocksLower` jumps right at each block).  So the columns of a piece
//! that share a class of the other layout are found by a cursor pair per
//! class that only advances: a walk costs the entries it moves plus one
//! step per row and class, with no search.
//!
//! Every buffer a redistribution makes comes from the machine's pool: the
//! per-destination buffers are sized exactly (one counting walk over the
//! runs, then one filling walk), the buffers received go back once
//! unpacked, and [`redistribute`]'s destination matrix is pooled storage a
//! caller done with it may give back.

use crate::distmat::DistMatrix;
use crate::error::GridError;
use crate::grid::Grid2D;
use crate::Result;
use dense::Matrix;
use simnet::{coll, Communicator};
use std::ops::Range;

/// How one axis (rows or columns) of the global index space is cut up: every
/// global index belongs to one *class* — the indices a holder stores together
/// — at one position along that axis of the holder's local matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Class of each global index.
    class: Vec<usize>,
    /// Local position of each global index within its class's storage.
    local: Vec<usize>,
    /// Per class: one past the largest local position (0 for an empty class).
    extent: Vec<usize>,
}

impl Axis {
    /// An axis of `len` indices in `classes` classes, with
    /// `place(g) = (class, local position)` of global index `g`.
    ///
    /// `place` need not be injective: two indices of a class may share a
    /// local position (the stacked diagonal blocks of `It-Inv-TRSM` do), but
    /// then every redistribution using the axis must carry a [`Filter`] that
    /// passes at most one entry per local slot of each piece — nothing checks
    /// this, and colliding entries overwrite each other in row-major order.
    ///
    /// Panics if `place` names a class `>= classes`.
    pub fn from_fn(len: usize, classes: usize, place: impl Fn(usize) -> (usize, usize)) -> Axis {
        let mut axis = Axis {
            class: Vec::with_capacity(len),
            local: Vec::with_capacity(len),
            extent: vec![0; classes],
        };
        for g in 0..len {
            let (class, local) = place(g);
            assert!(
                class < classes,
                "index {g} placed in class {class} of {classes}"
            );
            axis.class.push(class);
            axis.local.push(local);
            axis.extent[class] = axis.extent[class].max(local + 1);
        }
        axis
    }

    /// Cyclic over `procs` classes: index `g` is entry `g / procs` of class
    /// `g mod procs` — the layout every algorithm in the paper starts from.
    pub fn cyclic(len: usize, procs: usize) -> Axis {
        Axis::from_fn(len, procs, |g| (g % procs, g / procs))
    }

    /// `parts` contiguous slabs of `len / parts` indices each (`parts` must
    /// divide `len`).
    pub fn slabs(len: usize, parts: usize) -> Axis {
        assert!(
            parts > 0 && len.is_multiple_of(parts),
            "{parts} slabs must divide {len} indices"
        );
        let width = len / parts;
        Axis::from_fn(len, parts, |g| (g / width, g % width))
    }

    /// One class holding every index in order.
    pub fn whole(len: usize) -> Axis {
        Axis::from_fn(len, 1, |g| (0, g))
    }

    /// Number of global indices.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// True when the axis has no indices.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.extent.len()
    }

    /// The global indices of `class`, ascending.
    fn members(&self, class: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&g| self.class[g] == class)
    }
}

/// Where every entry of a global `rows × cols` index space is stored: piece
/// `(rc, cc)` — the entries whose row is in row class `rc` and whose column
/// is in column class `cc` — sits on each of its holders as a local matrix
/// indexed by the axes' local positions.
///
/// A rank holds at most one piece.  As a *destination*, every holder of a
/// piece receives it (replication); as a *source*, the first holder listed
/// sends it, so a replicated source names only the replica that should send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    rows: Axis,
    cols: Axis,
    /// Ranks storing piece `(rc, cc)`, at `rc * cols.classes() + cc`.
    holders: Vec<Vec<usize>>,
    /// The piece each rank stores.
    piece_of: Vec<Option<(usize, usize)>>,
}

impl Layout {
    /// A layout over a communicator of `ranks` ranks; `holders(rc, cc)`
    /// lists the ranks storing piece `(rc, cc)` and must be the same pure
    /// function on every rank.
    ///
    /// Panics if a rank is out of range or is given two pieces.
    pub fn new<I: IntoIterator<Item = usize>>(
        ranks: usize,
        rows: Axis,
        cols: Axis,
        holders: impl Fn(usize, usize) -> I,
    ) -> Layout {
        let mut piece_of = vec![None; ranks];
        let mut table = Vec::with_capacity(rows.classes() * cols.classes());
        for rc in 0..rows.classes() {
            for cc in 0..cols.classes() {
                let ranks_here: Vec<usize> = holders(rc, cc).into_iter().collect();
                for &r in &ranks_here {
                    assert!(r < ranks, "piece ({rc}, {cc}) held by rank {r} of {ranks}");
                    assert!(
                        piece_of[r].replace((rc, cc)).is_none(),
                        "rank {r} holds two pieces"
                    );
                }
                table.push(ranks_here);
            }
        }
        Layout {
            rows,
            cols,
            holders: table,
            piece_of,
        }
    }

    /// The cyclic layout of a `rows × cols` [`DistMatrix`] on `grid`.
    pub fn cyclic(grid: &Grid2D, rows: usize, cols: usize) -> Layout {
        Layout::new(
            grid.size(),
            Axis::cyclic(rows, grid.rows()),
            Axis::cyclic(cols, grid.cols()),
            |x, y| Some(grid.rank_of(x, y)),
        )
    }

    /// Dimensions of the local matrix `rank` stores (`(0, 0)` if it holds no
    /// piece).
    pub fn local_dims(&self, rank: usize) -> (usize, usize) {
        match self.piece_of[rank] {
            Some((rc, cc)) => (self.rows.extent[rc], self.cols.extent[cc]),
            None => (0, 0),
        }
    }

    fn holders(&self, rc: usize, cc: usize) -> &[usize] {
        &self.holders[rc * self.cols.classes() + cc]
    }

    /// The rank that sends piece `(rc, cc)` when this layout is the source.
    fn sender(&self, rc: usize, cc: usize) -> Option<usize> {
        self.holders(rc, cc).first().copied()
    }

    /// The piece `rank` sends when this layout is the source.
    fn sending_piece(&self, rank: usize) -> Option<(usize, usize)> {
        self.piece_of[rank].filter(|&(rc, cc)| self.sender(rc, cc) == Some(rank))
    }

    /// True when `self` and `dst` place every entry identically — same cuts,
    /// same local positions, same single holder per piece — so that a local
    /// matrix under `self` already *is* the local matrix under `dst` and a
    /// redistribution between them moves nothing off-rank.  Pure layout
    /// arithmetic: every rank reaches the same verdict.
    pub fn same_placement(&self, dst: &Layout) -> bool {
        self == dst && self.holders.iter().all(|h| h.len() <= 1)
    }
}

/// Which entries of the index space a redistribution moves.  Entries outside
/// the filter are not sent, and the destination's entries there are left as
/// they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filter {
    /// Every entry.
    All,
    /// Entries on or below the diagonal (`j ≤ i`).
    Lower,
    /// The lower triangles of the diagonal blocks of the given size
    /// (`j ≤ i` and `⌊i/n0⌋ = ⌊j/n0⌋`).
    DiagBlocksLower(usize),
}

impl Filter {
    /// The (contiguous) range of columns that pass in row `i`.  Monotone in
    /// the row: for `i < i'`, neither end of row `i'`'s range is left of row
    /// `i`'s — the invariant [`pack`] and [`unpack`] walk by.
    fn cols(self, i: usize, ncols: usize) -> Range<usize> {
        let end = (i + 1).min(ncols);
        match self {
            Filter::All => 0..ncols,
            Filter::Lower => 0..end,
            Filter::DiagBlocksLower(n0) => (i / n0 * n0).min(end)..end,
        }
    }
}

/// The columns of one piece that fall into one column class of the *other*
/// layout: ascending global indices, where each sits in the local matrix,
/// and the cursor pair of the row walk in progress.
#[derive(Default, Clone)]
struct ColumnGroup {
    global: Vec<usize>,
    local: Vec<usize>,
    /// `global[lo..hi]` are the group's columns inside the last range asked.
    lo: usize,
    hi: usize,
}

impl ColumnGroup {
    /// Local positions of the group's columns inside `range`, ascending by
    /// global index.  Both ends of `range` must be at least those of the
    /// previous call since [`ColumnGroup::rewind`]: the cursors only advance.
    fn within(&mut self, range: &Range<usize>) -> &[usize] {
        let len = self.global.len();
        while self.lo < len && self.global[self.lo] < range.start {
            self.lo += 1;
        }
        self.hi = self.hi.max(self.lo);
        while self.hi < len && self.global[self.hi] < range.end {
            self.hi += 1;
        }
        &self.local[self.lo..self.hi]
    }

    /// Start a new row walk.
    fn rewind(&mut self) {
        (self.lo, self.hi) = (0, 0);
    }
}

/// The columns of class `class` of `mine`, grouped by their class in `other`.
fn column_groups(mine: &Axis, class: usize, other: &Axis) -> Vec<ColumnGroup> {
    let mut groups = vec![ColumnGroup::default(); other.classes()];
    for j in mine.members(class) {
        let group = &mut groups[other.class[j]];
        group.global.push(j);
        group.local.push(mine.local[j]);
    }
    groups
}

/// What [`pack`] does with one run of a row it sends: `f(destination, local
/// row, local columns)`.
type RunSink<'a> = dyn FnMut(usize, &[f64], &[usize]) + 'a;

/// Gather this rank's share of `from` into one value buffer per destination,
/// each in global row-major order of the entries it carries.
fn pack(
    comm: &Communicator,
    src: &Layout,
    dst: &Layout,
    from: &Matrix,
    filter: Filter,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); dst.piece_of.len()];
    let Some((rc, cc)) = src.sending_piece(comm.rank()) else {
        return out;
    };
    let mut groups = column_groups(&src.cols, cc, &dst.cols);
    // Every run this rank sends, in the order the buffers carry them.  Rows
    // go in ascending global order and a filter's column range never moves
    // left as the row grows, so each group's cursors only advance.
    let mut for_each_run = |f: &mut RunSink| {
        groups.iter_mut().for_each(ColumnGroup::rewind);
        for i in src.rows.members(rc) {
            let row = from.row(src.rows.local[i]);
            let range = filter.cols(i, src.cols.len());
            for (dst_cc, group) in groups.iter_mut().enumerate() {
                let run = group.within(&range);
                if run.is_empty() {
                    continue;
                }
                for &d in dst.holders(dst.rows.class[i], dst_cc) {
                    f(d, row, run);
                }
            }
        }
    };
    let mut counts = vec![0usize; out.len()];
    for_each_run(&mut |d, _, run| counts[d] += run.len());
    for (buf, &count) in out.iter_mut().zip(&counts) {
        *buf = comm.take_buffer(count);
    }
    for_each_run(&mut |d, row, run| out[d].extend(run.iter().map(|&lj| row[lj])));
    out
}

/// Scatter the value buffers (indexed by source rank) into this rank's
/// `into`, walking the same global row-major order [`pack`] wrote them in.
fn unpack(
    src: &Layout,
    dst: &Layout,
    incoming: &[Vec<f64>],
    into: &mut Matrix,
    filter: Filter,
    me: usize,
) -> Result<()> {
    let mut cursor = vec![0usize; incoming.len()];
    if let Some((rc, cc)) = dst.piece_of[me] {
        // The walk of `pack`: ascending rows, cursors that only advance.
        let mut groups = column_groups(&dst.cols, cc, &src.cols);
        for i in dst.rows.members(rc) {
            let row = into.row_mut(dst.rows.local[i]);
            let range = filter.cols(i, dst.cols.len());
            for (src_cc, group) in groups.iter_mut().enumerate() {
                let run = group.within(&range);
                let Some(s) = src.sender(src.rows.class[i], src_cc) else {
                    continue;
                };
                let start = cursor[s];
                cursor[s] += run.len();
                let values = incoming[s]
                    .get(start..cursor[s])
                    .ok_or_else(|| layouts_disagree(s, incoming[s].len(), cursor[s]))?;
                for (&lj, &v) in run.iter().zip(values) {
                    row[lj] = v;
                }
            }
        }
    }
    match (0..incoming.len()).find(|&s| cursor[s] != incoming[s].len()) {
        Some(s) => Err(layouts_disagree(s, incoming[s].len(), cursor[s])),
        None => Ok(()),
    }
}

fn layouts_disagree(source: usize, sent: usize, expected: usize) -> GridError {
    GridError::BadDimensions {
        op: "redistribute",
        reason: format!(
            "rank {source} sent {sent} values where the layouts call for {expected}: \
             the ranks were not given the same layouts"
        ),
    }
}

/// Both layouts must span `p` ranks and index the same global space, and
/// diagonal blocks must have a size.
fn check_args(p: usize, src: &Layout, dst: &Layout, filter: Filter) -> Result<()> {
    if filter == Filter::DiagBlocksLower(0) {
        return Err(GridError::BadDimensions {
            op: "redistribute",
            reason: "diagonal blocks of size 0".into(),
        });
    }
    if src.piece_of.len() != p || dst.piece_of.len() != p {
        return Err(GridError::GridSizeMismatch {
            comm_size: p,
            grid_size: src.piece_of.len().max(dst.piece_of.len()),
        });
    }
    if (src.rows.len(), src.cols.len()) != (dst.rows.len(), dst.cols.len()) {
        return Err(GridError::BadDimensions {
            op: "redistribute",
            reason: format!(
                "source layout indexes {}x{}, destination {}x{}",
                src.rows.len(),
                src.cols.len(),
                dst.rows.len(),
                dst.cols.len()
            ),
        });
    }
    Ok(())
}

fn check_local(what: &str, got: (usize, usize), want: (usize, usize)) -> Result<()> {
    if got == want {
        return Ok(());
    }
    Err(GridError::BadDimensions {
        op: "redistribute",
        reason: format!(
            "{what} local matrix is {}x{}, its layout stores {}x{}",
            got.0, got.1, want.0, want.1
        ),
    })
}

/// Move the entries of `from` (this rank's local matrix under `src`) that
/// pass `filter` to where `dst` stores them, writing the entries this rank
/// receives into `into` (its local matrix under `dst`) and leaving the rest
/// of `into` untouched.  **Collective** over `comm`; every rank must pass the
/// same layouts, filter and routing.  `Filter::DiagBlocksLower(0)` is a
/// typed error on every rank.
///
/// A rank that sends nothing under `src` may pass any `from`, and a rank that
/// holds nothing under `dst` any `into`; neither is looked at.
///
/// The value buffers travel through the Bruck all-to-all-v (`⌈log₂ p⌉`
/// messages per rank, each word forwarded up to `⌈log₂ p⌉` times) — the
/// route the paper's latency terms assume.  When the layouts have the
/// [`Layout::same_placement`] nothing is sent: the filtered entries are
/// copied locally and the call costs 0 messages and 0 words on every rank.
pub fn redistribute_into(
    comm: &Communicator,
    src: &Layout,
    from: &Matrix,
    dst: &Layout,
    into: &mut Matrix,
    filter: Filter,
) -> Result<()> {
    let _span = obs::span_with("pgrid", "redistribute", "ranks", comm.size() as u64);
    let (p, me) = (comm.size(), comm.rank());
    check_args(p, src, dst, filter)?;
    if src.sending_piece(me).is_some() {
        check_local("source", from.dims(), src.local_dims(me))?;
    }
    if dst.piece_of[me].is_some() {
        check_local("destination", into.dims(), dst.local_dims(me))?;
    }

    let outgoing = pack(comm, src, dst, from, filter);
    let incoming = if src.same_placement(dst) {
        outgoing // every value is addressed to this rank
    } else {
        coll::alltoallv_bruck(comm, outgoing)?
    };
    let unpacked = unpack(src, dst, &incoming, into, filter, me);
    for buf in incoming {
        comm.give_buffer(buf);
    }
    unpacked
}

/// [`redistribute_into`] a zero matrix of the destination's local shape,
/// stored in a pooled buffer: the entries outside `filter` are zero.
pub fn redistribute(
    comm: &Communicator,
    src: &Layout,
    from: &Matrix,
    dst: &Layout,
    filter: Filter,
) -> Result<Matrix> {
    check_args(comm.size(), src, dst, filter)?;
    let (rows, cols) = dst.local_dims(comm.rank());
    let mut into = crate::pooled_zeros(comm, rows, cols);
    redistribute_into(comm, src, from, dst, &mut into, filter)?;
    Ok(into)
}

/// Distributed transpose: returns `Aᵀ` distributed cyclically over the same
/// grid as `A`.  Every element moves to the owner of its transposed position
/// via one all-to-all of the values (the cost the paper charges for its
/// layout transposes) and arrives as the local transpose of the piece `Aᵀ`
/// stores; a local flip finishes the job.
pub fn transpose(mat: &DistMatrix) -> Result<DistMatrix> {
    let grid = mat.grid();
    // Rank (a, b) stores Aᵀ's rows ≡ a, columns ≡ b — A's columns and rows.
    let flipped = Layout::new(
        grid.size(),
        Axis::cyclic(mat.rows(), grid.cols()),
        Axis::cyclic(mat.cols(), grid.rows()),
        |b, a| Some(grid.rank_of(a, b)),
    );
    let piece = mat.redistribute_to(&flipped, Filter::All)?;
    DistMatrix::from_local(grid, mat.cols(), mat.rows(), piece.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Machine, MachineParams};

    #[test]
    fn distributed_transpose_matches_local() {
        let out = Machine::new(6, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 3).unwrap();
                let a = DistMatrix::from_fn(&grid, 8, 10, |i, j| (i * 10 + j) as f64);
                let at = transpose(&a).unwrap();
                let expect = a.to_global().transpose();
                dense::norms::rel_diff(&at.to_global(), &expect)
            })
            .unwrap();
        assert!(out.results.into_iter().all(|d| d == 0.0));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let a = DistMatrix::from_fn(&grid, 6, 6, |i, j| (i * 7 + j * 3) as f64);
                let att = transpose(&transpose(&a).unwrap()).unwrap();
                att.rel_diff(&a).unwrap()
            })
            .unwrap();
        assert!(out.results.into_iter().all(|d| d == 0.0));
    }

    #[test]
    fn axes_place_indices_and_size_their_classes() {
        let cyclic = Axis::cyclic(7, 3);
        assert_eq!(cyclic.class, [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(cyclic.local, [0, 0, 0, 1, 1, 1, 2]);
        assert_eq!(cyclic.extent, [3, 2, 2]);
        let slabs = Axis::slabs(6, 3);
        assert_eq!(slabs.class, [0, 0, 1, 1, 2, 2]);
        assert_eq!(slabs.local, [0, 1, 0, 1, 0, 1]);
        // No indices, but still one (empty) class per part.
        assert_eq!(Axis::slabs(0, 4).extent, [0; 4]);
        assert_eq!(Axis::whole(3).local, [0, 1, 2]);
        // More classes than indices: the tail classes are empty.
        assert_eq!(Axis::cyclic(2, 4).extent, [1, 1, 0, 0]);
    }

    #[test]
    fn filters_keep_a_contiguous_column_range_per_row() {
        assert_eq!(Filter::All.cols(5, 4), 0..4);
        assert_eq!(Filter::Lower.cols(2, 8), 0..3);
        assert_eq!(Filter::Lower.cols(9, 8), 0..8);
        assert_eq!(Filter::DiagBlocksLower(4).cols(6, 8), 4..7);
        assert_eq!(Filter::DiagBlocksLower(4).cols(4, 8), 4..5);
        // A row past the last column keeps nothing of a block beyond it.
        assert!(Filter::DiagBlocksLower(4).cols(9, 8).is_empty());
        // Neither end moves left as the row grows: the walk's cursors only
        // advance.
        for filter in [Filter::All, Filter::Lower, Filter::DiagBlocksLower(3)] {
            for i in 1..12 {
                let (above, here) = (filter.cols(i - 1, 8), filter.cols(i, 8));
                assert!(above.start <= here.start && above.end <= here.end);
            }
        }
    }

    #[test]
    #[should_panic(expected = "holds two pieces")]
    fn a_rank_cannot_hold_two_pieces() {
        Layout::new(2, Axis::cyclic(4, 2), Axis::whole(4), |_, _| Some(0));
    }

    #[test]
    fn mismatched_shapes_are_typed_errors() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let src = Layout::cyclic(&grid, 8, 8);
                let from = Matrix::zeros(4, 4);
                let wrong_space = Layout::cyclic(&grid, 8, 6);
                let wrong_local = Matrix::zeros(3, 4);
                let wrong_ranks =
                    Layout::new(2, Axis::cyclic(8, 2), Axis::whole(8), |r, _| Some(r));
                let all = Filter::All;
                let no_blocks = Filter::DiagBlocksLower(0);
                let dst = Layout::new(4, Axis::cyclic(8, 4), Axis::whole(8), |r, _| Some(r));
                [
                    redistribute(comm, &src, &from, &wrong_space, all).is_err(),
                    redistribute(comm, &src, &wrong_local, &wrong_space, all).is_err(),
                    redistribute(comm, &src, &from, &wrong_ranks, all).is_err(),
                    redistribute_into(comm, &src, &from, &src, &mut Matrix::zeros(1, 1), all)
                        .is_err(),
                    redistribute(comm, &src, &from, &dst, no_blocks).is_err(),
                    redistribute_into(comm, &src, &from, &src, &mut Matrix::zeros(4, 4), no_blocks)
                        .is_err(),
                ]
            })
            .unwrap();
        assert!(out.results.into_iter().all(|errs| errs == [true; 6]));
    }

    #[test]
    fn identical_placement_honours_the_filter_and_touches_no_wire() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let a = DistMatrix::from_fn(&grid, 6, 6, |i, j| (i * 6 + j + 1) as f64);
                // The same placement, spelled without the grid.
                let same = Layout::new(4, Axis::cyclic(6, 2), Axis::cyclic(6, 2), |x, y| {
                    Some(x * 2 + y)
                });
                assert!(a.layout().same_placement(&same));
                let got = a.redistribute_to(&same, Filter::Lower).unwrap();
                let lower = DistMatrix::from_fn(&grid, 6, 6, |i, j| {
                    if j <= i {
                        (i * 6 + j + 1) as f64
                    } else {
                        0.0
                    }
                });
                got == *lower.local()
            })
            .unwrap();
        assert!(out.results.into_iter().all(|filtered| filtered));
        assert_eq!(out.report.total_messages(), 0);
        assert_eq!(out.report.total_words(), 0);
    }

    #[test]
    fn replicated_or_differently_cut_layouts_are_not_the_same_placement() {
        let cyclic = |holders: fn(usize, usize) -> Vec<usize>| {
            Layout::new(4, Axis::cyclic(6, 2), Axis::whole(6), holders)
        };
        let single = cyclic(|x, _| vec![x]);
        assert!(single.same_placement(&single.clone()));
        // Replicas other than the sender still have to be sent their copy.
        let replicated = cyclic(|x, _| vec![x, x + 2]);
        assert!(!replicated.same_placement(&replicated.clone()));
        let slabs = Layout::new(4, Axis::slabs(6, 2), Axis::whole(6), |x, _| vec![x]);
        assert!(!single.same_placement(&slabs));
    }
}
