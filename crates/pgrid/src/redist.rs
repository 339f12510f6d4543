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
//! [`redistribute`] is that primitive.  Every layout here is rank
//! arithmetic, so a [`Layout`] is a formula, not a table: each axis of the
//! global index space is cut into *classes* ([`Axis`], a closed form), a
//! *piece* is a (row class, column class) pair, and the ranks storing a
//! piece are a mixed-radix formula in its classes ([`Holders`]).  A layout
//! is a few words whatever the number of ranks, and every rank holds all of
//! it.  Sender and receiver of a (source, destination) pair therefore
//! agree, without exchanging a word, on which entries travel between them
//! and in which order — global row-major — so only the values are sent: the
//! sender gathers runs straight out of its local matrix into one buffer per
//! destination, the receiver scatters each buffer straight into its local
//! matrix, and no index ever crosses the wire.
//!
//! The buffers are routed by the same Bruck all-to-all-v of `simnet::coll`
//! the algorithms have always used (`⌈log₂ p⌉` messages per rank, a
//! [`simnet::coll::BRUCK_BLOCK_HEADER`]-word header per forwarded block).  A
//! redistribution between two layouts that place every entry identically
//! ([`Layout::same_placement`]) — decided from the two layouts alone, so
//! every rank decides alike — sends nothing.
//!
//! **Arithmetic runs.**  Each end first cuts its piece's rows and its
//! columns into *runs*: indices that share one class of the other layout
//! and whose global indices and local positions both step evenly.  The cut
//! walks a class a stretch at a time — indices the other layout's blocks
//! keep in one class — and adds the classes' repeats in one step, so it
//! costs the runs it returns, not the length of the axis.  A row class and
//! a column class of the other layout make one of its pieces, so the
//! entries a rank exchanges with one peer are one (row runs, column runs)
//! pair, walked rows ascending.  Every [`Filter`] passes one contiguous
//! column range per row, so the part of a column run that a row moves is a
//! sub-range found by at most two divisions, and it is copied once: a slice
//! when the local positions are consecutive, a strided gather or scatter
//! otherwise.  A walk costs the values it moves plus a few integer
//! operations per row and run, with no search and no per-entry bookkeeping.
//!
//! **Counts.**  How many entries a pair carries is arithmetic: under
//! `Filter::All` the product of its run lengths, under the triangular
//! filters one floor sum per (row run, column run) pair, split at the
//! diagonal blocks' boundaries.  The count sizes a destination's buffer
//! before a value is copied, and [`move_counts`] prices a redistribution
//! from the same counts without moving anything.
//!
//! Every buffer a redistribution makes comes from the machine's pool: the
//! buffers received go back once unpacked, and [`redistribute`]'s
//! destination matrix is pooled storage a caller done with it may give
//! back.

use crate::distmat::DistMatrix;
use crate::error::GridError;
use crate::grid::Grid2D;
use crate::Result;
use dense::Matrix;
use simnet::{coll, Communicator, CostCounters};
use std::ops::Range;

/// How one axis (rows or columns) of the global index space is cut up: every
/// global index belongs to one *class* — the indices a holder stores together
/// — at one *local position* along that axis of the holder's local matrix.
///
/// Every cut is one closed form in four integers and two flags.  Index `g`
/// of `len` — taken as `len − 1 − g` when the axis is [reversed] — lies in
/// block `b = g / B` at offset `o = g mod B`.  Blocks are dealt round-robin
/// over `P` block classes, and each block's offsets round-robin over `S`
/// stride classes (`S` divides `B`, unless no block class holds two
/// blocks):
///
/// * class `(b mod P)·S + o mod S`, one of `P·S`;
/// * local position `o / S + (b / P)·(B / S)`, or just `o / S` when the axis
///   is [stacked]: every block of a class then reuses the same local
///   positions.
///
/// Cyclic is `B = S = 1`; slabs are `B` = the slab width and `P` = the
/// parts; one class holding every index is `B = P = S = 1`.  Nothing is
/// tabulated: an `Axis` is a small `Copy` value and every question asked of
/// it is a few integer operations.
///
/// A stacked axis is not injective: two indices of a class share a local
/// position.  Every redistribution using one must carry a [`Filter`] that
/// passes at most one entry per local slot of each piece (the stacked
/// diagonal blocks of `It-Inv-TRSM` under `Filter::DiagBlocksLower`) —
/// nothing checks this, and colliding entries overwrite each other in
/// row-major order.
///
/// [reversed]: Axis::reversed
/// [stacked]: Axis::stacked
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    len: usize,
    /// `B`: indices per block.
    block: usize,
    /// `P`: block classes.
    procs: usize,
    /// `S`: stride classes within a block.
    stride: usize,
    stacked: bool,
    reversed: bool,
}

/// `(a / d, a mod d)`, by a shift and a mask when `d` is a power of two —
/// the block, class count, stride or step of most axes, whose divisions
/// would otherwise be most of a walk's time.
#[inline]
fn div_rem(a: usize, d: usize) -> (usize, usize) {
    if d.is_power_of_two() {
        (a >> d.trailing_zeros(), a & (d - 1))
    } else {
        (a / d, a % d)
    }
}

/// What one digit of an index decides in [`Axis::digits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Class,
    Local,
    /// Nothing: the block number of a stacked axis.
    Ignored,
    /// The offset in a block that the stride does not divide: class
    /// `o mod S` and local position `o / S` at once.
    Offset(usize),
}

impl Axis {
    /// `len` indices in blocks of `block`, dealt round-robin over `procs`
    /// block classes, each block's offsets dealt over `stride` classes: the
    /// general form above, with `procs · stride` classes.
    ///
    /// Panics unless `block`, `procs` and `stride` are positive and `stride`
    /// divides `block` or the `len` indices fill at most `procs` blocks.
    pub fn new(len: usize, block: usize, procs: usize, stride: usize) -> Axis {
        assert!(
            block > 0 && procs > 0 && stride > 0,
            "an axis needs a positive block ({block}), class count ({procs}) and stride ({stride})"
        );
        assert!(
            block.is_multiple_of(stride) || len <= procs * block,
            "a stride of {stride} must divide blocks of {block} dealt twice over {procs} classes"
        );
        Axis {
            len,
            block,
            procs,
            stride,
            stacked: false,
            reversed: false,
        }
    }

    /// Cyclic over `procs` classes: index `g` is entry `g / procs` of class
    /// `g mod procs` — the layout every algorithm in the paper starts from.
    pub fn cyclic(len: usize, procs: usize) -> Axis {
        Axis::new(len, 1, procs, 1)
    }

    /// `parts` contiguous slabs of `len / parts` indices each (`parts` must
    /// divide `len`).
    pub fn slabs(len: usize, parts: usize) -> Axis {
        assert!(
            parts > 0 && len.is_multiple_of(parts),
            "{parts} slabs must divide {len} indices"
        );
        Axis::new(len, (len / parts).max(1), parts, 1)
    }

    /// One class holding every index in order.
    pub fn whole(len: usize) -> Axis {
        Axis::cyclic(len, 1)
    }

    /// This cut with every block of a class at the same local positions
    /// `o / S`.  Panics on a reversed axis.
    pub fn stacked(self) -> Axis {
        assert!(!self.reversed, "a reversed axis cannot be stacked");
        Axis {
            stacked: true,
            ..self
        }
    }

    /// This cut of the reversed index `len − 1 − g`; reversing twice gives
    /// the cut back.  Panics on a stacked axis.
    pub fn reversed(self) -> Axis {
        assert!(!self.stacked, "a stacked axis cannot be reversed");
        Axis {
            reversed: !self.reversed,
            ..self
        }
    }

    /// Number of global indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the axis has no indices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.procs * self.stride
    }

    /// `(class, local position)` of global index `g`.
    fn place(&self, g: usize) -> (usize, usize) {
        let g = if self.reversed { self.len - 1 - g } else { g };
        let (b, o) = div_rem(g, self.block);
        let (u, pc) = div_rem(b, self.procs);
        let (m, sc) = div_rem(o, self.stride);
        let stack = if self.stacked {
            0
        } else {
            u * self.per_block()
        };
        (pc * self.stride + sc, m + stack)
    }

    /// `B / S`: the local positions one block gives a class (rounded up: a
    /// stride that does not divide the block deals each class one block).
    fn per_block(&self) -> usize {
        self.block.div_ceil(self.stride)
    }

    /// How many blocks hold indices of `class`, and how many of its indices
    /// the last of them holds (every other one is full).
    fn blocks_of(&self, class: usize) -> (usize, usize) {
        let (pc, sc) = (class / self.stride, class % self.stride);
        let blocks = self.len.div_ceil(self.block);
        if pc >= blocks {
            return (0, 0);
        }
        let mine = (blocks - 1 - pc) / self.procs + 1;
        let last = pc + (mine - 1) * self.procs;
        let last_len = (self.len - last * self.block).min(self.block);
        let in_last = if sc < last_len {
            (last_len - 1 - sc) / self.stride + 1
        } else {
            0
        };
        (mine, in_last)
    }

    /// One past the largest local position of `class` (0 for an empty
    /// class).
    fn extent(&self, class: usize) -> usize {
        match self.blocks_of(class) {
            (0, _) => 0,
            (1, in_last) => in_last,
            // A stacked class's first block is full.
            _ if self.stacked => self.per_block(),
            (blocks, in_last) => (blocks - 1) * self.per_block() + in_last,
        }
    }

    /// The indices of `class` and their local positions, ascending by index.
    fn members(self, class: usize) -> impl Iterator<Item = (usize, usize)> {
        let each = |run: Run| (0..run.count).map(move |t| (run.index(t), run.position(t)));
        self.segments(class).flat_map(each)
    }

    /// True when `self` and `other` place every index identically: the same
    /// length, the same number of classes and the same `(class, local
    /// position)` for every index, whichever constructor built either.
    fn same_placement(&self, other: &Axis) -> bool {
        self.len == other.len
            && self.classes() == other.classes()
            && self.digits() == other.digits()
    }

    /// The placement in canonical form, decided without visiting an index.
    /// The forward index is the mixed-radix number with digits `o mod S`,
    /// `o / S`, `b mod P` and `b / P`, least significant first; the first
    /// and third make up the class, the second and fourth the local position
    /// (the fourth decides nothing on a stacked axis).  Digits that are 0 on
    /// every index are dropped, the highest one that varies is cut to the
    /// values it takes, and neighbours with the same role merge into one.
    /// Two axes of one length place every index alike exactly when these
    /// agree.  Reversing moves index 0 off `(0, 0)` once there are two
    /// indices, so a reversed axis never matches a forward one.  Once a
    /// second block begins, an offset the stride does not divide stays one
    /// digit, kept even at radix 1: it spaces the block classes `S` apart.
    fn digits(&self) -> ([(usize, Role); 4], bool) {
        let top = if self.stacked {
            Role::Ignored
        } else {
            Role::Local
        };
        let raw = if self.block.is_multiple_of(self.stride) || self.len <= self.block {
            [
                (self.stride, Role::Class),
                (self.per_block(), Role::Local),
                (self.procs, Role::Class),
                (usize::MAX, top),
            ]
        } else {
            [
                (self.block, Role::Offset(self.stride)),
                (self.procs, Role::Class),
                (usize::MAX, top),
                (1, Role::Local),
            ]
        };
        let mut digits = [(1, Role::Local); 4];
        let mut kept = 0;
        // The product of the radices below the digit, and where the last
        // kept digit begins.
        let (mut below, mut base) = (1, 1);
        for (radix, role) in raw {
            if self.len <= below {
                break;
            }
            let radix = radix.min(self.len.div_ceil(below));
            if radix == 1 && !matches!(role, Role::Offset(_)) {
                continue;
            }
            match kept {
                1.. if digits[kept - 1].1 == role => digits[kept - 1].0 *= radix,
                _ => {
                    digits[kept] = (radix, role);
                    kept += 1;
                    base = below;
                }
            }
            below *= radix;
        }
        if kept > 0 {
            digits[kept - 1].0 = digits[kept - 1].0.min(self.len.div_ceil(base));
        }
        (digits, self.reversed && self.len > 1)
    }
}

/// Which ranks hold each piece `(rc, cc)` of a [`Layout`]: rank `base +
/// Σ digit·stride` over the digits `rc mod m_r`, `rc div m_r`, `cc mod m_c`
/// and `cc div m_c`, plus a replica digit `y < count` whose replica 0 sends
/// the piece.  A *block-diagonal* map (`m_r = m_c = m`) holds only the
/// pieces with `rc div m = cc div m`, and its tied digit `cc div m` adds
/// nothing: `m = 1` is the diagonal inverter's round robin, `m` = the side
/// its sub-grids.  Every other map in the algorithms is a grid of strides,
/// offset, replicated or split.
#[derive(Debug, Clone, Copy)]
pub struct Holders {
    base: usize,
    /// `(m, stride of class mod m, stride of class div m)` of rows, columns.
    axes: [(usize, usize, usize); 2],
    /// `(count, stride)` of the replica digit.
    replicas: (usize, usize),
    tied: bool,
}

impl Holders {
    /// Piece `(rc, cc)` on rank `rc·row + cc·col` alone.
    pub fn strides(row: usize, col: usize) -> Holders {
        Holders::split((1, 0, row), (1, 0, col))
    }

    /// Piece `(rc, cc)` on rank `(rc mod m_r)·a + (rc div m_r)·b +
    /// (cc mod m_c)·c + (cc div m_c)·d` for `rows = (m_r, a, b)` and
    /// `cols = (m_c, c, d)`.  A layout with a modulus of 0 panics.
    pub fn split(rows: (usize, usize, usize), cols: (usize, usize, usize)) -> Holders {
        let (axes, replicas) = ([rows, cols], (1, 0));
        Holders {
            base: 0,
            axes,
            replicas,
            tied: false,
        }
    }

    /// Only the pieces with `rc div m = cc div m`, on rank
    /// `(rc mod m)·a + (rc div m)·b + (cc mod m)·c`.
    pub fn block_diagonal(m: usize, (a, b): (usize, usize), c: usize) -> Holders {
        let mut holders = Holders::split((m, a, b), (m, c, 0));
        holders.tied = true;
        holders
    }

    /// This map `base` ranks further up.
    pub fn offset(mut self, base: usize) -> Holders {
        self.base += base;
        self
    }

    /// Each piece also on the `count − 1` ranks `stride`, `2·stride`, …
    /// above its sender.  Panics on a count of 0.
    pub fn replicated(mut self, count: usize, stride: usize) -> Holders {
        assert!(count > 0, "a piece has at least its sender");
        self.replicas = (count, stride);
        self
    }
}

/// Where every entry of a global `rows × cols` index space is stored: piece
/// `(rc, cc)` — the entries whose row is in row class `rc` and whose column
/// is in column class `cc` — sits on each of its [`Holders`] as a local
/// matrix indexed by the axes' local positions.
///
/// A rank holds at most one piece.  As a *destination*, every holder of a
/// piece receives it (replication); as a *source*, replica 0 sends it.  A
/// layout is a few words whatever the number of ranks, and is built,
/// inverted and compared in a few integer operations.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Ranks of the communicator the layout spans.
    ranks: usize,
    rows: Axis,
    cols: Axis,
    holders: Holders,
}

// A `Copy` type owns no heap table: a layout is a few words whatever `p`.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Layout>()
};

impl Layout {
    /// A layout over a communicator of `ranks` ranks, its pieces on
    /// `holders`.
    ///
    /// Panics unless the formula's strides form a mixed radix — in
    /// ascending order, each digit taking two values or more has a stride of
    /// at least the span of those below it, so no rank holds two pieces —
    /// and its top rank, every digit at its largest, is below `ranks`.
    pub fn new(ranks: usize, rows: Axis, cols: Axis, holders: Holders) -> Layout {
        let layout = Layout {
            ranks,
            rows,
            cols,
            holders,
        };
        let (mut span, mut top) = (1, holders.base);
        for (_, radix, stride) in layout.digits() {
            let what = "are not a mixed radix: a rank holds two pieces";
            assert!(stride >= span, "the holder strides of {holders:?} {what}");
            (span, top) = (stride.saturating_mul(radix), top + (radix - 1) * stride);
        }
        assert!(top < ranks, "a piece is held by rank {top} of {ranks}");
        layout
    }

    /// The cyclic layout of a `rows × cols` [`DistMatrix`] on `grid`.
    pub fn cyclic(grid: &Grid2D, rows: usize, cols: usize) -> Layout {
        Layout::cyclic_over(grid.rows(), grid.cols(), rows, cols)
    }

    /// The cyclic layout of a `rows × cols` matrix on a `pr × pc` grid whose
    /// processor `(x, y)` is rank `x·pc + y`, as [`Grid2D`] numbers them:
    /// [`Layout::cyclic`] without the grid, for pricing a move before any
    /// communicator exists.
    pub fn cyclic_over(pr: usize, pc: usize, rows: usize, cols: usize) -> Layout {
        let (rows, cols) = (Axis::cyclic(rows, pr), Axis::cyclic(cols, pc));
        Layout::new(pr * pc, rows, cols, Holders::strides(pc, 1))
    }

    /// The global `(rows, cols)` the layout indexes.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows.len(), self.cols.len())
    }

    /// This layout with the row axis reversed: `(i, j)` is stored where
    /// `self` stores `(rows − 1 − i, j)`.
    pub fn reversed_rows(&self) -> Layout {
        Layout {
            rows: self.rows.reversed(),
            ..*self
        }
    }

    /// This layout with both axes reversed: `(i, j)` is stored where `self`
    /// stores `(rows − 1 − i, cols − 1 − j)`.
    pub fn reversed(&self) -> Layout {
        Layout {
            rows: self.rows.reversed(),
            cols: self.cols.reversed(),
            ..*self
        }
    }

    /// The transposed index space: `(j, i)` is stored by the holders of
    /// `(i, j)` under `self`, at the transposed local position.  A tie is
    /// symmetric, so its digit keeps the rows' stride.
    pub fn transposed(&self) -> Layout {
        let mut holders = self.holders;
        let [(mr, a, b), (mc, c, d)] = holders.axes;
        holders.axes = match holders.tied {
            true => [(mc, c, b), (mr, a, 0)],
            false => [(mc, c, d), (mr, a, b)],
        };
        Layout::new(self.ranks, self.cols, self.rows, holders)
    }

    /// Write `piece`, the row-major local matrix `rank` stores, into the
    /// entries of `global` it holds.
    pub(crate) fn write_piece(&self, rank: usize, piece: &[f64], global: &mut Matrix) {
        let Some((rc, cc)) = self.piece_of(rank) else {
            return;
        };
        let width = self.cols.extent(cc);
        let cols: Vec<(usize, usize)> = self.cols.members(cc).collect();
        for (i, li) in self.rows.members(rc) {
            let (src, dst) = (&piece[li * width..], global.row_mut(i));
            for &(j, lj) in &cols {
                dst[j] = src[lj];
            }
        }
    }

    /// The local positions of the diagonal entries `(i, i)` that `rank`
    /// stores.
    pub fn diagonal(&self, rank: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let pieces = self.piece_of(rank).into_iter();
        pieces.flat_map(move |(rc, cc)| {
            let rows = self.rows.members(rc).filter(|&(i, _)| i < self.cols.len());
            rows.filter_map(move |(i, li)| {
                let (class, lj) = self.cols.place(i);
                (class == cc).then_some((li, lj))
            })
        })
    }

    /// Dimensions of the local matrix `rank` stores (`(0, 0)` if it holds no
    /// piece).
    pub fn local_dims(&self, rank: usize) -> (usize, usize) {
        match self.piece_of(rank) {
            Some((rc, cc)) => (self.rows.extent(rc), self.cols.extent(cc)),
            None => (0, 0),
        }
    }

    /// `(digit, radix, stride)` of each digit of the holder formula that
    /// takes two values or more, by ascending stride: digits 0 to 4 are
    /// `rc mod m_r`, `rc div m_r`, `cc mod m_c`, `cc div m_c` (never when
    /// tied) and the replica.
    fn digits(&self) -> impl DoubleEndedIterator<Item = (usize, usize, usize)> {
        let (h, [(mr, a, b), (mc, c, d)]) = (&self.holders, self.holders.axes);
        let (r, cs) = (self.rows.classes(), self.cols.classes());
        let tied = if h.tied { 1 } else { cs.div_ceil(mc) };
        let radix = [mr.min(r), r.div_ceil(mr), mc.min(cs), tied, h.replicas.0];
        let stride = [a, b, c, d, h.replicas.1];
        let mut order = [0, 1, 2, 3, 4];
        order.sort_by_key(|&i| stride[i]);
        let live = order.into_iter().filter(move |&i| radix[i] > 1);
        live.map(move |i| (i, radix[i], stride[i]))
    }

    /// The piece `rank` stores: its digits peeled off from the largest
    /// stride down, `None` when one leaves its radix, a remainder is left
    /// over, or the classes they make do not exist.
    pub fn piece_of(&self, rank: usize) -> Option<(usize, usize)> {
        let (h, [(mr, ..), (mc, ..)]) = (&self.holders, self.holders.axes);
        let mut rest = rank.checked_sub(h.base).filter(|_| rank < self.ranks)?;
        let mut value = [0; 5];
        for (d, radix, stride) in self.digits().rev() {
            value[d] = rest / stride;
            rest -= value[d] * stride;
            (value[d] < radix).then_some(())?;
        }
        let group = value[if h.tied { 1 } else { 3 }];
        let (rc, cc) = (value[0] + mr * value[1], value[2] + mc * group);
        (rest == 0 && rc < self.rows.classes() && cc < self.cols.classes()).then_some((rc, cc))
    }

    /// The rank that sends piece `(rc, cc)` when this layout is the source:
    /// replica 0, unless a tie leaves the piece unheld.
    fn sender(&self, rc: usize, cc: usize) -> Option<usize> {
        let (h, [(mr, a, b), (mc, c, d)]) = (&self.holders, self.holders.axes);
        let ((rq, rr), (cq, cr)) = (div_rem(rc, mr), div_rem(cc, mc));
        (!h.tied || rq == cq).then_some(h.base + rr * a + rq * b + cr * c + cq * d)
    }

    /// Every rank that holds the piece replica 0 `first` holds.
    fn replicas(&self, first: usize) -> impl Iterator<Item = usize> + Clone {
        let (count, stride) = self.holders.replicas;
        (0..count).map(move |y| first + y * stride)
    }

    /// The piece `rank` sends when this layout is the source.
    fn sending_piece(&self, rank: usize) -> Option<(usize, usize)> {
        self.piece_of(rank)
            .filter(|&(rc, cc)| self.sender(rc, cc) == Some(rank))
    }

    /// True when `self` and `dst` place every entry identically — same cuts,
    /// same local positions, same single holder per piece — so that a local
    /// matrix under `self` already *is* the local matrix under `dst` and a
    /// redistribution between them moves nothing off-rank.  The axes and
    /// holders are compared as placements, not as the constructors that
    /// built them (`Axis::cyclic(n, 1)`, `Axis::whole(n)` and
    /// `Axis::slabs(n, 1)` are one placement).  Pure layout arithmetic:
    /// every rank reaches the same verdict.
    pub fn same_placement(&self, dst: &Layout) -> bool {
        self.rows.same_placement(&dst.rows)
            && self.cols.same_placement(&dst.cols)
            && self.ranks == dst.ranks
            && (self.holders.replicas.0, dst.holders.replicas.0) == (1, 1)
            && self.canonical() == dst.canonical()
    }

    /// The holder formula in canonical form, equal for two layouts of the
    /// same classes exactly when they hold every piece alike: a digit that
    /// only reads 0 gets stride 0 (a live one has 1 or more), an axis whose
    /// digits recombine (`b = m·a`, or one dead) becomes `class·stride`, and
    /// a tie every piece meets is dropped.  What is left shows its strides
    /// at classes 1 and `m`, and a tie its modulus at the first unheld piece.
    fn canonical(&self) -> [usize; 8] {
        let (h, [(m, a, b), (mc, c, d)]) = (&self.holders, self.holders.axes);
        let (r, cs) = (self.rows.classes(), self.cols.classes());
        let live = |radix: usize, stride| if radix > 1 { stride } else { 0 };
        if h.tied && m < r.max(cs) {
            let group = live(r.div_ceil(m).min(cs.div_ceil(m)), b);
            let (x, y) = (live(m.min(r), a), live(m.min(cs), c));
            return [m, h.base, x, group, y, 0, 0, 0];
        }
        let one = |m: usize, a, b, n: usize| match (live(m.min(n), a), live(n.div_ceil(m), b)) {
            (0, b) => (1, 0, b),
            (a, b) if b == 0 || b == m * a => (1, 0, a),
            (a, b) => (m, a, b),
        };
        let ((mr, a, b), (mc, c, d)) = (one(m, a, b, r), one(mc, c, d, cs));
        [0, h.base, mr, a, b, mc, c, d]
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
    /// `i`'s — the invariant the runs' walk skips by.
    fn cols(self, i: usize, ncols: usize) -> Range<usize> {
        let end = (i + 1).min(ncols);
        match self {
            Filter::All => 0..ncols,
            Filter::Lower => 0..end,
            Filter::DiagBlocksLower(n0) => (i - div_rem(i, n0).1).min(end)..end,
        }
    }

    /// The columns some row of `rows` passes (ascending, not interleaved):
    /// from the first row's range to the last row's, as neither end of a
    /// range moves left as the row grows.
    fn span(self, rows: &[Run], ncols: usize) -> Range<usize> {
        let last = rows[rows.len() - 1].last();
        self.cols(rows[0].first, ncols).start..self.cols(last, ncols).end
    }
}

/// Indices of class `class` of one layout, along one axis, that share class
/// `other` of the other layout and step evenly: global index `first +
/// step·t` sits at local position `local + local_step·t`, for `t < count`.
#[derive(Debug, Clone, Copy)]
struct Run {
    class: usize,
    other: usize,
    first: usize,
    step: usize,
    count: usize,
    local: usize,
    local_step: isize,
    /// The first index of the run's group: the runs of `class` that share
    /// `other`.  [`cut`] orders groups by it.
    lead: usize,
    /// The last index any run of `class` reaches, up to and including this
    /// one in [`cut`]'s order.
    furthest: usize,
}

impl Run {
    /// Take the indices of `next`, which follow this run's, as its next
    /// ones, if they continue both progressions.
    fn append(&mut self, next: &Run) -> bool {
        let (dg, dl) = (
            next.first - self.first,
            next.local as isize - self.local as isize,
        );
        let (step, local_step) = match self.count {
            1 => (dg, dl),
            _ => (self.step, self.local_step),
        };
        let continues = dg == step * self.count && dl == local_step * self.count as isize;
        let same = next.count == 1 || (next.step, next.local_step) == (step, local_step);
        if !(continues && same) {
            return false;
        }
        (self.step, self.local_step) = (step, local_step);
        self.count += next.count;
        true
    }

    fn index(&self, t: usize) -> usize {
        self.first + self.step * t
    }

    fn last(&self) -> usize {
        self.index(self.count - 1)
    }

    /// The first `t` whose index is `g` or more (`count` if none is).
    fn reach(&self, g: usize) -> usize {
        let (t, rem) = div_rem(g.saturating_sub(self.first), self.step);
        (t + usize::from(rem > 0)).min(self.count)
    }

    /// The `t` of the run's indices inside `range`: a comparison at an end
    /// the run lies inside, a [`Run::reach`] only where `range` cuts it.
    fn clip(&self, range: &Range<usize>) -> Range<usize> {
        let lo = match self.first >= range.start {
            true => 0,
            false => self.reach(range.start),
        };
        let hi = match self.last() < range.end {
            true => self.count,
            false => self.reach(range.end),
        };
        lo..hi
    }

    fn position(&self, t: usize) -> usize {
        self.local.wrapping_add_signed(self.local_step * t as isize)
    }

    /// `Σ` over `t` in `ts` of how many indices of `cols` are at most this
    /// run's index `t`: a floor sum between the first row that passes
    /// `cols.first` and the first that passes its last index.
    fn below(&self, ts: Range<usize>, cols: &Run) -> usize {
        let clamp = |t: usize| t.clamp(ts.start, ts.end);
        let (t0, t1) = (
            clamp(self.reach(cols.first)),
            clamp(self.reach(cols.last())),
        );
        let partial = match t1 - t0 {
            0 => 0,
            n => floor_sum(n, cols.step, self.step, self.index(t0) - cols.first) + n,
        };
        partial + (ts.end - t1) * cols.count
    }

    /// Where columns `ts` of local row `li` start in a row-major local
    /// matrix `width` wide, and the step between them there.
    fn stride(&self, li: usize, width: usize, ts: &Range<usize>) -> (usize, isize) {
        (li * width + self.position(ts.start), self.local_step)
    }
}

/// The part of a walk's storage range that is reached but not yet copied:
/// consecutive column runs whose storage continues one another's grow it,
/// and it is copied as one slice when the next one does not.
#[derive(Default)]
struct Pending {
    /// Storage offsets in the local matrix.
    at: Range<usize>,
    /// Where the range starts in the value buffer.
    read: usize,
}

impl Pending {
    /// Extend by `next` if it continues the range; else hand the range to
    /// `flush` and start again at `next`, `read` into the buffer.
    fn push(&mut self, next: Range<usize>, read: usize, flush: impl FnOnce(&Pending)) {
        if next.start == self.at.end && self.read + self.at.len() == read {
            self.at.end = next.end;
        } else {
            flush(self);
            *self = Pending { at: next, read };
        }
    }
}

/// `Σ_{t < n} ⌊(a·t + b) / m⌋`, in `O(log m)` steps: the Euclid-like
/// reduction that swaps the roles of `a` and `m`.  Its intermediates stay
/// below `n²`, `n·m + b` and the sum.
fn floor_sum(n: usize, m: usize, a: usize, b: usize) -> usize {
    let (mut n, mut m, mut a, mut b) = (n, m, a, b);
    let mut sum = 0;
    while n > 0 {
        let ((qa, ra), (qb, rb)) = (div_rem(a, m), div_rem(b, m));
        sum += n * (n - 1) / 2 * qa + n * qb;
        let top = ra * n + rb;
        if top < m {
            break;
        }
        let (q, r) = div_rem(top, m);
        (n, b, m, a) = (q, r, ra, m);
    }
    sum
}

impl Axis {
    /// The class of an index depends on it modulo this only: `B·P`, or the
    /// stride `S` when one block class leaves the class `g mod S`.
    fn period(&self) -> usize {
        match self.procs {
            1 => self.stride,
            procs => self.block * procs,
        }
    }

    /// How many indices from `g` on, stepping by `step`, are sure to share
    /// `g`'s class: all of them when the step is a multiple of what the
    /// class depends on, one when every step may move the stride class,
    /// else those left in `g`'s block.
    fn stretch(&self, g: usize, step: usize) -> usize {
        if div_rem(step, self.period()).1 == 0 {
            return usize::MAX;
        }
        if div_rem(step, self.stride).1 != 0 {
            return 1;
        }
        let (_, o) = div_rem(if self.reversed { self.len - 1 - g } else { g }, self.block);
        if self.reversed {
            div_rem(o, step).0 + 1
        } else {
            let (q, r) = div_rem(self.block - o, step);
            q + usize::from(r > 0)
        }
    }

    /// The indices of `class`, ascending, as progressions in both the index
    /// and the local position: one per block, or one for the whole class
    /// when each block holds one of its indices.
    fn segments(self, class: usize) -> impl Iterator<Item = Run> {
        let (blocks, in_last) = self.blocks_of(class);
        let per_block = self.per_block();
        let first = class / self.stride * self.block + class % self.stride;
        let stack = if self.stacked { 0 } else { per_block };
        let jump = self.procs * self.block;
        let (segments, step, local_step) = match per_block {
            1 => (blocks.min(1), jump, stack),
            _ => (blocks, self.stride, 1),
        };
        (0..segments).filter_map(move |u| {
            // Forward blocks ascend, reversed ones descend.
            let u = if self.reversed { segments - 1 - u } else { u };
            let count = match (per_block, u + 1 == blocks) {
                (1, _) => blocks - 1 + in_last,
                (_, true) => in_last,
                _ => per_block,
            };
            let run = Run {
                class,
                other: 0,
                first: first + u * jump,
                step,
                count,
                local: u * stack,
                local_step: local_step as isize,
                lead: 0,
                furthest: 0,
            };
            (count > 0).then(|| match self.reversed {
                true => Run {
                    first: self.len - 1 - run.last(),
                    local: run.position(count - 1),
                    local_step: -run.local_step,
                    ..run
                },
                false => run,
            })
        })
    }
}

/// Append the indices of class `class` of `mine`, cut into runs by their
/// class in `other`, to `runs`: grouped by that class, each group's runs
/// ascending and never interleaved, the groups in the order of their first
/// indices (so [`Run::lead`] and [`Run::furthest`] ascend).
///
/// Each segment of the class is cut a stretch at a time — the indices
/// [`Axis::stretch`] keeps in one class of `other` — and each stretch
/// continues the latest run of its class or starts one.  The classes along
/// a segment repeat with the period of `other`; when each index of the
/// first period starts a run of its own, each run takes every period-th
/// index from there, in one step.  A cut of the layouts the algorithms
/// build therefore costs a few steps per run it returns, not one per index.
fn cut(mine: &Axis, class: usize, other: &Axis, runs: &mut Vec<Run>) {
    let start = runs.len();
    for segment in mine.segments(class) {
        let period = other.period() / gcd(segment.step, other.period());
        let started = runs.len();
        let mut t = 0;
        while t < segment.count {
            let g = segment.index(t);
            let next = Run {
                other: other.place(g).0,
                first: g,
                count: other.stretch(g, segment.step).min(segment.count - t),
                local: segment.position(t),
                lead: g,
                ..segment
            };
            t += next.count;
            // Only the latest run of a class may grow.
            match runs[start..]
                .iter()
                .rposition(|run| run.other == next.other)
            {
                Some(at) if runs[start + at].append(&next) => {}
                Some(at) => runs.push(Run {
                    lead: runs[start + at].lead,
                    ..next
                }),
                None => runs.push(next),
            }
            if t == period && runs.len() - started == period {
                for (r, run) in runs[started..].iter_mut().enumerate() {
                    run.step *= period;
                    run.local_step *= period as isize;
                    run.count = (segment.count - r).div_ceil(period);
                }
                break;
            }
        }
    }
    runs[start..].sort_unstable_by_key(|run| (run.lead, run.first));
    let mut furthest = 0;
    for run in &mut runs[start..] {
        furthest = furthest.max(run.last());
        run.furthest = furthest;
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The runs of one class each, in turn, by `key`.
fn classes<K: PartialEq>(runs: &[Run], key: impl Fn(&Run) -> K) -> impl Iterator<Item = &[Run]> {
    runs.chunk_by(move |a, b| key(a) == key(b))
}

/// One piece cut into runs along both axes by the classes of the other
/// layout.  One (row group, column group) pair is one piece of the other
/// layout: the entries this piece exchanges with that piece's holders.
#[derive(Clone, Copy)]
struct Cuts<'a> {
    rows: &'a [Run],
    cols: &'a [Run],
    ncols: usize,
    filter: Filter,
}

impl<'a> Cuts<'a> {
    /// Piece `piece` of `mine` cut by the classes of `other`, its runs kept
    /// in `runs`.
    fn new(
        mine: &Layout,
        piece: (usize, usize),
        other: &Layout,
        filter: Filter,
        runs: &'a mut Vec<Run>,
    ) -> Cuts<'a> {
        cut(&mine.rows, piece.0, &other.rows, runs);
        let cols_at = runs.len();
        cut(&mine.cols, piece.1, &other.cols, runs);
        let (rows, cols) = runs.split_at(cols_at);
        Cuts {
            rows,
            cols,
            ncols: mine.cols.len(),
            filter,
        }
    }

    /// Every piece of the other layout this piece shares entries with, as
    /// `(row runs, column runs)` of one class each.
    fn pairs(self) -> impl Iterator<Item = (&'a [Run], &'a [Run])> {
        let by_other = |run: &Run| run.other;
        classes(self.rows, by_other)
            .flat_map(move |rows| classes(self.cols, by_other).map(move |cols| (rows, cols)))
    }

    /// True when this piece shares entries with piece `(rc, cc)` of the
    /// other layout.
    fn meets(&self, (rc, cc): (usize, usize)) -> bool {
        self.rows.iter().any(|run| run.other == rc) && self.cols.iter().any(|run| run.other == cc)
    }

    /// How many entries pass the filter in `rows × cols`: the product of
    /// their lengths, or for a triangular filter one [`Run::below`] per
    /// (row run, column run) pair that meets in a diagonal block, the row
    /// run split at the blocks' boundaries.
    fn count(&self, rows: &[Run], cols: &[Run]) -> usize {
        let total = |runs: &[Run]| runs.iter().map(|run| run.count).sum::<usize>();
        let n0 = match self.filter {
            Filter::All => return total(rows) * total(cols),
            Filter::Lower => usize::MAX,
            Filter::DiagBlocksLower(n0) => n0,
        };
        // Column runs left of `left` end before the current row's block,
        // which never moves left.
        let (mut count, mut left) = (0, 0);
        for row in rows {
            let mut t = 0;
            while t < row.count {
                let start = row.index(t) - div_rem(row.index(t), n0).1;
                let end = start.saturating_add(n0);
                while cols.get(left).is_some_and(|col| col.last() < start) {
                    left += 1;
                }
                let Some(next) = cols.get(left) else {
                    return count;
                };
                if next.first >= end {
                    // No column in this block: on to the next column's.
                    t = row.reach(next.first - div_rem(next.first, n0).1);
                    continue;
                }
                let end = row.reach(end);
                let last = row.index(end - 1);
                for col in cols[left..].iter().take_while(|col| col.first <= last) {
                    count += row.below(t..end, col) - (end - t) * col.reach(start);
                }
                t = end;
            }
        }
        count
    }

    /// Every piece of `dst` (the other layout, as destination) this piece
    /// sends entries to: its row runs, its column runs, its replica 0 (see
    /// [`Layout::replicas`] for the rest) and how many entries each holder
    /// receives.
    ///
    /// Row groups and column groups are both in the order of their first
    /// indices, and the columns a row group can pass start no further left
    /// than the last group's did: one sweep finds the column groups each
    /// row group meets, past every column run that ends left of them all.
    fn sends(self, dst: &'a Layout) -> impl Iterator<Item = (&'a [Run], &'a [Run], usize, usize)> {
        let mut left = 0;
        classes(self.rows, |run| run.lead).flat_map(move |rows| {
            let span = self.filter.span(rows, self.ncols);
            while self
                .cols
                .get(left)
                .is_some_and(|col| col.furthest < span.start)
            {
                left += 1;
            }
            let groups = classes(&self.cols[left..], |run| run.lead);
            let met = groups.take_while(move |cols| cols[0].lead < span.end);
            met.filter_map(move |cols| {
                let (rc, cc) = (rows[0].other, cols[0].other);
                let first = dst.sender(rc, cc)?;
                let count = self.count(rows, cols);
                (count > 0).then_some((rows, cols, first, count))
            })
        })
    }

    /// `f(local row, column run, its columns in the row)` for every part of
    /// `rows × cols` the filter passes, in global row-major order.
    fn for_each(&self, rows: &[Run], cols: &[Run], mut f: impl FnMut(usize, &Run, Range<usize>)) {
        // The rows ascend, and a filter's range never moves left as the row
        // grows: a column run left of one row's range is left of every later
        // row's, and the walk starts past it.
        let mut left = 0;
        for row_run in rows {
            for t in 0..row_run.count {
                let i = row_run.index(t);
                let range = self.filter.cols(i, self.ncols);
                while cols.get(left).is_some_and(|run| run.last() < range.start) {
                    left += 1;
                }
                for run in cols[left..].iter().take_while(|run| run.first < range.end) {
                    let ts = run.clip(&range);
                    if !ts.is_empty() {
                        f(row_run.position(t), run, ts);
                    }
                }
            }
        }
    }
}

/// Gather this rank's share of `from` into one value buffer per destination,
/// each in global row-major order of the entries it carries.  Runs that
/// continue one another in `from`'s storage are copied as one slice, and a
/// replicated destination's buffer is gathered once, then copied to each
/// other holder.
fn pack(
    comm: &Communicator,
    src: &Layout,
    dst: &Layout,
    from: &Matrix,
    filter: Filter,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); dst.ranks];
    let Some(piece) = src.sending_piece(comm.rank()) else {
        return out;
    };
    let mut runs = Vec::new();
    let cuts = Cuts::new(src, piece, dst, filter, &mut runs);
    let (width, values) = (from.cols(), from.as_slice());
    for (rows, cols, first, count) in cuts.sends(dst) {
        let mut buf = comm.take_buffer(count);
        let (mut gathered, mut pending) = (0, Pending::default());
        cuts.for_each(rows, cols, |li, run, ts| {
            let at = gathered;
            gathered += ts.len();
            let flush =
                |buf: &mut Vec<f64>, p: &Pending| buf.extend_from_slice(&values[p.at.clone()]);
            match run.stride(li, width, &ts) {
                (from, 1) => pending.push(from..from + ts.len(), at, |p| flush(&mut buf, p)),
                (mut from, step) => {
                    flush(&mut buf, &std::mem::take(&mut pending));
                    for _ in ts {
                        buf.push(values[from]);
                        from = from.wrapping_add_signed(step);
                    }
                }
            }
        });
        buf.extend_from_slice(&values[pending.at]);
        // A rank holds one piece, so each destination is filled here only.
        let mut holders = dst.replicas(first);
        let sender = holders.next().expect("replica 0 holds the piece");
        for d in holders {
            let mut copy = comm.take_buffer(count);
            copy.extend_from_slice(&buf);
            out[d] = copy;
        }
        out[sender] = buf;
    }
    out
}

/// The messages and words each rank of the communicator `src` and `dst`
/// span sends and receives in a [`redistribute`] from `src` to `dst` under
/// `filter`, as the call charges them: [`coll::bruck_counts`] over the
/// blocks the call's pack fills, sized from the same cuts.  Nothing moves
/// between layouts with the [`Layout::same_placement`].
///
/// Each class of either axis is cut once, and each block is counted in
/// arithmetic per (row run, column run) pair: the cost follows the runs,
/// the diagonal blocks a pair shares and the blocks sent, each routed over
/// the Bruck schedule's `⌈log₂ p⌉` rounds, not the entries moved.  It
/// allocates the runs, the schedule's table and the counts, whatever `p`.
pub fn move_counts(src: &Layout, dst: &Layout, filter: Filter) -> Vec<CostCounters> {
    if src.same_placement(dst) {
        return vec![CostCounters::default(); src.ranks];
    }
    // Every piece of a row class cuts its rows alike, and every piece of a
    // column class its columns.  The classes of an axis are cut alike but
    // for their ends, so the first class of each sizes the rest.
    let (rows, cols) = (src.rows.classes(), src.cols.classes());
    let mut runs = Vec::with_capacity(2 * (dst.rows.classes() + dst.cols.classes()));
    cut(&src.rows, 0, &dst.rows, &mut runs);
    let first_rows = runs.len();
    cut(&src.cols, 0, &dst.cols, &mut runs);
    let first_cols = runs.len() - first_rows;
    runs.reserve((first_rows * rows + first_cols * cols).saturating_sub(runs.len()));
    for class in 1..rows {
        cut(&src.rows, class, &dst.rows, &mut runs);
    }
    // The first column class's runs go after the row classes'.
    runs[first_rows..].rotate_left(first_cols);
    let cols_at = runs.len() - first_cols;
    for class in 1..cols {
        cut(&src.cols, class, &dst.cols, &mut runs);
    }
    let (rows, cols) = runs.split_at(cols_at);
    coll::bruck_counts(src.ranks, |emit| {
        for rows in classes(rows, |run| run.class) {
            for cols in classes(cols, |run| run.class) {
                let Some(s) = src.sender(rows[0].class, cols[0].class) else {
                    continue;
                };
                let cuts = Cuts {
                    rows,
                    cols,
                    ncols: src.cols.len(),
                    filter,
                };
                for (_, _, first, count) in cuts.sends(dst) {
                    dst.replicas(first).for_each(|d| emit(s, d, count));
                }
            }
        }
    })
}

/// Scatter the value buffers (indexed by source rank) into this rank's
/// `into`, walking the same global row-major order [`pack`] wrote them in,
/// runs that continue one another in `into`'s storage as one slice.
fn unpack(
    src: &Layout,
    dst: &Layout,
    incoming: &[Vec<f64>],
    into: &mut Matrix,
    filter: Filter,
    me: usize,
) -> Result<()> {
    let mut runs = Vec::new();
    let cuts = dst
        .piece_of(me)
        .map(|piece| Cuts::new(dst, piece, src, filter, &mut runs));
    let width = into.cols();
    let storage = into.as_mut_slice();
    if let Some(cuts) = cuts {
        for (rows, cols) in cuts.pairs() {
            // A rank sends one piece, so each source is read here only.
            let Some(s) = src.sender(rows[0].other, cols[0].other) else {
                continue;
            };
            let values = &incoming[s];
            let flush = |storage: &mut [f64], p: &Pending| {
                storage[p.at.clone()].copy_from_slice(&values[p.read..][..p.at.len()]);
            };
            let (mut read, mut pending) = (0, Pending::default());
            cuts.for_each(rows, cols, |li, run, ts| {
                let at = read;
                read += ts.len();
                // Of a buffer shorter than the walk, the runs that fit
                // whole are written, and the rest is reported below.
                if read > values.len() {
                    return;
                }
                let (mut to, step) = run.stride(li, width, &ts);
                if step == 1 {
                    pending.push(to..to + ts.len(), at, |p| flush(storage, p));
                    return;
                }
                flush(storage, &std::mem::take(&mut pending));
                for &v in &values[at..read] {
                    storage[to] = v;
                    to = to.wrapping_add_signed(step);
                }
            });
            flush(storage, &pending);
            if read != values.len() {
                return Err(layouts_disagree(s, values.len(), read));
            }
        }
    }
    // Every other rank must have sent nothing.
    let read = |s: usize| {
        let piece = src.sending_piece(s);
        piece.is_some_and(|piece| cuts.as_ref().is_some_and(|cuts| cuts.meets(piece)))
    };
    match (0..incoming.len()).find(|&s| !incoming[s].is_empty() && !read(s)) {
        Some(s) => Err(layouts_disagree(s, incoming[s].len(), 0)),
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
    if src.ranks != p || dst.ranks != p {
        return Err(GridError::GridSizeMismatch {
            comm_size: p,
            grid_size: src.ranks.max(dst.ranks),
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
    if dst.piece_of(me).is_some() {
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
/// grid as `A` — the relabelling [`DistMatrix::transpose`] (a local flip),
/// then every element moves to the cyclic owner of its transposed position
/// via one all-to-all of the values, the cost the paper charges for its
/// layout transposes.
pub fn transpose(mat: &DistMatrix) -> Result<DistMatrix> {
    let cyclic = Layout::cyclic(mat.grid(), mat.cols(), mat.rows());
    mat.transpose().to_layout(&cyclic, Filter::All)
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

    fn places(axis: Axis) -> Vec<(usize, usize)> {
        (0..axis.len()).map(|g| axis.place(g)).collect()
    }

    fn extents(axis: Axis) -> Vec<usize> {
        (0..axis.classes()).map(|c| axis.extent(c)).collect()
    }

    #[test]
    fn axes_place_indices_and_size_their_classes() {
        let cyclic = Axis::cyclic(7, 3);
        let expect = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2)];
        assert_eq!(places(cyclic), expect);
        assert_eq!(extents(cyclic), [3, 2, 2]);
        let slabs = Axis::slabs(6, 3);
        assert_eq!(
            places(slabs),
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        );
        // No indices, but still one (empty) class per part.
        assert_eq!(extents(Axis::slabs(0, 4)), [0; 4]);
        assert_eq!(places(Axis::whole(3)), [(0, 0), (0, 1), (0, 2)]);
        // More classes than indices: the tail classes are empty.
        assert_eq!(extents(Axis::cyclic(2, 4)), [1, 1, 0, 0]);
        // Reversed: index g sits where the forward cut puts len − 1 − g.
        assert_eq!(
            places(Axis::cyclic(5, 2).reversed()),
            [(0, 2), (1, 1), (0, 1), (1, 0), (0, 0)]
        );
        // Blocks of 4 dealt over 2 classes, offsets over 2: the last block
        // (index 8) is short, so class 1 ends a slot early.
        let blocks = Axis::new(9, 4, 2, 2);
        let expect = [
            (0, 0),
            (1, 0),
            (0, 1),
            (1, 1),
            (2, 0),
            (3, 0),
            (2, 1),
            (3, 1),
            (0, 2),
        ];
        assert_eq!(places(blocks), expect);
        assert_eq!(extents(blocks), [3, 2, 2, 2]);
        // Stacked: every block of a class at the same local positions.
        let stacked = Axis::new(10, 4, 1, 2).stacked();
        assert_eq!(
            places(stacked)[4..],
            [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (1, 0)]
        );
        assert_eq!(extents(stacked), [2, 2]);
        assert_eq!(extents(Axis::new(3, 4, 2, 2).stacked()), [2, 1, 0, 0]);
    }

    #[test]
    fn members_ascend_with_their_places() {
        let axes = [
            Axis::cyclic(11, 3),
            Axis::cyclic(11, 3).reversed(),
            Axis::new(11, 4, 2, 2),
            Axis::new(11, 4, 2, 2).reversed(),
            Axis::new(11, 4, 2, 1).stacked(),
            Axis::new(11, 6, 1, 3).stacked(),
            Axis::slabs(12, 4),
        ];
        for axis in axes {
            for class in 0..axis.classes() {
                let expect: Vec<(usize, usize)> = (0..axis.len())
                    .filter(|&g| axis.place(g).0 == class)
                    .map(|g| (g, axis.place(g).1))
                    .collect();
                let got: Vec<(usize, usize)> = axis.members(class).collect();
                assert_eq!(got, expect, "{axis:?}, class {class}");
                let extent = expect.iter().map(|&(_, l)| l + 1).max().unwrap_or(0);
                assert_eq!(axis.extent(class), extent, "{axis:?}, class {class}");
            }
        }
    }

    #[test]
    fn runs_cover_a_class_in_order_and_clip_to_a_range() {
        // Columns ≡ 1 (mod 3) of 20, grouped by their slab of 5.
        let mut runs = Vec::new();
        cut(&Axis::cyclic(20, 3), 1, &Axis::slabs(20, 4), &mut runs);
        let cover: Vec<(usize, Vec<usize>)> = runs
            .iter()
            .map(|r| {
                (
                    r.other,
                    (0..r.count).map(|t| r.first + r.step * t).collect(),
                )
            })
            .collect();
        let expect = [
            (0, vec![1, 4]),
            (1, vec![7]),
            (2, vec![10, 13]),
            (3, vec![16, 19]),
        ];
        assert_eq!(cover, expect);
        // Local positions step with the cyclic cut: 10 is entry 3.
        assert_eq!((runs[2].local, runs[2].local_step), (3, 1));
        let run = runs[2];
        assert_eq!(run.clip(&(0..20)), 0..2);
        assert_eq!(run.clip(&(11..20)), 1..2);
        assert!(run.clip(&(0..10)).is_empty());
        assert!(run.clip(&(14..20)).is_empty());
    }

    impl Layout {
        /// Every rank that holds piece `(rc, cc)`, replica 0 first.
        fn holders(&self, rc: usize, cc: usize) -> impl Iterator<Item = usize> + '_ {
            let sender = self.sender(rc, cc).into_iter();
            sender.flat_map(|s| self.replicas(s))
        }
    }

    impl Cuts<'_> {
        /// The count [`Cuts::count`] replaced: under a triangular filter,
        /// each row's filtered columns, summed row by row.  Its oracle.
        fn count_by_rows(&self, rows: &[Run], cols: &[Run]) -> usize {
            if self.filter == Filter::All {
                let total = |runs: &[Run]| runs.iter().map(|run| run.count).sum::<usize>();
                return total(rows) * total(cols);
            }
            let mut count = 0;
            self.for_each(rows, cols, |_, _, ts| count += ts.len());
            count
        }
    }

    /// The walk [`Cuts::for_each`] replaced: each row's filter range, and a
    /// clip by [`Run::reach`] at both ends of every column run it meets.
    fn for_each_by_rows(
        cuts: &Cuts,
        rows: &[Run],
        cols: &[Run],
        mut f: impl FnMut(usize, &Run, Range<usize>),
    ) {
        let mut left = 0;
        for row_run in rows {
            for t in 0..row_run.count {
                let i = row_run.index(t);
                let range = cuts.filter.cols(i, cuts.ncols);
                while cols.get(left).is_some_and(|run| run.last() < range.start) {
                    left += 1;
                }
                for run in cols[left..].iter().take_while(|run| run.first < range.end) {
                    let ts = run.reach(range.start)..run.reach(range.end);
                    if !ts.is_empty() {
                        f(row_run.position(t), run, ts);
                    }
                }
            }
        }
    }

    /// [`pack`] as it was: every row's columns gathered run by run, and a
    /// replicated destination walked again for each of its holders.  The
    /// oracle the spans and the single gather must match.
    fn pack_by_rows(
        comm: &Communicator,
        src: &Layout,
        dst: &Layout,
        from: &Matrix,
        filter: Filter,
    ) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); dst.ranks];
        let Some(piece) = src.sending_piece(comm.rank()) else {
            return out;
        };
        let mut runs = Vec::new();
        let cuts = Cuts::new(src, piece, dst, filter, &mut runs);
        for (rows, cols, first, count) in cuts.sends(dst) {
            let holders = dst.replicas(first);
            for d in holders.clone() {
                out[d] = Vec::with_capacity(count);
            }
            for_each_by_rows(&cuts, rows, cols, |li, run, ts| {
                let row = from.row(li);
                for d in holders.clone() {
                    out[d].extend(ts.clone().map(|t| row[run.position(t)]));
                }
            });
        }
        out
    }

    /// [`unpack`] as it was: every row's columns scattered run by run.
    fn unpack_by_rows(
        src: &Layout,
        dst: &Layout,
        incoming: &[Vec<f64>],
        into: &mut Matrix,
        filter: Filter,
        me: usize,
    ) -> Result<()> {
        let mut runs = Vec::new();
        let cuts = dst
            .piece_of(me)
            .map(|piece| Cuts::new(dst, piece, src, filter, &mut runs));
        if let Some(cuts) = cuts {
            for (rows, cols) in cuts.pairs() {
                let Some(s) = src.sender(rows[0].other, cols[0].other) else {
                    continue;
                };
                let values = &incoming[s];
                let mut read = 0;
                for_each_by_rows(&cuts, rows, cols, |li, run, ts| {
                    let at = read..read + ts.len();
                    read = at.end;
                    if let Some(values) = values.get(at) {
                        let row = into.row_mut(li);
                        for (t, &v) in ts.zip(values) {
                            row[run.position(t)] = v;
                        }
                    }
                });
                if read != values.len() {
                    return Err(layouts_disagree(s, values.len(), read));
                }
            }
        }
        Ok(())
    }

    /// The walks give what the row-by-row walks gave: the same wire buffer
    /// for every (source, destination) pair, bit for bit, and the same
    /// destination matrix, over random cuts (stacked and reversed axes
    /// among them) × every filter × destinations replicated up to three
    /// times, and the diagonal inverter's round robin.  A buffer cut short
    /// leaves the same matrix and the same error.
    #[test]
    fn the_walks_move_what_the_row_by_row_walks_moved() {
        let mut rng = Lcg(0xface);
        let mut cases = Vec::new();
        while cases.len() < 60 {
            let (n, m) = (1 + rng.below(30), 1 + rng.below(30));
            let axes = [rng.axis(n), rng.axis(m), rng.axis(n), rng.axis(m)];
            if axes.iter().any(|a| a.classes() > 4) {
                continue;
            }
            let [rows, cols, drows, dcols] = axes;
            let replicas = 1 + rng.below(3);
            let (pieces, dpieces) = (
                rows.classes() * cols.classes(),
                drows.classes() * dcols.classes(),
            );
            let p = pieces.max(dpieces * replicas);
            let src = Layout::new(p, rows, cols, Holders::strides(cols.classes(), 1));
            let spread = Holders::strides(dcols.classes(), 1).replicated(replicas, dpieces);
            let dst = Layout::new(p, drows, dcols, spread);
            let filter = match rng.below(3) {
                0 => Filter::All,
                1 => Filter::Lower,
                _ => Filter::DiagBlocksLower(1 + rng.below(n)),
            };
            cases.push((src, dst, filter));
        }
        // Cyclic onto the round robin and back, as the inverter moves.
        let (q, n, n0) = (2, 24, 6);
        let blocks = Axis::new(n, n0, q * q, 1);
        let robin = Holders::block_diagonal(1, (0, 1), 0);
        let robin = Layout::new(q * q, blocks, blocks.stacked(), robin);
        let cyclic = Layout::cyclic_over(q, q, n, n);
        cases.push((cyclic, robin, Filter::DiagBlocksLower(n0)));
        cases.push((robin, cyclic, Filter::DiagBlocksLower(n0)));
        for (case, &(src, dst, filter)) in cases.iter().enumerate() {
            let machine = simnet::Machine::new(src.ranks, simnet::MachineParams::unit());
            let out = machine.run(|comm| {
                let me = comm.rank();
                let value = |i: usize, j: usize| (me * 1000 + i * 37 + j) as f64;
                let (r, c) = src.local_dims(me);
                let from = Matrix::from_fn(r, c, value);
                let sent = pack(comm, &src, &dst, &from, filter);
                assert_eq!(
                    sent,
                    pack_by_rows(comm, &src, &dst, &from, filter),
                    "{case}"
                );
                let incoming = coll::alltoallv_bruck(comm, sent).unwrap();
                let (r, c) = dst.local_dims(me);
                let mut into = Matrix::from_fn(r, c, |i, j| -value(i, j));
                let mut by_rows = into.clone();
                let got = unpack(&src, &dst, &incoming, &mut into, filter, me);
                let want = unpack_by_rows(&src, &dst, &incoming, &mut by_rows, filter, me);
                assert_eq!(got.is_ok(), want.is_ok(), "{case}");
                assert!(
                    into == by_rows,
                    "case {case}: {src:?} → {dst:?} under {filter:?}"
                );
                let mut short = incoming;
                let Some(cut) = short.iter_mut().rev().find(|v| v.len() > 1) else {
                    return;
                };
                cut.truncate(cut.len() * (1 + case % 3) / 4);
                let got = unpack(&src, &dst, &short, &mut into, filter, me);
                let want = unpack_by_rows(&src, &dst, &short, &mut by_rows, filter, me);
                assert_eq!(got.unwrap_err(), want.unwrap_err(), "{case}");
                assert!(into == by_rows, "case {case}, short buffer");
            });
            out.unwrap();
        }
    }

    /// Tiny deterministic generator for the property tests below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % n
        }

        /// A random cut of `len` indices: any block, class count and stride
        /// the constructor accepts, stacked or reversed a third of the time
        /// each.
        fn axis(&mut self, len: usize) -> Axis {
            let (block, procs) = (1 + self.below(9), 1 + self.below(6));
            let strides: Vec<usize> = (1..=block)
                .filter(|&s| block.is_multiple_of(s) || len <= procs * block)
                .collect();
            let axis = Axis::new(len, block, procs, strides[self.below(strides.len())]);
            match self.below(3) {
                0 => axis.stacked(),
                1 => axis.reversed(),
                _ => axis,
            }
        }
    }

    /// The runs cover the class exactly — every index once, at its local
    /// position, under its class of `other` — one group per class of
    /// `other`, each group ascending and never interleaved, the groups in
    /// the order of their first indices, each `furthest` the last index so
    /// far.
    fn assert_cuts(mine: &Axis, class: usize, other: &Axis, runs: &[Run]) {
        let mut got: Vec<(usize, usize, usize)> = runs
            .iter()
            .flat_map(|run| (0..run.count).map(|t| (run.index(t), run.position(t), run.other)))
            .collect();
        got.sort_unstable();
        let expect: Vec<(usize, usize, usize)> = mine
            .members(class)
            .map(|(g, local)| (g, local, other.place(g).0))
            .collect();
        assert_eq!(got, expect, "{mine:?} class {class} by {other:?}");
        let (mut seen, mut furthest) = (Vec::new(), 0);
        for (at, run) in runs.iter().enumerate() {
            match at.checked_sub(1).map(|before| &runs[before]) {
                Some(before) if before.other == run.other => {
                    assert!(before.last() < run.first && before.lead == run.lead);
                }
                before => {
                    assert!(before.is_none_or(|before| before.lead < run.lead));
                    assert_eq!(run.lead, run.first);
                    assert!(!seen.contains(&run.other), "{runs:?}");
                    seen.push(run.other);
                }
            }
            furthest = furthest.max(run.last());
            assert_eq!(run.furthest, furthest);
        }
    }

    #[test]
    fn floor_sums_are_the_sums_they_name() {
        for (n, m, a, b) in (0..12)
            .flat_map(|n| (1..9).map(move |m| (n, m)))
            .flat_map(|(n, m)| (0..20).flat_map(move |a| (0..25).map(move |b| (n, m, a, b))))
        {
            let sum: usize = (0..n).map(|t| (a * t + b) / m).sum();
            assert_eq!(floor_sum(n, m, a, b), sum, "n={n} m={m} a={a} b={b}");
        }
    }

    #[test]
    fn cuts_cover_their_class_and_arithmetic_counts_match_the_row_by_row_ones() {
        let mut rng = Lcg(7);
        for case in 0..400 {
            let (m, n) = (rng.below(80), 1 + rng.below(80));
            let (rows, other_rows) = (rng.axis(m), rng.axis(m));
            let (cols, other_cols) = (rng.axis(n), rng.axis(n));
            // Every third case a block size that does not divide `n`.
            let n0 = match case % 3 {
                0 => (2..=n.max(2))
                    .find(|d| !n.is_multiple_of(*d))
                    .unwrap_or(n + 1),
                _ => 1 + rng.below(9),
            };
            for rc in 0..rows.classes() {
                for cc in 0..cols.classes() {
                    let mut runs = Vec::new();
                    cut(&rows, rc, &other_rows, &mut runs);
                    assert_cuts(&rows, rc, &other_rows, &runs);
                    let at = runs.len();
                    cut(&cols, cc, &other_cols, &mut runs);
                    assert_cuts(&cols, cc, &other_cols, &runs[at..]);
                    let (row_runs, col_runs) = runs.split_at(at);
                    for filter in [Filter::All, Filter::Lower, Filter::DiagBlocksLower(n0)] {
                        let cuts = Cuts {
                            rows: row_runs,
                            cols: col_runs,
                            ncols: n,
                            filter,
                        };
                        for (r, c) in cuts.pairs() {
                            let what = format!("{filter:?} {r:?} × {c:?}");
                            assert_eq!(cuts.count(r, c), cuts.count_by_rows(r, c), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// [`move_counts`] with [`Cuts::count_by_rows`]: the pricing before the
    /// arithmetic count.
    fn move_counts_by_rows(src: &Layout, dst: &Layout, filter: Filter) -> Vec<CostCounters> {
        coll::bruck_counts(src.ranks, |emit| {
            for s in 0..src.ranks {
                let mut runs = Vec::new();
                let Some(piece) = src.sending_piece(s) else {
                    continue;
                };
                let cuts = Cuts::new(src, piece, dst, filter, &mut runs);
                for (rows, cols) in cuts.pairs() {
                    let count = cuts.count_by_rows(rows, cols);
                    for d in dst.holders(rows[0].other, cols[0].other) {
                        if count > 0 {
                            emit(s, d, count);
                        }
                    }
                }
            }
        })
    }

    #[test]
    fn a_diagonal_block_move_at_1024_ranks_prices_as_the_row_by_row_count_does() {
        // A 32 × 32 cyclic grid's diagonal blocks of 48 (not dividing
        // n = 1 008) onto blocks of 48 each cut over a 2 × 2 sub-grid, and
        // back onto a stacked layout: the inverter's two moves.
        let (p, q, n, n0) = (1024, 32, 1008, 48);
        let cyclic = Layout::cyclic_over(q, q, n, n);
        let (nblocks, side) = (n.div_ceil(n0), 2);
        let blocks = Axis::new(n, n0, nblocks, side);
        let sub_grids = Layout::new(
            p,
            blocks,
            blocks,
            Holders::block_diagonal(side, (side, 4), 1),
        );
        let stacked = Layout::new(
            p,
            Axis::cyclic(n, q),
            Axis::new(n, n0, 1, 8).stacked(),
            Holders::strides(q, 1),
        );
        let filter = Filter::DiagBlocksLower(n0);
        for (src, dst) in [(&cyclic, &sub_grids), (&sub_grids, &stacked)] {
            let counts = move_counts(src, dst, filter);
            assert!(counts.iter().any(|c| c.words_sent > 0));
            assert_eq!(counts, move_counts_by_rows(src, dst, filter));
        }
    }

    #[test]
    fn placements_compare_by_where_they_put_indices() {
        let n = 9;
        let one = [
            Axis::cyclic(n, 1),
            Axis::whole(n),
            Axis::slabs(n, 1),
            Axis::new(n, 3, 1, 1),
        ];
        for a in one {
            for b in one {
                assert!(a.same_placement(&b), "{a:?} vs {b:?}");
            }
        }
        // Blocks of one stride class: cyclic over the block classes.
        assert!(Axis::new(n, 2, 3, 2).same_placement(&Axis::cyclic(n, 6)));
        assert!(!Axis::cyclic(n, 3).same_placement(&Axis::slabs(n, 3)));
        assert!(!Axis::cyclic(n, 3).same_placement(&Axis::cyclic(n, 3).reversed()));
        assert!(!Axis::cyclic(n, 3).same_placement(&Axis::cyclic(n, 4)));
        // A single index reversed is itself.
        assert!(Axis::cyclic(1, 3).same_placement(&Axis::cyclic(1, 3).reversed()));
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
        // Neither end moves left as the row grows: the walk never returns
        // to a column run it has left behind.
        for filter in [Filter::All, Filter::Lower, Filter::DiagBlocksLower(3)] {
            for i in 1..12 {
                let (above, here) = (filter.cols(i - 1, 8), filter.cols(i, 8));
                assert!(above.start <= here.start && above.end <= here.end);
            }
        }
    }

    #[test]
    fn every_diagonal_entry_has_one_slot_under_every_relabelling() {
        let grid = Holders::strides(3, 1);
        let cyclic = Layout::new(6, Axis::cyclic(7, 2), Axis::cyclic(5, 3), grid);
        let relabelled = [
            cyclic.reversed_rows(),
            cyclic.reversed(),
            cyclic.transposed(),
        ];
        for layout in relabelled.into_iter().chain([cyclic]) {
            let (rows, cols) = layout.dims();
            let mut found = Vec::new();
            for rank in 0..6 {
                let (rc, cc) = layout.piece_of(rank).unwrap();
                for (li, lj) in layout.diagonal(rank) {
                    let i = (0..rows).find(|&i| layout.rows.place(i) == (rc, li));
                    let i = i.expect("a row of the piece");
                    assert_eq!(layout.cols.place(i), (cc, lj), "{layout:?}");
                    found.push(i);
                }
            }
            found.sort_unstable();
            assert_eq!(found, (0..rows.min(cols)).collect::<Vec<_>>(), "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "holds two pieces")]
    fn a_rank_cannot_hold_two_pieces() {
        Layout::new(
            2,
            Axis::cyclic(4, 2),
            Axis::whole(4),
            Holders::strides(0, 0),
        );
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
                let by_rows = Holders::strides(1, 0);
                let wrong_ranks = Layout::new(2, Axis::cyclic(8, 2), Axis::whole(8), by_rows);
                let all = Filter::All;
                let no_blocks = Filter::DiagBlocksLower(0);
                let dst = Layout::new(4, Axis::cyclic(8, 4), Axis::whole(8), by_rows);
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
                let cyclic = Holders::strides(2, 1);
                let same = Layout::new(4, Axis::cyclic(6, 2), Axis::cyclic(6, 2), cyclic);
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
        let by_rows = Holders::strides(1, 0);
        let cyclic = |holders| Layout::new(4, Axis::cyclic(6, 2), Axis::whole(6), holders);
        let single = cyclic(by_rows);
        assert!(single.same_placement(&single));
        // Replicas other than the sender still have to be sent their copy.
        let replicated = cyclic(by_rows.replicated(2, 2));
        assert!(!replicated.same_placement(&replicated));
        let slabs = Layout::new(4, Axis::slabs(6, 2), Axis::whole(6), by_rows);
        assert!(!single.same_placement(&slabs));
        // The same pieces, held by other ranks.
        let moved = cyclic(by_rows.offset(1));
        assert!(!single.same_placement(&moved));
    }

    #[test]
    fn formulas_compare_as_maps_not_as_spellings() {
        let (rows, cols) = (Axis::cyclic(12, 6), Axis::cyclic(12, 4));
        let layout = |holders| Layout::new(48, rows, cols, holders);
        let grid = layout(Holders::strides(4, 1));
        let same = [
            // Split rows whose digits recombine, at any modulus.
            Holders::split((2, 4, 8), (1, 0, 1)),
            Holders::split((3, 4, 12), (4, 1, 99)),
            Holders::split((6, 4, 7), (1, 5, 1)),
            // A tie every piece meets.
            Holders::block_diagonal(6, (4, 3), 1),
            Holders::strides(4, 1).replicated(1, 5),
        ];
        for holders in same {
            assert!(grid.same_placement(&layout(holders)), "{holders:?}");
        }
        let other = [
            Holders::split((2, 4, 12), (1, 0, 1)),
            Holders::split((1, 0, 4), (2, 1, 24)),
            Holders::block_diagonal(4, (4, 16), 1),
            Holders::strides(4, 1).offset(1),
        ];
        for holders in other {
            assert!(!grid.same_placement(&layout(holders)), "{holders:?}");
        }
        // Two ties of one modulus but for the digits' spelling.
        let tied = |holders| Layout::new(16, Axis::cyclic(8, 4), Axis::cyclic(8, 4), holders);
        let sub_grids = tied(Holders::block_diagonal(2, (2, 4), 1));
        assert!(sub_grids.same_placement(&tied(Holders::block_diagonal(2, (2, 4), 1))));
        assert!(!sub_grids.same_placement(&tied(Holders::block_diagonal(2, (2, 8), 1))));
        assert!(sub_grids.same_placement(&sub_grids.transposed().transposed()));
    }

    #[test]
    fn every_holder_of_a_tied_or_transposed_map_reads_its_piece_back() {
        let (rows, cols) = (Axis::cyclic(9, 6), Axis::cyclic(9, 4));
        let maps = [
            Layout::new(
                30,
                rows,
                cols,
                Holders::block_diagonal(2, (3, 9), 1).offset(2),
            ),
            Layout::new(96, rows, cols, Holders::split((3, 16, 1), (2, 4, 48))),
            Layout::new(48, rows, cols, Holders::strides(1, 12).replicated(2, 6)),
        ];
        for layout in maps.into_iter().flat_map(|l| [l, l.transposed()]) {
            let (r, c) = (layout.rows.classes(), layout.cols.classes());
            let mut held = vec![None; layout.ranks];
            for (rc, cc) in (0..r).flat_map(|rc| (0..c).map(move |cc| (rc, cc))) {
                for h in layout.holders(rc, cc) {
                    assert_eq!(held[h].replace((rc, cc)), None, "{layout:?}: rank {h}");
                }
            }
            let got: Vec<_> = (0..layout.ranks).map(|h| layout.piece_of(h)).collect();
            assert_eq!(got, held, "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "held by rank 8 of 8")]
    fn a_formula_stays_below_the_ranks() {
        Layout::new(
            8,
            Axis::cyclic(4, 2),
            Axis::cyclic(4, 2),
            Holders::strides(2, 1).offset(5),
        );
    }
}
