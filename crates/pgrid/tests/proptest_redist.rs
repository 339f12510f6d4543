//! Property tests of the key-free redistribution: for random shapes, cuts
//! (every closed form the library builds: cyclic, reversed, slabs, the
//! inverter's round-robin block rows, the sub-grid blocks and the
//! non-injective stacked block columns), holders (rectangular grids,
//! replicated destinations, source pieces nobody sends) and filters, every
//! rank must end up with exactly what "gather to the global matrix,
//! re-slice" gives — and the words put on the wire must be the values moved
//! plus the documented per-block header.  `Layout::same_placement` is held
//! to a per-index comparison of the same cuts.

use dense::Matrix;
use pgrid::redist::{move_counts, redistribute, redistribute_into, Axis, Filter, Layout};
use pgrid::Grid3D;
use proptest::prelude::*;
use simnet::coll::BRUCK_BLOCK_HEADER;
use simnet::{CostCounters, Machine, MachineParams};

/// Entries of `into` no redistribution may write.
const UNTOUCHED: f64 = -7.0;

/// Tiny deterministic generator so one proptest seed fans out into a layout.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }
}

/// One way of cutting an axis, as plain functions the reference can evaluate.
#[derive(Clone, Copy, Debug)]
enum Cut {
    Cyclic(usize),
    ReversedCyclic(usize),
    /// `c` slabs of `⌈len / c⌉`, the last one short (or empty).
    Slabs(usize),
    /// Blocks of `block` dealt round-robin over `c` classes, each class's
    /// blocks one after the other: the inverter's block rows.
    RoundRobin {
        c: usize,
        block: usize,
    },
    /// `blocks` blocks of `⌈len / blocks⌉`, each cut cyclically over its own
    /// `side` classes: the sub-grid route of the inverter (`side` need not
    /// divide the block).
    SubGrid {
        blocks: usize,
        side: usize,
    },
    /// Column `g` of its diagonal block of size `block` in class `g mod c`,
    /// at `(g mod block) / c` (`c` divides `block`): the stacked layout of
    /// the diagonal inverter.  Not injective, so only a column cut under
    /// `Filter::DiagBlocksLower(block)`.
    Stacked {
        c: usize,
        block: usize,
    },
    /// Blocks of `block` dealt round-robin over `c` classes, every block of
    /// a class at the same local positions: the inverter's block columns.
    /// Not injective either.
    RoundRobinStacked {
        c: usize,
        block: usize,
    },
}

impl Cut {
    /// Up to 12 classes; `stack` names the diagonal block size a column cut
    /// may be stacked by.
    fn random(rng: &mut Lcg, stack: Option<usize>) -> Cut {
        let classes = 1 + rng.below(8);
        match (rng.below(6), stack) {
            (0, _) => Cut::Cyclic(classes),
            (1, _) => Cut::ReversedCyclic(classes),
            (2, Some(block)) if rng.below(2) == 0 => {
                let divisors: Vec<usize> = (1..=block.min(8))
                    .filter(|c| block.is_multiple_of(*c))
                    .collect();
                let c = divisors[rng.below(divisors.len())];
                Cut::Stacked { c, block }
            }
            (2, Some(block)) => Cut::RoundRobinStacked { c: classes, block },
            (3, _) => Cut::RoundRobin {
                c: classes,
                block: 1 + rng.below(5),
            },
            (4, _) => Cut::SubGrid {
                blocks: 1 + rng.below(4),
                side: 1 + rng.below(3),
            },
            _ => Cut::Slabs(classes),
        }
    }

    fn classes(self) -> usize {
        match self {
            Cut::Cyclic(c)
            | Cut::ReversedCyclic(c)
            | Cut::Slabs(c)
            | Cut::RoundRobin { c, .. }
            | Cut::Stacked { c, .. }
            | Cut::RoundRobinStacked { c, .. } => c,
            Cut::SubGrid { blocks, side } => blocks * side,
        }
    }

    /// `(class, local position)` of global index `g` out of `len`.
    fn place(self, len: usize, g: usize) -> (usize, usize) {
        match self {
            Cut::Cyclic(c) => (g % c, g / c),
            Cut::ReversedCyclic(c) => ((len - 1 - g) % c, (len - 1 - g) / c),
            Cut::Slabs(c) => {
                let width = len.div_ceil(c).max(1);
                (g / width, g % width)
            }
            Cut::RoundRobin { c, block } => {
                let b = g / block;
                (b % c, b / c * block + g % block)
            }
            Cut::SubGrid { blocks, side } => {
                let block = len.div_ceil(blocks).max(1);
                let (b, o) = (g / block, g % block);
                (b * side + o % side, o / side)
            }
            Cut::Stacked { c, block } => (g % c, (g % block) / c),
            Cut::RoundRobinStacked { c, block } => (g / block % c, g % block),
        }
    }

    /// The same cut through the library's constructors.
    fn axis(self, len: usize) -> Axis {
        match self {
            Cut::Cyclic(c) => Axis::cyclic(len, c),
            Cut::ReversedCyclic(c) => Axis::cyclic(len, c).reversed(),
            Cut::Slabs(c) => Axis::new(len, len.div_ceil(c).max(1), c, 1),
            Cut::RoundRobin { c, block } => Axis::new(len, block, c, 1),
            Cut::SubGrid { blocks, side } => {
                Axis::new(len, len.div_ceil(blocks).max(1), blocks, side)
            }
            Cut::Stacked { c, block } => Axis::new(len, block, 1, c).stacked(),
            Cut::RoundRobinStacked { c, block } => Axis::new(len, block, c, 1).stacked(),
        }
    }
}

/// A layout the test can evaluate without going through [`Layout`].
#[derive(Clone, Debug)]
struct Spec {
    rows: Cut,
    cols: Cut,
    /// Holders of piece `(rc, cc)` at `rc * cols.classes() + cc`.
    holders: Vec<Vec<usize>>,
}

impl Spec {
    /// Random cuts, the columns possibly stacked when `filter` keeps only
    /// diagonal blocks; each piece gets 0, 1 or (when `replicate`) 2 of the
    /// ranks not yet holding anything, so some pieces end up unheld.
    fn random(rng: &mut Lcg, p: usize, replicate: bool, filter: Filter) -> Spec {
        let stack = match filter {
            Filter::DiagBlocksLower(block) => Some(block),
            _ => None,
        };
        let (rows, cols) = (Cut::random(rng, None), Cut::random(rng, stack));
        let mut free: Vec<usize> = (0..p).collect();
        for i in (1..p).rev() {
            free.swap(i, rng.below(i + 1));
        }
        let holders = (0..rows.classes() * cols.classes())
            .map(|_| {
                let want = match rng.below(8) {
                    0 => 0,
                    1 if replicate => 2,
                    _ => 1,
                };
                (0..want).filter_map(|_| free.pop()).collect()
            })
            .collect();
        Spec {
            rows,
            cols,
            holders,
        }
    }

    /// The cyclic layout of a `pr × pc` grid occupying ranks `0 .. pr·pc`.
    fn grid(pr: usize, pc: usize) -> Spec {
        Spec {
            rows: Cut::Cyclic(pr),
            cols: Cut::Cyclic(pc),
            holders: (0..pr * pc).map(|r| vec![r]).collect(),
        }
    }

    fn holders(&self, rc: usize, cc: usize) -> &[usize] {
        &self.holders[rc * self.cols.classes() + cc]
    }

    fn layout(&self, p: usize, m: usize, n: usize) -> Layout {
        Layout::new(p, self.rows.axis(m), self.cols.axis(n), |rc, cc| {
            self.holders(rc, cc).to_vec()
        })
    }
}

fn passes(filter: Filter, i: usize, j: usize) -> bool {
    match filter {
        Filter::All => true,
        Filter::Lower => j <= i,
        Filter::DiagBlocksLower(n0) => j <= i && i / n0 == j / n0,
    }
}

fn entry(i: usize, j: usize) -> f64 {
    (i * 1000 + j) as f64
}

/// One redistribution problem and its reference answer.
#[derive(Clone)]
struct Case {
    p: usize,
    m: usize,
    n: usize,
    src: Spec,
    dst: Spec,
    filter: Filter,
}

impl Case {
    /// What `rank` stores under `spec` of the entries that pass the filter
    /// (a stacked slot holds several entries, of which the filter passes
    /// one), every other slot set to `hole`.
    fn local(&self, spec: &Spec, layout: &Layout, rank: usize, hole: f64) -> Matrix {
        let (lr, lc) = layout.local_dims(rank);
        let mut local = Matrix::filled(lr, lc, hole);
        for i in 0..self.m {
            for j in (0..self.n).filter(|&j| passes(self.filter, i, j)) {
                let ((rc, li), (cc, lj)) = (spec.rows.place(self.m, i), spec.cols.place(self.n, j));
                if spec.holders(rc, cc).contains(&rank) {
                    local[(li, lj)] = entry(i, j);
                }
            }
        }
        local
    }

    /// `moved[s][d]`: how many values travel from rank `s` to rank `d`.
    fn traffic(&self) -> Vec<Vec<usize>> {
        let mut moved = vec![vec![0usize; self.p]; self.p];
        self.for_each_move(|s, d, _, _| moved[s][d] += 1);
        moved
    }

    /// Calls `f(sender, receiver, i, j)` for every value that moves.
    fn for_each_move(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        for i in 0..self.m {
            for j in 0..self.n {
                if !passes(self.filter, i, j) {
                    continue;
                }
                let src_piece = (
                    self.src.rows.place(self.m, i).0,
                    self.src.cols.place(self.n, j).0,
                );
                let dst_piece = (
                    self.dst.rows.place(self.m, i).0,
                    self.dst.cols.place(self.n, j).0,
                );
                let Some(&s) = self.src.holders(src_piece.0, src_piece.1).first() else {
                    continue;
                };
                for &d in self.dst.holders(dst_piece.0, dst_piece.1) {
                    f(s, d, i, j);
                }
            }
        }
    }

    /// The reference: every destination local matrix, starting from
    /// [`UNTOUCHED`] and receiving exactly the values that move.
    fn expected(&self, dst_layout: &Layout) -> Vec<Matrix> {
        let mut locals: Vec<Matrix> = (0..self.p)
            .map(|r| {
                let (lr, lc) = dst_layout.local_dims(r);
                Matrix::filled(lr, lc, UNTOUCHED)
            })
            .collect();
        self.for_each_move(|_, d, i, j| {
            let (li, lj) = (
                self.dst.rows.place(self.m, i).1,
                self.dst.cols.place(self.n, j).1,
            );
            locals[d][(li, lj)] = entry(i, j);
        });
        locals
    }

    /// Run the redistribution on `p` ranks; returns each rank's `into`, and
    /// the machine's cost report.
    fn run(&self) -> (Vec<Matrix>, simnet::CostReport) {
        let (src, dst) = (
            self.src.layout(self.p, self.m, self.n),
            self.dst.layout(self.p, self.m, self.n),
        );
        let out = Machine::new(self.p, MachineParams::unit())
            .run(|comm| {
                let me = comm.rank();
                // Non-sending holders carry NaN: proof they are never read.
                let sends = (0..self.src.holders.len())
                    .any(|piece| self.src.holders[piece].first() == Some(&me));
                let from = if sends {
                    // Slots the filter keeps out hold NaN: never read either.
                    self.local(&self.src, &src, me, f64::NAN)
                } else {
                    let (lr, lc) = src.local_dims(me);
                    Matrix::filled(lr, lc, f64::NAN)
                };
                let (lr, lc) = dst.local_dims(me);
                let mut into = Matrix::filled(lr, lc, UNTOUCHED);
                redistribute_into(comm, &src, &from, &dst, &mut into, self.filter).unwrap();
                into
            })
            .unwrap();
        (out.results, out.report)
    }
}

fn filter_from(selector: usize, n0: usize) -> Filter {
    match selector % 3 {
        0 => Filter::All,
        1 => Filter::Lower,
        _ => Filter::DiagBlocksLower(n0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Element for element, the redistribution delivers what the reference
    /// re-slicing of the global matrix gives, and leaves the rest alone.
    #[test]
    fn matches_gather_and_reslice(
        seed in any::<u64>(),
        p in 1usize..9,
        m in 0usize..41,
        n in 0usize..41,
        selector in 0usize..3,
        n0 in 1usize..9,
    ) {
        let mut rng = Lcg(seed);
        let filter = filter_from(selector, n0);
        let case = Case {
            p,
            m,
            n,
            src: Spec::random(&mut rng, p, false, filter),
            dst: Spec::random(&mut rng, p, true, filter),
            filter,
        };
        let expected = case.expected(&case.dst.layout(p, m, n));
        prop_assert_eq!(&case.run().0, &expected);
    }

    /// Between two rectangular grids over the same ranks — what the
    /// algorithms do — including grids with more processors than indices.
    #[test]
    fn regrids_between_rectangular_grids(
        shape in 0usize..6,
        m in 0usize..20,
        n in 0usize..20,
        selector in 0usize..3,
        n0 in 1usize..6,
    ) {
        let grids = [(1, 6), (2, 3), (3, 2), (6, 1), (2, 2), (1, 1)];
        let (from, to) = (grids[shape], grids[(shape + 1 + selector) % grids.len()]);
        let case = Case {
            p: 6,
            m,
            n,
            src: Spec::grid(from.0, from.1),
            dst: Spec::grid(to.0, to.1),
            filter: filter_from(selector, n0),
        };
        let expected = case.expected(&case.dst.layout(6, m, n));
        prop_assert_eq!(&case.run().0, &expected);
    }

    /// The wire carries the values that change rank and nothing else: each
    /// block once per set bit of its hop distance, plus one count word per
    /// round and one header per forwarded block.  A redistribution onto the
    /// layout the data is already in costs nothing at all.  `move_counts`
    /// prices every rank's share without running the move.
    #[test]
    fn words_on_the_wire_are_values_plus_headers(
        seed in any::<u64>(),
        p in 1usize..9,
        m in 0usize..41,
        n in 0usize..41,
        selector in 0usize..3,
        onto_itself in 0usize..4,
    ) {
        let mut rng = Lcg(seed);
        let filter = filter_from(selector, 4);
        let src = Spec::random(&mut rng, p, false, filter);
        let dst = if onto_itself == 0 {
            src.clone()
        } else {
            Spec::random(&mut rng, p, true, filter)
        };
        let case = Case { p, m, n, src, dst, filter };
        let same = case.src.layout(p, m, n).same_placement(&case.dst.layout(p, m, n));
        prop_assert!(same || onto_itself != 0);
        let moved = case.traffic();
        let off_rank: usize = (0..p)
            .flat_map(|s| (0..p).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| moved[s][d])
            .sum();

        let (_, bruck) = case.run();
        // The walk's price of the move is what every rank was charged.
        let counts = move_counts(&case.src.layout(p, m, n), &case.dst.layout(p, m, n), filter);
        for (rank, charged) in bruck.per_rank.iter().enumerate() {
            let traffic = |c: &CostCounters| (c.msgs_sent, c.msgs_recv, c.words_sent, c.words_recv);
            prop_assert_eq!(traffic(charged), traffic(&counts[rank]));
        }
        if same || p == 1 {
            prop_assert_eq!(off_rank, 0);
            for rank in &bruck.per_rank {
                prop_assert_eq!((rank.msgs_sent, rank.words_sent), (0, 0));
                prop_assert_eq!((rank.msgs_recv, rank.words_recv), (0, 0));
            }
        } else {
            let rounds = p.next_power_of_two().trailing_zeros() as usize;
            let mut words = p * rounds; // one count word per message
            for (s, row) in moved.iter().enumerate() {
                for (d, &values) in row.iter().enumerate() {
                    if values > 0 {
                        let hops = ((d + p - s) % p).count_ones() as usize;
                        words += hops * (BRUCK_BLOCK_HEADER + values);
                    }
                }
            }
            prop_assert_eq!(bruck.total_words() as usize, words);
            prop_assert_eq!(bruck.total_messages() as usize, p * rounds);
        }
    }
}

/// The face route of `It-Inv-TRSM` with `p2 = 1`: the destination is the
/// caller's own cyclic layout spelled through a 3D grid.  Every rank must see
/// that from the layouts (so the caller can use its operand where it lies),
/// and a redistribution between the two stays silent while still honouring
/// the filter — while the same route onto a *different* grid communicates.
#[test]
fn provably_identical_placement_is_seen_by_every_rank_and_sends_nothing() {
    let (q, n) = (4usize, 32usize);
    let run = |caller: (usize, usize)| {
        Machine::new(q * q, MachineParams::unit())
            .run(move |comm| {
                let src = Spec::grid(caller.0, caller.1).layout(q * q, n, n);
                let grid3d = Grid3D::new(comm, q, q, 1).unwrap();
                let face = Layout::new(q * q, Axis::cyclic(n, q), Axis::cyclic(n, q), |x, y| {
                    Some(grid3d.rank_of(x, y, 0))
                });
                let (lr, lc) = src.local_dims(comm.rank());
                let from = Matrix::filled(lr, lc, comm.rank() as f64);
                let got = redistribute(comm, &src, &from, &face, Filter::Lower).unwrap();
                (src.same_placement(&face), got)
            })
            .unwrap()
    };
    let same = run((q, q));
    for (rank, (verdict, got)) in same.results.iter().enumerate() {
        assert!(verdict);
        // Local (n/q − 1, 0) is below the diagonal, (0, n/q − 1) above it.
        assert_eq!(got[(n / q - 1, 0)], rank as f64);
        assert_eq!(got[(0, n / q - 1)], 0.0);
    }
    for rank in &same.report.per_rank {
        assert_eq!((rank.msgs_sent, rank.words_sent), (0, 0));
        assert_eq!((rank.msgs_recv, rank.words_recv), (0, 0));
    }
    let other = run((2, 8));
    assert!(other.results.iter().all(|(verdict, _)| !verdict));
    assert!(other.report.total_words() > 0);
}

/// `Layout::same_placement` is the per-index comparison: for every pair of
/// cuts on small shapes, two layouts are one placement exactly when the cuts
/// have as many classes and put every index in the same class at the same
/// local position — `cyclic(n, 1)`, `whole(n)` and `slabs(n, 1)` among them,
/// whichever constructor built the axis — and the pieces have the same
/// single holders, as on It-Inv's face route.
#[test]
fn same_placement_is_the_per_index_comparison() {
    for len in 0..=12usize {
        let mut cuts = vec![(Axis::whole(len), Cut::Cyclic(1))];
        for parts in (1..=4).filter(|&parts| len.is_multiple_of(parts)) {
            cuts.push((Axis::slabs(len, parts), Cut::Slabs(parts)));
        }
        for c in 1..=4 {
            cuts.extend(
                [Cut::Cyclic(c), Cut::ReversedCyclic(c), Cut::Slabs(c)]
                    .map(|cut| (cut.axis(len), cut)),
            );
            for block in 1..=4 {
                let mut more = vec![
                    Cut::RoundRobin { c, block },
                    Cut::RoundRobinStacked { c, block },
                    Cut::SubGrid {
                        blocks: c,
                        side: block,
                    },
                ];
                if block.is_multiple_of(c) {
                    more.push(Cut::Stacked { c, block });
                }
                cuts.extend(more.into_iter().map(|cut| (cut.axis(len), cut)));
            }
        }
        for (a, cut_a) in &cuts {
            assert_eq!(a.classes(), cut_a.classes(), "{cut_a:?}");
            for (b, cut_b) in &cuts {
                let per_index = cut_a.classes() == cut_b.classes()
                    && (0..len).all(|g| cut_a.place(len, g) == cut_b.place(len, g));
                let ranks = cut_a.classes().max(cut_b.classes());
                let as_rows =
                    |axis: Axis| Layout::new(ranks, axis, Axis::whole(3), |rc, _| Some(rc));
                let as_cols =
                    |axis: Axis| Layout::new(ranks, Axis::whole(3), axis, |_, cc| Some(cc));
                let what = format!("{cut_a:?} vs {cut_b:?} over {len}");
                assert_eq!(
                    as_rows(*a).same_placement(&as_rows(*b)),
                    per_index,
                    "rows: {what}"
                );
                assert_eq!(
                    as_cols(*a).same_placement(&as_cols(*b)),
                    per_index,
                    "columns: {what}"
                );
            }
        }
    }
    // It-Inv's face route: the caller's q × q cyclic layout against the face
    // of a q × q × p2 grid, whose rank (x, y, 0) is (x·q + y)·p2 — the same
    // holders, so the same placement, only at p2 = 1.
    let (q, n) = (3, 7);
    for p2 in 1..=3 {
        let p = q * q * p2;
        let caller = Layout::new(p, Axis::cyclic(n, q), Axis::cyclic(n, q), |x, y| {
            Some(x * q + y)
        });
        let face = Layout::new(p, Axis::cyclic(n, q), Axis::cyclic(n, q), |x, y| {
            Some((x * q + y) * p2)
        });
        assert_eq!(caller.same_placement(&face), p2 == 1, "p2 = {p2}");
    }
}
