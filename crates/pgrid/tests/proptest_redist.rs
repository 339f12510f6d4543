//! Property tests of the key-free redistribution: for random shapes, cuts
//! (every closed form the library builds: cyclic, reversed, slabs, the
//! inverter's round-robin block rows, the sub-grid blocks and the
//! non-injective stacked block columns), holder formulas (random strides,
//! bases, replication and block-diagonal ties, so some ranks hold nothing
//! and some source pieces nobody sends, and the executors' own maps as
//! fixed cases) and filters, every rank must end up with exactly what
//! "gather to the global matrix, re-slice" gives — and the words put on the
//! wire must be the values moved plus the documented per-block header.
//! `Layout::piece_of` must give every holder its piece and every other rank
//! none, and `Layout::same_placement` is held to a per-index comparison of
//! the cuts and a per-piece comparison of the holders.

use dense::Matrix;
use pgrid::redist::{move_counts, redistribute, redistribute_into, Axis, Filter, Holders, Layout};
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

/// A holder formula as plain parameters, which the reference evaluates
/// itself: piece `(rc, cc)` on rank `base + (rc mod m_r)·a + (rc div m_r)·b
/// + (cc mod m_c)·c + (cc div m_c)·d`, and on `count − 1` replicas above it.
#[derive(Clone, Copy, Debug)]
struct Formula {
    base: usize,
    /// `(m, a, b)` of the rows and `(m, c, d)` of the columns.
    rows: (usize, usize, usize),
    cols: (usize, usize, usize),
    /// `(count, stride)`: replica `y` on the sender's rank plus `y·stride`.
    replicas: (usize, usize),
    /// Only pieces with `rc div m = cc div m` are held (`m` the two axes'
    /// modulus), and `cc div m` adds nothing.
    tied: bool,
}

impl Formula {
    /// Piece `(rc, cc)` on rank `rc·row + cc·col` alone.
    fn strides(row: usize, col: usize) -> Formula {
        Formula {
            base: 0,
            rows: (1, 0, row),
            cols: (1, 0, col),
            replicas: (1, 0),
            tied: false,
        }
    }

    /// The holders of piece `(rc, cc)`, its sender first.
    fn holders(&self, rc: usize, cc: usize) -> Vec<usize> {
        let ((mr, a, b), (mc, c, d)) = (self.rows, self.cols);
        if self.tied && rc / mr != cc / mc {
            return Vec::new();
        }
        let group = if self.tied { 0 } else { cc / mc * d };
        let first = self.base + rc % mr * a + rc / mr * b + cc % mc * c + group;
        (0..self.replicas.0)
            .map(|y| first + y * self.replicas.1)
            .collect()
    }

    /// `(radix, stride)` of each digit over `r × c` classes: `rc mod m_r`,
    /// `rc div m_r`, `cc mod m_c`, `cc div m_c` (radix 1 when tied) and the
    /// replica.
    fn digits(&self, r: usize, c: usize) -> [(usize, usize); 5] {
        let ((mr, a, b), (mc, cs, d)) = (self.rows, self.cols);
        let tied = if self.tied { 1 } else { c.div_ceil(mc) };
        [
            (mr.min(r), a),
            (r.div_ceil(mr), b),
            (mc.min(c), cs),
            (tied, d),
            self.replicas,
        ]
    }

    /// The rank every digit at its largest value gives.
    fn top(&self, r: usize, c: usize) -> usize {
        let digits = self.digits(r, c).into_iter();
        self.base
            + digits
                .map(|(radix, stride)| (radix - 1) * stride)
                .sum::<usize>()
    }

    /// The same formula through the library's constructors.
    fn holders_map(&self) -> Holders {
        let ((m, a, b), (_, c, _)) = (self.rows, self.cols);
        let map = match self.tied {
            true => Holders::block_diagonal(m, (a, b), c),
            false => Holders::split(self.rows, self.cols),
        };
        map.offset(self.base)
            .replicated(self.replicas.0, self.replicas.1)
    }

    /// A random formula over `r × c` classes: random moduli, a tie a
    /// quarter of the time, up to three replicas when `replicate`, and the
    /// digits in a random order, each stride the span of those below it —
    /// doubled a quarter of the time, leaving ranks that hold nothing.  A
    /// digit that only reads 0 gets a random stride.
    fn random(rng: &mut Lcg, r: usize, c: usize, replicate: bool) -> Formula {
        let tied = rng.below(4) == 0;
        let mr = 1 + rng.below(r + 1);
        let mc = if tied { mr } else { 1 + rng.below(c + 1) };
        let count = if replicate { 1 + rng.below(3) } else { 1 };
        let mut f = Formula {
            base: rng.below(3),
            rows: (mr, 0, 0),
            cols: (mc, 0, 0),
            replicas: (count, 0),
            tied,
        };
        let digits = f.digits(r, c);
        let mut order = [0, 1, 2, 3, 4];
        for i in (1..5).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let (mut strides, mut span) = ([0; 5], 1);
        for d in order {
            if digits[d].0 == 1 {
                strides[d] = rng.below(4);
                continue;
            }
            strides[d] = span * (1 + usize::from(rng.below(4) == 0));
            span = strides[d] * digits[d].0;
        }
        f.rows = (mr, strides[0], strides[1]);
        f.cols = (mc, strides[2], if tied { 0 } else { strides[3] });
        f.replicas = (count, strides[4]);
        f
    }

    /// The same map spelled otherwise: an axis that is `class·s` split at
    /// another modulus (1, a divisor of its classes, or past them) into
    /// `(m, s, m·s)`, a tie that every piece meets dropped or added, and
    /// the digits that only read 0 given other strides.
    fn respelled(&self, rng: &mut Lcg, r: usize, c: usize) -> Formula {
        let linear = |(m, a, b): (usize, usize, usize), n: usize| match () {
            _ if n <= 1 => Some(0),
            _ if m == 1 => Some(b),
            _ if m >= n => Some(a),
            _ => (b == m * a).then_some(a),
        };
        let mut split = |axis, s: Option<usize>, n: usize| {
            let Some(s) = s else {
                return axis;
            };
            let moduli: Vec<usize> = (1..=n + 1)
                .filter(|&m| m >= n || n.is_multiple_of(m))
                .collect();
            let m = moduli[rng.below(moduli.len())];
            (m, s, m * s)
        };
        let mut f = *self;
        let (sr, sc) = (linear(f.rows, r), linear(f.cols, c));
        if !f.tied || f.rows.0 >= r.max(c) {
            (f.rows, f.cols, f.tied) = (split(f.rows, sr, r), split(f.cols, sc, c), false);
            if let (Some(sr), Some(sc), 0) = (sr, sc, rng.below(3)) {
                // A tie at a modulus past every class: rc div m = cc div m = 0.
                let m = r.max(c) + rng.below(2);
                (f.rows, f.cols, f.tied) = ((m, sr, 0), (m, sc, 0), true);
            }
        }
        let digits = f.digits(r, c);
        let strides = [
            &mut f.rows.1,
            &mut f.rows.2,
            &mut f.cols.1,
            &mut f.cols.2,
            &mut f.replicas.1,
        ];
        for (stride, (radix, _)) in strides.into_iter().zip(digits) {
            if radix == 1 {
                *stride = rng.below(5);
            }
        }
        f
    }
}

/// A layout the test can evaluate without going through [`Layout`].
#[derive(Clone, Debug)]
struct Spec {
    rows: Cut,
    cols: Cut,
    formula: Formula,
}

impl Spec {
    /// Random cuts, the columns possibly stacked when `filter` keeps only
    /// diagonal blocks, and a random formula over their classes that
    /// reaches fewer than 48 ranks.
    fn random(rng: &mut Lcg, replicate: bool, filter: Filter) -> Spec {
        let stack = match filter {
            Filter::DiagBlocksLower(block) => Some(block),
            _ => None,
        };
        loop {
            let (rows, cols) = (Cut::random(rng, None), Cut::random(rng, stack));
            let (r, c) = (rows.classes(), cols.classes());
            let formula = Formula::random(rng, r, c, replicate);
            if formula.top(r, c) < 48 {
                return Spec {
                    rows,
                    cols,
                    formula,
                };
            }
        }
    }

    /// The cyclic layout of a `pr × pc` grid occupying ranks `0 .. pr·pc`.
    fn grid(pr: usize, pc: usize) -> Spec {
        Spec {
            rows: Cut::Cyclic(pr),
            cols: Cut::Cyclic(pc),
            formula: Formula::strides(pc, 1),
        }
    }

    fn pieces(&self) -> impl Iterator<Item = (usize, usize)> {
        let c = self.cols.classes();
        (0..self.rows.classes()).flat_map(move |rc| (0..c).map(move |cc| (rc, cc)))
    }

    fn holders(&self, rc: usize, cc: usize) -> Vec<usize> {
        self.formula.holders(rc, cc)
    }

    /// One past the largest rank the formula reaches.
    fn ranks(&self) -> usize {
        1 + self.formula.top(self.rows.classes(), self.cols.classes())
    }

    /// True when `rank` sends a piece.
    fn sends(&self, rank: usize) -> bool {
        self.pieces()
            .any(|(rc, cc)| self.holders(rc, cc).first() == Some(&rank))
    }

    fn layout(&self, p: usize, m: usize, n: usize) -> Layout {
        let (rows, cols) = (self.rows.axis(m), self.cols.axis(n));
        Layout::new(p, rows, cols, self.formula.holders_map())
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
                for d in self.dst.holders(dst_piece.0, dst_piece.1) {
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
                let from = if self.src.sends(me) {
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

impl Case {
    /// A case on the fewest ranks both formulas fit in, plus `slack`.
    fn new(m: usize, n: usize, src: Spec, dst: Spec, filter: Filter, slack: usize) -> Case {
        let p = src.ranks().max(dst.ranks()) + slack;
        Case {
            p,
            m,
            n,
            src,
            dst,
            filter,
        }
    }

    fn layouts(&self) -> (Layout, Layout) {
        let (p, m, n) = (self.p, self.m, self.n);
        (self.src.layout(p, m, n), self.dst.layout(p, m, n))
    }

    /// What every rank was charged against what [`move_counts`] prices.
    fn charged_and_priced(&self, report: &simnet::CostReport) -> Vec<[(u64, u64, u64, u64); 2]> {
        let (src, dst) = self.layouts();
        let counts = move_counts(&src, &dst, self.filter);
        let traffic = |c: &CostCounters| (c.msgs_sent, c.msgs_recv, c.words_sent, c.words_recv);
        let charged = report.per_rank.iter().map(traffic);
        charged
            .zip(counts.iter().map(traffic))
            .map(|(a, b)| [a, b])
            .collect()
    }
}

/// Every holder of every piece reads its piece back from its rank, and
/// every other rank — up to two past the layout's — holds nothing.
fn read_back(spec: &Spec, p: usize) -> Result<(), String> {
    let layout = spec.layout(p, 7, 5);
    let mut held = vec![None; p + 2];
    for (rc, cc) in spec.pieces() {
        for h in spec.holders(rc, cc) {
            if held[h].replace((rc, cc)).is_some() {
                return Err(format!("{spec:?}: rank {h} holds two pieces"));
            }
        }
    }
    let got: Vec<_> = (0..p + 2).map(|rank| layout.piece_of(rank)).collect();
    match got == held {
        true => Ok(()),
        false => Err(format!(
            "{spec:?} on {p} ranks: read {got:?}, held {held:?}"
        )),
    }
}

/// Per index and per piece: two specs place every entry alike when their
/// cuts have as many classes and put every index in the same class at the
/// same local position, and every piece has the same single holder.
fn same_per_piece(a: &Spec, b: &Spec, m: usize, n: usize) -> bool {
    let cut = |x: Cut, y: Cut, len: usize| {
        x.classes() == y.classes() && (0..len).all(|g| x.place(len, g) == y.place(len, g))
    };
    cut(a.rows, b.rows, m)
        && cut(a.cols, b.cols, n)
        && a.pieces().all(|(rc, cc)| {
            let holders = a.holders(rc, cc);
            holders.len() <= 1 && holders == b.holders(rc, cc)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Element for element, the redistribution delivers what the reference
    /// re-slicing of the global matrix gives, and leaves the rest alone.
    #[test]
    fn matches_gather_and_reslice(
        seed in any::<u64>(),
        slack in 0usize..3,
        m in 0usize..41,
        n in 0usize..41,
        selector in 0usize..3,
        n0 in 1usize..9,
    ) {
        let mut rng = Lcg(seed);
        let filter = filter_from(selector, n0);
        let src = Spec::random(&mut rng, false, filter);
        let dst = Spec::random(&mut rng, true, filter);
        let case = Case::new(m, n, src, dst, filter, slack);
        let expected = case.expected(&case.layouts().1);
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
        let expected = case.expected(&case.layouts().1);
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
        slack in 0usize..3,
        m in 0usize..41,
        n in 0usize..41,
        selector in 0usize..3,
        onto_itself in 0usize..4,
    ) {
        let mut rng = Lcg(seed);
        let filter = filter_from(selector, 4);
        let src = Spec::random(&mut rng, false, filter);
        let dst = if onto_itself == 0 {
            src.clone()
        } else {
            Spec::random(&mut rng, true, filter)
        };
        let case = Case::new(m, n, src, dst, filter, slack);
        let p = case.p;
        let (src, dst) = case.layouts();
        let same = src.same_placement(&dst);
        prop_assert!(same || onto_itself != 0);
        let moved = case.traffic();
        let off_rank: usize = (0..p)
            .flat_map(|s| (0..p).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| moved[s][d])
            .sum();

        let (_, bruck) = case.run();
        // The walk's price of the move is what every rank was charged.
        for [charged, priced] in case.charged_and_priced(&bruck) {
            prop_assert_eq!(charged, priced);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `Layout::piece_of` inverts the formula: every holder of a piece
    /// reads that piece, and every other rank reads none.
    #[test]
    fn every_rank_reads_back_the_piece_the_formula_gives_it(
        seed in any::<u64>(),
        slack in 0usize..3,
    ) {
        let mut rng = Lcg(seed);
        let spec = Spec::random(&mut rng, true, Filter::All);
        prop_assert_eq!(read_back(&spec, spec.ranks() + slack), Ok(()));
    }

    /// `Layout::same_placement` is the per-piece comparison of the two
    /// formulas, on independent pairs, on a formula and a respelling of
    /// it, and on a respelling moved up one rank or given a replica.
    #[test]
    fn same_placement_is_the_per_piece_comparison(
        seed in any::<u64>(),
        pair in 0usize..4,
        m in 0usize..13,
        n in 0usize..13,
    ) {
        let mut rng = Lcg(seed);
        let a = Spec::random(&mut rng, pair == 0, Filter::All);
        let (r, c) = (a.rows.classes(), a.cols.classes());
        let respelled = Spec { formula: a.formula.respelled(&mut rng, r, c), ..a.clone() };
        let b = match pair {
            0 => Spec::random(&mut rng, true, Filter::All),
            1 => respelled,
            2 => Spec {
                formula: Formula { base: respelled.formula.base + 1, ..respelled.formula },
                ..respelled
            },
            _ => Spec {
                // Twice the ranks is past the span of every digit.
                formula: Formula { replicas: (2, 2 * respelled.ranks()), ..respelled.formula },
                ..respelled
            },
        };
        let p = a.ranks().max(b.ranks());
        let verdict = a.layout(p, m, n).same_placement(&b.layout(p, m, n));
        prop_assert_eq!(verdict, same_per_piece(&a, &b, m, n), "{:?} vs {:?}", a, b);
    }
}

/// The executors' own maps, each between the layouts its operand moves
/// between, at small sizes: It-Inv-TRSM on a 2 × 2 × 2 grid (`L` onto the
/// face, `B` onto the replicated slabs, `X` back), its swapped copy of the
/// inverted blocks, the diagonal inverter's round robin and sub-grids and
/// its stacked output, the 3D product's strided chunks, the recursive
/// inversion's quadrants and the 1D layouts of the recursive and wavefront
/// solves.
fn executor_cases() -> Vec<Case> {
    let spec = |rows, cols, formula| Spec {
        rows,
        cols,
        formula,
    };
    let strides = Formula::strides;
    let (lower, all) = (Filter::Lower, Filter::All);
    let face = spec(Cut::Cyclic(2), Cut::Cyclic(2), strides(4, 2));
    let slab = Formula {
        replicas: (2, 2),
        ..strides(4, 1)
    };
    let slab = spec(Cut::Cyclic(2), Cut::Slabs(2), slab);
    let solution = spec(Cut::Cyclic(2), Cut::Slabs(2), strides(2, 1));
    let stacked = |q, n0| {
        spec(
            Cut::Cyclic(q),
            Cut::Stacked { c: q, block: n0 },
            strides(q, 1),
        )
    };
    let swapped = spec(
        Cut::Cyclic(2),
        Cut::Stacked { c: 2, block: 6 },
        strides(1, 2),
    );
    let round_robin = spec(
        Cut::RoundRobin { c: 4, block: 6 },
        Cut::RoundRobinStacked { c: 4, block: 6 },
        Formula {
            tied: true,
            ..strides(1, 0)
        },
    );
    let sub_grid = Cut::SubGrid { blocks: 2, side: 2 };
    let sub_grids = Formula {
        rows: (2, 2, 8),
        cols: (2, 1, 0),
        tied: true,
        ..strides(0, 0)
    };
    let sub_grids = spec(sub_grid, sub_grid, sub_grids);
    let strided = |rows| {
        let holders = Formula {
            rows,
            cols: (2, 2, 8),
            ..strides(0, 0)
        };
        spec(Cut::Cyclic(4), Cut::Slabs(4), holders)
    };
    let quadrant = |base| {
        let holders = Formula {
            base,
            ..strides(4, 1)
        };
        spec(Cut::Cyclic(2), Cut::Cyclic(2), holders)
    };
    let by_columns = spec(Cut::Cyclic(1), Cut::Cyclic(4), strides(0, 1));
    let by_rows = spec(Cut::Cyclic(4), Cut::Cyclic(1), strides(1, 0));
    let blocks = |n0| Filter::DiagBlocksLower(n0);
    let case = |p, m, n, src: &Spec, dst: &Spec, filter| Case {
        p,
        m,
        n,
        src: src.clone(),
        dst: dst.clone(),
        filter,
    };
    let (grid8, grid4, grid16) = (Spec::grid(2, 4), Spec::grid(2, 2), Spec::grid(4, 4));
    vec![
        case(8, 24, 24, &grid8, &face, lower),
        case(8, 24, 8, &grid8, &slab, all),
        case(8, 24, 8, &solution, &grid8, all),
        case(4, 24, 24, &stacked(2, 6), &swapped, blocks(6)),
        case(4, 24, 24, &grid4, &round_robin, blocks(6)),
        case(4, 24, 24, &round_robin, &stacked(2, 6), blocks(6)),
        case(16, 24, 24, &grid16, &sub_grids, blocks(12)),
        case(16, 24, 24, &sub_grids, &stacked(4, 12), blocks(12)),
        case(16, 24, 8, &grid16, &strided((2, 1, 4)), all),
        case(16, 24, 8, &strided((2, 4, 1)), &grid16, all),
        case(16, 12, 12, &grid16, &quadrant(10), all),
        case(16, 12, 12, &quadrant(0), &grid16, all),
        case(4, 24, 8, &grid4, &by_columns, all),
        case(4, 24, 8, &by_rows, &grid4, all),
    ]
}

#[test]
fn the_executors_maps_move_and_price_exactly() {
    for case in executor_cases() {
        let what = format!("{:?} → {:?}", case.src, case.dst);
        assert_eq!(read_back(&case.src, case.p), Ok(()));
        assert_eq!(read_back(&case.dst, case.p), Ok(()));
        let (got, report) = case.run();
        assert_eq!(got, case.expected(&case.layouts().1), "{what}");
        assert!(report.total_words() > 0, "{what}");
        for [charged, priced] in case.charged_and_priced(&report) {
            assert_eq!(charged, priced, "{what}");
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
                // Rank (x, y, 0) of a q × q × 1 grid is x·q + y.
                let cyclic = Axis::cyclic(n, q);
                let face = Layout::new(q * q, cyclic, cyclic, Holders::strides(q, 1));
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
                let by_rows = Holders::strides(1, 0);
                let by_cols = Holders::strides(0, 1);
                let as_rows = |axis: Axis| Layout::new(ranks, axis, Axis::whole(3), by_rows);
                let as_cols = |axis: Axis| Layout::new(ranks, Axis::whole(3), axis, by_cols);
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
    let cyclic = Axis::cyclic(n, q);
    for p2 in 1..=3 {
        let p = q * q * p2;
        let caller = Layout::new(p, cyclic, cyclic, Holders::strides(q, 1));
        let face = Layout::new(p, cyclic, cyclic, Holders::strides(q * p2, p2));
        assert_eq!(caller.same_placement(&face), p2 == 1, "p2 = {p2}");
    }
}
