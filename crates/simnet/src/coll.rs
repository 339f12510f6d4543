//! Collective communication operations (Section II-C1 of the paper).
//!
//! The paper builds every algorithm out of a small set of collectives and
//! quotes their α–β–γ costs for butterfly / recursive-doubling schedules
//! (Chan et al., Thakur et al., Bruck et al.):
//!
//! | collective      | cost                                              |
//! |-----------------|---------------------------------------------------|
//! | allgather       | `α·log p + β·n·(p−1)/p`                           |
//! | scatter, gather | `α·log p + β·n·(p−1)/p`                           |
//! | reduce-scatter  | `α·log p + (β+γ)·n·(p−1)/p`                       |
//! | all-to-all      | `α·log p + β·(n/2)·log p`                         |
//! | reduce / allreduce | `2α·log p + 2β·n + γ·n` (reduce-scatter + (all)gather) |
//! | broadcast       | `2α·log p + 2β·n` (scatter + allgather)           |
//!
//! Each collective is charged the rounds of its schedule — a Bruck
//! allgather, a recursive-halving reduce-scatter, binomial scatter, gather
//! and reduce trees, a dissemination barrier, a Bruck or pairwise
//! all-to-all(-v) — so the *measured* message/word counters reproduce the
//! formulas (exactly for power-of-two communicator sizes and divisible
//! vector lengths, which is what the paper assumes; other sizes fall back to
//! correct but slightly more expensive schedules).
//!
//! **One meeting per call.**  The host does not perform those rounds as
//! messages between ranks.  The members of a call meet once, on the
//! run's board (`Communicator::meet`):
//!
//! 1. *Deposit.*  Each member leaves its entry clock, its input and the
//!    fault draws of the sends the schedule gives it, drawn from its own
//!    injector in schedule order — the draws a message-passing schedule
//!    would have made.
//! 2. *Close.*  The last member to deposit wakes the others, one uncharged
//!    envelope each; a member waits for its wake in the ordinary blocking
//!    receive, so the hand-off to another rank, the failure cascade and
//!    deadlock detection apply unchanged.
//! 3. *Replay.*  Each member replays the schedule's rounds over every
//!    member's deposited clock and fault draws, charging them with the
//!    point-to-point charge code, and applies its own outcome: counters,
//!    virtual clock and sim-lane events are those the messages would have
//!    produced, bit for bit.
//! 4. *Collect.*  Each member builds its own result from the deposits,
//!    folding a reduction in its schedule's tree and operand order, so the
//!    result bits are the messages' too.  The allreduce's result is the
//!    same on every member: the closer folds it once, before the wakes, and
//!    the others copy it.
//!
//! A member parks at most once per call, where the messages parked it up to
//! once per round; a member alone in its communicator never parks nor
//! touches the board, and its schedule, with no rounds, charges nothing.
//! Every argument is checked on the closed board, so a
//! call that one member gets wrong fails with the same error on every
//! member instead of leaving the others waiting.  A member that fails
//! before it deposits — a crash or an exhausted retry budget among its
//! draws — fails the call for every member through the failure cascade.
//!
//! Results are built from the machine's pool
//! ([`Communicator::take_buffer`]); a caller done with one may give it back.
//! The all-to-all-v calls hand each destination the very blocks its sources
//! passed in, without a copy.

use crate::board::{Closed, Closing, Deposit};
use crate::comm::Communicator;
use crate::cost::CostCounters;
use crate::error::SimError;
use crate::fault::SendFaults;
use crate::params::MachineParams;
use crate::Result;
use std::ops::Range;
use std::sync::Arc;

/// Reduction operator applied element-wise by the reducing collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// `mine[i] = mine[i] ∘ theirs[i]`: the holder's partial first, the
    /// partial it receives second, as in every fold of the schedules.
    fn fold(self, mine: &mut [f64], theirs: &[f64]) {
        for (a, b) in mine.iter_mut().zip(theirs) {
            *a = self.apply(*a, *b);
        }
    }
}

/// Dissemination barrier: `⌈log₂ p⌉` zero-payload exchanges.
pub fn barrier(comm: &Communicator) -> Result<()> {
    let phases = [Phase::Dissemination];
    Call::meet(comm, &phases, Deposit::default())?.charge(comm, &phases);
    Ok(())
}

/// Bruck allgather of equal-sized blocks.
///
/// Every rank contributes `local`; the result is the concatenation of all
/// contributions in rank order (identical on every rank).  All contributions
/// must have the same length.
pub fn allgather(comm: &Communicator, local: &[f64]) -> Result<Vec<f64>> {
    let phases = [Phase::Allgather { blk: local.len() }];
    let call = Call::meet(comm, &phases, deposit(comm, local, [0, 0]))?;
    let blk = call.same_len("allgather")?;
    call.charge(comm, &phases);
    let mut out = comm.take_buffer(comm.size() * blk);
    for d in call.deposits() {
        out.extend_from_slice(&d.data);
    }
    Ok(out)
}

/// Allgather of variable-sized blocks; returns one vector per rank.  Charged
/// as a fixed-size allgather of the lengths followed by a Bruck allgather of
/// every contribution padded to the longest.
pub fn allgatherv(comm: &Communicator, local: &[f64]) -> Result<Vec<Vec<f64>>> {
    let schedule = |longest| {
        [
            Phase::Allgather { blk: 1 },
            Phase::Allgather { blk: longest },
        ]
    };
    let call = Call::meet(comm, &schedule(local.len()), deposit(comm, local, [0, 0]))?;
    let longest = call.deposits().iter().map(|d| d.data.len()).max();
    call.charge(comm, &schedule(longest.unwrap_or(0)));
    Ok(call
        .deposits()
        .iter()
        .map(|d| {
            let mut piece = comm.take_buffer(d.data.len());
            piece.extend_from_slice(&d.data);
            piece
        })
        .collect())
}

/// Binomial-tree gather of equal-sized blocks to `root`.
///
/// Returns `Some(concatenation in rank order)` on the root and `None`
/// elsewhere.
pub fn gather(comm: &Communicator, root: usize, local: &[f64]) -> Result<Option<Vec<f64>>> {
    let p = comm.size();
    let schedule = [Phase::Gather {
        root,
        blk: local.len(),
    }];
    let phases = if root < p { &schedule[..] } else { &[] };
    let call = Call::meet(comm, phases, deposit(comm, local, [root, 0]))?;
    call.same_root("gather", root)?;
    let blk = call.same_len("gather")?;
    call.charge(comm, phases);
    if comm.rank() != root {
        return Ok(None);
    }
    let mut out = comm.take_buffer(p * blk);
    for d in call.deposits() {
        out.extend_from_slice(&d.data);
    }
    Ok(Some(out))
}

/// Binomial-tree scatter of equal-sized blocks from `root`.
///
/// On the root, `data` must contain `p` blocks of `block` words each in rank
/// order; elsewhere `data` is ignored.  Every rank returns its own block.
pub fn scatter(comm: &Communicator, root: usize, data: &[f64], block: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    let schedule = [Phase::Scatter { root, blk: block }];
    let phases = if root < p { &schedule[..] } else { &[] };
    let mine = if comm.rank() == root { data } else { &[] };
    let call = Call::meet(comm, phases, deposit(comm, mine, [root, block]))?;
    call.same_root("scatter", root)?;
    let held = call.root_words("scatter", root, p * block)?;
    call.charge(comm, phases);
    let me = comm.rank();
    let mut out = comm.take_buffer(block);
    out.extend_from_slice(&held[me * block..(me + 1) * block]);
    Ok(out)
}

/// Recursive-halving reduce-scatter.
///
/// Every rank contributes a vector of `p × block` words; rank `r` returns the
/// element-wise reduction of block `r` over all contributions.  For
/// non-power-of-two communicators a (correct, slightly costlier)
/// reduce-then-scatter fallback is used.
pub fn reduce_scatter(comm: &Communicator, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
    let p = comm.size();
    let blk = data.len() / p;
    let halving = [Phase::Halving { blk }];
    let fallback = [
        Phase::Reduce {
            root: 0,
            len: data.len(),
        },
        Phase::Scatter { root: 0, blk },
    ];
    let phases = if p.is_power_of_two() {
        &halving[..]
    } else {
        &fallback[..]
    };
    let call = Call::meet(comm, phases, deposit(comm, data, [0, 0]))?;
    let len = call.same_len("reduce_scatter")?;
    if !len.is_multiple_of(p) {
        return Err(bad(
            "reduce_scatter",
            format!("buffer length {len} not divisible by p = {p}"),
        ));
    }
    call.charge(comm, phases);
    let me = comm.rank();
    let mut out = zeros(comm, blk);
    let mut tree = Tree::new(comm, op, call.deposits(), blk);
    if p.is_power_of_two() {
        tree.halving(me * blk..(me + 1) * blk, me, &mut out);
    } else {
        tree.binomial(me * blk..(me + 1) * blk, 0, &mut out);
    }
    Ok(out)
}

/// Binomial-tree reduction to `root`: returns `Some(reduced vector)` on the
/// root and `None` elsewhere.
pub fn reduce(
    comm: &Communicator,
    root: usize,
    data: &[f64],
    op: ReduceOp,
) -> Result<Option<Vec<f64>>> {
    let p = comm.size();
    let schedule = [Phase::Reduce {
        root,
        len: data.len(),
    }];
    let phases = if root < p { &schedule[..] } else { &[] };
    let call = Call::meet(comm, phases, deposit(comm, data, [root, 0]))?;
    call.same_root("reduce", root)?;
    let len = call.same_len("reduce")?;
    call.charge(comm, phases);
    if comm.rank() != root {
        return Ok(None);
    }
    let mut out = zeros(comm, len);
    Tree::new(comm, op, call.deposits(), len).binomial(0..len, root, &mut out);
    Ok(Some(out))
}

/// Allreduce implemented as reduce-scatter followed by allgather
/// (cost `2α·log p + 2β·n + γ·n`), padding internally when the length is not
/// divisible by `p`.
pub fn allreduce(comm: &Communicator, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
    let p = comm.size();
    let len = data.len();
    let blk = len.div_ceil(p);
    let halving = [Phase::Halving { blk }, Phase::Allgather { blk }];
    let fallback = [
        Phase::Reduce {
            root: 0,
            len: blk * p,
        },
        Phase::Scatter { root: 0, blk },
        Phase::Allgather { blk },
    ];
    let phases = if p.is_power_of_two() {
        &halving[..]
    } else {
        &fallback[..]
    };
    // The closer folds once for every member.  Every block is the one its
    // owner reduced; the padding of the last block is never looked at.
    // Unequal lengths fold nothing and fail below, on every member.
    let fold = |inputs: &[Deposit]| {
        if inputs.iter().any(|d| d.data.len() != len) {
            return Vec::new();
        }
        let mut out = zeros(comm, len);
        if p.is_power_of_two() {
            let mut tree = Tree::new(comm, op, inputs, blk);
            for (b, piece) in out.chunks_mut(blk.max(1)).enumerate() {
                tree.halving(b * blk..b * blk + piece.len(), b, piece);
            }
        } else {
            Tree::new(comm, op, inputs, len).binomial(0..len, 0, &mut out);
        }
        out
    };
    let call = Call::meet_sharing(comm, phases, deposit(comm, data, [0, 0]), fold)?;
    call.same_len("allreduce")?;
    call.charge(comm, phases);
    let mut out = comm.take_buffer(len);
    out.extend_from_slice(call.shared());
    Ok(out)
}

/// Broadcast implemented as scatter followed by allgather
/// (cost `2α·log p + 2β·n`).  `data` is only read on the root; every rank
/// must pass the same `len`.
pub fn bcast(comm: &Communicator, root: usize, data: &[f64], len: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    let schedule = bcast_phases(p, root, len);
    let phases = if root < p { &schedule[..] } else { &[] };
    let mine = if comm.rank() == root { data } else { &[] };
    let call = Call::meet(comm, phases, deposit(comm, mine, [root, len]))?;
    call.same_root("bcast", root)?;
    let held = call.root_words("bcast", root, len)?;
    call.charge(comm, phases);
    let mut out = comm.take_buffer(len);
    out.extend_from_slice(held);
    Ok(out)
}

/// A [`bcast`]'s schedule: a scatter of `⌈len/p⌉`-word blocks, then their
/// allgather.
fn bcast_phases(p: usize, root: usize, len: usize) -> [Phase; 2] {
    let blk = len.div_ceil(p);
    [Phase::Scatter { root, blk }, Phase::Allgather { blk }]
}

/// The messages and words member `me` of `p` sends and receives in a
/// [`bcast`] of `len` words from `root < p`, as the call charges them.
/// Member `me` from root `t` is charged what `(me − t) mod p` is from 0.
pub fn bcast_counts(p: usize, root: usize, len: usize, me: usize) -> CostCounters {
    counts(&bcast_phases(p, root, len), p, me, &[])
}

/// Bruck all-to-all of equal-sized blocks.
///
/// `data` holds `p` blocks of `block` words; block `j` is delivered to rank
/// `j`.  The result holds `p` blocks where block `i` came from rank `i`.
/// Cost `α·⌈log p⌉ + β·(n/2)·⌈log p⌉` with `n = p·block`.
pub fn alltoall(comm: &Communicator, data: &[f64], block: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    let phases = [Phase::Alltoall { blk: block }];
    let call = Call::meet(comm, &phases, deposit(comm, data, [block, 0]))?;
    call.same_args("alltoall")?;
    if let Some(d) = call.deposits().iter().find(|d| d.data.len() != p * block) {
        let reason = format!("buffer has {} words, expected {}", d.data.len(), p * block);
        return Err(bad("alltoall", reason));
    }
    call.charge(comm, &phases);
    let mine = comm.rank() * block..(comm.rank() + 1) * block;
    let mut out = comm.take_buffer(p * block);
    for d in call.deposits() {
        out.extend_from_slice(&d.data[mine.clone()]);
    }
    Ok(out)
}

/// Personalised all-to-all with per-destination payloads of arbitrary length,
/// charged as `p − 1` direct pairwise exchanges (latency `O(p)`, bandwidth
/// optimal).  `blocks[j]` goes to rank `j` (moved, not copied); the result
/// is indexed by source rank.
pub fn alltoallv_direct(comm: &Communicator, blocks: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> {
    alltoallv(comm, blocks, Phase::Pairwise, "alltoallv_direct")
}

/// Header words [`alltoallv_bruck`] puts in front of every block it forwards
/// (final destination, original source, length).
pub const BRUCK_BLOCK_HEADER: usize = 3;

/// Personalised all-to-all charged as a Bruck-style store-and-forward
/// network: `⌈log₂ p⌉` rounds, each word travels at most `⌈log₂ p⌉` hops.
///
/// This is the schedule the paper charges for its layout transposes:
/// `O(α·log p + β·(total volume / p)·log p)` per processor.  `blocks[j]` goes
/// to rank `j` (moved, not copied); the result is indexed by source rank.
///
/// Each round's message is `[count, (dest, src, len, payload…)*]`: one count
/// word, plus a [`BRUCK_BLOCK_HEADER`]-word header per forwarded block.  A
/// block from `s` to `d` is forwarded once per set bit of `(d − s) mod p`;
/// empty blocks are not forwarded at all.
pub fn alltoallv_bruck(comm: &Communicator, blocks: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> {
    alltoallv(comm, blocks, Phase::BruckV, "alltoallv_bruck")
}

/// The messages and words each of `p` members sends and receives in an
/// [`alltoallv_bruck`] of the `(dest, words)` blocks `blocks(src)`, as the
/// call charges them, in `O((p + Σ blocks)·log p)`.
pub fn bruck_counts<I: IntoIterator<Item = (usize, usize)>>(
    p: usize,
    blocks: impl Fn(usize) -> I,
) -> Vec<CostCounters> {
    let table = bruck_words(p, blocks);
    (0..p)
        .map(|me| counts(&[Phase::BruckV], p, me, &table))
        .collect()
}

/// An all-to-all-v charged as `phase`: the blocks travel by regrouping on
/// the board, and a member's block to itself never leaves it.
fn alltoallv(
    comm: &Communicator,
    mut blocks: Vec<Vec<f64>>,
    phase: Phase,
    op: &'static str,
) -> Result<Vec<Vec<f64>>> {
    let (p, me) = (comm.size(), comm.rank());
    let count = blocks.len();
    let own = if count == p {
        std::mem::take(&mut blocks[me])
    } else {
        Vec::new()
    };
    let contribution = Deposit {
        blocks,
        args: [count, 0],
        ..Deposit::default()
    };
    let mut call = Call::meet(comm, &[phase], contribution)?;
    if let Some(d) = call.deposits().iter().find(|d| d.args[0] != p) {
        let reason = format!("expected {p} destination blocks, got {}", d.args[0]);
        return Err(bad(op, reason));
    }
    call.charge(comm, &[phase]);
    let mut out = std::mem::take(&mut call.column);
    out[me] = own;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The modelled schedules
// ---------------------------------------------------------------------------

/// One stage of a collective's modelled schedule.  A call is a short list
/// of phases (a broadcast is a scatter then an allgather); each runs
/// [`Phase::rounds`] rounds, and in each round a member sends at most one
/// message and then receives at most one ([`Phase::step`]).
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Dissemination barrier: in round `t`, send to `r + 2ᵗ`, receive from
    /// `r − 2ᵗ`, no words.
    Dissemination,
    /// Bruck allgather of `blk`-word blocks: in round `t`, send the
    /// `min(2ᵗ, p − 2ᵗ)` blocks held so far to `r − 2ᵗ`, receive as many
    /// from `r + 2ᵗ`.
    Allgather { blk: usize },
    /// Binomial gather of `blk`-word blocks to `root`: in round `t`, a
    /// member whose relative rank has lowest set bit `2ᵗ` sends what its
    /// subtree collected to `rel − 2ᵗ`.
    Gather { root: usize, blk: usize },
    /// Binomial scatter of `blk`-word blocks from `root`: the member at the
    /// bottom of each relative range sends the upper half of the range's
    /// blocks (rounded down) to the half's first member.
    Scatter { root: usize, blk: usize },
    /// Recursive-halving reduce-scatter of `blk`-word blocks (`p` a power of
    /// two): in round `t`, exchange half of the blocks still held with
    /// `r ⊕ p/2ᵗ⁺¹` and fold the received half.
    Halving { blk: usize },
    /// Binomial reduction of `len` words to `root`: the gather's tree, every
    /// message `len` words, folded on receipt.
    Reduce { root: usize, len: usize },
    /// Bruck all-to-all of `blk`-word blocks: in round `t`, send the blocks
    /// whose slot has bit `2ᵗ` set to `r + 2ᵗ`.
    Alltoall { blk: usize },
    /// Pairwise all-to-all-v: in round `t`, send to `r + t + 1` and receive
    /// from `r − t − 1`; sizes from the closer's table.
    Pairwise,
    /// Bruck all-to-all-v: the all-to-all's rounds, each message a count
    /// word plus a header and the words of every forwarded block; sizes
    /// from the closer's table.
    BruckV,
}

/// What one member does in one round: send to `to`, then receive from
/// `from` (local ranks).
#[derive(Debug, Default)]
struct Step {
    to: Option<usize>,
    from: Option<usize>,
}

impl Phase {
    fn rounds(self, p: usize) -> usize {
        match self {
            Phase::Pairwise => p - 1,
            _ => levels(p),
        }
    }

    /// Member `me`'s step in `round`.  Only the logarithmic phases shift by
    /// `round`: the pairwise one runs `p − 1` rounds.
    fn step(self, p: usize, me: usize, round: usize) -> Step {
        match self {
            Phase::Dissemination | Phase::Alltoall { .. } | Phase::BruckV => Step {
                to: Some((me + (1 << round)) % p),
                from: Some((me + p - (1 << round)) % p),
            },
            Phase::Allgather { .. } => Step {
                to: Some((me + p - (1 << round)) % p),
                from: Some((me + (1 << round)) % p),
            },
            Phase::Pairwise => Step {
                to: Some((me + round + 1) % p),
                from: Some((me + p - round - 1) % p),
            },
            Phase::Halving { .. } => {
                let partner = me ^ (p >> (round + 1));
                Step {
                    to: Some(partner),
                    from: Some(partner),
                }
            }
            Phase::Gather { root, .. } | Phase::Reduce { root, .. } => {
                let d = 1 << round;
                let rel = (me + p - root) % p;
                let abs = |rel: usize| (rel + root) % p;
                match rel & (2 * d - 1) {
                    0 => Step {
                        to: None,
                        from: (rel + d < p).then(|| abs(rel + d)),
                    },
                    low if low == d => Step {
                        to: Some(abs(rel - d)),
                        from: None,
                    },
                    _ => Step::default(),
                }
            }
            Phase::Scatter { root, .. } => {
                let rel = (me + p - root) % p;
                match scatter_split(p, rel, round) {
                    Some((lo, mid, _)) if rel == lo => Step {
                        to: Some((mid + root) % p),
                        from: None,
                    },
                    Some((lo, mid, _)) if rel == mid => Step {
                        to: None,
                        from: Some((lo + root) % p),
                    },
                    _ => Step::default(),
                }
            }
        }
    }

    /// Member `me`'s send in `round`, `(to, words)`; `table` as for
    /// [`Phase::words`].
    fn send(self, p: usize, me: usize, round: usize, table: &[usize]) -> Option<(usize, usize)> {
        let to = self.step(p, me, round).to?;
        Some((to, self.words(p, me, round, table)))
    }

    /// Member `me`'s receive in `round`, `(from, words)`.
    fn recv(self, p: usize, me: usize, round: usize, table: &[usize]) -> Option<(usize, usize)> {
        let from = self.step(p, me, round).from?;
        Some((from, self.words(p, from, round, table)))
    }

    /// Words of the message `sender` sends in `round`.  `table` is the
    /// closer's table for the all-to-all-v phases (a missing entry reads 0).
    fn words(self, p: usize, sender: usize, round: usize, table: &[usize]) -> usize {
        match self {
            Phase::Dissemination => 0,
            Phase::Allgather { blk } => (1 << round).min(p - (1 << round)) * blk,
            Phase::Gather { root, blk } => {
                let rel = (sender + p - root) % p;
                ((rel + (1 << round)).min(p) - rel) * blk
            }
            Phase::Scatter { root, blk } => {
                let rel = (sender + p - root) % p;
                scatter_split(p, rel, round).map_or(0, |(_, mid, hi)| (hi - mid) * blk)
            }
            Phase::Halving { blk } => (p >> (round + 1)) * blk,
            Phase::Reduce { len, .. } => len,
            Phase::Alltoall { blk } => (0..p).filter(|j| j & (1 << round) != 0).count() * blk,
            Phase::Pairwise | Phase::BruckV => table
                .get(sender * self.rounds(p) + round)
                .copied()
                .unwrap_or(0),
        }
    }

    /// Whether a receive is folded into the receiver's partial, one flop a
    /// word.
    fn folds(self) -> bool {
        matches!(self, Phase::Halving { .. } | Phase::Reduce { .. })
    }
}

/// The binomial scatter's split in `round` of the relative range holding
/// relative member `rel`: `(lo, mid, hi)`, the range `[lo, hi)` whose member
/// `lo` sends blocks `[mid, hi)` to member `mid`, or `None` once `rel`'s
/// range is down to itself.
fn scatter_split(p: usize, rel: usize, round: usize) -> Option<(usize, usize, usize)> {
    let (mut lo, mut hi) = (0, p);
    for _ in 0..round {
        if hi - lo <= 1 {
            return None;
        }
        let mid = lo + (hi - lo).div_ceil(2);
        if rel < mid {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (hi - lo > 1).then(|| (lo, lo + (hi - lo).div_ceil(2), hi))
}

// ---------------------------------------------------------------------------
// The engine: meet, tabulate, replay, fold
// ---------------------------------------------------------------------------

/// One member's view of a closed call.
struct Call {
    closed: Arc<Closed>,
    /// The blocks addressed to this member, by source (all-to-all-v only).
    column: Vec<Vec<f64>>,
}

impl Call {
    /// Meet the other members at a call modelled as `phases`, bringing
    /// `deposit`.  This member draws faults for the sends `phases` give it;
    /// if it closes the call, it tabulates what `phases` need.
    fn meet(comm: &Communicator, phases: &[Phase], deposit: Deposit) -> Result<Call> {
        Call::meet_sharing(comm, phases, deposit, |_| Vec::new())
    }

    /// [`Call::meet`], where the closer also computes `share` of the
    /// deposits once, for every member to read as [`Call::shared`].
    fn meet_sharing(
        comm: &Communicator,
        phases: &[Phase],
        deposit: Deposit,
        share: impl FnOnce(&[Deposit]) -> Vec<f64>,
    ) -> Result<Call> {
        let (p, me) = (comm.size(), comm.rank());
        let sends = phases.iter().flat_map(move |&phase| {
            (0..phase.rounds(p)).filter_map(move |round| phase.send(p, me, round, &[]))
        });
        let (closed, column) = comm.meet(sends, deposit, |deposits| {
            let shared = share(deposits);
            Closing {
                shared,
                ..tabulate(phases, deposits)
            }
        })?;
        Ok(Call { closed, column })
    }

    fn deposits(&self) -> &[Deposit] {
        &self.closed.deposits
    }

    fn shared(&self) -> &[f64] {
        &self.closed.shared
    }

    /// Charge this member the rounds of `phases`, replayed over every
    /// member's deposit.  A schedule without rounds (every schedule on one
    /// member) charges nothing and leaves the clock where it was.
    fn charge(&self, comm: &Communicator, phases: &[Phase]) {
        if phases.iter().all(|phase| phase.rounds(comm.size()) == 0) {
            return;
        }
        let charges = replay(
            phases,
            &self.closed,
            &comm.params(),
            comm.rank(),
            comm.world_rank(),
        );
        comm.apply_charges(&charges);
    }

    /// The scalar arguments, if every member passed the same.
    fn same_args(&self, op: &'static str) -> Result<[usize; 2]> {
        let first = self.deposits()[0].args;
        match self.deposits().iter().position(|d| d.args != first) {
            None => Ok(first),
            Some(r) => {
                let theirs = self.deposits()[r].args;
                let reason = format!("rank {r} passed arguments {theirs:?}, rank 0 {first:?}");
                Err(bad(op, reason))
            }
        }
    }

    /// Check that every member passed the same arguments, naming the same
    /// `root`, and that `root` is a member.
    fn same_root(&self, op: &'static str, root: usize) -> Result<()> {
        self.same_args(op)?;
        let size = self.deposits().len();
        if root >= size {
            return Err(SimError::InvalidRank { rank: root, size });
        }
        Ok(())
    }

    /// The length of the members' words, if every member brought as many.
    fn same_len(&self, op: &'static str) -> Result<usize> {
        let first = self.deposits()[0].data.len();
        match self.deposits().iter().position(|d| d.data.len() != first) {
            None => Ok(first),
            Some(r) => {
                let theirs = self.deposits()[r].data.len();
                let reason = format!("rank {r} contributes {theirs} words, rank 0 {first}");
                Err(bad(op, reason))
            }
        }
    }

    /// The root's words, if it brought `expected` of them.
    fn root_words(&self, op: &'static str, root: usize, expected: usize) -> Result<&[f64]> {
        let held = &self.deposits()[root].data;
        if held.len() != expected {
            let reason = format!("root buffer has {} words, expected {expected}", held.len());
            return Err(bad(op, reason));
        }
        Ok(held)
    }
}

fn bad(op: &'static str, reason: String) -> SimError {
    SimError::BadCollectiveArgs { op, reason }
}

/// A deposit of a pooled copy of `data`, with the call's scalar arguments.
fn deposit(comm: &Communicator, data: &[f64], args: [usize; 2]) -> Deposit {
    let mut copy = comm.take_buffer(data.len());
    copy.extend_from_slice(data);
    Deposit {
        data: copy,
        args,
        ..Deposit::default()
    }
}

/// A pooled buffer of `n` zeros.
fn zeros(comm: &Communicator, n: usize) -> Vec<f64> {
    let mut out = comm.take_buffer(n);
    out.resize(n, 0.0);
    out
}

/// The closer's work for an all-to-all-v: the words of every modelled
/// message, `words[sender · rounds + round]`, and the blocks regrouped by
/// destination.  Nothing for the other calls, or for blocks the board will
/// reject.
fn tabulate(phases: &[Phase], deposits: &mut [Deposit]) -> Closing {
    let p = deposits.len();
    let Some(&phase) = phases
        .iter()
        .find(|phase| matches!(phase, Phase::Pairwise | Phase::BruckV))
    else {
        return Closing::default();
    };
    if deposits.iter().any(|d| d.blocks.len() != p) {
        return Closing::default();
    }
    let len = |src: usize, dest: usize| deposits[src].blocks[dest].len();
    let words = if let Phase::Pairwise = phase {
        // Round t of member src carries its block for src + t + 1.
        let rounds = phase.rounds(p);
        let word = |x: usize| len(x / rounds, (x / rounds + x % rounds + 1) % p);
        (0..p * rounds).map(word).collect()
    } else {
        bruck_words(p, |src| (0..p).map(move |dest| (dest, len(src, dest))))
    };
    let columns = (0..p)
        .map(|dest| {
            deposits
                .iter_mut()
                .map(|d| std::mem::take(&mut d.blocks[dest]))
                .collect()
        })
        .collect();
    Closing {
        words,
        columns,
        ..Closing::default()
    }
}

/// The words of every message of a Bruck all-to-all-v over `p` members,
/// `words[sender · rounds + round]`, where member `src` sends the
/// `(dest, words)` blocks `blocks(src)`.  Each round's message has its count
/// word; a non-empty block rides in it once per set bit of its distance,
/// from the member it has reached by then.
fn bruck_words<I: IntoIterator<Item = (usize, usize)>>(
    p: usize,
    blocks: impl Fn(usize) -> I,
) -> Vec<usize> {
    let rounds = levels(p);
    let mut words = vec![1; p * rounds];
    // `dist` and every holder's offset from `src` are below `p`.
    let wrap = |r: usize| if r >= p { r - p } else { r };
    for src in 0..p {
        for (dest, n) in blocks(src) {
            let dist = wrap(dest + p - src);
            let mut hops = if n > 0 { dist } else { 0 };
            while hops != 0 {
                let d = hops & hops.wrapping_neg();
                let holder = wrap(src + (dist & (d - 1)));
                words[holder * rounds + d.trailing_zeros() as usize] += BRUCK_BLOCK_HEADER + n;
                hops ^= d;
            }
        }
    }
    words
}

/// The messages and words member `me` sends and receives under `phases`:
/// the rounds [`replay`] charges, without their clocks.
fn counts(phases: &[Phase], p: usize, me: usize, table: &[usize]) -> CostCounters {
    let mut c = CostCounters::default();
    for &phase in phases {
        for round in 0..phase.rounds(p) {
            if let Some((_, words)) = phase.send(p, me, round, table) {
                (c.msgs_sent, c.words_sent) = (c.msgs_sent + 1, c.words_sent + words as u64);
            }
            if let Some((_, words)) = phase.recv(p, me, round, table) {
                (c.msgs_recv, c.words_recv) = (c.msgs_recv + 1, c.words_recv + words as u64);
            }
        }
    }
    c
}

/// Replay `phases` over every member's deposited clock and fault draws, and
/// return member `me`'s charges: the counts of its modelled sends, receives
/// and folds, and the clock they leave it at.  Its sim-lane events are
/// recorded on world rank `lane`'s lane.
fn replay(
    phases: &[Phase],
    closed: &Closed,
    params: &MachineParams,
    me: usize,
    lane: usize,
) -> CostCounters {
    /// One member's side of the replay.
    struct Member {
        meter: CostCounters,
        drawn: usize,
        /// When its message of the current round becomes available.
        avail: f64,
    }
    let p = closed.deposits.len();
    let mut members: Vec<Member> = closed
        .deposits
        .iter()
        .map(|d| Member {
            meter: CostCounters {
                time: d.clock,
                ..CostCounters::default()
            },
            drawn: 0,
            avail: 0.0,
        })
        .collect();
    let lane_of = |h: usize| (h == me).then_some(lane);
    for &phase in phases {
        for round in 0..phase.rounds(p) {
            // A round's sends depend only on earlier rounds, so every one of
            // them leaves before any of its receives completes.
            for (h, member) in members.iter_mut().enumerate() {
                let Some((_, words)) = phase.send(p, h, round, &closed.words) else {
                    continue;
                };
                let faults = closed.deposits[h].faults.get(member.drawn);
                member.drawn += 1;
                let faults = faults.copied().unwrap_or_else(SendFaults::none);
                member.avail = member
                    .meter
                    .charge_send(params, words, faults, lane_of(h))
                    .expect("a member whose draws fail never deposits");
            }
            for h in 0..p {
                let Some((from, words)) = phase.recv(p, h, round, &closed.words) else {
                    continue;
                };
                let avail = members[from].avail;
                let meter = &mut members[h].meter;
                meter.charge_recv(words, avail, lane_of(h));
                if phase.folds() {
                    meter.charge_flops(params, words as u64);
                }
            }
        }
    }
    members[me].meter
}

/// The fold trees of the reducing schedules, evaluated over the members'
/// deposited words in the schedules' operand order: each partial a member
/// would have held is its own partial `∘` the one it would have received.
struct Tree<'a> {
    comm: &'a Communicator,
    op: ReduceOp,
    inputs: &'a [Deposit],
    /// Room for one partial per tree level.
    scratch: Vec<f64>,
}

impl<'a> Tree<'a> {
    /// Trees over the members' deposits `inputs`, for ranges of at most `n`
    /// words.
    fn new(comm: &'a Communicator, op: ReduceOp, inputs: &'a [Deposit], n: usize) -> Self {
        let room = levels(inputs.len()) * n;
        let mut scratch = comm.take_buffer(room);
        scratch.resize(room, 0.0);
        Tree {
            comm,
            op,
            inputs,
            scratch,
        }
    }

    /// `out` = block `b`'s reduction over `range` as recursive halving
    /// leaves it on member `b`.
    fn halving(&mut self, range: Range<usize>, b: usize, out: &mut [f64]) {
        let t = levels(self.inputs.len());
        halving(self.op, self.inputs, range, b, t, out, &mut self.scratch);
    }

    /// `out` = the reduction over `range` as the binomial tree leaves it on
    /// `root`.
    fn binomial(&mut self, range: Range<usize>, root: usize, out: &mut [f64]) {
        let t = levels(self.inputs.len());
        binomial(
            self.op,
            self.inputs,
            range,
            root,
            0,
            t,
            out,
            &mut self.scratch,
        );
    }
}

impl Drop for Tree<'_> {
    fn drop(&mut self) {
        self.comm.give_buffer(std::mem::take(&mut self.scratch));
    }
}

/// `⌈log₂ p⌉`: the rounds of the logarithmic schedules.
fn levels(p: usize) -> usize {
    p.next_power_of_two().trailing_zeros() as usize
}

/// `out = T(r, t)` over `range`: the partial of member `r` after `t` rounds
/// of recursive halving, `T(r, t) = T(r, t−1) ∘ T(r ⊕ p/2ᵗ, t−1)` with
/// `T(r, 0)` its own words.
fn halving(
    op: ReduceOp,
    inputs: &[Deposit],
    range: Range<usize>,
    r: usize,
    t: usize,
    out: &mut [f64],
    scratch: &mut [f64],
) {
    if t == 0 {
        out.copy_from_slice(&inputs[r].data[range]);
        return;
    }
    let partner = r ^ (inputs.len() >> t);
    let (theirs, deeper) = scratch.split_at_mut(out.len());
    halving(op, inputs, range.clone(), r, t - 1, out, deeper);
    halving(op, inputs, range, partner, t - 1, theirs, deeper);
    op.fold(out, theirs);
}

/// `out = R(rel, t)` over `range`: the partial of relative member `rel`
/// after `t` rounds of the binomial reduction to `root`,
/// `R(rel, t) = R(rel, t−1) ∘ R(rel + 2ᵗ⁻¹, t−1)` when that member exists,
/// with `R(rel, 0)` its own words.
#[allow(clippy::too_many_arguments)]
fn binomial(
    op: ReduceOp,
    inputs: &[Deposit],
    range: Range<usize>,
    root: usize,
    rel: usize,
    t: usize,
    out: &mut [f64],
    scratch: &mut [f64],
) {
    let p = inputs.len();
    if t == 0 {
        out.copy_from_slice(&inputs[(rel + root) % p].data[range]);
        return;
    }
    let child = rel + (1 << (t - 1));
    if child >= p {
        return binomial(op, inputs, range, root, rel, t - 1, out, scratch);
    }
    let (theirs, deeper) = scratch.split_at_mut(out.len());
    binomial(op, inputs, range.clone(), root, rel, t - 1, out, deeper);
    binomial(op, inputs, range, root, child, t - 1, theirs, deeper);
    op.fold(out, theirs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::params::MachineParams;

    fn run<T: Send>(
        p: usize,
        f: impl Fn(&Communicator) -> T + Send + Sync,
    ) -> (Vec<T>, crate::cost::CostReport) {
        let out = Machine::new(p, MachineParams::unit()).run(f).unwrap();
        (out.results, out.report)
    }

    #[test]
    fn barrier_completes_and_costs_log_p() {
        let (_, report) = run(8, |comm| barrier(comm).unwrap());
        assert_eq!(report.max_messages(), 3);
        assert_eq!(report.max_words(), 0);
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            let (results, _) = run(p, |comm| {
                let local = vec![comm.rank() as f64 * 10.0, comm.rank() as f64 * 10.0 + 1.0];
                allgather(comm, &local).unwrap()
            });
            let expected: Vec<f64> = (0..p)
                .flat_map(|r| vec![r as f64 * 10.0, r as f64 * 10.0 + 1.0])
                .collect();
            for r in results {
                assert_eq!(r, expected, "p = {p}");
            }
        }
    }

    #[test]
    fn allgather_cost_matches_formula_for_power_of_two() {
        // n total words = p * blk; cost: log p messages, blk*(p-1) words.
        let p = 16;
        let blk = 32;
        let (_, report) = run(p, move |comm| {
            let local = vec![comm.rank() as f64; blk];
            allgather(comm, &local).unwrap()
        });
        assert_eq!(report.max_messages(), 4);
        assert_eq!(report.max_words(), (blk * (p - 1)) as u64);
    }

    #[test]
    fn allgatherv_supports_ragged_blocks() {
        let (results, _) = run(5, |comm| {
            let local = vec![comm.rank() as f64; comm.rank() + 1];
            allgatherv(comm, &local).unwrap()
        });
        for r in results {
            for (rank, blockv) in r.iter().enumerate() {
                assert_eq!(blockv.len(), rank + 1);
                assert!(blockv.iter().all(|&v| v == rank as f64));
            }
        }
    }

    #[test]
    fn gather_collects_only_at_root() {
        for p in [2usize, 4, 6, 8] {
            for root in [0usize, 1, p - 1] {
                let (results, _) = run(p, move |comm| {
                    let local = vec![comm.rank() as f64; 3];
                    gather(comm, root, &local).unwrap()
                });
                for (rank, r) in results.into_iter().enumerate() {
                    if rank == root {
                        let data = r.expect("root gets data");
                        let expected: Vec<f64> = (0..p).flat_map(|q| vec![q as f64; 3]).collect();
                        assert_eq!(data, expected);
                    } else {
                        assert!(r.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn gather_cost_matches_formula() {
        let p = 8;
        let blk = 16;
        let (_, report) = run(p, move |comm| {
            let local = vec![1.0; blk];
            gather(comm, 0, &local).unwrap()
        });
        // Root receives blk*(p-1) words in log p messages.
        assert_eq!(report.max_messages(), 3);
        assert_eq!(report.max_words(), (blk * (p - 1)) as u64);
    }

    #[test]
    fn scatter_distributes_blocks() {
        for p in [2usize, 3, 4, 8] {
            for root in [0usize, p / 2] {
                let (results, _) = run(p, move |comm| {
                    let data: Vec<f64> = if comm.rank() == root {
                        (0..p * 2).map(|v| v as f64).collect()
                    } else {
                        Vec::new()
                    };
                    scatter(comm, root, &data, 2).unwrap()
                });
                for (rank, r) in results.into_iter().enumerate() {
                    assert_eq!(r, vec![(rank * 2) as f64, (rank * 2 + 1) as f64]);
                }
            }
        }
    }

    #[test]
    fn scatter_cost_matches_formula() {
        let p = 8;
        let blk = 10;
        let (_, report) = run(p, move |comm| {
            let data: Vec<f64> = if comm.rank() == 0 {
                vec![1.0; p * blk]
            } else {
                Vec::new()
            };
            scatter(comm, 0, &data, blk).unwrap()
        });
        // Root sends blk*(p-1) words in log p messages.
        assert_eq!(report.max_messages(), 3);
        assert_eq!(report.max_words(), (blk * (p - 1)) as u64);
    }

    #[test]
    fn reduce_scatter_sums_blocks() {
        for p in [2usize, 4, 8, 6] {
            let (results, _) = run(p, move |comm| {
                // Every rank contributes [0,1,..,p*2-1] + rank.
                let data: Vec<f64> = (0..p * 2).map(|v| v as f64 + comm.rank() as f64).collect();
                reduce_scatter(comm, &data, ReduceOp::Sum).unwrap()
            });
            let rank_sum: f64 = (0..p).map(|r| r as f64).sum();
            for (rank, r) in results.into_iter().enumerate() {
                assert_eq!(r.len(), 2);
                assert_eq!(r[0], (rank * 2) as f64 * p as f64 + rank_sum);
                assert_eq!(r[1], (rank * 2 + 1) as f64 * p as f64 + rank_sum);
            }
        }
    }

    #[test]
    fn reduce_scatter_cost_matches_formula() {
        let p = 8;
        let blk = 4;
        let (_, report) = run(p, move |comm| {
            let data = vec![1.0; p * blk];
            reduce_scatter(comm, &data, ReduceOp::Sum).unwrap()
        });
        // log p messages; words = blk * (p-1); flops = words.
        assert_eq!(report.max_messages(), 3);
        assert_eq!(report.max_words(), (blk * (p - 1)) as u64);
        assert_eq!(report.max_flops(), (blk * (p - 1)) as u64);
    }

    #[test]
    fn reduce_to_root() {
        let (results, _) = run(6, |comm| {
            let data = vec![comm.rank() as f64, 1.0];
            reduce(comm, 2, &data, ReduceOp::Sum).unwrap()
        });
        for (rank, r) in results.into_iter().enumerate() {
            if rank == 2 {
                assert_eq!(r.unwrap(), vec![15.0, 6.0]);
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn reduce_max_and_min() {
        let (results, _) = run(4, |comm| {
            let data = vec![comm.rank() as f64];
            let mx = allreduce(comm, &data, ReduceOp::Max).unwrap();
            let mn = allreduce(comm, &data, ReduceOp::Min).unwrap();
            (mx[0], mn[0])
        });
        for (mx, mn) in results {
            assert_eq!(mx, 3.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn allreduce_sums_everywhere_even_with_ragged_length() {
        for p in [2usize, 4, 5, 8] {
            for len in [1usize, 3, 17] {
                let (results, _) = run(p, move |comm| {
                    let data = vec![comm.rank() as f64 + 1.0; len];
                    allreduce(comm, &data, ReduceOp::Sum).unwrap()
                });
                let expect = (p * (p + 1) / 2) as f64;
                for r in results {
                    assert_eq!(r.len(), len);
                    assert!(r.iter().all(|&v| (v - expect).abs() < 1e-12));
                }
            }
        }
    }

    #[test]
    fn allreduce_cost_matches_formula() {
        let p = 16;
        let n = 64;
        let (_, report) = run(p, move |comm| {
            let data = vec![1.0; n];
            allreduce(comm, &data, ReduceOp::Sum).unwrap()
        });
        // reduce-scatter + allgather: 2 log p messages, 2 n (p-1)/p words, n(p-1)/p flops.
        assert_eq!(report.max_messages(), 8);
        assert_eq!(report.max_words() as usize, 2 * n * (p - 1) / p);
        assert_eq!(report.max_flops() as usize, n * (p - 1) / p);
    }

    #[test]
    fn bcast_delivers_to_everyone() {
        for p in [2usize, 4, 8, 5] {
            for root in [0usize, p - 1] {
                let (results, _) = run(p, move |comm| {
                    let data: Vec<f64> = if comm.rank() == root {
                        (0..10).map(|v| v as f64 * 3.0).collect()
                    } else {
                        Vec::new()
                    };
                    bcast(comm, root, &data, 10).unwrap()
                });
                let expected: Vec<f64> = (0..10).map(|v| v as f64 * 3.0).collect();
                for r in results {
                    assert_eq!(r, expected);
                }
            }
        }
    }

    #[test]
    fn bcast_cost_matches_formula() {
        let p = 8;
        let n = 80;
        let (_, report) = run(p, move |comm| {
            let data: Vec<f64> = if comm.rank() == 0 {
                vec![2.0; n]
            } else {
                Vec::new()
            };
            bcast(comm, 0, &data, n).unwrap()
        });
        // scatter + allgather: 2 log p messages, 2 n (p-1)/p words.
        assert_eq!(report.max_messages(), 6);
        assert_eq!(report.max_words() as usize, 2 * n * (p - 1) / p);
    }

    /// The messages and words a rank is charged, sent and received.
    fn traffic(c: &CostCounters) -> [u64; 4] {
        [c.msgs_sent, c.msgs_recv, c.words_sent, c.words_recv]
    }

    #[test]
    fn the_pure_counts_are_what_the_calls_charge() {
        // Ragged blocks, some empty, on sizes with and without a power of two.
        for p in [3usize, 5, 6, 8] {
            let sizes = move |src: usize| (0..p).map(move |dest| (dest, (src * 7 + dest * 3) % 5));
            let (_, report) = run(p, move |comm| {
                let blocks = sizes(comm.rank()).map(|(_, n)| vec![1.0; n]).collect();
                alltoallv_bruck(comm, blocks).unwrap();
            });
            let counts = bruck_counts(p, sizes);
            for (rank, measured) in report.per_rank.iter().enumerate() {
                assert_eq!(
                    traffic(measured),
                    traffic(&counts[rank]),
                    "p={p} rank={rank}"
                );
            }
            for root in 0..p {
                let (_, report) = run(p, move |comm| {
                    let data = vec![1.0; if comm.rank() == root { 13 } else { 0 }];
                    bcast(comm, root, &data, 13).unwrap();
                });
                for (rank, measured) in report.per_rank.iter().enumerate() {
                    let counts = bcast_counts(p, root, 13, rank);
                    let what = format!("p={p} root={root} rank={rank}");
                    assert_eq!(traffic(measured), traffic(&counts), "{what}");
                    // Moving the root moves the schedule with it.
                    let rotated = bcast_counts(p, 0, 13, (rank + p - root) % p);
                    assert_eq!(counts, rotated, "{what}");
                }
            }
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        for p in [2usize, 4, 8, 5] {
            let (results, _) = run(p, move |comm| {
                // Block destined to rank j carries value rank*100 + j.
                let data: Vec<f64> = (0..p)
                    .flat_map(|j| vec![(comm.rank() * 100 + j) as f64; 2])
                    .collect();
                alltoall(comm, &data, 2).unwrap()
            });
            for (rank, r) in results.into_iter().enumerate() {
                for src in 0..p {
                    assert_eq!(r[src * 2], (src * 100 + rank) as f64);
                    assert_eq!(r[src * 2 + 1], (src * 100 + rank) as f64);
                }
            }
        }
    }

    #[test]
    fn alltoall_cost_matches_formula() {
        let p = 8;
        let blk = 6;
        let (_, report) = run(p, move |comm| {
            let data = vec![1.0; p * blk];
            alltoall(comm, &data, blk).unwrap()
        });
        // Bruck: log p rounds, each sending p/2 blocks.
        assert_eq!(report.max_messages(), 3);
        assert_eq!(report.max_words() as usize, 3 * (p / 2) * blk);
    }

    #[test]
    fn alltoallv_direct_and_bruck_agree() {
        for p in [2usize, 3, 4, 8] {
            let (results, _) = run(p, move |comm| {
                let rank = comm.rank();
                // Send `dest+1` copies of rank*10+dest to each dest (rank 0 sends nothing to itself).
                let blocks: Vec<Vec<f64>> = (0..p)
                    .map(|dest| {
                        if rank == 0 && dest == 0 {
                            Vec::new()
                        } else {
                            vec![(rank * 10 + dest) as f64; dest + 1]
                        }
                    })
                    .collect();
                let a = alltoallv_direct(comm, blocks.clone()).unwrap();
                let b = alltoallv_bruck(comm, blocks).unwrap();
                (a, b)
            });
            for (rank, (a, b)) in results.into_iter().enumerate() {
                assert_eq!(a, b, "p={p} rank={rank}");
                for (src, piece) in a.iter().enumerate().take(p) {
                    if rank == 0 && src == 0 {
                        assert!(piece.is_empty());
                    } else {
                        assert_eq!(piece.len(), rank + 1);
                        assert!(piece.iter().all(|&v| v == (src * 10 + rank) as f64));
                    }
                }
            }
        }
    }

    #[test]
    fn alltoallv_bruck_latency_is_logarithmic() {
        let p = 16;
        let (_, report) = run(p, move |comm| {
            let blocks: Vec<Vec<f64>> = (0..p).map(|d| vec![d as f64; 4]).collect();
            alltoallv_bruck(comm, blocks).unwrap()
        });
        assert_eq!(report.max_messages(), 4);

        let (_, report_direct) = run(p, move |comm| {
            let blocks: Vec<Vec<f64>> = (0..p).map(|d| vec![d as f64; 4]).collect();
            alltoallv_direct(comm, blocks).unwrap()
        });
        assert_eq!(report_direct.max_messages(), (p - 1) as u64);
    }

    #[test]
    fn alltoallv_direct_runs_more_rounds_than_a_word_has_bits() {
        let p = 70;
        let (results, report) = run(p, move |comm| {
            let rank = comm.rank();
            let blocks = (0..p).map(|dest| vec![(rank * p + dest) as f64]).collect();
            alltoallv_direct(comm, blocks).unwrap()
        });
        for (rank, got) in results.into_iter().enumerate() {
            let expected: Vec<Vec<f64>> = (0..p).map(|src| vec![(src * p + rank) as f64]).collect();
            assert_eq!(got, expected, "rank {rank}");
        }
        for counters in &report.per_rank {
            assert_eq!(counters.msgs_sent, (p - 1) as u64);
        }
    }

    #[test]
    fn collectives_validate_arguments() {
        let (results, _) = run(4, |comm| {
            let bad_root_gather = gather(comm, 9, &[1.0]).is_err();
            let bad_root_scatter = scatter(comm, 9, &[1.0; 4], 1).is_err();
            let bad_rs = reduce_scatter(comm, &[1.0; 5], ReduceOp::Sum).is_err();
            let bad_a2a = alltoall(comm, &[1.0; 5], 1).is_err();
            let bad_a2av = alltoallv_direct(comm, vec![vec![], vec![]]).is_err();
            bad_root_gather && bad_root_scatter && bad_rs && bad_a2a && bad_a2av
        });
        assert!(results.into_iter().all(|v| v));
    }

    /// Run `f` on `p` ranks under a wall-clock watchdog: a run still going
    /// after 20 s fails the test instead of hanging it.
    fn run_watched<T: Send + 'static>(
        p: usize,
        f: impl Fn(&Communicator) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = Machine::new(p, MachineParams::unit()).run(f);
            let _ = tx.send(out.map(|out| out.results));
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("the run hung")
            .expect("no rank panicked")
    }

    /// Every member's error from `call`, then an allreduce showing that the
    /// members' calls still line up after it.
    fn error_then_allreduce(
        comm: &Communicator,
        call: impl Fn(&Communicator) -> Result<()>,
    ) -> (Option<SimError>, f64) {
        let err = call(comm).err();
        (err, allreduce(comm, &[1.0], ReduceOp::Sum).unwrap()[0])
    }

    fn bad_args(op: &'static str, reason: &str) -> Option<SimError> {
        Some(SimError::BadCollectiveArgs {
            op,
            reason: reason.into(),
        })
    }

    #[test]
    fn bcast_with_a_short_root_buffer_fails_alike_on_every_member() {
        let results = run_watched(4, |comm| {
            error_then_allreduce(comm, |comm| {
                let data = if comm.rank() == 1 {
                    vec![1.0; 3]
                } else {
                    Vec::new()
                };
                bcast(comm, 1, &data, 8).map(drop)
            })
        });
        let expected = (
            bad_args("bcast", "root buffer has 3 words, expected 8"),
            4.0,
        );
        assert_eq!(results, vec![expected; 4]);
    }

    #[test]
    fn scatter_with_a_short_root_buffer_fails_alike_on_every_member() {
        let results = run_watched(4, |comm| {
            error_then_allreduce(comm, |comm| {
                let data = if comm.rank() == 2 {
                    vec![1.0; 5]
                } else {
                    Vec::new()
                };
                scatter(comm, 2, &data, 2).map(drop)
            })
        });
        let expected = (
            bad_args("scatter", "root buffer has 5 words, expected 8"),
            4.0,
        );
        assert_eq!(results, vec![expected; 4]);
    }

    #[test]
    fn allgather_of_unequal_contributions_fails_alike_on_every_member() {
        let results = run_watched(4, |comm| {
            error_then_allreduce(comm, |comm| {
                allgather(comm, &vec![1.0; comm.rank() + 1]).map(drop)
            })
        });
        let expected = (
            bad_args("allgather", "rank 1 contributes 2 words, rank 0 1"),
            4.0,
        );
        assert_eq!(results, vec![expected; 4]);
    }

    #[test]
    fn allreduce_of_unequal_contributions_fails_alike_on_every_member() {
        let results = run_watched(4, |comm| {
            error_then_allreduce(comm, |comm| {
                let mine = vec![1.0; 4 + comm.rank() / 3];
                allreduce(comm, &mine, ReduceOp::Sum).map(drop)
            })
        });
        let expected = (
            bad_args("allreduce", "rank 3 contributes 5 words, rank 0 4"),
            4.0,
        );
        assert_eq!(results, vec![expected; 4]);
    }

    /// A program made only of collectives, on the world and on two halves:
    /// how many calls each rank made.
    fn only_collectives(comm: &Communicator) -> usize {
        let rank = comm.rank();
        let parity: Vec<usize> = (rank % 2..comm.size()).step_by(2).collect();
        let half = comm.subgroup(&parity).unwrap();
        let mut calls = 0;
        for round in 0..3 {
            let mine = [rank as f64, round as f64];
            allreduce(comm, &mine, ReduceOp::Sum).unwrap();
            bcast(&half, 1, &mine, 2).unwrap();
            allgatherv(&half, &mine[..rank % 2 + 1]).unwrap();
            let blocks = (0..comm.size()).map(|d| vec![d as f64; d % 3]).collect();
            alltoallv_bruck(comm, blocks).unwrap();
            reduce_scatter(&half, &[1.0; 8], ReduceOp::Max).unwrap();
            barrier(comm).unwrap();
            calls += 6;
        }
        calls
    }

    #[test]
    fn a_member_parks_at_most_once_per_collective_call() {
        for workers in [1, 4] {
            let recorder = obs::Recorder::new();
            let machine = Machine::new(8, MachineParams::unit()).with_rank_workers(workers);
            let calls = recorder.record(|| machine.run(only_collectives).unwrap().results);
            let dump = recorder.dump();
            let mut parks = vec![None; calls.len()];
            for lane in dump.threads.iter().filter(|t| t.lane == obs::Lane::Wall) {
                let named = |name| lane.events.iter().filter(move |e| e.name == name);
                if let Some(rank) = named("rank").next() {
                    parks[rank.arg as usize] = Some(named("park").count());
                }
            }
            for (rank, (parks, calls)) in parks.iter().zip(&calls).enumerate() {
                let parks = parks.expect("every rank records its lane");
                assert!(
                    parks <= *calls,
                    "w = {workers}: rank {rank} parked {parks} times in {calls} calls"
                );
            }
            if workers == 1 {
                let total: usize = parks.iter().flatten().sum();
                assert!(total > 0, "one worker and no rank ever parked");
            }
        }
    }

    #[test]
    fn every_collective_on_one_member_returns_its_input_and_charges_nothing() {
        let (results, report) = run(3, |comm| {
            let solo = comm.subgroup(&[comm.rank()]).unwrap();
            // Something to charge first, so "nothing" is not the zero clock.
            comm.charge_flops(1000);
            let before = comm.counters();
            let mine = [comm.rank() as f64, 2.5, -1.0];
            let sum = ReduceOp::Sum;
            barrier(&solo).unwrap();
            let got = [
                allgather(&solo, &mine).unwrap(),
                allgatherv(&solo, &mine).unwrap().concat(),
                gather(&solo, 0, &mine).unwrap().unwrap(),
                scatter(&solo, 0, &mine, 3).unwrap(),
                reduce_scatter(&solo, &mine, sum).unwrap(),
                reduce(&solo, 0, &mine, ReduceOp::Max).unwrap().unwrap(),
                allreduce(&solo, &mine, sum).unwrap(),
                bcast(&solo, 0, &mine, 3).unwrap(),
                alltoall(&solo, &mine, 3).unwrap(),
                alltoallv_direct(&solo, vec![mine.to_vec()])
                    .unwrap()
                    .concat(),
                alltoallv_bruck(&solo, vec![mine.to_vec()])
                    .unwrap()
                    .concat(),
            ];
            let charged = comm.counters() != before;
            // Bad arguments are still the typed errors.
            let errors = [
                gather(&solo, 1, &mine).err(),
                bcast(&solo, 0, &mine[..2], 3).err(),
            ];
            (got, mine, charged, errors)
        });
        for (got, mine, charged, errors) in results {
            for result in got {
                assert_eq!(result, mine);
            }
            assert!(
                !charged,
                "a one-member call moved the counters or the clock"
            );
            let expected = [
                Some(SimError::InvalidRank { rank: 1, size: 1 }),
                bad_args("bcast", "root buffer has 2 words, expected 3"),
            ];
            assert_eq!(errors, expected);
        }
        assert_eq!((report.total_messages(), report.total_words()), (0, 0));
    }

    #[test]
    fn collectives_work_on_subcommunicators() {
        let (results, _) = run(8, |comm| {
            // Two groups of 4 by parity of the rank.
            let parity = comm.rank() % 2;
            let members: Vec<usize> = (parity..comm.size()).step_by(2).collect();
            let sub = comm.subgroup(&members).unwrap();
            let local = vec![comm.rank() as f64];
            let summed = allreduce(&sub, &local, ReduceOp::Sum).unwrap();
            summed[0]
        });
        // Even ranks: 0+2+4+6 = 12; odd ranks: 1+3+5+7 = 16.
        for (rank, r) in results.into_iter().enumerate() {
            assert_eq!(r, if rank % 2 == 0 { 12.0 } else { 16.0 });
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_interfere() {
        let (results, _) = run(4, |comm| {
            let a = allgather(comm, &[comm.rank() as f64]).unwrap();
            let b = allgather(comm, &[comm.rank() as f64 * 2.0]).unwrap();
            let c = allreduce(comm, &[1.0], ReduceOp::Sum).unwrap();
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, vec![0.0, 1.0, 2.0, 3.0]);
            assert_eq!(b, vec![0.0, 2.0, 4.0, 6.0]);
            assert_eq!(c, vec![4.0]);
        }
    }
}
