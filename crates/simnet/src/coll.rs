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
//! The implementations below realise those schedules on a [`Communicator`]
//! so the *measured* message/word counters reproduce the formulas (exactly
//! for power-of-two communicator sizes and divisible vector lengths, which is
//! what the paper assumes; other sizes fall back to correct but slightly more
//! expensive schedules).
//!
//! Every message a collective receives goes back to the machine's pool once
//! its values are copied or folded out ([`Communicator::give_buffer`]).  The
//! collectives a distributed solve runs (the allgathers, scatter, the
//! reductions, bcast and `alltoallv_bruck`) also build their buffers and
//! results from the pool ([`Communicator::take_buffer`]); a caller done with
//! such a result may give it back.

use crate::comm::Communicator;
use crate::error::SimError;
use crate::Result;
use std::ops::Range;

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

    /// Fold this rank's values into a received message,
    /// `theirs[i] = mine[i] ∘ theirs[i]`, charging one flop per element to
    /// `comm`.  The operand order is fixed, so the result is the one folding
    /// the message into `mine` would give, stored in the message's buffer.
    fn fold(self, comm: &Communicator, mine: &[f64], theirs: &mut [f64]) {
        debug_assert_eq!(mine.len(), theirs.len());
        for (a, b) in mine.iter().zip(theirs.iter_mut()) {
            *b = self.apply(*a, *b);
        }
        comm.charge_flops(mine.len() as u64);
    }
}

/// Dissemination barrier: `⌈log₂ p⌉` zero-payload exchanges.
pub fn barrier(comm: &Communicator) -> Result<()> {
    let p = comm.size();
    if p <= 1 {
        return Ok(());
    }
    let tag = comm.next_op_tag();
    let mut d = 1;
    let mut step = 0;
    while d < p {
        let to = (comm.rank() + d) % p;
        let from = (comm.rank() + p - d) % p;
        comm.send_raw(to, tag + step, &[])?;
        comm.recv_raw(from, tag + step)?;
        d *= 2;
        step += 1;
    }
    Ok(())
}

/// Bruck allgather of equal-sized blocks.
///
/// Every rank contributes `local`; the result is the concatenation of all
/// contributions in rank order (identical on every rank).  All contributions
/// must have the same length.
pub fn allgather(comm: &Communicator, local: &[f64]) -> Result<Vec<f64>> {
    let p = comm.size();
    let rank = comm.rank();
    let blk = local.len();
    let mut out = comm.take_buffer(p * blk);
    if p == 1 {
        out.extend_from_slice(local);
        return Ok(out);
    }
    let tag = comm.next_op_tag();

    // Every block is written where the result keeps it: after each round
    // this rank holds blocks rank, rank+1, …, rank+cnt−1 (mod p) in place.
    out.resize(p * blk, 0.0);
    out[rank * blk..(rank + 1) * blk].copy_from_slice(local);
    let mut cnt = 1usize;
    let mut step = 0u64;
    while cnt < p {
        let need = cnt.min(p - cnt);
        let to = (rank + p - cnt) % p;
        let from = (rank + cnt) % p;
        let mut payload = comm.take_buffer(need * blk);
        for run in cyclic_runs(rank, need, blk, p) {
            payload.extend_from_slice(&out[run]);
        }
        comm.send_raw_vec(to, tag + step, payload)?;
        // `from` sent its first `need` blocks: from, from+1, … (mod p).
        let received = comm.recv_raw(from, tag + step)?;
        let mut rest = &received[..];
        for run in cyclic_runs(from, need, blk, p) {
            let (head, tail) = rest.split_at(run.len());
            out[run].copy_from_slice(head);
            rest = tail;
        }
        comm.give_buffer(received);
        cnt += need;
        step += 1;
    }
    Ok(out)
}

/// Where blocks `first, first+1, …, first+count−1` (mod `p`) of `p`
/// consecutive `blk`-word blocks lie: at most two contiguous word ranges,
/// in block order.
fn cyclic_runs(first: usize, count: usize, blk: usize, p: usize) -> [Range<usize>; 2] {
    let head = count.min(p - first);
    [first * blk..(first + head) * blk, 0..(count - head) * blk]
}

/// Allgather of variable-sized blocks; returns one vector per rank.
pub fn allgatherv(comm: &Communicator, local: &[f64]) -> Result<Vec<Vec<f64>>> {
    let p = comm.size();
    // First share the lengths with a fixed-size allgather, then pad to the
    // maximum length so the Bruck exchange stays block-regular.
    let shared = allgather(comm, &[local.len() as f64])?;
    let lens: Vec<usize> = shared.iter().map(|&v| v as usize).collect();
    comm.give_buffer(shared);
    let max_len = lens.iter().copied().max().unwrap_or(0);
    let mut padded = comm.take_buffer(max_len);
    padded.extend_from_slice(local);
    padded.resize(max_len, 0.0);
    let flat = allgather(comm, &padded)?;
    comm.give_buffer(padded);
    let out = (0..p)
        .map(|r| {
            let mut piece = comm.take_buffer(lens[r]);
            piece.extend_from_slice(&flat[r * max_len..r * max_len + lens[r]]);
            piece
        })
        .collect();
    comm.give_buffer(flat);
    Ok(out)
}

/// Binomial-tree gather of equal-sized blocks to `root`.
///
/// Returns `Some(concatenation in rank order)` on the root and `None`
/// elsewhere.
pub fn gather(comm: &Communicator, root: usize, local: &[f64]) -> Result<Option<Vec<f64>>> {
    let p = comm.size();
    if root >= p {
        return Err(SimError::InvalidRank {
            rank: root,
            size: p,
        });
    }
    let blk = local.len();
    if p == 1 {
        return Ok(Some(local.to_vec()));
    }
    let tag = comm.next_op_tag();
    let rel = (comm.rank() + p - root) % p;

    // `collection` holds relative blocks rel, rel + 1, …: those of this
    // rank's subtree that have reported so far.
    let mut collection: Vec<f64> = local.to_vec();
    let mut d = 1usize;
    let mut step = 0u64;
    let mut sent = false;
    while d < p {
        if rel.is_multiple_of(2 * d) {
            let src_rel = rel + d;
            if src_rel < p {
                let from = (src_rel + root) % p;
                let received = comm.recv_raw(from, tag + step)?;
                collection.extend_from_slice(&received);
                comm.give_buffer(received);
            }
        } else if !sent {
            // Relative ranks with the low bit of `rel / d` set send their
            // whole collection to rel - d and are done.
            let dst_rel = rel - d;
            let to = (dst_rel + root) % p;
            comm.send_raw_vec(to, tag + step, std::mem::take(&mut collection))?;
            sent = true;
        }
        d *= 2;
        step += 1;
    }

    if comm.rank() == root {
        // Root's collection is in relative order; translate to absolute ranks.
        let mut out = vec![0.0; p * blk];
        for j in 0..p {
            let abs = (j + root) % p;
            out[abs * blk..(abs + 1) * blk].copy_from_slice(&collection[j * blk..(j + 1) * blk]);
        }
        Ok(Some(out))
    } else {
        Ok(None)
    }
}

/// Binomial-tree scatter of equal-sized blocks from `root`.
///
/// On the root, `data` must contain `p` blocks of `block` words each in rank
/// order; elsewhere `data` is ignored.  Every rank returns its own block.
pub fn scatter(comm: &Communicator, root: usize, data: &[f64], block: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    if root >= p {
        return Err(SimError::InvalidRank {
            rank: root,
            size: p,
        });
    }
    if comm.rank() == root && data.len() != p * block {
        return Err(SimError::BadCollectiveArgs {
            op: "scatter",
            reason: format!(
                "root buffer has {} words, expected {}",
                data.len(),
                p * block
            ),
        });
    }
    if p == 1 {
        let mut mine = comm.take_buffer(block);
        mine.extend_from_slice(data);
        return Ok(mine);
    }
    let tag = comm.next_op_tag();
    let rel = (comm.rank() + p - root) % p;

    // Walk the binomial recursion over relative rank ranges [lo, hi), where
    // `lo` currently holds the data for the whole range: the root reads it
    // from `data` (relative block j is rank (j + root) mod p's), every other
    // rank from `held`, the blocks [lo, hi) it was sent.
    let mut lo = 0usize;
    let mut hi = p;
    let mut held = Vec::new();
    let mut step = 0u64;
    while hi - lo > 1 {
        let half = (hi - lo).div_ceil(2);
        let mid = lo + half;
        if rel < mid {
            // I am in the lower half; if I am `lo`, send the upper half away.
            if rel == lo {
                let to = (mid + root) % p;
                if rel == 0 {
                    let mut upper = comm.take_buffer((hi - mid) * block);
                    for run in cyclic_runs(to, hi - mid, block, p) {
                        upper.extend_from_slice(&data[run]);
                    }
                    comm.send_raw_vec(to, tag + step, upper)?;
                } else {
                    comm.send_raw(to, tag + step, &held[half * block..])?;
                    held.truncate(half * block);
                }
            }
            hi = mid;
        } else {
            // I am in the upper half; if I am `mid`, receive the upper half.
            if rel == mid {
                let from = (lo + root) % p;
                held = comm.recv_raw(from, tag + step)?;
            }
            lo = mid;
        }
        step += 1;
    }
    debug_assert_eq!(lo, rel);
    if rel == 0 {
        held = comm.take_buffer(block);
        held.extend_from_slice(&data[root * block..(root + 1) * block]);
    }
    held.truncate(block);
    Ok(held)
}

/// Recursive-halving reduce-scatter.
///
/// Every rank contributes a vector of `p × block` words; rank `r` returns the
/// element-wise reduction of block `r` over all contributions.  For
/// non-power-of-two communicators a (correct, slightly costlier)
/// reduce-then-scatter fallback is used.
pub fn reduce_scatter(comm: &Communicator, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
    let p = comm.size();
    if !data.len().is_multiple_of(p) {
        return Err(SimError::BadCollectiveArgs {
            op: "reduce_scatter",
            reason: format!("buffer length {} not divisible by p = {}", data.len(), p),
        });
    }
    let block = data.len() / p;
    if p == 1 {
        let mut mine = comm.take_buffer(block);
        mine.extend_from_slice(data);
        return Ok(mine);
    }
    if !p.is_power_of_two() {
        // Fallback: binomial reduce to rank 0, then binomial scatter.
        let root_buf = reduce(comm, 0, data, op)?.unwrap_or_default();
        let mine = scatter(comm, 0, &root_buf, block)?;
        comm.give_buffer(root_buf);
        return Ok(mine);
    }

    let tag = comm.next_op_tag();
    let rank = comm.rank();
    // Before the first round `data` holds every block; after each round the
    // message just received holds the partially reduced blocks
    // [range_lo, range_hi) this rank is still responsible for.
    let mut held: Option<Vec<f64>> = None;
    let mut range_lo = 0usize;
    let mut range_hi = p;
    let mut d = p / 2;
    let mut step = 0u64;
    while d >= 1 {
        let partner = rank ^ d;
        let mid = range_lo + (range_hi - range_lo) / 2;
        // Which half do I keep?  The half containing my own rank.
        let (keep_lo, keep_hi, send_lo, send_hi) = if rank < partner {
            (range_lo, mid, mid, range_hi)
        } else {
            (mid, range_hi, range_lo, mid)
        };
        let (current, base) = match &held {
            Some(h) => (&h[..], range_lo),
            None => (data, 0),
        };
        let blocks = |lo: usize, hi: usize| (lo - base) * block..(hi - base) * block;
        comm.send_raw(partner, tag + step, &current[blocks(send_lo, send_hi)])?;
        let mut received = comm.recv_raw(partner, tag + step)?;
        op.fold(comm, &current[blocks(keep_lo, keep_hi)], &mut received);
        if let Some(spent) = held.replace(received) {
            comm.give_buffer(spent);
        }
        range_lo = keep_lo;
        range_hi = keep_hi;
        d /= 2;
        step += 1;
    }
    debug_assert_eq!(range_hi - range_lo, 1);
    debug_assert_eq!(range_lo, rank);
    Ok(held.expect("p ≥ 2 runs at least one round"))
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
    if root >= p {
        return Err(SimError::InvalidRank {
            rank: root,
            size: p,
        });
    }
    let mut acc = comm.take_buffer(data.len());
    acc.extend_from_slice(data);
    if p == 1 {
        return Ok(Some(acc));
    }
    let tag = comm.next_op_tag();
    let rel = (comm.rank() + p - root) % p;
    let mut d = 1usize;
    let mut step = 0u64;
    let mut sent = false;
    while d < p {
        if rel.is_multiple_of(2 * d) {
            let src_rel = rel + d;
            if src_rel < p {
                let from = (src_rel + root) % p;
                let mut received = comm.recv_raw(from, tag + step)?;
                op.fold(comm, &acc, &mut received);
                comm.give_buffer(std::mem::replace(&mut acc, received));
            }
        } else if !sent {
            let to = (rel - d + root) % p;
            comm.send_raw_vec(to, tag + step, std::mem::take(&mut acc))?;
            sent = true;
        }
        d *= 2;
        step += 1;
    }
    if comm.rank() == root {
        Ok(Some(acc))
    } else {
        Ok(None)
    }
}

/// Allreduce implemented as reduce-scatter followed by allgather
/// (cost `2α·log p + 2β·n + γ·n`), padding internally when the length is not
/// divisible by `p`.
pub fn allreduce(comm: &Communicator, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
    let p = comm.size();
    let len = data.len();
    if p == 1 {
        let mut full = comm.take_buffer(len);
        full.extend_from_slice(data);
        return Ok(full);
    }
    let block = len.div_ceil(p);
    let mut padded = Vec::new();
    let input = if len == block * p {
        data
    } else {
        padded = comm.take_buffer(block * p);
        padded.extend_from_slice(data);
        padded.resize(block * p, identity_of(op));
        &padded
    };
    let mine = reduce_scatter(comm, input, op)?;
    comm.give_buffer(padded);
    let mut full = allgather(comm, &mine)?;
    comm.give_buffer(mine);
    full.truncate(len);
    Ok(full)
}

/// Broadcast implemented as scatter followed by allgather
/// (cost `2α·log p + 2β·n`).  `data` is only read on the root; every rank
/// must pass the same `len`.
pub fn bcast(comm: &Communicator, root: usize, data: &[f64], len: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    if root >= p {
        return Err(SimError::InvalidRank {
            rank: root,
            size: p,
        });
    }
    if comm.rank() == root && data.len() != len {
        return Err(SimError::BadCollectiveArgs {
            op: "bcast",
            reason: format!("root buffer has {} words, expected {}", data.len(), len),
        });
    }
    if p == 1 {
        let mut full = comm.take_buffer(len);
        full.extend_from_slice(data);
        return Ok(full);
    }
    let block = len.div_ceil(p);
    let mut padded = Vec::new();
    let input = if comm.rank() != root || len == block * p {
        data
    } else {
        padded = comm.take_buffer(block * p);
        padded.extend_from_slice(data);
        padded.resize(block * p, 0.0);
        &padded
    };
    let mine = scatter(comm, root, input, block)?;
    comm.give_buffer(padded);
    let mut full = allgather(comm, &mine)?;
    comm.give_buffer(mine);
    full.truncate(len);
    Ok(full)
}

/// Bruck all-to-all of equal-sized blocks.
///
/// `data` holds `p` blocks of `block` words; block `j` is delivered to rank
/// `j`.  The result holds `p` blocks where block `i` came from rank `i`.
/// Cost `α·⌈log p⌉ + β·(n/2)·⌈log p⌉` with `n = p·block`.
pub fn alltoall(comm: &Communicator, data: &[f64], block: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    if data.len() != p * block {
        return Err(SimError::BadCollectiveArgs {
            op: "alltoall",
            reason: format!("buffer has {} words, expected {}", data.len(), p * block),
        });
    }
    if p == 1 {
        return Ok(data.to_vec());
    }
    let rank = comm.rank();
    let tag = comm.next_op_tag();

    // Phase 1: local rotation so slot j holds the block destined to (rank+j)%p.
    let mut slots: Vec<Vec<f64>> = (0..p)
        .map(|j| {
            let dest = (rank + j) % p;
            data[dest * block..(dest + 1) * block].to_vec()
        })
        .collect();

    // Phase 2: log p exchange rounds.
    let mut d = 1usize;
    let mut step = 0u64;
    while d < p {
        let to = (rank + d) % p;
        let from = (rank + p - d) % p;
        // Collect the slots whose index has bit `d` set.
        let mut payload = Vec::new();
        let mut moved = Vec::new();
        for (j, slot) in slots.iter().enumerate() {
            if j & d != 0 {
                payload.extend_from_slice(slot);
                moved.push(j);
            }
        }
        comm.send_raw_vec(to, tag + step, payload)?;
        let received = comm.recv_raw(from, tag + step)?;
        for (idx, j) in moved.iter().enumerate() {
            slots[*j].copy_from_slice(&received[idx * block..(idx + 1) * block]);
        }
        comm.give_buffer(received);
        d *= 2;
        step += 1;
    }

    // Phase 3: slot j now holds the block that rank (rank - j + p) % p sent to me.
    let mut out = vec![0.0; p * block];
    for (j, slot) in slots.iter().enumerate() {
        let src = (rank + p - j) % p;
        out[src * block..(src + 1) * block].copy_from_slice(slot);
    }
    Ok(out)
}

/// Personalised all-to-all with per-destination payloads of arbitrary length,
/// delivered directly with `p − 1` pairwise exchanges (latency `O(p)`,
/// bandwidth optimal).  `blocks[j]` is sent to rank `j` (moved into the
/// message, not copied); the result is indexed by source rank.
pub fn alltoallv_direct(comm: &Communicator, mut blocks: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> {
    let p = comm.size();
    if blocks.len() != p {
        return Err(SimError::BadCollectiveArgs {
            op: "alltoallv_direct",
            reason: format!("expected {} destination blocks, got {}", p, blocks.len()),
        });
    }
    let rank = comm.rank();
    let tag = comm.next_op_tag();
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
    out[rank] = std::mem::take(&mut blocks[rank]);
    for offset in 1..p {
        let to = (rank + offset) % p;
        let from = (rank + p - offset) % p;
        comm.send_raw_vec(to, tag + offset as u64, std::mem::take(&mut blocks[to]))?;
        out[from] = comm.recv_raw(from, tag + offset as u64)?;
    }
    Ok(out)
}

/// Header words [`alltoallv_bruck`] puts in front of every block it forwards
/// (final destination, original source, length).
pub const BRUCK_BLOCK_HEADER: usize = 3;

/// Personalised all-to-all routed through a Bruck-style store-and-forward
/// network: `⌈log₂ p⌉` rounds, each word travels at most `⌈log₂ p⌉` hops.
///
/// This is the schedule the paper charges for its layout transposes:
/// `O(α·log p + β·(total volume / p)·log p)` per processor.  `blocks[j]` is
/// sent to rank `j`; the result is indexed by source rank.
///
/// Each round's message is `[count, (dest, src, len, payload…)*]`: one count
/// word, plus a [`BRUCK_BLOCK_HEADER`]-word header per forwarded block.  A
/// block from `s` to `d` is forwarded once per set bit of `(d − s) mod p`;
/// empty blocks are not forwarded at all.
pub fn alltoallv_bruck(comm: &Communicator, blocks: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> {
    let p = comm.size();
    if blocks.len() != p {
        return Err(SimError::BadCollectiveArgs {
            op: "alltoallv_bruck",
            reason: format!("expected {} destination blocks, got {}", p, blocks.len()),
        });
    }
    if p == 1 {
        return Ok(blocks);
    }
    let rank = comm.rank();
    let tag = comm.next_op_tag();

    // Items in flight name their words in place: the caller's blocks come
    // first, then each round's received message, and a buffer goes back to
    // the pool as soon as no item still points into it.
    let mut bufs = blocks;
    let mut live: Vec<usize> = bufs.iter().map(|b| usize::from(!b.is_empty())).collect();
    let mut items: Vec<BruckItem> = bufs
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(dest, b)| BruckItem {
            dest,
            src: rank,
            buf: dest,
            words: 0..b.len(),
        })
        .collect();
    let release = |bufs: &mut Vec<Vec<f64>>, live: &mut [usize], buf: usize| {
        live[buf] -= 1;
        if live[buf] == 0 {
            comm.give_buffer(std::mem::take(&mut bufs[buf]));
        }
    };

    let mut d = 1usize;
    let mut step = 0u64;
    while d < p {
        let to = (rank + d) % p;
        let from = (rank + p - d) % p;
        // Forward every item whose remaining hop distance has bit `d` set.
        let (forward, keep): (Vec<_>, Vec<_>) = items
            .into_iter()
            .partition(|item| ((item.dest + p - rank) % p) & d != 0);
        // Serialise: [count, (dest, src, len, payload…)*].
        let words: usize = forward.iter().map(|item| item.words.len()).sum();
        let mut payload = comm.take_buffer(1 + forward.len() * BRUCK_BLOCK_HEADER + words);
        payload.push(forward.len() as f64);
        for item in forward {
            payload.push(item.dest as f64);
            payload.push(item.src as f64);
            payload.push(item.words.len() as f64);
            payload.extend_from_slice(&bufs[item.buf][item.words]);
            release(&mut bufs, &mut live, item.buf);
        }
        comm.send_raw_vec(to, tag + step, payload)?;
        let received = comm.recv_raw(from, tag + step)?;
        items = keep;
        let buf = bufs.len();
        let mut cursor = 1usize;
        let count = received.first().copied().unwrap_or(0.0) as usize;
        for _ in 0..count {
            let dest = received[cursor] as usize;
            let src = received[cursor + 1] as usize;
            let len = received[cursor + 2] as usize;
            cursor += BRUCK_BLOCK_HEADER;
            items.push(BruckItem {
                dest,
                src,
                buf,
                words: cursor..cursor + len,
            });
            cursor += len;
        }
        bufs.push(received);
        live.push(count);
        if count == 0 {
            comm.give_buffer(std::mem::take(&mut bufs[buf]));
        }
        d *= 2;
        step += 1;
    }

    // Every item has arrived: an item that is a whole buffer is handed over
    // as it is, any other is copied out of the message that carried it.
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
    for item in items {
        debug_assert_eq!(
            item.dest, rank,
            "item should have arrived at its destination"
        );
        let whole = live[item.buf] == 1 && item.words == (0..bufs[item.buf].len());
        out[item.src] = if whole {
            live[item.buf] = 0;
            std::mem::take(&mut bufs[item.buf])
        } else {
            let mut data = comm.take_buffer(item.words.len());
            data.extend_from_slice(&bufs[item.buf][item.words]);
            release(&mut bufs, &mut live, item.buf);
            data
        };
    }
    Ok(out)
}

/// A block in flight in [`alltoallv_bruck`]: its final destination, its
/// original source, and where its words lie — a range of one of the
/// collective's buffers.
struct BruckItem {
    dest: usize,
    src: usize,
    buf: usize,
    words: Range<usize>,
}

fn identity_of(op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Max => f64::NEG_INFINITY,
        ReduceOp::Min => f64::INFINITY,
    }
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
