//! The ledger a walk keeps: what every rank of a communicator is charged.
//!
//! A *walk* prices an executor without running it.  It lives beside the
//! executor, makes the same decisions through the same helpers, and prices
//! every message on the schedules simnet charges — a collective by its
//! count function (`simnet::coll::*_counts`), a layout change by
//! [`pgrid::redist::move_counts`].  It returns one [`CostCounters`] per rank,
//! indexed by communicator rank; a sub-communicator's walk is charged to
//! the ranks its members are, and a plan quotes the [`critical_path`].
//! Local work is priced by the `dense::flops` function of the kernel that
//! runs it ([`work`]), a fold by the collective's count function, so a
//! walk's flops are the executor's, in the one unit `dense::flops` defines.

use costmodel::Cost;
use dense::FlopCount;
use simnet::CostCounters;

/// `ranks[r] += charged[r]` for every rank.
pub(crate) fn add(ranks: &mut [CostCounters], charged: &[CostCounters]) {
    add_members(ranks, 0.., charged);
}

/// Charge member `m` of a sub-communicator what `charged[m]` says, on the
/// rank the `m`-th of `members` names.
pub(crate) fn add_members(
    ranks: &mut [CostCounters],
    members: impl IntoIterator<Item = usize>,
    charged: &[CostCounters],
) {
    for (r, c) in members.into_iter().zip(charged) {
        ranks[r] = ranks[r].merge(c);
    }
}

/// `n` copies of the charge `c`.
pub(crate) fn times(c: CostCounters, n: usize) -> CostCounters {
    let n = n as u64;
    CostCounters {
        msgs_sent: c.msgs_sent * n,
        msgs_recv: c.msgs_recv * n,
        words_sent: c.words_sent * n,
        words_recv: c.words_recv * n,
        flops: c.flops * n,
        ..c
    }
}

/// A charge of `flops` of local work and no message.
pub(crate) fn work(flops: FlopCount) -> CostCounters {
    CostCounters {
        flops: flops.get(),
        ..CostCounters::default()
    }
}

/// The critical path of per-rank counts: the most messages, words and
/// flops any one rank is charged.
pub(crate) fn critical_path(ranks: impl IntoIterator<Item = CostCounters>) -> Cost {
    ranks.into_iter().fold(Cost::ZERO, |c, r| {
        let (s, w, f) = (r.latency() as f64, r.bandwidth() as f64, r.flops as f64);
        Cost::new(c.latency.max(s), c.bandwidth.max(w), c.flops.max(f))
    })
}
