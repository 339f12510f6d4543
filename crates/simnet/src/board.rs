//! The board where the members of a collective call meet.
//!
//! One board serves one [`Machine::run`](crate::Machine::run).  Each call is
//! keyed by its communicator's context and its operation tag, which every
//! member computes alike.  A member *deposits* its entry clock, its input
//! and the fault draws of the sends the modelled schedule gives it; the
//! member whose deposit is the last one *closes* the call — the deposits,
//! with whatever the closer computes from them once for everyone, become
//! one read-only [`Closed`] value — and wakes the others; then every
//! member *collects* the closed call, and for an all-to-all-v the column of
//! blocks addressed to it.  The first member to charge the call replays its
//! schedule for every member and stores the charges on the closed call, for
//! the others to look up.  What the members compute from it is `coll`'s
//! business; the board only keeps the call until its last member has
//! collected.
//!
//! **Locking.**  One mutex guards the open and closing calls.  Each
//! critical section inserts, moves or removes a handful of vectors; the
//! closer builds the closed call outside it, and no member ever waits under
//! it — a member that is not the closer waits for its wake in the
//! endpoint's receive, like for any message.  The closer stores the closed
//! call before it sends a single wake, so a woken member always finds it:
//! the store's unlock happens-before the woken member's lock.  The charges
//! are stored once, through the closed call's `OnceLock`: its one
//! initialisation happens-before every member's read of it.  A poisoned
//! lock is recovered rather than propagated: every critical section leaves
//! the map whole.

use crate::cost::CostCounters;
use crate::fault::SendFaults;
use crate::pool::BufferPool;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One member's contribution to a collective call.
#[derive(Debug, Default)]
pub(crate) struct Deposit {
    /// Its virtual clock when it arrived.
    pub clock: f64,
    /// The faults drawn for the sends the modelled schedule gives it, in
    /// schedule order; empty without a fault plan.
    pub faults: Vec<SendFaults>,
    /// Its words, empty where the call takes none from it.
    pub data: Vec<f64>,
    /// Its per-destination blocks (all-to-all-v only), its block to itself
    /// taken out.
    pub blocks: Vec<Vec<f64>>,
    /// The call's scalar arguments as it passed them (root, lengths), so
    /// that every member can check them alike.
    pub args: [usize; 2],
}

/// A call every member has deposited into: what the members read.
pub(crate) struct Closed {
    /// Every member's deposit, by local rank.
    pub deposits: Vec<Deposit>,
    /// Message sizes the closer tabulated for a schedule whose sizes depend
    /// on the members' inputs (the all-to-all-v one); empty otherwise.
    pub words: Vec<usize>,
    /// A result the closer computed once for every member to read (the
    /// allreduce's); empty otherwise.
    pub shared: Vec<f64>,
    /// The first member whose scalar arguments differ from member 0's.
    pub odd_args: Option<usize>,
    /// The first member that brought a different number of words than
    /// member 0.
    pub odd_len: Option<usize>,
    /// Every member's charges for the call, by local rank: replayed once,
    /// by the first member to charge it.
    pub charges: OnceLock<Vec<CostCounters>>,
    /// Where the deposited buffers go once the last member is done.
    pool: Arc<BufferPool>,
}

impl Closed {
    /// The call closed over `deposits`, with the message sizes and the
    /// shared result of `closing` (its columns stay with the caller).  The
    /// members' arguments are compared here, once for all of them.
    pub(crate) fn new(
        deposits: Vec<Deposit>,
        closing: &mut Closing,
        pool: Arc<BufferPool>,
    ) -> Closed {
        let first = &deposits[0];
        let odd_args = deposits.iter().position(|d| d.args != first.args);
        let odd_len = deposits
            .iter()
            .position(|d| d.data.len() != first.data.len());
        Closed {
            words: std::mem::take(&mut closing.words),
            shared: std::mem::take(&mut closing.shared),
            odd_args,
            odd_len,
            charges: OnceLock::new(),
            deposits,
            pool,
        }
    }
}

impl Drop for Closed {
    fn drop(&mut self) {
        let shared = std::mem::take(&mut self.shared);
        for deposit in self.deposits.drain(..) {
            let blocks = deposit.blocks.into_iter();
            for buf in std::iter::once(deposit.data).chain(blocks) {
                // Empty vectors (no input, blocks moved to their
                // destinations) hold nothing worth the pool's lock.
                if buf.capacity() > 0 {
                    self.pool.give(buf);
                }
            }
        }
        if shared.capacity() > 0 {
            self.pool.give(shared);
        }
    }
}

/// What the closer makes of the deposits besides keeping them: the
/// message-size table, for an all-to-all-v the blocks regrouped by
/// destination (`columns[dest][src]`), and a shared result.
#[derive(Default)]
pub(crate) struct Closing {
    pub words: Vec<usize>,
    pub columns: Vec<Vec<Vec<f64>>>,
    pub shared: Vec<f64>,
}

/// One call on the board.
struct Slot {
    /// Deposits so far, by local rank; taken by the closer.
    deposits: Vec<Option<Deposit>>,
    arrived: usize,
    closed: Option<Arc<Closed>>,
    columns: Vec<Vec<Vec<f64>>>,
    collected: usize,
}

/// The calls of one run that some member has entered and some member has
/// not yet collected, keyed by `(context, op tag)`.
#[derive(Default)]
pub(crate) struct Board {
    slots: Mutex<HashMap<(u64, u64), Slot>>,
}

impl Board {
    fn slots(&self) -> MutexGuard<'_, HashMap<(u64, u64), Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit member `me`'s contribution to call `key` of a `p`-member
    /// communicator.  Returns every deposit, by local rank, if this one was
    /// the last: the caller is then the closer and must [`Board::close`] the
    /// call.
    pub(crate) fn deposit(
        &self,
        key: (u64, u64),
        p: usize,
        me: usize,
        deposit: Deposit,
    ) -> Option<Vec<Deposit>> {
        let mut slots = self.slots();
        let slot = slots.entry(key).or_insert_with(|| Slot {
            deposits: (0..p).map(|_| None).collect(),
            arrived: 0,
            closed: None,
            columns: Vec::new(),
            collected: 0,
        });
        slot.deposits[me] = Some(deposit);
        slot.arrived += 1;
        if slot.arrived < p {
            return None;
        }
        let deposits = std::mem::take(&mut slot.deposits);
        Some(
            deposits
                .into_iter()
                .map(|d| d.expect("all deposited"))
                .collect(),
        )
    }

    /// Store the closed call `key`, for its members to collect.
    pub(crate) fn close(
        &self,
        key: (u64, u64),
        deposits: Vec<Deposit>,
        mut closing: Closing,
        pool: Arc<BufferPool>,
    ) {
        let closed = Arc::new(Closed::new(deposits, &mut closing, pool));
        let mut slots = self.slots();
        let slot = slots.get_mut(&key).expect("a call is closed once");
        slot.closed = Some(closed);
        slot.columns = closing.columns;
    }

    /// Member `me`'s view of the closed call `key`: the closed call and its
    /// column of blocks (empty unless the call regrouped blocks).  The last
    /// member to collect takes the call off the board.
    pub(crate) fn collect(
        &self,
        key: (u64, u64),
        p: usize,
        me: usize,
    ) -> (Arc<Closed>, Vec<Vec<f64>>) {
        let mut slots = self.slots();
        let slot = slots.get_mut(&key).expect("collected after its close");
        let closed = Arc::clone(slot.closed.as_ref().expect("woken after its close"));
        let column = slot.columns.get_mut(me).map(std::mem::take);
        slot.collected += 1;
        if slot.collected == p {
            slots.remove(&key);
        }
        (closed, column.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deposit(clock: f64) -> Deposit {
        Deposit {
            clock,
            ..Deposit::default()
        }
    }

    #[test]
    fn the_last_deposit_closes_and_the_last_collect_clears() {
        let board = Board::default();
        let pool = Arc::new(BufferPool::default());
        let key = (7, 1);
        assert!(board.deposit(key, 3, 2, deposit(2.0)).is_none());
        assert!(board.deposit(key, 3, 0, deposit(0.0)).is_none());
        let all = board.deposit(key, 3, 1, deposit(1.0)).expect("closes");
        assert_eq!(
            all.iter().map(|d| d.clock).collect::<Vec<_>>(),
            [0.0, 1.0, 2.0]
        );
        let columns = vec![vec![vec![], vec![1.0]], vec![vec![2.0], vec![]], Vec::new()];
        board.close(
            key,
            all,
            Closing {
                words: vec![5],
                columns,
                ..Closing::default()
            },
            pool,
        );
        let (closed, column) = board.collect(key, 3, 1);
        assert_eq!(
            (closed.words.as_slice(), column),
            (&[5][..], vec![vec![2.0], vec![]])
        );
        board.collect(key, 3, 0);
        assert_eq!(board.slots().len(), 1);
        board.collect(key, 3, 2);
        assert!(board.slots().is_empty(), "the last collect clears the call");
    }

    #[test]
    fn the_deposited_and_shared_buffers_go_back_to_the_pool_with_the_last_reader() {
        let board = Board::default();
        let pool = Arc::new(BufferPool::default());
        let mut data = pool.take(16);
        data.extend_from_slice(&[1.0; 16]);
        let mut shared = pool.take(4);
        shared.extend_from_slice(&[2.0; 4]);
        let key = (3, 4);
        let all = board
            .deposit(
                key,
                1,
                0,
                Deposit {
                    data,
                    ..deposit(0.0)
                },
            )
            .expect("one member closes at once");
        let closing = Closing {
            shared,
            ..Closing::default()
        };
        board.close(key, all, closing, Arc::clone(&pool));
        let (closed, _) = board.collect(key, 1, 0);
        assert_eq!(pool.stats().retained_words, 0);
        drop(closed);
        assert_eq!(pool.stats().retained_words, 20);
    }
}
