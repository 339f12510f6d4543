//! Communicators: point-to-point messaging, cost accounting and sub-groups.
//!
//! A [`Communicator`] is a handle to a group of simulated processors.  Each
//! rank's SPMD closure receives the *world* communicator; sub-communicators
//! (rows/columns/fibers of processor grids, the recursive halves of the
//! triangular inversion, the diagonal-block groups of the iterative TRSM) are
//! created with [`Communicator::subgroup`] without any communication —
//! membership must be computable from rank arithmetic alone, which is the
//! case for every algorithm in the paper.
//!
//! All communicators created on one rank share that rank's *endpoint*: its
//! place in the run's scheduler (its inbox), the cost counters (whose
//! `time` is the rank's virtual clock) and the fault source.
//!
//! A rank is a fiber on one of the machine's rank workers (the `sched`
//! module): a receive whose message has not arrived suspends the rank and
//! its worker runs another.  A collective call does not pass its modelled
//! messages through the inboxes: its members meet once on the run's board
//! (`Communicator::meet`, the `board` module) and replay the rounds
//! (`coll`).  The inboxes carry the user's point-to-point messages and the
//! closer's wake-ups; failure notifications are posted beside them.

use crate::board::{Agreed, Board, Closed, Closing, Deposit};
use crate::cost::{CostCounters, SendFailure};
use crate::error::SimError;
use crate::fault::{FaultInjector, SendFaults};
use crate::message::{Envelope, MatchKey};
use crate::params::MachineParams;
use crate::pool::BufferPool;
use crate::sched::{Interrupt, Sched};
use crate::Result;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Context id of the world communicator.
const WORLD_CONTEXT: u64 = 1;

/// Source of the envelope with which the closer of a collective call wakes
/// each other member: no world rank, so a wake never matches a
/// point-to-point receive.
const WAKE_SRC: usize = usize::MAX;

/// Per-rank communication endpoint: everything that is shared between all
/// communicators of one simulated processor.
pub(crate) struct Endpoint {
    /// This rank's index in the world communicator.
    pub world_rank: usize,
    /// Total number of ranks in the machine.
    pub world_size: usize,
    /// The run's scheduler: every rank's inbox, and this rank's fiber.
    pub sched: Arc<Sched>,
    /// α–β–γ parameters.
    pub params: MachineParams,
    /// Cost counters; `counters.time` is the rank's virtual clock (seconds
    /// of model time).
    pub counters: CostCounters,
    /// This rank's fault source; `None` when the machine runs without a
    /// fault plan, in which case every send draws [`SendFaults::none`].
    pub injector: Option<FaultInjector>,
    /// The first failure this rank hit or was told of (sticky): every later
    /// send or receive returns it.  It is set exactly when the rank
    /// broadcasts its failure notification, or when the run deadlocks.
    pub failure: Option<SimError>,
    /// The machine's buffer pool, shared by every rank.
    pub pool: Arc<BufferPool>,
    /// The run's board, where collective calls meet.
    pub board: Arc<Board>,
}

impl Endpoint {
    /// Record a failure and return the sticky error.  The first failure
    /// wins: it is stored and every other rank is told of it, naming its
    /// root rank, so nobody waits on this rank forever.  A later failure
    /// changes nothing and tells nobody.
    fn fail(&mut self, err: SimError) -> SimError {
        if let Some(sticky) = &self.failure {
            return sticky.clone();
        }
        let root = match err {
            SimError::RankFailure { rank } => rank,
            _ => self.world_rank,
        };
        for dest in (0..self.world_size).filter(|&d| d != self.world_rank) {
            self.sched.post_failure(dest, root);
        }
        self.failure = Some(err.clone());
        err
    }

    /// Transmit one envelope, charging the faults this rank's injector draws
    /// for it (none without a fault plan).
    ///
    /// All fault outcomes are decided *here, at send time*, by this rank's
    /// deterministic injector: a dropped message never leaves a receiver
    /// waiting — the sender itself simulates the receive-timeout and the
    /// exponential-backoff resends (charging its own clock), and only the
    /// final successful attempt is physically delivered.  This keeps the
    /// payload stream per match key identical to the fault-free run, which is
    /// what makes transient fault plans bit-transparent to the computation.
    ///
    /// The payload is taken by value and moved into the envelope: a caller
    /// that already owns its buffer pays no copy per message.
    fn send_envelope(
        &mut self,
        world_dest: usize,
        context: u64,
        tag: u64,
        data: Vec<f64>,
    ) -> Result<()> {
        if let Some(err) = &self.failure {
            return Err(err.clone());
        }
        let faults = self
            .injector
            .as_mut()
            .map_or_else(SendFaults::none, FaultInjector::next_send);
        let lane = Some(self.world_rank);
        match self
            .counters
            .charge_send(&self.params, data.len(), faults, lane)
        {
            Ok(avail_time) => {
                let src = self.world_rank;
                self.sched.post(
                    world_dest,
                    Envelope {
                        src,
                        context,
                        tag,
                        data,
                        avail_time,
                    },
                );
                Ok(())
            }
            Err(failure) => Err(self.fail_send(failure, world_dest)),
        }
    }

    /// Fail this rank for a send to `world_dest` that could not be
    /// delivered.
    fn fail_send(&mut self, failure: SendFailure, world_dest: usize) -> SimError {
        let src = self.world_rank;
        self.fail(match failure {
            SendFailure::Crash => SimError::RankFailure { rank: src },
            SendFailure::Timeout { attempts } => SimError::Timeout {
                src,
                dest: world_dest,
                attempts,
            },
        })
    }

    /// Wait until a message matching `key` is in this rank's inbox and take
    /// it.  A rank whose message has not arrived suspends, and its worker
    /// runs another ready rank (`sched`).
    ///
    /// Forward progress rests on four facts:
    /// * sends never block — an inbox is unbounded — so a rank that owes
    ///   this one a message can always post it, and the wake-up with which
    ///   the last member of a collective call releases the others is such a
    ///   post;
    /// * a waiting rank yields its worker, so a worker always runs a ready
    ///   rank if it has one, and a post to a waiting rank makes it ready;
    /// * a failure — a crash, an exhausted retry budget, a panic
    ///   ([`Communicator::fail_on_panic`]) — is told to every rank once,
    ///   before the failing rank retires, and it is sticky: every later send
    ///   or wait of a failed rank returns the error at once;
    /// * when no rank is ready or running and some wait, nothing can wake
    ///   them: the scheduler declares a deadlock, and every waiting rank's
    ///   wait returns [`SimError::Deadlock`] naming them, stickily too.
    ///
    /// So every wait ends.  In a program whose every receive has a matching
    /// send, it ends with its message or a failure: the awaited sender
    /// either reaches its send or fails, and a failure reaches this rank's
    /// inbox.  A member waiting at a collective call awaits the closer's
    /// wake: every member either deposits — and the last deposit sends the
    /// wakes — or fails before depositing, which is told to everyone.
    ///
    /// That makes every collective call a full rendezvous of its members:
    /// none returns, not even a gather leaf or a scatter root, before all
    /// have deposited.  A program in which a member's arrival at a call
    /// waits on a point-to-point message from another member that has not
    /// reached the call yet — a member that sends after its `gather` to a
    /// root that receives before its own `gather` — deadlocks, and the run
    /// returns [`SimError::Deadlock`].
    ///
    /// A rank that would wait while unwinding a panic fails instead: a
    /// fiber must not be switched out mid-unwind, with its worker's panic
    /// count raised.  When tracing, each suspension records a wall instant
    /// `simnet`/`park`: the rank-to-rank hand-offs of a run.
    fn wait_for(&mut self, key: MatchKey) -> Result<(Vec<f64>, f64)> {
        if let Some(err) = &self.failure {
            return Err(err.clone());
        }
        match self.sched.wait(self.world_rank, key) {
            Ok(msg) => Ok(msg),
            // A peer failed: this wait can no longer complete, so it ends
            // with the root cause, and this rank tells everyone in turn so
            // that ranks waiting on *it* end too.
            Err(Interrupt::Failed { root }) => Err(self.fail(SimError::RankFailure { rank: root })),
            Err(Interrupt::Unwinding) => {
                let rank = self.world_rank;
                Err(self.fail(SimError::RankFailure { rank }))
            }
            // Every waiting rank was told at once; nobody is left to tell.
            Err(Interrupt::Deadlock(ranks)) => {
                let err = SimError::Deadlock { ranks };
                self.failure = Some(err.clone());
                Err(err)
            }
        }
    }
}

/// A handle to a group of simulated processors sharing a communication
/// context.
///
/// Cloning a communicator is cheap: a clone shares the rank endpoint and the
/// operation sequence, so a call on a clone is the communicator's next call.
/// Every member must issue its communicator's calls in the same order.
#[derive(Clone)]
pub struct Communicator {
    endpoint: Rc<RefCell<Endpoint>>,
    /// World ranks of the members, indexed by local rank.
    members: Arc<Vec<usize>>,
    /// This rank's index within `members`.
    my_index: usize,
    /// Context id distinguishing this communicator's traffic.
    context: u64,
    /// Collective, split and agree operations issued so far, on any clone.
    op_counter: Rc<RefCell<u64>>,
}

impl Communicator {
    /// Create the world communicator for one rank (used by [`crate::Machine`]).
    pub(crate) fn world(endpoint: Endpoint) -> Self {
        let size = endpoint.world_size;
        let rank = endpoint.world_rank;
        Communicator {
            endpoint: Rc::new(RefCell::new(endpoint)),
            members: Arc::new((0..size).collect()),
            my_index: rank,
            context: WORLD_CONTEXT,
            op_counter: Rc::new(RefCell::new(0)),
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.endpoint.borrow().world_rank
    }

    /// The machine parameters in effect.
    pub fn params(&self) -> MachineParams {
        self.endpoint.borrow().params
    }

    /// Current virtual clock of this rank.
    pub fn clock(&self) -> f64 {
        self.endpoint.borrow().counters.time
    }

    /// Snapshot of this rank's cost counters.
    pub fn counters(&self) -> CostCounters {
        self.endpoint.borrow().counters
    }

    /// Charge `flops` floating-point operations to this rank.
    pub fn charge_flops(&self, flops: u64) {
        let ep = &mut *self.endpoint.borrow_mut();
        ep.counters.charge_flops(&ep.params, flops);
    }

    /// Send `data` to local rank `dest` with a user tag.
    ///
    /// The sender is charged `α + β·len(data)`; the message carries the
    /// sender's clock so the receiver's clock catches up on receipt.  The
    /// payload is copied into a buffer from the machine's pool
    /// ([`Communicator::take_buffer`]); the receiver may hand it back with
    /// [`Communicator::give_buffer`] once it is done with it.
    ///
    /// The receiver's inbox is unbounded, so a send never blocks; it can
    /// still fail with a typed error when a fault plan injects a permanent
    /// fault (crashed rank, exhausted retry budget) on this endpoint.
    pub fn send(&self, dest: usize, tag: u64, data: &[f64]) -> Result<()> {
        self.check_rank(dest)?;
        let mut buf = self.take_buffer(data.len());
        buf.extend_from_slice(data);
        self.endpoint.borrow_mut().send_envelope(
            self.members[dest],
            self.context,
            user_tag(tag),
            buf,
        )
    }

    /// Receive a message with a user tag from local rank `src` (blocking).
    /// Fails with a typed error when a permanent fault makes the expected
    /// message impossible.
    pub fn recv(&self, src: usize, tag: u64) -> Result<Vec<f64>> {
        self.check_rank(src)?;
        let key = MatchKey {
            src: self.members[src],
            context: self.context,
            tag: user_tag(tag),
        };
        let ep = &mut *self.endpoint.borrow_mut();
        let (data, avail) = ep.wait_for(key)?;
        ep.counters
            .charge_recv(data.len(), avail, Some(ep.world_rank));
        Ok(data)
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            return Err(SimError::InvalidRank {
                rank,
                size: self.size(),
            });
        }
        Ok(())
    }

    /// An empty buffer with capacity for at least `len` values, from the
    /// machine's buffer pool: a recycled one if the pool holds one no more
    /// than twice that size, otherwise a fresh allocation.  It is always
    /// empty, so nothing a previous user wrote can be read from it.
    pub fn take_buffer(&self, len: usize) -> Vec<f64> {
        self.endpoint.borrow().pool.take(len)
    }

    /// Hand a buffer this rank no longer needs to the machine's pool, for a
    /// later [`Communicator::take_buffer`] on any rank, in this run or the
    /// next.  Any `Vec<f64>` may be given back; the pool frees it instead if
    /// it never handed out a buffer of that capacity, or already holds as
    /// many of them as were ever out at once.  Never panics, so `Drop`
    /// implementations may call it.
    pub fn give_buffer(&self, buf: Vec<f64>) {
        if let Ok(endpoint) = self.endpoint.try_borrow() {
            endpoint.pool.give(buf);
        }
    }

    /// Report this rank's panic as a failure of this rank: peers blocked on
    /// it get `SimError::RankFailure` from their receive instead of waiting
    /// forever.  A rank that already failed has broadcast its failure and
    /// sends nothing more.
    pub(crate) fn fail_on_panic(&self) {
        let mut endpoint = self.endpoint.borrow_mut();
        let rank = endpoint.world_rank;
        endpoint.fail(SimError::RankFailure { rank });
    }

    /// Allocate a fresh tag for a collective or split operation on this
    /// communicator: every member numbers its calls alike, so the tag names
    /// one call, and back-to-back calls cannot be confused.
    fn next_op_tag(&self) -> u64 {
        let mut c = self.op_counter.borrow_mut();
        *c += 1;
        *c * COLLECTIVE_TAG_STRIDE
    }

    /// Meet the other members of this communicator at one collective call.
    ///
    /// This member draws its faults for `sends` — the `(local destination,
    /// words)` of the sends the call's modelled schedule gives it, in
    /// schedule order — and deposits them with its clock and `deposit`'s
    /// input on the run's board.  If that deposit is the last, this member
    /// closes the call — `close` tabulates what the call needs from all the
    /// deposits — and wakes every other member with one uncharged envelope;
    /// otherwise it waits for its wake in [`Endpoint::wait_for`].  It then
    /// collects the closed call and its column of blocks.  A member alone in
    /// its communicator meets nobody: it closes the call where it deposits,
    /// off the board.
    ///
    /// A member whose draws hold a permanent fault never deposits: it
    /// charges the failed send as a point-to-point send would, fails and
    /// returns the error, and the failure notification ends the wait of
    /// every member that did deposit.
    pub(crate) fn meet(
        &self,
        sends: impl Iterator<Item = (usize, usize)>,
        mut deposit: Deposit,
        close: impl FnOnce(&mut [Deposit]) -> Closing,
    ) -> Result<(Arc<Closed>, Vec<Vec<f64>>)> {
        let tag = self.next_op_tag();
        let key = (self.context, tag);
        let (p, me) = (self.size(), self.my_index);
        let board = {
            let ep = &mut *self.endpoint.borrow_mut();
            if let Some(err) = &ep.failure {
                return Err(err.clone());
            }
            if let Some(injector) = ep.injector.as_mut() {
                for (dest, words) in sends {
                    let faults = injector.next_send();
                    if faults.crash || faults.drops > ep.params.max_retries {
                        let lane = Some(ep.world_rank);
                        let failure = ep
                            .counters
                            .charge_send(&ep.params, words, faults, lane)
                            .expect_err("a permanent fault fails the send");
                        return Err(ep.fail_send(failure, self.members[dest]));
                    }
                    deposit.faults.push(faults);
                }
            }
            deposit.clock = ep.counters.time;
            Arc::clone(&ep.board)
        };
        if p == 1 {
            let mut deposits = vec![deposit];
            let mut closing = close(&mut deposits);
            let column = closing.columns.pop().unwrap_or_default();
            let pool = Arc::clone(&self.endpoint.borrow().pool);
            return Ok((Arc::new(Closed::new(deposits, &mut closing, pool)), column));
        }
        match board.deposit(key, p, me, deposit) {
            Some(mut deposits) => {
                let closing = close(&mut deposits);
                let ep = self.endpoint.borrow();
                board.close(key, deposits, closing, Arc::clone(&ep.pool));
                for (i, &world) in self.members.iter().enumerate() {
                    if i != me {
                        ep.sched.post(
                            world,
                            Envelope {
                                src: WAKE_SRC,
                                context: self.context,
                                tag,
                                data: Vec::new(),
                                avail_time: 0.0,
                            },
                        );
                    }
                }
            }
            None => {
                let wake = MatchKey {
                    src: WAKE_SRC,
                    context: self.context,
                    tag,
                };
                self.endpoint.borrow_mut().wait_for(wake)?;
            }
        }
        Ok(board.collect(key, p, me))
    }

    /// Agree on `f(&key)`, a value every member computes alike: the first
    /// member to arrive computes it, the others read it.  Like a collective
    /// it takes the next operation tag, but it sends and charges nothing.  A
    /// failed rank gets its sticky error, and a member whose key differs
    /// from the first arrival's gets [`SimError::BadCollectiveArgs`].
    ///
    /// `f` is a plain function, so equal keys give equal values.  It must not
    /// communicate: a member that finds `f` running on another rank worker
    /// blocks that worker's thread until `f` returns, which never waits for a
    /// rank; on `f`'s own worker no other rank runs until then.
    pub fn agree<K, T>(&self, key: K, f: fn(&K) -> T) -> Result<T>
    where
        K: PartialEq + Send + Sync + 'static,
        T: Clone + Send + Sync + 'static,
    {
        let tag = self.next_op_tag();
        if let Some(err) = &self.endpoint.borrow().failure {
            return Err(err.clone());
        }
        let board = Arc::clone(&self.endpoint.borrow().board);
        if self.size() == 1 {
            return Ok(f(&key));
        }
        let mut mine = Some(key);
        let agreed = board.agreement((self.context, tag), self.size(), || {
            let key = mine.take().expect("the first arrival keeps its key");
            Arc::new(Agreed::<K, T> {
                key,
                value: OnceLock::new(),
            })
        });
        let agreed = (agreed.downcast::<Agreed<K, T>>().ok())
            .filter(|agreed| mine.is_none_or(|key| key == agreed.key))
            .ok_or_else(|| SimError::BadCollectiveArgs {
                op: "agree",
                reason: format!("rank {}'s key differs from the first's", self.rank()),
            })?;
        Ok(agreed.value.get_or_init(|| f(&agreed.key)).clone())
    }

    /// Add a collective call's charges to this rank's counters: `charges`
    /// holds the counts of the call and the clock it ends at.
    pub(crate) fn apply_charges(&self, charges: &CostCounters) {
        let counters = &mut self.endpoint.borrow_mut().counters;
        *counters = CostCounters {
            time: charges.time,
            ..counters.merge(charges)
        };
    }

    /// Create a sub-communicator from an explicit member list (local ranks of
    /// this communicator, identical on every caller).  Returns
    /// `Err(SimError::InvalidRank)` for a member outside `0..size()`,
    /// `Err(SimError::BadCollectiveArgs)` for a repeated member — on every
    /// caller alike, members or not — and `Err(SimError::NotInGroup)` if
    /// this rank is not in a valid list.
    ///
    /// No communication is performed and no cost is charged; membership must
    /// be derivable from rank arithmetic (true for all grids in the paper).
    pub fn subgroup(&self, members: &[usize]) -> Result<Communicator> {
        let op = self.next_op_tag();
        self.check_members(members)?;
        let my_index = match members.iter().position(|&m| m == self.my_index) {
            Some(i) => i,
            None => return Err(SimError::NotInGroup),
        };
        let world_members: Vec<usize> = members.iter().map(|&m| self.members[m]).collect();
        let context = derive_context(self.context, op, &world_members);
        Ok(Communicator {
            endpoint: Rc::clone(&self.endpoint),
            members: Arc::new(world_members),
            my_index,
            context,
            op_counter: Rc::new(RefCell::new(0)),
        })
    }
}

impl Communicator {
    /// The first entry of a member list that is out of range or repeats an
    /// earlier one, as [`Communicator::subgroup`]'s error, in O(members)
    /// words whatever the communicator's size: one pass while the list
    /// ascends (its entries are then distinct), and only for a list that
    /// stops ascending a sorted copy, in which a repeat sits beside the entry
    /// it repeats.
    fn check_members(&self, members: &[usize]) -> Result<()> {
        let twice = |m: usize| SimError::BadCollectiveArgs {
            op: "subgroup",
            reason: format!("rank {m} is listed twice"),
        };
        let mut prev = None;
        for (at, &m) in members.iter().enumerate() {
            if prev.is_some_and(|p| p >= m) {
                // Every entry before `at` is in range and new; the offender
                // is the earlier of the first repeat and the first entry out
                // of range from `at` on.
                let mut sorted: Vec<(usize, usize)> =
                    members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
                sorted.sort_unstable();
                let repeats = sorted.windows(2).filter(|w| w[0].0 == w[1].0);
                let repeat = repeats.map(|w| w[1].1).min();
                let out = members[at..].iter().position(|&m| m >= self.size());
                return match (out.map(|i| at + i), repeat) {
                    (Some(out), r) if r.is_none_or(|r| out <= r) => self.check_rank(members[out]),
                    (_, Some(r)) => Err(twice(members[r])),
                    (_, None) => Ok(()),
                };
            }
            self.check_rank(m)?;
            prev = Some(m);
        }
        Ok(())
    }
}

/// Tag-space layout: user tags live in the upper half of the tag space so
/// they can never collide with the tags that name collective calls.
const USER_TAG_BASE: u64 = 1 << 63;
/// Collective calls are numbered in steps of this many tags.
const COLLECTIVE_TAG_STRIDE: u64 = 1 << 20;

fn user_tag(tag: u64) -> u64 {
    USER_TAG_BASE | tag
}

/// Deterministically derive a child context id from the parent context, the
/// split operation index and the member list.  All members compute the same
/// value; different member sets get different contexts with overwhelming
/// probability (64-bit FNV-1a).
fn derive_context(parent: u64, op: u64, world_members: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    mix(parent);
    mix(op);
    mix(world_members.len() as u64);
    for &m in world_members {
        mix(m as u64);
    }
    // Avoid colliding with the world's context.
    if h == WORLD_CONTEXT {
        h ^= 0x5555_5555_5555_5555;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::{allreduce, ReduceOp};
    use crate::{FaultPlan, Machine};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn derive_context_is_deterministic_and_distinguishes_groups() {
        let a = derive_context(1, 7, &[0, 1, 2, 3]);
        let b = derive_context(1, 7, &[0, 1, 2, 3]);
        let c = derive_context(1, 7, &[4, 5, 6, 7]);
        let d = derive_context(1, 8, &[0, 1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, WORLD_CONTEXT);
    }

    #[test]
    fn user_tags_do_not_collide_with_collective_tags() {
        assert!(user_tag(0) > 100 * COLLECTIVE_TAG_STRIDE);
        assert_eq!(user_tag(5) & !USER_TAG_BASE, 5);
    }

    #[test]
    fn a_clone_issues_the_next_call_of_its_communicator() {
        let out = Machine::new(2, MachineParams::unit())
            .run(|comm| {
                let x = [comm.rank() as f64 + 1.0];
                let first = allreduce(comm, &x, ReduceOp::Sum).unwrap();
                // Rank 1 issues the second call on a clone, rank 0 on `comm`.
                let clone = comm.clone();
                let on = [comm, &clone][comm.rank()];
                let second = allreduce(on, &[10.0 * x[0]], ReduceOp::Sum).unwrap();
                (first, second)
            })
            .unwrap();
        assert!(out.results.iter().all(|r| *r == (vec![3.0], vec![30.0])));
    }

    /// What `subgroup` reported before its check was O(members): a scan of
    /// the list against a `seen` flag per rank of the communicator.
    fn members_by_scan(size: usize, members: &[usize]) -> std::result::Result<(), String> {
        let mut seen = vec![false; size];
        for &m in members {
            if m >= size {
                return Err(format!("{:?}", SimError::InvalidRank { rank: m, size }));
            }
            if std::mem::replace(&mut seen[m], true) {
                let reason = format!("rank {m} is listed twice");
                let op = "subgroup";
                return Err(format!("{:?}", SimError::BadCollectiveArgs { op, reason }));
            }
        }
        Ok(())
    }

    /// Unsorted, repeated and out-of-range member lists, and their mixes, name
    /// the same first offender with the same error as the scan did; a valid
    /// list gives a group, or `NotInGroup` on a rank it leaves out.
    #[test]
    fn subgroup_names_the_first_bad_member_as_a_scan_would() {
        let size = 6;
        let mut lists: Vec<Vec<usize>> = vec![
            vec![],
            vec![0, 2, 4],
            vec![4, 2, 0],
            vec![1, 1],
            vec![3, 9, 3],
            vec![3, 1, 3, 9],
            vec![9, 9],
            vec![0, 5, 6],
            vec![2, 0, 7, 2],
            vec![5, 4, 3, 2, 1, 0],
            vec![0, 1, 2, 3, 4, 5, 0],
        ];
        let mut x = 12345u64;
        for _ in 0..300 {
            let len = (x >> 60) as usize;
            lists.push(
                (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (x >> 33) as usize % (size + 2)
                    })
                    .collect(),
            );
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(7);
        }
        let got = agree_on(size, 1, |comm| {
            let each = lists.iter().map(|list| match comm.subgroup(list) {
                Ok(group) => Ok(Some(group.size())),
                Err(SimError::NotInGroup) => Ok(None),
                Err(e) => Err(format!("{e:?}")),
            });
            each.collect::<Vec<_>>()
        });
        for (rank, results) in got.into_iter().enumerate() {
            for (list, result) in lists.iter().zip(results) {
                let want = members_by_scan(size, list)
                    .map(|()| list.contains(&rank).then_some(list.len()));
                assert_eq!(result, want, "rank {rank}, members {list:?}");
            }
        }
    }

    /// Every rank's result of `f`, run on `p` ranks and `workers` workers.
    fn agree_on<T: Send>(
        p: usize,
        workers: usize,
        f: impl Fn(&Communicator) -> T + Send + Sync,
    ) -> Vec<T> {
        Machine::new(p, MachineParams::unit())
            .with_rank_workers(workers)
            .run(f)
            .unwrap()
            .results
    }

    #[test]
    fn agree_computes_once_under_two_rank_workers() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        // Holds `f` until a rank of the other worker has started, which then
        // reaches `agree` while `f` runs or just after.  Waiting for a rank
        // is what `f` must not do; it ends here only because the awaited
        // rank counts itself before it reaches `agree`, on its own worker.
        fn square(x: &u64) -> u64 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            while STARTED.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            x * x
        }
        for round in 0..32 {
            STARTED.store(0, Ordering::Relaxed);
            let got = agree_on(8, 2, |comm| {
                STARTED.fetch_add(1, Ordering::Relaxed);
                let a = comm.agree(round, square).unwrap();
                (a, comm.agree(round + 1, square).unwrap())
            });
            assert!(got
                .iter()
                .all(|&v| v == (round * round, (round + 1) * (round + 1))));
        }
        assert_eq!(CALLS.load(Ordering::Relaxed), 64, "one call per agreement");
    }

    #[test]
    fn agree_fails_a_member_whose_key_differs() {
        let got = agree_on(3, 1, |comm| {
            let key = if comm.rank() == 2 { 5 } else { 4 };
            let typed = comm.agree(0_u8, |_| 0.5_f64).map_err(|_| ());
            (comm.agree(key, |k| k + 1), typed)
        });
        assert_eq!((&got[0].0, &got[1].0), (&Ok(5), &Ok(5)));
        assert!(matches!(
            got[2].0,
            Err(SimError::BadCollectiveArgs { op: "agree", .. })
        ));
        assert!(got.iter().all(|(_, typed)| *typed == Ok(0.5)));
        let mistyped = agree_on(2, 1, |comm| match comm.rank() {
            0 => comm.agree(1_u32, |_| 1.0_f64).is_ok(),
            _ => comm.agree(1_u64, |_| 1.0_f64).is_ok(),
        });
        assert_eq!(mistyped, [true, false], "a key of another type differs");
    }

    #[test]
    fn agree_on_one_member_computes_in_place_and_leaves_no_entry() {
        let got = agree_on(1, 1, |comm| {
            let v = comm.agree(3_u64, |k| k * 7);
            (v, Arc::clone(&comm.endpoint.borrow().board))
        });
        assert_eq!(got[0].0, Ok(21));
        assert!(got[0].1.is_empty());
    }

    #[test]
    fn agree_leaves_no_entry_on_the_board_after_the_run() {
        for workers in [1, 2] {
            let boards = agree_on(5, workers, |comm| {
                comm.agree(9_u64, |k| k + 1).unwrap();
                Arc::clone(&comm.endpoint.borrow().board)
            });
            assert!(boards[0].is_empty(), "the fifth reader takes the entry off");
        }
    }

    #[test]
    fn agree_returns_the_sticky_failure_of_a_failed_rank() {
        let out = Machine::new(2, MachineParams::unit())
            .with_fault_plan(FaultPlan::new(1).with_crash(1, 0))
            .run(|comm| {
                if comm.rank() == 1 {
                    assert!(comm.send(0, 0, &[1.0]).is_err(), "rank 1 crashes here");
                }
                comm.agree(2_u64, |k| k * 2)
            })
            .unwrap();
        assert_eq!(out.results[0], Ok(4));
        assert_eq!(out.results[1], Err(SimError::RankFailure { rank: 1 }));
    }
}
