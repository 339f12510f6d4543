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
//! All communicators created on one rank share that rank's *endpoint*: the
//! incoming message queue, the cost counters (whose `time` is the rank's
//! virtual clock) and the fault source.
//!
//! A collective call does not pass its modelled messages over the channels:
//! its members meet once on the run's board (`Communicator::meet`, the
//! `board` module) and replay the rounds (`coll`).  The channels carry the
//! user's point-to-point messages, the closer's wake-ups and failure
//! notifications.

use crate::board::{Board, Closed, Closing, Deposit};
use crate::cost::{CostCounters, SendFailure};
use crate::error::SimError;
use crate::fault::{FaultInjector, SendFaults};
use crate::gate::RankGate;
use crate::message::{Envelope, MatchKey};
use crate::params::MachineParams;
use crate::pool::BufferPool;
use crate::Result;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Context id reserved for failure notifications: when a rank fails — a
/// permanent fault (crash, exhausted retry budget) or a panic — it
/// broadcasts one envelope with this context so every other rank unblocks
/// with a typed error instead of hanging.  The payload carries the root
/// failed rank.
pub(crate) const FAIL_CONTEXT: u64 = u64::MAX;

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
    /// Channel senders to every rank (indexed by world rank).
    pub senders: Arc<Vec<Sender<Envelope>>>,
    /// This rank's receiving channel.
    pub receiver: Receiver<Envelope>,
    /// Messages that arrived but have not been matched by a `recv` yet.
    pub pending: HashMap<MatchKey, VecDeque<(Vec<f64>, f64)>>,
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
    /// broadcasts its failure notification.
    pub failure: Option<SimError>,
    /// Compute-concurrency gate shared by all ranks of the machine (`None`
    /// when rank execution is unbounded).  A rank releases its slot while
    /// blocked in a receive and takes it back before resuming computation.
    pub gate: Option<Arc<RankGate>>,
    /// The machine's buffer pool, shared by every rank.
    pub pool: Arc<BufferPool>,
    /// The run's board, where collective calls meet.
    pub board: Arc<Board>,
}

impl Endpoint {
    /// Record a failure and return the sticky error.  The first failure
    /// wins: it is stored and broadcast to every other rank as a
    /// [`FAIL_CONTEXT`] envelope naming its root rank, so nobody waits on
    /// this rank forever.  A later failure changes nothing and sends nothing.
    fn fail(&mut self, err: SimError) -> SimError {
        if let Some(sticky) = &self.failure {
            return sticky.clone();
        }
        let root = match err {
            SimError::RankFailure { rank } => rank,
            _ => self.world_rank,
        };
        for (dest, tx) in self.senders.iter().enumerate() {
            if dest != self.world_rank {
                let _ = tx.send(Envelope {
                    src: self.world_rank,
                    context: FAIL_CONTEXT,
                    tag: 0,
                    data: vec![root as f64],
                    avail_time: self.counters.time,
                });
            }
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
                let _ = self.senders[world_dest].send(Envelope {
                    src: self.world_rank,
                    context,
                    tag,
                    data,
                    avail_time,
                });
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

    /// Block until a message matching `key` is available and return it.
    ///
    /// Forward progress rests on three facts:
    /// * sends never block, because the channels are unbounded, so a rank
    ///   that owes this one a message can always post it — and the wake-up
    ///   with which the last member of a collective call releases the
    ///   others is such a send;
    /// * a blocked receiver hands its gate permit back before it sleeps, so
    ///   a gated machine always has a rank that can compute;
    /// * a failure — a crash, an exhausted retry budget, a panic
    ///   ([`Communicator::fail_on_panic`]) — is broadcast to every rank once,
    ///   before the failing rank retires, and it is sticky: every later send
    ///   or wait of a failed rank returns the error at once.
    ///
    /// So in a program whose every receive has a matching send, every wait
    /// ends with its message or a [`FAIL_CONTEXT`] envelope: the awaited
    /// sender either reaches its send or fails, and a failure reaches this
    /// rank's channel.  A member waiting at a collective call awaits the
    /// closer's wake: every member either deposits — and the last deposit
    /// sends the wakes — or fails before depositing, which is broadcast.
    ///
    /// That makes every collective call a full rendezvous of its members:
    /// none returns, not even a gather leaf or a scatter root, before all
    /// have deposited.  The argument covers a program only if no member's
    /// arrival at a call waits on a point-to-point message from another
    /// member that has not reached the call yet; a member that sends after
    /// its `gather` to a root that receives before its own `gather` waits
    /// forever.
    ///
    /// When tracing, each time the wait parks the thread it records a wall
    /// instant `simnet`/`park`: the rank-to-rank hand-offs of a run.
    fn wait_for(&mut self, key: MatchKey) -> Result<(Vec<f64>, f64)> {
        if let Some(err) = &self.failure {
            return Err(err.clone());
        }
        loop {
            if let Some(queue) = self.pending.get_mut(&key) {
                if let Some(msg) = queue.pop_front() {
                    if queue.is_empty() {
                        self.pending.remove(&key);
                    }
                    return Ok(msg);
                }
            }
            // Fast path: a message is already queued — no need to touch the
            // compute gate.  Otherwise give the compute slot back while
            // blocked so another rank can run, and take it back before
            // resuming (the released window contains no panic point, so the
            // thread-level RAII permit stays balanced).
            let env = match self.receiver.try_recv() {
                Ok(env) => env,
                Err(_) => {
                    if obs::enabled() {
                        obs::instant("simnet", "park", "rank", self.world_rank as u64);
                    }
                    if let Some(gate) = &self.gate {
                        gate.release();
                    }
                    let received = self.receiver.recv();
                    if let Some(gate) = &self.gate {
                        gate.acquire();
                    }
                    match received {
                        Ok(env) => env,
                        Err(_) => return Err(SimError::ChannelClosed),
                    }
                }
            };
            if env.context == FAIL_CONTEXT {
                // A peer failed.  The collective in progress can no longer
                // complete machine-wide, so abort this wait with the root
                // cause (and broadcast our own notification so ranks waiting
                // on *us* unblock too).
                let root = env.data.first().map(|&v| v as usize).unwrap_or(env.src);
                return Err(self.fail(SimError::RankFailure { rank: root }));
            }
            self.pending
                .entry(env.key())
                .or_default()
                .push_back((env.data, env.avail_time));
        }
    }
}

/// A handle to a group of simulated processors sharing a communication
/// context.
///
/// Cloning a communicator is cheap (it shares the rank endpoint); clones keep
/// independent collective-operation counters, so use the *same* communicator
/// value across ranks for matching collective calls.
#[derive(Clone)]
pub struct Communicator {
    endpoint: Rc<RefCell<Endpoint>>,
    /// World ranks of the members, indexed by local rank.
    members: Arc<Vec<usize>>,
    /// This rank's index within `members`.
    my_index: usize,
    /// Context id distinguishing this communicator's traffic.
    context: u64,
    /// Number of collective/split operations issued so far on this handle.
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
    /// The channel is unbounded, so a send never blocks; it can still fail
    /// with a typed error when a fault plan injects a permanent fault
    /// (crashed rank, exhausted retry budget) on this endpoint.
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
                        let _ = ep.senders[world].send(Envelope {
                            src: WAKE_SRC,
                            context: self.context,
                            tag,
                            data: Vec::new(),
                            avail_time: 0.0,
                        });
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
        for (i, &m) in members.iter().enumerate() {
            self.check_rank(m)?;
            if members[..i].contains(&m) {
                return Err(SimError::BadCollectiveArgs {
                    op: "subgroup",
                    reason: format!("rank {m} is listed twice"),
                });
            }
        }
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
    // Avoid colliding with the reserved world/failure contexts.
    if h == FAIL_CONTEXT || h == WORLD_CONTEXT {
        h ^= 0x5555_5555_5555_5555;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_context_is_deterministic_and_distinguishes_groups() {
        let a = derive_context(1, 7, &[0, 1, 2, 3]);
        let b = derive_context(1, 7, &[0, 1, 2, 3]);
        let c = derive_context(1, 7, &[4, 5, 6, 7]);
        let d = derive_context(1, 8, &[0, 1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, FAIL_CONTEXT);
    }

    #[test]
    fn user_tags_do_not_collide_with_collective_tags() {
        assert!(user_tag(0) > 100 * COLLECTIVE_TAG_STRIDE);
        assert_eq!(user_tag(5) & !USER_TAG_BASE, 5);
    }
}
