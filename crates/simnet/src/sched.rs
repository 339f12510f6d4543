//! The rank scheduler: a run's ranks as fibers on its rank workers, and the
//! inboxes they message through.
//!
//! [`Machine::run`](crate::Machine::run) runs every rank as a
//! [`Fiber`] on one of `w` worker threads: rank `r` on worker `r mod w` for
//! the whole run, worker 0 being the calling thread, so at `w = 1` a run
//! uses no other thread.  A worker resumes its ready ranks one at a time, in
//! the order they became ready.  A rank runs until it finishes or waits for
//! a message that has not arrived; then it suspends, and its worker resumes
//! the next ready rank — a stack switch in user space, no kernel call.
//!
//! **Inboxes.**  Each rank has one: the messages posted to it and not yet
//! received, in arrival order, and the key it waits for while it waits.  A
//! receive takes the first message whose [`MatchKey`] matches, so each
//! `(source, context, tag)` stream is FIFO.  Posting a message a rank
//! waits for makes that rank ready again.
//!
//! **Wakes.**  A ready rank goes on its worker's ready queue.  A worker
//! with no ready rank parks its thread; a wake from another worker unparks
//! it, only then.  That is the one kernel call left, and only between
//! workers.  Both sides meet under the queue's mutex, whose unlock by the
//! waker happens-before the worker's lock, so a resumed rank sees every
//! write its waker made before the wake.
//!
//! **State that travels with a rank.**  A thread's trace installation
//! (`obs`) and its dense worker budget are thread-locals.  The worker swaps
//! a rank's own in around every resume and takes them back when the rank
//! suspends, so each rank records on its own lanes and keeps its own budget
//! whichever ranks share its worker.
//!
//! **Deadlock.**  `live` counts the ranks that are ready or running.  A
//! rank leaves the count when it waits or finishes, and a waker adds the
//! rank it wakes before the waker itself can leave.  So the count reaches
//! zero exactly when every unfinished rank waits and nothing can wake one:
//! whoever brings it there marks the run deadlocked and wakes every waiting
//! rank, whose wait then fails with the list of waiting ranks.

use crate::fiber::{self, Fiber, Stack};
use crate::message::{Envelope, MatchKey};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// Why a wait ended without its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Interrupt {
    /// A failure notification arrived first; it names the root failed rank.
    Failed { root: usize },
    /// Every unfinished rank waited: these did, in rank order.
    Deadlock(Vec<usize>),
    /// The rank is unwinding a panic: its stack must not be switched out
    /// with its worker's panic count raised, so it does not wait.
    Unwinding,
}

#[derive(Default)]
struct Inbox {
    /// Messages posted and not yet received, in arrival order.
    pending: Vec<Envelope>,
    /// What the rank waits for, while it waits.
    waiting: Option<MatchKey>,
    /// The root rank of the first failure the rank was told of.
    failure: Option<usize>,
}

#[derive(Default)]
struct Worker {
    ready: Mutex<Ready>,
    /// The worker's thread, set before it first parks.
    thread: OnceLock<Thread>,
}

#[derive(Default)]
struct Ready {
    queue: VecDeque<usize>,
    /// Whether the worker parked (or is about to) for want of a ready rank.
    idle: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No critical section here can panic half-way, and none runs user code.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One run's ranks, workers and inboxes.
pub(crate) struct Sched {
    inboxes: Vec<Mutex<Inbox>>,
    workers: Vec<Worker>,
    /// Ranks ready or running.  It publishes no data — what a woken rank
    /// reads crosses the inbox and queue mutexes — but its AcqRel updates
    /// order a waker's increment before the waker's own later decrement,
    /// so whoever brings it to zero sees every wake made before.
    live: AtomicUsize,
    /// The ranks that waited when the run deadlocked.
    deadlock: OnceLock<Vec<usize>>,
}

impl Sched {
    /// A run of `ranks` ranks on `workers` workers (at least one, at most
    /// one per rank), every rank ready.
    pub(crate) fn new(ranks: usize, workers: usize) -> Sched {
        let workers = workers.clamp(1, ranks.max(1));
        Sched {
            inboxes: (0..ranks).map(|_| Mutex::default()).collect(),
            workers: (0..workers)
                .map(|w| Worker {
                    ready: Mutex::new(Ready {
                        queue: (w..ranks).step_by(workers).collect(),
                        idle: false,
                    }),
                    thread: OnceLock::new(),
                })
                .collect(),
            live: AtomicUsize::new(ranks),
            deadlock: OnceLock::new(),
        }
    }

    /// Run `body(rank)` for every rank, each on a fiber, and return when
    /// all have returned.  The stacks come from `stacks` and go back to it.
    /// `body` must not unwind: it catches its ranks' panics.
    pub(crate) fn run(&self, stacks: &fiber::StackPool, body: &(dyn Fn(usize) + Sync)) {
        let w = self.workers.len();
        let body = |rank: usize| {
            body(rank);
            self.leave();
        };
        let mut dealt: Vec<Vec<Stack>> = (0..w).map(|_| Vec::new()).collect();
        for (rank, stack) in stacks.take(self.inboxes.len()).into_iter().enumerate() {
            dealt[rank % w].push(stack);
        }
        let mut dealt = dealt.into_iter();
        let own = dealt.next().unwrap_or_default();
        let body = &body;
        let used = std::thread::scope(|scope| {
            let others: Vec<_> = dealt
                .enumerate()
                .map(|(i, stacks)| scope.spawn(move || self.work(i + 1, stacks, body)))
                .collect();
            let mut used = self.work(0, own, body);
            for other in others {
                used.extend(other.join().expect("a rank worker does not panic"));
            }
            used
        });
        stacks.give(used);
    }

    /// Worker `wid`'s loop: resume its ready ranks until all have finished.
    /// Returns their stacks.
    fn work(&self, wid: usize, stacks: Vec<Stack>, body: &(dyn Fn(usize) + Sync)) -> Vec<Stack> {
        let w = self.workers.len();
        let worker = &self.workers[wid];
        worker.thread.get_or_init(std::thread::current);
        let mut ranks: Vec<Rank<'_>> = stacks
            .into_iter()
            .enumerate()
            .map(|(i, stack)| Rank {
                fiber: Fiber::new(stack, body, wid + i * w),
                trace: obs::Installation::default(),
                budget: None,
            })
            .collect();
        let mut left = ranks.len();
        while left > 0 {
            let mut ready = lock(&worker.ready);
            let Some(rank) = ready.queue.pop_front() else {
                ready.idle = true;
                drop(ready);
                std::thread::park();
                continue;
            };
            drop(ready);
            let rank = &mut ranks[rank / w];
            rank.resume();
            if rank.fiber.done() {
                left -= 1;
            }
        }
        ranks.into_iter().map(|r| r.fiber.into_stack()).collect()
    }

    /// Post `env` to rank `dest`'s inbox, waking it if it waits for it.
    pub(crate) fn post(&self, dest: usize, env: Envelope) {
        let mut inbox = lock(&self.inboxes[dest]);
        let wake = inbox.waiting == Some(env.key());
        if wake {
            inbox.waiting = None;
        }
        inbox.pending.push(env);
        drop(inbox);
        if wake {
            self.wake(dest);
        }
    }

    /// Tell rank `dest` that rank `root` failed, waking it if it waits for
    /// anything.  The first failure a rank is told of is the one it reports.
    pub(crate) fn post_failure(&self, dest: usize, root: usize) {
        let mut inbox = lock(&self.inboxes[dest]);
        inbox.failure.get_or_insert(root);
        let wake = inbox.waiting.take().is_some();
        drop(inbox);
        if wake {
            self.wake(dest);
        }
    }

    /// Rank `rank`'s next message matching `key`: taken from its inbox if
    /// there, otherwise the rank suspends until it is posted.  Must be
    /// called on rank `rank`'s fiber.
    ///
    /// A message already there wins over a failure notification; otherwise
    /// a failure the rank was told of, a deadlock, or a panic the rank is
    /// unwinding ends the wait instead.  When tracing, each suspension
    /// records a wall instant `simnet`/`park`.
    pub(crate) fn wait(&self, rank: usize, key: MatchKey) -> Result<(Vec<f64>, f64), Interrupt> {
        loop {
            {
                let mut inbox = lock(&self.inboxes[rank]);
                if let Some(at) = inbox.pending.iter().position(|e| e.key() == key) {
                    let env = inbox.pending.remove(at);
                    return Ok((env.data, env.avail_time));
                }
                if let Some(root) = inbox.failure {
                    return Err(Interrupt::Failed { root });
                }
                if let Some(waiting) = self.deadlock.get() {
                    return Err(Interrupt::Deadlock(waiting.clone()));
                }
                if std::thread::panicking() {
                    return Err(Interrupt::Unwinding);
                }
                inbox.waiting = Some(key);
            }
            if obs::enabled() {
                obs::instant("simnet", "park", "rank", rank as u64);
            }
            self.leave();
            fiber::suspend();
        }
    }

    /// The ranks that waited when the run deadlocked, if it did.
    pub(crate) fn deadlock(&self) -> Option<&[usize]> {
        self.deadlock.get().map(Vec::as_slice)
    }

    /// Make a waiting rank ready: count it live, queue it on its worker,
    /// and unpark that worker if it is idle.
    fn wake(&self, rank: usize) {
        self.live.fetch_add(1, Ordering::AcqRel);
        let worker = &self.workers[rank % self.workers.len()];
        let mut ready = lock(&worker.ready);
        ready.queue.push_back(rank);
        let idle = std::mem::take(&mut ready.idle);
        drop(ready);
        if idle {
            worker
                .thread
                .get()
                .expect("a worker registers before it idles")
                .unpark();
        }
    }

    /// The running rank stops counting as live: it is about to suspend in
    /// a wait, or it has finished.  If it was the last live rank, every
    /// rank still waiting waits for ever: the run is deadlocked, and they
    /// are woken to fail.
    fn leave(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let waiting: Vec<usize> = (0..self.inboxes.len())
            .filter(|&r| lock(&self.inboxes[r]).waiting.is_some())
            .collect();
        if waiting.is_empty() || self.deadlock.set(waiting.clone()).is_err() {
            return;
        }
        for rank in waiting {
            lock(&self.inboxes[rank]).waiting = None;
            self.wake(rank);
        }
    }
}

/// A rank on its worker: its fiber and the thread state it carries.
struct Rank<'a> {
    fiber: Fiber<'a>,
    trace: obs::Installation,
    budget: Option<usize>,
}

impl Rank<'_> {
    /// Resume the rank with its own trace installation and dense budget
    /// installed, and keep them when it suspends.
    fn resume(&mut self) {
        let trace = obs::swap_installation(std::mem::take(&mut self.trace));
        let budget = dense::replace_thread_budget(self.budget);
        self.fiber.resume();
        self.budget = dense::replace_thread_budget(budget);
        self.trace = obs::swap_installation(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(src: usize, tag: u64, word: f64) -> Envelope {
        Envelope {
            src,
            context: 1,
            tag,
            data: vec![word],
            avail_time: 0.0,
        }
    }

    fn key(src: usize, tag: u64) -> MatchKey {
        MatchKey {
            src,
            context: 1,
            tag,
        }
    }

    // A panic inside a fiber aborts the process (see `fiber`), so the rank
    // bodies below record what they see and the tests assert outside.

    #[test]
    fn a_token_rings_at_every_worker_count() {
        let (p, laps) = (5, 3u64);
        for w in [1, 2, 3, 5, 8] {
            let sched = Sched::new(p, w);
            let got: Vec<Mutex<Vec<_>>> = (0..p).map(|_| Mutex::default()).collect();
            let body = |rank: usize| {
                let (next, prev) = ((rank + 1) % p, (rank + p - 1) % p);
                for lap in 0..laps {
                    if rank == 0 {
                        sched.post(next, envelope(rank, lap, lap as f64));
                    }
                    let Ok((data, _)) = sched.wait(rank, key(prev, lap)) else {
                        return;
                    };
                    got[rank].lock().unwrap().push(data[0]);
                    if rank != 0 {
                        sched.post(next, envelope(rank, lap, data[0] + 1.0));
                    }
                }
            };
            sched.run(&fiber::StackPool::default(), &body);
            assert_eq!(sched.deadlock(), None);
            for (rank, got) in got.into_iter().enumerate() {
                // Rank 0 gets each lap's token back after p − 1 increments.
                let hops = if rank == 0 { p - 1 } else { rank - 1 };
                let want: Vec<f64> = (0..laps).map(|lap| (lap as usize + hops) as f64).collect();
                assert_eq!(got.into_inner().unwrap(), want, "w = {w}, rank {rank}");
            }
        }
    }

    #[test]
    fn streams_are_fifo_and_keys_are_kept_apart() {
        let sched = Sched::new(2, 1);
        let order = Mutex::new(Vec::new());
        let body = |rank: usize| {
            if rank == 0 {
                for i in 0..3 {
                    sched.post(1, envelope(0, 7, i as f64));
                    sched.post(1, envelope(0, 8, 10.0 + i as f64));
                }
            } else {
                for tag in [8, 7, 7, 8, 7, 8] {
                    let got = sched.wait(1, key(0, tag)).map(|(data, _)| data[0]);
                    order.lock().unwrap().push(got);
                }
            }
        };
        sched.run(&fiber::StackPool::default(), &body);
        let order: Vec<f64> = order.into_inner().unwrap().into_iter().flatten().collect();
        assert_eq!(order, [10.0, 0.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn each_rank_stays_on_its_worker() {
        let (p, w) = (9, 3);
        let sched = Sched::new(p, w);
        let threads: Vec<Mutex<Vec<_>>> = (0..p).map(|_| Mutex::default()).collect();
        let body = |rank: usize| {
            for round in 0..4u64 {
                let me = std::thread::current().id();
                threads[rank].lock().unwrap().push(me);
                // Everyone posts to its successor, then waits on its
                // predecessor: a hand-off on every worker each round.
                sched.post((rank + 1) % p, envelope(rank, round, 0.0));
                if sched.wait(rank, key((rank + p - 1) % p, round)).is_err() {
                    return;
                }
            }
        };
        sched.run(&fiber::StackPool::default(), &body);
        let seen: Vec<Vec<_>> = threads
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        assert_eq!(
            seen[0][0],
            std::thread::current().id(),
            "worker 0 is the caller"
        );
        for (rank, ids) in seen.iter().enumerate() {
            assert_eq!(ids.len(), 4);
            let home = seen[rank % w][0];
            assert!(
                ids.iter().all(|&id| id == home),
                "rank {rank} left worker {}",
                rank % w
            );
        }
    }

    #[test]
    fn a_failure_wakes_a_waiting_rank_but_a_posted_message_wins() {
        let sched = Sched::new(3, 2);
        let outcome = Mutex::new(Vec::new());
        let body = |rank: usize| match rank {
            0 => {
                // Rank 1 waits for nothing that comes; tell it rank 0 failed.
                sched.post(2, envelope(0, 1, 5.0));
                sched.post_failure(1, 0);
                sched.post_failure(2, 0);
            }
            _ => {
                let got = sched.wait(rank, key(0, 1));
                outcome.lock().unwrap().push((rank, got.map(|(d, _)| d)));
            }
        };
        sched.run(&fiber::StackPool::default(), &body);
        let mut outcome = outcome.into_inner().unwrap();
        outcome.sort_by_key(|(rank, _)| *rank);
        assert_eq!(
            outcome,
            [(1, Err(Interrupt::Failed { root: 0 })), (2, Ok(vec![5.0]))]
        );
    }

    #[test]
    fn waiting_ranks_with_nobody_to_wake_them_are_a_deadlock() {
        for w in [1, 2, 4] {
            let sched = Sched::new(4, w);
            let ended = Mutex::new(Vec::new());
            let body = |rank: usize| {
                // Ranks 0..3 wait on each other in a cycle; rank 3 finishes.
                if rank < 3 {
                    let got = sched.wait(rank, key((rank + 1) % 3, 0));
                    ended.lock().unwrap().push((rank, got));
                }
            };
            sched.run(&fiber::StackPool::default(), &body);
            assert_eq!(sched.deadlock(), Some(&[0, 1, 2][..]), "w = {w}");
            let mut ended = ended.into_inner().unwrap();
            ended.sort_by_key(|(rank, _)| *rank);
            let deadlock = Err(Interrupt::Deadlock(vec![0, 1, 2]));
            assert_eq!(
                ended,
                [(0, deadlock.clone()), (1, deadlock.clone()), (2, deadlock)]
            );
        }
    }
}
