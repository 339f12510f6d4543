//! The simulated machine: runs the SPMD program on its ranks, collects costs.

use crate::board::Board;
use crate::comm::{Communicator, Endpoint};
use crate::cost::{CostCounters, CostReport};
use crate::error::SimError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::fiber::StackPool;
use crate::params::MachineParams;
use crate::pool::{BufferPool, PoolStats};
use crate::sched::Sched;
use crate::Result;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A simulated machine with `p` processors and α–β–γ parameters.
///
/// [`Machine::run`] executes one SPMD closure on every processor, moving
/// real data between them, and returns both the per-rank results and the
/// aggregated [`CostReport`].
///
/// Each rank runs as a fiber — a coroutine with a stack of its own — on one
/// of `rank_workers` host threads (default [`dense::dense_threads`],
/// override with [`Machine::with_rank_workers`]): rank `r` on worker
/// `r mod rank_workers`, the calling thread being worker 0.  A rank that
/// waits for a message that has not arrived switches its worker to another
/// ready rank in user space, so at most `rank_workers` ranks compute at
/// once and a hand-off costs no kernel call.  Each rank's local dense
/// kernels get a proportional share of the worker pool via
/// [`dense::with_thread_budget`].  All of this only affects scheduling,
/// never results — runs are bitwise deterministic at every worker count.
///
/// A machine can optionally carry a [`FaultPlan`]
/// ([`Machine::with_fault_plan`]): every run then injects the plan's
/// deterministic fault schedule into the transport.
///
/// A machine owns one buffer pool and one pool of rank stacks, shared by
/// its clones, that outlive each run: message payloads, collective
/// temporaries and whatever else ranks hand back through
/// [`Communicator::give_buffer`] are reused by later takes, in this run or
/// the next, instead of being freed and faulted in again
/// ([`Machine::pool_stats`]; the retention rule is in the crate README),
/// and a warm run maps no stack.
#[derive(Debug, Clone)]
pub struct Machine {
    procs: usize,
    params: MachineParams,
    faults: Option<FaultPlan>,
    rank_workers: Option<usize>,
    pool: Arc<BufferPool>,
    stacks: Arc<StackPool>,
}

/// The outcome of a machine run: one result per rank plus the cost report.
#[derive(Debug, Clone)]
pub struct RunOutput<T> {
    /// Value returned by each rank's closure, indexed by world rank.
    pub results: Vec<T>,
    /// Aggregated communication/computation costs.
    pub report: CostReport,
}

impl Machine {
    /// Create a machine with `procs` processors.
    pub fn new(procs: usize, params: MachineParams) -> Self {
        Machine {
            procs,
            params,
            faults: None,
            rank_workers: None,
            pool: Arc::default(),
            stacks: Arc::default(),
        }
    }

    /// Attach a deterministic fault plan: every subsequent [`Machine::run`]
    /// injects exactly the same seeded fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override how many host threads run the ranks, and so how many ranks
    /// may *compute* concurrently (the default is [`dense::dense_threads`],
    /// i.e. the dense worker pool's width; a run never uses more workers
    /// than it has ranks).  At one worker a run uses only the calling
    /// thread.  This is a scheduling knob only: results are bitwise
    /// identical at every value, so tests can compare `with_rank_workers(1)`
    /// against `with_rank_workers(4)` in one process regardless of
    /// `DENSE_THREADS`.
    pub fn with_rank_workers(mut self, workers: usize) -> Self {
        self.rank_workers = Some(workers.max(1));
        self
    }

    /// The effective bound on concurrently-computing ranks.
    pub fn rank_workers(&self) -> usize {
        self.rank_workers
            .unwrap_or_else(dense::dense_threads)
            .max(1)
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The machine parameters.
    pub fn params(&self) -> MachineParams {
        self.params
    }

    /// What the buffer pool has done since the machine was created: takes
    /// served from it, takes that allocated, and the words it holds now.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Run an SPMD closure on every processor and collect results and costs.
    ///
    /// The closure receives this rank's world [`Communicator`].  If any rank
    /// panics, it counts as a failure of that rank — its peers' receives
    /// return [`SimError::RankFailure`] instead of waiting forever — and the
    /// run returns [`SimError::RankPanicked`] naming the first rank that
    /// panicked.  If every unfinished rank waits for a message no rank can
    /// send, their waits return [`SimError::Deadlock`] and so does the run,
    /// naming the ranks that waited.
    pub fn run<T, F>(&self, f: F) -> Result<RunOutput<T>>
    where
        T: Send,
        F: Fn(&Communicator) -> T + Send + Sync,
    {
        if self.procs == 0 {
            return Err(SimError::EmptyMachine);
        }
        let p = self.procs;
        let params = self.params;

        // Give each rank's local dense kernels a proportional share of the
        // worker pool.
        let workers = self.rank_workers();
        let share = (workers / p.min(workers)).max(1);
        let sched = Arc::new(Sched::new(p, workers));
        // Where this run's collective calls meet.
        let board = Arc::new(Board::default());

        // The first rank to panic: it is recorded before the rank broadcasts
        // its failure, and a rank that panics because of that failure can
        // only do so after receiving the broadcast.
        let first_panic = OnceLock::new();
        let outputs: Vec<Mutex<Option<(T, CostCounters)>>> =
            (0..p).map(|_| Mutex::new(None)).collect();

        // Ranks record into the trace of whoever called `run`.
        let recorder = obs::current();
        let rank_body = |rank: usize| {
            let body = || {
                // One span per rank: each rank records on its own wall
                // lane, so the trace shows which ranks actually ran
                // concurrently.
                let _span = obs::span_with("simnet", "rank", "rank", rank as u64);
                let endpoint = Endpoint {
                    world_rank: rank,
                    world_size: p,
                    sched: Arc::clone(&sched),
                    params,
                    counters: CostCounters::default(),
                    injector: self
                        .faults
                        .as_ref()
                        .map(|plan| FaultInjector::new(plan, rank)),
                    failure: None,
                    pool: Arc::clone(&self.pool),
                    board: Arc::clone(&board),
                };
                let comm = Communicator::world(endpoint);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    dense::with_thread_budget(share, || f(&comm))
                }));
                match result {
                    Ok(value) => {
                        let out = Some((value, comm.counters()));
                        *outputs[rank].lock().unwrap_or_else(PoisonError::into_inner) = out;
                    }
                    Err(_) => {
                        let _ = first_panic.set(rank);
                        comm.fail_on_panic();
                    }
                }
            };
            match &recorder {
                Some(recorder) => recorder.record(body),
                None => body(),
            }
        };
        sched.run(&self.stacks, &rank_body);
        self.pool.end_run();

        if let Some(ranks) = sched.deadlock() {
            return Err(SimError::Deadlock {
                ranks: ranks.to_vec(),
            });
        }
        if let Some(&rank) = first_panic.get() {
            return Err(SimError::RankPanicked { rank });
        }
        let (results, counters) = outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("a rank that did not panic returned")
            })
            .unzip();
        Ok(RunOutput {
            results,
            report: CostReport::new(counters, params),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_machine_is_rejected() {
        let m = Machine::new(0, MachineParams::unit());
        assert!(matches!(m.run(|_| ()), Err(SimError::EmptyMachine)));
    }

    #[test]
    fn single_rank_runs_without_communication() {
        let m = Machine::new(1, MachineParams::unit());
        let out = m.run(|comm| comm.rank() * 10).unwrap();
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.report.max_messages(), 0);
        assert_eq!(out.report.max_words(), 0);
    }

    #[test]
    fn ring_pass_moves_data_and_charges_costs() {
        let p = 8;
        let m = Machine::new(p, MachineParams::unit());
        let out = m
            .run(|comm| {
                let rank = comm.rank();
                let next = (rank + 1) % comm.size();
                let prev = (rank + comm.size() - 1) % comm.size();
                comm.send(next, 0, &[rank as f64; 4]).unwrap();
                let got = comm.recv(prev, 0).unwrap();
                got[0] as usize
            })
            .unwrap();
        for rank in 0..p {
            assert_eq!(out.results[rank], (rank + p - 1) % p);
        }
        // Each rank sent exactly one 4-word message and received one.
        for c in &out.report.per_rank {
            assert_eq!(c.msgs_sent, 1);
            assert_eq!(c.msgs_recv, 1);
            assert_eq!(c.words_sent, 4);
            assert_eq!(c.words_recv, 4);
        }
        assert_eq!(out.report.max_messages(), 1);
        assert_eq!(out.report.max_words(), 4);
        // Unit params: one message of 4 words costs 1 + 4 = 5 time units on
        // the sender; the matching receive happens concurrently.
        assert!((out.report.virtual_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn flops_are_charged_to_clock() {
        let params = MachineParams {
            gamma: 2.0,
            ..MachineParams::unit()
        };
        let m = Machine::new(2, params);
        let out = m
            .run(|comm| {
                comm.charge_flops(10);
                comm.clock()
            })
            .unwrap();
        assert_eq!(out.results, vec![20.0, 20.0]);
        assert_eq!(out.report.max_flops(), 10);
    }

    #[test]
    fn clock_propagates_through_messages() {
        // Rank 0 does a lot of local work, then sends to rank 1; rank 1's
        // clock must catch up to rank 0's send time.
        let m = Machine::new(2, MachineParams::unit());
        let out = m
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.charge_flops(100);
                    comm.send(1, 0, &[1.0]).unwrap();
                } else {
                    let _ = comm.recv(0, 0).unwrap();
                }
                comm.clock()
            })
            .unwrap();
        // Sender: 100 flops + (α + β·1) = 102.  Receiver clock catches up to 102.
        assert!((out.results[0] - 102.0).abs() < 1e-12);
        assert!((out.results[1] - 102.0).abs() < 1e-12);
    }

    #[test]
    fn a_send_then_flops_charges_comm_plus_comp() {
        // Rank 0 sends 9 words (α + β·9 = 10) and then charges 6 flops: the
        // flops start when the send's charge ends, so its clock reads
        // 10 + 6.  The receiver's clock catches up to the send's 10.
        let out = Machine::new(2, MachineParams::unit())
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, &[0.0; 9]).unwrap();
                    comm.charge_flops(6);
                } else {
                    comm.recv(0, 0).unwrap();
                }
                comm.clock()
            })
            .unwrap();
        assert_eq!(out.results, vec![16.0, 10.0]);
    }

    #[test]
    fn rank_workers_do_not_change_results_or_virtual_time() {
        let run = |workers: usize| {
            Machine::new(6, MachineParams::unit())
                .with_rank_workers(workers)
                .run(ring_program)
                .unwrap()
        };
        let one = run(1);
        for workers in [2, 4, 16] {
            let w = run(workers);
            assert_eq!(one.results, w.results);
            for (a, b) in one.report.per_rank.iter().zip(w.report.per_rank.iter()) {
                assert_eq!(a, b, "counters diverged at {workers} rank workers");
            }
        }
    }

    #[test]
    fn rank_workers_accessor_clamps_and_defaults() {
        let m = Machine::new(4, MachineParams::unit());
        assert!(m.rank_workers() >= 1);
        assert_eq!(m.clone().with_rank_workers(3).rank_workers(), 3);
        assert_eq!(m.with_rank_workers(0).rank_workers(), 1);
    }

    /// Rank 2 panics while ranks 0, 1 and 3 wait for a message from it.
    /// The run names rank 2, and every blocked peer's receive returned
    /// rank 2's failure instead of hanging or panicking in turn.
    fn assert_panic_of_rank_2_reported(m: Machine) {
        let peers = std::sync::Mutex::new(Vec::new());
        let res: Result<RunOutput<()>> = m.run(|comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
            let got = comm.recv(2, 0);
            peers.lock().unwrap().push((comm.rank(), got.err()));
        });
        assert!(
            matches!(res, Err(SimError::RankPanicked { rank: 2 })),
            "{res:?}"
        );
        let mut peers = peers.into_inner().unwrap();
        peers.sort_by_key(|&(rank, _)| rank);
        let failure = Some(SimError::RankFailure { rank: 2 });
        assert_eq!(
            peers,
            [(0, failure.clone()), (1, failure.clone()), (3, failure)]
        );
    }

    #[test]
    fn a_panic_mid_collective_unblocks_every_rank_on_its_worker() {
        use crate::coll::{allreduce, barrier, ReduceOp};
        // One worker runs all four ranks; at two, rank 2 shares its worker
        // with rank 0.  The panicking rank must hand its worker on after it
        // unwinds, and its failure must end the waits of the ranks that
        // already sit in the collective it never joins.
        for workers in [1, 2] {
            let m = Machine::new(4, MachineParams::unit()).with_rank_workers(workers);
            assert_panic_of_rank_2_reported(m.clone());
            let peers = std::sync::Mutex::new(Vec::new());
            let res = m.run(|comm| {
                barrier(comm).unwrap();
                if comm.rank() == 2 {
                    panic!("between two collectives");
                }
                let got = allreduce(comm, &[1.0], ReduceOp::Sum);
                peers.lock().unwrap().push((comm.rank(), got.err()));
            });
            assert!(
                matches!(res, Err(SimError::RankPanicked { rank: 2 })),
                "{res:?}"
            );
            let mut peers = peers.into_inner().unwrap();
            peers.sort_by_key(|&(rank, _)| rank);
            let failure = Some(SimError::RankFailure { rank: 2 });
            assert_eq!(
                peers,
                [(0, failure.clone()), (1, failure.clone()), (3, failure)],
                "{workers} rank workers"
            );
        }
    }

    /// The crate README's mis-ordered program: rank 1 calls `gather` and
    /// then sends to the root, while the root receives before its own
    /// `gather`.  Nothing can end either wait.
    #[test]
    fn a_deadlocked_program_fails_instead_of_hanging() {
        use crate::coll::gather;
        for workers in [1, 4] {
            let errors = std::sync::Mutex::new(Vec::new());
            let res = Machine::new(4, MachineParams::unit())
                .with_rank_workers(workers)
                .run(|comm| {
                    let first = if comm.rank() == 0 {
                        comm.recv(1, 0).err()
                    } else {
                        gather(comm, 0, &[1.0]).err()
                    };
                    // The error is sticky: the program's next step fails
                    // at once instead of waiting again.
                    let second = if comm.rank() == 1 {
                        comm.send(0, 0, &[1.0]).err()
                    } else {
                        gather(comm, 0, &[1.0]).err()
                    };
                    errors.lock().unwrap().push((comm.rank(), first, second));
                });
            let deadlock = SimError::Deadlock {
                ranks: vec![0, 1, 2, 3],
            };
            assert_eq!(res.err(), Some(deadlock.clone()), "{workers} rank workers");
            let mut errors = errors.into_inner().unwrap();
            errors.sort_by_key(|&(rank, ..)| rank);
            let both = (Some(deadlock.clone()), Some(deadlock));
            for (rank, first, second) in errors {
                assert_eq!((first, second), both.clone(), "rank {rank}");
            }
        }
    }

    #[test]
    fn a_rank_gets_a_threads_stack() {
        /// Recurse through `depth` frames of 64 KiB each, and meet the other
        /// ranks at the deepest one.
        fn down(comm: &Communicator, depth: usize) -> u64 {
            let frame = std::hint::black_box([depth as u8; 64 << 10]);
            if depth == 0 {
                crate::coll::barrier(comm).unwrap();
                return 0;
            }
            down(comm, depth - 1) + std::hint::black_box(frame[7]) as u64
        }
        for workers in [1, 4] {
            // 20 frames: 1.25 MiB of stack on every rank, and a hand-off
            // between ranks at the deepest point.
            let out = Machine::new(4, MachineParams::unit())
                .with_rank_workers(workers)
                .run(|comm| down(comm, 20))
                .unwrap();
            assert_eq!(out.results, vec![(1..=20).sum::<u64>(); 4]);
        }
    }

    #[test]
    fn the_papers_processor_counts_run_on_one_worker() {
        use crate::coll::{allreduce, ReduceOp};
        let p = 1024;
        let out = Machine::new(p, MachineParams::unit())
            .with_rank_workers(1)
            .run(|comm| {
                let me = comm.rank() as f64;
                let world = allreduce(comm, &[me], ReduceOp::Sum).unwrap()[0];
                let first = comm.rank() / 4 * 4;
                let four = comm.subgroup(&[first, first + 1, first + 2, first + 3]);
                let group = allreduce(&four.unwrap(), &[me], ReduceOp::Sum).unwrap()[0];
                (world, group)
            })
            .unwrap();
        for (rank, &(world, group)) in out.results.iter().enumerate() {
            let first = (rank / 4 * 4) as f64;
            assert_eq!(world, (p * (p - 1) / 2) as f64);
            assert_eq!(group, 4.0 * first + 6.0, "rank {rank}");
        }
    }

    #[test]
    fn panic_in_one_rank_is_reported_not_hung() {
        assert_panic_of_rank_2_reported(
            Machine::new(4, MachineParams::unit()).with_rank_workers(4),
        );
    }

    #[test]
    fn out_of_range_ranks_are_rejected() {
        let m = Machine::new(2, MachineParams::unit());
        let out = m
            .run(|comm| {
                let send_err = comm.send(5, 0, &[1.0]).is_err();
                let recv_err = comm.recv(9, 0).is_err();
                send_err && recv_err
            })
            .unwrap();
        assert_eq!(out.results, vec![true, true]);
    }

    #[test]
    fn tags_keep_messages_apart() {
        let m = Machine::new(2, MachineParams::unit());
        let out = m
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, &[1.0]).unwrap();
                    comm.send(1, 2, &[2.0]).unwrap();
                    0.0
                } else {
                    // Receive in the opposite order of sending.
                    let two = comm.recv(0, 2).unwrap();
                    let one = comm.recv(0, 1).unwrap();
                    two[0] * 10.0 + one[0]
                }
            })
            .unwrap();
        assert_eq!(out.results[1], 21.0);
    }

    #[test]
    fn subgroups_communicate_independently() {
        let m = Machine::new(4, MachineParams::unit());
        let out = m
            .run(|comm| {
                // Two pairs: {0,1} and {2,3}; each pair exchanges its ranks.
                let pair = comm.rank() / 2 * 2;
                let sub = comm.subgroup(&[pair, pair + 1]).unwrap();
                assert_eq!(sub.size(), 2);
                let partner = 1 - sub.rank();
                sub.send(partner, 0, &[comm.rank() as f64]).unwrap();
                sub.recv(partner, 0).unwrap()[0] as usize
            })
            .unwrap();
        assert_eq!(out.results, vec![1, 0, 3, 2]);
    }

    #[test]
    fn subgroup_membership_errors() {
        let m = Machine::new(3, MachineParams::unit());
        let out = m.run(|comm| comm.subgroup(&[0, 1]).is_err()).unwrap();
        assert_eq!(out.results, vec![false, false, true]);
    }

    /// Ring exchange used by the fault-mode tests below.
    fn ring_program(comm: &Communicator) -> Vec<f64> {
        let rank = comm.rank();
        let p = comm.size();
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        for round in 0..4u64 {
            comm.send(next, round, &[rank as f64, round as f64, 42.0])
                .unwrap();
            let got = comm.recv(prev, round).unwrap();
            assert_eq!(got[0] as usize, prev);
        }
        crate::coll::allreduce(comm, &[rank as f64 + 1.0], crate::coll::ReduceOp::Sum).unwrap()
    }

    #[test]
    fn transient_faults_are_bit_transparent() {
        let p = 6;
        let clean = Machine::new(p, MachineParams::unit())
            .run(ring_program)
            .unwrap();
        let plan = FaultPlan::new(0xfeed_beef)
            .with_drops(0.4, 2)
            .with_delays(0.3, 5.0)
            .with_stalls(0.2, 3.0);
        assert!(plan.is_transient(&MachineParams::unit()));
        let faulty = Machine::new(p, MachineParams::unit())
            .with_fault_plan(plan)
            .run(ring_program)
            .unwrap();
        assert_eq!(clean.results, faulty.results);
        // Something actually happened: drops were retried.
        assert!(
            faulty.report.total_retries() > 0,
            "fault plan injected nothing"
        );
        assert_eq!(faulty.report.total_timeouts(), 0);
    }

    #[test]
    fn fault_runs_are_deterministic_across_repeats() {
        let p = 5;
        let plan = FaultPlan::new(0x5eed)
            .with_drops(0.5, 2)
            .with_delays(0.4, 2.0);
        let runs: Vec<_> = (0..3)
            .map(|_| {
                Machine::new(p, MachineParams::unit())
                    .with_fault_plan(plan.clone())
                    .run(ring_program)
                    .unwrap()
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.results, runs[0].results);
            assert_eq!(r.report.per_rank, runs[0].report.per_rank);
        }
    }

    #[test]
    fn crashed_rank_surfaces_rank_failure_without_hanging() {
        let p = 4;
        let plan = FaultPlan::new(7).with_crash(2, 1);
        let out = Machine::new(p, MachineParams::unit())
            .with_fault_plan(plan)
            .run(|comm| {
                let rank = comm.rank();
                let next = (rank + 1) % comm.size();
                let prev = (rank + comm.size() - 1) % comm.size();
                let mut err = None;
                for round in 0..4u64 {
                    if let Err(e) = comm.send(next, round, &[rank as f64]) {
                        err = Some(e);
                        break;
                    }
                    match comm.recv(prev, round) {
                        Ok(_) => {}
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                err
            })
            .unwrap();
        // Every rank observed a typed failure rooted at rank 2.
        for (rank, res) in out.results.iter().enumerate() {
            let err = res
                .as_ref()
                .unwrap_or_else(|| panic!("rank {rank} finished cleanly despite the crash"));
            assert!(
                matches!(err, SimError::RankFailure { rank: 2 }),
                "rank {rank} got {err:?}"
            );
        }
    }

    #[test]
    fn exhausted_retry_budget_surfaces_timeout() {
        let p = 2;
        // Every send is dropped up to 5 times but the budget is 1 retry.
        let plan = FaultPlan::new(99).with_drops(1.0, 5);
        let params = MachineParams::unit().with_retry(1.0, 1);
        assert!(!plan.is_transient(&params));
        let out = Machine::new(p, params)
            .with_fault_plan(plan)
            .run(|comm| {
                let partner = 1 - comm.rank();
                let send = comm.send(partner, 0, &[1.0]);
                let recv = comm.recv(partner, 0);
                (send.err(), recv.err())
            })
            .unwrap();
        let mut saw_timeout = false;
        for (send_err, recv_err) in &out.results {
            if let Some(SimError::Timeout { attempts, .. }) = send_err {
                assert!(*attempts >= 1);
                saw_timeout = true;
            }
            assert!(send_err.is_some() || recv_err.is_some());
        }
        assert!(saw_timeout, "no rank hit the retry budget");
        assert!(out.report.total_timeouts() > 0);
    }

    #[test]
    fn negative_fault_maxima_never_run_time_backwards() {
        // Every send stalls and is delayed by a draw scaled by a negative
        // maximum.  Rank 0 computes first, so rank 1's clock trails it and
        // only the message can move rank 1's clock forward.
        let plan = FaultPlan::new(3)
            .with_stalls(1.0, -5.0)
            .with_delays(1.0, -5.0);
        let out = Machine::new(2, MachineParams::unit())
            .with_fault_plan(plan)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.charge_flops(100);
                }
                (0..4u64)
                    .map(|round| {
                        let before = comm.clock();
                        if comm.rank() == 0 {
                            comm.send(1, round, &[1.0]).unwrap();
                        } else {
                            comm.recv(0, round).unwrap();
                        }
                        (before, comm.clock())
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap();
        let (sends, recvs) = (&out.results[0], &out.results[1]);
        for (round, (&(before, sent), &(_, received))) in sends.iter().zip(recvs).enumerate() {
            assert!(sent >= before, "round {round}: a send ran the clock back");
            assert!(
                received >= sent,
                "round {round}: received at {received}, before the send ended at {sent}"
            );
        }
    }

    #[test]
    fn machine_without_plan_reports_zero_fault_counters() {
        let out = Machine::new(4, MachineParams::unit())
            .run(ring_program)
            .unwrap();
        assert_eq!(out.report.total_retries(), 0);
        assert_eq!(out.report.total_timeouts(), 0);
    }

    #[test]
    fn world_rank_mapping_in_subgroup() {
        let m = Machine::new(4, MachineParams::unit());
        let out = m
            .run(|comm| {
                // Local rank r of the subgroup is world rank members[r]: each
                // member tells its partner its world rank.
                let Ok(s) = comm.subgroup(&[1, 3]) else {
                    return None;
                };
                assert_eq!(s.world_rank(), comm.rank());
                let partner = 1 - s.rank();
                s.send(partner, 0, &[comm.rank() as f64]).unwrap();
                let partner_world = s.recv(partner, 0).unwrap()[0] as usize;
                Some((s.rank(), partner_world))
            })
            .unwrap();
        assert_eq!(out.results, vec![None, Some((0, 3)), None, Some((1, 1))]);
    }

    #[test]
    fn subgroup_rejects_out_of_range_and_repeated_members_on_every_rank() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let out_of_range = comm.subgroup(&[0, 7]).err();
                let repeated = comm.subgroup(&[0, 0, 1]).err();
                // Both calls used up one operation on every rank alike, so
                // a later subgroup still lines up.
                let all = comm.subgroup(&[0, 1, 2, 3]).unwrap();
                let sum = crate::coll::allreduce(&all, &[1.0], crate::coll::ReduceOp::Sum);
                (out_of_range, repeated, sum.unwrap()[0])
            })
            .unwrap();
        let expected = (
            Some(SimError::InvalidRank { rank: 7, size: 4 }),
            Some(SimError::BadCollectiveArgs {
                op: "subgroup",
                reason: "rank 0 is listed twice".into(),
            }),
            4.0,
        );
        assert_eq!(out.results, vec![expected; 4]);
    }
}
