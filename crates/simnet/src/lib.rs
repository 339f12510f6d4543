//! # `simnet` — a simulated distributed-memory machine
//!
//! This crate is the *MPI substitute* for the communication-avoiding TRSM
//! reproduction.  The paper (Wicky, Solomonik, Hoefler, IPDPS 2017) analyses
//! its algorithms in the **α–β–γ model**: the execution time along the
//! critical path is
//!
//! ```text
//! T = α·S + β·W + γ·F
//! ```
//!
//! where `S` is the number of messages, `W` the number of words and `F` the
//! number of flops on the critical path.  `simnet` executes an SPMD program
//! on `p` simulated processors (one fiber each), moves **real data**
//! between them through per-rank inboxes, and simultaneously advances a **virtual clock**
//! per processor using exactly this model, so that every algorithm built on
//! top can be both *verified for correctness* and *measured for S, W, F and
//! T* — which is what the paper's evaluation reports.
//!
//! The crate provides:
//!
//! * [`machine::Machine`] — runs the SPMD closure on every rank, collects
//!   per-rank cost counters into a [`cost::CostReport`].
//! * [`comm::Communicator`] — point-to-point `send`/`recv`,
//!   sub-communicators (`subgroup`), and the virtual-clock bookkeeping.
//! * [`coll`] — the collective operations of Section II-C1 of the paper
//!   (allgather, gather, scatter, reduce-scatter, reduce, allreduce,
//!   broadcast, all-to-all, all-to-all-v, barrier), charged the rounds of
//!   the butterfly / binomial / Bruck schedules whose costs the paper
//!   quotes.  The members of a call meet once on the run's board and
//!   replay those rounds, instead of passing a message per round.
//! * [`params::MachineParams`] — the α, β, γ constants plus the retry budget
//!   used by the fault-injection transport.
//! * [`fault`] — deterministic, seeded fault injection: a [`fault::FaultPlan`]
//!   attached via [`machine::Machine::with_fault_plan`] can drop and delay
//!   messages and stall or crash ranks, with every fault drawn from a
//!   per-rank PRNG so runs are exactly reproducible.  Every message that is
//!   sent is delivered exactly once; a rank that fails (or panics) tells
//!   every other rank, whose receives then return a typed error.
//! * the machine's buffer pool — [`Communicator::take_buffer`] /
//!   [`Communicator::give_buffer`] recycle payloads and temporaries across
//!   ranks and runs ([`machine::Machine::pool_stats`]); a buffer is always
//!   handed out empty, so recycling never changes a result.
//!
//! ## Timing model
//!
//! * `send(dst, data)` charges the sender `α + β·|data|` and stamps the
//!   message with the sender's clock after the charge (its "availability
//!   time").  A collective charges every round of its schedule the same
//!   way, as if each round were such a message.
//! * `recv(src)` advances the receiver's clock to
//!   `max(receiver clock, availability time)` — the transfer time was already
//!   paid by the sender, so a balanced pairwise exchange costs `α + β·n`
//!   per round, matching the collective cost formulas in the paper.
//! * `charge_flops(f)` charges `γ·f`.
//!
//! Message and word counters are kept for both directions; reported `S` and
//! `W` are the per-rank maximum of sent and received, maximised over ranks,
//! which is the paper's "along the critical path" convention.
//!
//! ## Execution model
//!
//! Ranks are fibers — coroutines with a 2 MiB stack each — on
//! [`machine::Machine::rank_workers`] host threads (default: the dense
//! worker pool's width), so at most that many *compute* at once however
//! many ranks a run has.  A rank that waits for a message that has not
//! arrived switches its worker to another ready rank in user space: no
//! kernel call, and no thread per rank, so a run at the paper's 1 024
//! processors needs no more threads than a run at 16.  Each rank's local
//! GEMM/TRSM calls get a proportional share of the pool through
//! [`dense::with_thread_budget`].  Scheduling never leaks into results: all
//! numerics depend only on rank-local state and message payloads, delivered
//! in per-stream FIFO order whatever the schedule, so runs are bitwise
//! deterministic at every worker count.  A program whose ranks all end up
//! waiting on each other fails with [`SimError::Deadlock`] instead of
//! hanging.
//!
//! The stack switch is written per architecture: `simnet` builds on x86_64
//! and aarch64, Linux and macOS, and fails to compile elsewhere.
//!
//! ## Example
//!
//! ```
//! use simnet::{Machine, MachineParams};
//!
//! // 4 ranks compute the sum of their ranks with an allreduce.
//! let out = Machine::new(4, MachineParams::unit())
//!     .run(|comm| {
//!         let mine = vec![comm.rank() as f64];
//!         simnet::coll::allreduce(comm, &mine, simnet::coll::ReduceOp::Sum).unwrap()
//!     })
//!     .unwrap();
//! assert!(out.results.iter().all(|v| v[0] == 6.0));
//! assert!(out.report.max_messages() > 0);
//! ```

mod board;
pub mod coll;
pub mod comm;
pub mod cost;
pub mod error;
pub mod fault;
mod fiber;
pub mod machine;
pub mod message;
pub mod params;
mod pool;
mod sched;

pub use comm::Communicator;
pub use cost::{CostCounters, CostReport};
pub use error::SimError;
pub use fault::{CrashPoint, FaultInjector, FaultPlan, SendFaults};
pub use machine::{Machine, RunOutput};
pub use params::MachineParams;
pub use pool::PoolStats;

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
