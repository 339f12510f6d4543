//! Golden replay table for the collectives.
//!
//! Every public collective runs on p ∈ {1, 2, 3, 4, 5, 8, 16} ranks under
//! no fault plan and four transient ones (drops, delays, stalls, all
//! three), twice in a row with staggered entry clocks, a non-zero root and
//! ragged lengths where they apply.  Each rank's line holds its
//! `CostCounters` as integers, its final clock as `f64::to_bits` and a
//! checksum of the bits of everything it got back.  The committed table
//! `collective_golden.txt` was generated from message-passing collectives
//! (one real message per modelled round); the test regenerates it in
//! process and compares byte for byte, so the counters, the virtual clocks
//! and the result bits of every schedule are pinned, faults included.
//!
//! On a mismatch the test writes the table it got to
//! `collective_golden.txt` in cargo's per-target temporary directory and
//! names that path; a change that moves a row on purpose copies it over the
//! committed table, and the table's diff is then the review.

use dense::gen::SplitMix64;
use simnet::coll::{self, ReduceOp};
use simnet::{Communicator, FaultPlan, Machine, MachineParams, Result};
use std::fmt::Write as _;

const TABLE: &str = include_str!("collective_golden.txt");

const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];

const COLLECTIVES: [&str; 11] = [
    "barrier",
    "allgather",
    "allgatherv",
    "gather",
    "scatter",
    "reduce_scatter",
    "reduce",
    "allreduce",
    "bcast",
    "alltoall",
    "alltoallv_bruck",
];

fn plans() -> [(&'static str, Option<FaultPlan>); 5] {
    [
        ("none", None),
        ("drops", Some(FaultPlan::new(0x601D).with_drops(0.35, 2))),
        (
            "delays",
            Some(FaultPlan::new(0x601E).with_delays(0.35, 3.0e-6)),
        ),
        (
            "stalls",
            Some(FaultPlan::new(0x601F).with_stalls(0.35, 2.0e-6)),
        ),
        (
            "everything",
            Some(
                FaultPlan::new(0x6020)
                    .with_drops(0.3, 2)
                    .with_delays(0.3, 3.0e-6)
                    .with_stalls(0.3, 2.0e-6),
            ),
        ),
    ]
}

/// `len` values drawn for one rank and one call, so that every fold order
/// shows in the bits of a reduction.
fn values(comm: &Communicator, call: u64, len: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new((comm.rank() as u64) << 8 | call);
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// FNV-1a over the bits of a rank's results.
struct Checksum(u64);

impl Checksum {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn values(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// One call of collective `name` on `comm`, folded into `sum`.
fn call(name: &str, comm: &Communicator, call: u64, sum: &mut Checksum) -> Result<()> {
    let p = comm.size();
    let rank = comm.rank();
    let root = p / 2;
    let on_root = |len: usize| {
        if rank == root {
            values(comm, call, len)
        } else {
            Vec::new()
        }
    };
    let ragged_blocks = || -> Vec<Vec<f64>> {
        (0..p)
            .map(|dest| values(comm, call + dest as u64 * 16, (rank + 2 * dest) % 4))
            .collect()
    };
    match name {
        "barrier" => coll::barrier(comm)?,
        "allgather" => sum.values(&coll::allgather(comm, &values(comm, call, 3))?),
        "allgatherv" => {
            for piece in coll::allgatherv(comm, &values(comm, call, (2 * rank + 1) % 5))? {
                sum.values(&piece);
            }
        }
        "gather" => {
            let got = coll::gather(comm, root, &values(comm, call, 3))?;
            sum.word(got.is_some() as u64);
            sum.values(&got.unwrap_or_default());
        }
        "scatter" => sum.values(&coll::scatter(comm, root, &on_root(3 * p), 3)?),
        "reduce_scatter" => sum.values(&coll::reduce_scatter(
            comm,
            &values(comm, call, 2 * p),
            ReduceOp::Sum,
        )?),
        "reduce" => {
            let got = coll::reduce(comm, root, &values(comm, call, 2 * p + 1), ReduceOp::Sum)?;
            sum.word(got.is_some() as u64);
            sum.values(&got.unwrap_or_default());
        }
        "allreduce" => sum.values(&coll::allreduce(
            comm,
            &values(comm, call, 3 * p + 1),
            ReduceOp::Sum,
        )?),
        "bcast" => sum.values(&coll::bcast(comm, root, &on_root(3 * p + 1), 3 * p + 1)?),
        "alltoall" => sum.values(&coll::alltoall(comm, &values(comm, call, 2 * p), 2)?),
        "alltoallv_bruck" => {
            for piece in coll::alltoallv_bruck(comm, ragged_blocks())? {
                sum.values(&piece);
            }
        }
        other => unreachable!("no collective {other}"),
    }
    Ok(())
}

/// The table's lines for one collective on `p` ranks under one plan.
fn rows(name: &str, p: usize, plan_name: &str, plan: Option<FaultPlan>, out: &mut String) {
    let mut machine = Machine::new(p, MachineParams::cluster());
    if let Some(plan) = plan {
        machine = machine.with_fault_plan(plan);
    }
    let run = machine
        .run(|comm| {
            let mut sum = Checksum(0xcbf2_9ce4_8422_2325);
            // Staggered entry clocks, so that the replayed rounds wait on
            // late senders.
            comm.charge_flops((comm.rank() as u64 * 37 % 11) * 5_000);
            call(name, comm, 1, &mut sum).unwrap();
            comm.charge_flops((comm.rank() as u64 * 13 % 7) * 3_000);
            call(name, comm, 2, &mut sum).unwrap();
            sum.0
        })
        .unwrap();
    for (rank, (c, sum)) in run.report.per_rank.iter().zip(&run.results).enumerate() {
        writeln!(
            out,
            "{name} p={p} {plan_name} r={rank}: sent={} recv={} wsent={} wrecv={} flops={} \
             retries={} timeouts={} time={:016x} sum={sum:016x}",
            c.msgs_sent,
            c.msgs_recv,
            c.words_sent,
            c.words_recv,
            c.flops,
            c.retries,
            c.timeouts,
            c.time.to_bits(),
        )
        .unwrap();
    }
}

fn table() -> String {
    let mut out = String::new();
    for name in COLLECTIVES {
        for p in SIZES {
            for (plan_name, plan) in plans() {
                rows(name, p, plan_name, plan, &mut out);
            }
        }
    }
    out
}

#[test]
fn collectives_match_the_golden_replay_table() {
    let got = table();
    if got == TABLE {
        return;
    }
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/collective_golden.txt");
    std::fs::write(path, &got).unwrap();
    let differing: Vec<String> = TABLE
        .lines()
        .zip(got.lines())
        .filter(|(want, have)| want != have)
        .take(8)
        .map(|(want, have)| format!("- {want}\n+ {have}"))
        .collect();
    panic!(
        "{} table lines, {} expected; the table got is in {path}; first differing lines:\n{}",
        got.lines().count(),
        TABLE.lines().count(),
        differing.join("\n")
    );
}
