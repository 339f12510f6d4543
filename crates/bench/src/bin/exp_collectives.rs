//! Experiment E1 — the collective-cost table of Section II-C1.
//!
//! Runs every collective on the simulated machine and compares the measured
//! message and word counts against the closed-form costs the paper quotes
//! (butterfly / Bruck schedules).  Power-of-two processor counts and
//! divisible message sizes are used, which is exactly the setting of the
//! paper's formulas.

use costmodel::{collectives as model, Cost};
use harness::{banner, swf, Table};
use simnet::coll::{self, ReduceOp::Sum};
use simnet::{Communicator, Machine, MachineParams};

/// What the root of a scatter or broadcast sends; the other ranks pass nothing.
fn root_data(comm: &Communicator, words: usize) -> Vec<f64> {
    match comm.rank() {
        0 => vec![1.0; words],
        _ => Vec::new(),
    }
}

/// `words / p` words of this rank's own.
fn share(comm: &Communicator, words: usize) -> Vec<f64> {
    vec![comm.rank() as f64; words / comm.size()]
}

/// One rank's part in a collective on `words` words.
type Collective = fn(&Communicator, usize);
/// The paper's closed form `(words, p) -> cost`.
type ClosedForm = fn(f64, f64) -> Cost;

/// Every row family of the table: name, collective, closed form.
const COLLECTIVES: [(&str, Collective, ClosedForm); 7] = [
    (
        "allgather",
        |c, w| drop(coll::allgather(c, &share(c, w)).unwrap()),
        model::allgather,
    ),
    (
        "gather",
        |c, w| drop(coll::gather(c, 0, &share(c, w)).unwrap()),
        model::gather,
    ),
    (
        "scatter",
        |c, w| drop(coll::scatter(c, 0, &root_data(c, w), w / c.size()).unwrap()),
        model::scatter,
    ),
    (
        "reduce_scatter",
        |c, w| drop(coll::reduce_scatter(c, &vec![c.rank() as f64; w], Sum).unwrap()),
        model::reduce_scatter,
    ),
    (
        "allreduce",
        |c, w| drop(coll::allreduce(c, &vec![c.rank() as f64; w], Sum).unwrap()),
        model::allreduction,
    ),
    (
        "bcast",
        |c, w| drop(coll::bcast(c, 0, &root_data(c, w), w).unwrap()),
        model::bcast,
    ),
    (
        "alltoall",
        |c, w| drop(coll::alltoall(c, &vec![c.rank() as f64; w], w / c.size()).unwrap()),
        model::alltoall,
    ),
];

fn main() {
    banner("E1: collective communication costs (paper Section II-C1)");
    let mut table = Table::new("collective,p,words,S_measured,W_measured,S_model,W_model");
    let mut worst_ratio: f64 = 1.0;
    for (which, collective, predicted) in COLLECTIVES {
        for p in [4usize, 16, 64] {
            for words in [1024usize, 16384] {
                let out = Machine::new(p, MachineParams::unit())
                    .run(|comm| collective(comm, words))
                    .unwrap();
                let (s, w, _) = swf(&out.report);
                let cost = predicted(words as f64, p as f64);
                let ratio = w as f64 / cost.bandwidth.max(1.0);
                if (ratio - 1.0).abs() > (worst_ratio - 1.0).abs() {
                    worst_ratio = ratio;
                }
                table.row(&[&which, &p, &words, &s, &w, &cost.latency, &cost.bandwidth]);
            }
        }
    }
    table.finish("exp_collectives");
    println!("W measured / W model, furthest from 1 over all rows: {worst_ratio:.3}");
    println!(
        "\nExpectation (paper): measured W matches the formulas exactly for the\n\
         power-of-two sizes above (ratio 1.000); measured S equals the model's\n\
         log-p round counts (composed collectives pay 2·log p)."
    );
}
