//! `dist_few_rhs` and `dist_cube`: one distributed solve on 16 simulated
//! ranks per op, in the paper's two regimes.
//!
//! Host time (`op_*`, `ops_per_s`) and simulated time (`sim_*`) are never
//! mixed: the first is wall clock on this box, the second is what the
//! α–β–γ model charged, and must not move when only host cost does.

use super::{clock, median_ns_of, ExactCell, Metrics, Params, Tally, Workload};
use crate::check::{self, REL_ERR_TOL};
use crate::gen::derive;
use crate::stats;
use crate::trace::{durations, max_per_op, self_times, Lane, Recorder, Span};
use catrsm::{SolvePlan, SolveRequest};
use dense::Matrix;
use pgrid::{DistMatrix, Grid2D};
use simnet::{CostReport, Machine, MachineParams};
use std::hint::black_box;
use std::time::Instant;

const GRID: usize = 4;
const RANKS: usize = GRID * GRID;
const EXACT: [&str; 9] = [
    "sim_time_s",
    "sim_msgs",
    "sim_words",
    "simnet.total_msgs",
    "simnet.total_words",
    "simnet.sim_flops",
    "costmodel.drift_time",
    "costmodel.drift_msgs",
    "costmodel.drift_words",
];

/// What one rank hands back: where it sits, its block of `X`, its spans.
struct RankOut {
    coords: (usize, usize),
    x_local: Matrix,
    lane: Lane,
}

pub struct Dist {
    n: usize,
    k: usize,
    steps: usize,
    machine: Machine,
    l: Matrix,
    b: Matrix,
    x_true: Matrix,
    /// The plan the ranks will arrive at, lowered once outside the machine:
    /// its predicted cost is what the measured counters are divided by.
    plan: SolvePlan,
    exact: ExactCell,
}

impl Dist {
    /// The paper's `n ≫ k` regime: many small diagonal inversions and
    /// messages, little GEMM.
    pub fn few_rhs(p: &Params) -> Result<Dist, String> {
        Dist::new(p, p.scale.pick((1024, 16), (128, 8)), p.scale.steps(6, 2))
    }

    /// The 3D-grid regime: large block products and redistributions.
    pub fn cube(p: &Params) -> Result<Dist, String> {
        Dist::new(p, p.scale.pick((384, 384), (64, 64)), p.scale.steps(4, 2))
    }

    fn new(p: &Params, (n, k): (usize, usize), steps: usize) -> Result<Dist, String> {
        let l = dense::gen::well_conditioned_lower(n, derive(p.seed, 1));
        let mut x_true = dense::gen::rhs(n, k, derive(p.seed, 2));
        let b = dense::matmul(&l, &x_true);
        if p.corrupt_reference {
            x_true[(0, 0)] += 1.0;
        }
        let plan = SolveRequest::lower()
            .plan_distributed(n, k, RANKS)
            .map_err(|e| e.to_string())?;
        Ok(Dist {
            n,
            k,
            steps,
            machine: Machine::new(RANKS, MachineParams::supercomputer())
                .with_rank_workers(p.threads),
            l,
            b,
            x_true,
            plan,
            exact: ExactCell::default(),
        })
    }

    /// The exact figures of one run, in `EXACT` order.
    fn exact_figures(&self, report: &CostReport) -> [f64; 9] {
        let predicted = self
            .plan
            .predicted_cost
            .expect("distributed plans carry a prediction");
        let mp = report.params;
        let model = costmodel::Machine {
            alpha: mp.alpha,
            beta: mp.beta,
            gamma: mp.gamma,
        };
        [
            report.virtual_time(),
            report.max_messages() as f64,
            report.max_words() as f64,
            report.total_messages() as f64,
            report.total_words() as f64,
            report.total_flops() as f64,
            report.virtual_time() / predicted.time(&model),
            report.max_messages() as f64 / predicted.latency,
            report.max_words() as f64 / predicted.bandwidth,
        ]
    }

    /// `‖X − x_true‖ / ‖x_true‖` over every rank's cyclic block.
    fn rel_err(&self, ranks: &[RankOut]) -> f64 {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for r in ranks {
            let expect = self
                .x_true
                .strided_block(r.coords.0, GRID, r.coords.1, GRID);
            got.extend_from_slice(r.x_local.as_slice());
            want.extend_from_slice(expect.as_slice());
        }
        check::rel_err(&got, &want)
    }
}

impl Workload for Dist {
    fn steps_per_round(&self) -> usize {
        self.steps
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let (epoch, tracing) = (rec.epoch(), rec.on());
        let (l, b) = (&self.l, &self.b);
        let op = rec.begin("op");
        let run = rec.begin("simnet.run");
        let (out, ns) = clock(|| {
            self.machine.run(|comm| -> Result<RankOut, String> {
                let mut lane = Lane::new(epoch, tracing);
                let grid = lane
                    .time("pgrid.grid_new", || Grid2D::new(comm, GRID, GRID))
                    .map_err(|e| e.to_string())?;
                let dl = lane.time("pgrid.from_global", || DistMatrix::from_global(&grid, l));
                let db = lane.time("pgrid.from_global", || DistMatrix::from_global(&grid, b));
                // `solve_distributed` is exactly these two calls.
                let plan = lane
                    .time("core.plan_distributed", || {
                        SolveRequest::lower().plan_distributed(dl.rows(), db.cols(), comm.size())
                    })
                    .map_err(|e| e.to_string())?;
                let sol = lane
                    .time("core.execute_distributed", || {
                        plan.execute_distributed(&dl, &db)
                    })
                    .map_err(|e| e.to_string())?;
                Ok(RankOut {
                    coords: grid.my_coords(),
                    x_local: sol.x.local().clone(),
                    lane,
                })
            })
        });
        rec.end(run);
        rec.end(op);
        tally.busy_ns += ns;
        // Off the clock: check the blocks the ranks returned, and file the
        // spans they recorded on their own lanes under `simnet.run`.
        let outcome = out.map_err(|e| e.to_string()).and_then(|out| {
            let ranks: Vec<RankOut> = out.results.into_iter().collect::<Result<_, _>>()?;
            let figures = self.exact_figures(&out.report);
            self.exact.observe(&figures);
            let err = self.rel_err(&ranks);
            for (rank, r) in ranks.into_iter().enumerate() {
                rec.attach_lane(run, rank, r.lane);
            }
            Ok(err)
        });
        rec.next_op();
        tally.record(ns, outcome, REL_ERR_TOL);
    }

    fn take_exact(&mut self) -> Result<Metrics, String> {
        self.exact.take(&EXACT)
    }

    fn layer_metrics(&mut self, spans: &[Span]) -> Metrics {
        let params = self.machine.params();
        let reps = 15;
        // An empty closure on the same machine: what 16 rank threads, the
        // channel fabric and the gate cost before any rank does anything.
        let spawn_ns = median_ns_of(reps, || {
            clock(|| self.machine.run(|_| ()).expect("empty run")).1
        });

        // Timed on rank 0, inside the run, so thread start-up is excluded.
        let pair = Machine::new(2, params).with_rank_workers(2);
        let round_trips = 2000;
        let pingpong_ns = median_ns_of(5, || {
            let out = pair
                .run(|comm| {
                    let t0 = Instant::now();
                    for i in 0..round_trips {
                        if comm.rank() == 0 {
                            comm.send(1, i, &[1.0]).expect("ping");
                            black_box(comm.recv(1, i).expect("pong"));
                        } else {
                            let word = comm.recv(0, i).expect("ping");
                            comm.send(0, i, &word).expect("pong");
                        }
                    }
                    t0.elapsed().as_nanos() as u64
                })
                .expect("ping-pong run");
            out.results[0] / round_trips
        });

        let words = (1usize << 20) / std::mem::size_of::<f64>();
        let messages = 64;
        let payload = vec![1.0f64; words];
        let stream_ns = median_ns_of(5, || {
            let out = pair
                .run(|comm| {
                    let t0 = Instant::now();
                    for i in 0..messages {
                        if comm.rank() == 0 {
                            comm.send(1, i, &payload).expect("stream send");
                        } else {
                            black_box(comm.recv(0, i).expect("stream recv"));
                        }
                    }
                    t0.elapsed().as_nanos() as u64
                })
                .expect("stream run");
            // The receiver's clock covers every message's arrival.
            out.results[1]
        });

        let plan_reps = 2000;
        let (_, plan_ns) = clock(|| {
            for _ in 0..plan_reps {
                black_box(
                    SolveRequest::lower()
                        .plan_distributed(black_box(self.n), self.k, RANKS)
                        .expect("plan_distributed"),
                );
            }
        });

        let ops = durations(spans, "op").len().max(1) as f64;
        let run_self = self_times(spans).get("simnet.run").copied().unwrap_or(0);
        let median_max = |name: &str| stats::median_ns(&max_per_op(spans, name));
        vec![
            ("simnet.spawn_ms", spawn_ns / 1e6),
            ("simnet.pingpong_us", pingpong_ns / 1e3),
            (
                "simnet.mb_per_s",
                (messages as usize * words * std::mem::size_of::<f64>()) as f64
                    / 1e6
                    / (stream_ns / 1e9),
            ),
            ("simnet.run_self_ms", run_self as f64 / ops / 1e6),
            ("pgrid.grid_new_us", median_max("pgrid.grid_new") / 1e3),
            (
                "pgrid.from_global_ms",
                median_max("pgrid.from_global") / 1e6,
            ),
            (
                "core.plan_distributed_us",
                plan_ns as f64 / plan_reps as f64 / 1e3,
            ),
            (
                "core.execute_distributed_ms",
                median_max("core.execute_distributed") / 1e6,
            ),
        ]
    }
}
