//! `dense_square`: one local dense solve per op.

use super::{clock, medians_interleaved, ExactCell, Metrics, Params, Tally, Workload};
use crate::check::{self, REL_ERR_TOL};
use crate::gen::derive;
use crate::trace::{Recorder, Span};
use catrsm::SolveRequest;
use dense::flops::{gemm_flops, tri_inv_flops};
use dense::{Matrix, SolveOpts, Triangle};
use std::hint::black_box;

pub struct DenseSquare {
    n: usize,
    k: usize,
    threads: usize,
    par_threads: usize,
    steps: usize,
    l: Matrix,
    b: Matrix,
    /// The reference the checks compare against (`B = L·x_true`).
    x_true: Matrix,
    exact: ExactCell,
}

impl DenseSquare {
    pub fn new(p: &Params) -> DenseSquare {
        let n = p.scale.pick(320, 128);
        let k = n;
        let l = dense::gen::well_conditioned_lower(n, derive(p.seed, 1));
        let mut x_true = dense::gen::rhs(n, k, derive(p.seed, 2));
        let b = dense::matmul(&l, &x_true);
        if p.corrupt_reference {
            x_true[(0, 0)] += 1.0;
        }
        DenseSquare {
            n,
            k,
            threads: p.threads,
            par_threads: p.par_threads,
            steps: p.scale.steps(176, 2),
            l,
            b,
            x_true,
            exact: ExactCell::default(),
        }
    }
}

impl Workload for DenseSquare {
    fn steps_per_round(&self) -> usize {
        self.steps
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let req = SolveRequest::lower().threads(self.threads);
        let op = rec.begin("op");
        // `solve_dense` is exactly these two calls.
        let (out, ns) = clock(|| {
            let s = rec.begin("core.plan_dense");
            let plan = req.plan_dense(self.n, self.k);
            rec.end(s);
            let s = rec.begin("core.execute_dense");
            let sol = plan.and_then(|plan| plan.execute_dense(&self.l, &self.b));
            rec.end(s);
            sol
        });
        rec.end(op);
        rec.next_op();
        tally.busy_ns += ns;
        let outcome = out.map_err(|e| e.to_string()).map(|sol| {
            self.exact.observe(&[sol.report.flops.get() as f64]);
            check::rel_err(sol.x.as_slice(), self.x_true.as_slice())
        });
        tally.record(ns, outcome, REL_ERR_TOL);
    }

    fn take_exact(&mut self) -> Result<Metrics, String> {
        self.exact.take(&["dense.flops"])
    }

    fn layer_metrics(&mut self, _spans: &[Span]) -> Metrics {
        let (n, k, t) = (self.n, self.k, self.threads);
        let opts = SolveOpts::lower();
        let plan = SolveRequest::lower()
            .threads(t)
            .plan_dense(n, k)
            .expect("plan_dense");
        let a = dense::gen::uniform(n, n, 11);
        let bm = dense::gen::uniform(n, n, 12);
        let mut c = Matrix::zeros(n, n);
        // Timed in turn, so the ratios between them hold whatever state the
        // machine is in: the composite call, the layer below it on the same
        // input (the copy of B is off the clock), and the layer below that —
        // a square GEMM as reference rate, on T workers, on one and on
        // `par_threads`.
        let gemm_threads = [t, 1, self.par_threads];
        let [execute_ns, trsm_ns, gemm_t_ns, gemm_1_ns, gemm_par_ns, trinv_ns] =
            medians_interleaved(7, |which| match which {
                0 => clock(|| black_box(plan.execute_dense(&self.l, &self.b).expect("execute"))).1,
                1 => {
                    let mut x = self.b.clone();
                    clock(|| dense::trsm_in_place_opts(&opts, &self.l, &mut x).expect("bare trsm"))
                        .1
                }
                2..=4 => {
                    let threads = gemm_threads[which - 2];
                    clock(|| {
                        dense::gemm_with_threads(1.0, &a, &bm, 0.0, &mut c, threads)
                            .expect("bare gemm")
                    })
                    .1
                }
                _ => {
                    clock(|| black_box(dense::tri_invert(Triangle::Lower, &self.l).expect("trinv")))
                        .1
                }
            });
        let trsm_rate = dense::flops::trsm_flops(n, k).get() as f64 / trsm_ns;
        let gemm_rate = gemm_flops(n, n, n).get() as f64 / gemm_t_ns;

        let req = SolveRequest::lower().threads(t);
        let plan_reps = 2000;
        let (_, plan_ns) = clock(|| {
            for _ in 0..plan_reps {
                black_box(req.plan_dense(black_box(n), k).expect("plan_dense"));
            }
        });

        vec![
            ("dense.trsm_gflops", trsm_rate),
            ("dense.gemm_gflops", gemm_rate),
            ("dense.trsm_frac_of_gemm", trsm_rate / gemm_rate),
            ("dense.gemm_par_speedup", gemm_1_ns / gemm_par_ns),
            (
                "dense.trinv_gflops",
                tri_inv_flops(n).get() as f64 / trinv_ns,
            ),
            (
                "core.plan_dense_us",
                plan_ns as f64 / plan_reps as f64 / 1e3,
            ),
            ("core.dense_overhead_ratio", execute_ns / trsm_ns),
        ]
    }
}
