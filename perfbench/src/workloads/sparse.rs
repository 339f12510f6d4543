//! `sparse_repeat` and `sparse_oneshot`: the sparse layer used the two
//! opposite ways — one analysed factor applied many times, and never-seen
//! factors built, planned and solved once each.

use super::{clock, medians_interleaved, ExactCell, Metrics, Params, Tally, Workload};
use crate::check::{self, RESIDUAL_TOL};
use crate::gen::{derive, raw_lower_csr, vector, RawCsr};
use crate::stats;
use crate::trace::{durations, Recorder, Span};
use catrsm::{SolvePlan, SolveReport, SolveRequest};
use dense::{Diag, Triangle};
use sparse::{SolveOpts, SparseTri};
use std::hint::black_box;

const FILL: usize = 8;
const EXACT: [&str; 2] = ["sparse.levels", "sparse.barriers"];

fn build_matrix(raw: &RawCsr) -> Result<SparseTri, String> {
    SparseTri::from_csr(
        raw.n,
        Triangle::Lower,
        Diag::NonUnit,
        &raw.row_ptr,
        &raw.col_idx,
        &raw.values,
    )
    .map_err(|e| e.to_string())
}

fn level_counts(report: &SolveReport) -> [f64; 2] {
    report
        .levels
        .map_or([f64::NAN; 2], |l| [l.levels as f64, l.barriers as f64])
}

/// A raw factor, a right-hand side `b = A·x_true`, and the copy of `b` the
/// residual check compares against.
struct System {
    raw: RawCsr,
    b: Vec<f64>,
    b_ref: Vec<f64>,
}

impl System {
    fn new(n: usize, seed: u64, corrupt_reference: bool) -> System {
        let raw = raw_lower_csr(n, FILL, derive(seed, 1));
        let b = raw.mul(&vector(n, derive(seed, 2)));
        let mut b_ref = b.clone();
        if corrupt_reference {
            b_ref[0] += 1.0;
        }
        System { raw, b, b_ref }
    }
}

pub struct SparseRepeat {
    threads: usize,
    par_threads: usize,
    steps: usize,
    sys: System,
    a: SparseTri,
    plan: SolvePlan,
    x: Vec<f64>,
    exact: ExactCell,
}

impl SparseRepeat {
    pub fn new(p: &Params) -> Result<SparseRepeat, String> {
        let n = p.scale.pick(8_000, 2_000);
        let sys = System::new(n, derive(p.seed, 10), p.corrupt_reference);
        let a = build_matrix(&sys.raw)?;
        // Planned once: every op is a pure apply of the analysed factor.
        let plan = SolveRequest::lower()
            .threads(p.threads)
            .plan_sparse(&a, 1)
            .map_err(|e| e.to_string())?;
        Ok(SparseRepeat {
            threads: p.threads,
            par_threads: p.par_threads,
            steps: p.scale.steps(2000, 4),
            x: vec![0.0; n],
            sys,
            a,
            plan,
            exact: ExactCell::default(),
        })
    }
}

impl Workload for SparseRepeat {
    fn steps_per_round(&self) -> usize {
        self.steps
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        self.x.copy_from_slice(&self.sys.b);
        let op = rec.begin("op");
        let (out, ns) = clock(|| {
            let s = rec.begin("core.execute_sparse");
            let out = self.plan.execute_sparse_vec_in_place(&self.a, &mut self.x);
            rec.end(s);
            out
        });
        rec.end(op);
        rec.next_op();
        tally.busy_ns += ns;
        let outcome = out.map_err(|e| e.to_string()).map(|report| {
            self.exact.observe(&level_counts(&report));
            check::residual(&self.sys.raw, &self.x, &self.sys.b_ref)
        });
        tally.record(ns, outcome, RESIDUAL_TOL);
    }

    fn take_exact(&mut self) -> Result<Metrics, String> {
        self.exact.take(&EXACT)
    }

    fn layer_metrics(&mut self, _spans: &[Span]) -> Metrics {
        let bare = [self.threads, 1, self.par_threads].map(|t| SolveOpts::new().threads(t));
        // Timed in turn, so the ratios hold whatever state the machine is
        // in: the composite call, then the layer below on T workers, on one
        // and on `par_threads`.
        let [execute_ns, solve_t_ns, solve_1_ns, solve_par_ns] = medians_interleaved(15, |which| {
            self.x.copy_from_slice(&self.sys.b);
            match which {
                0 => {
                    clock(|| {
                        self.plan
                            .execute_sparse_vec_in_place(&self.a, &mut self.x)
                            .expect("execute")
                    })
                    .1
                }
                k => {
                    clock(|| {
                        self.a
                            .solve_with(&bare[k - 1], &mut self.x)
                            .expect("bare solve")
                    })
                    .1
                }
            }
        });

        let n = self.a.n();
        let word = std::mem::size_of::<f64>();
        // Computed from array sizes, not measured: off-diagonal values and
        // column indices, row pointers, the diagonal, and x read and written.
        let bytes = self.a.nnz_off_diagonal() * (word + std::mem::size_of::<usize>())
            + (n + 1) * std::mem::size_of::<usize>()
            + 3 * n * word;

        let req = SolveRequest::lower().threads(self.threads);
        let plan_reps = 200;
        let (_, plan_ns) = clock(|| {
            for _ in 0..plan_reps {
                black_box(req.plan_sparse(&self.a, 1).expect("plan_sparse"));
            }
        });

        vec![
            ("sparse.solve_ms", solve_t_ns / 1e6),
            (
                "sparse.gflops",
                self.a.solve_flops(1).get() as f64 / solve_t_ns,
            ),
            ("sparse.gbytes_s_computed", bytes as f64 / solve_t_ns),
            ("sparse.par_speedup", solve_1_ns / solve_par_ns),
            (
                "core.plan_sparse_us",
                plan_ns as f64 / plan_reps as f64 / 1e3,
            ),
            ("core.sparse_overhead_ratio", execute_ns / solve_t_ns),
        ]
    }
}

pub struct SparseOneshot {
    threads: usize,
    par_threads: usize,
    steps: usize,
    /// Raw masters, used round-robin: each op sees arrays it must build,
    /// validate and solve from scratch.
    pool: Vec<System>,
    next: usize,
    x: Vec<f64>,
    exact: ExactCell,
}

impl SparseOneshot {
    pub fn new(p: &Params) -> SparseOneshot {
        let n = p.scale.pick(5_000, 2_000);
        let pool = (0..8)
            .map(|i| System::new(n, derive(p.seed, 20 + i), p.corrupt_reference))
            .collect();
        SparseOneshot {
            threads: p.threads,
            par_threads: p.par_threads,
            steps: p.scale.steps(760, 4),
            pool,
            next: 0,
            x: vec![0.0; n],
            exact: ExactCell::default(),
        }
    }
}

impl Workload for SparseOneshot {
    fn steps_per_round(&self) -> usize {
        self.steps
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let sys = &self.pool[self.next % self.pool.len()];
        self.next += 1;
        self.x.copy_from_slice(&sys.b);
        let req = SolveRequest::lower().threads(self.threads).reuse(1);
        let op = rec.begin("op");
        let (out, ns) = clock(|| {
            let s = rec.begin("sparse.from_csr");
            let a = build_matrix(&sys.raw);
            rec.end(s);
            a.and_then(|a| {
                let s = rec.begin("core.plan_sparse");
                let plan = req.plan_sparse(&a, 1);
                rec.end(s);
                let s = rec.begin("core.execute_sparse");
                let out = plan.and_then(|plan| plan.execute_sparse_vec_in_place(&a, &mut self.x));
                rec.end(s);
                // The matrix is returned so that freeing it stays off the
                // clock.
                out.map(|report| (a, report)).map_err(|e| e.to_string())
            })
        });
        rec.end(op);
        rec.next_op();
        tally.busy_ns += ns;
        let outcome = out.map(|(_a, report)| {
            self.exact.observe(&level_counts(&report));
            check::residual(&sys.raw, &self.x, &sys.b_ref)
        });
        tally.record(ns, outcome, RESIDUAL_TOL);
    }

    fn take_exact(&mut self) -> Result<Metrics, String> {
        self.exact.take(&EXACT)
    }

    fn layer_metrics(&mut self, spans: &[Span]) -> Metrics {
        let sys = &self.pool[0];
        // The two cold parallel paths, on `par_threads` workers whatever T is
        // (one worker sweeps sequentially and takes neither).
        let cold = [
            SolveOpts::new().threads(self.par_threads).reuse(1),
            SolveOpts::new().threads(self.par_threads),
        ];
        // Each rep starts from a pristine matrix (built off the clock), so
        // the clocked call pays for the analysis or the CSC mirror itself:
        // the first `schedule()`, a cold solve declared one-shot (sync-free),
        // and a cold solve that analyses and runs the level path.
        let [analysis_ns, syncfree_ns, level_cold_ns] = medians_interleaved(9, |which| {
            let a = build_matrix(&sys.raw).expect("from_csr");
            self.x.copy_from_slice(&sys.b);
            match which {
                0 => clock(|| black_box(a.schedule().num_levels())).1,
                k => clock(|| a.solve_with(&cold[k - 1], &mut self.x).expect("cold solve")).1,
            }
        });
        vec![
            (
                "sparse.from_csr_ms",
                stats::median_ns(&durations(spans, "sparse.from_csr")) / 1e6,
            ),
            ("sparse.analysis_ms", analysis_ns / 1e6),
            ("sparse.syncfree_ms", syncfree_ns / 1e6),
            ("sparse.level_cold_ms", level_cold_ns / 1e6),
            (
                "core.plan_sparse_us",
                stats::median_ns(&durations(spans, "core.plan_sparse")) / 1e3,
            ),
        ]
    }
}
