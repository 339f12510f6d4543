//! `serve_hot90`: a `SolveService` under traffic that is 90 % repeats.
//!
//! Closed loop, one client: the service executes on the caller's thread, so
//! there is no arrival queue an open loop could grow.  A step is one
//! admission window — 16 submits and the flush that completes them — and
//! each request's latency runs from its own `submit` to the return of that
//! flush.

use super::{clock, median_ns_of, Metrics, Params, Tally, Workload};
use crate::check::{self, RESIDUAL_TOL};
use crate::gen::{derive, raw_lower_csr, vector, RawCsr, SplitMix64};
use crate::stats;
use crate::trace::{durations, Recorder, Span};
use catrsm::{SolvePlan, SolveRequest};
use dense::{Diag, Triangle};
use serve::{Operand, ServiceConfig, ServiceRequest, ServiceStats, SolveService};
use sparse::SparseTri;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const FILL: usize = 8;
const HOT: usize = 8;
const WINDOW: usize = 16;
const CAPACITY: usize = 64;
const HOT_SHARE: f64 = 0.9;

struct Factor {
    raw: RawCsr,
    a: Arc<SparseTri>,
}

impl Factor {
    fn new(n: usize, seed: u64) -> Factor {
        let raw = raw_lower_csr(n, FILL, seed);
        let a = SparseTri::from_csr(
            n,
            Triangle::Lower,
            Diag::NonUnit,
            &raw.row_ptr,
            &raw.col_idx,
            &raw.values,
        )
        .expect("generated CSR arrays are valid");
        Factor {
            raw,
            a: Arc::new(a),
        }
    }
}

/// The factor a request names: a hot one by index, or a never-seen one the
/// request owns.
enum Names {
    Hot(usize),
    Fresh(Factor),
}

/// One generated request: the factor it names and its right-hand side.
struct Job {
    names: Names,
    b: Vec<f64>,
}

pub struct ServeHot90 {
    n: usize,
    seed: u64,
    steps: usize,
    corrupt_reference: bool,
    request: SolveRequest,
    service: SolveService,
    hot: Vec<Factor>,
    /// The same request through the cached plan directly, for
    /// `serve.overhead_ratio`.
    hot_plans: Vec<SolvePlan>,
    /// Per request position in a round: `Some(i)` names hot factor `i`,
    /// `None` asks for a never-seen factor.  Every round replays the same
    /// pattern with new never-seen factors, so the service's counters move
    /// by the same amounts each round.
    pattern: Vec<Option<usize>>,
    step_in_round: usize,
    /// Never-seen factors generated so far; seeds never repeat.
    fresh_made: u64,
    requests_made: u64,
    stats_at_round_start: ServiceStats,
    /// The service's counters over the last finished round.
    last_round: ServiceStats,
    /// In a traced pass: whether each `serve.submit` span was a hit.
    submit_was_hot: Vec<bool>,
}

impl ServeHot90 {
    pub fn new(p: &Params) -> Result<ServeHot90, String> {
        let n = p.scale.pick(4096, 512);
        let steps = p.scale.steps(20, 3);
        let request = SolveRequest::lower().threads(p.threads);
        let hot: Vec<Factor> = (0..HOT)
            .map(|i| Factor::new(n, derive(p.seed, 100 + i as u64)))
            .collect();
        let hot_plans = hot
            .iter()
            .map(|f| request.plan_sparse(&f.a, 1).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let mut rng = SplitMix64::new(derive(p.seed, 99));
        let mut pattern: Vec<Option<usize>> = (0..steps * WINDOW)
            .map(|_| {
                let hot_request = rng.unit() < HOT_SHARE;
                let which = rng.below(HOT);
                hot_request.then_some(which)
            })
            .collect();
        // Even the shortest round has a miss and a hit to time.
        pattern[0] = None;
        pattern[1] = Some(0);
        let mut w = ServeHot90 {
            n,
            seed: p.seed,
            steps,
            corrupt_reference: p.corrupt_reference,
            request,
            service: SolveService::new(ServiceConfig {
                plan_cache_capacity: CAPACITY,
                admission_window: WINDOW,
            }),
            hot,
            hot_plans,
            pattern,
            step_in_round: 0,
            fresh_made: 0,
            requests_made: 0,
            stats_at_round_start: ServiceStats::default(),
            last_round: ServiceStats::default(),
            submit_was_hot: Vec::new(),
        };
        w.fill_cache()?;
        w.stats_at_round_start = w.service.stats();
        Ok(w)
    }

    /// Bring the cache to its steady state — full, every hot plan resident —
    /// so that from the first measured round on every miss evicts exactly
    /// one entry.  The hot factors are touched after every few insertions so
    /// none of them ages to the least recently used entry of its shard.
    fn fill_cache(&mut self) -> Result<(), String> {
        for _ in 0..50 * CAPACITY {
            if self.service.cached_plans() == CAPACITY {
                return Ok(());
            }
            let mut jobs: Vec<Job> = (0..4).map(|_| self.job(None)).collect();
            jobs.extend((0..HOT).map(|i| self.job(Some(i))));
            for job in &jobs {
                self.service
                    .submit(self.service_request(job))
                    .map_err(|e| e.to_string())?;
            }
            self.service.flush();
        }
        Err("the plan cache never filled".into())
    }

    fn job(&mut self, hot: Option<usize>) -> Job {
        let names = match hot {
            Some(i) => Names::Hot(i),
            None => {
                self.fresh_made += 1;
                let seed = derive(self.seed, 1_000_000 + self.fresh_made);
                Names::Fresh(Factor::new(self.n, seed))
            }
        };
        self.requests_made += 1;
        Job {
            names,
            b: vector(self.n, derive(self.seed, 2_000_000 + self.requests_made)),
        }
    }

    fn factor<'a>(&'a self, job: &'a Job) -> &'a Factor {
        match &job.names {
            Names::Hot(i) => &self.hot[*i],
            Names::Fresh(f) => f,
        }
    }

    fn service_request(&self, job: &Job) -> ServiceRequest {
        ServiceRequest {
            request: self.request,
            operand: Operand::Sparse(Arc::clone(&self.factor(job).a)),
            rhs: job.b.clone(),
        }
    }

    /// The jobs of window `step` of a round, generated off the clock.
    fn window(&mut self, step: usize) -> Vec<Job> {
        (0..WINDOW)
            .map(|j| self.job(self.pattern[(step * WINDOW + j) % self.pattern.len()]))
            .collect()
    }

    /// Push one window through the service.  Returns each job's solution
    /// (or error), each job's latency, and the window's wall time.
    #[allow(clippy::type_complexity)]
    fn serve_window(
        &mut self,
        jobs: &[Job],
        rec: &mut Recorder,
    ) -> (Vec<Result<Vec<f64>, String>>, Vec<u64>, u64) {
        let requests: Vec<ServiceRequest> = jobs.iter().map(|j| self.service_request(j)).collect();
        let mut submitted_at = Vec::with_capacity(WINDOW);
        let mut refused: Vec<Option<String>> = Vec::with_capacity(WINDOW);
        let op = rec.begin("op");
        let t0 = Instant::now();
        for sreq in requests {
            submitted_at.push(t0.elapsed().as_nanos() as u64);
            let s = rec.begin("serve.submit");
            let ticket = self.service.submit(sreq);
            rec.end(s);
            refused.push(ticket.err().map(|e| e.to_string()));
        }
        let s = rec.begin("serve.flush");
        let completions = self.service.flush();
        rec.end(s);
        let wall = t0.elapsed().as_nanos() as u64;
        rec.end(op);
        rec.next_op();
        if rec.on() {
            self.submit_was_hot
                .extend(jobs.iter().map(|j| matches!(j.names, Names::Hot(_))));
        }
        // Completions come back in submission order, one per accepted job.
        let mut done = completions.into_iter();
        let results = refused
            .into_iter()
            .map(|refusal| match refusal {
                Some(why) => Err(why),
                None => {
                    let c = done.next().ok_or("flush lost a job")?;
                    c.result.map(|_| c.x).map_err(|e| e.to_string())
                }
            })
            .collect();
        let latencies = submitted_at.iter().map(|&at| wall - at).collect();
        (results, latencies, wall)
    }
}

impl Workload for ServeHot90 {
    fn steps_per_round(&self) -> usize {
        self.steps
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let jobs = self.window(self.step_in_round);
        self.step_in_round += 1;
        let (results, latencies, wall) = self.serve_window(&jobs, rec);
        tally.busy_ns += wall;
        for ((job, result), lat) in jobs.iter().zip(results).zip(latencies) {
            let outcome = result.map(|x| {
                let mut b_ref = job.b.clone();
                if self.corrupt_reference {
                    b_ref[0] += 1.0;
                }
                check::residual(&self.factor(job).raw, &x, &b_ref)
            });
            tally.record(lat, outcome, RESIDUAL_TOL);
        }
    }

    /// Asserted round to round: what the request pattern alone decides.  The
    /// cache counters are exact per seed but not per round — which shard a
    /// never-seen key lands in differs between rounds, so a hot plan can
    /// (rarely) be evicted in one round and not in another; they are
    /// reported by [`Workload::layer_metrics`] instead.
    fn take_exact(&mut self) -> Result<Metrics, String> {
        let now = self.service.stats();
        let then = std::mem::replace(&mut self.stats_at_round_start, now);
        self.step_in_round = 0;
        let round = ServiceStats {
            requests: now.requests - then.requests,
            hits: now.hits - then.hits,
            misses: now.misses - then.misses,
            evictions: now.evictions - then.evictions,
            plan_builds: now.plan_builds - then.plan_builds,
            batches: now.batches - then.batches,
            fused_requests: now.fused_requests - then.fused_requests,
            ..now
        };
        self.last_round = round;
        if now.errors != 0 {
            return Err(format!("the service counted {} errors", now.errors));
        }
        // The cache is full, so every miss builds one plan and evicts one.
        if round.hits + round.misses != round.requests
            || round.plan_builds != round.misses
            || round.evictions != round.misses
        {
            return Err(format!("the service's counters disagree: {round:?}"));
        }
        let analyses: usize = self.hot.iter().map(|f| f.a.analysis_count()).sum();
        Ok(vec![
            (
                "serve.mean_batch_width",
                round.fused_requests as f64 / round.batches as f64,
            ),
            ("serve.analysis_count", analyses as f64),
        ])
    }

    fn layer_metrics(&mut self, spans: &[Span]) -> Metrics {
        let fingerprint_ns = median_ns_of(200, || {
            clock(|| black_box(serve::fingerprint_sparse(&self.hot[0].a))).1
        });

        let submits = durations(spans, "serve.submit");
        let submit_ns = |hot: bool| -> f64 {
            let of_kind: Vec<u64> = submits
                .iter()
                .zip(&self.submit_was_hot)
                .filter(|(_, &was_hot)| was_hot == hot)
                .map(|(&ns, _)| ns)
                .collect();
            stats::median_ns(&of_kind)
        };
        let (submit_hit_ns, submit_miss_ns) = (submit_ns(true), submit_ns(false));
        // Counters of the traced round, read before the windows below add
        // to them.
        let round = self.last_round;

        // The same windows through the service and through the cached plan
        // directly.  A never-seen factor's plan is built off the clock on
        // the direct side: the direct side is the bare executes only.
        let windows = self.steps.min(30);
        let (mut service_ns, mut direct_ns) = (0u64, 0u64);
        let mut rec = Recorder::new(false);
        for step in 0..windows {
            let jobs = self.window(step);
            service_ns += self.serve_window(&jobs, &mut rec).2;
            for job in &jobs {
                let a = &self.factor(job).a;
                let fresh_plan;
                let plan = match job.names {
                    Names::Hot(i) => &self.hot_plans[i],
                    Names::Fresh(_) => {
                        fresh_plan = self.request.plan_sparse(a, 1).expect("plan_sparse");
                        &fresh_plan
                    }
                };
                let mut x = job.b.clone();
                direct_ns += clock(|| {
                    plan.execute_sparse_vec_in_place(a, &mut x)
                        .expect("direct execute")
                })
                .1;
            }
        }

        vec![
            ("serve.fingerprint_us", fingerprint_ns / 1e3),
            ("serve.submit_hit_us", submit_hit_ns / 1e3),
            ("serve.submit_miss_us", submit_miss_ns / 1e3),
            (
                "serve.flush_ms",
                stats::median_ns(&durations(spans, "serve.flush")) / 1e6,
            ),
            ("serve.overhead_ratio", service_ns as f64 / direct_ns as f64),
            (
                "serve.hit_ratio",
                round.hits as f64 / (round.hits + round.misses) as f64,
            ),
            ("serve.plan_builds", round.plan_builds as f64),
            ("serve.evictions", round.evictions as f64),
        ]
    }
}
