//! Open-loop load generator for the [`serve::SolveService`].
//!
//! Requests arrive on a seeded Poisson process (exponential inter-arrival
//! times) *independently of completions* — the open-loop discipline — so
//! queueing delay shows up in the measured latency instead of being
//! hidden by a closed feedback loop.  The workload draws from a closed
//! set of "hot" matrix fingerprints with a configurable target hit ratio:
//! each request reuses a hot factor with probability `hit_ratio` and
//! otherwise presents a fresh, never-seen matrix (a guaranteed plan-cache
//! miss).  The report carries requests/sec and p50/p99 latency alongside
//! the service's own cache and fusion statistics, plus the
//! machine-independent invariants CI asserts on the 1-core container
//! (zero errors, bounded queue depth, plan builds ≤ distinct keys).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Operand, ServiceConfig, ServiceRequest, ServiceStats, SolveService};
use sparse::gen as sgen;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one load-generator run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Total requests to issue (after warm-up).
    pub requests: usize,
    /// Mean arrival rate in requests per second.
    pub rate: f64,
    /// Size of the hot (closed) matrix set.
    pub matrices: usize,
    /// Probability a request draws from the hot set instead of presenting
    /// a fresh matrix.
    pub hit_ratio: f64,
    /// Admission window: the queue is flushed whenever this many requests
    /// are pending.
    pub window: usize,
    /// Triangular dimension of every generated system.
    pub n: usize,
    /// Average sub-diagonal entries per row of the sparse factors.
    pub fill: usize,
    /// Seed for the arrival process and the workload mix.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            requests: 400,
            rate: 4000.0,
            matrices: 8,
            hit_ratio: 0.9,
            window: 16,
            n: 256,
            fill: 4,
            seed: 0x10ad,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests issued (and completed).
    pub requests: usize,
    /// Wall-clock duration of the measured phase, seconds.
    pub duration_secs: f64,
    /// Completed requests per second.
    pub rps: f64,
    /// Median request latency (arrival → completion), microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Distinct plan-cache keys the workload presented.
    pub distinct_keys: usize,
    /// Plan builds the service counted (`ServiceStats::plan_builds`) during the
    /// measured phase (warm-up excluded).
    pub steady_plan_builds: usize,
    /// The service's own counters at the end of the run.
    pub stats: ServiceStats,
}

impl LoadReport {
    /// The machine-independent invariants CI asserts.  Returns an error
    /// string naming the first violated invariant, if any; throughput and
    /// latency are deliberately *not* checked here (the CI container has
    /// one core).
    pub fn check(&self, cfg: &LoadConfig) -> Result<(), String> {
        if self.stats.errors != 0 {
            return Err(format!("{} request errors", self.stats.errors));
        }
        if self.stats.max_queue_depth > cfg.window as u64 {
            return Err(format!(
                "queue depth {} exceeded the admission window {}",
                self.stats.max_queue_depth, cfg.window
            ));
        }
        if self.stats.plan_builds > self.distinct_keys as u64 {
            return Err(format!(
                "{} plan builds for {} distinct keys — the cache failed to amortize",
                self.stats.plan_builds, self.distinct_keys
            ));
        }
        if self.stats.hits + self.stats.misses < self.requests as u64 {
            return Err(format!(
                "hits {} + misses {} < requests {}",
                self.stats.hits, self.stats.misses, self.requests
            ));
        }
        if cfg.hit_ratio >= 1.0 && self.steady_plan_builds != 0 {
            return Err(format!(
                "pure-hot traffic performed {} steady-state plan builds (must be 0)",
                self.steady_plan_builds
            ));
        }
        let measured_ratio = self.stats.hit_ratio();
        // The target is approximate (first touches of hot matrices miss),
        // but a 0.9-target run collapsing below 0.5 means the fingerprint
        // path is broken.
        if cfg.hit_ratio >= 0.8 && self.requests >= 100 && measured_ratio < cfg.hit_ratio - 0.3 {
            return Err(format!(
                "measured hit ratio {measured_ratio:.3} far below target {:.3}",
                cfg.hit_ratio
            ));
        }
        Ok(())
    }
}

/// Run the open-loop load against a fresh service and report.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.requests > 0 && cfg.rate > 0.0 && cfg.matrices > 0);
    let svc = SolveService::new(ServiceConfig {
        // Size the cache to the whole key population: this generator
        // measures amortization, not eviction churn.
        plan_cache_capacity: cfg.requests + cfg.matrices,
        admission_window: cfg.window,
    });
    let req = catrsm::SolveRequest::lower();
    let hot: Vec<Arc<sparse::SparseTri>> = (0..cfg.matrices)
        .map(|i| {
            Arc::new(sgen::random_lower(
                cfg.n,
                cfg.fill,
                cfg.seed ^ (i as u64) << 8,
            ))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Warm-up: touch every hot factor once so the steady state starts
    // with a populated cache and analyzed schedules.
    for m in &hot {
        let b = sgen::rhs_vec(cfg.n, cfg.seed);
        svc.solve_vec(&req, &Operand::Sparse(Arc::clone(m)), &b)
            .expect("warm-up solve");
    }
    let builds_after_warmup = svc.stats().plan_builds;

    // Pre-draw the arrival schedule and workload mix so generation cost
    // stays out of the measured loop.
    let mut arrivals = Vec::with_capacity(cfg.requests);
    let mut t = 0.0f64;
    let mut picks = Vec::with_capacity(cfg.requests);
    let mut fresh_seed = cfg.seed ^ 0xF4E5;
    for _ in 0..cfg.requests {
        // Exponential inter-arrival with mean 1/rate; `1 - u` is in
        // (0, 1], so the log is finite and the increment non-negative.
        let u = rng.gen_f64();
        t += -(1.0 - u).ln() / cfg.rate;
        arrivals.push(Duration::from_secs_f64(t));
        if rng.gen_f64() < cfg.hit_ratio {
            picks.push(None); // hot
        } else {
            fresh_seed = fresh_seed.wrapping_add(1);
            picks.push(Some(Arc::new(sgen::random_lower(
                cfg.n, cfg.fill, fresh_seed,
            ))));
        }
    }
    let cold_count = picks.iter().filter(|p| p.is_some()).count();
    let distinct_keys = cfg.matrices + cold_count;

    let start = Instant::now();
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(cfg.requests);
    let mut latencies_us: Vec<f64> = vec![0.0; cfg.requests];
    let mut hot_idx = 0usize;
    for (i, (arrival, pick)) in arrivals.iter().zip(&picks).enumerate() {
        // Open loop: wait for the scheduled arrival regardless of how the
        // service is doing.
        loop {
            let now = start.elapsed();
            if now >= *arrival {
                break;
            }
            let slack = *arrival - now;
            if slack > Duration::from_micros(200) {
                std::thread::sleep(slack - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        let mat = match pick {
            Some(fresh) => Arc::clone(fresh),
            None => {
                hot_idx = (hot_idx + 1) % hot.len();
                Arc::clone(&hot[hot_idx])
            }
        };
        let rhs = sgen::rhs_vec(cfg.n, cfg.seed ^ (i as u64));
        submitted_at.push(Instant::now());
        svc.submit(ServiceRequest {
            request: req,
            operand: Operand::Sparse(mat),
            rhs,
        })
        .expect("submit");
        if svc.queue_depth() >= cfg.window || i + 1 == cfg.requests {
            for done in svc.flush() {
                let idx = done.ticket.0 as usize;
                let lat = submitted_at[idx].elapsed();
                latencies_us[idx] = lat.as_secs_f64() * 1e6;
                assert!(done.result.is_ok(), "request {idx} failed");
            }
        }
    }
    let duration_secs = start.elapsed().as_secs_f64();
    let stats = svc.stats();
    let steady_plan_builds = (stats.plan_builds - builds_after_warmup) as usize;

    latencies_us.sort_by(|a, b| a.total_cmp(b));
    LoadReport {
        requests: cfg.requests,
        duration_secs,
        rps: cfg.requests as f64 / duration_secs,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        distinct_keys,
        steady_plan_builds,
        stats,
    }
}

/// Nearest-rank percentile over an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> LoadConfig {
        LoadConfig {
            requests: 80,
            rate: 50_000.0,
            matrices: 4,
            hit_ratio: 0.85,
            window: 8,
            n: 96,
            fill: 3,
            seed: 7,
        }
    }

    #[test]
    fn load_run_satisfies_machine_independent_invariants() {
        let cfg = quick_cfg();
        let report = run_load(&cfg);
        report.check(&cfg).expect("invariants");
        assert_eq!(report.requests, 80);
        assert!(report.rps > 0.0);
        assert!(report.p50_us <= report.p99_us);
        // Warm-up planned the hot set, steady state planned only the
        // cold (fresh-matrix) arrivals.
        assert_eq!(
            report.steady_plan_builds as u64 + cfg.matrices as u64,
            report.stats.plan_builds
        );
        assert!(report.stats.plan_builds <= report.distinct_keys as u64);
    }

    #[test]
    fn hit_ratio_zero_forces_all_misses_after_warmup() {
        let cfg = LoadConfig {
            hit_ratio: 0.0,
            requests: 40,
            ..quick_cfg()
        };
        let report = run_load(&cfg);
        report.check(&cfg).expect("invariants");
        // Every steady-state request was a fresh fingerprint.
        assert_eq!(report.steady_plan_builds, 40);
    }

    #[test]
    fn hit_ratio_one_plans_nothing_after_warmup() {
        let cfg = LoadConfig {
            hit_ratio: 1.0,
            requests: 60,
            ..quick_cfg()
        };
        let report = run_load(&cfg);
        report.check(&cfg).expect("invariants");
        assert_eq!(
            report.steady_plan_builds, 0,
            "pure hot traffic must never plan"
        );
        assert_eq!(report.stats.hits, 60);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
