//! The six workloads and what they share: sizing, the per-step tally, and
//! the trait the run loop drives.

mod dense;
mod dist;
mod serve;
mod sparse;

use crate::check;
use crate::stats;
use crate::trace::{Recorder, Span};
use std::time::Instant;

/// Every workload, with why it exists (one line, copied to `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "dense_square",
        "n = k = 320 dense solve: GEMM-bound blocked TRSM, the dense layer does all the work",
    ),
    (
        "sparse_repeat",
        "one analysed sparse factor applied repeatedly: the sparse executor is everything, analysis amortised to zero",
    ),
    (
        "sparse_oneshot",
        "build, plan reuse(1) and solve a never-seen sparse factor: construction and the analysis-free path, the cache-bypass twin",
    ),
    (
        "serve_hot90",
        "SolveService under 90 % hot traffic: fingerprinting, cache lookup and fusion are a large share of a small solve",
    ),
    (
        "dist_few_rhs",
        "16 simulated ranks, n = 1024, k = 16: the paper's n >> k regime, bound by message count and small inversions",
    ),
    (
        "dist_cube",
        "16 simulated ranks, n = k = 384: the 3D-grid regime, bound by block products and word volume",
    ),
];

/// Rounds of the measured phase.  `ops_per_s` is the rate of the best round:
/// on the shared host this was written on, interference only ever slows a
/// round down, in phases of a second to a minute, so the best of many short
/// rounds is the steadiest estimate of what the code can do.  (In a noisy
/// hour the best of 25 rounds spread 5–10 % of its median over seven runs
/// where the median of the rounds spread 16–22 %.)
pub const ROUNDS: usize = 25;

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// Op counts sized so the measured phase takes about this many seconds
    /// on the reference box; the counts are fixed, never time-boxed, so two
    /// commits measure the same work.
    Full { seconds: u32 },
    /// Tiny inputs and op counts: exercises every path in seconds.
    Smoke,
}

impl Scale {
    /// Steps per round, given the count a 10-second run uses.
    fn steps(self, per_round_at_10s: usize, smoke: usize) -> usize {
        match self {
            Scale::Full { seconds } => (per_round_at_10s * seconds as usize).div_ceil(10).max(1),
            Scale::Smoke => smoke,
        }
    }

    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full { .. } => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What a child process is told about its run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Worker threads `T`, passed wherever the API takes a count.
    pub threads: usize,
    /// Workers of the parallel side of the one-against-many probes
    /// (`*.par_speedup`, the cold parallel sparse paths): `min(nproc, 4)`.
    pub par_threads: usize,
    pub scale: Scale,
    /// Test-only: corrupt the reference so every check fails, proving the
    /// checks are live.
    pub corrupt_reference: bool,
}

/// Running totals of one pass.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall time of every op, in measurement order.
    pub lat_ns: Vec<u64>,
    /// Time on the op clock (checks and input generation are off it).
    pub busy_ns: u64,
    pub attempted: usize,
    pub failed: usize,
    pub max_err: f64,
}

impl Tally {
    /// Count one op: an error return or an error above `tol` is a failure.
    pub fn record(&mut self, lat_ns: u64, outcome: Result<f64, String>, tol: f64) {
        self.lat_ns.push(lat_ns);
        self.attempted += 1;
        match outcome {
            Ok(err) => {
                // NaN compares false both ways; keep it visible as the max.
                if err > self.max_err || err.is_nan() {
                    self.max_err = err;
                }
                if !check::passes(err, tol) {
                    self.failed += 1;
                }
            }
            Err(why) => {
                eprintln!("perfbench: op failed: {why}");
                self.failed += 1;
            }
        }
    }

    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }

    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&self.sorted_latencies(), 50.0) as f64 / 1e6
    }
}

/// Metric values a workload reports, by name.
pub type Metrics = Vec<(&'static str, f64)>;

pub trait Workload {
    /// Steps in one round.  A step is one clocked unit: one op, or for the
    /// service one admission window of ops.
    fn steps_per_round(&self) -> usize;

    /// Run one step: clock the op(s), then check the output off the clock.
    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally);

    /// The exact (count-like) figures of the steps since the last call.
    /// They must repeat exactly round to round and pass to pass; `Err` when
    /// they already differed between two ops.
    fn take_exact(&mut self) -> Result<Metrics, String>;

    /// Per-layer figures: the layer-below calls timed on the same input,
    /// plus what the traced pass's spans show.
    fn layer_metrics(&mut self, spans: &[Span]) -> Metrics;
}

/// Generate inputs and references, build whatever the workload reuses, and
/// warm up.  Everything here is set-up time.
pub fn build(name: &str, params: &Params) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "dense_square" => Box::new(dense::DenseSquare::new(params)),
        "sparse_repeat" => Box::new(sparse::SparseRepeat::new(params)?),
        "sparse_oneshot" => Box::new(sparse::SparseOneshot::new(params)),
        "serve_hot90" => Box::new(serve::ServeHot90::new(params)?),
        "dist_few_rhs" => Box::new(dist::Dist::few_rhs(params)?),
        "dist_cube" => Box::new(dist::Dist::cube(params)?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let warmup = (ROUNDS * w.steps_per_round()).div_ceil(50).max(2);
    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();
    for _ in 0..warmup {
        w.step(&mut rec, &mut tally);
    }
    w.take_exact()?;
    Ok(w)
}

/// Median wall time of `reps` calls of `f`, which returns its own clocked
/// nanoseconds so per-rep preparation stays off the clock.
fn median_ns_of(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<u64> = (0..reps).map(|_| f()).collect();
    stats::median_ns(&samples)
}

/// Medians of `K` variants of a call, timed in turn `reps` times over, so
/// every variant samples the same machine state and ratios between them
/// hold.  `f(k)` runs variant `k` and returns its clocked nanoseconds; each
/// turn runs it twice and keeps the second time, because the variant before
/// it has just pushed its working set out of the cache.
fn medians_interleaved<const K: usize>(reps: usize, mut f: impl FnMut(usize) -> u64) -> [f64; K] {
    let mut samples = vec![Vec::with_capacity(reps); K];
    for _ in 0..reps {
        for (k, of_k) in samples.iter_mut().enumerate() {
            f(k);
            of_k.push(f(k));
        }
    }
    std::array::from_fn(|k| stats::median_ns(&samples[k]))
}

/// Nanoseconds `f` takes.
fn clock<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Keeps the first exact tuple seen and remembers whether a later one
/// differed: exact figures are asserted, never averaged.
#[derive(Debug, Default)]
struct ExactCell {
    first: Option<Vec<f64>>,
    mismatch: Option<String>,
}

impl ExactCell {
    fn observe(&mut self, values: &[f64]) {
        match &self.first {
            None => self.first = Some(values.to_vec()),
            Some(first) if first.as_slice() != values => {
                self.mismatch
                    .get_or_insert_with(|| format!("{first:?} then {values:?}"));
            }
            Some(_) => {}
        }
    }

    /// The tuple every op since the last call agreed on.
    fn take(&mut self, names: &[&'static str]) -> Result<Metrics, String> {
        if let Some(why) = self.mismatch.take() {
            self.first = None;
            return Err(format!("exact figures {names:?} varied between ops: {why}"));
        }
        let values = self.first.take().ok_or("no op ran since the last round")?;
        Ok(names.iter().copied().zip(values).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_are_counted_against_attempts() {
        let mut t = Tally::default();
        t.record(10, Ok(1e-12), 1e-8);
        t.record(30, Ok(1e-3), 1e-8);
        t.record(20, Err("solver returned an error".into()), 1e-8);
        t.record(40, Ok(f64::NAN), 1e-8);
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert!(t.max_err.is_nan());
        // A failed op still contributes its latency: it was attempted.
        assert_eq!(t.sorted_latencies(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn exact_figures_are_asserted_not_averaged() {
        let mut cell = ExactCell::default();
        cell.observe(&[156.0, 2.0]);
        cell.observe(&[156.0, 2.0]);
        assert_eq!(
            cell.take(&["sim_msgs", "x"]).unwrap(),
            vec![("sim_msgs", 156.0), ("x", 2.0)]
        );
        assert!(cell.take(&["sim_msgs", "x"]).is_err(), "nothing observed");
        cell.observe(&[156.0, 2.0]);
        cell.observe(&[157.0, 2.0]);
        assert!(cell.take(&["sim_msgs", "x"]).is_err());
    }

    #[test]
    fn step_counts_scale_with_the_nominal_seconds() {
        assert_eq!(Scale::Full { seconds: 10 }.steps(30, 2), 30);
        assert_eq!(Scale::Full { seconds: 60 }.steps(4, 2), 24);
        assert_eq!(Scale::Full { seconds: 5 }.steps(30, 2), 15);
        assert_eq!(Scale::Full { seconds: 1 }.steps(3, 2), 1);
        assert_eq!(Scale::Smoke.steps(30, 2), 2);
    }
}
