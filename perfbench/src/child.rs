//! One workload, in this process: the untraced measured run or the traced
//! pass.  The runner starts a fresh child per workload and pass so each has
//! its own `DENSE_THREADS` resolution and its own peak RSS.

use crate::json::Value;
use crate::metrics::{END_TO_END, SHARE_NAMES};
use crate::stats;
use crate::trace::{self, Recorder, SPAN_NAMES};
use crate::workloads::{self, Metrics, Params, Scale, Tally, ROUNDS};
use std::path::Path;
use std::time::Instant;

/// What a child measured, printed as its last line of output.
#[derive(Debug)]
pub struct ChildResult {
    pub attempted: usize,
    pub failed: usize,
    /// Ops whose latency was measured.
    pub samples: usize,
    pub metrics: Metrics,
    /// The exact figures, for comparing the traced against the untraced pass.
    pub exact: Metrics,
}

impl ChildResult {
    pub fn to_json(&self) -> Value {
        let obj = |m: &Metrics| {
            Value::Obj(
                m.iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                    .collect(),
            )
        };
        Value::Obj(vec![
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("samples".into(), Value::Num(self.samples as f64)),
            ("metrics".into(), obj(&self.metrics)),
            ("exact".into(), obj(&self.exact)),
        ])
    }
}

/// Exact figures are asserted, never averaged: keep the first round's, and
/// fail the run on a round that disagrees with them.
fn keep_exact(first: &mut Option<Metrics>, round: Metrics) -> Result<(), String> {
    match first {
        None => *first = Some(round),
        Some(first) if *first != round => {
            return Err(format!(
                "exact figures changed between rounds: {first:?} then {round:?}"
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// `VmHWM` of this process in MB: memory moved into set-up or caches shows.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The measured run: tracing off, `ROUNDS` equal rounds of a fixed op count.
pub fn untraced(name: &str, params: &Params) -> Result<ChildResult, String> {
    // Set up several times: one set-up is a single sample of input
    // generation, reference solutions, planning and warm-up.  The fastest is
    // reported, for the reason the best round is: the shared host only ever
    // slows a set-up down, and for minutes at a time, so the median of seven
    // drifted 46 % between a quiet and a noisy hour.
    let setups = match params.scale {
        Scale::Full { .. } => 7,
        Scale::Smoke => 1,
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(workloads::build(name, params)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up ran");

    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();
    let mut rates = Vec::with_capacity(ROUNDS);
    let mut exact: Option<Metrics> = None;
    for _ in 0..ROUNDS {
        let (ops_before, busy_before) = (tally.attempted, tally.busy_ns);
        for _ in 0..w.steps_per_round() {
            w.step(&mut rec, &mut tally);
        }
        keep_exact(&mut exact, w.take_exact()?)?;
        let busy_s = (tally.busy_ns - busy_before) as f64 / 1e9;
        rates.push((tally.attempted - ops_before) as f64 / busy_s);
    }
    let exact = exact.expect("at least one round ran");
    eprintln!("perfbench: {name}: ops/s per round {rates:.2?}");

    let sorted = tally.sorted_latencies();
    let mut metrics: Metrics = vec![
        (
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("op_p50_ms", stats::percentile(&sorted, 50.0) as f64 / 1e6),
        ("op_p90_ms", stats::percentile(&sorted, 90.0) as f64 / 1e6),
        ("ops_per_s", rates.iter().copied().fold(0.0, f64::max)),
        ("fail_ratio", tally.failed as f64 / tally.attempted as f64),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    // The exact figures that are end-to-end metrics (`sim_*` on `dist_*`).
    let end_to_end = |name: &str| END_TO_END.iter().any(|d| d.name == name);
    metrics.extend(exact.iter().copied().filter(|(k, _)| end_to_end(k)));
    Ok(ChildResult {
        attempted: tally.attempted,
        failed: tally.failed,
        samples: sorted.len(),
        metrics,
        exact,
    })
}

/// The traced pass: ops alternate between the recorder off and on, so both
/// kinds sample the same machine state (two-thread ops on this class of box
/// switch between a fast and a slow regime for seconds at a time) and the
/// ratio of their medians is the tracing overhead.  Then the layer-below
/// calls on the same input.  Writes the trace file.
pub fn traced(name: &str, params: &Params, trace_file: &Path) -> Result<ChildResult, String> {
    let mut w = workloads::build(name, params)?;
    // Whole rounds, so per-round exact figures match the untraced run's; at
    // least 30 traced steps unless this is a smoke run.
    let rounds = match params.scale {
        Scale::Full { .. } => 2 * 30usize.div_ceil(w.steps_per_round()).max(1),
        Scale::Smoke => 2,
    };
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let (mut traced, mut plain) = (Tally::default(), Tally::default());
    let mut exact: Option<Metrics> = None;
    let mut step = 0usize;
    for _ in 0..rounds {
        for _ in 0..w.steps_per_round() {
            if step.is_multiple_of(2) {
                w.step(&mut off, &mut plain);
            } else {
                w.step(&mut rec, &mut traced);
            }
            step += 1;
        }
        keep_exact(&mut exact, w.take_exact()?)?;
    }
    let exact = exact.expect("at least one round ran");

    let spans = rec.spans();
    let mut metrics = w.layer_metrics(spans);
    metrics.extend(exact.iter().copied());
    metrics.push(("trace.overhead_ratio", traced.p50_ms() / plain.p50_ms()));
    metrics.push(("max_rel_err", plain.max_err.max(traced.max_err)));
    let selfs = trace::self_times(spans);
    let op_total: u64 = trace::durations(spans, "op").iter().sum();
    // Spans this workload never opens are left out; they read as 0.
    for (share, span) in SHARE_NAMES.iter().zip(SPAN_NAMES) {
        if let Some(&self_ns) = selfs.get(span) {
            metrics.push((share, self_ns as f64 / op_total as f64));
        }
    }

    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = trace::to_json(name, spans, &selfs, op_total);
    std::fs::write(trace_file, file.to_string())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    Ok(ChildResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        samples: traced.lat_ns.len(),
        metrics,
        exact,
    })
}
