//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this vendored shim
//! provides the benchmark-definition macros and a straightforward
//! measurement loop: per benchmark it calibrates an iteration count so a
//! sample takes a few milliseconds, collects `sample_size` samples, and
//! reports the minimum / median / maximum time per iteration.  Results are
//! printed to stdout and appended to `target/shim-criterion.csv` so other
//! tools can consume them.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time for one measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);

/// Top-level benchmark driver, configured per `criterion_group!`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of measurement samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
        }
    }

    /// Runs a single free-standing benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, self.sample_size, f);
    }
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered from a function name and a parameter.
    pub fn new<D1: Display, D2: Display>(name: D1, parameter: D2) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id rendered from the parameter alone.
    pub fn from_parameter<D: Display>(parameter: D) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Benchmarks `f` with an input value.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.id);
        run_benchmark(&label, self.sample_size, |bencher| f(bencher, input));
    }

    /// Benchmarks `f` without a dedicated input.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.id);
        run_benchmark(&label, self.sample_size, |bencher| f(bencher));
    }

    /// Ends the group (kept for API compatibility; measurement is eager).
    pub fn finish(self) {}
}

/// Timing loop handle passed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    /// Nanoseconds per iteration for each collected sample.
    samples: Vec<f64>,
}

impl Bencher {
    /// Measures `f`, calibrating the per-sample iteration count first.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and calibration: time single runs until the total exceeds
        // the sample target, to pick iterations-per-sample.
        let mut once = Duration::ZERO;
        let mut runs = 0u32;
        let calibration_start = Instant::now();
        while calibration_start.elapsed() < SAMPLE_TARGET && runs < 1000 {
            let t = Instant::now();
            black_box(f());
            once += t.elapsed();
            runs += 1;
        }
        let per_iter = once / runs.max(1);
        let iters = if per_iter >= SAMPLE_TARGET {
            1
        } else {
            (SAMPLE_TARGET.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }
}

fn run_benchmark<F>(label: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{label:<40} (no measurement: Bencher::iter never called)");
        return;
    }
    let mut sorted = bencher.samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let max = sorted[sorted.len() - 1];
    println!(
        "{label:<40} time: [{} {} {}]",
        format_ns(min),
        format_ns(median),
        format_ns(max)
    );
    append_csv(label, min, median, max);
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns")
    } else if ns < 1e6 {
        format!("{:.3} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn append_csv(label: &str, min: f64, median: f64, max: f64) {
    use std::io::Write as _;
    let path = std::path::Path::new("target");
    if !path.exists() {
        return;
    }
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path.join("shim-criterion.csv"))
    {
        let _ = writeln!(file, "{label},{min},{median},{max}");
    }
}

/// Declares a benchmark group: either `criterion_group!(name, target, …)` or
/// the long form with explicit `config = …`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("shim_smoke");
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(1), &1u32, |b, _| {
            b.iter(|| {
                calls += 1;
                std::hint::black_box(calls)
            });
        });
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::from_parameter(64).id, "64");
        assert_eq!(BenchmarkId::new("gemm", 64).id, "gemm/64");
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(12_000_000_000.0).contains("s"));
    }
}
