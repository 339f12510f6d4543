//! `perfbench compare A B`: per (workload, metric), how B's runs differ from
//! A's, against the metric's bound.  Each file is a ledger written with
//! `run --out` — one run per line — so a side may hold several runs.

use crate::json::{self, Value};
use crate::metrics::{self, Kind};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "no change" cannot
    /// be told from a change: reported as unresolved, never as unchanged.
    Unresolved,
    /// An exact figure repeated exactly.
    Same,
    /// An exact figure differs.
    Differs,
    /// Exact figures depend on the seed; the two sides used different seeds.
    SeedsDiffer,
    /// A per-layer figure: shown for the reader, not judged.
    Layer,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::SeedsDiffer => "not compared (seeds differ)",
            Verdict::Layer => "",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }
}

/// Interquartile spread as a share of the median; 0 for a single run or a
/// metric that is 0 throughout.
fn spread_of(values: &[f64]) -> f64 {
    if values.len() < 2 || values.iter().all(|v| *v == 0.0) {
        0.0
    } else {
        stats::spread(values)
    }
}

/// Judge one timed metric: `a` and `b` are the sides' values over their runs.
/// Returns the verdict and how much worse B's median is, as a share of A's.
pub fn judge_timed(a: &[f64], b: &[f64], bound: f64, better: &str) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match better {
        "higher" => (ma - mb) / ma,
        _ => (mb - ma) / ma,
    };
    let spread = spread_of(a).max(spread_of(b));
    let verdict = if worse > bound && worse > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (verdict, worse)
}

/// `{(workload, section, metric): values over the runs}` plus the seeds.
type Side = (BTreeMap<(String, String, String), Vec<f64>>, Vec<u64>);

fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values: BTreeMap<_, Vec<f64>> = BTreeMap::new();
    let mut seeds = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let seed = run.get("stamp").and_then(|s| s.get("seed"));
        seeds.push(seed.and_then(Value::as_f64).ok_or("a run without a seed")? as u64);
        for (workload, entry) in run.get("workloads").map_or(&[][..], Value::fields) {
            for section in ["end_to_end", "per_layer"] {
                for (metric, m) in entry.get(section).map_or(&[][..], Value::fields) {
                    let v = m.get("value").and_then(Value::as_f64);
                    values
                        .entry((workload.clone(), section.to_string(), metric.clone()))
                        .or_default()
                        .push(v.ok_or_else(|| format!("{workload}/{metric}: no value"))?);
                }
            }
        }
    }
    if seeds.is_empty() {
        return Err(format!("{}: no runs", path.display()));
    }
    seeds.sort_unstable();
    seeds.dedup();
    Ok((values, seeds))
}

/// Print the comparison; `Err` when a metric regressed or an exact figure
/// differs.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let (a, a_seeds) = load(a_path)?;
    let (b, b_seeds) = load(b_path)?;
    println!(
        "A = {} (seeds {a_seeds:?})\nB = {} (seeds {b_seeds:?})",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<15} {:<36} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "bound", "sprd A %", "sprd B %"
    );
    let mut failures = 0;
    for ((workload, section, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), section.clone(), metric.clone())) else {
            println!("{workload:<15} {metric:<36} missing from B");
            failures += 1;
            continue;
        };
        let def = metrics::find(metric).ok_or_else(|| format!("unknown metric {metric}"))?;
        let (verdict, worse, bound) = match def.kind {
            Kind::Timed { bound } => {
                let (v, worse) = judge_timed(va, vb, bound, def.better);
                (v, worse, format!("{:.0} %", bound * 100.0))
            }
            Kind::Layer => (
                Verdict::Layer,
                judge_timed(va, vb, f64::INFINITY, def.better).1,
                String::new(),
            ),
            // A failed op is a regression whatever the seed.
            Kind::Exact if metric == "fail_ratio" => {
                let worse = stats::median(vb) - stats::median(va);
                let v = if worse > 0.0 {
                    Verdict::Regressed
                } else {
                    Verdict::Same
                };
                (v, worse, "0".to_string())
            }
            Kind::Exact if a_seeds != b_seeds => (Verdict::SeedsDiffer, 0.0, "exact".to_string()),
            Kind::Exact => {
                let same = va.iter().chain(vb).all(|v| *v == va[0]);
                let v = if same {
                    Verdict::Same
                } else {
                    Verdict::Differs
                };
                (v, (stats::median(vb) - va[0]) / va[0], "exact".to_string())
            }
        };
        failures += usize::from(verdict.fails());
        println!(
            "{workload:<15} {metric:<36} {:>14.6} {:>14.6} {:>8.2} {bound:>6} {:>8.2} {:>8.2}  {}",
            stats::median(va),
            stats::median(vb),
            worse * 100.0,
            spread_of(va) * 100.0,
            spread_of(vb) * 100.0,
            verdict.label()
        );
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failures} metric(s) regressed, differ or are missing"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // 5 % worse on a 10 % bound with 1 % spread: within bound.
        let (v, worse) = judge_timed(&steady, &[105.0, 106.0, 104.0, 105.5], 0.10, "lower");
        assert_eq!(v, Verdict::WithinBound);
        assert!((worse - 0.05).abs() < 0.01);
        // 20 % worse: regressed.
        let (v, _) = judge_timed(&steady, &[120.0, 121.0, 119.0, 120.5], 0.10, "lower");
        assert_eq!(v, Verdict::Regressed);
        // For a rate, lower is worse.
        let (v, _) = judge_timed(&steady, &[80.0, 81.0, 79.0, 80.5], 0.10, "higher");
        assert_eq!(v, Verdict::Regressed);
        let (v, _) = judge_timed(&steady, &[120.0, 121.0, 119.0, 120.5], 0.10, "higher");
        assert_eq!(v, Verdict::WithinBound);
        // Spread wider than the bound: unresolved, not unchanged.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        let (v, _) = judge_timed(&noisy, &noisy, 0.10, "lower");
        assert_eq!(v, Verdict::Unresolved);
        // ... unless the change is larger than both.
        let (v, _) = judge_timed(&noisy, &[300.0, 310.0, 320.0, 330.0], 0.10, "lower");
        assert_eq!(v, Verdict::Regressed);
        // A single run per side has no spread to speak of.
        let (v, _) = judge_timed(&[100.0], &[104.0], 0.10, "lower");
        assert_eq!(v, Verdict::WithinBound);
    }
}
