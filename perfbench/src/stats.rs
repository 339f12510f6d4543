//! Order statistics the report is built from.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `p`-th percentile's rank.  A percentile is
/// only reported as a tail figure when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of unordered values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples, as a float.
pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>())
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance rule is stated
/// in.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // Nearest rank never interpolates: 5 samples, p50 is the third.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[7], 90.0), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 100 samples are the fewest that leave ten beyond the p90 rank.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(8000, 90.0), 800);
        assert_eq!(samples_beyond(100, 50.0), 50);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow round out of five does not move the reported rate.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 12.0]), 100.0);
        assert_eq!(median_ns(&[3, 1, 2]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), 5.5 / 5.5);
    }
}
