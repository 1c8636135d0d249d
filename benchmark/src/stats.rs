//! Order statistics: percentile selection for latency samples, and the
//! quartile rule the driver uses to judge run-to-run spread.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentiles a report may quote, highest first.
const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.95, 0.90];

/// The highest candidate percentile with at least ten samples beyond
/// it — below that the "percentile" is just one of the sample's few
/// largest values (p99 of 100 samples is its maximum).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| samples_beyond(n, q) >= 10)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them — the rule the driver
/// applies to ten runs, so `--repeat` must apply the same one.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the spread figure a
/// metric's bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 100 samples is the maximum: nothing beyond it.
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(50), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
