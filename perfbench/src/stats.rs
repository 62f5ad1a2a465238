//! Order statistics: percentiles with their sample-count rule, and the
//! quartile spread the steadiness report uses.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it. `NaN`
/// for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// One-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // Round before the ceiling so that e.g. 0.9 * 100 = 90.00000000000001
    // still ranks 90, not 91.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    exact.ceil() as usize
}

/// How many samples lie beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p).max(1))
}

/// A percentile is supported when at least ten samples lie beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method) computes them. Needs at least
/// three values; `NaN` otherwise.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 3 {
        return (f64::NAN, f64::NAN);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ascending(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&ascending(10), 90.0), 9.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ascending(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ascending(5)), (1.5, 4.5));
        assert!(quartiles(&[1.0, 2.0]).0.is_nan());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&ascending(10)), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }
}
