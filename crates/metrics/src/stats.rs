//! Streaming statistics.

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long streams of close values (per-phase CPIs are
/// exactly that).
///
/// # Example
///
/// ```
/// use tpcp_metrics::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than 2 samples).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation: `std_dev / mean` (0 when the mean is 0).
    ///
    /// This is the paper's homogeneity metric (Section 3.1).
    pub fn cov(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.population_std_dev() / self.mean
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.cov(), 0.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn constant_stream_has_zero_cov() {
        let mut w = Welford::new();
        for _ in 0..100 {
            w.push(3.5);
        }
        assert!(w.cov() < 1e-12);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 2.0 + 5.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.population_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.7).collect();
        let (left, right) = xs.split_at(11);
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut whole = Welford::new();
        for &x in left {
            a.push(x);
        }
        for &x in right {
            b.push(x);
        }
        for &x in &xs {
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
