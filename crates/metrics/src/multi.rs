//! Multi-metric homogeneity: CoV per phase for a *vector* of metrics.
//!
//! The premise behind code-signature phase classification (Sherwood et
//! al., carried into this paper) is that intervals grouped by code behave
//! similarly across **all** architectural metrics, not just CPI. This
//! accumulator evaluates a classification against any metric vector
//! (CPI, cache MPKI, branch MPKI, ...) at once.

use std::collections::BTreeMap;

use tpcp_core::PhaseId;

use crate::stats::Welford;

/// Accumulates `(phase, metric-vector)` observations.
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_metrics::VectorCovAccumulator;
///
/// let mut acc = VectorCovAccumulator::new(vec!["cpi".into(), "dl1 mpki".into()]);
/// for _ in 0..10 {
///     acc.observe(PhaseId::new(1), &[1.0, 5.0]);
///     acc.observe(PhaseId::new(2), &[3.0, 40.0]);
/// }
/// let s = acc.finish();
/// // Perfectly homogeneous phases on both metrics.
/// assert!(s.weighted_cov(0) < 1e-12);
/// assert!(s.weighted_cov(1) < 1e-12);
/// assert!(s.whole_program_cov(1) > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct VectorCovAccumulator {
    labels: Vec<String>,
    per_phase: BTreeMap<PhaseId, Vec<Welford>>,
    whole: Vec<Welford>,
}

impl VectorCovAccumulator {
    /// Creates an accumulator for the given metric labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    pub fn new(labels: Vec<String>) -> Self {
        assert!(!labels.is_empty(), "at least one metric required");
        let n = labels.len();
        Self {
            labels,
            per_phase: BTreeMap::new(),
            whole: vec![Welford::new(); n],
        }
    }

    /// Creates an accumulator for the standard interval metric vector:
    /// CPI followed by each microarchitectural event rate in
    /// [`MetricCounts::LABELS`](tpcp_core::MetricCounts::LABELS) order.
    /// This is the layout fed by the accumulator's
    /// [`PhaseObserver`](tpcp_core::PhaseObserver) implementation.
    pub fn cpi_mpki() -> Self {
        let mut labels = vec!["cpi".to_owned()];
        labels.extend(
            tpcp_core::MetricCounts::LABELS
                .iter()
                .map(|l| format!("{l} mpki")),
        );
        Self::new(labels)
    }

    /// Records one interval.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the label count.
    pub fn observe(&mut self, phase: PhaseId, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.labels.len(),
            "metric vector width must match labels"
        );
        let slots = self
            .per_phase
            .entry(phase)
            .or_insert_with(|| vec![Welford::new(); self.labels.len()]);
        for ((slot, whole), &v) in slots.iter_mut().zip(&mut self.whole).zip(values) {
            slot.push(v);
            whole.push(v);
        }
    }

    /// Finalizes into a summary.
    pub fn finish(self) -> VectorCovSummary {
        VectorCovSummary {
            labels: self.labels,
            per_phase: self.per_phase,
            whole: self.whole,
        }
    }
}

/// Per-metric CoV summary of one classification.
#[derive(Debug, Clone)]
pub struct VectorCovSummary {
    labels: Vec<String>,
    per_phase: BTreeMap<PhaseId, Vec<Welford>>,
    whole: Vec<Welford>,
}

impl VectorCovSummary {
    /// Metric labels (column order for the index-based accessors).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Execution-weighted per-phase CoV of metric `m`, transition phase
    /// excluded — the Section 3.1 metric generalized beyond CPI.
    pub fn weighted_cov(&self, m: usize) -> f64 {
        let stable: Vec<(&PhaseId, &Vec<Welford>)> = self
            .per_phase
            .iter()
            .filter(|(p, _)| !p.is_transition())
            .collect();
        let total: u64 = stable.iter().map(|(_, w)| w[m].count()).sum();
        if total == 0 {
            return 0.0;
        }
        stable
            .iter()
            .map(|(_, w)| w[m].cov() * w[m].count() as f64 / total as f64)
            .sum()
    }

    /// Whole-program CoV of metric `m`.
    pub fn whole_program_cov(&self, m: usize) -> f64 {
        self.whole[m].cov()
    }

    /// Whole-program mean of metric `m` — used to recognize degenerate
    /// metrics (a near-zero mean makes CoV meaningless: one stray event
    /// produces a CoV in the thousands of percent).
    pub fn whole_program_mean(&self, m: usize) -> f64 {
        self.whole[m].mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn metrics_are_independent_columns() {
        let mut acc = VectorCovAccumulator::new(vec!["a".into(), "b".into()]);
        // Metric a homogeneous within phases, metric b noisy within phase 1.
        for i in 0..10 {
            acc.observe(id(1), &[1.0, f64::from(i % 2) * 10.0]);
            acc.observe(id(2), &[5.0, 3.0]);
        }
        let s = acc.finish();
        assert!(s.weighted_cov(0) < 1e-12);
        assert!(s.weighted_cov(1) > 0.3, "{}", s.weighted_cov(1));
    }

    #[test]
    fn transition_excluded() {
        let mut acc = VectorCovAccumulator::new(vec!["x".into()]);
        acc.observe(PhaseId::TRANSITION, &[100.0]);
        acc.observe(PhaseId::TRANSITION, &[0.1]);
        for _ in 0..5 {
            acc.observe(id(1), &[2.0]);
        }
        let s = acc.finish();
        assert!(s.weighted_cov(0) < 1e-12);
        assert!(s.whole_program_cov(0) > 1.0);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn ragged_vector_rejected() {
        let mut acc = VectorCovAccumulator::new(vec!["a".into(), "b".into()]);
        acc.observe(id(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one metric")]
    fn empty_labels_rejected() {
        VectorCovAccumulator::new(vec![]);
    }
}
