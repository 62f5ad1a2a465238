//! Coefficient-of-variation metrics (Section 3.1).

use std::collections::BTreeMap;

use tpcp_core::PhaseId;

use crate::stats::Welford;

/// Per-phase CPI statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCov {
    /// The phase.
    pub phase: PhaseId,
    /// Intervals classified into the phase.
    pub intervals: u64,
    /// Mean CPI of those intervals.
    pub mean_cpi: f64,
    /// Coefficient of variation of CPI within the phase.
    pub cov: f64,
}

/// Accumulates `(phase, CPI)` observations into a [`CovSummary`].
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_metrics::CovAccumulator;
///
/// let mut acc = CovAccumulator::new();
/// acc.observe(PhaseId::new(1), 1.0);
/// acc.observe(PhaseId::new(1), 1.2);
/// acc.observe(PhaseId::TRANSITION, 9.0); // excluded from weighted CoV
/// let s = acc.finish();
/// assert_eq!(s.phases().len(), 2);
/// assert!(s.weighted_cov() < 0.2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CovAccumulator {
    per_phase: BTreeMap<PhaseId, Welford>,
    whole: Welford,
}

impl CovAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one interval's phase and CPI.
    pub fn observe(&mut self, phase: PhaseId, cpi: f64) {
        self.per_phase.entry(phase).or_default().push(cpi);
        self.whole.push(cpi);
    }

    /// Finalizes into a summary.
    pub fn finish(self) -> CovSummary {
        let phases: Vec<PhaseCov> = self
            .per_phase
            .iter()
            .map(|(&phase, w)| PhaseCov {
                phase,
                intervals: w.count(),
                mean_cpi: w.mean(),
                cov: w.cov(),
            })
            .collect();
        CovSummary {
            phases,
            whole: self.whole,
        }
    }
}

/// The paper's CoV summary of one phase classification.
#[derive(Debug, Clone, PartialEq)]
pub struct CovSummary {
    phases: Vec<PhaseCov>,
    whole: Welford,
}

impl CovSummary {
    /// Per-phase statistics, ordered by phase ID (transition first).
    pub fn phases(&self) -> &[PhaseCov] {
        &self.phases
    }

    /// The statistics row for one phase, if present.
    pub fn phase(&self, id: PhaseId) -> Option<&PhaseCov> {
        self.phases.iter().find(|p| p.phase == id)
    }

    /// Number of *stable* phases observed (transition excluded).
    pub fn stable_phase_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| !p.phase.is_transition())
            .count()
    }

    /// The overall metric of Section 3.1: each stable phase's CoV weighted
    /// by the fraction of (stable) execution it accounts for, summed.
    ///
    /// Intervals classified into the transition phase are excluded, as in
    /// the paper ("the transition phase is not included in the CPI CoV
    /// calculations").
    pub fn weighted_cov(&self) -> f64 {
        let stable: Vec<&PhaseCov> = self
            .phases
            .iter()
            .filter(|p| !p.phase.is_transition())
            .collect();
        let total: u64 = stable.iter().map(|p| p.intervals).sum();
        if total == 0 {
            return 0.0;
        }
        stable
            .iter()
            .map(|p| p.cov * p.intervals as f64 / total as f64)
            .sum()
    }

    /// CoV of CPI over *all* intervals regardless of phase — the paper's
    /// "Whole Program" baseline (~80% on average for SPEC).
    pub fn whole_program_cov(&self) -> f64 {
        self.whole.cov()
    }

    /// Fraction of intervals classified into the transition phase.
    pub fn transition_fraction(&self) -> f64 {
        let total = self.whole.count();
        if total == 0 {
            return 0.0;
        }
        let transition = self.phase(PhaseId::TRANSITION).map_or(0, |p| p.intervals);
        transition as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = CovAccumulator::new().finish();
        assert_eq!(s.weighted_cov(), 0.0);
        assert_eq!(s.whole_program_cov(), 0.0);
        assert_eq!(s.transition_fraction(), 0.0);
        assert_eq!(s.stable_phase_count(), 0);
    }

    #[test]
    fn homogeneous_phases_score_zero() {
        let mut acc = CovAccumulator::new();
        for _ in 0..5 {
            acc.observe(id(1), 2.0);
            acc.observe(id(2), 8.0);
        }
        let s = acc.finish();
        assert!(s.weighted_cov() < 1e-12);
        assert!(
            s.whole_program_cov() > 0.5,
            "mixing phases is heterogeneous"
        );
    }

    #[test]
    fn weighting_is_by_interval_count() {
        let mut acc = CovAccumulator::new();
        // Phase 1: 90 intervals, CoV 0. Phase 2: 10 intervals with spread.
        for _ in 0..90 {
            acc.observe(id(1), 1.0);
        }
        for i in 0..10 {
            acc.observe(id(2), 1.0 + f64::from(i % 2)); // mean 1.5, std 0.5
        }
        let s = acc.finish();
        let p2_cov = s.phase(id(2)).unwrap().cov;
        let expected = 0.9 * 0.0 + 0.1 * p2_cov;
        assert!((s.weighted_cov() - expected).abs() < 1e-12);
    }

    #[test]
    fn transition_excluded_from_weighted_cov() {
        let mut acc = CovAccumulator::new();
        for _ in 0..10 {
            acc.observe(id(1), 1.0);
        }
        // Wild transition CPIs must not affect the weighted CoV.
        acc.observe(PhaseId::TRANSITION, 100.0);
        acc.observe(PhaseId::TRANSITION, 0.01);
        let s = acc.finish();
        assert!(s.weighted_cov() < 1e-12);
        assert!((s.transition_fraction() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn stable_phase_count_ignores_transition() {
        let mut acc = CovAccumulator::new();
        acc.observe(PhaseId::TRANSITION, 1.0);
        acc.observe(id(1), 1.0);
        acc.observe(id(2), 1.0);
        let s = acc.finish();
        assert_eq!(s.stable_phase_count(), 2);
        assert_eq!(s.phases().len(), 3);
    }

    #[test]
    fn single_phase_weighted_cov_equals_its_cov() {
        let mut acc = CovAccumulator::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            acc.observe(id(7), x);
        }
        let s = acc.finish();
        assert!((s.weighted_cov() - s.phase(id(7)).unwrap().cov).abs() < 1e-12);
    }
}
