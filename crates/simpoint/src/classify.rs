//! The end-to-end SimPoint classifier: project → sweep k → pick by BIC.

use tpcp_trace::BbvTrace;

use crate::bic::bic_score;
use crate::kmeans::kmeans;
use crate::projection::RandomProjection;

/// Configuration of the offline classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPointConfig {
    /// Projected dimensionality (ASPLOS'02 uses 15).
    pub projected_dims: usize,
    /// Largest cluster count to consider.
    pub max_k: usize,
    /// Pick the smallest k whose BIC reaches this fraction of the best
    /// observed BIC (SimPoint's standard rule; 0.9 by default).
    pub bic_fraction: f64,
    /// k-means iteration cap.
    pub max_iters: usize,
    /// Seed for the projection and k-means initialization.
    pub seed: u64,
}

impl Default for SimPointConfig {
    fn default() -> Self {
        Self {
            projected_dims: 15,
            max_k: 10,
            bic_fraction: 0.9,
            max_iters: 100,
            seed: 0x5EED_0001,
        }
    }
}

/// Result of an offline classification.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointResult {
    /// Chosen cluster (phase) index per interval.
    pub assignments: Vec<usize>,
    /// The chosen number of clusters.
    pub k: usize,
    /// `(k, BIC score)` for every k evaluated.
    pub bic_scores: Vec<(usize, f64)>,
}

/// The offline SimPoint-style classifier; see the crate docs for the
/// algorithm and [`SimPointConfig`] for knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimPointClassifier {
    config: SimPointConfig,
}

impl SimPointClassifier {
    /// Creates a classifier.
    ///
    /// # Panics
    ///
    /// Panics if `projected_dims` or `max_k` is zero, or `bic_fraction` is
    /// not in `(0, 1]`.
    pub fn new(config: SimPointConfig) -> Self {
        assert!(config.projected_dims > 0, "projected dims must be positive");
        assert!(config.max_k > 0, "max_k must be positive");
        assert!(
            config.bic_fraction > 0.0 && config.bic_fraction <= 1.0,
            "bic_fraction must be in (0, 1]"
        );
        Self { config }
    }

    /// The classifier's configuration.
    pub fn config(&self) -> &SimPointConfig {
        &self.config
    }

    /// Classifies a BBV trace into phases.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn classify(&self, trace: &BbvTrace) -> SimPointResult {
        assert!(!trace.is_empty(), "cannot classify an empty trace");
        let cfg = &self.config;
        let projection = RandomProjection::new(cfg.projected_dims, cfg.seed);
        let points = projection.project_all(&trace.vectors);

        let max_k = cfg.max_k.min(points.len());
        let runs: Vec<_> = (1..=max_k)
            .map(|k| {
                let r = kmeans(
                    &points,
                    k,
                    cfg.max_iters,
                    cfg.seed ^ (k as u64).wrapping_mul(0x9E37),
                );
                let score = bic_score(&points, &r);
                (k, r, score)
            })
            .collect();

        // SimPoint rule: smallest k reaching bic_fraction of the score
        // span above the worst score (scores can be negative, so normalize
        // against the observed range).
        let best = runs
            .iter()
            .map(|(_, _, s)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        let worst = runs
            .iter()
            .map(|(_, _, s)| *s)
            .fold(f64::INFINITY, f64::min);
        let span = (best - worst).max(f64::EPSILON);
        let threshold = worst + cfg.bic_fraction * span;

        let chosen = runs
            .iter()
            .find(|(_, _, s)| *s >= threshold)
            .or(runs.last())
            .expect("at least one k evaluated");

        SimPointResult {
            assignments: chosen.1.assignments.clone(),
            k: chosen.0,
            bic_scores: runs.iter().map(|(k, _, s)| (*k, *s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_trace::{BbvTrace, PhaseSpec, SyntheticTrace};

    fn three_phase_trace() -> BbvTrace {
        let trace = SyntheticTrace::new(10_000)
            .phase(PhaseSpec::uniform(0x1000, 6, 1.0))
            .phase(PhaseSpec::uniform(0x9000, 6, 2.0))
            .phase(PhaseSpec::uniform(0x5_0000, 6, 3.0))
            .schedule(&[(0, 15), (1, 15), (2, 15), (0, 15)])
            .generate();
        BbvTrace::collect(trace.replay())
    }

    #[test]
    fn recovers_scripted_phases() {
        let result =
            SimPointClassifier::new(SimPointConfig::default()).classify(&three_phase_trace());
        // Reappearing phase 0 gets the same cluster.
        assert_eq!(result.assignments[0], result.assignments[50]);
        // The three scripted phases are distinguished.
        assert_ne!(result.assignments[0], result.assignments[20]);
        assert_ne!(result.assignments[20], result.assignments[35]);
        assert!(result.k >= 3, "chose k = {}", result.k);
    }

    #[test]
    fn bic_scores_reported_for_every_k() {
        let cfg = SimPointConfig {
            max_k: 6,
            ..Default::default()
        };
        let result = SimPointClassifier::new(cfg).classify(&three_phase_trace());
        assert_eq!(result.bic_scores.len(), 6);
        assert!(result.bic_scores.iter().all(|(_, s)| s.is_finite()));
    }

    #[test]
    fn deterministic_for_seed() {
        let trace = three_phase_trace();
        let a = SimPointClassifier::new(SimPointConfig::default()).classify(&trace);
        let b = SimPointClassifier::new(SimPointConfig::default()).classify(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn single_interval_trace_works() {
        let trace = SyntheticTrace::new(1_000)
            .phase(PhaseSpec::uniform(0x1000, 2, 1.0))
            .schedule(&[(0, 1)])
            .generate();
        let bbvs = BbvTrace::collect(trace.replay());
        let result = SimPointClassifier::new(SimPointConfig::default()).classify(&bbvs);
        assert_eq!(result.assignments, vec![0]);
        assert_eq!(result.k, 1);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        SimPointClassifier::new(SimPointConfig::default()).classify(&BbvTrace::default());
    }
}
