//! Simulation point selection — what SimPoint is actually *for*.
//!
//! After clustering, SimPoint picks one representative interval per
//! cluster (the interval closest to the cluster centroid) and weights it
//! by the cluster's share of execution. Simulating only those points and
//! combining them with their weights estimates whole-program behaviour at
//! a tiny fraction of the cost (Sherwood et al., ASPLOS'02).

use tpcp_trace::BbvTrace;

use crate::classify::SimPointResult;
use crate::projection::RandomProjection;

/// One chosen simulation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Interval index of the representative.
    pub interval: usize,
    /// The cluster it represents.
    pub cluster: usize,
    /// Fraction of execution (intervals) its cluster accounts for.
    pub weight: f64,
}

/// The selected simulation points for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoints {
    /// One point per non-empty cluster, ordered by cluster index.
    pub points: Vec<SimPoint>,
}

impl SimPoints {
    /// Picks simulation points from a clustering of `trace`.
    ///
    /// For each cluster, the member interval whose projected BBV is
    /// closest to the cluster's mean is chosen; its weight is the
    /// cluster's interval share.
    ///
    /// # Panics
    ///
    /// Panics if `result.assignments` does not match the trace length.
    pub fn select(
        trace: &BbvTrace,
        result: &SimPointResult,
        projection: &RandomProjection,
    ) -> Self {
        assert_eq!(
            trace.len(),
            result.assignments.len(),
            "clustering must cover the trace"
        );
        let points_proj = projection.project_all(&trace.vectors);
        let k = result.k;

        // Cluster means in projected space.
        let dims = projection.dims();
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0usize; k];
        for (p, &c) in points_proj.iter().zip(&result.assignments) {
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(p) {
                *s += x;
            }
        }

        let mut points = Vec::new();
        for cluster in 0..k {
            if counts[cluster] == 0 {
                continue;
            }
            let mean: Vec<f64> = sums[cluster]
                .iter()
                .map(|s| s / counts[cluster] as f64)
                .collect();
            let representative = points_proj
                .iter()
                .enumerate()
                .filter(|(i, _)| result.assignments[*i] == cluster)
                .min_by(|(_, a), (_, b)| {
                    let da: f64 = a.iter().zip(&mean).map(|(x, m)| (x - m) * (x - m)).sum();
                    let db: f64 = b.iter().zip(&mean).map(|(x, m)| (x - m) * (x - m)).sum();
                    da.partial_cmp(&db).expect("finite distances")
                })
                .map(|(i, _)| i)
                .expect("non-empty cluster has a representative");
            points.push(SimPoint {
                interval: representative,
                cluster,
                weight: counts[cluster] as f64 / trace.len() as f64,
            });
        }
        Self { points }
    }

    /// Estimates whole-program CPI by combining each point's CPI with its
    /// cluster weight — the SimPoint use case.
    pub fn estimate_cpi(&self, trace: &BbvTrace) -> f64 {
        self.points
            .iter()
            .map(|p| trace.summaries[p.interval].cpi() * p.weight)
            .sum()
    }

    /// The true whole-program CPI (weighted by interval instructions) for
    /// comparison with [`estimate_cpi`](Self::estimate_cpi).
    pub fn true_cpi(trace: &BbvTrace) -> f64 {
        let cycles: u64 = trace.summaries.iter().map(|s| s.cycles).sum();
        let insns: u64 = trace.summaries.iter().map(|s| s.instructions).sum();
        if insns == 0 {
            0.0
        } else {
            cycles as f64 / insns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{SimPointClassifier, SimPointConfig};
    use tpcp_trace::{PhaseSpec, SyntheticTrace};

    fn trace() -> BbvTrace {
        let t = SyntheticTrace::new(10_000)
            .phase(PhaseSpec::uniform(0x1000, 6, 1.0))
            .phase(PhaseSpec::uniform(0x9000, 6, 4.0))
            .schedule(&[(0, 30), (1, 10), (0, 20)])
            .generate();
        BbvTrace::collect(t.replay())
    }

    fn classify(trace: &BbvTrace) -> (SimPointResult, RandomProjection) {
        let cfg = SimPointConfig::default();
        let result = SimPointClassifier::new(cfg).classify(trace);
        (result, RandomProjection::new(cfg.projected_dims, cfg.seed))
    }

    #[test]
    fn one_point_per_cluster_weights_sum_to_one() {
        let trace = trace();
        let (result, projection) = classify(&trace);
        let points = SimPoints::select(&trace, &result, &projection);
        assert!(!points.points.is_empty());
        let total: f64 = points.points.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        // Representatives belong to their clusters.
        for p in &points.points {
            assert_eq!(result.assignments[p.interval], p.cluster);
        }
    }

    #[test]
    fn estimated_cpi_close_to_true_cpi() {
        let trace = trace();
        let (result, projection) = classify(&trace);
        let points = SimPoints::select(&trace, &result, &projection);
        let estimate = points.estimate_cpi(&trace);
        let truth = SimPoints::true_cpi(&trace);
        let err = (estimate - truth).abs() / truth;
        assert!(
            err < 0.05,
            "estimate {estimate} vs true {truth} ({err:.1}% error)"
        );
    }

    #[test]
    fn true_cpi_of_empty_trace_is_zero() {
        assert_eq!(SimPoints::true_cpi(&BbvTrace::default()), 0.0);
    }
}
