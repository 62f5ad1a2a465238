//! Phase run length statistics (Figure 5 and Figure 9, left panel).

use tpcp_core::PhaseId;

use crate::stats::Welford;

/// Accumulates a phase ID stream into run-length statistics.
///
/// A *run* is a maximal sequence of consecutive intervals with the same
/// phase ID (the paper's "phase length"). Runs of stable phases and runs of
/// the transition phase are tracked separately, as Figure 5 plots them
/// side by side.
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_metrics::RunAccumulator;
///
/// let mut acc = RunAccumulator::new();
/// for id in [1u32, 1, 1, 0, 2, 2] {
///     acc.observe(PhaseId::new(id));
/// }
/// let stats = acc.finish();
/// assert_eq!(stats.runs().len(), 3);
/// assert!((stats.stable_mean() - 2.5).abs() < 1e-12); // runs of 3 and 2
/// assert!((stats.transition_mean() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunAccumulator {
    current: Option<(PhaseId, u64)>,
    runs: Vec<(PhaseId, u64)>,
}

impl RunAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the next interval's phase.
    pub fn observe(&mut self, phase: PhaseId) {
        match &mut self.current {
            Some((p, n)) if *p == phase => *n += 1,
            Some(prev) => {
                self.runs.push(*prev);
                self.current = Some((phase, 1));
            }
            None => self.current = Some((phase, 1)),
        }
    }

    /// Finalizes (closing the in-progress run) into statistics.
    pub fn finish(mut self) -> RunLengthStats {
        if let Some(last) = self.current.take() {
            self.runs.push(last);
        }
        let mut stable = Welford::new();
        let mut transition = Welford::new();
        for &(phase, len) in &self.runs {
            if phase.is_transition() {
                transition.push(len as f64);
            } else {
                stable.push(len as f64);
            }
        }
        RunLengthStats {
            runs: self.runs,
            stable,
            transition,
        }
    }
}

/// Run-length statistics for one phase classification.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLengthStats {
    runs: Vec<(PhaseId, u64)>,
    stable: Welford,
    transition: Welford,
}

impl RunLengthStats {
    /// All runs in order: `(phase, length in intervals)`.
    pub fn runs(&self) -> &[(PhaseId, u64)] {
        &self.runs
    }

    /// Mean length of stable-phase runs, in intervals.
    pub fn stable_mean(&self) -> f64 {
        self.stable.mean()
    }

    /// Standard deviation of stable-phase run lengths.
    pub fn stable_std_dev(&self) -> f64 {
        self.stable.population_std_dev()
    }

    /// Mean length of transition-phase runs, in intervals.
    pub fn transition_mean(&self) -> f64 {
        self.transition.mean()
    }

    /// Standard deviation of transition-phase run lengths.
    pub fn transition_std_dev(&self) -> f64 {
        self.transition.population_std_dev()
    }

    /// Number of phase changes (run boundaries) in the stream.
    pub fn change_count(&self) -> usize {
        self.runs.len().saturating_sub(1)
    }

    /// Histogram of run lengths over arbitrary class boundaries: returns
    /// counts of runs whose length falls in each class as defined by the
    /// classification function.
    pub fn class_histogram<C, F>(&self, classes: &[C], classify: F) -> Vec<u64>
    where
        C: PartialEq,
        F: Fn(u64) -> C,
    {
        let mut counts = vec![0u64; classes.len()];
        for &(_, len) in &self.runs {
            let class = classify(len);
            if let Some(pos) = classes.iter().position(|c| *c == class) {
                counts[pos] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn empty_stream_has_no_runs() {
        let stats = RunAccumulator::new().finish();
        assert!(stats.runs().is_empty());
        assert_eq!(stats.stable_mean(), 0.0);
        assert_eq!(stats.change_count(), 0);
    }

    #[test]
    fn single_run_counted_once() {
        let mut acc = RunAccumulator::new();
        for _ in 0..7 {
            acc.observe(id(1));
        }
        let stats = acc.finish();
        assert_eq!(stats.runs(), &[(id(1), 7)]);
        assert_eq!(stats.stable_mean(), 7.0);
        assert_eq!(stats.stable_std_dev(), 0.0);
    }

    #[test]
    fn alternation_produces_unit_runs() {
        let mut acc = RunAccumulator::new();
        for i in 0..10 {
            acc.observe(id(i % 2 + 1));
        }
        let stats = acc.finish();
        assert_eq!(stats.runs().len(), 10);
        assert_eq!(stats.stable_mean(), 1.0);
        assert_eq!(stats.change_count(), 9);
    }

    #[test]
    fn transition_runs_separated() {
        let mut acc = RunAccumulator::new();
        for p in [1, 1, 0, 0, 0, 2, 2, 2, 2] {
            acc.observe(id(p));
        }
        let stats = acc.finish();
        assert_eq!(stats.stable_mean(), 3.0); // runs 2 and 4
        assert_eq!(stats.transition_mean(), 3.0); // one run of 3
        assert_eq!(stats.transition_std_dev(), 0.0);
    }

    #[test]
    fn reappearing_phase_counts_as_separate_runs() {
        let mut acc = RunAccumulator::new();
        for p in [1, 1, 2, 1, 1, 1] {
            acc.observe(id(p));
        }
        let stats = acc.finish();
        assert_eq!(stats.runs(), &[(id(1), 2), (id(2), 1), (id(1), 3)]);
    }

    #[test]
    fn class_histogram_buckets_runs() {
        let mut acc = RunAccumulator::new();
        for (phase, len) in [(1u32, 3u64), (2, 20), (1, 200), (2, 5)] {
            for _ in 0..len {
                acc.observe(id(phase));
            }
        }
        let stats = acc.finish();
        let classes = ["short", "medium", "long"];
        let hist = stats.class_histogram(&classes, |len| {
            if len < 16 {
                "short"
            } else if len < 128 {
                "medium"
            } else {
                "long"
            }
        });
        assert_eq!(hist, vec![2, 1, 1]);
    }
}
