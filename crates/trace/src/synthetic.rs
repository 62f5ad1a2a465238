//! Scripted synthetic traces for testing classifiers and predictors.
//!
//! [`SyntheticTrace`] produces an interval stream whose ground-truth phase
//! structure is known exactly, which makes it possible to unit-test phase
//! classification and prediction logic in isolation from the full workload
//! simulator in `tpcp-workloads`.

use crate::event::BranchEvent;
use crate::interval::IntervalCutter;
use crate::interval::TimedEvent;
use crate::recorded::RecordedTrace;

/// The code and performance behaviour of one ground-truth phase.
///
/// Each interval of the phase executes blocks round-robin from `blocks`
/// (a slice of `(branch pc, instructions per block)` pairs) at `cpi` cycles
/// per instruction, with a deterministic ±`cpi_jitter` ripple so intervals
/// are similar but not identical — as in real programs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// `(pc, insns)` pairs executed round-robin within the phase.
    pub blocks: Vec<(u64, u32)>,
    /// Mean cycles per instruction for intervals of this phase.
    pub cpi: f64,
    /// Peak-to-mean CPI ripple (e.g. `0.02` for ±2%). Deterministic.
    pub cpi_jitter: f64,
}

impl PhaseSpec {
    /// A phase whose blocks live in a bank of `n_blocks` PCs starting at
    /// `base_pc`, each block 50 instructions, with the given CPI.
    pub fn uniform(base_pc: u64, n_blocks: usize, cpi: f64) -> Self {
        Self {
            blocks: (0..n_blocks as u64)
                .map(|i| (base_pc + i * 0x40, 50))
                .collect(),
            cpi,
            cpi_jitter: 0.01,
        }
    }
}

/// A deterministic, scripted program: a schedule of ground-truth phases.
///
/// # Example
///
/// ```
/// use tpcp_trace::{PhaseSpec, SyntheticTrace};
///
/// let trace = SyntheticTrace::new(10_000)
///     .phase(PhaseSpec::uniform(0x1000, 4, 1.0))
///     .phase(PhaseSpec::uniform(0x9000, 4, 3.0))
///     .schedule(&[(0, 10), (1, 5), (0, 10)])
///     .generate();
/// assert_eq!(trace.len(), 25);
/// // Ground truth: intervals 10..15 are the high-CPI phase.
/// assert!(trace.intervals[12].summary.cpi() > 2.5);
/// assert!(trace.intervals[2].summary.cpi() < 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SyntheticTrace {
    interval_size: u64,
    phases: Vec<PhaseSpec>,
    schedule: Vec<(usize, u64)>,
}

impl SyntheticTrace {
    /// Creates a builder producing intervals of `interval_size` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval_size` is zero.
    pub fn new(interval_size: u64) -> Self {
        assert!(interval_size > 0, "interval size must be positive");
        Self {
            interval_size,
            phases: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Registers a phase and returns the builder. Phases are indexed in
    /// registration order, starting from 0, for use in [`schedule`].
    ///
    /// [`schedule`]: Self::schedule
    pub fn phase(mut self, spec: PhaseSpec) -> Self {
        self.phases.push(spec);
        self
    }

    /// Appends `(phase index, interval count)` runs to the schedule.
    pub fn schedule(mut self, runs: &[(usize, u64)]) -> Self {
        self.schedule.extend_from_slice(runs);
        self
    }

    /// The ground-truth phase index of each interval, in order.
    pub fn ground_truth(&self) -> Vec<usize> {
        self.schedule
            .iter()
            .flat_map(|&(phase, n)| std::iter::repeat_n(phase, n as usize))
            .collect()
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references a phase index that was never
    /// registered, or if a scheduled phase has no blocks.
    pub fn generate(&self) -> RecordedTrace {
        let mut events: Vec<TimedEvent> = Vec::new();
        let mut interval_counter = 0u64;
        for &(phase_idx, run) in &self.schedule {
            let spec = self
                .phases
                .get(phase_idx)
                .unwrap_or_else(|| panic!("schedule references unknown phase {phase_idx}"));
            assert!(!spec.blocks.is_empty(), "phase {phase_idx} has no blocks");
            for _ in 0..run {
                // Deterministic ripple: a small triangle wave over intervals.
                let ripple = match interval_counter % 4 {
                    0 => 0.0,
                    1 => spec.cpi_jitter,
                    2 => 0.0,
                    _ => -spec.cpi_jitter,
                };
                let cpi = spec.cpi * (1.0 + ripple);
                let mut emitted = 0u64;
                let mut block = 0usize;
                while emitted < self.interval_size {
                    let (pc, insns) = spec.blocks[block % spec.blocks.len()];
                    block += 1;
                    let cycles = (f64::from(insns) * cpi).round() as u64;
                    events.push((BranchEvent::new(pc, insns), cycles));
                    emitted += u64::from(insns);
                }
                interval_counter += 1;
            }
        }
        RecordedTrace::record(IntervalCutter::from_iter(self.interval_size, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> SyntheticTrace {
        SyntheticTrace::new(1_000)
            .phase(PhaseSpec::uniform(0x1000, 4, 1.0))
            .phase(PhaseSpec::uniform(0x9000, 4, 2.0))
            .schedule(&[(0, 5), (1, 5)])
    }

    #[test]
    fn generates_scheduled_interval_count() {
        let trace = two_phase().generate();
        assert_eq!(trace.len(), 10);
    }

    #[test]
    fn ground_truth_matches_schedule() {
        let gt = two_phase().ground_truth();
        assert_eq!(gt.len(), 10);
        assert!(gt[..5].iter().all(|&p| p == 0));
        assert!(gt[5..].iter().all(|&p| p == 1));
    }

    #[test]
    fn phases_have_distinct_cpi() {
        let trace = two_phase().generate();
        let low = trace.intervals[0].summary.cpi();
        let high = trace.intervals[9].summary.cpi();
        assert!(low < 1.1, "low-phase CPI was {low}");
        assert!(high > 1.8, "high-phase CPI was {high}");
    }

    #[test]
    fn phases_use_disjoint_pcs() {
        let trace = two_phase().generate();
        let pcs0: std::collections::BTreeSet<u64> =
            trace.intervals[0].events.iter().map(|e| e.pc).collect();
        let pcs9: std::collections::BTreeSet<u64> =
            trace.intervals[9].events.iter().map(|e| e.pc).collect();
        assert!(pcs0.is_disjoint(&pcs9));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = two_phase().generate();
        let b = two_phase().generate();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown phase")]
    fn bad_schedule_panics() {
        SyntheticTrace::new(100)
            .phase(PhaseSpec::uniform(0, 1, 1.0))
            .schedule(&[(3, 1)])
            .generate();
    }
}
