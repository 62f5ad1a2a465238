//! Whole-trace summary statistics (for tooling and sanity checks).

use std::collections::BTreeSet;

use crate::recorded::RecordedTrace;

/// Summary statistics of a recorded trace.
///
/// # Example
///
/// ```
/// use tpcp_trace::{PhaseSpec, SyntheticTrace, TraceStats};
///
/// let trace = SyntheticTrace::new(10_000)
///     .phase(PhaseSpec::uniform(0x1000, 4, 2.0))
///     .schedule(&[(0, 10)])
///     .generate();
/// let stats = TraceStats::of(&trace);
/// assert_eq!(stats.intervals, 10);
/// assert_eq!(stats.distinct_pcs, 4);
/// assert!((stats.mean_cpi - 2.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of intervals.
    pub intervals: usize,
    /// Total committed instructions.
    pub instructions: u64,
    /// Total branch events.
    pub events: u64,
    /// Distinct branch PCs across the whole trace.
    pub distinct_pcs: usize,
    /// Mean events per interval.
    pub events_per_interval: f64,
    /// Mean dynamic basic block size in instructions.
    pub mean_block_insns: f64,
    /// Instruction-weighted mean CPI.
    pub mean_cpi: f64,
    /// Minimum per-interval CPI.
    pub min_cpi: f64,
    /// Maximum per-interval CPI.
    pub max_cpi: f64,
}

impl TraceStats {
    /// Computes statistics over `trace`. An empty trace yields all zeros.
    pub fn of(trace: &RecordedTrace) -> Self {
        let mut pcs = BTreeSet::new();
        let mut events = 0u64;
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let mut min_cpi = f64::INFINITY;
        let mut max_cpi = 0.0f64;
        for interval in &trace.intervals {
            events += interval.events.len() as u64;
            instructions += interval.summary.instructions;
            cycles += interval.summary.cycles;
            let cpi = interval.summary.cpi();
            min_cpi = min_cpi.min(cpi);
            max_cpi = max_cpi.max(cpi);
            for ev in &interval.events {
                pcs.insert(ev.pc);
            }
        }
        let intervals = trace.len();
        Self {
            intervals,
            instructions,
            events,
            distinct_pcs: pcs.len(),
            events_per_interval: if intervals == 0 {
                0.0
            } else {
                events as f64 / intervals as f64
            },
            mean_block_insns: if events == 0 {
                0.0
            } else {
                instructions as f64 / events as f64
            },
            mean_cpi: if instructions == 0 {
                0.0
            } else {
                cycles as f64 / instructions as f64
            },
            min_cpi: if intervals == 0 { 0.0 } else { min_cpi },
            max_cpi,
        }
    }
}

impl core::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} intervals, {} instructions, {} events ({:.0}/interval, {:.1} insns/block), \
             {} distinct PCs, CPI {:.2} [{:.2}, {:.2}]",
            self.intervals,
            self.instructions,
            self.events,
            self.events_per_interval,
            self.mean_block_insns,
            self.distinct_pcs,
            self.mean_cpi,
            self.min_cpi,
            self.max_cpi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BranchEvent;
    use crate::interval::IntervalCutter;

    #[test]
    fn empty_trace_is_all_zero() {
        let stats = TraceStats::of(&RecordedTrace::default());
        assert_eq!(stats.intervals, 0);
        assert_eq!(stats.mean_cpi, 0.0);
        assert_eq!(stats.min_cpi, 0.0);
        assert_eq!(stats.events_per_interval, 0.0);
    }

    #[test]
    fn counts_are_exact() {
        let events = vec![
            (BranchEvent::new(0x10, 50), 100),
            (BranchEvent::new(0x20, 50), 100),
            (BranchEvent::new(0x10, 50), 200),
            (BranchEvent::new(0x30, 50), 200),
        ];
        let trace = RecordedTrace::record(IntervalCutter::from_iter(100, events));
        let stats = TraceStats::of(&trace);
        assert_eq!(stats.intervals, 2);
        assert_eq!(stats.instructions, 200);
        assert_eq!(stats.events, 4);
        assert_eq!(stats.distinct_pcs, 3);
        assert_eq!(stats.mean_block_insns, 50.0);
        assert!((stats.mean_cpi - 3.0).abs() < 1e-12);
        assert!((stats.min_cpi - 2.0).abs() < 1e-12);
        assert!((stats.max_cpi - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let events = vec![(BranchEvent::new(0x10, 10), 20)];
        let trace = RecordedTrace::record(IntervalCutter::from_iter(10, events));
        let text = TraceStats::of(&trace).to_string();
        assert!(text.contains("1 intervals"));
        assert!(text.contains("distinct PCs"));
    }
}
