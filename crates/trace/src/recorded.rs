//! Recording and replaying interval traces.
//!
//! Recording lets the (comparatively expensive) simulation substrate run
//! once while many classifier/predictor configurations replay the identical
//! event stream — the same methodology as the paper, which collects
//! SimpleScalar profiles once and sweeps architecture parameters offline.

use crate::event::BranchEvent;
use crate::interval::{IntervalSource, IntervalSummary};

/// One recorded interval: its events and its summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedInterval {
    /// Every committed-branch event of the interval, in program order.
    pub events: Vec<BranchEvent>,
    /// The interval's summary (index, instructions, cycles).
    pub summary: IntervalSummary,
}

/// A fully materialized interval trace.
///
/// # Example
///
/// ```
/// use tpcp_trace::{BranchEvent, IntervalCutter, IntervalSource, RecordedTrace};
///
/// let events = (0..40u64).map(|i| (BranchEvent::new(i % 2, 10), 10u64));
/// let trace = RecordedTrace::record(IntervalCutter::from_iter(100, events));
/// assert_eq!(trace.len(), 4);
///
/// // Replay is identical to the original stream.
/// let mut replay = trace.replay();
/// let mut n = 0;
/// while replay.next_interval(&mut |_| n += 1).is_some() {}
/// assert_eq!(n, 40);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordedTrace {
    /// All intervals in execution order.
    pub intervals: Vec<RecordedInterval>,
}

impl RecordedTrace {
    /// Drains `source` and stores every interval.
    pub fn record<S: IntervalSource>(mut source: S) -> Self {
        let mut intervals = Vec::new();
        let mut events = Vec::new();
        while let Some(summary) = source.next_interval(&mut |ev| events.push(ev)) {
            intervals.push(RecordedInterval {
                events: std::mem::take(&mut events),
                summary,
            });
        }
        Self { intervals }
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total committed instructions across all intervals.
    pub fn total_instructions(&self) -> u64 {
        self.intervals
            .iter()
            .map(|iv| iv.summary.instructions)
            .sum()
    }

    /// Creates a borrowing [`IntervalSource`] that replays this trace.
    pub fn replay(&self) -> ReplaySource<'_> {
        ReplaySource {
            trace: self,
            next: 0,
        }
    }
}

/// Borrowing replay of a [`RecordedTrace`]; see [`RecordedTrace::replay`].
#[derive(Debug, Clone)]
pub struct ReplaySource<'a> {
    trace: &'a RecordedTrace,
    next: usize,
}

impl IntervalSource for ReplaySource<'_> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        let interval = self.trace.intervals.get(self.next)?;
        self.next += 1;
        for &ev in &interval.events {
            on_event(ev);
        }
        Some(interval.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalCutter;

    fn sample_trace() -> RecordedTrace {
        let events = vec![
            (BranchEvent::new(1, 30), 60),
            (BranchEvent::new(2, 30), 30),
            (BranchEvent::new(3, 30), 90),
            (BranchEvent::new(4, 30), 30),
        ];
        RecordedTrace::record(IntervalCutter::from_iter(60, events))
    }

    #[test]
    fn record_preserves_every_event() {
        let trace = sample_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.intervals[0].events.len(), 2);
        assert_eq!(trace.intervals[1].events.len(), 2);
        assert_eq!(trace.total_instructions(), 120);
    }

    #[test]
    fn replay_matches_recording() {
        let trace = sample_trace();
        let replayed = RecordedTrace::record(trace.replay());
        assert_eq!(trace, replayed);
    }

    #[test]
    fn replay_is_restartable_from_fresh_handle() {
        let trace = sample_trace();
        let first = trace.replay().drain_summaries();
        let second = trace.replay().drain_summaries();
        assert_eq!(first, second);
    }

    #[test]
    fn empty_trace_replays_empty() {
        let trace = RecordedTrace::default();
        assert!(trace.is_empty());
        assert!(trace.replay().next_interval(&mut |_| {}).is_none());
    }
}
