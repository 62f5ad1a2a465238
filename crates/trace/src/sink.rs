//! The [`IntervalSink`] consumer interface for interval streams.
//!
//! Everything downstream of the trace layer — the phase classifier, BBV
//! collection, metric accumulators — consumes the same per-interval event
//! stream: every committed-branch event of the interval, then the interval
//! summary. [`IntervalSink`] names that contract, and [`drive`] fans one
//! pass over an [`IntervalSource`] out to any number of sinks, so a trace
//! is decoded and replayed once no matter how many consumers observe it.
//!
//! [`drive`] hands each sink an interval as one [`Frame`]: the interval's
//! `(pc, insns)` pairs, each pair's occurrence count, and the program
//! order. A sink that only sums over events takes the sum over the pairs,
//! each times its count; by default a sink walks the events in program
//! order through [`IntervalSink::observe`].

use crate::event::BranchEvent;
use crate::interval::{Frame, IntervalSource, IntervalSummary};

/// A consumer of an interval-structured event stream.
///
/// For each interval, every committed-branch event is observed in program
/// order, through [`observe`](IntervalSink::observe) or a whole interval at
/// a time through [`observe_frame`](IntervalSink::observe_frame), then
/// [`end_interval`](IntervalSink::end_interval) is called once with the
/// interval's summary. This mirrors the paper's hardware
/// model: per-branch accumulation during the interval, bookkeeping at the
/// interval boundary.
pub trait IntervalSink {
    /// Observes one committed-branch event of the current interval.
    fn observe(&mut self, ev: &BranchEvent);

    /// Observes all of the current interval's events at once. The default
    /// walks them in program order through
    /// [`observe`](IntervalSink::observe); sinks that only sum over events
    /// override it to take the sum over the frame's pairs, each times its
    /// count. [`drive`] hands every sink each interval through this, so
    /// dispatch is paid once per interval, not once per event.
    fn observe_frame(&mut self, frame: &Frame<'_>) {
        frame.for_each_event(|ev| self.observe(&ev));
    }

    /// Closes the current interval with its summary.
    fn end_interval(&mut self, summary: &IntervalSummary);
}

impl<S: IntervalSink + ?Sized> IntervalSink for &mut S {
    fn observe(&mut self, ev: &BranchEvent) {
        (**self).observe(ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        (**self).observe_frame(frame);
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        (**self).end_interval(summary);
    }
}

impl<S: IntervalSink + ?Sized> IntervalSink for Box<S> {
    fn observe(&mut self, ev: &BranchEvent) {
        (**self).observe(ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        (**self).observe_frame(frame);
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        (**self).end_interval(summary);
    }
}

/// Replays `source` to completion, fanning every interval out to all
/// `sinks` in order: each sink observes the interval's events, then each
/// sink closes it. Returns the number of intervals replayed.
///
/// This is the single-replay hot loop: each interval is read once as a
/// [`Frame`] ([`IntervalSource::next_frame`]) and handed to every sink
/// whole ([`IntervalSink::observe_frame`]); no event buffer is kept.
pub fn drive(source: &mut dyn IntervalSource, sinks: &mut [&mut dyn IntervalSink]) -> usize {
    let mut intervals = 0;
    while let Some((frame, summary)) = source.next_frame() {
        for sink in sinks.iter_mut() {
            sink.observe_frame(&frame);
        }
        for sink in sinks.iter_mut() {
            sink.end_interval(&summary);
        }
        intervals += 1;
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalCutter;

    #[derive(Default)]
    struct Counter {
        events: usize,
        intervals: usize,
        instructions: u64,
    }

    impl IntervalSink for Counter {
        fn observe(&mut self, _ev: &BranchEvent) {
            self.events += 1;
        }

        fn end_interval(&mut self, summary: &IntervalSummary) {
            self.intervals += 1;
            self.instructions += summary.instructions;
        }
    }

    #[test]
    fn drive_fans_out_to_all_sinks() {
        let events = (0..100u64).map(|i| (BranchEvent::new(0x400 + (i % 5) * 8, 10), 20u64));
        let mut source = IntervalCutter::from_iter(250, events);
        let mut a = Counter::default();
        let mut b = Counter::default();
        let n = drive(&mut source, &mut [&mut a, &mut b]);
        assert_eq!(n, 4);
        for c in [&a, &b] {
            assert_eq!(c.events, 100);
            assert_eq!(c.intervals, 4);
            assert_eq!(c.instructions, 1000);
        }
    }
}
