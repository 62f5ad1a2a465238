//! Fixed-length execution intervals, the sources that produce them, and
//! the [`Frame`] view of one interval's events.

use std::borrow::Cow;

use crate::codec::FrameIds;
use crate::event::BranchEvent;

/// A branch event paired with the number of cycles the timing model charged
/// to its dynamic basic block.
///
/// The cycle component never reaches the phase classifier (real hardware
/// cannot see "cycles per block" either); it is folded into the per-interval
/// [`IntervalSummary::cycles`], from which CPI is derived.
pub type TimedEvent = (BranchEvent, u64);

/// Summary statistics for one completed interval of execution.
///
/// Produced by an [`IntervalSource`] after all of the interval's branch
/// events have been delivered to the caller's event callback.
///
/// # Example
///
/// ```
/// use tpcp_trace::IntervalSummary;
///
/// let s = IntervalSummary::new(3, 10_000_000, 14_000_000);
/// assert!((s.cpi() - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntervalSummary {
    /// Zero-based position of this interval in the program's execution.
    pub index: u64,
    /// Instructions committed in this interval. Equal to the configured
    /// interval size except possibly for the final, truncated interval.
    pub instructions: u64,
    /// Cycles the timing model charged to this interval.
    pub cycles: u64,
    /// Microarchitectural event counts for the interval (all zero for
    /// sources without a timing model, e.g. synthetic traces).
    pub metrics: crate::metrics::MetricCounts,
}

impl IntervalSummary {
    /// Creates a summary with no microarchitectural metrics (see
    /// [`with_metrics`](Self::with_metrics)).
    pub fn new(index: u64, instructions: u64, cycles: u64) -> Self {
        Self {
            index,
            instructions,
            cycles,
            metrics: crate::metrics::MetricCounts::default(),
        }
    }

    /// Attaches event counts (builder-style).
    pub fn with_metrics(mut self, metrics: crate::metrics::MetricCounts) -> Self {
        self.metrics = metrics;
        self
    }

    /// Cycles per instruction for this interval.
    ///
    /// Returns `0.0` for an empty interval rather than dividing by zero, so
    /// degenerate traces remain safe to analyze.
    #[inline]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// The interval's event counts per thousand instructions, aligned with
    /// [`MetricCounts::LABELS`](crate::metrics::MetricCounts::LABELS).
    pub fn mpki(&self) -> [f64; crate::metrics::MetricCounts::COUNT] {
        self.metrics.per_kilo_instruction(self.instructions)
    }
}

/// One interval's committed branches as a pair table: the interval's
/// `(pc, insns)` pairs, how many of its events each pair stands for, and
/// the program order as a run of pair ids.
///
/// Every per-interval consumer that only sums over events — the paper's
/// accumulator table, a working set, an exact BBV — can take that sum over
/// the pairs instead, each weighted by its count
/// ([`weighted`](Self::weighted)); consumers that need the order walk the
/// id run ([`for_each_id`](Self::for_each_id),
/// [`for_each_event`](Self::for_each_event)).
///
/// A decoded trace frame lists each distinct pair once and counts its ids
/// ([`StreamingDecoder::try_next_frame`](crate::StreamingDecoder::try_next_frame)).
/// The pair list need not be distinct, though: the default
/// [`IntervalSource::next_frame`] makes every event its own count-1 pair,
/// in program order, so a consumer must be exact for repeated pairs, and
/// a pair whose count is 0 stands for no event and must touch nothing.
///
/// # Example
///
/// ```
/// use tpcp_trace::{encode_trace, BranchEvent, IntervalCutter, RecordedTrace, StreamingDecoder};
///
/// let events = (0..6u64).map(|i| (BranchEvent::new(0x40 + (i % 2) * 8, 10), 10u64));
/// let bytes = encode_trace(&RecordedTrace::record(IntervalCutter::from_iter(60, events)));
/// let mut decoder = StreamingDecoder::new(&bytes)?;
/// let (frame, summary) = decoder.try_next_frame()?.expect("one interval");
/// assert_eq!(frame.len(), 6);
/// assert_eq!(frame.pairs(), &[BranchEvent::new(0x40, 10), BranchEvent::new(0x48, 10)]);
/// assert_eq!(frame.counts(), &[3, 3]);
/// assert_eq!(summary.instructions, 60);
/// # Ok::<(), tpcp_trace::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Frame<'a> {
    pairs: Cow<'a, [BranchEvent]>,
    /// Occurrences of each pair in the interval, parallel to `pairs`.
    counts: Cow<'a, [u64]>,
    /// Program order: event `k` is pair `ids[k]`, or pair `k` if `None`.
    ids: Option<FrameIds<'a>>,
}

impl<'a> Frame<'a> {
    /// A dictionary-coded frame: `ids` is the checked id run, and
    /// `counts[p]` is how often id `p` occurs in it.
    pub(crate) fn dictionary(
        pairs: &'a [BranchEvent],
        counts: &'a [u64],
        ids: FrameIds<'a>,
    ) -> Self {
        debug_assert_eq!(pairs.len(), counts.len());
        Self {
            pairs: Cow::Borrowed(pairs),
            counts: Cow::Borrowed(counts),
            ids: Some(ids),
        }
    }

    /// Every event its own count-1 pair, in program order.
    pub(crate) fn in_order(events: Vec<BranchEvent>) -> Frame<'static> {
        Frame {
            counts: Cow::Owned(vec![1; events.len()]),
            pairs: Cow::Owned(events),
            ids: None,
        }
    }

    /// The frame's `(pc, insns)` pairs.
    pub fn pairs(&self) -> &[BranchEvent] {
        &self.pairs
    }

    /// How many of the interval's events each pair stands for, parallel
    /// to [`pairs`](Self::pairs).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of events in the interval.
    pub fn len(&self) -> usize {
        self.ids.map_or(self.pairs.len(), |ids| ids.len())
    }

    /// Whether the interval has no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pairs that stand for at least one event, each with its count.
    pub fn weighted(&self) -> impl Iterator<Item = (BranchEvent, u64)> + '_ {
        self.pairs
            .iter()
            .zip(self.counts.iter())
            .filter(|&(_, &n)| n != 0)
            .map(|(&ev, &n)| (ev, n))
    }

    /// Calls `f` with each event's pair id, in program order.
    #[inline]
    pub fn for_each_id(&self, f: impl FnMut(usize)) {
        match self.ids {
            Some(ids) => ids.for_each(f),
            None => (0..self.pairs.len()).for_each(f),
        }
    }

    /// Calls `f` with each event, in program order.
    #[inline]
    pub fn for_each_event(&self, mut f: impl FnMut(BranchEvent)) {
        let pairs = self.pairs();
        self.for_each_id(|id| f(pairs[id]));
    }
}

/// A source of fixed-length execution intervals.
///
/// Implementors stream one interval at a time: each call to
/// [`next_interval`](Self::next_interval) delivers every [`BranchEvent`] in
/// the interval to `on_event` (in program order) and then returns the
/// interval's [`IntervalSummary`]. `None` signals the end of the program.
///
/// The callback style (rather than returning an allocated `Vec`) lets the
/// phase classifier update its accumulator table in place, mirroring the
/// pipelined hash-and-increment hardware of the paper, and keeps memory flat
/// regardless of trace length.
pub trait IntervalSource {
    /// Advances to the next interval.
    ///
    /// Invokes `on_event` once per committed branch in program order, then
    /// returns the interval summary. Returns `None` when the program has
    /// finished; after `None`, subsequent calls must keep returning `None`.
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary>;

    /// Advances to the next interval like
    /// [`next_interval`](Self::next_interval), but yields its events as a
    /// [`Frame`] instead of calling back once per event.
    /// [`drive`](crate::drive) replays through this and hands every sink
    /// the frame. The default collects the events through `next_interval`
    /// as one count-1 pair each, in program order; trace decoders
    /// override it with the frame's own pair table and id counts.
    fn next_frame(&mut self) -> Option<(Frame<'_>, IntervalSummary)> {
        let mut events = Vec::new();
        let summary = self.next_interval(&mut |ev| events.push(ev))?;
        Some((Frame::in_order(events), summary))
    }

    /// Runs the source to completion, discarding events, and returns all
    /// interval summaries. Convenient for tests and whole-program statistics.
    fn drain_summaries(&mut self) -> Vec<IntervalSummary>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(s) = self.next_interval(&mut |_| {}) {
            out.push(s);
        }
        out
    }
}

impl<T: IntervalSource + ?Sized> IntervalSource for &mut T {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        (**self).next_interval(on_event)
    }

    fn next_frame(&mut self) -> Option<(Frame<'_>, IntervalSummary)> {
        (**self).next_frame()
    }
}

impl<T: IntervalSource + ?Sized> IntervalSource for Box<T> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        (**self).next_interval(on_event)
    }

    fn next_frame(&mut self) -> Option<(Frame<'_>, IntervalSummary)> {
        (**self).next_frame()
    }
}

/// Cuts a stream of [`TimedEvent`]s into fixed-length intervals.
///
/// An interval ends at the first event that brings the committed instruction
/// count to `interval_size` or beyond; the boundary event belongs to the
/// interval it completes (intervals are therefore `>= interval_size`
/// instructions, except a truncated final interval).
///
/// # Example
///
/// ```
/// use tpcp_trace::{BranchEvent, IntervalCutter, IntervalSource};
///
/// let events = vec![
///     (BranchEvent::new(0x10, 60), 60),
///     (BranchEvent::new(0x20, 60), 120),
///     (BranchEvent::new(0x30, 60), 60),
/// ];
/// let mut cutter = IntervalCutter::from_iter(100, events);
/// let first = cutter.next_interval(&mut |_| {}).unwrap();
/// assert_eq!(first.instructions, 120); // 60 + 60 crosses the 100 boundary
/// let last = cutter.next_interval(&mut |_| {}).unwrap();
/// assert_eq!(last.instructions, 60);   // truncated tail
/// assert!(cutter.next_interval(&mut |_| {}).is_none());
/// ```
#[derive(Debug)]
pub struct IntervalCutter<I> {
    inner: I,
    interval_size: u64,
    next_index: u64,
    finished: bool,
}

impl<I> IntervalCutter<I> {
    /// Interval size in committed instructions.
    pub fn interval_size(&self) -> u64 {
        self.interval_size
    }
}

impl<I: Iterator<Item = TimedEvent>> IntervalCutter<I> {
    /// Creates a cutter over any iterator of timed events.
    ///
    /// # Panics
    ///
    /// Panics if `interval_size` is zero.
    pub fn from_iter<T>(interval_size: u64, events: T) -> Self
    where
        T: IntoIterator<IntoIter = I, Item = TimedEvent>,
    {
        assert!(interval_size > 0, "interval size must be positive");
        Self {
            inner: events.into_iter(),
            interval_size,
            next_index: 0,
            finished: false,
        }
    }
}

impl<I: Iterator<Item = TimedEvent>> IntervalSource for IntervalCutter<I> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        if self.finished {
            return None;
        }
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        loop {
            match self.inner.next() {
                Some((ev, cy)) => {
                    instructions += u64::from(ev.insns);
                    cycles += cy;
                    on_event(ev);
                    if instructions >= self.interval_size {
                        break;
                    }
                }
                None => {
                    self.finished = true;
                    if instructions == 0 {
                        return None;
                    }
                    break;
                }
            }
        }
        let summary = IntervalSummary::new(self.next_index, instructions, cycles);
        self.next_index += 1;
        Some(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u64, insns: u32, cycles: u64) -> TimedEvent {
        (BranchEvent::new(pc, insns), cycles)
    }

    #[test]
    fn empty_stream_yields_no_intervals() {
        let mut cutter = IntervalCutter::from_iter(100, Vec::new());
        assert!(cutter.next_interval(&mut |_| {}).is_none());
        // Stays `None` on repeated calls.
        assert!(cutter.next_interval(&mut |_| {}).is_none());
    }

    #[test]
    #[should_panic(expected = "interval size must be positive")]
    fn zero_interval_size_panics() {
        let _ = IntervalCutter::from_iter(0, Vec::new());
    }

    #[test]
    fn events_delivered_in_order() {
        let events = vec![ev(1, 10, 10), ev(2, 10, 10), ev(3, 10, 10)];
        let mut cutter = IntervalCutter::from_iter(15, events);
        let mut seen = Vec::new();
        cutter.next_interval(&mut |e| seen.push(e.pc)).unwrap();
        assert_eq!(seen, vec![1, 2]);
        seen.clear();
        cutter.next_interval(&mut |e| seen.push(e.pc)).unwrap();
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn boundary_event_belongs_to_completed_interval() {
        let events = vec![ev(1, 100, 100), ev(2, 1, 1)];
        let mut cutter = IntervalCutter::from_iter(100, events);
        let first = cutter.next_interval(&mut |_| {}).unwrap();
        assert_eq!(first.instructions, 100);
        let second = cutter.next_interval(&mut |_| {}).unwrap();
        assert_eq!(second.instructions, 1);
    }

    #[test]
    fn indices_are_sequential() {
        let events: Vec<_> = (0..10).map(|i| ev(i, 50, 50)).collect();
        let mut cutter = IntervalCutter::from_iter(100, events);
        let summaries = cutter.drain_summaries();
        let indices: Vec<_> = summaries.iter().map(|s| s.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cpi_aggregates_cycles_over_instructions() {
        let events = vec![ev(1, 50, 100), ev(2, 50, 300)];
        let mut cutter = IntervalCutter::from_iter(100, events);
        let s = cutter.next_interval(&mut |_| {}).unwrap();
        assert!((s.cpi() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_cpi_is_zero() {
        let s = IntervalSummary::new(0, 0, 123);
        assert_eq!(s.cpi(), 0.0);
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let events = vec![ev(1, 10, 10)];
        let mut cutter = IntervalCutter::from_iter(5, events);
        // &mut dyn works:
        let src: &mut dyn IntervalSource = &mut cutter;
        assert!(src.next_interval(&mut |_| {}).is_some());
    }
}
