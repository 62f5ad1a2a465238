//! Basic block vectors (BBVs) for offline phase analysis.
//!
//! A BBV describes one interval of execution as a vector over static branch
//! PCs, where each component is the number of instructions attributed to the
//! dynamic basic blocks ending at that PC. The SimPoint family of offline
//! classifiers (Sherwood et al., ASPLOS'02) clusters these vectors; the
//! online architecture of the paper is an approximation that projects them
//! into a small number of hardware counters.
//!
//! [`BbvBuilder`] counts instructions per PC in one open-addressed
//! `(pc, instructions)` table that lives across intervals: power-of-two
//! slots, linear probing, at most half full, plus a list of the slots this
//! interval touched, so [`BbvBuilder::finish`] visits and clears only the
//! interval's own PCs instead of the whole table. `finish` sums those
//! counts into the interval total, sorts the entries by PC once and divides
//! each count by the total, which makes [`Bbv`] a PC-sorted vector:
//! `weight` is a binary search, and `iter` and `manhattan_distance` walk
//! components in ascending PC order. An ordered map keyed by PC yields the
//! same components in the same order, each weight from the same exact
//! integer sums and the same `count as f64 / total` division, so every
//! weight, projection sum and distance is bit-identical to one built that
//! way; the trace proptests check this against such a reference.
//!
//! [`BbvBuilder::observe_weighted`] adds `count` executions of one block
//! at once, `insns × count`: [`BbvSink`] takes a [`Frame`] that way, one
//! add per pair instead of one per event. Integer sums do not depend on
//! how the adds are grouped, so the vectors are the same bits.

use std::cmp::Ordering;

use crate::event::BranchEvent;
use crate::interval::{Frame, IntervalSource, IntervalSummary};
use crate::sink::{drive, IntervalSink};

/// A sparse, normalized basic block vector for one interval.
///
/// Components are keyed by branch PC and hold the *fraction* of the
/// interval's instructions attributed to that PC (so components sum to 1 for
/// an interval that retired any instructions).
///
/// # Example
///
/// ```
/// use tpcp_trace::{BbvBuilder, BranchEvent};
///
/// let mut b = BbvBuilder::new();
/// b.observe(BranchEvent::new(0x10, 75));
/// b.observe(BranchEvent::new(0x20, 25));
/// let bbv = b.finish();
/// assert!((bbv.weight(0x10) - 0.75).abs() < 1e-12);
/// assert!((bbv.weight(0x20) - 0.25).abs() < 1e-12);
/// assert_eq!(bbv.weight(0x30), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bbv {
    /// `(pc, weight)` pairs, strictly ascending by PC.
    components: Vec<(u64, f64)>,
}

impl Bbv {
    /// The normalized weight of branch PC `pc`, or `0.0` if absent.
    pub fn weight(&self, pc: u64) -> f64 {
        self.components
            .binary_search_by_key(&pc, |&(p, _)| p)
            .map_or(0.0, |i| self.components[i].1)
    }

    /// Number of distinct branch PCs observed in the interval (a branch
    /// that retired zero instructions still counts, with weight 0).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the vector has no components (empty interval).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Iterates over `(pc, weight)` pairs in ascending PC order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.components.iter().copied()
    }

    /// Manhattan (L1) distance between two normalized BBVs.
    ///
    /// Ranges from 0 (identical code profile) to 2 (disjoint code). This is
    /// the distance SimPoint-style clustering operates on.
    pub fn manhattan_distance(&self, other: &Bbv) -> f64 {
        let (a, b) = (&self.components, &other.components);
        let (mut i, mut j) = (0, 0);
        let mut dist = 0.0;
        while let (Some(&(pa, wa)), Some(&(pb, wb))) = (a.get(i), b.get(j)) {
            match pa.cmp(&pb) {
                Ordering::Equal => {
                    dist += (wa - wb).abs();
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    dist += wa;
                    i += 1;
                }
                Ordering::Greater => {
                    dist += wb;
                    j += 1;
                }
            }
        }
        // One side is exhausted; add the other's tail term by term, in the
        // same order as the merge would.
        for &(_, w) in a[i..].iter().chain(&b[j..]) {
            dist += w;
        }
        dist
    }
}

/// Slots in a new builder's table.
const INITIAL_SLOTS: usize = 256;

/// One slot of a [`BbvBuilder`] table. `biased` is 0 for an empty slot,
/// else 1 + the instructions counted for `pc`, so that a branch retiring
/// zero instructions still occupies its slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    pc: u64,
    biased: u64,
}

/// Accumulates branch events into a [`Bbv`] for the current interval.
///
/// Counts live in one open-addressed table that the builder keeps across
/// intervals; [`finish`](Self::finish) clears only the slots the interval
/// touched, so reuse one builder for a whole trace.
#[derive(Debug, Clone)]
pub struct BbvBuilder {
    /// Open-addressed by `pc`; a power of two long, at most half full.
    slots: Vec<Slot>,
    /// Indices of the slots occupied this interval, in first-touch order.
    touched: Vec<u32>,
}

impl Default for BbvBuilder {
    fn default() -> Self {
        Self {
            slots: vec![Slot::default(); INITIAL_SLOTS],
            touched: Vec::new(),
        }
    }
}

impl BbvBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one branch event's instruction count to its PC's component.
    #[inline]
    pub fn observe(&mut self, ev: BranchEvent) {
        self.add(ev.pc, u64::from(ev.insns));
    }

    /// Adds `count` occurrences of `ev` at once: `insns × count` to its
    /// PC's component, the same integer `count` calls to
    /// [`observe`](Self::observe) would sum. A count of 0 stands for no
    /// event and touches nothing.
    #[inline]
    pub fn observe_weighted(&mut self, ev: BranchEvent, count: u64) {
        if count != 0 {
            self.add(ev.pc, u64::from(ev.insns) * count);
        }
    }

    /// Adds `insns` instructions to `pc`'s component.
    #[inline]
    fn add(&mut self, pc: u64, insns: u64) {
        let mask = self.slots.len() - 1;
        let mut i = home_slot(pc, self.slots.len());
        loop {
            let slot = &mut self.slots[i];
            if slot.biased == 0 {
                self.insert(i, pc, insns);
                return;
            }
            if slot.pc == pc {
                slot.biased += insns;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Total instructions observed so far.
    pub fn total_instructions(&self) -> u64 {
        self.touched
            .iter()
            .map(|&i| self.slots[i as usize].biased - 1)
            .sum()
    }

    /// Finishes the interval, producing a normalized [`Bbv`] and resetting
    /// the builder for the next interval.
    pub fn finish(&mut self) -> Bbv {
        let total = self.total_instructions().max(1) as f64;
        let mut components: Vec<(u64, f64)> = self
            .touched
            .drain(..)
            .map(|i| {
                let slot = std::mem::take(&mut self.slots[i as usize]);
                (slot.pc, (slot.biased - 1) as f64 / total)
            })
            .collect();
        components.sort_unstable_by_key(|&(pc, _)| pc);
        Bbv { components }
    }

    /// Claims the empty slot `i` for `pc`: a PC's first event in the
    /// interval. Doubles the table if that leaves it over half full.
    #[cold]
    fn insert(&mut self, i: usize, pc: u64, insns: u64) {
        self.slots[i] = Slot {
            pc,
            biased: 1 + insns,
        };
        self.touched.push(i as u32);
        if 2 * self.touched.len() > self.slots.len() {
            self.grow();
        }
    }

    /// Doubles the table and re-inserts this interval's entries.
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        for t in &mut self.touched {
            let entry = old[*t as usize];
            let mut i = home_slot(entry.pc, len);
            while self.slots[i].biased != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = entry;
            *t = i as u32;
        }
    }
}

/// Home slot of `pc` in a table of `len` slots, a power of two of at least
/// 2: Fibonacci hashing, whose high product bits spread aligned and
/// clustered PCs alike.
#[inline]
fn home_slot(pc: u64, len: usize) -> usize {
    (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

/// A whole program execution as per-interval BBVs plus interval summaries.
///
/// This is the input format for offline (SimPoint-style) classification, and
/// the analog of the BBV files that the paper's methodology generates with
/// SimpleScalar.
#[derive(Debug, Clone, Default)]
pub struct BbvTrace {
    /// One BBV per interval, in execution order.
    pub vectors: Vec<Bbv>,
    /// Matching interval summaries (same length and order as `vectors`).
    pub summaries: Vec<IntervalSummary>,
}

impl BbvTrace {
    /// Collects a BBV trace by draining an
    /// [`IntervalSource`](crate::IntervalSource): one [`drive`] pass over a
    /// [`BbvSink`], so a trace decoder's frames are summed per pair.
    ///
    /// # Example
    ///
    /// ```
    /// use tpcp_trace::{BbvTrace, BranchEvent, IntervalCutter};
    ///
    /// let events = (0..100u64).map(|i| (BranchEvent::new(i % 4, 10), 10u64));
    /// let source = IntervalCutter::from_iter(200, events);
    /// let trace = BbvTrace::collect(source);
    /// assert_eq!(trace.len(), 5);
    /// ```
    pub fn collect<S: IntervalSource>(mut source: S) -> Self {
        let mut sink = BbvSink::new();
        drive(&mut source, &mut [&mut sink]);
        sink.into_trace()
    }

    /// Number of intervals in the trace.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the trace contains no intervals.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Per-interval CPIs, in execution order.
    pub fn cpis(&self) -> Vec<f64> {
        self.summaries.iter().map(|s| s.cpi()).collect()
    }
}

/// An [`IntervalSink`] that collects per-interval basic block vectors —
/// the offline (SimPoint-style) classification input — during the same
/// replay every other sink rides. A frame's pairs are added once each,
/// weighted by their counts ([`BbvBuilder::observe_weighted`]).
#[derive(Debug, Clone, Default)]
pub struct BbvSink {
    builder: BbvBuilder,
    trace: BbvTrace,
}

impl BbvSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected BBV trace.
    pub fn into_trace(self) -> BbvTrace {
        self.trace
    }
}

impl IntervalSink for BbvSink {
    fn observe(&mut self, ev: &BranchEvent) {
        self.builder.observe(*ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        for (ev, count) in frame.weighted() {
            self.builder.observe_weighted(ev, count);
        }
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        self.trace.vectors.push(self.builder.finish());
        self.trace.summaries.push(*summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalCutter;

    #[test]
    fn builder_normalizes_to_unit_sum() {
        let mut b = BbvBuilder::new();
        b.observe(BranchEvent::new(1, 10));
        b.observe(BranchEvent::new(2, 30));
        b.observe(BranchEvent::new(1, 10));
        let bbv = b.finish();
        let sum: f64 = bbv.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((bbv.weight(1) - 0.4).abs() < 1e-12);
        assert!((bbv.weight(2) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn finish_resets_builder() {
        let mut b = BbvBuilder::new();
        b.observe(BranchEvent::new(1, 10));
        let first = b.finish();
        assert_eq!(first.len(), 1);
        assert_eq!(b.total_instructions(), 0);
        let second = b.finish();
        assert!(second.is_empty());
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        let mut b = BbvBuilder::new();
        b.observe(BranchEvent::new(1, 10));
        b.observe(BranchEvent::new(2, 10));
        let v = b.finish();
        assert_eq!(v.manhattan_distance(&v.clone()), 0.0);
    }

    #[test]
    fn disjoint_vectors_have_distance_two() {
        let mut b = BbvBuilder::new();
        b.observe(BranchEvent::new(1, 10));
        let a = b.finish();
        b.observe(BranchEvent::new(2, 10));
        let c = b.finish();
        assert!((a.manhattan_distance(&c) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let mut b = BbvBuilder::new();
        b.observe(BranchEvent::new(1, 10));
        b.observe(BranchEvent::new(2, 30));
        let x = b.finish();
        b.observe(BranchEvent::new(2, 10));
        b.observe(BranchEvent::new(3, 10));
        let y = b.finish();
        assert!((x.manhattan_distance(&y) - y.manhattan_distance(&x)).abs() < 1e-15);
    }

    #[test]
    fn collect_gathers_all_intervals() {
        let events = vec![
            (BranchEvent::new(1, 50), 100),
            (BranchEvent::new(2, 50), 100),
            (BranchEvent::new(1, 50), 50),
        ];
        let trace = BbvTrace::collect(IntervalCutter::from_iter(100, events));
        assert_eq!(trace.len(), 2);
        assert!((trace.vectors[0].weight(1) - 0.5).abs() < 1e-12);
        assert_eq!(trace.vectors[1].weight(1), 1.0);
        assert_eq!(trace.cpis().len(), 2);
    }
}
