//! Basic block vectors (BBVs) for offline phase analysis.
//!
//! A BBV describes one interval of execution as a vector over static branch
//! PCs, where each component is the number of instructions attributed to the
//! dynamic basic blocks ending at that PC. The SimPoint family of offline
//! classifiers (Sherwood et al., ASPLOS'02) clusters these vectors; the
//! online architecture of the paper is an approximation that projects them
//! into a small number of hardware counters.

use std::collections::BTreeMap;

use crate::event::BranchEvent;
use crate::interval::IntervalSummary;

/// A sparse, normalized basic block vector for one interval.
///
/// Components are keyed by branch PC and hold the *fraction* of the
/// interval's instructions attributed to that PC (so components sum to 1 for
/// a non-empty interval).
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
    components: BTreeMap<u64, f64>,
}

impl Bbv {
    /// The normalized weight of branch PC `pc`, or `0.0` if absent.
    pub fn weight(&self, pc: u64) -> f64 {
        self.components.get(&pc).copied().unwrap_or(0.0)
    }

    /// Number of distinct branch PCs with non-zero weight.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the vector has no components (empty interval).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Iterates over `(pc, weight)` pairs in ascending PC order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.components.iter().map(|(&pc, &w)| (pc, w))
    }

    /// Manhattan (L1) distance between two normalized BBVs.
    ///
    /// Ranges from 0 (identical code profile) to 2 (disjoint code). This is
    /// the distance SimPoint-style clustering operates on.
    pub fn manhattan_distance(&self, other: &Bbv) -> f64 {
        let mut dist = 0.0;
        let mut a = self.components.iter().peekable();
        let mut b = other.components.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some((&pa, &wa)), Some((&pb, &wb))) => {
                    if pa == pb {
                        dist += (wa - wb).abs();
                        a.next();
                        b.next();
                    } else if pa < pb {
                        dist += wa;
                        a.next();
                    } else {
                        dist += wb;
                        b.next();
                    }
                }
                (Some((_, &wa)), None) => {
                    dist += wa;
                    a.next();
                }
                (None, Some((_, &wb))) => {
                    dist += wb;
                    b.next();
                }
                (None, None) => break,
            }
        }
        dist
    }
}

/// Accumulates branch events into a [`Bbv`] for the current interval.
#[derive(Debug, Clone, Default)]
pub struct BbvBuilder {
    raw: BTreeMap<u64, u64>,
    total: u64,
}

impl BbvBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one branch event's instruction count to its PC's component.
    pub fn observe(&mut self, ev: BranchEvent) {
        *self.raw.entry(ev.pc).or_insert(0) += u64::from(ev.insns);
        self.total += u64::from(ev.insns);
    }

    /// Total instructions observed so far.
    pub fn total_instructions(&self) -> u64 {
        self.total
    }

    /// Finishes the interval, producing a normalized [`Bbv`] and resetting
    /// the builder for the next interval.
    pub fn finish(&mut self) -> Bbv {
        let total = self.total.max(1) as f64;
        let components = std::mem::take(&mut self.raw)
            .into_iter()
            .map(|(pc, n)| (pc, n as f64 / total))
            .collect();
        self.total = 0;
        Bbv { components }
    }
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
    /// [`IntervalSource`](crate::IntervalSource).
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
    pub fn collect<S: crate::interval::IntervalSource>(mut source: S) -> Self {
        let mut out = Self::default();
        let mut builder = BbvBuilder::new();
        while let Some(summary) = source.next_interval(&mut |ev| builder.observe(ev)) {
            out.vectors.push(builder.finish());
            out.summaries.push(summary);
        }
        out
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
