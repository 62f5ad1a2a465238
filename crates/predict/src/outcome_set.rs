//! Bounded multisets of phase-change outcomes, supporting the paper's
//! most-recent, Last-4, Top-1, and Top-4 prediction policies.

use tpcp_core::PhaseId;

/// Maximum distinct outcomes tracked per table entry. Large enough for
/// Last-4/Top-4 policies with headroom; bounded as hardware would be.
const MAX_OUTCOMES: usize = 8;

/// The outcomes recorded for one phase-change-table entry.
///
/// Tracks up to [`MAX_OUTCOMES`] distinct outcomes with both recency order
/// (for most-recent and Last-K policies) and occurrence counts (for Top-K
/// policies). When full, the least frequent (oldest on tie) outcome is
/// evicted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct OutcomeSet {
    /// Most recent first.
    items: Vec<(PhaseId, u32)>,
}

impl OutcomeSet {
    /// Creates a set seeded with one outcome.
    pub fn with(outcome: PhaseId) -> Self {
        let mut s = Self::default();
        s.record(outcome);
        s
    }

    /// Records an occurrence of `outcome`, moving it to the front of the
    /// recency order.
    pub fn record(&mut self, outcome: PhaseId) {
        if let Some(pos) = self.items.iter().position(|(p, _)| *p == outcome) {
            let (p, c) = self.items.remove(pos);
            self.items.insert(0, (p, c.saturating_add(1)));
            return;
        }
        if self.items.len() >= MAX_OUTCOMES {
            // Evict the least frequent; ties broken toward the oldest.
            let evict = self
                .items
                .iter()
                .enumerate()
                .rev()
                .min_by_key(|(_, (_, c))| *c)
                .map(|(i, _)| i)
                .expect("set is full, hence non-empty");
            self.items.remove(evict);
        }
        self.items.insert(0, (outcome, 1));
    }

    /// The most recently recorded outcome (the standard Markov/RLE
    /// prediction).
    pub fn most_recent(&self) -> Option<PhaseId> {
        self.items.first().map(|(p, _)| *p)
    }

    /// Whether `outcome` is among the `k` most recently seen unique
    /// outcomes (the Last-K policy).
    pub fn last_k_contains(&self, k: usize, outcome: PhaseId) -> bool {
        self.items.iter().take(k).any(|(p, _)| *p == outcome)
    }

    /// The most frequently seen outcome (ties broken toward recency).
    pub fn top1(&self) -> Option<PhaseId> {
        self.items
            .iter()
            .enumerate()
            .max_by_key(|(i, (_, c))| (*c, usize::MAX - i))
            .map(|(_, (p, _))| *p)
    }

    /// Whether `outcome` is among the `k` most frequent outcomes.
    pub fn top_k_contains(&self, k: usize, outcome: PhaseId) -> bool {
        let mut by_freq: Vec<_> = self.items.iter().enumerate().collect();
        // Sort by descending count; ties toward more recent (lower index).
        by_freq.sort_by(|(ia, (_, ca)), (ib, (_, cb))| cb.cmp(ca).then(ia.cmp(ib)));
        by_freq.iter().take(k).any(|(_, (p, _))| *p == outcome)
    }

    /// Number of distinct outcomes currently tracked.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Iterates outcomes most-recent first.
    pub fn iter_recent(&self) -> impl Iterator<Item = PhaseId> + '_ {
        self.items.iter().map(|(p, _)| *p)
    }

    /// Iterates outcomes most-frequent first (ties toward recency).
    pub fn iter_top(&self) -> impl Iterator<Item = PhaseId> + '_ {
        let mut by_freq: Vec<_> = self.items.iter().enumerate().collect();
        by_freq.sort_by(|(ia, (_, ca)), (ib, (_, cb))| cb.cmp(ca).then(ia.cmp(ib)));
        by_freq.into_iter().map(|(_, (p, _))| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn most_recent_follows_inserts() {
        let mut s = OutcomeSet::with(id(1));
        s.record(id(2));
        assert_eq!(s.most_recent(), Some(id(2)));
        s.record(id(1));
        assert_eq!(s.most_recent(), Some(id(1)));
    }

    #[test]
    fn last_k_is_recency_based() {
        let mut s = OutcomeSet::default();
        for v in [1, 2, 3, 4, 5] {
            s.record(id(v));
        }
        assert!(s.last_k_contains(4, id(5)));
        assert!(s.last_k_contains(4, id(2)));
        assert!(!s.last_k_contains(4, id(1)), "1 fell out of the last 4");
    }

    #[test]
    fn top1_is_frequency_based() {
        let mut s = OutcomeSet::default();
        for v in [1, 2, 2, 2, 3] {
            s.record(id(v));
        }
        assert_eq!(s.top1(), Some(id(2)));
        // Most-recent differs from top-1 here.
        assert_eq!(s.most_recent(), Some(id(3)));
    }

    #[test]
    fn top_k_contains_frequent_outcomes() {
        let mut s = OutcomeSet::default();
        for v in [1, 1, 1, 2, 2, 3, 3, 4, 5] {
            s.record(id(v));
        }
        assert!(s.top_k_contains(4, id(1)));
        assert!(s.top_k_contains(4, id(2)));
        assert!(s.top_k_contains(4, id(3)));
        // 4 and 5 tie at count 1; exactly one of them fills the 4th slot
        // (recency favors 5).
        assert!(s.top_k_contains(4, id(5)));
        assert!(!s.top_k_contains(4, id(4)));
    }

    #[test]
    fn bounded_capacity_evicts_least_frequent() {
        let mut s = OutcomeSet::default();
        for v in 1..=8u32 {
            s.record(id(v));
            s.record(id(v)); // count 2 each
        }
        s.record(id(1)); // bump 1 to count 3
        s.record(id(99)); // forces eviction of some count-2 entry
        assert_eq!(s.len(), MAX_OUTCOMES);
        assert!(s.last_k_contains(8, id(99)));
        assert!(s.last_k_contains(8, id(1)), "highest-count entry survives");
    }

    #[test]
    fn recount_on_reinsert() {
        let mut s = OutcomeSet::with(id(7));
        s.record(id(7));
        s.record(id(7));
        assert_eq!(s.top1(), Some(id(7)));
        assert_eq!(s.len(), 1);
    }
}
