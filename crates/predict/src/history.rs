//! Phase ID history tracking for Markov and RLE predictor indexing.

use tpcp_core::PhaseId;

/// How a predictor indexes its table from the phase ID stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistoryKind {
    /// Hash of the last `N` *unique* phase IDs (runs collapsed) — the
    /// paper's Markov-N predictors.
    Markov(usize),
    /// Hash of the last `N` (phase ID, run length) pairs from the
    /// run-length-encoded history — the paper's RLE-N predictors. The
    /// current, still-growing run participates with its length so far.
    Rle(usize),
}

impl HistoryKind {
    /// The history order `N`.
    pub fn order(self) -> usize {
        match self {
            HistoryKind::Markov(n) | HistoryKind::Rle(n) => n,
        }
    }
}

/// Tracks the run-length-encoded phase ID history of the classified stream.
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_predict::PhaseHistory;
///
/// let mut h = PhaseHistory::new(4);
/// for id in [1u32, 1, 1, 2, 2] {
///     h.push(PhaseId::new(id));
/// }
/// assert_eq!(h.current_phase(), Some(PhaseId::new(2)));
/// assert_eq!(h.current_run(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseHistory {
    /// Completed runs, most recent last: (phase, length).
    completed: Vec<(PhaseId, u64)>,
    /// Maximum completed runs retained (≥ any predictor order in use).
    depth: usize,
    current: Option<(PhaseId, u64)>,
}

impl PhaseHistory {
    /// Creates a history retaining `depth` completed runs.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be positive");
        Self {
            completed: Vec::with_capacity(depth + 1),
            depth,
            current: None,
        }
    }

    /// The phase of the current (still growing) run.
    pub fn current_phase(&self) -> Option<PhaseId> {
        self.current.map(|(p, _)| p)
    }

    /// Length of the current run in intervals (0 before any input).
    pub fn current_run(&self) -> u64 {
        self.current.map_or(0, |(_, n)| n)
    }

    /// Observes the next interval's phase. Returns `true` if this started a
    /// new run (a phase change).
    pub fn push(&mut self, phase: PhaseId) -> bool {
        match self.current {
            Some((p, ref mut n)) if p == phase => {
                *n += 1;
                false
            }
            Some(prev) => {
                self.completed.push(prev);
                if self.completed.len() > self.depth {
                    self.completed.remove(0);
                }
                self.current = Some((phase, 1));
                true
            }
            None => {
                self.current = Some((phase, 1));
                true
            }
        }
    }

    /// The last `n` unique phase IDs including the current run's phase,
    /// oldest first. Shorter than `n` early in the stream.
    pub fn last_unique(&self, n: usize) -> Vec<PhaseId> {
        let mut out: Vec<PhaseId> = Vec::with_capacity(n);
        if let Some((p, _)) = self.current {
            out.push(p);
        }
        for &(p, _) in self.completed.iter().rev() {
            if out.len() >= n {
                break;
            }
            out.push(p);
        }
        out.reverse();
        out
    }

    /// The last `n` RLE pairs including the current (phase, run-so-far),
    /// oldest first.
    pub fn last_rle(&self, n: usize) -> Vec<(PhaseId, u64)> {
        let mut out: Vec<(PhaseId, u64)> = Vec::with_capacity(n);
        if let Some(cur) = self.current {
            out.push(cur);
        }
        for &pair in self.completed.iter().rev() {
            if out.len() >= n {
                break;
            }
            out.push(pair);
        }
        out.reverse();
        out
    }

    /// The table index key for a predictor of the given kind, built from
    /// the current history state.
    pub fn key(&self, kind: HistoryKind) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut absorb = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        match kind {
            HistoryKind::Markov(n) => {
                for p in self.last_unique(n) {
                    absorb(u64::from(p.value()) + 1);
                }
            }
            HistoryKind::Rle(n) => {
                for (p, run) in self.last_rle(n) {
                    absorb(u64::from(p.value()) + 1);
                    absorb(run);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn push_reports_changes() {
        let mut h = PhaseHistory::new(4);
        assert!(h.push(id(1)), "first interval starts a run");
        assert!(!h.push(id(1)));
        assert!(h.push(id(2)));
        assert!(!h.push(id(2)));
    }

    #[test]
    fn run_lengths_tracked() {
        let mut h = PhaseHistory::new(4);
        for p in [1, 1, 1, 2, 2, 3] {
            h.push(id(p));
        }
        assert_eq!(h.current_phase(), Some(id(3)));
        assert_eq!(h.current_run(), 1);
        assert_eq!(h.last_rle(3), vec![(id(1), 3), (id(2), 2), (id(3), 1)]);
    }

    #[test]
    fn last_unique_collapses_runs() {
        let mut h = PhaseHistory::new(4);
        for p in [1, 1, 2, 2, 2, 1, 3, 3] {
            h.push(id(p));
        }
        assert_eq!(h.last_unique(4), vec![id(1), id(2), id(1), id(3)]);
        assert_eq!(h.last_unique(2), vec![id(1), id(3)]);
    }

    #[test]
    fn short_history_is_shorter() {
        let mut h = PhaseHistory::new(4);
        h.push(id(5));
        assert_eq!(h.last_unique(4), vec![id(5)]);
        assert_eq!(h.last_rle(2), vec![(id(5), 1)]);
    }

    #[test]
    fn depth_bounds_completed_runs() {
        let mut h = PhaseHistory::new(2);
        for p in 1..10u32 {
            h.push(id(p));
        }
        // Only 2 completed runs retained + the current one.
        assert_eq!(h.last_unique(10).len(), 3);
    }

    #[test]
    fn markov_key_ignores_run_lengths() {
        let mut a = PhaseHistory::new(4);
        let mut b = PhaseHistory::new(4);
        for p in [1, 1, 1, 2] {
            a.push(id(p));
        }
        for p in [1, 2] {
            b.push(id(p));
        }
        assert_eq!(a.key(HistoryKind::Markov(2)), b.key(HistoryKind::Markov(2)));
        assert_ne!(a.key(HistoryKind::Rle(2)), b.key(HistoryKind::Rle(2)));
    }

    #[test]
    fn rle_key_depends_on_current_run_length() {
        let mut h = PhaseHistory::new(4);
        h.push(id(1));
        let k1 = h.key(HistoryKind::Rle(1));
        h.push(id(1));
        let k2 = h.key(HistoryKind::Rle(1));
        assert_ne!(k1, k2, "run growth changes the RLE key");
    }

    #[test]
    fn key_is_order_sensitive() {
        let mut a = PhaseHistory::new(4);
        let mut b = PhaseHistory::new(4);
        for p in [1, 2, 3] {
            a.push(id(p));
        }
        for p in [3, 2, 1] {
            b.push(id(p));
        }
        assert_ne!(a.key(HistoryKind::Markov(3)), b.key(HistoryKind::Markov(3)));
    }
}
