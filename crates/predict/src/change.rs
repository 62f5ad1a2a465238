//! Phase change prediction (Sections 5.2.2, 5.2.3, and 6.1).

use std::collections::HashSet;

use tpcp_core::PhaseId;

use crate::assoc::AssocTable;
use crate::confidence::ConfidenceCounter;
use crate::history::{HistoryKind, PhaseHistory};
use crate::outcome_set::OutcomeSet;

/// How a table entry's recorded outcomes are turned into a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangePolicy {
    /// Predict the most recently seen outcome (standard Markov/RLE).
    MostRecent,
    /// Count a prediction correct if the actual outcome is any of the last
    /// `k` unique outcomes (the paper's "Last 4" predictors).
    LastK(usize),
    /// Predict the `k` most frequent outcomes (the paper's Top-1/Top-4).
    TopK(usize),
}

/// A phase-change prediction snapshot, taken before the outcome is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangePrediction {
    /// The single-valued prediction (most recent or top-1 outcome).
    pub primary: PhaseId,
    /// All outcomes the policy accepts as "correct" (≤ k entries).
    pub candidates: Vec<PhaseId>,
    /// Whether the entry's confidence counter endorses this prediction.
    pub confident: bool,
}

impl ChangePrediction {
    /// Whether `actual` matches this prediction under its policy.
    pub fn matches(&self, actual: PhaseId) -> bool {
        self.candidates.contains(&actual)
    }
}

#[derive(Debug, Clone)]
struct ChangeEntry {
    outcomes: OutcomeSet,
    confidence: ConfidenceCounter,
}

/// A table-based predictor of the *outcome of the next phase change*.
///
/// The table is indexed by a hash of the phase ID history — either the last
/// N unique phase IDs (Markov-N) or the last N run-length-encoded (phase,
/// run length) pairs (RLE-N) — and is 32-entry 4-way set associative by
/// default, as in the paper.
///
/// Update policy (Section 5.2.3): entries are inserted **only on phase
/// changes**; on a tag hit that wrongly predicts a change while the phase
/// stays the same, the entry is removed (RLE predictors; last value would
/// have been correct, so the entry only pollutes the table).
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_predict::{ChangePolicy, HistoryKind, PhaseChangePredictor};
///
/// let mut p = PhaseChangePredictor::new(
///     HistoryKind::Rle(2), ChangePolicy::MostRecent, true, 32, 4);
/// // Periodic pattern: 1,1,2,1,1,2,... the RLE predictor learns that
/// // (1, run=2) is followed by phase 2.
/// for _ in 0..10 {
///     p.observe(PhaseId::new(1));
///     p.observe(PhaseId::new(1));
///     p.observe(PhaseId::new(2));
/// }
/// p.observe(PhaseId::new(1));
/// p.observe(PhaseId::new(1));
/// let pred = p.predict().expect("trained pattern should hit");
/// assert_eq!(pred.primary, PhaseId::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct PhaseChangePredictor {
    kind: HistoryKind,
    policy: ChangePolicy,
    use_confidence: bool,
    remove_on_false_change: bool,
    table: AssocTable<ChangeEntry>,
    history: PhaseHistory,
}

impl PhaseChangePredictor {
    /// Creates a predictor.
    ///
    /// * `kind` — Markov-N or RLE-N indexing.
    /// * `policy` — how entries predict (most recent / Last-K / Top-K).
    /// * `use_confidence` — attach a 1-bit confidence counter per entry;
    ///   when `false`, every prediction reports `confident = true`.
    /// * `entries`, `ways` — table geometry (the paper uses 32 and 4; one
    ///   Figure 8 variant uses 128 entries).
    ///
    /// RLE predictors remove entries on falsely predicted changes; Markov
    /// predictors keep them (the paper describes the removal rule in the
    /// RLE section only).
    ///
    /// # Panics
    ///
    /// Panics on invalid table geometry or a zero history order.
    pub fn new(
        kind: HistoryKind,
        policy: ChangePolicy,
        use_confidence: bool,
        entries: usize,
        ways: usize,
    ) -> Self {
        assert!(kind.order() > 0, "history order must be positive");
        let remove_on_false_change = matches!(kind, HistoryKind::Rle(_));
        Self {
            kind,
            policy,
            use_confidence,
            remove_on_false_change,
            table: AssocTable::new(entries, ways),
            history: PhaseHistory::new(kind.order().max(4) + 1),
        }
    }

    /// The predictor's history kind.
    pub fn kind(&self) -> HistoryKind {
        self.kind
    }

    /// The phase of the current run (`None` before any observation).
    pub fn current_phase(&self) -> Option<PhaseId> {
        self.history.current_phase()
    }

    /// Number of live table entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    fn snapshot(&self, entry: &ChangeEntry) -> ChangePrediction {
        let primary = match self.policy {
            ChangePolicy::TopK(_) => entry.outcomes.top1(),
            _ => entry.outcomes.most_recent(),
        }
        .expect("entries always hold at least one outcome");
        let candidates = match self.policy {
            ChangePolicy::MostRecent => vec![primary],
            ChangePolicy::LastK(k) => entry.outcomes.iter_recent().take(k).collect(),
            ChangePolicy::TopK(k) => entry.outcomes.iter_top().take(k).collect(),
        };
        let confident = !self.use_confidence || entry.confidence.is_confident();
        ChangePrediction {
            primary,
            candidates,
            confident,
        }
    }

    /// The prediction for the outcome of the next phase change, given the
    /// current history. `None` when the history is empty or the table has
    /// no entry for the current key (a tag miss).
    pub fn predict(&self) -> Option<ChangePrediction> {
        self.history.current_phase()?;
        let key = self.history.key(self.kind);
        self.table.get(key).map(|e| self.snapshot(e))
    }

    /// Observes the next interval's phase, training the table:
    ///
    /// - on a **phase change**, the entry for the pre-change history is
    ///   updated with (or inserted as) the new outcome, and its confidence
    ///   counter is trained on whether the policy would have predicted the
    ///   change correctly;
    /// - on a **non-change tag hit**, the entry wrongly predicted a change:
    ///   its confidence is decremented, and RLE predictors remove it.
    ///
    /// Returns `true` if this interval was a phase change.
    pub fn observe(&mut self, phase: PhaseId) -> bool {
        let Some(current) = self.history.current_phase() else {
            // Very first interval: just start the history.
            self.history.push(phase);
            return true;
        };
        let key = self.history.key(self.kind);
        let changed = phase != current;

        if changed {
            match self.table.get_mut(key) {
                Some(entry) => {
                    let correct = {
                        let snap_policy = self.policy;
                        entry_matches(entry, snap_policy, phase)
                    };
                    if correct {
                        entry.confidence.correct();
                    } else {
                        entry.confidence.incorrect();
                    }
                    entry.outcomes.record(phase);
                }
                None => {
                    self.table.insert(
                        key,
                        ChangeEntry {
                            outcomes: OutcomeSet::with(phase),
                            confidence: ConfidenceCounter::change_table_default(),
                        },
                    );
                }
            }
        } else if let Some(entry) = self.table.get_mut(key) {
            // Tag hit while the phase stayed the same: the table predicted
            // a change that did not occur; last value would have been
            // right.
            entry.confidence.incorrect();
            if self.remove_on_false_change {
                self.table.remove(key);
            }
        }

        self.history.push(phase);
        changed
    }
}

fn entry_matches(entry: &ChangeEntry, policy: ChangePolicy, actual: PhaseId) -> bool {
    match policy {
        ChangePolicy::MostRecent => entry.outcomes.most_recent() == Some(actual),
        ChangePolicy::LastK(k) => entry.outcomes.last_k_contains(k, actual),
        ChangePolicy::TopK(1) => entry.outcomes.top1() == Some(actual),
        ChangePolicy::TopK(k) => entry.outcomes.top_k_contains(k, actual),
    }
}

/// Judgment of one phase change for Figure 8's five-way breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeJudgment {
    /// Confident and correct.
    ConfidentCorrect,
    /// Unconfident but correct.
    UnconfidentCorrect,
    /// No table entry for the pre-change history.
    TagMiss,
    /// Unconfident and incorrect.
    UnconfidentIncorrect,
    /// Confident and incorrect (the expensive failure mode).
    ConfidentIncorrect,
}

/// Aggregate Figure 8 counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChangeBreakdown {
    /// Confident, correct predictions.
    pub conf_correct: u64,
    /// Unconfident, correct predictions.
    pub unconf_correct: u64,
    /// Tag misses (no prediction available).
    pub tag_misses: u64,
    /// Unconfident, incorrect predictions.
    pub unconf_incorrect: u64,
    /// Confident, incorrect predictions.
    pub conf_incorrect: u64,
}

impl ChangeBreakdown {
    /// Total phase changes judged.
    pub fn total(&self) -> u64 {
        self.conf_correct
            + self.unconf_correct
            + self.tag_misses
            + self.unconf_incorrect
            + self.conf_incorrect
    }

    /// Records one judgment.
    pub fn record(&mut self, judgment: ChangeJudgment) {
        match judgment {
            ChangeJudgment::ConfidentCorrect => self.conf_correct += 1,
            ChangeJudgment::UnconfidentCorrect => self.unconf_correct += 1,
            ChangeJudgment::TagMiss => self.tag_misses += 1,
            ChangeJudgment::UnconfidentIncorrect => self.unconf_incorrect += 1,
            ChangeJudgment::ConfidentIncorrect => self.conf_incorrect += 1,
        }
    }

    /// Fraction of changes correctly predicted (confident or not).
    pub fn correct_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.conf_correct + self.unconf_correct) as f64 / self.total() as f64
        }
    }

    /// Fraction of changes with confident correct predictions (coverage at
    /// confidence).
    pub fn confident_correct_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.conf_correct as f64 / self.total() as f64
        }
    }

    /// Fraction of changes with confident *incorrect* predictions.
    pub fn confident_incorrect_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.conf_incorrect as f64 / self.total() as f64
        }
    }
}

/// Drives a [`PhaseChangePredictor`] over a phase stream and judges each
/// phase change for Figure 8.
#[derive(Debug, Clone)]
pub struct ChangeEvaluator {
    predictor: PhaseChangePredictor,
    breakdown: ChangeBreakdown,
}

impl ChangeEvaluator {
    /// Wraps a predictor.
    pub fn new(predictor: PhaseChangePredictor) -> Self {
        Self {
            predictor,
            breakdown: ChangeBreakdown::default(),
        }
    }

    /// Observes one interval's phase; if it completed a phase change, the
    /// pre-change prediction is judged and returned.
    pub fn observe(&mut self, phase: PhaseId) -> Option<ChangeJudgment> {
        let current = self.predictor.current_phase();
        let judgment = match current {
            Some(c) if c != phase => Some(match self.predictor.predict() {
                None => ChangeJudgment::TagMiss,
                Some(pred) => match (pred.confident, pred.matches(phase)) {
                    (true, true) => ChangeJudgment::ConfidentCorrect,
                    (false, true) => ChangeJudgment::UnconfidentCorrect,
                    (false, false) => ChangeJudgment::UnconfidentIncorrect,
                    (true, false) => ChangeJudgment::ConfidentIncorrect,
                },
            }),
            _ => None,
        };
        if let Some(j) = judgment {
            self.breakdown.record(j);
        }
        self.predictor.observe(phase);
        judgment
    }

    /// The accumulated Figure 8 breakdown.
    pub fn breakdown(&self) -> ChangeBreakdown {
        self.breakdown
    }
}

/// The cold-start upper bound of Figure 8: an infinite-memory predictor
/// that counts a phase change as predictable if the same (history → outcome)
/// transition was ever seen before.
#[derive(Debug, Clone)]
pub struct PerfectMarkov {
    kind: HistoryKind,
    seen: HashSet<(u64, u32)>,
    history: PhaseHistory,
    correct: u64,
    total: u64,
}

impl PerfectMarkov {
    /// Creates a perfect predictor with Markov-N (or RLE-N) history keys.
    pub fn new(kind: HistoryKind) -> Self {
        Self {
            kind,
            seen: HashSet::new(),
            history: PhaseHistory::new(kind.order().max(4) + 1),
            correct: 0,
            total: 0,
        }
    }

    /// Observes one interval's phase; returns `Some(correct)` at changes.
    pub fn observe(&mut self, phase: PhaseId) -> Option<bool> {
        let result = match self.history.current_phase() {
            Some(c) if c != phase => {
                let key = self.history.key(self.kind);
                let correct = self.seen.contains(&(key, phase.value()));
                self.seen.insert((key, phase.value()));
                self.total += 1;
                if correct {
                    self.correct += 1;
                }
                Some(correct)
            }
            _ => None,
        };
        self.history.push(phase);
        result
    }

    /// Fraction of phase changes that had been seen before.
    pub fn correct_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// `(correct, total)` change counts.
    pub fn counts(&self) -> (u64, u64) {
        (self.correct, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    fn rle2() -> PhaseChangePredictor {
        PhaseChangePredictor::new(HistoryKind::Rle(2), ChangePolicy::MostRecent, true, 32, 4)
    }

    fn markov2() -> PhaseChangePredictor {
        PhaseChangePredictor::new(
            HistoryKind::Markov(2),
            ChangePolicy::MostRecent,
            true,
            32,
            4,
        )
    }

    #[test]
    fn learns_periodic_pattern() {
        let mut p = rle2();
        for _ in 0..8 {
            for v in [1, 1, 1, 2] {
                p.observe(id(v));
            }
        }
        // Mid-pattern: after 1,1,1 the next change goes to 2.
        p.observe(id(1));
        p.observe(id(1));
        p.observe(id(1));
        let pred = p.predict().expect("pattern should be in table");
        assert_eq!(pred.primary, id(2));
        assert!(pred.confident, "repeated correct outcomes build confidence");
    }

    #[test]
    fn rle_removes_false_change_entries() {
        let mut p = rle2();
        // Train: 1 runs for 2, then 2. Then present a longer run of 1.
        for _ in 0..4 {
            p.observe(id(1));
            p.observe(id(1));
            p.observe(id(2));
        }
        let before = p.table_len();
        // Run of 1 reaches length 2 → table predicts change to 2, but the
        // run continues: the entry must be removed.
        p.observe(id(1));
        p.observe(id(1));
        p.observe(id(1)); // false change prediction here
        assert!(p.table_len() < before, "false-change entry removed");
    }

    #[test]
    fn markov_keeps_entries_on_false_change() {
        let mut p = markov2();
        for _ in 0..4 {
            p.observe(id(1));
            p.observe(id(2));
        }
        let before = p.table_len();
        p.observe(id(2));
        p.observe(id(2));
        assert_eq!(p.table_len(), before, "Markov tables are not pruned");
    }

    #[test]
    fn evaluator_classifies_tag_miss_first() {
        let mut e = ChangeEvaluator::new(rle2());
        e.observe(id(1));
        let j = e.observe(id(2)).expect("phase change");
        assert_eq!(j, ChangeJudgment::TagMiss);
    }

    #[test]
    fn evaluator_learns_alternation() {
        let mut e = ChangeEvaluator::new(markov2());
        for i in 0..100u32 {
            e.observe(id(i % 2 + 1));
        }
        let b = e.breakdown();
        assert!(b.total() >= 98);
        assert!(
            b.correct_fraction() > 0.9,
            "alternation is learnable: {b:?}"
        );
    }

    #[test]
    fn confidence_gates_noisy_patterns() {
        // Changes with pseudo-random outcomes: confident-incorrect should be
        // rarer than unconfident-incorrect thanks to the 1-bit counter.
        let mut e = ChangeEvaluator::new(markov2());
        let mut x = 9u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            e.observe(id((x >> 60) as u32 % 5 + 1));
        }
        let b = e.breakdown();
        assert!(b.total() > 1000);
        assert!(
            b.conf_incorrect < b.total() / 4,
            "confidence limits damage: {b:?}"
        );
    }

    #[test]
    fn last4_policy_accepts_recent_outcomes() {
        let mut p =
            PhaseChangePredictor::new(HistoryKind::Markov(1), ChangePolicy::LastK(4), false, 32, 4);
        // From phase 1 we alternately go to 2 and 3.
        for _ in 0..6 {
            p.observe(id(1));
            p.observe(id(2));
            p.observe(id(1));
            p.observe(id(3));
        }
        p.observe(id(1));
        let pred = p.predict().expect("hit");
        assert!(pred.matches(id(2)) && pred.matches(id(3)), "{pred:?}");
    }

    #[test]
    fn top1_policy_predicts_mode() {
        let mut p =
            PhaseChangePredictor::new(HistoryKind::Markov(1), ChangePolicy::TopK(1), false, 32, 4);
        // From phase 1: go to 2 three times for every one go to 3.
        for _ in 0..5 {
            p.observe(id(1));
            p.observe(id(2));
            p.observe(id(1));
            p.observe(id(2));
            p.observe(id(1));
            p.observe(id(2));
            p.observe(id(1));
            p.observe(id(3));
        }
        p.observe(id(1));
        let pred = p.predict().expect("hit");
        assert_eq!(pred.primary, id(2), "top-1 is the most frequent target");
        assert!(!pred.matches(id(3)), "top-1 accepts only the mode");
    }

    #[test]
    fn perfect_markov_is_cold_start_bounded() {
        let mut p = PerfectMarkov::new(HistoryKind::Markov(1));
        for _ in 0..10 {
            for v in [1, 2, 3] {
                p.observe(id(v));
            }
        }
        let (correct, total) = p.counts();
        // First lap's transitions are cold; everything after repeats.
        assert!(total >= 29);
        assert!(
            correct >= total - 3,
            "only cold-start misses: {correct}/{total}"
        );
    }

    #[test]
    fn perfect_markov_never_predicts_novel_changes() {
        let mut p = PerfectMarkov::new(HistoryKind::Markov(2));
        for v in 1..50u32 {
            if let Some(correct) = p.observe(id(v)) {
                assert!(!correct, "every change is novel in this stream");
            }
        }
    }

    #[test]
    fn breakdown_totals_balance() {
        let mut b = ChangeBreakdown::default();
        for j in [
            ChangeJudgment::ConfidentCorrect,
            ChangeJudgment::TagMiss,
            ChangeJudgment::UnconfidentIncorrect,
            ChangeJudgment::ConfidentIncorrect,
            ChangeJudgment::UnconfidentCorrect,
        ] {
            b.record(j);
        }
        assert_eq!(b.total(), 5);
        assert!((b.correct_fraction() - 0.4).abs() < 1e-12);
    }
}
