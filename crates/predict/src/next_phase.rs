//! Next-interval phase prediction (Section 5.2, Figure 7).

use tpcp_core::PhaseId;

use crate::change::{ChangePolicy, ChangePrediction, PhaseChangePredictor};
use crate::history::HistoryKind;
use crate::last_value::LastValuePredictor;

/// Which component produced a next-phase prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionSource {
    /// The phase-change table (a confident Markov/RLE hit).
    ChangeTable,
    /// The last-value predictor (default / fallback).
    LastValue,
}

/// The resolved prediction for one interval transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPrediction {
    /// The single-valued predicted phase.
    pub predicted: PhaseId,
    /// All phases the policy accepted (equals `[predicted]` for
    /// single-valued policies).
    pub candidates: Vec<PhaseId>,
    /// The actual phase of the interval.
    pub actual: PhaseId,
    /// Which component supplied the prediction.
    pub source: PredictionSource,
    /// Whether that component was confident.
    pub confident: bool,
}

impl ResolvedPrediction {
    /// Whether the prediction was correct (actual in the candidate set).
    pub fn correct(&self) -> bool {
        self.candidates.contains(&self.actual)
    }
}

/// Figure 7's stacked accuracy breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NextPhaseBreakdown {
    /// Correct predictions from the change table.
    pub correct_table: u64,
    /// Correct, confident last-value predictions.
    pub correct_lv_conf: u64,
    /// Correct, unconfident last-value predictions.
    pub correct_lv_unconf: u64,
    /// Incorrect, unconfident last-value predictions.
    pub incorrect_lv_unconf: u64,
    /// Incorrect, confident last-value predictions.
    pub incorrect_lv_conf: u64,
    /// Incorrect predictions from the change table.
    pub incorrect_table: u64,
}

impl NextPhaseBreakdown {
    /// Total resolved predictions.
    pub fn total(&self) -> u64 {
        self.correct_table
            + self.correct_lv_conf
            + self.correct_lv_unconf
            + self.incorrect_lv_unconf
            + self.incorrect_lv_conf
            + self.incorrect_table
    }

    /// Records one resolution.
    pub fn record(&mut self, r: &ResolvedPrediction) {
        match (r.source, r.correct(), r.confident) {
            (PredictionSource::ChangeTable, true, _) => self.correct_table += 1,
            (PredictionSource::ChangeTable, false, _) => self.incorrect_table += 1,
            (PredictionSource::LastValue, true, true) => self.correct_lv_conf += 1,
            (PredictionSource::LastValue, true, false) => self.correct_lv_unconf += 1,
            (PredictionSource::LastValue, false, false) => self.incorrect_lv_unconf += 1,
            (PredictionSource::LastValue, false, true) => self.incorrect_lv_conf += 1,
        }
    }

    /// Overall accuracy (all sources).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.correct_table + self.correct_lv_conf + self.correct_lv_unconf) as f64
                / self.total() as f64
        }
    }

    /// Accuracy counting only *confident* predictions as claims: fraction
    /// of all predictions that were confident and correct.
    pub fn confident_correct_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.correct_table + self.correct_lv_conf) as f64 / self.total() as f64
        }
    }

    /// Fraction of predictions that were confident and incorrect.
    pub fn confident_incorrect_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.incorrect_table + self.incorrect_lv_conf) as f64 / self.total() as f64
        }
    }
}

/// Configuration of a [`NextPhasePredictor`] — which change predictor (if
/// any) backs up the last-value predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictorKind {
    history: Option<HistoryKind>,
    policy: ChangePolicy,
    table_confidence: bool,
    lv_confidence: bool,
    /// Overrides the default 3-bit/threshold-6 last-value counters.
    lv_counter: Option<(u32, u8)>,
    entries: usize,
    ways: usize,
}

impl PredictorKind {
    /// Pure last-value prediction (with confidence counters).
    pub fn last_value() -> Self {
        Self {
            history: None,
            policy: ChangePolicy::MostRecent,
            table_confidence: false,
            lv_confidence: true,
            lv_counter: None,
            entries: 32,
            ways: 4,
        }
    }

    /// Markov-N change table over the last N unique phase IDs.
    pub fn markov(order: usize) -> Self {
        Self {
            history: Some(HistoryKind::Markov(order)),
            policy: ChangePolicy::MostRecent,
            table_confidence: true,
            lv_confidence: true,
            lv_counter: None,
            entries: 32,
            ways: 4,
        }
    }

    /// RLE-N change table over run-length-encoded history.
    pub fn rle(order: usize) -> Self {
        Self {
            history: Some(HistoryKind::Rle(order)),
            policy: ChangePolicy::MostRecent,
            table_confidence: true,
            lv_confidence: true,
            lv_counter: None,
            entries: 32,
            ways: 4,
        }
    }

    /// Uses the Last-4 acceptance policy ("Last 4 Markov/RLE" predictors).
    pub fn with_last4(mut self) -> Self {
        self.policy = ChangePolicy::LastK(4);
        self
    }

    /// Enables table confidence (on by default for markov/rle).
    pub fn with_confidence(mut self) -> Self {
        self.table_confidence = true;
        self
    }

    /// Disables the change table's confidence counters ("No Table Conf").
    pub fn without_table_confidence(mut self) -> Self {
        self.table_confidence = false;
        self
    }

    /// Disables last-value confidence counters.
    pub fn without_lv_confidence(mut self) -> Self {
        self.lv_confidence = false;
        self
    }

    /// Overrides the change-table geometry (default 32-entry, 4-way).
    pub fn with_table_geometry(mut self, entries: usize, ways: usize) -> Self {
        self.entries = entries;
        self.ways = ways;
        self
    }

    /// Overrides the last-value confidence counter shape (default 3-bit,
    /// threshold 6) — used to sweep the accuracy/coverage trade-off.
    pub fn with_lv_counter(mut self, bits: u32, threshold: u8) -> Self {
        self.lv_confidence = true;
        self.lv_counter = Some((bits, threshold));
        self
    }
}

/// The composed next-phase predictor of Section 5.
///
/// A confident phase-change-table hit predicts the table's outcome for the
/// next interval; otherwise the last-value prediction is used. ("Since
/// incorrectly predicting a phase change is generally worse than failing to
/// detect one, we only use confident phase change table results.")
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_predict::{NextPhasePredictor, PredictorKind};
///
/// let mut p = NextPhasePredictor::new(PredictorKind::last_value());
/// p.observe(PhaseId::new(1));
/// let r = p.observe(PhaseId::new(1)).unwrap();
/// assert!(r.correct());
/// ```
#[derive(Debug, Clone)]
pub struct NextPhasePredictor {
    change: Option<PhaseChangePredictor>,
    table_confidence: bool,
    last_value: LastValuePredictor,
    pending: Option<PendingPrediction>,
    breakdown: NextPhaseBreakdown,
}

#[derive(Debug, Clone)]
struct PendingPrediction {
    predicted: PhaseId,
    candidates: Vec<PhaseId>,
    source: PredictionSource,
    confident: bool,
}

impl NextPhasePredictor {
    /// Builds a predictor of the given kind.
    pub fn new(kind: PredictorKind) -> Self {
        Self {
            change: kind.history.map(|h| {
                PhaseChangePredictor::new(
                    h,
                    kind.policy,
                    kind.table_confidence,
                    kind.entries,
                    kind.ways,
                )
            }),
            table_confidence: kind.table_confidence,
            last_value: match (kind.lv_confidence, kind.lv_counter) {
                (false, _) => LastValuePredictor::without_confidence(),
                (true, None) => LastValuePredictor::new(),
                (true, Some((bits, threshold))) => LastValuePredictor::with_confidence(
                    crate::confidence::ConfidenceCounter::new(bits, threshold),
                ),
            },
            pending: None,
            breakdown: NextPhaseBreakdown::default(),
        }
    }

    /// Observes the next interval's actual phase. Resolves and returns the
    /// previous prediction (if any), trains all components, and forms the
    /// prediction for the following interval.
    pub fn observe(&mut self, actual: PhaseId) -> Option<ResolvedPrediction> {
        let resolved = self.pending.take().map(|p| ResolvedPrediction {
            predicted: p.predicted,
            candidates: p.candidates,
            actual,
            source: p.source,
            confident: p.confident,
        });
        if let Some(r) = &resolved {
            self.breakdown.record(r);
        }

        // Train components.
        self.last_value.observe(actual);
        if let Some(change) = &mut self.change {
            change.observe(actual);
        }

        // Form the next prediction.
        let lv = self
            .last_value
            .prediction()
            .expect("observe() was just called");
        let table_pred: Option<ChangePrediction> =
            self.change.as_ref().and_then(PhaseChangePredictor::predict);
        self.pending = Some(match table_pred {
            // Use the table only when it is a hit AND (confidence disabled
            // or the entry is confident) AND it actually predicts a change
            // (a table entry predicting "stay" adds nothing over last
            // value).
            Some(tp) if tp.confident && tp.primary != actual => PendingPrediction {
                predicted: tp.primary,
                candidates: tp.candidates,
                source: PredictionSource::ChangeTable,
                confident: tp.confident,
            },
            _ => PendingPrediction {
                predicted: lv.0,
                candidates: vec![lv.0],
                source: PredictionSource::LastValue,
                confident: lv.1,
            },
        });
        resolved
    }

    /// The outstanding prediction for the *next* interval's phase, with
    /// its confidence — `None` until the first observation. This is what
    /// an online query answers between interval boundaries.
    pub fn current_prediction(&self) -> Option<(PhaseId, bool)> {
        self.pending.as_ref().map(|p| (p.predicted, p.confident))
    }

    /// The accumulated Figure 7 breakdown.
    pub fn breakdown(&self) -> NextPhaseBreakdown {
        self.breakdown
    }

    /// Whether this predictor has a change table attached.
    pub fn has_change_table(&self) -> bool {
        self.change.is_some()
    }

    /// Whether the change table consults confidence counters.
    pub fn uses_table_confidence(&self) -> bool {
        self.table_confidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn stable_stream_is_perfectly_predicted() {
        let mut p = NextPhasePredictor::new(PredictorKind::last_value());
        let mut correct = 0;
        for _ in 0..100 {
            if let Some(r) = p.observe(id(1)) {
                if r.correct() {
                    correct += 1;
                }
            }
        }
        assert_eq!(correct, 99);
    }

    #[test]
    fn last_value_misses_every_change() {
        let mut p = NextPhasePredictor::new(PredictorKind::last_value());
        for i in 0..20u32 {
            p.observe(id(i)); // every interval is a new phase
        }
        let b = p.breakdown();
        assert_eq!(b.total(), 19);
        assert_eq!(b.accuracy(), 0.0);
    }

    #[test]
    fn rle_predicts_periodic_changes() {
        // 3-periodic pattern 1,1,2 repeated: last value gets 2/3, RLE-2
        // should approach 100% once trained and confident.
        let mut lv = NextPhasePredictor::new(PredictorKind::last_value());
        let mut rle = NextPhasePredictor::new(PredictorKind::rle(2));
        let mut lv_correct = 0u32;
        let mut rle_correct = 0u32;
        let mut total = 0u32;
        for rep in 0..200 {
            for v in [1u32, 1, 2] {
                let a = lv.observe(id(v));
                let b = rle.observe(id(v));
                if rep >= 50 {
                    if let (Some(a), Some(b)) = (a, b) {
                        total += 1;
                        lv_correct += u32::from(a.correct());
                        rle_correct += u32::from(b.correct());
                    }
                }
            }
        }
        let lv_acc = f64::from(lv_correct) / f64::from(total);
        let rle_acc = f64::from(rle_correct) / f64::from(total);
        assert!(lv_acc < 0.70, "last value caps at 2/3: {lv_acc}");
        assert!(rle_acc > 0.95, "RLE learns the period: {rle_acc}");
    }

    #[test]
    fn breakdown_categories_are_exclusive() {
        let mut p = NextPhasePredictor::new(PredictorKind::rle(2));
        for i in 0..300u32 {
            p.observe(id(i % 3));
        }
        let b = p.breakdown();
        assert_eq!(b.total(), 299);
        assert_eq!(
            b.total(),
            b.correct_table
                + b.correct_lv_conf
                + b.correct_lv_unconf
                + b.incorrect_lv_unconf
                + b.incorrect_lv_conf
                + b.incorrect_table
        );
    }

    #[test]
    fn confident_fraction_bounded_by_accuracy() {
        let mut p = NextPhasePredictor::new(PredictorKind::markov(2));
        let mut x = 5u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.observe(id((x >> 61) as u32));
        }
        let b = p.breakdown();
        assert!(b.confident_correct_fraction() <= b.accuracy() + 1e-12);
    }

    #[test]
    fn markov_without_table_conf_uses_table_more() {
        let kind = PredictorKind::markov(2).without_table_confidence();
        let mut p = NextPhasePredictor::new(kind);
        assert!(!p.uses_table_confidence());
        for i in 0..100u32 {
            p.observe(id(i % 2));
        }
        let b = p.breakdown();
        assert!(
            b.correct_table + b.incorrect_table > 0,
            "table should be consulted without confidence gating: {b:?}"
        );
    }
}
