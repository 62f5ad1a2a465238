//! Phase length prediction (Section 6.2, Figure 9).

use tpcp_core::PhaseId;

use crate::assoc::AssocTable;
use crate::history::PhaseHistory;

/// The paper's four run-length classes, in intervals of 10M instructions:
/// 1–15 (10–150M instructions), 16–127 (150M–1.3B), 128–1023 (1.3B–10B),
/// and ≥ 1024 (more than 10B instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RunLengthClass {
    /// 1–15 intervals.
    Short,
    /// 16–127 intervals.
    Medium,
    /// 128–1023 intervals.
    Long,
    /// 1024 or more intervals.
    VeryLong,
}

impl RunLengthClass {
    /// Classifies a run length in intervals.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero (runs are at least one interval). Use
    /// [`RunLengthClass::try_from_length`] when zero is a reachable input.
    pub fn from_length(length: u64) -> Self {
        match Self::try_from_length(length) {
            Some(class) => class,
            None => panic!("run length must be at least 1 interval"),
        }
    }

    /// Classifies a run length in intervals, returning `None` for the
    /// impossible length zero instead of panicking.
    pub fn try_from_length(length: u64) -> Option<Self> {
        match length {
            0 => None,
            1..=15 => Some(RunLengthClass::Short),
            16..=127 => Some(RunLengthClass::Medium),
            128..=1023 => Some(RunLengthClass::Long),
            _ => Some(RunLengthClass::VeryLong),
        }
    }

    /// All classes, shortest first.
    pub const ALL: [RunLengthClass; 4] = [
        RunLengthClass::Short,
        RunLengthClass::Medium,
        RunLengthClass::Long,
        RunLengthClass::VeryLong,
    ];

    /// A display label matching the paper's buckets.
    pub fn label(self) -> &'static str {
        match self {
            RunLengthClass::Short => "1-15",
            RunLengthClass::Medium => "16-127",
            RunLengthClass::Long => "128-1023",
            RunLengthClass::VeryLong => "1024-",
        }
    }
}

impl core::fmt::Display for RunLengthClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone)]
struct LengthEntry {
    prediction: RunLengthClass,
    /// Hysteresis: a differing class must be seen twice in a row before it
    /// replaces the prediction (filters length "noise" in programs like
    /// gcc).
    candidate: Option<RunLengthClass>,
}

impl LengthEntry {
    fn update(&mut self, actual: RunLengthClass) {
        if actual == self.prediction {
            self.candidate = None;
        } else if self.candidate == Some(actual) {
            self.prediction = actual;
            self.candidate = None;
        } else {
            self.candidate = Some(actual);
        }
    }
}

/// The resolution of one phase-length prediction (produced when the
/// predicted phase's run completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthJudgment {
    /// Predicted run-length class.
    pub predicted: RunLengthClass,
    /// The class the run actually fell into.
    pub actual: RunLengthClass,
    /// Whether the prediction came from the table (vs. the static
    /// "short" fallback on a tag miss).
    pub from_table: bool,
}

impl LengthJudgment {
    /// Whether the class was predicted correctly.
    pub fn correct(&self) -> bool {
        self.predicted == self.actual
    }
}

/// Predicts the run-length class of the next phase with an RLE-2 indexed,
/// 32-entry 4-way table and a two-in-a-row hysteresis update, exactly as in
/// Section 6.2.2. No confidence counters are used (the paper found accuracy
/// already high without them).
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
/// use tpcp_predict::{LengthClassPredictor, RunLengthClass};
///
/// let mut p = LengthClassPredictor::new(32, 4);
/// // Pattern: phase 1 runs 20 intervals (Medium), phase 2 runs 2 (Short).
/// let mut correct = 0;
/// let mut total = 0;
/// for rep in 0..20 {
///     for _ in 0..20 {
///         if let Some(j) = p.observe(PhaseId::new(1)) {
///             if rep > 5 { total += 1; correct += u32::from(j.correct()); }
///         }
///     }
///     for _ in 0..2 {
///         if let Some(j) = p.observe(PhaseId::new(2)) {
///             if rep > 5 { total += 1; correct += u32::from(j.correct()); }
///         }
///     }
/// }
/// assert!(correct as f64 / total as f64 > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct LengthClassPredictor {
    table: AssocTable<LengthEntry>,
    history: PhaseHistory,
    pending: Option<Pending>,
    correct: u64,
    total: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    key: u64,
    predicted: RunLengthClass,
    from_table: bool,
}

impl LengthClassPredictor {
    /// Creates a predictor with the given table geometry (32-entry 4-way in
    /// the paper).
    pub fn new(entries: usize, ways: usize) -> Self {
        Self {
            table: AssocTable::new(entries, ways),
            history: PhaseHistory::new(4),
            pending: None,
            correct: 0,
            total: 0,
        }
    }

    /// The current outstanding prediction for the in-progress run's class.
    pub fn current_prediction(&self) -> Option<RunLengthClass> {
        self.pending.map(|p| p.predicted)
    }

    /// The RLE-2 index with run lengths quantized to their length class.
    ///
    /// Exact run lengths jitter by a few intervals between recurrences of
    /// the same program behaviour, so an exact-length key would almost
    /// never re-hit and every prediction would fall back to the static
    /// "short" guess — inconsistent with the near-zero misprediction rates
    /// the paper reports for gzip. Quantizing the history's lengths to the
    /// same four classes being predicted makes recurrences collide while
    /// preserving the run-length information in the index.
    fn quantized_key(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for (phase, len) in self.history.last_rle(2) {
            h ^= u64::from(phase.value()) + 1;
            h = h.wrapping_mul(FNV_PRIME);
            let class = RunLengthClass::from_length(len.max(1)) as u64;
            h ^= class + 1;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Observes the next interval's phase. At a phase change, resolves the
    /// outstanding prediction for the run that just completed (returning
    /// its judgment), trains the table, and issues a prediction for the new
    /// phase's run.
    pub fn observe(&mut self, phase: PhaseId) -> Option<LengthJudgment> {
        let current = self.history.current_phase();
        match current {
            Some(c) if c == phase => {
                self.history.push(phase);
                None
            }
            _ => {
                // The previous run (if any) just completed.
                let judgment = if current.is_some() {
                    let run = self.history.current_run();
                    let actual = RunLengthClass::from_length(run);
                    self.pending.take().map(|p| {
                        // Train the entry this prediction came from.
                        match self.table.get_mut(p.key) {
                            Some(entry) => entry.update(actual),
                            None => {
                                self.table.insert(
                                    p.key,
                                    LengthEntry {
                                        prediction: actual,
                                        candidate: None,
                                    },
                                );
                            }
                        }
                        let j = LengthJudgment {
                            predicted: p.predicted,
                            actual,
                            from_table: p.from_table,
                        };
                        self.total += 1;
                        if j.correct() {
                            self.correct += 1;
                        }
                        j
                    })
                } else {
                    None
                };

                // Enter the new phase and predict its run's class.
                self.history.push(phase);
                let key = self.quantized_key();
                let (predicted, from_table) = match self.table.get(key) {
                    Some(entry) => (entry.prediction, true),
                    // Static fallback: most runs fall in the smallest class.
                    None => (RunLengthClass::Short, false),
                };
                self.pending = Some(Pending {
                    key,
                    predicted,
                    from_table,
                });
                judgment
            }
        }
    }

    /// `(correct, total)` resolved predictions.
    pub fn counts(&self) -> (u64, u64) {
        (self.correct, self.total)
    }

    /// Misprediction rate over resolved predictions.
    pub fn misprediction_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.total - self.correct) as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> PhaseId {
        PhaseId::new(v)
    }

    #[test]
    fn class_boundaries_match_paper() {
        assert_eq!(RunLengthClass::from_length(1), RunLengthClass::Short);
        assert_eq!(RunLengthClass::from_length(15), RunLengthClass::Short);
        assert_eq!(RunLengthClass::from_length(16), RunLengthClass::Medium);
        assert_eq!(RunLengthClass::from_length(127), RunLengthClass::Medium);
        assert_eq!(RunLengthClass::from_length(128), RunLengthClass::Long);
        assert_eq!(RunLengthClass::from_length(1023), RunLengthClass::Long);
        assert_eq!(RunLengthClass::from_length(1024), RunLengthClass::VeryLong);
        assert_eq!(
            RunLengthClass::from_length(u64::MAX),
            RunLengthClass::VeryLong
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_length_rejected() {
        RunLengthClass::from_length(0);
    }

    #[test]
    fn try_from_length_is_total() {
        assert_eq!(RunLengthClass::try_from_length(0), None);
        for (len, want) in [
            (1, RunLengthClass::Short),
            (15, RunLengthClass::Short),
            (16, RunLengthClass::Medium),
            (127, RunLengthClass::Medium),
            (128, RunLengthClass::Long),
            (1023, RunLengthClass::Long),
            (1024, RunLengthClass::VeryLong),
            (u64::MAX, RunLengthClass::VeryLong),
        ] {
            assert_eq!(RunLengthClass::try_from_length(len), Some(want), "{len}");
        }
    }

    #[test]
    fn labels_match_figure_nine() {
        let labels: Vec<_> = RunLengthClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["1-15", "16-127", "128-1023", "1024-"]);
    }

    #[test]
    fn hysteresis_requires_two_in_a_row() {
        let mut e = LengthEntry {
            prediction: RunLengthClass::Short,
            candidate: None,
        };
        e.update(RunLengthClass::Medium);
        assert_eq!(e.prediction, RunLengthClass::Short, "one sighting is noise");
        e.update(RunLengthClass::Medium);
        assert_eq!(e.prediction, RunLengthClass::Medium, "two in a row commit");
    }

    #[test]
    fn hysteresis_resets_on_agreement() {
        let mut e = LengthEntry {
            prediction: RunLengthClass::Short,
            candidate: None,
        };
        e.update(RunLengthClass::Medium);
        e.update(RunLengthClass::Short); // agreement clears the candidate
        e.update(RunLengthClass::Medium);
        assert_eq!(e.prediction, RunLengthClass::Short, "candidate was reset");
    }

    #[test]
    fn tag_miss_falls_back_to_short() {
        let mut p = LengthClassPredictor::new(32, 4);
        p.observe(id(1));
        assert_eq!(p.current_prediction(), Some(RunLengthClass::Short));
    }

    #[test]
    fn stable_alternation_is_learned() {
        let mut p = LengthClassPredictor::new(32, 4);
        // phase 1 runs 200 (Long), phase 2 runs 5 (Short).
        let mut last_judgments = Vec::new();
        for rep in 0..10 {
            for _ in 0..200 {
                if let Some(j) = p.observe(id(1)) {
                    if rep > 4 {
                        last_judgments.push(j);
                    }
                }
            }
            for _ in 0..5 {
                if let Some(j) = p.observe(id(2)) {
                    if rep > 4 {
                        last_judgments.push(j);
                    }
                }
            }
        }
        assert!(!last_judgments.is_empty());
        assert!(
            last_judgments.iter().all(|j| j.correct()),
            "trained predictor should be exact: {last_judgments:?}"
        );
    }

    #[test]
    fn counts_track_resolutions() {
        let mut p = LengthClassPredictor::new(32, 4);
        for _ in 0..3 {
            p.observe(id(1));
        }
        p.observe(id(2)); // resolves run of 1 (length 3)
        p.observe(id(1)); // resolves run of 2 (length 1)
        let (_, total) = p.counts();
        assert_eq!(total, 2);
    }

    #[test]
    fn misprediction_rate_empty_is_zero() {
        let p = LengthClassPredictor::new(32, 4);
        assert_eq!(p.misprediction_rate(), 0.0);
    }
}
