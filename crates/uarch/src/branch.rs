//! Branch predictors: two-bit counters, bimodal, gshare, and the Table 1
//! hybrid (McFarling-style chooser).

/// A saturating two-bit counter, the basic element of all predictors here.
///
/// States 0–1 predict not-taken, 2–3 predict taken.
///
/// # Example
///
/// ```
/// use tpcp_uarch::TwoBitCounter;
///
/// let mut c = TwoBitCounter::weakly_not_taken();
/// assert!(!c.predict_taken());
/// c.update(true);
/// c.update(true);
/// assert!(c.predict_taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoBitCounter(u8);

impl TwoBitCounter {
    /// State 1: predicts not-taken, one taken away from flipping.
    pub const fn weakly_not_taken() -> Self {
        Self(1)
    }

    /// State 2: predicts taken, one not-taken away from flipping.
    pub const fn weakly_taken() -> Self {
        Self(2)
    }

    /// Current prediction.
    #[inline]
    pub fn predict_taken(&self) -> bool {
        self.0 >= 2
    }

    /// Trains the counter with the branch's actual direction.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }

    /// Raw state in `0..=3` (for tests and introspection).
    pub fn state(&self) -> u8 {
        self.0
    }
}

impl Default for TwoBitCounter {
    fn default() -> Self {
        Self::weakly_not_taken()
    }
}

/// A PC-indexed table of two-bit counters.
///
/// This is the "8k bimodal predictor" of Table 1 when sized at 8192 entries.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: Vec<TwoBitCounter>,
    mask: u64,
}

impl BimodalPredictor {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![TwoBitCounter::default(); entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        // Drop the low 2 bits (instruction alignment) before indexing.
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict_taken()
    }

    /// Trains the entry for `pc` with the actual direction.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
    }
}

/// A gshare predictor: global history XOR PC indexes a counter table.
///
/// Table 1 specifies an 8-bit history with 2K two-bit counters.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<TwoBitCounter>,
    mask: u64,
    history: u64,
    history_mask: u64,
}

impl GsharePredictor {
    /// Creates a gshare predictor with `entries` counters and
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits > 32`.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(history_bits <= 32, "history too long");
        Self {
            table: vec![TwoBitCounter::default(); entries],
            mask: entries as u64 - 1,
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc` under current history.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict_taken()
    }

    /// Trains the indexed entry and shifts the outcome into the history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }
}

/// The Table 1 hybrid predictor: gshare + bimodal with a chooser.
///
/// The chooser is a PC-indexed table of two-bit counters trained toward
/// whichever component was correct when they disagree (McFarling's
/// combining predictor). Statistics are accumulated so the timing model can
/// charge misprediction penalties.
///
/// # Example
///
/// ```
/// use tpcp_uarch::HybridPredictor;
///
/// let mut bp = HybridPredictor::hpca2005();
/// // A strongly biased branch becomes predictable quickly.
/// for _ in 0..64 {
///     bp.observe(0x400_100, true);
/// }
/// let (correct, total) = bp.accuracy_counts();
/// assert!(total == 64 && correct >= 60);
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    gshare: GsharePredictor,
    bimodal: BimodalPredictor,
    chooser: Vec<TwoBitCounter>,
    chooser_mask: u64,
    correct: u64,
    total: u64,
}

impl HybridPredictor {
    /// Builds the predictor with explicit component sizes.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two.
    pub fn new(
        gshare_entries: usize,
        history_bits: u32,
        bimodal_entries: usize,
        chooser_entries: usize,
    ) -> Self {
        assert!(
            chooser_entries.is_power_of_two(),
            "chooser entries must be a power of two"
        );
        Self {
            gshare: GsharePredictor::new(gshare_entries, history_bits),
            bimodal: BimodalPredictor::new(bimodal_entries),
            chooser: vec![TwoBitCounter::weakly_taken(); chooser_entries],
            chooser_mask: chooser_entries as u64 - 1,
            correct: 0,
            total: 0,
        }
    }

    /// The paper's Table 1 configuration: 8-bit gshare with 2K two-bit
    /// counters, an 8K bimodal predictor, and an 8K chooser.
    pub fn hpca2005() -> Self {
        Self::new(2048, 8, 8192, 8192)
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.chooser_mask) as usize
    }

    /// Predicts the direction for the branch at `pc` without training.
    pub fn predict(&self, pc: u64) -> bool {
        let use_gshare = self.chooser[self.chooser_index(pc)].predict_taken();
        if use_gshare {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Predicts, trains all components with the actual outcome, and returns
    /// whether the prediction was correct.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let g = self.gshare.predict(pc);
        let b = self.bimodal.predict(pc);
        let ci = self.chooser_index(pc);
        let use_gshare = self.chooser[ci].predict_taken();
        let prediction = if use_gshare { g } else { b };

        // Train the chooser only when the components disagree.
        if g != b {
            self.chooser[ci].update(g == taken);
        }
        self.gshare.update(pc, taken);
        self.bimodal.update(pc, taken);

        let correct = prediction == taken;
        self.total += 1;
        if correct {
            self.correct += 1;
        }
        correct
    }

    /// `(correct, total)` observation counts since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn accuracy_counts(&self) -> (u64, u64) {
        (self.correct, self.total)
    }

    /// Misprediction rate over observed branches; `0.0` before any.
    pub fn misprediction_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.total - self.correct) as f64 / self.total as f64
        }
    }

    /// Clears accuracy counters (predictor state is retained).
    pub fn reset_stats(&mut self) {
        self.correct = 0;
        self.total = 0;
    }
}

impl Default for HybridPredictor {
    fn default() -> Self {
        Self::hpca2005()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_counter_saturates() {
        let mut c = TwoBitCounter::weakly_not_taken();
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.state(), 3);
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c.state(), 0);
    }

    #[test]
    fn two_bit_counter_hysteresis() {
        let mut c = TwoBitCounter::weakly_not_taken();
        c.update(true);
        c.update(true); // state 3
        c.update(false); // state 2: still predicts taken
        assert!(c.predict_taken());
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = BimodalPredictor::new(64);
        for _ in 0..4 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
        // 0x104 indexes the adjacent, untrained entry.
        assert!(!p.predict(0x104), "untrained entries default not-taken");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bimodal_size_validated() {
        BimodalPredictor::new(100);
    }

    #[test]
    fn gshare_distinguishes_by_history() {
        // A branch alternating T/NT is mispredicted by bimodal but learnable
        // by gshare once history separates the two contexts.
        let mut g = GsharePredictor::new(1024, 8);
        let pc = 0x400;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let pred = g.predict(pc);
            if i >= 100 {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            g.update(pc, taken);
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "gshare should learn alternation: {correct}/{total}"
        );
    }

    #[test]
    fn hybrid_beats_components_on_mixed_workload() {
        // Branch A: biased taken. Branch B: alternating. The hybrid should
        // achieve high accuracy on both by choosing per-PC.
        let mut h = HybridPredictor::hpca2005();
        for i in 0..2000 {
            h.observe(0x1000, true);
            h.observe(0x2000, i % 2 == 0);
        }
        h.reset_stats();
        for i in 0..1000 {
            h.observe(0x1000, true);
            h.observe(0x2000, i % 2 == 0);
        }
        let (correct, total) = h.accuracy_counts();
        assert!(
            correct as f64 / total as f64 > 0.93,
            "hybrid accuracy {correct}/{total}"
        );
    }

    #[test]
    fn random_branch_is_hard() {
        // A pseudo-random direction stream should hover near 50% accuracy.
        let mut h = HybridPredictor::hpca2005();
        let mut x = 0x12345678u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.observe(0x3000, (x >> 63) & 1 == 1);
        }
        let rate = h.misprediction_rate();
        assert!(rate > 0.35 && rate < 0.65, "misprediction rate {rate}");
    }

    #[test]
    fn misprediction_rate_empty_is_zero() {
        let h = HybridPredictor::hpca2005();
        assert_eq!(h.misprediction_rate(), 0.0);
    }

    #[test]
    fn reset_stats_clears_counts() {
        let mut h = HybridPredictor::hpca2005();
        h.observe(0x10, true);
        h.reset_stats();
        assert_eq!(h.accuracy_counts(), (0, 0));
    }
}
