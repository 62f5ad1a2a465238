//! Saturating confidence counters (Section 5.1).

/// An N-bit saturating confidence counter.
///
/// Incremented on correct predictions, decremented on incorrect ones; a
/// prediction is trusted only while the counter is at or above its
/// threshold. The paper uses a 3-bit counter with threshold 6 for
/// last-value prediction and a 1-bit counter (threshold 1) for phase-change
/// table entries, incrementing and decrementing by 1 in both cases.
///
/// # Example
///
/// ```
/// use tpcp_predict::ConfidenceCounter;
///
/// let mut c = ConfidenceCounter::last_value_default(); // 3-bit, threshold 6
/// assert!(!c.is_confident());
/// for _ in 0..6 { c.correct(); }
/// assert!(c.is_confident());
/// c.incorrect();
/// assert!(!c.is_confident()); // 6 - 1 = 5 < 6
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfidenceCounter {
    value: u8,
    max: u8,
    threshold: u8,
}

impl ConfidenceCounter {
    /// Creates a counter with `bits` bits and the given confidence
    /// threshold, starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7, or if the threshold exceeds
    /// the counter's maximum value.
    pub fn new(bits: u32, threshold: u8) -> Self {
        assert!((1..=7).contains(&bits), "bits must be in 1..=7");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(threshold <= max, "threshold {threshold} exceeds max {max}");
        Self {
            value: 0,
            max,
            threshold,
        }
    }

    /// The paper's last-value configuration: 3 bits, threshold 6
    /// ("1 less than fully saturated").
    pub fn last_value_default() -> Self {
        Self::new(3, 6)
    }

    /// The paper's phase-change-table configuration: a 1-bit counter.
    pub fn change_table_default() -> Self {
        Self::new(1, 1)
    }

    /// Whether predictions should currently be trusted.
    #[inline]
    pub fn is_confident(&self) -> bool {
        self.value >= self.threshold
    }

    /// Records a correct prediction (increment by 1, saturating).
    #[inline]
    pub fn correct(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }

    /// Records an incorrect prediction (decrement by 1, saturating).
    #[inline]
    pub fn incorrect(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Resets to zero (used when the associated entry is replaced).
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Current raw value (for tests and introspection).
    pub fn value(&self) -> u8 {
        self.value
    }

    /// The saturation ceiling, `2^bits - 1`.
    pub fn max(&self) -> u8 {
        self.max
    }

    /// The confidence threshold the counter must reach to be trusted.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_max() {
        let mut c = ConfidenceCounter::new(2, 2);
        for _ in 0..10 {
            c.correct();
        }
        assert_eq!(c.value(), 3);
        for _ in 0..10 {
            c.incorrect();
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn one_bit_counter_flips_immediately() {
        let mut c = ConfidenceCounter::change_table_default();
        assert!(!c.is_confident());
        c.correct();
        assert!(c.is_confident());
        c.incorrect();
        assert!(!c.is_confident());
    }

    #[test]
    fn three_bit_needs_six_corrects() {
        let mut c = ConfidenceCounter::last_value_default();
        for i in 0..6 {
            assert!(!c.is_confident(), "not confident after {i}");
            c.correct();
        }
        assert!(c.is_confident());
    }

    #[test]
    fn reset_clears_state() {
        let mut c = ConfidenceCounter::last_value_default();
        for _ in 0..7 {
            c.correct();
        }
        c.reset();
        assert!(!c.is_confident());
        assert_eq!(c.value(), 0);
    }

    /// Boundary behaviour at the floor (0) and ceiling (2^n - 1) for every
    /// legal width: an incorrect at 0 stays at 0, a correct at max stays at
    /// max, and one step off either rail lands exactly one away.
    #[test]
    fn floor_and_ceiling_are_sticky_for_every_width() {
        for bits in 1..=7u32 {
            let max = (1u16 << bits) as u8 - 1;
            let mut c = ConfidenceCounter::new(bits, max);
            assert_eq!(c.max(), max, "{bits}-bit ceiling");
            assert_eq!(c.value(), 0, "{bits}-bit counters start at the floor");
            c.incorrect();
            assert_eq!(c.value(), 0, "{bits}-bit floor must not underflow");
            for _ in 0..=u16::from(max) {
                c.correct();
            }
            assert_eq!(c.value(), max, "{bits}-bit ceiling must not overflow");
            c.incorrect();
            assert_eq!(c.value(), max - 1, "one incorrect steps off the rail");
            c.correct();
            assert_eq!(c.value(), max, "one correct re-saturates");
        }
    }

    /// Pins the paper's Section 5.1 configuration: last-value prediction
    /// uses a 3-bit counter (max 7) with threshold 6, "1 less than fully
    /// saturated".
    #[test]
    fn paper_last_value_config_is_three_bit_threshold_six() {
        let c = ConfidenceCounter::last_value_default();
        assert_eq!(c.max(), 7);
        assert_eq!(c.threshold(), 6);
        assert_eq!(c.max() - c.threshold(), 1, "1 less than fully saturated");
        let change = ConfidenceCounter::change_table_default();
        assert_eq!((change.max(), change.threshold()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn zero_bits_rejected() {
        ConfidenceCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn overlarge_threshold_rejected() {
        ConfidenceCounter::new(2, 4);
    }
}
