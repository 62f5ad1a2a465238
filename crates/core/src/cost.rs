//! Hardware storage cost of a classifier configuration.
//!
//! The architecture is meant to be "simple, easily implementable (in
//! hardware or software)"; this module makes a configuration's storage
//! budget explicit so design points can be compared on cost as well as
//! quality (e.g. Figure 2's table-size sweep doubles table bits per step).

use crate::config::ClassifierConfig;

/// Storage bits implied by a classifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareCost {
    /// Accumulator table bits (N counters × 24 bits).
    pub accumulator_bits: u64,
    /// Signature table bits: per entry, the compressed signature plus the
    /// phase ID (8 bits), Min Counter (8), LRU stamp (8), and — when
    /// adaptive thresholds are enabled — the per-entry threshold (8) and
    /// running CPI statistics (24).
    pub signature_table_bits: u64,
}

impl HardwareCost {
    /// Computes the cost of a configuration. Unbounded tables are costed
    /// at the paper's 32 entries (an unbounded table is a software
    /// construct used only as an experimental baseline).
    pub fn of(config: &ClassifierConfig) -> Self {
        let accumulator_bits = config.accumulators as u64 * 24;
        let entries = config.table_entries.unwrap_or(32) as u64;
        let signature_bits = config.accumulators as u64 * u64::from(config.bits_per_dim);
        let mut per_entry = signature_bits + 8 + 8 + 8;
        if config.adaptive.is_some() {
            per_entry += 8 + 24;
        }
        Self {
            accumulator_bits,
            signature_table_bits: entries * per_entry,
        }
    }

    /// Total storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.accumulator_bits + self.signature_table_bits
    }

    /// Total storage in bytes (rounded up).
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }
}

impl core::fmt::Display for HardwareCost {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} B (accumulators {} b, signature table {} b)",
            self.total_bytes(),
            self.accumulator_bits,
            self.signature_table_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_a_few_hundred_bytes() {
        let cost = HardwareCost::of(&ClassifierConfig::hpca2005());
        // 16×24 = 384 accumulator bits; 32 entries × (96 sig + 24 book +
        // 32 adaptive) = 4864 bits → well under 1KB total.
        assert_eq!(cost.accumulator_bits, 384);
        assert!(cost.total_bytes() < 1024, "{}", cost.total_bytes());
    }

    #[test]
    fn bigger_tables_cost_linearly() {
        let small = HardwareCost::of(&ClassifierConfig::builder().table_entries(Some(16)).build());
        let large = HardwareCost::of(&ClassifierConfig::builder().table_entries(Some(64)).build());
        assert_eq!(large.signature_table_bits, 4 * small.signature_table_bits);
        assert_eq!(large.accumulator_bits, small.accumulator_bits);
    }

    #[test]
    fn adaptive_adds_per_entry_state() {
        let with = HardwareCost::of(&ClassifierConfig::hpca2005());
        let without = HardwareCost::of(&ClassifierConfig::builder().adaptive(None).build());
        assert!(with.signature_table_bits > without.signature_table_bits);
    }

    #[test]
    fn display_mentions_bytes() {
        let text = HardwareCost::of(&ClassifierConfig::hpca2005()).to_string();
        assert!(text.contains("B ("));
    }
}
