//! Classifier configuration.

use crate::extractor::ExtractorKind;

/// How signature bits are chosen when compressing accumulators — the
/// Section 4.2 design axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitSelectionMode {
    /// Recompute the selection each interval from the average counter
    /// value (this paper's method).
    Dynamic,
    /// A fixed low bit position, as in the prior work's statically chosen
    /// bits 14–21 (appropriate only for one interval length / counter
    /// count combination).
    Static {
        /// Lowest copied bit position.
        low_bit: u32,
    },
}

/// Adaptive-threshold (phase splitting) parameters — Section 4.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Relative CPI deviation that triggers a threshold tightening: when an
    /// interval's CPI differs from its phase's running average by more than
    /// this fraction, the phase's similarity threshold is halved and its
    /// CPI statistics cleared. The paper evaluates 50%, 25%, and 12.5%.
    pub deviation_threshold: f64,
}

/// Full configuration of the online phase classifier.
///
/// Construct via [`ClassifierConfig::builder`] or use one of the presets:
///
/// - [`ClassifierConfig::hpca2005`] — the paper's final configuration:
///   16 accumulators, 6 bits/dimension, 32-entry table, 25% similarity,
///   min-count 8, adaptive thresholds at 25% CPI deviation (Section 5).
/// - [`ClassifierConfig::sherwood_baseline`] — the prior work's
///   configuration: 32 accumulators, 12.5% similarity, no transition
///   phase, no adaptive thresholds (Section 4.3).
///
/// # Example
///
/// ```
/// use tpcp_core::ClassifierConfig;
///
/// let cfg = ClassifierConfig::builder()
///     .accumulators(16)
///     .table_entries(Some(64))
///     .similarity_threshold(0.125)
///     .min_count(4)
///     .build();
/// assert_eq!(cfg.accumulators, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifierConfig {
    /// Number of accumulator counters (signature dimensionality). Must be a
    /// power of two.
    pub accumulators: usize,
    /// Bits kept per dimension when compressing signatures (6 in the
    /// paper; fewer than 6 classifies poorly, more than 8 adds nothing).
    pub bits_per_dim: u32,
    /// Signature table capacity; `None` models the infinite table.
    pub table_entries: Option<usize>,
    /// Base similarity threshold (normalized distance bound), e.g. `0.25`.
    pub similarity_threshold: f64,
    /// Min Counter threshold: intervals are classified into the transition
    /// phase until their signature has appeared this many times. `0`
    /// disables the transition phase entirely (prior-work behaviour).
    pub min_count: u8,
    /// Adaptive threshold tightening; `None` keeps thresholds static.
    pub adaptive: Option<AdaptiveConfig>,
    /// Use best-match selection among in-threshold entries (the paper's
    /// improvement); `false` reverts to first-match (prior work).
    pub best_match: bool,
    /// How the bits copied from each accumulator are chosen.
    pub bit_selection: BitSelectionMode,
    /// Which feature back-end fills the signature each interval (the
    /// paper's BBV accumulation by default). `accumulators` is the
    /// signature dimensionality for every back-end. Defaults on
    /// deserialization so configurations saved before this field existed
    /// load as BBV.
    pub extractor: ExtractorKind,
}

impl ClassifierConfig {
    /// The paper's final classifier configuration (start of Section 5):
    /// "6 bits per accumulator, 16 accumulators, 32 signature table
    /// entries, 25% similarity threshold, 8 min counter threshold, and 25%
    /// performance deviation threshold".
    pub fn hpca2005() -> Self {
        Self {
            accumulators: 16,
            bits_per_dim: 6,
            table_entries: Some(32),
            similarity_threshold: 0.25,
            min_count: 8,
            adaptive: Some(AdaptiveConfig {
                deviation_threshold: 0.25,
            }),
            best_match: true,
            bit_selection: BitSelectionMode::Dynamic,
            extractor: ExtractorKind::Bbv,
        }
    }

    /// The prior work's baseline (Section 4.3): 32 accumulators, 32-entry
    /// table, 12.5% similarity threshold, no transition phase, no adaptive
    /// thresholds. (Best-match selection is kept on, as the paper applies
    /// it to all of its results.)
    pub fn sherwood_baseline() -> Self {
        Self {
            accumulators: 32,
            bits_per_dim: 6,
            table_entries: Some(32),
            similarity_threshold: 0.125,
            min_count: 0,
            adaptive: None,
            best_match: true,
            bit_selection: BitSelectionMode::Dynamic,
            extractor: ExtractorKind::Bbv,
        }
    }

    /// Starts a builder initialized to [`ClassifierConfig::hpca2005`].
    pub fn builder() -> ClassifierConfigBuilder {
        ClassifierConfigBuilder {
            config: Self::hpca2005(),
        }
    }

    /// Validates invariants; called by the classifier constructor.
    ///
    /// # Panics
    ///
    /// Panics if `accumulators` is zero or not a power of two,
    /// `bits_per_dim` is outside `1..=16`, the similarity threshold is
    /// outside `(0, 1]`, `table_entries` is `Some(0)`, or the extractor
    /// cannot fill a signature of `accumulators` dimensions:
    ///
    /// - [`ExtractorKind::BranchMix`] needs at least 2 dimensions (each
    ///   hashed bucket holds a taken/not-taken pair);
    /// - [`ExtractorKind::WorkingSet`] rejects a static bit selection
    ///   above bit 0 (its dimensions are a 0/1 bitmap, so higher bits are
    ///   never set and every signature would be all-zero).
    pub fn validate(&self) {
        assert!(
            self.accumulators > 0,
            "accumulator count must be positive (the signature needs at least one dimension)"
        );
        assert!(
            self.accumulators.is_power_of_two(),
            "accumulator count must be a power of two"
        );
        match self.extractor {
            ExtractorKind::Bbv => {}
            ExtractorKind::WorkingSet => {
                if let BitSelectionMode::Static { low_bit } = self.bit_selection {
                    assert!(
                        low_bit == 0,
                        "working-set extractor cannot fill a signature from a static bit \
                         selection above bit 0 (its dimensions are a 0/1 region bitmap)"
                    );
                }
            }
            ExtractorKind::BranchMix => {
                assert!(
                    self.accumulators >= 2,
                    "branch-mix extractor needs at least 2 dimensions (each bucket holds a \
                     taken/not-taken pair)"
                );
            }
        }
        assert!(
            (1..=16).contains(&self.bits_per_dim),
            "bits per dimension must be in 1..=16"
        );
        assert!(
            self.similarity_threshold > 0.0 && self.similarity_threshold <= 1.0,
            "similarity threshold must be in (0, 1]"
        );
        if let Some(c) = self.table_entries {
            assert!(c > 0, "table capacity must be positive");
        }
        if let Some(a) = self.adaptive {
            assert!(
                a.deviation_threshold > 0.0,
                "deviation threshold must be positive"
            );
        }
    }
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self::hpca2005()
    }
}

/// Builder for [`ClassifierConfig`]; see [`ClassifierConfig::builder`].
#[derive(Debug, Clone)]
pub struct ClassifierConfigBuilder {
    config: ClassifierConfig,
}

impl ClassifierConfigBuilder {
    /// Sets the number of accumulator counters.
    pub fn accumulators(mut self, n: usize) -> Self {
        self.config.accumulators = n;
        self
    }

    /// Sets the bits kept per signature dimension.
    pub fn bits_per_dim(mut self, bits: u32) -> Self {
        self.config.bits_per_dim = bits;
        self
    }

    /// Sets the signature table capacity (`None` = unbounded).
    pub fn table_entries(mut self, entries: Option<usize>) -> Self {
        self.config.table_entries = entries;
        self
    }

    /// Sets the base similarity threshold.
    pub fn similarity_threshold(mut self, t: f64) -> Self {
        self.config.similarity_threshold = t;
        self
    }

    /// Sets the Min Counter threshold (0 disables the transition phase).
    pub fn min_count(mut self, c: u8) -> Self {
        self.config.min_count = c;
        self
    }

    /// Enables or disables adaptive threshold tightening.
    pub fn adaptive(mut self, adaptive: Option<AdaptiveConfig>) -> Self {
        self.config.adaptive = adaptive;
        self
    }

    /// Chooses best-match (`true`) or first-match (`false`) selection.
    pub fn best_match(mut self, best: bool) -> Self {
        self.config.best_match = best;
        self
    }

    /// Chooses dynamic (paper) or static (prior work) bit selection.
    pub fn bit_selection(mut self, mode: BitSelectionMode) -> Self {
        self.config.bit_selection = mode;
        self
    }

    /// Chooses the feature back-end that fills the signature each
    /// interval (BBV accumulation, working-set bitmap, or branch mix).
    pub fn extractor(mut self, kind: ExtractorKind) -> Self {
        self.config.extractor = kind;
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ClassifierConfig::validate`]).
    pub fn build(self) -> ClassifierConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        ClassifierConfig::hpca2005().validate();
        ClassifierConfig::sherwood_baseline().validate();
    }

    #[test]
    fn paper_configuration_values() {
        let c = ClassifierConfig::hpca2005();
        assert_eq!(c.accumulators, 16);
        assert_eq!(c.bits_per_dim, 6);
        assert_eq!(c.table_entries, Some(32));
        assert_eq!(c.similarity_threshold, 0.25);
        assert_eq!(c.min_count, 8);
        assert_eq!(
            c.adaptive,
            Some(AdaptiveConfig {
                deviation_threshold: 0.25
            })
        );
    }

    #[test]
    fn builder_overrides_fields() {
        let c = ClassifierConfig::builder()
            .accumulators(64)
            .bits_per_dim(8)
            .table_entries(None)
            .similarity_threshold(0.5)
            .min_count(0)
            .adaptive(None)
            .best_match(false)
            .build();
        assert_eq!(c.accumulators, 64);
        assert_eq!(c.bits_per_dim, 8);
        assert_eq!(c.table_entries, None);
        assert!(!c.best_match);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn builder_validates() {
        ClassifierConfig::builder().accumulators(10).build();
    }

    #[test]
    fn presets_default_to_bbv_extraction() {
        assert_eq!(ClassifierConfig::hpca2005().extractor, ExtractorKind::Bbv);
        assert_eq!(
            ClassifierConfig::sherwood_baseline().extractor,
            ExtractorKind::Bbv
        );
    }

    #[test]
    fn every_extractor_kind_validates_at_paper_dimensions() {
        for kind in ExtractorKind::ALL {
            ClassifierConfig::builder()
                .extractor(kind)
                .build()
                .validate();
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dimensions_rejected() {
        ClassifierConfig::builder().accumulators(0).build();
    }

    #[test]
    #[should_panic(expected = "at least 2 dimensions")]
    fn branch_mix_rejects_one_dimension() {
        ClassifierConfig::builder()
            .extractor(ExtractorKind::BranchMix)
            .accumulators(1)
            .build();
    }

    #[test]
    #[should_panic(expected = "0/1 region bitmap")]
    fn working_set_rejects_static_selection_above_bit_zero() {
        ClassifierConfig::builder()
            .extractor(ExtractorKind::WorkingSet)
            .bit_selection(BitSelectionMode::Static { low_bit: 14 })
            .build();
    }

    #[test]
    fn working_set_accepts_static_selection_at_bit_zero() {
        let c = ClassifierConfig::builder()
            .extractor(ExtractorKind::WorkingSet)
            .bit_selection(BitSelectionMode::Static { low_bit: 0 })
            .build();
        assert_eq!(c.extractor, ExtractorKind::WorkingSet);
    }

    #[test]
    fn bbv_with_one_dimension_is_legal() {
        // Degenerate but fillable: one accumulator, one dimension.
        let c = ClassifierConfig::builder().accumulators(1).build();
        assert_eq!(c.accumulators, 1);
    }
}
