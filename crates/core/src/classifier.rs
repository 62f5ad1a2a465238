//! The online phase classifier: ties the accumulator, signatures, and the
//! signature table together with the paper's transition-phase and
//! adaptive-threshold logic.

use tpcp_trace::BranchEvent;

use crate::config::{BitSelectionMode, ClassifierConfig};
use crate::extractor::{AnyExtractor, ExtractorKind, FeatureExtractor};
use crate::phase_id::PhaseId;
use crate::signature::Signature;
use crate::snapshot::{self, SnapReader, SnapshotError, SNAPSHOT_MAGIC};
use crate::table::{MatchOutcome, SignatureTable};

/// Detailed result of classifying one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The phase the interval was classified into.
    pub phase_id: PhaseId,
    /// Normalized distance to the matched signature, or `None` when the
    /// signature was new (inserted).
    pub distance: Option<f64>,
    /// Whether the signature missed the table and was inserted.
    pub new_signature: bool,
    /// Whether the matched entry crossed the Min Counter threshold on this
    /// interval and was promoted to a real phase ID.
    pub promoted: bool,
    /// Whether adaptive feedback halved the matched phase's similarity
    /// threshold on this interval.
    pub threshold_tightened: bool,
}

/// The complete online phase classification architecture.
///
/// Feed it every committed branch with [`observe`](Self::observe); at each
/// interval boundary call [`end_interval`](Self::end_interval) with the
/// interval's CPI (the adaptive feedback metric) to receive the interval's
/// [`PhaseId`].
///
/// # Example
///
/// ```
/// use tpcp_core::{ClassifierConfig, PhaseClassifier, PhaseId};
/// use tpcp_trace::BranchEvent;
///
/// // Disable the transition phase to mimic the prior work's classifier.
/// let cfg = ClassifierConfig::builder().min_count(0).adaptive(None).build();
/// let mut c = PhaseClassifier::new(cfg);
/// c.observe(BranchEvent::new(0x1000, 500));
/// let id = c.end_interval(1.2);
/// assert!(!id.is_transition(), "min_count 0 assigns real IDs immediately");
/// assert_eq!(c.phases_created(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseClassifier {
    config: ClassifierConfig,
    extractor: AnyExtractor,
    table: SignatureTable,
    next_phase_id: u32,
    intervals_seen: u64,
    transition_intervals: u64,
    /// Recycled dimension buffer: each interval's signature is projected
    /// into this storage, and when the signature matches a table entry the
    /// displaced entry's buffer comes back here. Steady-state
    /// classification therefore allocates only when a *new* signature is
    /// inserted. Scratch state, excluded from snapshots.
    scratch: Vec<u16>,
}

impl PhaseClassifier {
    /// Builds a classifier from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ClassifierConfig::validate`]).
    pub fn new(config: ClassifierConfig) -> Self {
        config.validate();
        Self {
            config,
            extractor: config.extractor.build(config.accumulators),
            table: SignatureTable::new(config.table_entries, config.similarity_threshold),
            next_phase_id: 1,
            intervals_seen: 0,
            transition_intervals: 0,
            scratch: Vec::with_capacity(config.accumulators),
        }
    }

    /// The classifier's configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Records one committed branch of the current interval.
    ///
    /// This is the per-branch fast path of the architecture (for the
    /// default BBV back-end, a hash and a saturating add, pipelined in
    /// hardware); it forwards to the configured
    /// [`FeatureExtractor`](crate::FeatureExtractor).
    #[inline]
    pub fn observe(&mut self, ev: BranchEvent) {
        self.extractor.observe(ev);
    }

    /// Ends the current interval and classifies it, returning its phase ID.
    ///
    /// `cpi` is the interval's measured cycles-per-instruction; it is used
    /// *only* for the adaptive threshold feedback (classification itself is
    /// purely code-signature based, so phase IDs remain stable across
    /// hardware reconfigurations).
    pub fn end_interval(&mut self, cpi: f64) -> PhaseId {
        self.end_interval_detailed(cpi).phase_id
    }

    /// [`end_interval`](Self::end_interval) with full diagnostics.
    pub fn end_interval_detailed(&mut self, cpi: f64) -> Classification {
        let buf = std::mem::take(&mut self.scratch);
        let sig = self.extractor.finalize_into(&self.config, buf);
        self.extractor.reset();
        self.classify_signature(sig, cpi)
    }

    /// Ends the current interval against an *externally owned* feature
    /// extractor, returning the interval's phase ID.
    ///
    /// This is the shared-accumulation entry point: many classifier
    /// configurations that agree on the extractor shape (kind and
    /// dimension count) can ride one per-branch observation pass — an
    /// extractor's state depends only on the event stream and its shape —
    /// and each classifier reads the finished state at the interval
    /// boundary. The caller owns the extractor's lifecycle — this method
    /// does **not** reset it, so it can be handed to the next classifier;
    /// the classifier's own internal extractor is untouched.
    ///
    /// Generic over [`FeatureExtractor`], so it accepts the crate's
    /// [`AnyExtractor`], a plain
    /// [`AccumulatorTable`](crate::AccumulatorTable) (the pre-trait
    /// call shape, still bit-identical), or a downstream implementation.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match the configured extractor kind,
    /// or does not have exactly the configured number of dimensions (the
    /// signature would not match the table's stored signatures).
    pub fn end_interval_from<E>(&mut self, features: &E, cpi: f64) -> PhaseId
    where
        E: FeatureExtractor + ?Sized,
    {
        self.end_interval_from_detailed(features, cpi).phase_id
    }

    /// [`end_interval_from`](Self::end_interval_from) with full
    /// diagnostics.
    pub fn end_interval_from_detailed<E>(&mut self, features: &E, cpi: f64) -> Classification
    where
        E: FeatureExtractor + ?Sized,
    {
        assert_eq!(
            features.kind(),
            self.config.extractor,
            "shared extractor kind must match the classifier's configuration"
        );
        assert_eq!(
            features.dims(),
            self.config.accumulators,
            "shared accumulator count must match the classifier's configuration"
        );
        let buf = std::mem::take(&mut self.scratch);
        let sig = features.finalize_into(&self.config, buf);
        self.classify_signature(sig, cpi)
    }

    /// Classifies one finished interval signature: table search, transition
    /// phase promotion, and adaptive threshold feedback. Shared by the
    /// owned-accumulator and shared-accumulator interval boundaries.
    fn classify_signature(&mut self, sig: Signature, cpi: f64) -> Classification {
        self.intervals_seen += 1;

        let outcome = if self.config.best_match {
            self.table.find_best_match(&sig)
        } else {
            self.table.find_first_match(&sig)
        };

        let classification = match outcome {
            MatchOutcome::Matched { index, distance } => {
                self.scratch = self.table.touch(index, sig).into_dims();
                let min_count = self.config.min_count;
                let adaptive = self.config.adaptive;
                let mut promoted = false;
                let mut tightened = false;

                let next_id = &mut self.next_phase_id;
                let entry = self.table.entry_mut(index);
                entry.min_counter = entry.min_counter.saturating_add(1);

                // Promotion out of the transition phase (Section 4.4): the
                // entry earns a real phase ID once its signature has
                // appeared more than `min_count` times.
                if entry.phase_id.is_none() && u32::from(entry.min_counter) > u32::from(min_count) {
                    entry.phase_id = Some(PhaseId::new(*next_id));
                    *next_id += 1;
                    promoted = true;
                }

                let phase_id = entry.phase_id.unwrap_or(PhaseId::TRANSITION);

                // Adaptive feedback (Section 4.6): only stable phases track
                // CPI; a large deviation halves the threshold and clears
                // the statistics.
                if let (Some(adaptive), Some(_)) = (adaptive, entry.phase_id) {
                    if entry.cpi_samples > 0 {
                        let mean = entry.cpi_mean;
                        if mean > 0.0 && ((cpi - mean).abs() / mean) > adaptive.deviation_threshold
                        {
                            entry.threshold /= 2.0;
                            entry.clear_cpi();
                            tightened = true;
                        }
                    }
                    entry.record_cpi(cpi);
                }

                Classification {
                    phase_id,
                    distance: Some(distance),
                    new_signature: false,
                    promoted,
                    threshold_tightened: tightened,
                }
            }
            MatchOutcome::NoMatch => {
                let index = self.table.insert(sig);
                let entry = self.table.entry_mut(index);
                // With the transition phase disabled (min_count 0), new
                // signatures receive a real phase ID immediately, as in the
                // prior work.
                let phase_id = if self.config.min_count == 0 {
                    let id = PhaseId::new(self.next_phase_id);
                    self.next_phase_id += 1;
                    entry.phase_id = Some(id);
                    if self.config.adaptive.is_some() {
                        entry.record_cpi(cpi);
                    }
                    id
                } else {
                    PhaseId::TRANSITION
                };
                Classification {
                    phase_id,
                    distance: None,
                    new_signature: true,
                    promoted: self.config.min_count == 0,
                    threshold_tightened: false,
                }
            }
        };

        if classification.phase_id.is_transition() {
            self.transition_intervals += 1;
        }
        classification
    }

    /// Convenience: classify a whole interval from an event iterator.
    pub fn classify_interval<I>(&mut self, events: I, cpi: f64) -> PhaseId
    where
        I: IntoIterator<Item = BranchEvent>,
    {
        for ev in events {
            self.observe(ev);
        }
        self.end_interval(cpi)
    }

    /// Number of *real* (stable) phase IDs created so far. This is the
    /// "number of phases detected" metric of Figures 2–4.
    pub fn phases_created(&self) -> u64 {
        u64::from(self.next_phase_id) - 1
    }

    /// Total intervals classified.
    pub fn intervals_seen(&self) -> u64 {
        self.intervals_seen
    }

    /// Intervals classified into the transition phase.
    pub fn transition_intervals(&self) -> u64 {
        self.transition_intervals
    }

    /// Fraction of intervals classified into the transition phase
    /// (the "transition time" metric of Figure 4).
    pub fn transition_fraction(&self) -> f64 {
        if self.intervals_seen == 0 {
            0.0
        } else {
            self.transition_intervals as f64 / self.intervals_seen as f64
        }
    }

    /// Read access to the signature table (for experiments and tests).
    pub fn table(&self) -> &SignatureTable {
        &self.table
    }

    /// Serializes the complete classifier state into a versioned binary
    /// snapshot (magic `TPCPSNP2`).
    ///
    /// A classifier rebuilt with [`from_snapshot`](Self::from_snapshot)
    /// continues bit-identically: same phase IDs, same LRU order, same
    /// adaptive-threshold decisions. The scratch dimension buffer is the
    /// only state excluded — it never affects outcomes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        write_config(&mut out, &self.config);
        self.extractor.snap_write(&mut out);
        self.table.snap_write(&mut out);
        snapshot::put_varint(&mut out, u64::from(self.next_phase_id));
        snapshot::put_varint(&mut out, self.intervals_seen);
        snapshot::put_varint(&mut out, self.transition_intervals);
        out
    }

    /// Rebuilds a classifier from a [`snapshot`](Self::snapshot).
    ///
    /// Never panics on malformed input: every invariant the constructors
    /// assert is re-checked and reported as a [`SnapshotError`], and
    /// declared counts are bounded against the input size before
    /// allocation — the entry point is safe to feed bytes that crossed a
    /// network or a disk.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let Some(body) = bytes.strip_prefix(SNAPSHOT_MAGIC.as_slice()) else {
            return Err(SnapshotError::BadMagic);
        };
        let mut r = SnapReader::new(body);
        let config = read_config(&mut r)?;
        let extractor = AnyExtractor::snap_read(&mut r)?;
        if extractor.kind() != config.extractor || extractor.dims() != config.accumulators {
            return Err(SnapshotError::Malformed(
                "extractor state does not match the configuration",
            ));
        }
        let table = SignatureTable::snap_read(&mut r)?;
        let next_phase_id = u32::try_from(r.varint()?)
            .map_err(|_| SnapshotError::Malformed("phase ID counter exceeds 32 bits"))?;
        if next_phase_id == 0 {
            return Err(SnapshotError::Malformed("phase ID counter must start at 1"));
        }
        let intervals_seen = r.varint()?;
        let transition_intervals = r.varint()?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(Self {
            config,
            extractor,
            table,
            next_phase_id,
            intervals_seen,
            transition_intervals,
            scratch: Vec::with_capacity(config.accumulators),
        })
    }
}

/// Appends a classifier configuration to a snapshot.
fn write_config(out: &mut Vec<u8>, config: &ClassifierConfig) {
    snapshot::put_varint(out, config.accumulators as u64);
    snapshot::put_varint(out, u64::from(config.bits_per_dim));
    match config.table_entries {
        Some(c) => {
            out.push(1);
            snapshot::put_varint(out, c as u64);
        }
        None => out.push(0),
    }
    snapshot::put_f64(out, config.similarity_threshold);
    out.push(config.min_count);
    match config.adaptive {
        Some(a) => {
            out.push(1);
            snapshot::put_f64(out, a.deviation_threshold);
        }
        None => out.push(0),
    }
    out.push(u8::from(config.best_match));
    match config.bit_selection {
        BitSelectionMode::Dynamic => out.push(0),
        BitSelectionMode::Static { low_bit } => {
            out.push(1);
            snapshot::put_varint(out, u64::from(low_bit));
        }
    }
    out.push(match config.extractor {
        ExtractorKind::Bbv => 0,
        ExtractorKind::WorkingSet => 1,
        ExtractorKind::BranchMix => 2,
    });
}

/// Restores a classifier configuration, re-applying every rule
/// [`ClassifierConfig::validate`] asserts — as errors, not panics, since
/// snapshot bytes may come from an untrusted peer.
fn read_config(r: &mut SnapReader<'_>) -> Result<ClassifierConfig, SnapshotError> {
    let accumulators = r.varint()? as usize;
    let bits_per_dim = u32::try_from(r.varint()?)
        .map_err(|_| SnapshotError::Malformed("bits per dimension out of range"))?;
    let table_entries = match r.u8()? {
        0 => None,
        _ => Some(r.varint()? as usize),
    };
    let similarity_threshold = r.f64()?;
    let min_count = r.u8()?;
    let adaptive = match r.u8()? {
        0 => None,
        _ => Some(crate::config::AdaptiveConfig {
            deviation_threshold: r.f64()?,
        }),
    };
    let best_match = r.u8()? != 0;
    let bit_selection = match r.u8()? {
        0 => BitSelectionMode::Dynamic,
        1 => BitSelectionMode::Static {
            low_bit: u32::try_from(r.varint()?)
                .map_err(|_| SnapshotError::Malformed("static low bit out of range"))?,
        },
        _ => return Err(SnapshotError::Malformed("unknown bit selection tag")),
    };
    let extractor = match r.u8()? {
        0 => ExtractorKind::Bbv,
        1 => ExtractorKind::WorkingSet,
        2 => ExtractorKind::BranchMix,
        _ => return Err(SnapshotError::Malformed("unknown extractor kind tag")),
    };
    let config = ClassifierConfig {
        accumulators,
        bits_per_dim,
        table_entries,
        similarity_threshold,
        min_count,
        adaptive,
        best_match,
        bit_selection,
        extractor,
    };

    // The same rules `validate()` panics on, as decode errors.
    if accumulators == 0 || !accumulators.is_power_of_two() {
        return Err(SnapshotError::Malformed(
            "accumulator count must be a power of two",
        ));
    }
    match extractor {
        ExtractorKind::Bbv => {}
        ExtractorKind::WorkingSet => {
            if let BitSelectionMode::Static { low_bit } = bit_selection {
                if low_bit != 0 {
                    return Err(SnapshotError::Malformed(
                        "working-set extractor needs a static selection at bit 0",
                    ));
                }
            }
        }
        ExtractorKind::BranchMix => {
            if accumulators < 2 {
                return Err(SnapshotError::Malformed(
                    "branch-mix extractor needs at least 2 dimensions",
                ));
            }
        }
    }
    if !(1..=16).contains(&bits_per_dim) {
        return Err(SnapshotError::Malformed(
            "bits per dimension must be in 1..=16",
        ));
    }
    let threshold_ok = similarity_threshold > 0.0 && similarity_threshold <= 1.0;
    if !threshold_ok {
        return Err(SnapshotError::Malformed(
            "similarity threshold must be in (0, 1]",
        ));
    }
    if table_entries == Some(0) {
        return Err(SnapshotError::Malformed("table capacity must be positive"));
    }
    if let Some(a) = adaptive {
        let deviation_ok = a.deviation_threshold > 0.0;
        if !deviation_ok {
            return Err(SnapshotError::Malformed(
                "deviation threshold must be positive",
            ));
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::AccumulatorTable;

    /// An interval that executes blocks from a PC bank deterministically.
    fn run_interval(c: &mut PhaseClassifier, base_pc: u64, cpi: f64) -> PhaseId {
        for i in 0..200u64 {
            c.observe(BranchEvent::new(base_pc + (i % 8) * 0x40, 50));
        }
        c.end_interval(cpi)
    }

    fn paper_classifier() -> PhaseClassifier {
        PhaseClassifier::new(ClassifierConfig::hpca2005())
    }

    #[test]
    fn first_occurrences_are_transition() {
        let mut c = paper_classifier();
        // min_count 8: the first 8 appearances stay in transition.
        for i in 0..8 {
            let id = run_interval(&mut c, 0x1000, 1.0);
            assert!(id.is_transition(), "appearance {i} should be transition");
        }
        let id = run_interval(&mut c, 0x1000, 1.0);
        assert!(!id.is_transition(), "9th appearance is stable");
        assert_eq!(c.phases_created(), 1);
    }

    #[test]
    fn min_count_zero_assigns_ids_immediately() {
        let cfg = ClassifierConfig::builder().min_count(0).build();
        let mut c = PhaseClassifier::new(cfg);
        assert!(!run_interval(&mut c, 0x1000, 1.0).is_transition());
        assert_eq!(c.transition_intervals(), 0);
    }

    #[test]
    fn recurring_phase_keeps_its_id() {
        let mut c = paper_classifier();
        let mut ids = Vec::new();
        for _ in 0..20 {
            ids.push(run_interval(&mut c, 0x1000, 1.0));
        }
        let stable: Vec<_> = ids.iter().filter(|id| !id.is_transition()).collect();
        assert!(!stable.is_empty());
        assert!(stable.windows(2).all(|w| w[0] == w[1]), "one stable ID");
    }

    #[test]
    fn different_code_different_phase() {
        let mut c = paper_classifier();
        for _ in 0..12 {
            run_interval(&mut c, 0x1000, 1.0);
        }
        for _ in 0..12 {
            run_interval(&mut c, 0x90_0000, 3.0);
        }
        assert_eq!(c.phases_created(), 2);
        let a = run_interval(&mut c, 0x1000, 1.0);
        let b = run_interval(&mut c, 0x90_0000, 3.0);
        assert_ne!(a, b);
    }

    #[test]
    fn alternating_phases_both_promoted() {
        let mut c = paper_classifier();
        for _ in 0..10 {
            run_interval(&mut c, 0x1000, 1.0);
            run_interval(&mut c, 0x90_0000, 3.0);
        }
        assert_eq!(c.phases_created(), 2);
    }

    #[test]
    fn transition_fraction_counts_unstable_intervals() {
        let mut c = paper_classifier();
        for _ in 0..16 {
            run_interval(&mut c, 0x1000, 1.0);
        }
        // 8 transition + 8 stable.
        assert_eq!(c.transition_intervals(), 8);
        assert!((c.transition_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adaptive_feedback_tightens_threshold() {
        let cfg = ClassifierConfig::builder()
            .min_count(0)
            .adaptive(Some(crate::config::AdaptiveConfig {
                deviation_threshold: 0.25,
            }))
            .build();
        let mut c = PhaseClassifier::new(cfg);
        run_interval(&mut c, 0x1000, 1.0);
        run_interval(&mut c, 0x1000, 1.0);
        // CPI jumps by 3x: far over the 25% deviation threshold.
        let mut got_tightened = false;
        for i in 0..400u64 {
            c.observe(BranchEvent::new(0x1000 + (i % 8) * 0x40, 50));
            if i == 399 {
                let detail = c.end_interval_detailed(3.0);
                got_tightened = detail.threshold_tightened;
            }
        }
        c.end_interval(3.0); // flush leftover events from loop structure
        assert!(
            got_tightened,
            "large CPI deviation must halve the threshold"
        );
    }

    #[test]
    fn static_config_never_tightens() {
        let cfg = ClassifierConfig::builder()
            .min_count(0)
            .adaptive(None)
            .build();
        let mut c = PhaseClassifier::new(cfg);
        for cpi in [1.0, 5.0, 0.2, 9.0] {
            for i in 0..200u64 {
                c.observe(BranchEvent::new(0x1000 + (i % 8) * 0x40, 50));
            }
            let d = c.end_interval_detailed(cpi);
            assert!(!d.threshold_tightened);
        }
        let base = c.table().base_threshold();
        assert!(c.table().iter().all(|e| (e.threshold - base).abs() < 1e-12));
    }

    #[test]
    fn small_table_recreates_lost_phases() {
        // With a 1-entry table, alternating between two codes evicts
        // constantly, so phase IDs keep being created (the Figure 2 effect).
        let cfg = ClassifierConfig::builder()
            .table_entries(Some(1))
            .min_count(0)
            .build();
        let mut c = PhaseClassifier::new(cfg);
        for _ in 0..5 {
            run_interval(&mut c, 0x1000, 1.0);
            run_interval(&mut c, 0x90_0000, 3.0);
        }
        assert!(
            c.phases_created() >= 8,
            "thrashing table inflates phase count: {}",
            c.phases_created()
        );
    }

    #[test]
    fn empty_interval_is_classified_consistently() {
        let mut c = paper_classifier();
        let first = c.end_interval(0.0);
        assert!(
            first.is_transition(),
            "a brand-new empty signature is unstable"
        );
        // Repeating the empty interval eventually promotes it like any
        // other signature.
        for _ in 0..10 {
            c.end_interval(0.0);
        }
        assert_eq!(c.phases_created(), 1);
    }

    #[test]
    fn classify_interval_convenience_matches_manual() {
        let mut manual = paper_classifier();
        let mut auto = paper_classifier();
        let events: Vec<_> = (0..100u64)
            .map(|i| BranchEvent::new(0x2000 + (i % 4) * 0x10, 25))
            .collect();
        for ev in &events {
            manual.observe(*ev);
        }
        let a = manual.end_interval(1.5);
        let b = auto.classify_interval(events, 1.5);
        assert_eq!(a, b);
    }

    #[test]
    fn suspended_and_resumed_classifier_continues_identically() {
        // Clone mid-stream (the state snapshot a suspend would serialize)
        // and check both copies evolve identically.
        let mut c = paper_classifier();
        for _ in 0..10 {
            run_interval(&mut c, 0x1000, 1.0);
            run_interval(&mut c, 0x9_0000, 3.0);
        }
        let mut resumed = c.clone();
        for _ in 0..10 {
            let a = run_interval(&mut c, 0x1000, 1.0);
            let b = run_interval(&mut resumed, 0x1000, 1.0);
            assert_eq!(a, b);
        }
        assert_eq!(c.phases_created(), resumed.phases_created());
    }

    #[test]
    fn static_bit_selection_misscal_can_zero_signatures() {
        // A static selection aimed at bits 14..19 sees nothing when the
        // counters only ever reach a few hundred — every signature is
        // all-zero and everything collapses into a single phase. This is
        // the failure mode the paper's dynamic selection removes.
        let cfg = ClassifierConfig::builder()
            .min_count(0)
            .adaptive(None)
            .bit_selection(crate::config::BitSelectionMode::Static { low_bit: 14 })
            .build();
        let mut c = PhaseClassifier::new(cfg);
        // Two very different (tiny) intervals.
        c.observe(BranchEvent::new(0x1000, 200));
        let a = c.end_interval(1.0);
        c.observe(BranchEvent::new(0x9_0000, 200));
        let b = c.end_interval(3.0);
        assert_eq!(a, b, "mis-scaled static selection cannot distinguish them");

        // Dynamic selection separates the same two intervals.
        let mut d = PhaseClassifier::new(
            ClassifierConfig::builder()
                .min_count(0)
                .adaptive(None)
                .build(),
        );
        d.observe(BranchEvent::new(0x1000, 200));
        let a = d.end_interval(1.0);
        d.observe(BranchEvent::new(0x9_0000, 200));
        let b = d.end_interval(3.0);
        assert_ne!(a, b, "dynamic selection adapts to the interval scale");
    }

    #[test]
    fn shared_accumulator_matches_owned_path() {
        // Driving a classifier through `end_interval_from` with an external
        // accumulator must reproduce the owned-accumulator path exactly,
        // including full diagnostics.
        let mut owned = paper_classifier();
        let mut shared = paper_classifier();
        let mut acc = AccumulatorTable::new(ClassifierConfig::hpca2005().accumulators);
        for (pc, cpi) in [
            (0x1000u64, 1.0),
            (0x2000, 2.0),
            (0x1000, 1.1),
            (0x1000, 0.9),
            (0x3000, 4.0),
            (0x1000, 1.0),
        ]
        .into_iter()
        .cycle()
        .take(40)
        {
            for i in 0..200u64 {
                let ev = BranchEvent::new(pc + (i % 8) * 0x40, 50);
                owned.observe(ev);
                acc.observe(ev);
            }
            let a = owned.end_interval_detailed(cpi);
            let b = shared.end_interval_from_detailed(&acc, cpi);
            acc.reset();
            assert_eq!(a, b);
        }
        assert_eq!(owned.phases_created(), shared.phases_created());
        assert_eq!(owned.transition_intervals(), shared.transition_intervals());
    }

    #[test]
    fn shared_accumulator_is_not_reset_by_classifier() {
        let mut c = paper_classifier();
        let mut acc = AccumulatorTable::new(ClassifierConfig::hpca2005().accumulators);
        acc.observe(BranchEvent::new(0x1000, 100));
        let before = acc.clone();
        c.end_interval_from(&acc, 1.0);
        assert_eq!(acc, before, "caller owns the accumulator lifecycle");
    }

    #[test]
    #[should_panic(expected = "shared accumulator count")]
    fn shared_accumulator_count_mismatch_panics() {
        let mut c = paper_classifier(); // 16 accumulators
        let acc = AccumulatorTable::new(64);
        c.end_interval_from(&acc, 1.0);
    }

    #[test]
    #[should_panic(expected = "shared extractor kind")]
    fn shared_extractor_kind_mismatch_panics() {
        let mut c = paper_classifier(); // BBV extraction
        let ws =
            crate::extractor::WorkingSetExtractor::new(ClassifierConfig::hpca2005().accumulators);
        c.end_interval_from(&ws, 1.0);
    }

    #[test]
    fn custom_extractor_panic_escapes_to_caller() {
        // The generic `end_interval_from` is open to downstream extractor
        // implementations, which the classifier cannot vouch for: a panic
        // inside `finalize_into` must propagate (the engine contains it
        // with a per-lane unwind boundary — see the experiments crate).
        struct Exploding;
        impl FeatureExtractor for Exploding {
            fn kind(&self) -> crate::extractor::ExtractorKind {
                crate::extractor::ExtractorKind::Bbv
            }
            fn dims(&self) -> usize {
                ClassifierConfig::hpca2005().accumulators
            }
            fn observe(&mut self, _ev: BranchEvent) {}
            fn finalize_into(&self, _config: &ClassifierConfig, _buf: Vec<u16>) -> Signature {
                panic!("extractor blew up mid-finalize");
            }
            fn reset(&mut self) {}
        }
        let mut c = paper_classifier();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.end_interval_from(&Exploding, 1.0)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("blew up"), "panic payload: {msg:?}");
    }

    #[test]
    fn snapshot_restores_bit_identical_classification() {
        // Across all three extractors: classify a while, snapshot, restore,
        // then drive the original and the restored copy with the same
        // stream and require identical full diagnostics.
        for kind in ExtractorKind::ALL {
            let cfg = ClassifierConfig::builder().extractor(kind).build();
            let mut c = PhaseClassifier::new(cfg);
            for rep in 0..12 {
                run_interval(
                    &mut c,
                    0x1000 + (rep % 3) * 0x9_0000,
                    1.0 + rep as f64 * 0.1,
                );
            }
            // Mid-interval events too: the extractor state must survive.
            for i in 0..37u64 {
                c.observe(BranchEvent::new(0x5000 + i * 0x40, 21));
            }
            let snap = c.snapshot();
            let mut restored =
                PhaseClassifier::from_snapshot(&snap).unwrap_or_else(|e| panic!("{kind}: {e}"));
            for step in 0..24u64 {
                let ev = BranchEvent::new(0x1000 + (step % 5) * 0x11_0000, 33);
                c.observe(ev);
                restored.observe(ev);
                if step % 4 == 3 {
                    let cpi = 1.0 + (step % 7) as f64;
                    let a = c.end_interval_detailed(cpi);
                    let b = restored.end_interval_detailed(cpi);
                    assert_eq!(a, b, "{kind} diverged after restore");
                }
            }
            assert_eq!(c.phases_created(), restored.phases_created());
            assert_eq!(c.intervals_seen(), restored.intervals_seen());
            assert_eq!(c.transition_intervals(), restored.transition_intervals());
        }
    }

    #[test]
    fn snapshot_survives_lru_churn() {
        // A tiny table churns its LRU constantly; the private stamps must
        // round-trip so post-restore evictions pick the same victims.
        let cfg = ClassifierConfig::builder()
            .table_entries(Some(2))
            .min_count(0)
            .build();
        let mut c = PhaseClassifier::new(cfg);
        for rep in 0..9 {
            run_interval(&mut c, 0x1000 + (rep % 3) * 0x9_0000, 1.0);
        }
        let mut restored = PhaseClassifier::from_snapshot(&c.snapshot()).unwrap();
        for rep in 0..9 {
            let pc = 0x1000 + (rep % 4) * 0x7_0000;
            let a = run_interval(&mut c, pc, 2.0);
            let b = run_interval(&mut restored, pc, 2.0);
            assert_eq!(a, b);
        }
        assert_eq!(c.table().evictions(), restored.table().evictions());
    }

    #[test]
    fn snapshot_rejects_garbage_without_panicking() {
        assert!(matches!(
            PhaseClassifier::from_snapshot(b"not a snapshot"),
            Err(crate::snapshot::SnapshotError::BadMagic)
        ));
        // Every truncation of a valid snapshot must fail cleanly.
        let mut c = paper_classifier();
        for _ in 0..10 {
            run_interval(&mut c, 0x1000, 1.0);
        }
        let snap = c.snapshot();
        // A snapshot in the previous layout is refused by its magic.
        let mut old_layout = snap.clone();
        old_layout[..SNAPSHOT_MAGIC.len()].copy_from_slice(b"TPCPSNP1");
        assert!(matches!(
            PhaseClassifier::from_snapshot(&old_layout),
            Err(crate::snapshot::SnapshotError::BadMagic)
        ));
        for len in 0..snap.len() {
            assert!(
                PhaseClassifier::from_snapshot(&snap[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
        // Flipping each byte must never panic (errors are fine; some flips
        // still decode — e.g. a toggled boolean).
        for i in 0..snap.len() {
            let mut bad = snap.clone();
            bad[i] ^= 0xFF;
            let _ = PhaseClassifier::from_snapshot(&bad);
        }
        // Trailing bytes are rejected.
        let mut padded = snap.clone();
        padded.push(0);
        assert!(PhaseClassifier::from_snapshot(&padded).is_err());
    }

    #[test]
    fn snapshot_bounds_declared_counts() {
        // A snapshot declaring a huge entry count with no bytes behind it
        // must be rejected before allocating.
        let c = paper_classifier();
        let snap = c.snapshot();
        // Corrupt: replace everything after the magic + config with a
        // huge varint; decode must error (not OOM or panic).
        let mut bad = snap[..SNAPSHOT_MAGIC.len() + 24].to_vec();
        bad.extend([0xFF; 10]);
        assert!(PhaseClassifier::from_snapshot(&bad).is_err());
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut c = paper_classifier();
            let mut ids = Vec::new();
            for pc in [0x1000u64, 0x2000, 0x1000, 0x3000, 0x1000] {
                for _ in 0..6 {
                    ids.push(run_interval(&mut c, pc, 1.0));
                }
            }
            ids
        };
        assert_eq!(run(), run());
    }
}
