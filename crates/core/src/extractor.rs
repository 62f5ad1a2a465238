//! Pluggable feature extractors — the per-interval feature pipeline of
//! the classifier, abstracted behind one trait.
//!
//! The paper's architecture is hard-wired to BBV-style accumulation: hash
//! each committed branch PC, add the block's instruction count, project
//! the counters into a compressed signature at the interval boundary. The
//! phase-classification literature catalogs several competing features —
//! working sets, conditional-branch counts, memory-access signatures —
//! that share the same *shape*: observe each event cheaply, then produce
//! a fixed-width dimension vector when the interval ends. The
//! [`FeatureExtractor`] trait captures that shape so classification
//! back-ends can vary per lane while the signature table, transition
//! phase, and adaptive-threshold machinery stay untouched.
//!
//! Three back-ends ship in this crate:
//!
//! - [`BbvExtractor`] (an alias of [`AccumulatorTable`]) — the paper's
//!   branch-PC basic-block-vector path, and the default;
//! - [`WorkingSetExtractor`] — a touched-region bitmap over hashed PC
//!   ranges (Dhodapkar & Smith-style working-set signatures);
//! - [`BranchMixExtractor`] — per-bucket conditional-branch direction
//!   counts (taken/not-taken mix per hashed branch PC).
//!
//! [`AnyExtractor`] is the closed enum over those back-ends that the
//! classifier and the experiment engine store; the open trait exists so
//! downstream crates can drive
//! [`PhaseClassifier::end_interval_from_detailed`] with their own feature
//! pipelines.
//!
//! [`PhaseClassifier::end_interval_from_detailed`]: crate::PhaseClassifier::end_interval_from_detailed

use tpcp_trace::{BranchEvent, Frame};

use crate::accumulator::{fold_buckets, fold_counts, mix64, AccumulatorTable, COUNTER_MAX};
use crate::config::{BitSelectionMode, ClassifierConfig};
use crate::signature::{BitSelection, Signature};
use crate::snapshot::{self, SnapReader, SnapshotError};

/// The default feature back-end: the paper's [`AccumulatorTable`] of
/// PC-hashed, instruction-weighted saturating counters. The refactor that
/// introduced [`FeatureExtractor`] made the existing table *be* the BBV
/// extractor rather than wrapping it, so the default path is the same
/// type — and the same code — it always was.
pub type BbvExtractor = AccumulatorTable;

/// Which feature back-end a classifier uses to fill its signature each
/// interval. Selected per configuration via
/// [`ClassifierConfig::extractor`](crate::ClassifierConfig); the engine
/// shares one accumulation front-end per kind, at the widest dims its
/// lanes ask for, and folds it into each narrower shape
/// ([`AnyExtractor::fold_into`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExtractorKind {
    /// Branch-PC BBV accumulation (the paper's architecture, Section 4.1).
    #[default]
    Bbv,
    /// Touched-region bitmap over hashed PC ranges.
    WorkingSet,
    /// Taken/not-taken conditional-branch counts per hashed branch.
    BranchMix,
}

impl ExtractorKind {
    /// Every kind, in a stable order (the cross-technique figure and the
    /// perf harness iterate this).
    pub const ALL: [ExtractorKind; 3] = [
        ExtractorKind::Bbv,
        ExtractorKind::WorkingSet,
        ExtractorKind::BranchMix,
    ];

    /// Short stable label, used in telemetry exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            ExtractorKind::Bbv => "bbv",
            ExtractorKind::WorkingSet => "working-set",
            ExtractorKind::BranchMix => "branch-mix",
        }
    }

    /// Builds a fresh extractor of this kind with `dims` signature
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a power of two, or is below the kind's
    /// minimum (2 for [`ExtractorKind::BranchMix`]) — the combinations
    /// [`ClassifierConfig::validate`](crate::ClassifierConfig::validate)
    /// rejects.
    pub fn build(self, dims: usize) -> AnyExtractor {
        match self {
            ExtractorKind::Bbv => AnyExtractor::Bbv(AccumulatorTable::new(dims)),
            ExtractorKind::WorkingSet => AnyExtractor::WorkingSet(WorkingSetExtractor::new(dims)),
            ExtractorKind::BranchMix => AnyExtractor::BranchMix(BranchMixExtractor::new(dims)),
        }
    }
}

impl core::fmt::Display for ExtractorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-interval feature pipeline: observe each committed branch, then
/// project the interval's accumulated state into a fixed-width
/// [`Signature`] at the boundary.
///
/// Implementations must be deterministic functions of the observed event
/// sequence — the engine relies on a shared extractor instance producing
/// the same state as a lane-owned one fed the same events, and on
/// `finalize_into` being a pure read (the caller owns the reset cycle,
/// exactly as with the original shared [`AccumulatorTable`] path).
pub trait FeatureExtractor {
    /// Which back-end this is (the engine's sharing key, together with
    /// [`dims`](Self::dims)).
    fn kind(&self) -> ExtractorKind;

    /// Signature dimensionality this extractor produces.
    fn dims(&self) -> usize;

    /// Records one committed branch of the current interval — the
    /// per-event fast path.
    fn observe(&mut self, ev: BranchEvent);

    /// Records a whole interval's branches at once, leaving the same state
    /// as [`observe`](Self::observe) on each event in program order (the
    /// default does exactly that). The crate's back-ends override it to
    /// hash each of the frame's pairs once instead of every event, which
    /// must stay exact when the pair list repeats a pair, and must leave a
    /// pair with count 0 untouched.
    fn observe_frame(&mut self, frame: &Frame<'_>) {
        frame.for_each_event(|ev| self.observe(ev));
    }

    /// Projects the finished interval's state into a signature, recycling
    /// `buf` as the dimension storage. Must not mutate the extractor:
    /// several classifiers may read one shared instance at a boundary.
    fn finalize_into(&self, config: &ClassifierConfig, buf: Vec<u16>) -> Signature;

    /// Clears all per-interval state for the next interval.
    fn reset(&mut self);
}

/// The counter-magnitude projection shared by the counting back-ends:
/// dynamic bit selection from the average counter value (the paper's
/// Section 4.2), or the configured static selection.
fn project_counts(
    counters: &[u64],
    average: u64,
    config: &ClassifierConfig,
    buf: Vec<u16>,
) -> Signature {
    let selection = match config.bit_selection {
        BitSelectionMode::Dynamic => BitSelection::for_average(average, config.bits_per_dim),
        BitSelectionMode::Static { low_bit } => BitSelection::fixed(low_bit, config.bits_per_dim),
    };
    Signature::from_counters_in(counters, selection, buf)
}

impl FeatureExtractor for AccumulatorTable {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::Bbv
    }

    fn dims(&self) -> usize {
        self.len()
    }

    #[inline]
    fn observe(&mut self, ev: BranchEvent) {
        AccumulatorTable::observe(self, ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        for (ev, count) in frame.weighted() {
            self.observe_weighted(ev, count);
        }
    }

    fn finalize_into(&self, config: &ClassifierConfig, buf: Vec<u16>) -> Signature {
        project_counts(self.counters(), self.average(), config, buf)
    }

    fn reset(&mut self) {
        AccumulatorTable::reset(self);
    }
}

/// Bytes of code per working-set region: 64, an instruction cache line.
/// Adjacent branches fall into one region; the bitmap tracks *which* code
/// was touched, not how hot it was.
pub const REGION_BYTES: u64 = 64;

const REGION_SHIFT: u32 = REGION_BYTES.trailing_zeros();

/// A touched-region bitmap over PC ranges: each committed branch marks
/// its 64-byte code region's hashed bucket. Dimensions are 0/1, so the
/// normalized signature distance becomes the symmetric difference of the
/// two intervals' working sets over their combined size — the classic
/// working-set signature similarity.
///
/// # Example
///
/// ```
/// use tpcp_core::{ClassifierConfig, FeatureExtractor, WorkingSetExtractor};
/// use tpcp_trace::BranchEvent;
///
/// let mut ws = WorkingSetExtractor::new(16);
/// ws.observe(BranchEvent::new(0x1000, 100));
/// ws.observe(BranchEvent::new(0x1004, 7)); // same 64-byte region
/// assert_eq!(ws.touched_regions(), 1);
/// let sig = ws.finalize_into(&ClassifierConfig::hpca2005(), Vec::new());
/// assert_eq!(sig.weight(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingSetExtractor {
    /// One slot per bucket, 0 or 1. Stored as `u64`s so the projection
    /// shares [`Signature::from_counters_in`] with the counting back-ends.
    touched: Vec<u64>,
    /// Number of distinct buckets touched this interval.
    regions: u64,
    index_mask: u64,
}

impl WorkingSetExtractor {
    /// Creates a bitmap of `dims` region buckets.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a power of two.
    pub fn new(dims: usize) -> Self {
        assert!(
            dims.is_power_of_two(),
            "accumulator count must be a power of two"
        );
        Self {
            touched: vec![0; dims],
            regions: 0,
            index_mask: dims as u64 - 1,
        }
    }

    /// Distinct region buckets touched since the last reset.
    pub fn touched_regions(&self) -> u64 {
        self.regions
    }

    /// Folds this bitmap into the narrower `narrow`: bucket `j` is touched
    /// when any bucket `i ≡ j (mod narrow.dims())` is, and the region
    /// count is recounted.
    pub(crate) fn fold_into(&self, narrow: &mut Self) {
        fold_buckets(&self.touched, &mut narrow.touched, |a, b| a | b);
        narrow.regions = narrow.touched.iter().sum();
    }

    /// Appends the bitmap to a snapshot, packed 8 regions per byte (the
    /// region count and index mask are derived state, recomputed on
    /// restore).
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        snapshot::put_varint(out, self.touched.len() as u64);
        for chunk in self.touched.chunks(8) {
            let mut byte = 0u8;
            for (bit, &slot) in chunk.iter().enumerate() {
                byte |= (slot as u8) << bit;
            }
            out.push(byte);
        }
    }

    /// Restores the bitmap from a snapshot.
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let dims = r.varint()? as usize;
        if dims == 0 || !dims.is_power_of_two() {
            return Err(SnapshotError::Malformed(
                "working-set dimension count must be a power of two",
            ));
        }
        let packed = r.bytes(dims.div_ceil(8))?;
        let mut touched = Vec::with_capacity(dims);
        let mut regions = 0u64;
        for i in 0..dims {
            let bit = u64::from(packed[i / 8] >> (i % 8)) & 1;
            regions += bit;
            touched.push(bit);
        }
        Ok(Self {
            touched,
            regions,
            index_mask: dims as u64 - 1,
        })
    }
}

impl FeatureExtractor for WorkingSetExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::WorkingSet
    }

    fn dims(&self) -> usize {
        self.touched.len()
    }

    #[inline]
    fn observe(&mut self, ev: BranchEvent) {
        let idx = (mix64(ev.pc >> REGION_SHIFT) & self.index_mask) as usize;
        let slot = &mut self.touched[idx];
        if *slot == 0 {
            *slot = 1;
            self.regions += 1;
        }
    }

    /// Marks each pair that stands for at least one event: marking is
    /// idempotent, so once per pair is what every event's mark leaves.
    fn observe_frame(&mut self, frame: &Frame<'_>) {
        for (ev, _) in frame.weighted() {
            self.observe(ev);
        }
    }

    fn finalize_into(&self, config: &ClassifierConfig, buf: Vec<u16>) -> Signature {
        // The bitmap is already in canonical 0/1 range: copy bit 0
        // directly instead of scaling to a counter average (dynamic
        // selection would shift the bitmap away for small
        // `bits_per_dim`). `validate` rejects static selections above
        // bit 0 for this extractor.
        Signature::from_counters_in(
            &self.touched,
            BitSelection::fixed(0, config.bits_per_dim),
            buf,
        )
    }

    fn reset(&mut self) {
        self.touched.fill(0);
        self.regions = 0;
    }
}

/// Conditional-branch direction counts: each committed branch is hashed
/// into one of `dims / 2` buckets and counted as taken or not-taken, so
/// each bucket contributes a (taken, not-taken) dimension pair. Two
/// intervals running the same code with different branch behaviour — a
/// data-dependent phase change BBV weights can miss — separate here.
///
/// The trace format records committed branches without an explicit
/// direction bit, so direction is inferred with the classic
/// backward-taken heuristic: a branch whose PC is at or below the
/// previous branch's PC is a loop back edge, hence taken. The inference
/// is a deterministic function of the event stream, which is all the
/// engine's shared-accumulation equivalence needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchMixExtractor {
    /// `dims` counters: bucket `b`'s taken count at `2b`, not-taken at
    /// `2b + 1`. Saturating at the same 24-bit ceiling as the paper's
    /// accumulators.
    counters: Vec<u64>,
    /// Total branches observed this interval.
    total: u64,
    /// PC of the previous committed branch (0 at interval start).
    last_pc: u64,
    index_mask: u64,
}

impl BranchMixExtractor {
    /// Creates a mix table producing `dims` dimensions (`dims / 2`
    /// buckets of taken/not-taken pairs).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a power of two, or is less than 2 (one
    /// bucket needs a full pair).
    pub fn new(dims: usize) -> Self {
        assert!(
            dims.is_power_of_two(),
            "accumulator count must be a power of two"
        );
        assert!(
            dims >= 2,
            "branch-mix extractor needs at least 2 dimensions (one taken/not-taken pair)"
        );
        Self {
            counters: vec![0; dims],
            total: 0,
            last_pc: 0,
            index_mask: (dims / 2) as u64 - 1,
        }
    }

    /// Total branches observed since the last reset.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds this mix into the narrower `narrow`. Counter `2b + d`
    /// (bucket `b`, direction `d`) lands on `(2b + d) mod narrow.dims()`,
    /// which is bucket `b mod (narrow.dims() / 2)` with the same
    /// direction, so the counters fold like the accumulator table's.
    pub(crate) fn fold_into(&self, narrow: &mut Self) {
        fold_counts(&self.counters, &mut narrow.counters);
        narrow.total = self.total;
        narrow.last_pc = self.last_pc;
    }

    /// Appends the mix counters to a snapshot.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        snapshot::put_varint(out, self.counters.len() as u64);
        for &c in &self.counters {
            snapshot::put_varint(out, c);
        }
        snapshot::put_varint(out, self.total);
        snapshot::put_varint(out, self.last_pc);
    }

    /// Restores the mix counters from a snapshot.
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let dims = r.bounded_count(1)?;
        if !dims.is_power_of_two() || dims < 2 {
            return Err(SnapshotError::Malformed(
                "branch-mix dimension count must be a power of two of at least 2",
            ));
        }
        let mut counters = Vec::with_capacity(dims);
        for _ in 0..dims {
            let c = r.varint()?;
            if c > COUNTER_MAX {
                return Err(SnapshotError::Malformed(
                    "branch-mix counter above the 24-bit ceiling",
                ));
            }
            counters.push(c);
        }
        Ok(Self {
            counters,
            total: r.varint()?,
            last_pc: r.varint()?,
            index_mask: (dims / 2) as u64 - 1,
        })
    }
}

impl FeatureExtractor for BranchMixExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::BranchMix
    }

    fn dims(&self) -> usize {
        self.counters.len()
    }

    #[inline]
    fn observe(&mut self, ev: BranchEvent) {
        let taken = ev.pc <= self.last_pc;
        self.last_pc = ev.pc;
        let bucket = (mix64(ev.pc) & self.index_mask) as usize;
        let c = &mut self.counters[bucket * 2 + usize::from(!taken)];
        *c = (*c + 1).min(COUNTER_MAX);
        self.total += 1;
    }

    /// Walks the id run once, tallying each pair's taken events from the
    /// pairs' PCs and carrying `last_pc` (the rest of its count is
    /// not-taken), then hashes each pair that stands for an event once and
    /// adds both tallies, each clamped once (a chain of saturating adds of
    /// non-negative values equals one clamp of their sum).
    fn observe_frame(&mut self, frame: &Frame<'_>) {
        let mut tally: Vec<[u64; 2]> = frame.pairs().iter().map(|ev| [ev.pc, 0]).collect();
        let mut last_pc = self.last_pc;
        frame.for_each_id(|id| {
            let [pc, taken] = &mut tally[id];
            *taken += u64::from(*pc <= last_pc);
            last_pc = *pc;
        });
        self.last_pc = last_pc;
        for ([pc, taken], &count) in tally.into_iter().zip(frame.counts()) {
            if count == 0 {
                continue;
            }
            let bucket = (mix64(pc) & self.index_mask) as usize;
            for (c, n) in self.counters[2 * bucket..][..2]
                .iter_mut()
                .zip([taken, count - taken])
            {
                *c = (*c + n).min(COUNTER_MAX);
            }
        }
        self.total += frame.len() as u64;
    }

    fn finalize_into(&self, config: &ClassifierConfig, buf: Vec<u16>) -> Signature {
        // Average branch count per dimension, with the same shift
        // semantics as the accumulator table's dynamic selection.
        let average = self.total >> self.counters.len().trailing_zeros();
        project_counts(&self.counters, average, config, buf)
    }

    fn reset(&mut self) {
        self.counters.fill(0);
        self.total = 0;
        self.last_pc = 0;
    }
}

/// The closed sum of the crate's feature back-ends — what
/// [`PhaseClassifier`](crate::PhaseClassifier) owns and what the
/// experiment engine shares across lanes of one shape. Dispatch is a
/// match, so the per-event path stays monomorphic inside each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyExtractor {
    /// The paper's accumulator table.
    Bbv(AccumulatorTable),
    /// Touched-region bitmap.
    WorkingSet(WorkingSetExtractor),
    /// Taken/not-taken branch counts.
    BranchMix(BranchMixExtractor),
}

impl AnyExtractor {
    /// Overwrites `narrow`, an extractor of the same kind and at most this
    /// one's dims, with the state it would hold had it observed this
    /// interval's events itself. Every back-end buckets by
    /// `mix64(key) & (n − 1)` over a power-of-two `n`, so a narrower table
    /// is an exact fold of a wider one: counting back-ends sum buckets
    /// `i ≡ j (mod n)` and clamp once at 2^24 − 1 (a chain of saturating
    /// adds of non-negative values equals one clamp of their sum), and the
    /// working-set bitmap ORs them. This is how one front-end per kind
    /// serves every width its lanes ask for.
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ or `narrow` is the wider of the two.
    pub fn fold_into(&self, narrow: &mut AnyExtractor) {
        match (self, narrow) {
            (AnyExtractor::Bbv(w), AnyExtractor::Bbv(n)) => w.fold_into(n),
            (AnyExtractor::WorkingSet(w), AnyExtractor::WorkingSet(n)) => w.fold_into(n),
            (AnyExtractor::BranchMix(w), AnyExtractor::BranchMix(n)) => w.fold_into(n),
            (w, n) => panic!(
                "cannot fold a {} extractor into a {} one",
                w.kind(),
                n.kind()
            ),
        }
    }

    /// Appends this extractor (kind tag + state) to a snapshot.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        match self {
            AnyExtractor::Bbv(x) => {
                out.push(0);
                x.snap_write(out);
            }
            AnyExtractor::WorkingSet(x) => {
                out.push(1);
                x.snap_write(out);
            }
            AnyExtractor::BranchMix(x) => {
                out.push(2);
                x.snap_write(out);
            }
        }
    }

    /// Restores an extractor from a snapshot.
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(AnyExtractor::Bbv(AccumulatorTable::snap_read(r)?)),
            1 => Ok(AnyExtractor::WorkingSet(WorkingSetExtractor::snap_read(r)?)),
            2 => Ok(AnyExtractor::BranchMix(BranchMixExtractor::snap_read(r)?)),
            _ => Err(SnapshotError::Malformed("unknown extractor kind tag")),
        }
    }
}

impl FeatureExtractor for AnyExtractor {
    fn kind(&self) -> ExtractorKind {
        match self {
            AnyExtractor::Bbv(_) => ExtractorKind::Bbv,
            AnyExtractor::WorkingSet(_) => ExtractorKind::WorkingSet,
            AnyExtractor::BranchMix(_) => ExtractorKind::BranchMix,
        }
    }

    fn dims(&self) -> usize {
        match self {
            AnyExtractor::Bbv(x) => x.dims(),
            AnyExtractor::WorkingSet(x) => x.dims(),
            AnyExtractor::BranchMix(x) => x.dims(),
        }
    }

    #[inline]
    fn observe(&mut self, ev: BranchEvent) {
        match self {
            AnyExtractor::Bbv(x) => FeatureExtractor::observe(x, ev),
            AnyExtractor::WorkingSet(x) => x.observe(ev),
            AnyExtractor::BranchMix(x) => x.observe(ev),
        }
    }

    /// Records one interval's frame, with the back-end dispatched once per
    /// frame instead of once per event.
    fn observe_frame(&mut self, frame: &Frame<'_>) {
        match self {
            AnyExtractor::Bbv(x) => x.observe_frame(frame),
            AnyExtractor::WorkingSet(x) => x.observe_frame(frame),
            AnyExtractor::BranchMix(x) => x.observe_frame(frame),
        }
    }

    fn finalize_into(&self, config: &ClassifierConfig, buf: Vec<u16>) -> Signature {
        match self {
            AnyExtractor::Bbv(x) => x.finalize_into(config, buf),
            AnyExtractor::WorkingSet(x) => x.finalize_into(config, buf),
            AnyExtractor::BranchMix(x) => x.finalize_into(config, buf),
        }
    }

    fn reset(&mut self) {
        match self {
            AnyExtractor::Bbv(x) => FeatureExtractor::reset(x),
            AnyExtractor::WorkingSet(x) => x.reset(),
            AnyExtractor::BranchMix(x) => x.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClassifierConfig {
        ClassifierConfig::hpca2005()
    }

    #[test]
    fn bbv_finalize_matches_legacy_signature_construction() {
        let mut acc = AccumulatorTable::new(16);
        for i in 0..500u64 {
            AccumulatorTable::observe(&mut acc, BranchEvent::new(0x4000 + i * 0x40, 30));
        }
        let legacy = Signature::from_accumulator_in(&acc, cfg().bits_per_dim, Vec::new());
        let via_trait = acc.finalize_into(&cfg(), Vec::new());
        assert_eq!(legacy, via_trait);

        let static_cfg = ClassifierConfig::builder()
            .bit_selection(BitSelectionMode::Static { low_bit: 4 })
            .build();
        let legacy_static =
            Signature::with_selection_in(&acc, BitSelection::fixed(4, 6), Vec::new());
        assert_eq!(legacy_static, acc.finalize_into(&static_cfg, Vec::new()));
    }

    #[test]
    fn kinds_build_matching_shapes() {
        for kind in ExtractorKind::ALL {
            let ext = kind.build(16);
            assert_eq!(ext.kind(), kind);
            assert_eq!(ext.dims(), 16);
            assert_eq!(ext.finalize_into(&cfg(), Vec::new()).dims().len(), 16);
        }
    }

    #[test]
    fn working_set_is_a_binary_bitmap() {
        let mut ws = WorkingSetExtractor::new(16);
        // Two branches in one region, one in another: weight counts
        // regions, not executions or instructions.
        ws.observe(BranchEvent::new(0x1000, 500));
        ws.observe(BranchEvent::new(0x1020, 500));
        ws.observe(BranchEvent::new(0x9000, 1));
        assert_eq!(ws.touched_regions(), 2);
        let sig = ws.finalize_into(&cfg(), Vec::new());
        assert!(sig.dims().iter().all(|&d| d <= 1));
        assert_eq!(sig.weight(), 2);
    }

    #[test]
    fn working_set_distance_is_symmetric_difference() {
        let sig_of = |pcs: &[u64]| {
            let mut ws = WorkingSetExtractor::new(64);
            for &pc in pcs {
                ws.observe(BranchEvent::new(pc, 10));
            }
            ws.finalize_into(&cfg(), Vec::new())
        };
        let a = sig_of(&[0x1000, 0x2000, 0x3000]);
        let same = sig_of(&[0x1000, 0x2000, 0x3000]);
        assert_eq!(a.normalized_distance(&same), 0.0);
        let disjoint = sig_of(&[0x8_0000, 0x9_0000, 0xA_0000]);
        // Disjoint working sets are maximally distant (unless the hash
        // collides buckets, which these spread-out PCs avoid at 64 dims).
        if a.manhattan_distance(&disjoint) == a.weight() + disjoint.weight() {
            assert!((a.normalized_distance(&disjoint) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn branch_mix_separates_direction_patterns() {
        // The same multiset of branch PCs, executed as two tight loops
        // (repeats — backward/taken edges at both sites) vs. as a
        // ping-pong alternation (the higher site only ever arrives from
        // below — not-taken). Identical hash buckets, different mixes.
        let sig_of = |pcs: &[u64]| {
            let mut bm = BranchMixExtractor::new(16);
            for &pc in pcs {
                bm.observe(BranchEvent::new(pc, 10));
            }
            bm.finalize_into(&cfg(), Vec::new())
        };
        let mut blocked: Vec<u64> = vec![0x1000; 100];
        blocked.extend(std::iter::repeat_n(0x2000, 100));
        let alternating: Vec<u64> = (0..200u64).map(|i| 0x1000 + (i % 2) * 0x1000).collect();
        let a = sig_of(&blocked);
        let b = sig_of(&alternating);
        assert!(
            a.normalized_distance(&b) > 0.2,
            "direction mix must separate: {}",
            a.normalized_distance(&b)
        );
    }

    #[test]
    fn branch_mix_counts_saturate() {
        let mut bm = BranchMixExtractor::new(2);
        for _ in 0..(COUNTER_MAX + 10) {
            bm.observe(BranchEvent::new(0x1000, 1));
        }
        assert!(bm.counters.iter().all(|&c| c <= COUNTER_MAX));
        assert_eq!(bm.total(), COUNTER_MAX + 10);
    }

    #[test]
    fn reset_restores_initial_state() {
        for kind in ExtractorKind::ALL {
            let mut ext = kind.build(16);
            for i in 0..100u64 {
                ext.observe(BranchEvent::new(0x1000 + i * 8, 5));
            }
            ext.reset();
            assert_eq!(ext, kind.build(16), "{kind} reset must be pristine");
        }
    }

    #[test]
    fn observation_order_matters_only_for_branch_mix() {
        let run = |kind: ExtractorKind, pcs: &[u64]| {
            let mut ext = kind.build(16);
            for &pc in pcs {
                ext.observe(BranchEvent::new(pc, 10));
            }
            ext.finalize_into(&cfg(), Vec::new())
        };
        let fwd = [0x1000u64, 0x2000, 0x3000, 0x4000];
        let rev = [0x4000u64, 0x3000, 0x2000, 0x1000];
        assert_eq!(run(ExtractorKind::Bbv, &fwd), run(ExtractorKind::Bbv, &rev));
        assert_eq!(
            run(ExtractorKind::WorkingSet, &fwd),
            run(ExtractorKind::WorkingSet, &rev)
        );
        assert_ne!(
            run(ExtractorKind::BranchMix, &fwd),
            run(ExtractorKind::BranchMix, &rev),
            "direction inference is order-sensitive by design"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn working_set_rejects_non_power_of_two() {
        WorkingSetExtractor::new(12);
    }

    #[test]
    #[should_panic(expected = "at least 2 dimensions")]
    fn branch_mix_rejects_single_dimension() {
        BranchMixExtractor::new(1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExtractorKind::Bbv.label(), "bbv");
        assert_eq!(ExtractorKind::WorkingSet.label(), "working-set");
        assert_eq!(ExtractorKind::BranchMix.label(), "branch-mix");
        assert_eq!(ExtractorKind::default(), ExtractorKind::Bbv);
    }
}
