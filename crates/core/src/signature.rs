//! Compressed signatures with dynamic bit selection (Section 4.2).

use crate::accumulator::AccumulatorTable;
use crate::snapshot::{self, SnapReader, SnapshotError};

/// Which bits to copy out of each accumulator when forming a signature.
///
/// Computed per interval from the average counter value: if the average
/// needs `b` bits, the hardware keeps two extra bits of headroom (values up
/// to 4× the average remain representable), then copies the top
/// `bits_per_dim` bits of that range. Counters with a set bit *above* the
/// kept range saturate to the all-ones value.
///
/// # Example
///
/// ```
/// use tpcp_core::BitSelection;
///
/// // Average counter value 1000 needs 10 bits; with 2 headroom bits the
/// // MSB position is 11, and with 6-bit dims we copy bits 11..=6.
/// let sel = BitSelection::for_average(1000, 6);
/// assert_eq!(sel.compress(0), 0);
/// assert_eq!(sel.compress(1 << 11), 0b100000);
/// assert_eq!(sel.compress(u64::MAX), 0b111111); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitSelection {
    /// Lowest bit position copied.
    low_bit: u32,
    /// Number of bits copied per counter.
    bits_per_dim: u32,
}

impl BitSelection {
    /// Chooses the selection for an interval whose average counter value is
    /// `average`, copying `bits_per_dim` bits per counter.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_dim` is zero or greater than 16.
    pub fn for_average(average: u64, bits_per_dim: u32) -> Self {
        assert!(
            (1..=16).contains(&bits_per_dim),
            "bits per dimension must be in 1..=16"
        );
        // Bits needed to represent the average (at least 1).
        let bits_needed = 64 - average.max(1).leading_zeros();
        // Keep two more bits so counters 2-4x the average are representable.
        let msb = bits_needed + 1; // highest kept bit position (0-indexed)
        let low_bit = (msb + 1).saturating_sub(bits_per_dim);
        Self {
            low_bit,
            bits_per_dim,
        }
    }

    /// Builds a selection from explicit bit positions (used to model the
    /// prior work's *static* choice of bits 14–21).
    pub fn fixed(low_bit: u32, bits_per_dim: u32) -> Self {
        assert!(
            (1..=16).contains(&bits_per_dim),
            "bits per dimension must be in 1..=16"
        );
        Self {
            low_bit,
            bits_per_dim,
        }
    }

    /// Lowest copied bit position.
    pub fn low_bit(&self) -> u32 {
        self.low_bit
    }

    /// Bits copied per dimension.
    pub fn bits_per_dim(&self) -> u32 {
        self.bits_per_dim
    }

    /// Maximum representable dimension value (`2^bits_per_dim - 1`).
    pub fn max_dim(&self) -> u16 {
        ((1u32 << self.bits_per_dim) - 1) as u16
    }

    /// Compresses one 24-bit counter to a `bits_per_dim`-bit value,
    /// saturating when a more significant bit is set above the selection.
    #[inline]
    pub fn compress(&self, counter: u64) -> u16 {
        let top = self.low_bit + self.bits_per_dim; // first bit above range
        if top < 64 && (counter >> top) != 0 {
            return self.max_dim();
        }
        ((counter >> self.low_bit) as u32 & ((1 << self.bits_per_dim) - 1)) as u16
    }
}

/// A compressed interval signature: one small value per accumulator.
///
/// Signatures are compared with the Manhattan distance, normalized by the
/// total weight of both signatures so a similarity threshold is a fraction
/// of "how different could they possibly be": 0 means identical code
/// profiles, 1 means disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    dims: Vec<u16>,
    selection: BitSelection,
    /// Sum of `dims`, cached at construction. The table search compares
    /// the probe signature against every entry; caching the weight keeps
    /// each comparison to one pass over the dimensions instead of three.
    weight: u64,
}

impl Signature {
    /// Forms the signature of the current interval from the accumulator
    /// table, choosing bits dynamically from the interval's average counter
    /// value (Section 4.2).
    pub fn from_accumulator(acc: &AccumulatorTable, bits_per_dim: u32) -> Self {
        let selection = BitSelection::for_average(acc.average(), bits_per_dim);
        Self::with_selection(acc, selection)
    }

    /// Like [`from_accumulator`](Self::from_accumulator), but reuses `buf`
    /// as the dimension storage instead of allocating. Pair with
    /// [`into_dims`](Self::into_dims) to recycle one buffer across
    /// intervals — the classifier's steady state allocates nothing.
    pub fn from_accumulator_in(acc: &AccumulatorTable, bits_per_dim: u32, buf: Vec<u16>) -> Self {
        let selection = BitSelection::for_average(acc.average(), bits_per_dim);
        Self::with_selection_in(acc, selection, buf)
    }

    /// Forms a signature using an explicit bit selection (for modeling the
    /// static selection of prior work and for ablation experiments).
    pub fn with_selection(acc: &AccumulatorTable, selection: BitSelection) -> Self {
        Self::with_selection_in(acc, selection, Vec::with_capacity(acc.len()))
    }

    /// [`with_selection`](Self::with_selection) into a reused buffer.
    pub fn with_selection_in(
        acc: &AccumulatorTable,
        selection: BitSelection,
        buf: Vec<u16>,
    ) -> Self {
        Self::from_counters_in(acc.counters(), selection, buf)
    }

    /// Forms a signature directly from a raw counter slice — the entry
    /// point for feature extractors that are not accumulator tables (a
    /// working-set bitmap, branch-direction counters). Identical
    /// compression semantics to [`with_selection_in`](Self::with_selection_in),
    /// which delegates here.
    pub fn from_counters_in(counters: &[u64], selection: BitSelection, mut buf: Vec<u16>) -> Self {
        buf.clear();
        let mut weight = 0u64;
        buf.extend(counters.iter().map(|&c| {
            let d = selection.compress(c);
            weight += u64::from(d);
            d
        }));
        Self {
            dims: buf,
            selection,
            weight,
        }
    }

    /// The compressed per-dimension values.
    pub fn dims(&self) -> &[u16] {
        &self.dims
    }

    /// Consumes the signature, returning its dimension buffer for reuse.
    pub fn into_dims(self) -> Vec<u16> {
        self.dims
    }

    /// The bit selection this signature was formed under.
    pub fn selection(&self) -> BitSelection {
        self.selection
    }

    /// Sum of all dimension values (the signature's "weight"), cached at
    /// construction.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Raw Manhattan distance between two signatures.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different dimensionality.
    pub fn manhattan_distance(&self, other: &Signature) -> u64 {
        assert_eq!(
            self.dims.len(),
            other.dims.len(),
            "signatures must have equal dimensionality"
        );
        self.dims
            .iter()
            .zip(&other.dims)
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum()
    }

    /// Normalized distance in `[0, 1]`: the Manhattan distance divided by
    /// the combined weight of both signatures.
    ///
    /// Identical signatures score 0; signatures with disjoint non-zero
    /// dimensions score 1. Two all-zero signatures are defined to be
    /// identical (distance 0).
    ///
    /// A similarity threshold of 25% ("a signature can be no more than 25%
    /// different", Figure 4) is `normalized_distance < 0.25`.
    pub fn normalized_distance(&self, other: &Signature) -> f64 {
        let denom = self.weight() + other.weight();
        if denom == 0 {
            return 0.0;
        }
        self.manhattan_distance(other) as f64 / denom as f64
    }

    /// Thresholded distance with early exit: returns the normalized
    /// distance when it is strictly below `threshold`, or `None` without
    /// finishing the scan once the running Manhattan total proves the
    /// result cannot pass.
    ///
    /// The decision is *identical* to
    /// `normalized_distance(other) < threshold` — including on the exact
    /// boundary — because the early-exit cutoff is the conservative integer
    /// truncation of `threshold × (weight + weight)` (a partial Manhattan
    /// total strictly above it already implies the final normalized
    /// distance is ≥ the threshold, since the total only grows), while the
    /// accept decision re-applies the same floating-point predicate the
    /// unthresholded path uses. The dimension scan runs in fixed-size
    /// chunks of plain `abs_diff` adds so the compiler can vectorize it.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different dimensionality.
    pub fn within_distance(&self, other: &Signature, threshold: f64) -> Option<f64> {
        let (denom, bound) = match self.scan_bounds(other, threshold) {
            Ok(pair) => pair,
            Err(trivial) => return trivial,
        };

        const CHUNK: usize = 16;
        let mut total = 0u64;
        let mut chunks = self.dims.chunks_exact(CHUNK);
        let mut other_chunks = other.dims.chunks_exact(CHUNK);
        for (a, b) in chunks.by_ref().zip(other_chunks.by_ref()) {
            let mut partial = 0u64;
            for i in 0..CHUNK {
                partial += u64::from(a[i].abs_diff(b[i]));
            }
            total += partial;
            if total > bound {
                return None;
            }
        }
        for (&a, &b) in chunks.remainder().iter().zip(other_chunks.remainder()) {
            total += u64::from(a.abs_diff(b));
        }
        accept_total(total, bound, denom, threshold)
    }

    /// Appends this signature to a snapshot (the cached weight is derived
    /// state, recomputed on restore).
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        snapshot::put_varint(out, u64::from(self.selection.low_bit));
        snapshot::put_varint(out, u64::from(self.selection.bits_per_dim));
        snapshot::put_varint(out, self.dims.len() as u64);
        for &d in &self.dims {
            snapshot::put_varint(out, u64::from(d));
        }
    }

    /// Restores a signature from a snapshot, re-checking the selection
    /// range and dimension bounds the constructors enforce.
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let low_bit = r.varint()?;
        let bits_per_dim = r.varint()?;
        // `for_average` can select up to bit 65 for a saturated average
        // (one headroom bit past the top), so allow a little past 64.
        if low_bit > 66 || !(1..=16).contains(&bits_per_dim) {
            return Err(SnapshotError::Malformed("bit selection out of range"));
        }
        let selection = BitSelection {
            low_bit: low_bit as u32,
            bits_per_dim: bits_per_dim as u32,
        };
        let n = r.bounded_count(1)?;
        let max_dim = u64::from(selection.max_dim());
        let mut dims = Vec::with_capacity(n);
        let mut weight = 0u64;
        for _ in 0..n {
            let d = r.varint()?;
            if d > max_dim {
                return Err(SnapshotError::Malformed(
                    "signature dimension above the selection's ceiling",
                ));
            }
            weight += d;
            dims.push(d as u16);
        }
        Ok(Self {
            dims,
            selection,
            weight,
        })
    }

    /// Preamble of [`within_distance`](Self::within_distance):
    /// dimensionality assert and the trivial decisions that need no
    /// dimension pass. `Ok` carries `(denom, bound)` for a real scan; `Err`
    /// is the early decision (both-zero signatures, or a non-positive
    /// threshold).
    #[inline]
    fn scan_bounds(&self, other: &Signature, threshold: f64) -> Result<(u64, u64), Option<f64>> {
        assert_eq!(
            self.dims.len(),
            other.dims.len(),
            "signatures must have equal dimensionality"
        );
        let denom = self.weight() + other.weight();
        if denom == 0 {
            // Both signatures are all-zero: defined distance 0.
            return Err((0.0 < threshold).then_some(0.0));
        }
        if threshold <= 0.0 {
            return Err(None);
        }
        // Any partial total strictly above this bound makes the final
        // normalized distance >= threshold, so a scan can stop early.
        Ok((denom, (threshold * denom as f64) as u64))
    }
}

/// The accept decision of [`Signature::within_distance`]: the
/// conservative integer cutoff rejects, then the exact float predicate —
/// the same one [`Signature::normalized_distance`] implies — decides.
#[inline]
fn accept_total(total: u64, bound: u64, denom: u64, threshold: f64) -> Option<f64> {
    if total > bound {
        return None;
    }
    let d = total as f64 / denom as f64;
    (d < threshold).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_trace::BranchEvent;

    fn acc_from(pairs: &[(u64, u32)], n: usize) -> AccumulatorTable {
        let mut acc = AccumulatorTable::new(n);
        for &(pc, insns) in pairs {
            acc.observe(BranchEvent::new(pc, insns));
        }
        acc
    }

    #[test]
    fn selection_tracks_average_magnitude() {
        // Larger averages select higher bits.
        let small = BitSelection::for_average(100, 6);
        let large = BitSelection::for_average(100_000, 6);
        assert!(large.low_bit() > small.low_bit());
    }

    #[test]
    fn selection_handles_zero_average() {
        let sel = BitSelection::for_average(0, 6);
        assert_eq!(sel.compress(0), 0);
        assert_eq!(sel.compress(3), 3);
    }

    #[test]
    fn compress_saturates_above_range() {
        let sel = BitSelection::for_average(1 << 10, 6);
        // Selection spans bits 12..=7. Bit 13 set => saturate.
        assert_eq!(sel.compress(1 << 20), sel.max_dim());
    }

    #[test]
    fn compress_extracts_selected_bits() {
        let sel = BitSelection::fixed(4, 6);
        assert_eq!(sel.compress(0b11_1111_0000), 0b11_1111);
        assert_eq!(sel.compress(0b01_0101_1111), 0b01_0101);
    }

    #[test]
    #[should_panic(expected = "bits per dimension")]
    fn zero_bits_rejected() {
        BitSelection::for_average(10, 0);
    }

    #[test]
    fn identical_accumulators_zero_distance() {
        let a = Signature::from_accumulator(&acc_from(&[(1, 100), (2, 200)], 8), 6);
        let b = Signature::from_accumulator(&acc_from(&[(1, 100), (2, 200)], 8), 6);
        assert_eq!(a.manhattan_distance(&b), 0);
        assert_eq!(a.normalized_distance(&b), 0.0);
    }

    #[test]
    fn disjoint_code_has_distance_one() {
        // Two intervals executing completely different code.
        let a = Signature::from_accumulator(&acc_from(&[(0x111, 1000)], 8), 6);
        let b = Signature::from_accumulator(&acc_from(&[(0x999, 1000)], 8), 6);
        // (Guard against unlucky hash collision of the two PCs.)
        let acc = AccumulatorTable::new(8);
        if acc.index_of(0x111) != acc.index_of(0x999) {
            assert!((a.normalized_distance(&b) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Signature::from_accumulator(&acc_from(&[(1, 10), (5, 300)], 8), 6);
        let b = Signature::from_accumulator(&acc_from(&[(5, 100), (9, 42)], 8), 6);
        assert_eq!(a.manhattan_distance(&b), b.manhattan_distance(&a));
    }

    #[test]
    fn empty_signatures_are_identical() {
        let a = Signature::from_accumulator(&AccumulatorTable::new(8), 6);
        let b = Signature::from_accumulator(&AccumulatorTable::new(8), 6);
        assert_eq!(a.normalized_distance(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn mismatched_dims_panic() {
        let a = Signature::from_accumulator(&AccumulatorTable::new(8), 6);
        let b = Signature::from_accumulator(&AccumulatorTable::new(16), 6);
        let _ = a.manhattan_distance(&b);
    }

    #[test]
    fn similar_intervals_have_small_distance() {
        // Same dominant code, slightly different proportions.
        let a = Signature::from_accumulator(&acc_from(&[(1, 10_000), (2, 5_000), (3, 100)], 16), 6);
        let b = Signature::from_accumulator(&acc_from(&[(1, 9_500), (2, 5_400), (3, 150)], 16), 6);
        let d = a.normalized_distance(&b);
        assert!(d < 0.125, "similar intervals should be within 12.5%: {d}");
    }

    #[test]
    fn cached_weight_matches_dims_sum() {
        let sig = Signature::from_accumulator(&acc_from(&[(1, 500), (7, 12_000)], 16), 6);
        let recomputed: u64 = sig.dims().iter().map(|&d| u64::from(d)).sum();
        assert_eq!(sig.weight(), recomputed);
    }

    #[test]
    fn buffer_reuse_builds_identical_signatures() {
        let acc = acc_from(&[(1, 10_000), (2, 5_000), (3, 100)], 16);
        let fresh = Signature::from_accumulator(&acc, 6);
        // A dirty recycled buffer (wrong contents, wrong length) must not
        // leak into the rebuilt signature.
        let recycled = vec![0xffffu16 >> 4; 3];
        let reused = Signature::from_accumulator_in(&acc, 6, recycled);
        assert_eq!(fresh, reused);
        assert_eq!(fresh.weight(), reused.weight());
        // The buffer round-trips out for the next interval.
        let buf = reused.into_dims();
        assert_eq!(buf.len(), 16);
        let again = Signature::from_accumulator_in(&acc, 6, buf);
        assert_eq!(fresh, again);
    }

    #[test]
    fn within_distance_matches_full_predicate_around_bound() {
        let a = Signature::from_accumulator(&acc_from(&[(1, 10_000), (2, 5_000), (3, 100)], 16), 6);
        let b = Signature::from_accumulator(&acc_from(&[(1, 9_500), (2, 5_400), (3, 150)], 16), 6);
        let d = a.normalized_distance(&b);
        assert!(d > 0.0, "fixture must have non-zero distance");

        // Strictly above the distance: accepted, same value.
        assert_eq!(a.within_distance(&b, d + 1e-9), Some(d));
        // Exactly at the distance: the predicate is strict, so rejected.
        assert_eq!(a.within_distance(&b, d), None);
        // Below the distance: rejected via the early exit.
        assert_eq!(a.within_distance(&b, d / 2.0), None);
    }

    #[test]
    fn within_distance_agrees_with_normalized_distance_randomized() {
        // Pseudo-random accumulator pairs at several dimensionalities and
        // thresholds: the thresholded scan must agree with the reference
        // predicate bit-for-bit.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [8usize, 16, 32, 64] {
            for _ in 0..50 {
                let pairs_a: Vec<_> = (0..20)
                    .map(|_| (next(), (next() % 50_000) as u32))
                    .collect();
                let pairs_b: Vec<_> = (0..20)
                    .map(|_| (next(), (next() % 50_000) as u32))
                    .collect();
                let a = Signature::from_accumulator(&acc_from(&pairs_a, n), 6);
                let b = Signature::from_accumulator(&acc_from(&pairs_b, n), 6);
                let reference = a.normalized_distance(&b);
                for threshold in [0.0, 0.125, 0.25, 0.5, 1.0, reference] {
                    let expect = (reference < threshold).then_some(reference);
                    assert_eq!(
                        a.within_distance(&b, threshold),
                        expect,
                        "n={n} threshold={threshold} reference={reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn within_distance_zero_denominator_is_identical() {
        let a = Signature::from_accumulator(&AccumulatorTable::new(8), 6);
        let b = Signature::from_accumulator(&AccumulatorTable::new(8), 6);
        assert_eq!(a.within_distance(&b, 0.25), Some(0.0));
        assert_eq!(a.within_distance(&b, 0.0), None);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn within_distance_mismatched_dims_panic() {
        let a = Signature::from_accumulator(&AccumulatorTable::new(8), 6);
        let b = Signature::from_accumulator(&AccumulatorTable::new(16), 6);
        let _ = a.within_distance(&b, 0.25);
    }

    #[test]
    fn six_bits_is_default_resolution() {
        let acc = acc_from(&[(1, 1000)], 8);
        let sig = Signature::from_accumulator(&acc, 6);
        assert!(sig.dims().iter().all(|&d| d <= 63));
        assert_eq!(sig.selection().bits_per_dim(), 6);
    }
}
