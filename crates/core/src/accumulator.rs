//! The accumulator table — step 2 of the tracking architecture.

use tpcp_trace::BranchEvent;

use crate::snapshot::{self, SnapReader, SnapshotError};

/// Saturation ceiling for each accumulator: 24 bits, as in the paper
/// ("each entry in the accumulator table is 24 bits, so it will never
/// overflow with 10 million instruction intervals").
pub(crate) const COUNTER_MAX: u64 = (1 << 24) - 1;

/// SplitMix64's finalizer: decorrelates the strongly structured low bits
/// of instruction addresses before masking them down to a bucket index.
/// Shared by every feature extractor that hashes PCs, so back-ends bucket
/// the same way and differ only in *what* they count.
#[inline]
pub(crate) fn mix64(pc: u64) -> u64 {
    let mut z = pc;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a power-of-two bucket table into a narrower one: `narrow[j]`
/// becomes `combine` over `wide[i]` for every `i ≡ j (mod narrow.len())`.
/// Every back-end buckets by `mix64(key) & (n − 1)`, so that is the
/// bucket a narrow table would have used.
pub(crate) fn fold_buckets(wide: &[u64], narrow: &mut [u64], combine: impl Fn(u64, u64) -> u64) {
    let n = narrow.len();
    assert!(
        n <= wide.len(),
        "can only fold into a narrower power-of-two table"
    );
    narrow.copy_from_slice(&wide[..n]);
    for chunk in wide[n..].chunks_exact(n) {
        for (acc, &c) in narrow.iter_mut().zip(chunk) {
            *acc = combine(*acc, c);
        }
    }
}

/// Folds a counter table into a narrower one by summing
/// ([`fold_buckets`]), clamped once at the 24-bit ceiling. The clamp is
/// exact: a chain of saturating adds of non-negative values equals one
/// clamp of their sum, so each wide counter is `min(sum, max)`, and
/// clamping a sum of those equals clamping the sum of the raw sums.
pub(crate) fn fold_counts(wide: &[u64], narrow: &mut [u64]) {
    fold_buckets(wide, narrow, |a, b| a + b);
    for sum in narrow {
        *sum = (*sum).min(COUNTER_MAX);
    }
}

/// An array of N saturating counters holding the signature of the current
/// interval (the paper's Figure 1).
///
/// Each committed branch PC is hashed into one of the N counters, and the
/// counter is incremented by the number of instructions committed since the
/// previous branch — tracking the *proportion* of the interval's execution
/// attributable to each bucket of static code.
///
/// # Example
///
/// ```
/// use tpcp_core::AccumulatorTable;
/// use tpcp_trace::BranchEvent;
///
/// let mut acc = AccumulatorTable::new(16);
/// acc.observe(BranchEvent::new(0x4000, 100));
/// acc.observe(BranchEvent::new(0x4000, 50));
/// assert_eq!(acc.total(), 150);
/// assert_eq!(acc.counters().iter().sum::<u64>(), 150);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumulatorTable {
    counters: Vec<u64>,
    total: u64,
    index_mask: u64,
}

impl AccumulatorTable {
    /// Creates a table of `n` counters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (the paper's dynamic bit
    /// selection divides by the counter count with a shift, which requires
    /// a power-of-two table).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "accumulator count must be a power of two"
        );
        Self {
            counters: vec![0; n],
            total: 0,
            index_mask: n as u64 - 1,
        }
    }

    /// Number of counters (the dimensionality of the projected signature).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table has observed nothing since the last reset.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The counter values.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Total instruction count accumulated since the last reset (used for
    /// the dynamic bit selection's average).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Average counter value — `total / n`, computed with a shift exactly
    /// as the hardware would.
    pub fn average(&self) -> u64 {
        self.total >> self.index_mask.count_ones()
    }

    /// Hashes a branch PC into a counter index.
    ///
    /// A 64-bit finalizer (SplitMix64's mixing function) decorrelates the
    /// low bits of instruction addresses, which are strongly structured.
    #[inline]
    pub fn index_of(&self, pc: u64) -> usize {
        (mix64(pc) & self.index_mask) as usize
    }

    /// Records one committed branch: hashes the PC and increments the
    /// selected counter by the block's instruction count (saturating at
    /// 24 bits).
    #[inline]
    pub fn observe(&mut self, ev: BranchEvent) {
        let idx = self.index_of(ev.pc);
        let c = &mut self.counters[idx];
        *c = (*c + u64::from(ev.insns)).min(COUNTER_MAX);
        self.total += u64::from(ev.insns);
    }

    /// Records `count` executions of one block at once: hashes the PC
    /// once and adds `insns × count`, the product saturating and the
    /// counter clamped once. A chain of saturating adds of non-negative
    /// values equals one clamp of their sum, so this leaves the state
    /// `count` calls to [`observe`](Self::observe) would.
    #[inline]
    pub(crate) fn observe_weighted(&mut self, ev: BranchEvent, count: u64) {
        let add = u64::from(ev.insns).saturating_mul(count);
        let idx = self.index_of(ev.pc);
        let c = &mut self.counters[idx];
        *c = c.saturating_add(add).min(COUNTER_MAX);
        self.total += add;
    }

    /// Folds this table into the narrower `narrow` (see [`fold_counts`]);
    /// the instruction total carries over.
    pub(crate) fn fold_into(&self, narrow: &mut Self) {
        fold_counts(&self.counters, &mut narrow.counters);
        narrow.total = self.total;
    }

    /// Clears all counters for the next interval.
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.total = 0;
    }

    /// Appends this table's state to a snapshot.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        snapshot::put_varint(out, self.counters.len() as u64);
        for &c in &self.counters {
            snapshot::put_varint(out, c);
        }
        snapshot::put_varint(out, self.total);
    }

    /// Restores a table from a snapshot, re-checking the constructor's
    /// invariants and recomputing the index mask.
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.bounded_count(1)?;
        if n == 0 || !n.is_power_of_two() {
            return Err(SnapshotError::Malformed(
                "accumulator count must be a power of two",
            ));
        }
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.varint()?;
            if c > COUNTER_MAX {
                return Err(SnapshotError::Malformed(
                    "accumulator counter above the 24-bit ceiling",
                ));
            }
            counters.push(c);
        }
        Ok(Self {
            counters,
            total: r.varint()?,
            index_mask: n as u64 - 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        AccumulatorTable::new(12);
    }

    #[test]
    fn observe_accumulates_by_hash_bucket() {
        let mut acc = AccumulatorTable::new(8);
        let idx = acc.index_of(0x1234);
        acc.observe(BranchEvent::new(0x1234, 10));
        acc.observe(BranchEvent::new(0x1234, 5));
        assert_eq!(acc.counters()[idx], 15);
    }

    #[test]
    fn same_pc_same_bucket() {
        let acc = AccumulatorTable::new(16);
        assert_eq!(acc.index_of(0xABCD), acc.index_of(0xABCD));
    }

    #[test]
    fn hash_spreads_sequential_pcs() {
        // Sequential branch addresses should not all collapse into a couple
        // of buckets.
        let acc = AccumulatorTable::new(16);
        let mut used = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            used.insert(acc.index_of(0x40_0000 + i * 4));
        }
        assert!(used.len() >= 12, "used {} of 16 buckets", used.len());
    }

    #[test]
    fn counters_saturate_at_24_bits() {
        let mut acc = AccumulatorTable::new(2);
        // Find a PC for bucket 0 and hammer it.
        let pc = (0..100u64).find(|&p| acc.index_of(p) == 0).unwrap();
        for _ in 0..10_000 {
            acc.observe(BranchEvent::new(pc, u32::MAX));
        }
        assert_eq!(acc.counters()[0], COUNTER_MAX);
    }

    #[test]
    fn average_uses_shift_semantics() {
        let mut acc = AccumulatorTable::new(4);
        acc.observe(BranchEvent::new(0, 103));
        assert_eq!(acc.average(), 103 / 4);
    }

    #[test]
    fn reset_clears_everything() {
        let mut acc = AccumulatorTable::new(4);
        acc.observe(BranchEvent::new(7, 9));
        acc.reset();
        assert!(acc.is_empty());
        assert!(acc.counters().iter().all(|&c| c == 0));
        assert_eq!(acc.total(), 0);
    }

    #[test]
    fn total_tracks_all_increments() {
        let mut acc = AccumulatorTable::new(4);
        for i in 0..10 {
            acc.observe(BranchEvent::new(i, 100));
        }
        assert_eq!(acc.total(), 1000);
    }
}
