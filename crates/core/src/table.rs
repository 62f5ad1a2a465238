//! The past-signature table (Figure 1) with LRU replacement and best-match
//! similarity search.

use crate::phase_id::PhaseId;
use crate::signature::Signature;
use crate::snapshot::{self, SnapReader, SnapshotError};

/// One signature table entry.
///
/// Alongside the stored signature, each entry carries the paper's
/// extensions: the Min Counter that gates promotion out of the transition
/// phase (Section 4.4), a per-entry similarity threshold that the adaptive
/// classifier can tighten (Section 4.6), and the running CPI statistics the
/// tightening decision is based on.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// The representative signature for this (proto-)phase.
    pub signature: Signature,
    /// The real phase ID, once promoted; `None` while still in transition.
    pub phase_id: Option<PhaseId>,
    /// Saturating count of intervals classified into this entry.
    pub min_counter: u8,
    /// This entry's similarity threshold (normalized distance bound).
    pub threshold: f64,
    /// Running mean CPI of intervals classified here since the last clear.
    pub cpi_mean: f64,
    /// Number of CPI samples in `cpi_mean`.
    pub cpi_samples: u64,
    stamp: u64,
}

impl TableEntry {
    /// Folds a CPI observation into the running mean.
    pub fn record_cpi(&mut self, cpi: f64) {
        self.cpi_samples += 1;
        self.cpi_mean += (cpi - self.cpi_mean) / self.cpi_samples as f64;
    }

    /// Clears the CPI statistics (used after a threshold tightening, and by
    /// callers reacting to a hardware reconfiguration that changes CPI).
    pub fn clear_cpi(&mut self) {
        self.cpi_mean = 0.0;
        self.cpi_samples = 0;
    }
}

/// Result of searching the table for the current interval's signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchOutcome {
    /// A past signature within the similarity threshold was found; `index`
    /// is the best-matching entry and `distance` its normalized distance.
    Matched {
        /// Index of the best-matching entry.
        index: usize,
        /// Normalized distance to that entry.
        distance: f64,
    },
    /// No stored signature was within threshold.
    NoMatch,
}

/// The past-signature table: bounded (or unbounded) storage of previously
/// seen signatures with LRU replacement.
///
/// A classifier's table is saved and restored with it through
/// [`PhaseClassifier::snapshot`](crate::PhaseClassifier::snapshot) and
/// [`PhaseClassifier::from_snapshot`](crate::PhaseClassifier::from_snapshot),
/// so a process's phase-tracking state can be suspended and resumed across
/// context switches — the 10M-instruction granularity the paper targets is
/// explicitly "at the level of context switching".
///
/// # Example
///
/// ```
/// use tpcp_core::{AccumulatorTable, MatchOutcome, Signature, SignatureTable};
/// use tpcp_trace::BranchEvent;
///
/// let mut table = SignatureTable::new(Some(32), 0.25);
/// let mut acc = AccumulatorTable::new(16);
/// acc.observe(BranchEvent::new(0x1000, 5_000));
/// let sig = Signature::from_accumulator(&acc, 6);
///
/// assert_eq!(table.find_best_match(&sig), MatchOutcome::NoMatch);
/// table.insert(sig.clone());
/// assert!(matches!(table.find_best_match(&sig), MatchOutcome::Matched { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct SignatureTable {
    entries: Vec<TableEntry>,
    capacity: Option<usize>,
    base_threshold: f64,
    clock: u64,
    evictions: u64,
}

impl SignatureTable {
    /// Creates a table holding at most `capacity` signatures (`None` for
    /// the unbounded table used as the infinite-entry baseline), matching
    /// with the given base similarity threshold.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)` or the threshold is not in
    /// `(0, 1]`.
    pub fn new(capacity: Option<usize>, base_threshold: f64) -> Self {
        if let Some(c) = capacity {
            assert!(c > 0, "table capacity must be positive");
        }
        assert!(
            base_threshold > 0.0 && base_threshold <= 1.0,
            "similarity threshold must be in (0, 1]"
        );
        Self {
            entries: Vec::new(),
            capacity,
            base_threshold,
            clock: 0,
            evictions: 0,
        }
    }

    /// The base similarity threshold new entries start with.
    pub fn base_threshold(&self) -> f64 {
        self.base_threshold
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Shared access to an entry.
    pub fn entry(&self, index: usize) -> &TableEntry {
        &self.entries[index]
    }

    /// Mutable access to an entry (the classifier updates min counters,
    /// thresholds, and CPI statistics through this).
    pub fn entry_mut(&mut self, index: usize) -> &mut TableEntry {
        &mut self.entries[index]
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &TableEntry> {
        self.entries.iter()
    }

    /// Finds the entry most similar to `sig` among those within their own
    /// similarity threshold.
    ///
    /// The paper classifies into the *most similar* matching signature
    /// (best match), not the first match — Section 4.1, step 3.
    pub fn find_best_match(&self, sig: &Signature) -> MatchOutcome {
        let mut best: Option<(usize, f64)> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            // The per-entry threshold bounds the search, so the thresholded
            // early-exit scan replaces the full distance computation; the
            // running best is a further cutoff for entries that pass.
            if let Some(d) = sig.within_distance(&entry.signature, entry.threshold) {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
        }
        match best {
            Some((index, distance)) => MatchOutcome::Matched { index, distance },
            None => MatchOutcome::NoMatch,
        }
    }

    /// Finds the *first* entry within threshold, in table order — the prior
    /// work's policy, kept for the ablation benchmark.
    pub fn find_first_match(&self, sig: &Signature) -> MatchOutcome {
        for (i, entry) in self.entries.iter().enumerate() {
            if let Some(d) = sig.within_distance(&entry.signature, entry.threshold) {
                return MatchOutcome::Matched {
                    index: i,
                    distance: d,
                };
            }
        }
        MatchOutcome::NoMatch
    }

    /// Marks an entry as just-used (moves it to MRU position in LRU order)
    /// and replaces its stored signature with the current one, as the
    /// architecture does on every match. Returns the displaced signature
    /// so callers can recycle its dimension buffer
    /// ([`Signature::into_dims`]).
    pub fn touch(&mut self, index: usize, current: Signature) -> Signature {
        self.clock += 1;
        let entry = &mut self.entries[index];
        let displaced = std::mem::replace(&mut entry.signature, current);
        entry.stamp = self.clock;
        displaced
    }

    /// Inserts a new signature, evicting the LRU entry if at capacity.
    /// Returns the new entry's index.
    ///
    /// The new entry starts with Min Counter 1 (this interval is its first
    /// appearance), no phase ID, and the base similarity threshold.
    pub fn insert(&mut self, sig: Signature) -> usize {
        self.clock += 1;
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                    .expect("capacity > 0 implies non-empty at cap");
                self.entries.swap_remove(lru);
                self.evictions += 1;
            }
        }
        self.entries.push(TableEntry {
            signature: sig,
            phase_id: None,
            min_counter: 1,
            threshold: self.base_threshold,
            cpi_mean: 0.0,
            cpi_samples: 0,
            stamp: self.clock,
        });
        self.entries.len() - 1
    }

    /// Appends the full table state — entries with their private LRU
    /// stamps included — to a snapshot.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        match self.capacity {
            Some(c) => {
                out.push(1);
                snapshot::put_varint(out, c as u64);
            }
            None => out.push(0),
        }
        snapshot::put_f64(out, self.base_threshold);
        snapshot::put_varint(out, self.clock);
        snapshot::put_varint(out, self.evictions);
        snapshot::put_varint(out, self.entries.len() as u64);
        for entry in &self.entries {
            entry.signature.snap_write(out);
            match entry.phase_id {
                Some(id) => {
                    out.push(1);
                    snapshot::put_varint(out, u64::from(id.value()));
                }
                None => out.push(0),
            }
            out.push(entry.min_counter);
            snapshot::put_f64(out, entry.threshold);
            snapshot::put_f64(out, entry.cpi_mean);
            snapshot::put_varint(out, entry.cpi_samples);
            snapshot::put_varint(out, entry.stamp);
        }
    }

    /// Restores a table from a snapshot, re-checking the constructor's
    /// invariants.
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let capacity = match r.u8()? {
            0 => None,
            _ => Some(r.varint()? as usize),
        };
        if capacity == Some(0) {
            return Err(SnapshotError::Malformed("table capacity must be positive"));
        }
        let base_threshold = r.f64()?;
        let threshold_ok = base_threshold > 0.0 && base_threshold <= 1.0;
        if !threshold_ok {
            return Err(SnapshotError::Malformed(
                "similarity threshold must be in (0, 1]",
            ));
        }
        let clock = r.varint()?;
        let evictions = r.varint()?;
        // Each entry costs at least a signature header (3 varints) plus
        // the fixed fields.
        let n = r.bounded_count(3 + 1 + 1 + 8 + 8 + 1 + 1)?;
        if let Some(cap) = capacity {
            if n > cap {
                return Err(SnapshotError::Malformed("more entries than capacity"));
            }
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let signature = Signature::snap_read(r)?;
            let phase_id = match r.u8()? {
                0 => None,
                _ => Some(PhaseId::new(u32::try_from(r.varint()?).map_err(|_| {
                    SnapshotError::Malformed("phase ID exceeds 32 bits")
                })?)),
            };
            entries.push(TableEntry {
                signature,
                phase_id,
                min_counter: r.u8()?,
                threshold: r.f64()?,
                cpi_mean: r.f64()?,
                cpi_samples: r.varint()?,
                stamp: r.varint()?,
            });
        }
        Ok(Self {
            entries,
            capacity,
            base_threshold,
            clock,
            evictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::AccumulatorTable;
    use tpcp_trace::BranchEvent;

    fn sig_of(pairs: &[(u64, u32)]) -> Signature {
        let mut acc = AccumulatorTable::new(16);
        for &(pc, insns) in pairs {
            acc.observe(BranchEvent::new(pc, insns));
        }
        Signature::from_accumulator(&acc, 6)
    }

    #[test]
    fn empty_table_never_matches() {
        let table = SignatureTable::new(Some(4), 0.25);
        assert_eq!(
            table.find_best_match(&sig_of(&[(1, 100)])),
            MatchOutcome::NoMatch
        );
    }

    #[test]
    fn exact_signature_matches_at_zero_distance() {
        let mut table = SignatureTable::new(Some(4), 0.25);
        let sig = sig_of(&[(1, 1000), (2, 500)]);
        table.insert(sig.clone());
        match table.find_best_match(&sig) {
            MatchOutcome::Matched { distance, .. } => assert_eq!(distance, 0.0),
            MatchOutcome::NoMatch => panic!("should match"),
        }
    }

    #[test]
    fn dissimilar_signature_does_not_match() {
        let mut table = SignatureTable::new(Some(4), 0.25);
        table.insert(sig_of(&[(0x1000, 1000)]));
        assert_eq!(
            table.find_best_match(&sig_of(&[(0x9999, 1000)])),
            MatchOutcome::NoMatch
        );
    }

    #[test]
    fn best_match_prefers_most_similar() {
        let mut table = SignatureTable::new(Some(4), 1.0); // everything matches
        let far = sig_of(&[(0x9999, 1000)]);
        let near = sig_of(&[(0x1000, 990), (0x2000, 10)]);
        table.insert(far);
        table.insert(near);
        let probe = sig_of(&[(0x1000, 1000)]);
        match table.find_best_match(&probe) {
            MatchOutcome::Matched { index, .. } => assert_eq!(index, 1, "nearest entry wins"),
            MatchOutcome::NoMatch => panic!("threshold 1.0 must match"),
        }
    }

    #[test]
    fn first_match_takes_table_order() {
        let mut table = SignatureTable::new(Some(4), 1.0);
        // Entry 0 half-overlaps the probe (distance ~0.5); entry 1 is exact.
        table.insert(sig_of(&[(0x1000, 500), (0x9999, 500)]));
        table.insert(sig_of(&[(0x1000, 1000)]));
        let probe = sig_of(&[(0x1000, 1000)]);
        match table.find_first_match(&probe) {
            MatchOutcome::Matched { index, .. } => assert_eq!(index, 0, "first within threshold"),
            MatchOutcome::NoMatch => panic!("threshold 1.0 must match"),
        }
        match table.find_best_match(&probe) {
            MatchOutcome::Matched { index, .. } => assert_eq!(index, 1, "best match differs"),
            MatchOutcome::NoMatch => panic!("threshold 1.0 must match"),
        }
    }

    #[test]
    fn lru_eviction_removes_least_recent() {
        let mut table = SignatureTable::new(Some(2), 0.25);
        let a = sig_of(&[(0x1000, 1000)]);
        let b = sig_of(&[(0x2000, 1000)]);
        let c = sig_of(&[(0x3000, 1000)]);
        table.insert(a.clone());
        let b_idx = table.insert(b.clone());
        table.touch(b_idx, b.clone()); // b is MRU, a is LRU
        table.insert(c); // evicts a
        assert_eq!(table.len(), 2);
        assert_eq!(table.evictions(), 1);
        assert_eq!(table.find_best_match(&a), MatchOutcome::NoMatch);
        assert!(matches!(
            table.find_best_match(&b),
            MatchOutcome::Matched { .. }
        ));
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let mut table = SignatureTable::new(None, 0.25);
        for i in 0..1000u64 {
            table.insert(sig_of(&[(i * 0x40, 1000)]));
        }
        assert_eq!(table.len(), 1000);
        assert_eq!(table.evictions(), 0);
    }

    #[test]
    fn touch_replaces_signature() {
        let mut table = SignatureTable::new(Some(4), 0.25);
        let old = sig_of(&[(0x1000, 1000)]);
        let new = sig_of(&[(0x1000, 900), (0x2000, 100)]);
        let idx = table.insert(old);
        table.touch(idx, new.clone());
        assert_eq!(table.entry(idx).signature, new);
    }

    #[test]
    fn running_cpi_mean() {
        let mut e = TableEntry {
            signature: sig_of(&[(1, 1)]),
            phase_id: None,
            min_counter: 1,
            threshold: 0.25,
            cpi_mean: 0.0,
            cpi_samples: 0,
            stamp: 0,
        };
        e.record_cpi(1.0);
        e.record_cpi(2.0);
        e.record_cpi(3.0);
        assert!((e.cpi_mean - 2.0).abs() < 1e-12);
        e.clear_cpi();
        assert_eq!(e.cpi_samples, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SignatureTable::new(Some(0), 0.25);
    }

    #[test]
    #[should_panic(expected = "similarity threshold")]
    fn bad_threshold_rejected() {
        SignatureTable::new(Some(4), 0.0);
    }
}
