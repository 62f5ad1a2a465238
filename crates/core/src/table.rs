//! The past-signature table (Figure 1) with LRU replacement and best-match
//! similarity search.

#[cfg(feature = "simd")]
use crate::columns::{ColumnStore, BLOCK};
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
/// Serializable so a process's phase-tracking state can be suspended and
/// resumed across context switches — the 10M-instruction granularity the
/// paper targets is explicitly "at the level of context switching".
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
    /// Column-major mirror of every entry's dimension vector, maintained
    /// incrementally by `insert`/`touch`/eviction and consumed by the
    /// SWAR block scan. See `crate::columns` for layout and the
    /// poisoning fallback for mixed-dimensionality tables.
    #[cfg(feature = "simd")]
    columns: ColumnStore,
    /// Route searches through the scalar per-entry scan even when the
    /// `simd` feature is compiled in (benchmark and equivalence knob).
    scalar_scan: bool,
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
            #[cfg(feature = "simd")]
            columns: ColumnStore::default(),
            scalar_scan: false,
            capacity,
            base_threshold,
            clock: 0,
            evictions: 0,
        }
    }

    /// Forces the scalar per-entry search even when the `simd` feature is
    /// compiled in. Both search paths return identical outcomes (same
    /// matches, same distances, same tie-breaks); this knob exists so
    /// benchmarks and equivalence tests can exercise both in one binary.
    /// A no-op without the feature, where scalar is the only path.
    pub fn set_scalar_scan(&mut self, scalar: bool) {
        self.scalar_scan = scalar;
    }

    /// Whether searches will take the SWAR column scan (`simd` feature
    /// compiled in, not overridden by
    /// [`set_scalar_scan`](Self::set_scalar_scan), and the column mirror
    /// is live — i.e. the table is not mixed-dimensionality).
    pub fn uses_simd_scan(&self) -> bool {
        #[cfg(feature = "simd")]
        {
            !self.scalar_scan
                && (self.entries.is_empty()
                    || self
                        .columns
                        .scannable(self.entries[0].signature.dims().len(), self.entries.len()))
        }
        #[cfg(not(feature = "simd"))]
        false
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
    ///
    /// Do not replace the entry's `signature` through this handle — use
    /// [`touch`](Self::touch), which also updates the column mirror the
    /// `simd` search scans. A signature swapped in here would desync the
    /// mirror (caught by a debug assertion on the next search).
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
        #[cfg(feature = "simd")]
        if self.take_column_scan(sig) {
            return self.find_best_match_columns(sig);
        }
        self.find_best_match_scalar(sig)
    }

    /// Finds the *first* entry within threshold, in table order — the prior
    /// work's policy, kept for the ablation benchmark.
    pub fn find_first_match(&self, sig: &Signature) -> MatchOutcome {
        #[cfg(feature = "simd")]
        if self.take_column_scan(sig) {
            return self.find_first_match_columns(sig);
        }
        self.find_first_match_scalar(sig)
    }

    /// The scalar reference search behind
    /// [`find_best_match`](Self::find_best_match): a per-entry
    /// early-exiting [`Signature::within_distance`] scan. Always compiled;
    /// benchmarks and equivalence tests call it directly to compare
    /// against the column scan in one binary.
    pub fn find_best_match_scalar(&self, sig: &Signature) -> MatchOutcome {
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

    /// The scalar reference search behind
    /// [`find_first_match`](Self::find_first_match).
    pub fn find_first_match_scalar(&self, sig: &Signature) -> MatchOutcome {
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

    /// Whether this probe should go through the column scan: the knob says
    /// so and the mirror can answer for this probe's dimensionality. A
    /// mixed-dimensionality table poisons the mirror, falls through to the
    /// scalar path, and panics there exactly as it did before the mirror
    /// existed.
    #[cfg(feature = "simd")]
    fn take_column_scan(&self, sig: &Signature) -> bool {
        !self.scalar_scan && self.columns.scannable(sig.dims().len(), self.entries.len())
    }

    /// Best-match search over the column mirror: exact Manhattan totals for
    /// [`BLOCK`] entries at a time from contiguous per-dimension columns,
    /// then the same accept predicate ([`signature::accept_entry`]) and the
    /// same strict `d < best` improvement rule as the scalar scan — so the
    /// winning index, distance, and tie-breaks (earliest entry wins equal
    /// distances) are bit-identical.
    #[cfg(feature = "simd")]
    fn find_best_match_columns(&self, sig: &Signature) -> MatchOutcome {
        let mut best: Option<(usize, f64)> = None;
        self.scan_columns(sig, |i, d| {
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
            true
        });
        match best {
            Some((index, distance)) => MatchOutcome::Matched { index, distance },
            None => MatchOutcome::NoMatch,
        }
    }

    /// First-match search over the column mirror. The block totals cover 16
    /// entries at a time, but accepts are consumed in entry order and the
    /// scan stops at the first, so the outcome matches the scalar
    /// table-order policy exactly.
    #[cfg(feature = "simd")]
    fn find_first_match_columns(&self, sig: &Signature) -> MatchOutcome {
        let mut found = MatchOutcome::NoMatch;
        self.scan_columns(sig, |i, d| {
            found = MatchOutcome::Matched {
                index: i,
                distance: d,
            };
            false
        });
        found
    }

    /// Streams the column mirror block by block, invoking `on_accept` for
    /// each entry (in table order) whose normalized distance passes its own
    /// threshold. `on_accept` returns whether to continue scanning.
    #[cfg(feature = "simd")]
    fn scan_columns(&self, sig: &Signature, mut on_accept: impl FnMut(usize, f64) -> bool) {
        let probe = sig.dims();
        let n = self.entries.len();
        let mut totals = [0u32; BLOCK];
        for base in (0..n).step_by(BLOCK) {
            self.columns.block_totals(probe, base, &mut totals);
            for (j, &block_total) in totals.iter().enumerate().take(n - base) {
                let i = base + j;
                let entry = &self.entries[i];
                let total = u64::from(block_total);
                debug_assert_eq!(
                    total,
                    sig.manhattan_distance(&entry.signature),
                    "column mirror out of sync at entry {i}"
                );
                let denom = sig.weight() + entry.signature.weight();
                if let Some(d) = crate::signature::accept_entry(total, denom, entry.threshold) {
                    if !on_accept(i, d) {
                        return;
                    }
                }
            }
        }
    }

    /// Marks an entry as just-used (moves it to MRU position in LRU order)
    /// and replaces its stored signature with the current one, as the
    /// architecture does on every match. Returns the displaced signature
    /// so callers can recycle its dimension buffer
    /// ([`Signature::into_dims`]).
    pub fn touch(&mut self, index: usize, current: Signature) -> Signature {
        self.clock += 1;
        #[cfg(feature = "simd")]
        self.columns.replace(index, current.dims());
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
                #[cfg(feature = "simd")]
                self.columns.swap_remove(lru);
                self.evictions += 1;
            }
        }
        #[cfg(feature = "simd")]
        self.columns.push(sig.dims());
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
        out.push(u8::from(self.scalar_scan));
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
    /// invariants and rebuilding the simd column mirror entry by entry (in
    /// table order, so the mirror matches an incrementally built one).
    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let scalar_scan = r.u8()? != 0;
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
        let mut table = Self {
            entries: Vec::with_capacity(n),
            #[cfg(feature = "simd")]
            columns: ColumnStore::default(),
            scalar_scan,
            capacity,
            base_threshold,
            clock,
            evictions,
        };
        for _ in 0..n {
            let signature = Signature::snap_read(r)?;
            let phase_id = match r.u8()? {
                0 => None,
                _ => Some(PhaseId::new(u32::try_from(r.varint()?).map_err(|_| {
                    SnapshotError::Malformed("phase ID exceeds 32 bits")
                })?)),
            };
            let entry = TableEntry {
                signature,
                phase_id,
                min_counter: r.u8()?,
                threshold: r.f64()?,
                cpi_mean: r.f64()?,
                cpi_samples: r.varint()?,
                stamp: r.varint()?,
            };
            #[cfg(feature = "simd")]
            table.columns.push(entry.signature.dims());
            table.entries.push(entry);
        }
        Ok(table)
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

    #[cfg(feature = "simd")]
    mod simd {
        use super::*;

        fn rng() -> impl FnMut() -> u64 {
            let mut state = 0xB504_F333_F9DE_6484u64;
            move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            }
        }

        /// Searches through both paths and asserts bit-identical outcomes
        /// (index, distance, and tie-breaks all ride the same comparisons).
        fn assert_scan_agreement(table: &SignatureTable, probe: &Signature) {
            assert!(
                table.uses_simd_scan(),
                "fixture must exercise the column scan"
            );
            assert_eq!(
                table.find_best_match(probe),
                table.find_best_match_scalar(probe),
                "best match diverged"
            );
            assert_eq!(
                table.find_first_match(probe),
                table.find_first_match_scalar(probe),
                "first match diverged"
            );
        }

        #[test]
        fn simd_column_scan_matches_scalar_through_lru_churn() {
            let mut next = rng();
            // Small capacity: evictions and touches constantly reshuffle the
            // mirror. Threshold 1.0 keeps many entries in play per search.
            let mut table = SignatureTable::new(Some(24), 1.0);
            let mut probes: Vec<Signature> = Vec::new();
            for step in 0..300 {
                let sig = sig_of(&[
                    (next() % 0x40_000, (next() % 40_000) as u32),
                    (next() % 0x40_000, (next() % 40_000) as u32),
                    (next() % 0x40_000, (next() % 40_000) as u32),
                ]);
                assert_scan_agreement(&table, &sig);
                // With threshold 1.0 nearly every probe matches, so force a
                // periodic insert to drive the table to capacity and churn
                // the LRU; otherwise mimic the classifier (touch on match,
                // insert on miss).
                match table.find_best_match(&sig) {
                    MatchOutcome::Matched { index, .. } if step % 3 != 0 => {
                        table.touch(index, sig.clone());
                    }
                    _ => {
                        table.insert(sig.clone());
                    }
                }
                if step % 7 == 0 {
                    probes.push(sig);
                }
                for probe in &probes {
                    assert_scan_agreement(&table, probe);
                }
            }
            assert!(table.evictions() > 0, "fixture must churn the LRU");
        }

        #[test]
        fn simd_scalar_scan_knob_forces_fallback() {
            let mut table = SignatureTable::new(Some(4), 0.25);
            let sig = sig_of(&[(0x1000, 1000)]);
            table.insert(sig.clone());
            assert!(table.uses_simd_scan());
            table.set_scalar_scan(true);
            assert!(!table.uses_simd_scan());
            assert!(matches!(
                table.find_best_match(&sig),
                MatchOutcome::Matched { distance: d, .. } if d == 0.0
            ));
            table.set_scalar_scan(false);
            assert!(table.uses_simd_scan());
        }

        #[test]
        fn simd_tied_distances_keep_earliest_entry() {
            // Two entries equidistant from the probe: both paths must pick
            // the earliest index (strict `<` improvement).
            let mut table = SignatureTable::new(Some(4), 1.0);
            table.insert(sig_of(&[(0x1000, 600), (0x5000, 400)]));
            table.insert(sig_of(&[(0x1000, 600), (0x5000, 400)]));
            let probe = sig_of(&[(0x1000, 1000)]);
            let scalar = table.find_best_match_scalar(&probe);
            let simd = table.find_best_match(&probe);
            assert_eq!(scalar, simd);
            assert!(matches!(simd, MatchOutcome::Matched { index: 0, .. }));
        }

        #[test]
        fn simd_zero_weight_probe_matches_like_scalar() {
            let mut table = SignatureTable::new(Some(4), 0.25);
            table.insert(sig_of(&[])); // all-zero signature
            let probe = sig_of(&[]);
            assert_scan_agreement(&table, &probe);
            assert!(matches!(
                table.find_best_match(&probe),
                MatchOutcome::Matched { distance: d, .. } if d == 0.0
            ));
        }
    }
}
