//! A data TLB with LRU replacement over fixed-size pages.

/// Translation lookaside buffer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed (charged the fixed miss latency).
    pub misses: u64,
}

/// A fully-associative TLB with LRU replacement.
///
/// Table 1 specifies 8K-byte pages with a 30-cycle fixed miss latency; the
/// entry count is not given, so we default to 64 entries (SimpleScalar's
/// default DTLB size is 64 as well) — documented as a modeling choice in
/// DESIGN.md.
///
/// # Example
///
/// ```
/// use tpcp_uarch::Tlb;
///
/// let mut tlb = Tlb::new(4, 8192);
/// assert!(!tlb.access(0x0000));       // cold
/// assert!(tlb.access(0x1fff));        // same 8K page
/// assert!(!tlb.access(0x2000));       // next page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page, stamp)
    capacity: usize,
    page_shift: u32,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB holding `capacity` translations of `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_shift: page_bytes.trailing_zeros(),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// The Table 1 configuration: 8K pages, 64 entries.
    pub fn hpca2005() -> Self {
        Self::new(64, 8192)
    }

    /// Translates the page containing `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr >> self.page_shift;
        if let Some(entry) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            entry.1 = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.entries.swap_remove(lru);
        }
        self.entries.push((page, self.clock));
        false
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics without invalidating translations.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity() {
        let mut tlb = Tlb::new(8, 8192);
        tlb.access(0x0);
        assert!(tlb.access(8191));
        assert!(!tlb.access(8192));
    }

    #[test]
    fn lru_replacement() {
        let mut tlb = Tlb::new(2, 8192);
        tlb.access(0x0000); // page 0
        tlb.access(0x2000); // page 1
        tlb.access(0x0000); // page 0 is MRU
        tlb.access(0x4000); // evicts page 1
        assert!(tlb.access(0x0000));
        assert!(!tlb.access(0x2000));
    }

    #[test]
    fn stats_accumulate() {
        let mut tlb = Tlb::new(2, 8192);
        tlb.access(0x0);
        tlb.access(0x0);
        tlb.access(0x2000);
        let s = tlb.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        tlb.reset_stats();
        assert_eq!(tlb.stats(), TlbStats::default());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        Tlb::new(0, 8192);
    }

    #[test]
    fn random_pages_beyond_capacity_thrash() {
        let mut tlb = Tlb::new(4, 8192);
        for lap in 0..3 {
            for page in 0..16u64 {
                let hit = tlb.access(page * 8192);
                if lap > 0 {
                    // Sequential sweep over 16 pages with 4 entries: LRU
                    // guarantees zero hits.
                    assert!(!hit);
                }
            }
        }
    }
}
