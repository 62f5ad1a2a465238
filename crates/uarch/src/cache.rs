//! Set-associative caches with true-LRU replacement.

/// Whether an access reads or writes. Writes allocate like reads
/// (write-allocate), matching SimpleScalar's default cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

/// Geometry of one cache level.
///
/// # Example
///
/// ```
/// use tpcp_uarch::CacheConfig;
///
/// let l1 = CacheConfig::new(16 * 1024, 4, 32);
/// assert_eq!(l1.num_sets(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Block (line) size in bytes. Must be a power of two.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `block_bytes` is not a power of
    /// two, or if the geometry does not divide evenly into sets.
    pub fn new(size_bytes: u64, assoc: usize, block_bytes: u64) -> Self {
        assert!(
            size_bytes > 0 && assoc > 0 && block_bytes > 0,
            "zero cache dimension"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let cfg = Self {
            size_bytes,
            assoc,
            block_bytes,
        };
        let blocks = size_bytes / block_bytes;
        assert!(
            blocks.is_multiple_of(assoc as u64) && blocks >= assoc as u64,
            "cache size must divide into whole sets"
        );
        assert!(
            cfg.num_sets().is_power_of_two(),
            "set count must be a power of two"
        );
        cfg
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / self.block_bytes / self.assoc as u64
    }
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines evicted by replacement.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that hit; `0.0` when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of accesses that missed; `0.0` when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// Supports dynamically reducing the number of active ways (for the
/// phase-guided cache reconfiguration example in the workspace root), as in
/// the selective-cache-ways energy optimizations the paper cites as
/// consumers of phase information.
///
/// # Example
///
/// ```
/// use tpcp_uarch::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 32));
/// assert!(!c.access(0x0, AccessKind::Read));  // cold miss
/// assert!(c.access(0x0, AccessKind::Read));   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    block_shift: u32,
    active_ways: usize,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry, all ways active.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        Self {
            config,
            sets: vec![vec![Line::default(); config.assoc]; num_sets as usize],
            set_mask: num_sets - 1,
            block_shift: config.block_bytes.trailing_zeros(),
            active_ways: config.assoc,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of currently active ways.
    pub fn active_ways(&self) -> usize {
        self.active_ways
    }

    /// Activates exactly `ways` ways per set, invalidating lines in ways
    /// that are being turned off.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the configured associativity.
    pub fn set_active_ways(&mut self, ways: usize) {
        assert!(
            ways >= 1 && ways <= self.config.assoc,
            "active ways must be in 1..={}",
            self.config.assoc
        );
        if ways < self.active_ways {
            for set in &mut self.sets {
                for line in set.iter_mut().skip(ways) {
                    line.valid = false;
                }
            }
        }
        self.active_ways = ways;
    }

    /// Invalidates every line and resets the LRU clock (not the statistics).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set.iter_mut() {
                line.valid = false;
            }
        }
        self.clock = 0;
    }

    /// Performs one access; returns `true` on hit.
    ///
    /// Misses allocate (write-allocate policy), evicting the LRU line of the
    /// set when necessary.
    pub fn access(&mut self, addr: u64, _kind: AccessKind) -> bool {
        self.clock += 1;
        let block = addr >> self.block_shift;
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.count_ones();
        let active = self.active_ways;
        let set = &mut self.sets[set_idx];

        for line in set.iter_mut().take(active) {
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;

        // Choose victim: first invalid way, else LRU among active ways.
        let victim = set
            .iter()
            .take(active)
            .position(|l| !l.valid)
            .unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .take(active)
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("active >= 1")
            });
        if set[victim].valid {
            self.stats.evictions += 1;
        }
        set[victim] = Line {
            tag,
            valid: true,
            stamp: self.clock,
        };
        false
    }

    /// Installs the block containing `addr` without recording a demand
    /// access (used for prefetch fills). Evicts the LRU line if needed and
    /// counts the eviction, but neither a hit nor a miss.
    pub fn fill(&mut self, addr: u64) {
        if self.probe(addr) {
            return;
        }
        self.clock += 1;
        let block = addr >> self.block_shift;
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.count_ones();
        let active = self.active_ways;
        let clock = self.clock;
        let set = &mut self.sets[set_idx];
        let victim = set
            .iter()
            .take(active)
            .position(|l| !l.valid)
            .unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .take(active)
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("active >= 1")
            });
        if set[victim].valid {
            self.stats.evictions += 1;
        }
        set[victim] = Line {
            tag,
            valid: true,
            stamp: clock,
        };
    }

    /// Whether the block containing `addr` is currently resident (no state
    /// change, no statistics update).
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.block_shift;
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.count_ones();
        self.sets[set_idx]
            .iter()
            .take(self.active_ways)
            .any(|l| l.valid && l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets, 2 ways, 32B blocks.
        Cache::new(CacheConfig::new(256, 2, 32))
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new(16 * 1024, 4, 32);
        assert_eq!(cfg.num_sets(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_rejected() {
        CacheConfig::new(1024, 2, 48);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, AccessKind::Read));
        assert!(c.access(0x1000, AccessKind::Read));
        assert!(c.access(0x101f, AccessKind::Read), "same 32B block");
        assert!(!c.access(0x1020, AccessKind::Read), "next block");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three blocks mapping to the same set (set stride = 4 sets * 32B = 128B).
        let a = 0x0000;
        let b = 0x0080;
        let d = 0x0100;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        c.access(d, AccessKind::Read); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn eviction_counted() {
        let mut c = tiny();
        for i in 0..3 {
            c.access(i * 0x80, AccessKind::Read);
        }
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn disabling_ways_shrinks_capacity() {
        let mut c = tiny();
        c.access(0x0000, AccessKind::Read);
        c.access(0x0080, AccessKind::Read); // both resident in 2 ways
        assert!(c.probe(0x0000) && c.probe(0x0080));
        c.set_active_ways(1);
        // Way 1 invalidated; at most one of the two survives.
        let resident = [0x0000, 0x0080].iter().filter(|&&a| c.probe(a)).count();
        assert!(resident <= 1);
        // Direct-mapped behaviour now: two conflicting blocks thrash.
        c.access(0x0000, AccessKind::Read);
        c.access(0x0080, AccessKind::Read);
        assert!(!c.probe(0x0000));
    }

    #[test]
    #[should_panic(expected = "active ways")]
    fn zero_ways_rejected() {
        tiny().set_active_ways(0);
    }

    #[test]
    fn reenabling_ways_restores_associativity() {
        let mut c = tiny();
        c.set_active_ways(1);
        c.set_active_ways(2);
        c.access(0x0000, AccessKind::Read);
        c.access(0x0080, AccessKind::Read);
        assert!(c.probe(0x0000) && c.probe(0x0080));
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = tiny();
        c.access(0x0, AccessKind::Read);
        c.flush();
        assert!(!c.probe(0x0));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0x0, AccessKind::Read);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x4000));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn hit_and_miss_rates() {
        let mut c = tiny();
        c.access(0x0, AccessKind::Read);
        c.access(0x0, AccessKind::Read);
        c.access(0x0, AccessKind::Read);
        c.access(0x0, AccessKind::Read);
        let s = c.stats();
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn writes_allocate() {
        let mut c = tiny();
        assert!(!c.access(0x40, AccessKind::Write));
        assert!(c.access(0x40, AccessKind::Read));
    }

    #[test]
    fn streaming_larger_than_cache_always_misses_after_warmup() {
        let mut c = tiny(); // 256B capacity
                            // Stream over 4KB repeatedly with 32B stride: every access misses
                            // after the first lap because the reuse distance exceeds capacity.
        for _ in 0..4 {
            for addr in (0..4096u64).step_by(32) {
                c.access(addr, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }
}
