//! The composed memory hierarchy: L1 I/D, unified L2, and data TLB.

use crate::cache::{AccessKind, Cache, CacheStats};
use crate::config::MachineConfig;
use crate::prefetch::StridePrefetcher;
use crate::tlb::Tlb;

/// Where a data access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataAccessOutcome {
    /// Hit in the L1 data cache.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both levels; serviced by memory.
    Memory,
}

/// The Table 1 memory hierarchy wired together.
///
/// Instruction fetches probe IL1 then L2; data accesses probe the TLB, DL1,
/// then L2. The hierarchy only reports where each access was satisfied —
/// the [`TimingModel`](crate::TimingModel) turns outcome counts into cycles.
///
/// # Example
///
/// ```
/// use tpcp_uarch::{DataAccessOutcome, MachineConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(&MachineConfig::hpca2005());
/// assert_eq!(mem.access_data(0x1_0000, false), DataAccessOutcome::Memory);
/// assert_eq!(mem.access_data(0x1_0000, false), DataAccessOutcome::L1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    tlb: Tlb,
    tlb_miss_count: u64,
    prefetcher: StridePrefetcher,
    prefetch_fills: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        Self {
            il1: Cache::new(config.il1),
            dl1: Cache::new(config.dl1),
            l2: Cache::new(config.l2),
            tlb: Tlb::new(config.tlb_entries, config.page_bytes),
            tlb_miss_count: 0,
            prefetcher: StridePrefetcher::new(config.prefetch_degree),
            prefetch_fills: 0,
        }
    }

    /// Fetches the instruction block at `pc`; returns `true` if it required
    /// going to L2 or beyond (an IL1 miss), and whether L2 also missed.
    ///
    /// Returns `(il1_miss, l2_miss)`.
    pub fn fetch_instruction(&mut self, pc: u64) -> (bool, bool) {
        if self.il1.access(pc, AccessKind::Read) {
            (false, false)
        } else {
            let l2_hit = self.l2.access(pc, AccessKind::Read);
            (true, !l2_hit)
        }
    }

    /// Performs a data access and reports where it was satisfied.
    ///
    /// The TLB is probed on every data access; TLB misses are counted
    /// separately (see [`take_tlb_misses`](Self::take_tlb_misses)) because
    /// their latency is charged independently of the cache outcome.
    pub fn access_data(&mut self, addr: u64, write: bool) -> DataAccessOutcome {
        if !self.tlb.access(addr) {
            self.tlb_miss_count += 1;
        }
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let outcome = if self.dl1.access(addr, kind) {
            DataAccessOutcome::L1
        } else if self.l2.access(addr, kind) {
            DataAccessOutcome::L2
        } else {
            DataAccessOutcome::Memory
        };
        if outcome != DataAccessOutcome::L1 {
            // Demand miss: let the (possibly disabled) stride prefetcher
            // pull upcoming lines into DL1 and L2. Prefetch fills are
            // tracked but charged no demand latency (they overlap with the
            // triggering miss in a real memory system).
            for pf_addr in self.prefetcher.on_miss(addr) {
                if !self.dl1.probe(pf_addr) {
                    self.dl1.fill(pf_addr);
                    self.l2.fill(pf_addr);
                    self.prefetch_fills += 1;
                }
            }
        }
        outcome
    }

    /// Lines brought in by the prefetcher so far.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Returns and clears the TLB miss count accumulated since the last call.
    pub fn take_tlb_misses(&mut self) -> u64 {
        std::mem::take(&mut self.tlb_miss_count)
    }

    /// L1 instruction cache statistics.
    pub fn il1_stats(&self) -> CacheStats {
        self.il1.stats()
    }

    /// L1 data cache statistics.
    pub fn dl1_stats(&self) -> CacheStats {
        self.dl1.stats()
    }

    /// Unified L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Shared access to the data cache.
    pub fn dl1(&self) -> &Cache {
        &self.dl1
    }

    /// Mutable access to the data cache (e.g. for way reconfiguration).
    pub fn dl1_mut(&mut self) -> &mut Cache {
        &mut self.dl1
    }

    /// Resets all statistics (contents are retained).
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.l2.reset_stats();
        self.tlb.reset_stats();
        self.tlb_miss_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(&MachineConfig::hpca2005())
    }

    #[test]
    fn data_miss_fills_both_levels() {
        let mut m = mem();
        assert_eq!(m.access_data(0x8000, false), DataAccessOutcome::Memory);
        assert_eq!(m.access_data(0x8000, false), DataAccessOutcome::L1);
    }

    #[test]
    fn l2_catches_l1_victims() {
        let mut m = mem();
        // Fill one DL1 set (4 ways) plus one more conflicting block.
        // DL1: 16K/4way/32B = 128 sets, so set stride = 128*32 = 4096.
        for i in 0..5u64 {
            m.access_data(i * 4096, false);
        }
        // The first block was evicted from DL1 but fits comfortably in L2.
        assert_eq!(m.access_data(0, false), DataAccessOutcome::L2);
    }

    #[test]
    fn instruction_fetch_tracks_misses() {
        let mut m = mem();
        assert_eq!(m.fetch_instruction(0x400_000), (true, true));
        assert_eq!(m.fetch_instruction(0x400_000), (false, false));
        assert_eq!(m.il1_stats().misses, 1);
        assert_eq!(m.il1_stats().hits, 1);
    }

    #[test]
    fn tlb_misses_collected_and_cleared() {
        let mut m = mem();
        m.access_data(0x0000, false);
        m.access_data(0x4000, false); // different 8K page
        assert_eq!(m.take_tlb_misses(), 2);
        assert_eq!(m.take_tlb_misses(), 0);
        m.access_data(0x0000, false); // page still cached
        assert_eq!(m.take_tlb_misses(), 0);
    }

    #[test]
    fn working_set_larger_than_l2_goes_to_memory() {
        let mut m = mem();
        // Stream 1MB (8x the 128K L2) twice.
        let mut memory_hits = 0;
        for lap in 0..2 {
            for addr in (0..1_048_576u64).step_by(64) {
                let outcome = m.access_data(addr, false);
                if lap == 1 && outcome == DataAccessOutcome::Memory {
                    memory_hits += 1;
                }
            }
        }
        assert!(
            memory_hits > 10_000,
            "streaming should defeat the L2: {memory_hits}"
        );
    }

    #[test]
    fn prefetcher_off_by_default() {
        let mut m = mem();
        for addr in (0..64 * 1024u64).step_by(64) {
            m.access_data(addr, false);
        }
        assert_eq!(m.prefetch_fills(), 0);
    }

    #[test]
    fn stride_prefetch_converts_misses_to_hits() {
        let mut cfg = MachineConfig::hpca2005();
        cfg.prefetch_degree = 4;
        let mut with = MemoryHierarchy::new(&cfg);
        let mut without = mem();
        // A long 64B-stride stream over 4MB: every line is a cold miss
        // without prefetching; the stride prefetcher hides most of them.
        for addr in (0..4 * 1024 * 1024u64).step_by(64) {
            with.access_data(addr, false);
            without.access_data(addr, false);
        }
        assert!(with.prefetch_fills() > 1000);
        assert!(
            with.dl1_stats().miss_rate() < without.dl1_stats().miss_rate() / 2.0,
            "prefetching should at least halve the miss rate: {} vs {}",
            with.dl1_stats().miss_rate(),
            without.dl1_stats().miss_rate()
        );
    }

    #[test]
    fn pointer_chase_defeats_the_prefetcher() {
        let mut cfg = MachineConfig::hpca2005();
        cfg.prefetch_degree = 4;
        let mut m = MemoryHierarchy::new(&cfg);
        let mut chase = crate::stream::PointerChaseStream::new(0, 1 << 16, 64);
        use crate::stream::AddressStream;
        for _ in 0..20_000 {
            m.access_data(chase.next_addr(), false);
        }
        // Random-looking deltas almost never repeat: few useful fills.
        assert!(
            m.prefetch_fills() < 2_000,
            "chase should not trigger streams: {}",
            m.prefetch_fills()
        );
    }

    #[test]
    fn reset_stats_zeroes_everything() {
        let mut m = mem();
        m.access_data(0x123, true);
        m.fetch_instruction(0x456);
        m.reset_stats();
        assert_eq!(m.dl1_stats().accesses(), 0);
        assert_eq!(m.il1_stats().accesses(), 0);
        assert_eq!(m.l2_stats().accesses(), 0);
    }
}
