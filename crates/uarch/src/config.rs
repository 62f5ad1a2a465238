//! The baseline machine configuration (the paper's Table 1).

use crate::cache::CacheConfig;

/// The baseline simulation model of the paper's Table 1.
///
/// | Unit | Configuration |
/// |---|---|
/// | I cache | 16K 4-way, 32B blocks, 1-cycle |
/// | D cache | 16K 4-way, 32B blocks, 1-cycle |
/// | L2 | 128K 8-way, 64B blocks, 12-cycle |
/// | Memory | 120-cycle |
/// | Branch pred | hybrid: 8-bit gshare w/ 2K 2-bit + 8K bimodal |
/// | Issue | out-of-order, 4 ops/cycle, 64-entry ROB |
/// | Virtual memory | 8K pages, 30-cycle fixed TLB miss |
///
/// # Example
///
/// ```
/// use tpcp_uarch::MachineConfig;
///
/// let m = MachineConfig::hpca2005();
/// assert_eq!(m.l2.size_bytes, 128 * 1024);
/// assert_eq!(m.memory_latency, 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// L1 instruction cache geometry.
    pub il1: CacheConfig,
    /// L1 data cache geometry.
    pub dl1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Main memory latency in cycles.
    pub memory_latency: u64,
    /// Fixed TLB miss latency in cycles.
    pub tlb_miss_latency: u64,
    /// TLB entry count (not specified by Table 1; see [`crate::Tlb`]).
    pub tlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Maximum operations issued per cycle.
    pub issue_width: u64,
    /// Branch misprediction penalty in cycles (pipeline refill; a modeling
    /// constant — SimpleScalar's default front-end depth gives ~3–7 cycles,
    /// we use 7 for an out-of-order core with a 64-entry ROB).
    pub branch_penalty: u64,
    /// Fraction of a data-miss latency that out-of-order execution hides
    /// (memory-level parallelism). 0 = fully exposed, 1 = fully hidden.
    pub data_miss_overlap: f64,
    /// Stride-prefetch degree for the data side; `0` (the Table 1
    /// default — SimpleScalar has no prefetcher) disables prefetching.
    pub prefetch_degree: usize,
}

impl MachineConfig {
    /// The paper's Table 1 baseline.
    pub fn hpca2005() -> Self {
        Self {
            il1: CacheConfig::new(16 * 1024, 4, 32),
            dl1: CacheConfig::new(16 * 1024, 4, 32),
            l2: CacheConfig::new(128 * 1024, 8, 64),
            l2_latency: 12,
            memory_latency: 120,
            tlb_miss_latency: 30,
            tlb_entries: 64,
            page_bytes: 8192,
            issue_width: 4,
            branch_penalty: 7,
            data_miss_overlap: 0.75,
            prefetch_degree: 0,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::hpca2005()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let m = MachineConfig::hpca2005();
        assert_eq!(m.il1.size_bytes, 16 * 1024);
        assert_eq!(m.il1.assoc, 4);
        assert_eq!(m.il1.block_bytes, 32);
        assert_eq!(m.dl1, m.il1);
        assert_eq!(m.l2.assoc, 8);
        assert_eq!(m.l2.block_bytes, 64);
        assert_eq!(m.l2_latency, 12);
        assert_eq!(m.tlb_miss_latency, 30);
        assert_eq!(m.page_bytes, 8192);
        assert_eq!(m.issue_width, 4);
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(MachineConfig::default(), MachineConfig::hpca2005());
    }
}
