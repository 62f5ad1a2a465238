//! Code regions: the unit of synthetic program structure.

/// One basic block of a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Address of the block's terminating branch.
    pub pc: u64,
    /// Instructions in the block (including the branch).
    pub insns: u32,
    /// Probability the terminating branch is taken. Directions are
    /// generated with a deterministic Bresenham accumulator, so a bias of
    /// 0.75 yields the exact repeating pattern T,T,T,N — predictable by the
    /// history-based hardware predictor.
    pub taken_bias: f64,
}

/// The data-side access pattern of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamSpec {
    /// Sequential access with a fixed stride over a circular buffer —
    /// array-walking FP/integer loops.
    Strided {
        /// Stride in bytes between consecutive accesses.
        stride: u64,
        /// Working-set size in bytes (wraps around).
        working_set: u64,
    },
    /// Uniform random access over a working set — hash tables, symbol
    /// tables.
    Random {
        /// Working-set size in bytes.
        working_set: u64,
    },
    /// Pointer chasing over a pseudo-random permutation — mcf-style linked
    /// structures with no spatial locality.
    PointerChase {
        /// Number of nodes in the chase.
        nodes: u64,
        /// Node size in bytes.
        node_bytes: u64,
    },
}

/// A code region: a loop nest with fixed basic blocks, a characteristic
/// memory stream, and branch behaviour.
///
/// Two regions may deliberately share block PCs (same code) while differing
/// in `stream` (different data) — the situation that motivates the paper's
/// adaptive thresholds for `mcf` and `perl/splitmail`.
///
/// # Example
///
/// ```
/// use tpcp_workloads::{Region, StreamSpec};
///
/// let r = Region::loop_nest("kernel", 0x40_0000, 8, 120, StreamSpec::Strided {
///     stride: 8,
///     working_set: 64 * 1024,
/// });
/// assert_eq!(r.blocks.len(), 8);
/// assert!(r.code_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Human-readable name (e.g. "simplex", "huffman").
    pub name: String,
    /// The region's basic blocks, executed round-robin.
    pub blocks: Vec<Block>,
    /// Data access pattern.
    pub stream: StreamSpec,
    /// Loads+stores per instruction (typ. 0.2–0.4).
    pub loads_per_insn: f64,
    /// Conditional branches per instruction (typ. 0.1–0.2). Block-ending
    /// branches are modeled individually; this scales their penalty to the
    /// real branch density.
    pub branches_per_insn: f64,
    /// Fraction of branch outcomes replaced by seeded random noise
    /// (0 = fully deterministic pattern, 1 = coin flips).
    pub branch_noise: f64,
    /// Base address of the region's data segment.
    pub data_base: u64,
}

impl Region {
    /// Builds a classic loop nest: `n_blocks` blocks of `insns_per_block`
    /// instructions each, starting at `code_base`, with 85%-taken branches
    /// and sensible default densities.
    pub fn loop_nest(
        name: &str,
        code_base: u64,
        n_blocks: usize,
        insns_per_block: u32,
        stream: StreamSpec,
    ) -> Self {
        assert!(n_blocks > 0, "a region needs at least one block");
        assert!(insns_per_block > 0, "blocks must contain instructions");
        Self {
            name: name.to_owned(),
            blocks: (0..n_blocks as u64)
                .map(|i| Block {
                    pc: code_base + i * 0x80,
                    insns: insns_per_block,
                    taken_bias: 0.85,
                })
                .collect(),
            stream,
            loads_per_insn: 0.22,
            branches_per_insn: 0.15,
            branch_noise: 0.05,
            data_base: 0x1000_0000 + (code_base << 8),
        }
    }

    /// Sets the load density (builder-style).
    pub fn with_loads_per_insn(mut self, v: f64) -> Self {
        self.loads_per_insn = v;
        self
    }

    /// Sets the branch-outcome noise fraction (builder-style).
    pub fn with_branch_noise(mut self, v: f64) -> Self {
        self.branch_noise = v;
        self
    }

    /// Sets the data segment base (builder-style) — lets two regions share
    /// or separate their data explicitly.
    pub fn with_data_base(mut self, base: u64) -> Self {
        self.data_base = base;
        self
    }

    /// Replaces every block's taken bias (builder-style).
    pub fn with_taken_bias(mut self, bias: f64) -> Self {
        for b in &mut self.blocks {
            b.taken_bias = bias;
        }
        self
    }

    /// Total instructions in one pass over all blocks.
    pub fn insns_per_iteration(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.insns)).sum()
    }

    /// Static code footprint in bytes (4 bytes per instruction).
    pub fn code_bytes(&self) -> u64 {
        self.insns_per_iteration() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec::Strided {
            stride: 8,
            working_set: 4096,
        }
    }

    #[test]
    fn loop_nest_lays_out_blocks() {
        let r = Region::loop_nest("x", 0x1000, 4, 100, spec());
        assert_eq!(r.blocks.len(), 4);
        assert_eq!(r.blocks[0].pc, 0x1000);
        assert_eq!(r.blocks[3].pc, 0x1000 + 3 * 0x80);
        assert_eq!(r.insns_per_iteration(), 400);
        assert_eq!(r.code_bytes(), 1600);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_region_rejected() {
        Region::loop_nest("x", 0, 0, 10, spec());
    }

    #[test]
    fn builders_override_defaults() {
        let r = Region::loop_nest("x", 0x1000, 2, 50, spec())
            .with_loads_per_insn(0.5)
            .with_branch_noise(0.3)
            .with_data_base(0xAB)
            .with_taken_bias(0.5);
        assert_eq!(r.loads_per_insn, 0.5);
        assert_eq!(r.branch_noise, 0.3);
        assert_eq!(r.data_base, 0xAB);
        assert!(r.blocks.iter().all(|b| b.taken_bias == 0.5));
    }

    #[test]
    fn shared_code_regions_can_differ_in_data() {
        let a = Region::loop_nest(
            "small",
            0x1000,
            4,
            100,
            StreamSpec::PointerChase {
                nodes: 1 << 10,
                node_bytes: 64,
            },
        );
        let mut b = a.clone();
        b.name = "large".into();
        b.stream = StreamSpec::PointerChase {
            nodes: 1 << 20,
            node_bytes: 64,
        };
        assert_eq!(a.blocks, b.blocks, "same code");
        assert_ne!(a.stream, b.stream, "different data");
    }
}
