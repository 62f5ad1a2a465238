//! Per-interval microarchitectural event counts.
//!
//! The paper evaluates homogeneity on CPI, but its premise (from Sherwood
//! et al., ASPLOS'02) is that intervals grouped by code signature behave
//! similarly across *all* architectural metrics. Carrying the raw event
//! counts in each interval lets the evaluation check that claim for cache
//! misses, TLB misses, and branch mispredictions too (the `multi-metric`
//! experiment).

/// Raw event counts for one interval. All counts are absolute; use
/// [`per_kilo_instruction`](MetricCounts::per_kilo_instruction) for the
/// scale-free MPKI view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MetricCounts {
    /// L1 instruction cache misses.
    pub il1_misses: u64,
    /// L1 data cache misses.
    pub dl1_misses: u64,
    /// Unified L2 misses.
    pub l2_misses: u64,
    /// Data TLB misses.
    pub tlb_misses: u64,
    /// Branch mispredictions.
    pub branch_mispredictions: u64,
}

impl MetricCounts {
    /// Number of tracked metrics.
    pub const COUNT: usize = 5;

    /// Display labels, index-aligned with
    /// [`as_array`](MetricCounts::as_array).
    pub const LABELS: [&'static str; Self::COUNT] =
        ["il1 miss", "dl1 miss", "l2 miss", "tlb miss", "br misp"];

    /// The counts as an array (same order as [`LABELS`](Self::LABELS)).
    pub fn as_array(&self) -> [u64; Self::COUNT] {
        [
            self.il1_misses,
            self.dl1_misses,
            self.l2_misses,
            self.tlb_misses,
            self.branch_mispredictions,
        ]
    }

    /// Misses/events per thousand instructions, index-aligned with
    /// [`LABELS`](Self::LABELS). Zero instructions yields all zeros.
    pub fn per_kilo_instruction(&self, instructions: u64) -> [f64; Self::COUNT] {
        if instructions == 0 {
            return [0.0; Self::COUNT];
        }
        self.as_array()
            .map(|c| c as f64 * 1000.0 / instructions as f64)
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &MetricCounts) {
        self.il1_misses += other.il1_misses;
        self.dl1_misses += other.dl1_misses;
        self.l2_misses += other.l2_misses;
        self.tlb_misses += other.tlb_misses;
        self.branch_mispredictions += other.branch_mispredictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_and_labels_align() {
        let m = MetricCounts {
            il1_misses: 1,
            dl1_misses: 2,
            l2_misses: 3,
            tlb_misses: 4,
            branch_mispredictions: 5,
        };
        assert_eq!(m.as_array(), [1, 2, 3, 4, 5]);
        assert_eq!(MetricCounts::LABELS.len(), MetricCounts::COUNT);
    }

    #[test]
    fn mpki_scales() {
        let m = MetricCounts {
            dl1_misses: 50,
            ..Default::default()
        };
        let mpki = m.per_kilo_instruction(10_000);
        assert_eq!(mpki[1], 5.0);
        assert_eq!(m.per_kilo_instruction(0), [0.0; 5]);
    }

    #[test]
    fn add_accumulates() {
        let mut a = MetricCounts {
            il1_misses: 1,
            ..Default::default()
        };
        a.add(&MetricCounts {
            il1_misses: 2,
            branch_mispredictions: 7,
            ..Default::default()
        });
        assert_eq!(a.il1_misses, 3);
        assert_eq!(a.branch_mispredictions, 7);
    }
}
