//! Interval-level timing model.
//!
//! SimpleScalar's `sim-outorder` computes cycles by simulating every pipeline
//! stage. For phase classification what matters is that cycles (and hence
//! CPI) respond to the same microarchitectural events with the Table 1
//! latencies. [`TimingModel`] therefore charges cycles per *event count*:
//! a base cost from issue width plus exposed penalties for I-cache misses,
//! data misses at each level, TLB misses, and branch mispredictions, with an
//! overlap factor modeling the memory-level parallelism an out-of-order core
//! extracts.

use crate::config::MachineConfig;

/// Microarchitectural event counts for a stretch of execution (a dynamic
/// basic block, or a whole interval — the model is linear, so both work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Committed instructions.
    pub instructions: u64,
    /// L1 I-cache misses that hit in L2.
    pub il1_misses: u64,
    /// L1 D-cache misses that hit in L2.
    pub dl1_misses: u64,
    /// L2 misses (either side) that went to memory.
    pub l2_misses: u64,
    /// Data TLB misses.
    pub tlb_misses: u64,
    /// Branch mispredictions.
    pub branch_mispredictions: u64,
}

impl EventCounts {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &EventCounts) {
        self.instructions += other.instructions;
        self.il1_misses += other.il1_misses;
        self.dl1_misses += other.dl1_misses;
        self.l2_misses += other.l2_misses;
        self.tlb_misses += other.tlb_misses;
        self.branch_mispredictions += other.branch_mispredictions;
    }
}

/// Converts [`EventCounts`] into cycles under a [`MachineConfig`].
///
/// # Example
///
/// ```
/// use tpcp_uarch::{EventCounts, MachineConfig, TimingModel};
///
/// let tm = TimingModel::new(MachineConfig::hpca2005());
/// let ideal = tm.cycles(&EventCounts { instructions: 1000, ..Default::default() });
/// let missy = tm.cycles(&EventCounts {
///     instructions: 1000,
///     l2_misses: 50,
///     ..Default::default()
/// });
/// assert!(missy > ideal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    config: MachineConfig,
    /// Base CPI achieved with no misses; 1/issue_width scaled by a pipeline
    /// efficiency factor (dependences keep real cores well under their
    /// ideal width).
    base_cpi: f64,
}

impl TimingModel {
    /// Builds a timing model over a machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        // A 4-wide out-of-order core sustains roughly 1.6 IPC on
        // dependence-limited integer code; base CPI ≈ 0.6 before stalls.
        let base_cpi = (1.0 / config.issue_width as f64) * 2.5;
        Self { config, base_cpi }
    }

    /// The machine configuration this model charges latencies from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Base CPI charged per instruction before any miss penalties.
    pub fn base_cpi(&self) -> f64 {
        self.base_cpi
    }

    /// Cycles for the given event counts.
    ///
    /// Data-side penalties (D-cache, L2, TLB) are scaled by
    /// `1 - data_miss_overlap` to model out-of-order latency hiding;
    /// I-cache misses and branch mispredictions stall the front end and are
    /// charged in full.
    pub fn cycles(&self, ev: &EventCounts) -> u64 {
        let c = &self.config;
        let exposed = 1.0 - c.data_miss_overlap;
        let mut cycles = ev.instructions as f64 * self.base_cpi;
        cycles += ev.il1_misses as f64 * c.l2_latency as f64;
        cycles += ev.dl1_misses as f64 * c.l2_latency as f64 * exposed;
        cycles += ev.l2_misses as f64 * c.memory_latency as f64 * exposed;
        cycles += ev.tlb_misses as f64 * c.tlb_miss_latency as f64;
        cycles += ev.branch_mispredictions as f64 * c.branch_penalty as f64;
        cycles.round() as u64
    }

    /// CPI for the given event counts (`0.0` for zero instructions).
    pub fn cpi(&self, ev: &EventCounts) -> f64 {
        if ev.instructions == 0 {
            0.0
        } else {
            self.cycles(ev) as f64 / ev.instructions as f64
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::new(MachineConfig::hpca2005())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm() -> TimingModel {
        TimingModel::default()
    }

    #[test]
    fn zero_events_zero_cycles() {
        assert_eq!(tm().cycles(&EventCounts::default()), 0);
        assert_eq!(tm().cpi(&EventCounts::default()), 0.0);
    }

    #[test]
    fn base_cpi_within_reasonable_range() {
        let cpi = tm().cpi(&EventCounts {
            instructions: 1_000_000,
            ..Default::default()
        });
        assert!(cpi > 0.3 && cpi < 1.0, "ideal CPI {cpi}");
    }

    #[test]
    fn memory_bound_code_has_high_cpi() {
        // mcf-like: a pointer-chasing loop missing L2 every ~10 instructions.
        let cpi = tm().cpi(&EventCounts {
            instructions: 1_000_000,
            dl1_misses: 100_000,
            l2_misses: 100_000,
            tlb_misses: 20_000,
            ..Default::default()
        });
        assert!(cpi > 3.0, "memory-bound CPI {cpi}");
    }

    #[test]
    fn penalties_are_monotonic() {
        let base = EventCounts {
            instructions: 10_000,
            ..Default::default()
        };
        let tm = tm();
        let mut prev = tm.cycles(&base);
        for field in 0..5 {
            let mut ev = base;
            match field {
                0 => ev.il1_misses = 500,
                1 => ev.dl1_misses = 500,
                2 => ev.l2_misses = 500,
                3 => ev.tlb_misses = 500,
                _ => ev.branch_mispredictions = 500,
            }
            let with_penalty = tm.cycles(&ev);
            assert!(with_penalty > prev - 1, "each event class adds cycles");
            prev = tm.cycles(&base);
        }
    }

    #[test]
    fn linearity_under_accumulation() {
        let a = EventCounts {
            instructions: 5_000,
            dl1_misses: 100,
            ..Default::default()
        };
        let b = EventCounts {
            instructions: 7_000,
            l2_misses: 50,
            branch_mispredictions: 30,
            ..Default::default()
        };
        let mut sum = a;
        sum.add(&b);
        let tm = tm();
        let separately = tm.cycles(&a) + tm.cycles(&b);
        let together = tm.cycles(&sum);
        assert!(
            (separately as i64 - together as i64).abs() <= 1,
            "rounding only"
        );
    }

    #[test]
    fn overlap_reduces_data_penalty() {
        let mut cheap_cfg = MachineConfig::hpca2005();
        cheap_cfg.data_miss_overlap = 0.9;
        let mut exposed_cfg = MachineConfig::hpca2005();
        exposed_cfg.data_miss_overlap = 0.0;
        let ev = EventCounts {
            instructions: 10_000,
            l2_misses: 1_000,
            ..Default::default()
        };
        assert!(
            TimingModel::new(cheap_cfg).cycles(&ev) < TimingModel::new(exposed_cfg).cycles(&ev)
        );
    }
}
