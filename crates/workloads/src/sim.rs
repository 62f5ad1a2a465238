//! The workload execution engine: drives region code through the
//! microarchitecture substrate, producing an interval stream with emergent
//! CPI.

use tpcp_trace::{BranchEvent, IntervalSource, IntervalSummary, MetricCounts};
use tpcp_uarch::stream::{
    AddressStream, PointerChaseStream, RandomStream, SplitMix64, StridedStream,
};
use tpcp_uarch::{EventCounts, HybridPredictor, MachineConfig, MemoryHierarchy, TimingModel};

use crate::region::{Region, StreamSpec};
use crate::script::{ScriptIter, ScriptNode};

/// Per-sample caps for microarchitectural activity per dynamic block.
/// Sampled activity is scaled back up to the block's real event counts, so
/// these only bound simulation cost, not modeled behaviour.
const MAX_FETCH_SAMPLES: u64 = 4;
const MAX_LOAD_SAMPLES: u64 = 16;
const BRANCH_SAMPLES: u64 = 4;

/// Global knobs for building and running a benchmark model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Instructions per interval. The paper uses 10M; the models here are
    /// calibrated for 1M-instruction intervals (the paper notes the same
    /// techniques work from 1M to 100M), which keeps full-suite experiment
    /// runs tractable.
    pub interval_size: u64,
    /// Multiplies every script duration; use ≪ 1 for quick tests.
    pub length_scale: f64,
    /// The simulated machine (Table 1 by default).
    pub machine: MachineConfig,
    /// Seed for script randomness and noisy branches.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            interval_size: 1_000_000,
            length_scale: 1.0,
            machine: MachineConfig::hpca2005(),
            seed: 0xC0FFEE,
        }
    }
}

/// A fully specified benchmark model: regions plus a phase script.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Display name, e.g. `"bzip2/g"`.
    pub name: String,
    /// The benchmark's code regions.
    pub regions: Vec<Region>,
    /// The phase script, with durations in instructions.
    pub script: ScriptNode,
}

impl Benchmark {
    /// Creates a benchmark after validating that the script only references
    /// existing regions.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty or the script references a region index
    /// out of range.
    pub fn new(name: &str, regions: Vec<Region>, script: ScriptNode) -> Self {
        assert!(!regions.is_empty(), "benchmark needs at least one region");
        assert!(
            script.max_region() < regions.len(),
            "script references region {} but only {} exist",
            script.max_region(),
            regions.len()
        );
        Self {
            name: name.to_owned(),
            regions,
            script,
        }
    }

    /// Estimated total instructions at the given scale.
    pub fn expected_instructions(&self, params: &WorkloadParams) -> f64 {
        self.script.expected_instructions() * params.length_scale
    }

    /// Builds the simulator for this benchmark.
    pub fn simulate(&self, params: &WorkloadParams) -> WorkloadSim {
        WorkloadSim::new(self, params)
    }
}

#[derive(Debug)]
enum StreamState {
    Strided(StridedStream),
    Random(RandomStream),
    PointerChase(PointerChaseStream),
}

impl StreamState {
    fn build(spec: &StreamSpec, base: u64, seed: u64) -> Self {
        match *spec {
            StreamSpec::Strided {
                stride,
                working_set,
            } => StreamState::Strided(StridedStream::new(base, stride, working_set)),
            StreamSpec::Random { working_set } => {
                StreamState::Random(RandomStream::new(base, working_set, seed))
            }
            StreamSpec::PointerChase { nodes, node_bytes } => {
                StreamState::PointerChase(PointerChaseStream::new(base, nodes, node_bytes))
            }
        }
    }

    fn next_addr(&mut self) -> u64 {
        match self {
            StreamState::Strided(s) => s.next_addr(),
            StreamState::Random(s) => s.next_addr(),
            StreamState::PointerChase(s) => s.next_addr(),
        }
    }
}

#[derive(Debug)]
struct RegionState {
    region: Region,
    stream: StreamState,
    /// Round-robin block cursor.
    cursor: usize,
    /// Bresenham accumulator per block for deterministic branch patterns.
    branch_err: Vec<f64>,
}

/// Executes a [`Benchmark`] against the memory hierarchy, branch predictor,
/// and timing model, yielding fixed-length intervals.
///
/// Implements [`IntervalSource`]; see the crate docs for an example.
#[derive(Debug)]
pub struct WorkloadSim {
    regions: Vec<RegionState>,
    /// Pre-flattened script: `(region, instructions)` runs in order.
    runs: Vec<(usize, u64)>,
    run_cursor: usize,
    /// Instructions remaining in the current run.
    run_remaining: u64,
    interval_size: u64,
    next_index: u64,
    memory: MemoryHierarchy,
    branches: HybridPredictor,
    timing: TimingModel,
    rng: SplitMix64,
}

impl WorkloadSim {
    fn new(benchmark: &Benchmark, params: &WorkloadParams) -> Self {
        assert!(params.interval_size > 0, "interval size must be positive");
        assert!(params.length_scale > 0.0, "length scale must be positive");
        let scaled = benchmark.script.scaled(params.length_scale);
        let runs: Vec<(usize, u64)> = ScriptIter::new(&scaled, params.seed).collect();
        let regions = benchmark
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| RegionState {
                stream: StreamState::build(&r.stream, r.data_base, params.seed ^ (i as u64) << 32),
                cursor: 0,
                branch_err: vec![0.0; r.blocks.len()],
                region: r.clone(),
            })
            .collect();
        Self {
            regions,
            runs,
            run_cursor: 0,
            run_remaining: 0,
            interval_size: params.interval_size,
            next_index: 0,
            memory: MemoryHierarchy::new(&params.machine),
            branches: HybridPredictor::hpca2005(),
            timing: TimingModel::new(params.machine),
            rng: SplitMix64::new(params.seed ^ 0x5151_5151),
        }
    }

    /// Executes one dynamic basic block of the given region, returning the
    /// branch event, the cycles charged, and the block's event counts.
    fn execute_block(&mut self, region_idx: usize) -> (BranchEvent, u64, EventCounts) {
        let state = &mut self.regions[region_idx];
        let block_idx = state.cursor;
        state.cursor = (state.cursor + 1) % state.region.blocks.len();
        let block = state.region.blocks[block_idx];
        let insns = u64::from(block.insns);

        let mut il1_misses = 0.0f64;
        let mut dl1_misses = 0.0f64;
        let mut l2_misses = 0.0f64;

        // Instruction fetch: sample cache lines across the block's code
        // footprint at deterministic offsets, then scale to the real line
        // count.
        let code_bytes = insns * 4;
        let code_lines = code_bytes.div_ceil(32).max(1);
        let fetch_samples = code_lines.min(MAX_FETCH_SAMPLES);
        let fetch_scale = code_lines as f64 / fetch_samples as f64;
        for s in 0..fetch_samples {
            let addr = block.pc + s * (code_bytes / fetch_samples).max(32);
            let (il1_miss, l2_miss) = self.memory.fetch_instruction(addr);
            if il1_miss {
                il1_misses += fetch_scale;
            }
            if l2_miss {
                l2_misses += fetch_scale;
            }
        }

        // Data accesses: sample from the region's stream.
        let n_loads = (insns as f64 * state.region.loads_per_insn).round() as u64;
        let load_samples = n_loads.min(MAX_LOAD_SAMPLES);
        let load_scale = if load_samples == 0 {
            0.0
        } else {
            n_loads as f64 / load_samples as f64
        };
        self.memory.take_tlb_misses(); // clear any residue
        for _ in 0..load_samples {
            let addr = state.stream.next_addr();
            match self.memory.access_data(addr, false) {
                tpcp_uarch::DataAccessOutcome::L1 => {}
                tpcp_uarch::DataAccessOutcome::L2 => dl1_misses += load_scale,
                tpcp_uarch::DataAccessOutcome::Memory => {
                    dl1_misses += load_scale;
                    l2_misses += load_scale;
                }
            }
        }
        let tlb_misses = self.memory.take_tlb_misses() as f64 * load_scale;

        // Branches: the block's terminating branch pattern, sampled a few
        // times and scaled to the region's real branch density.
        let n_branches = (insns as f64 * state.region.branches_per_insn)
            .round()
            .max(1.0);
        let branch_scale = n_branches / BRANCH_SAMPLES as f64;
        let mut mispredicts = 0.0f64;
        for _ in 0..BRANCH_SAMPLES {
            let taken = if self.rng.unit_f64() < state.region.branch_noise {
                self.rng.next_u64() & 1 == 1
            } else {
                // Bresenham: deterministic repeating pattern at the bias.
                let err = &mut state.branch_err[block_idx];
                *err += block.taken_bias;
                if *err >= 1.0 {
                    *err -= 1.0;
                    true
                } else {
                    false
                }
            };
            if !self.branches.observe(block.pc, taken) {
                mispredicts += branch_scale;
            }
        }

        let counts = EventCounts {
            instructions: insns,
            il1_misses: il1_misses.round() as u64,
            dl1_misses: dl1_misses.round() as u64,
            l2_misses: l2_misses.round() as u64,
            tlb_misses: tlb_misses.round() as u64,
            branch_mispredictions: mispredicts.round() as u64,
        };
        (
            BranchEvent::new(block.pc, block.insns),
            self.timing.cycles(&counts),
            counts,
        )
    }

    /// Advances to the next `(region, instructions)` run; returns `false`
    /// at end of program.
    fn advance_run(&mut self) -> bool {
        while self.run_remaining == 0 {
            if self.run_cursor >= self.runs.len() {
                return false;
            }
            let (region, insns) = self.runs[self.run_cursor];
            self.run_cursor += 1;
            self.run_remaining = insns;
            // Entering a region restarts its block cursor so signatures are
            // stable across visits.
            self.regions[region].cursor = 0;
        }
        true
    }

    /// Executes the program's next dynamic basic block: its branch event,
    /// the cycles charged to it and its event counts, or `None` at the end
    /// of the program. Interval size plays no part in it, so one block
    /// stream can be cut at any interval size ([`OpenInterval`]).
    pub fn next_block(&mut self) -> Option<(BranchEvent, u64, MetricCounts)> {
        if !self.advance_run() {
            return None;
        }
        let region = self.runs[self.run_cursor - 1].0;
        let (event, cycles, counts) = self.execute_block(region);
        self.run_remaining = self.run_remaining.saturating_sub(u64::from(event.insns));
        let metrics = MetricCounts {
            il1_misses: counts.il1_misses,
            dl1_misses: counts.dl1_misses,
            l2_misses: counts.l2_misses,
            tlb_misses: counts.tlb_misses,
            branch_mispredictions: counts.branch_mispredictions,
        };
        Some((event, cycles, metrics))
    }

    /// Sets the number of active data-cache ways for subsequent execution
    /// — the hook used by phase-guided cache reconfiguration policies
    /// (lines disabled by the change are invalidated, as in selective
    /// cache ways hardware).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the configured associativity.
    pub fn set_dl1_ways(&mut self, ways: usize) {
        self.memory.dl1_mut().set_active_ways(ways);
    }

    /// Currently active data-cache ways.
    pub fn dl1_ways(&self) -> usize {
        self.memory.dl1().active_ways()
    }
}

impl IntervalSource for WorkloadSim {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        let mut open = OpenInterval::default();
        while let Some((event, cycles, metrics)) = self.next_block() {
            on_event(event);
            if open.add(event, cycles, &metrics, self.interval_size) {
                break;
            }
        }
        let summary = open.close(self.next_index)?;
        self.next_index += 1;
        Some(summary)
    }
}

/// The interval being filled block by block, and the one rule for where
/// intervals end: an interval closes at the first block that brings it to
/// at least the interval size, and a non-empty tail closes at the end of
/// the program. [`WorkloadSim`]'s own intervals and a recorder that cuts
/// one block stream at several sizes both follow it.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenInterval {
    instructions: u64,
    cycles: u64,
    metrics: MetricCounts,
}

impl OpenInterval {
    /// Adds one block ([`WorkloadSim::next_block`]); returns `true` when
    /// the interval now holds at least `interval_size` instructions and so
    /// closes at this block.
    pub fn add(
        &mut self,
        event: BranchEvent,
        cycles: u64,
        metrics: &MetricCounts,
        interval_size: u64,
    ) -> bool {
        self.instructions += u64::from(event.insns);
        self.cycles += cycles;
        self.metrics.add(metrics);
        self.instructions >= interval_size
    }

    /// Closes the interval as the program's interval `index` and leaves an
    /// empty one open; `None` when it holds no instructions.
    pub fn close(&mut self, index: u64) -> Option<IntervalSummary> {
        let interval = std::mem::take(self);
        (interval.instructions > 0).then(|| {
            IntervalSummary::new(index, interval.instructions, interval.cycles)
                .with_metrics(interval.metrics)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Region, StreamSpec};

    fn small_benchmark() -> Benchmark {
        let cached = Region::loop_nest(
            "cached",
            0x40_0000,
            4,
            200,
            StreamSpec::Strided {
                stride: 8,
                working_set: 4 * 1024, // fits in L1
            },
        );
        let missy = Region::loop_nest(
            "missy",
            0x80_0000,
            4,
            200,
            StreamSpec::PointerChase {
                nodes: 1 << 16,
                node_bytes: 64, // 4MB: far exceeds L2
            },
        )
        .with_loads_per_insn(0.35);
        Benchmark::new(
            "toy",
            vec![cached, missy],
            ScriptNode::repeat(
                4,
                ScriptNode::Seq(vec![
                    ScriptNode::run(0, 300_000),
                    ScriptNode::run(1, 300_000),
                ]),
            ),
        )
    }

    fn params() -> WorkloadParams {
        WorkloadParams {
            interval_size: 100_000,
            ..Default::default()
        }
    }

    #[test]
    fn produces_expected_interval_count() {
        let b = small_benchmark();
        let summaries = b.simulate(&params()).drain_summaries();
        // 2.4M instructions at 100k per interval = 24 intervals.
        assert!((23..=25).contains(&summaries.len()), "{}", summaries.len());
    }

    #[test]
    fn cpi_differs_between_cached_and_memory_bound_regions() {
        let b = small_benchmark();
        let summaries = b.simulate(&params()).drain_summaries();
        // Intervals 0..2 run the cached region; 3..5 the pointer chase.
        let cached_cpi = summaries[1].cpi();
        let missy_cpi = summaries[4].cpi();
        assert!(
            missy_cpi > cached_cpi * 2.0,
            "memory-bound region must be much slower: {cached_cpi} vs {missy_cpi}"
        );
    }

    #[test]
    fn same_region_intervals_have_similar_cpi() {
        let b = small_benchmark();
        let summaries = b.simulate(&params()).drain_summaries();
        // Intervals 1 and 2 are both mid-run in the cached region.
        let a = summaries[1].cpi();
        let c = summaries[2].cpi();
        assert!(
            (a - c).abs() / a < 0.2,
            "same region, similar CPI: {a} vs {c}"
        );
    }

    #[test]
    fn events_carry_region_pcs() {
        let b = small_benchmark();
        let mut sim = b.simulate(&params());
        let mut pcs = std::collections::BTreeSet::new();
        sim.next_interval(&mut |ev| {
            pcs.insert(ev.pc);
        });
        // First interval executes the cached region's blocks only.
        assert!(pcs.iter().all(|&pc| (0x40_0000..0x41_0000).contains(&pc)));
        assert_eq!(pcs.len(), 4);
    }

    #[test]
    fn simulation_is_deterministic() {
        let b = small_benchmark();
        let a: Vec<_> = b.simulate(&params()).drain_summaries();
        let c: Vec<_> = b.simulate(&params()).drain_summaries();
        assert_eq!(a, c);
    }

    #[test]
    fn length_scale_shrinks_program() {
        let b = small_benchmark();
        let mut p = params();
        p.length_scale = 0.25;
        let scaled_len = b.simulate(&p).drain_summaries().len();
        let full_len = b.simulate(&params()).drain_summaries().len();
        assert!(scaled_len < full_len / 2, "{scaled_len} vs {full_len}");
    }

    #[test]
    fn reducing_dl1_ways_raises_cpi_for_cache_sensitive_code() {
        // A 12KB working set (3 lines per DL1 set) fits 4 ways but
        // thrashes a 1-way (4KB) cache.
        let region = Region::loop_nest(
            "assoc-sensitive",
            0x40_0000,
            4,
            200,
            StreamSpec::Strided {
                stride: 32,
                working_set: 12 * 1024,
            },
        )
        .with_loads_per_insn(0.4);
        let b = Benchmark::new("ways", vec![region], ScriptNode::run(0, 400_000));
        let run = |ways: usize| {
            let mut sim = b.simulate(&params());
            sim.set_dl1_ways(ways);
            assert_eq!(sim.dl1_ways(), ways);
            // Second interval (warm) of the cached region.
            sim.next_interval(&mut |_| {});
            sim.next_interval(&mut |_| {}).unwrap().cpi()
        };
        let full = run(4);
        let one = run(1);
        assert!(
            one > full,
            "fewer ways must not speed things up: {one} vs {full}"
        );
    }

    #[test]
    #[should_panic(expected = "references region")]
    fn script_validation_catches_bad_region() {
        Benchmark::new(
            "bad",
            vec![Region::loop_nest(
                "only",
                0,
                1,
                10,
                StreamSpec::Random { working_set: 64 },
            )],
            ScriptNode::run(3, 100),
        );
    }

    #[test]
    fn expected_instructions_scales() {
        let b = small_benchmark();
        let p = params();
        let full = b.expected_instructions(&p);
        let mut half = p;
        half.length_scale = 0.5;
        assert!((b.expected_instructions(&half) - full / 2.0).abs() < 1.0);
    }
}
