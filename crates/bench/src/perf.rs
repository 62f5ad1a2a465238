//! The measured workload suite and timing lanes behind `tpcp-perf`.
//!
//! The suite is three scripted [`SyntheticTrace`] programs with distinct
//! phase structure (steady, rapidly alternating, many-phase), encoded once
//! into the `tpcp-trace` codec. Every lane then consumes the *encoded*
//! buffers, so a lane's cost is decode + its own work:
//!
//! * the `*_streaming` lanes go through [`StreamingDecoder`] and never
//!   materialize a [`RecordedTrace`];
//! * the `*_eager` lanes decode into a full `RecordedTrace` first and
//!   then replay it — the pre-engine pipeline.
//!
//! Each lane folds what it saw into a checksum ([`LaneRun::checksum`]);
//! paired lanes must agree, which both prevents the optimizer from
//! discarding the work and re-proves streaming/eager equivalence on every
//! perf run.

use bytes::Bytes;
use tpcp_core::{ClassifierConfig, PhaseClassifier};
use tpcp_experiments::{Engine, EngineError, EngineStats, SuiteParams, TraceCache};
use tpcp_trace::{
    decode_trace, IntervalSource, PhaseSpec, RecordedTrace, StreamingDecoder, SyntheticTrace,
};
use tpcp_workloads::BenchmarkKind;

/// One synthetic program of the perf suite, in encoded form.
#[derive(Debug, Clone)]
pub struct PerfTrace {
    /// Short stable name, for logs.
    pub name: &'static str,
    /// The `TPCPTRC2` buffer every lane decodes from.
    pub encoded: Bytes,
    /// Interval count (decoded once at suite-build time).
    pub intervals: u64,
    /// Event count (decoded once at suite-build time).
    pub events: u64,
}

impl PerfTrace {
    /// Encodes a generated trace and records its totals.
    pub fn from_trace(name: &'static str, trace: &RecordedTrace) -> Self {
        let intervals = trace.len() as u64;
        let events = trace
            .intervals
            .iter()
            .map(|iv| iv.events.len() as u64)
            .sum();
        Self {
            name,
            encoded: tpcp_trace::encode_trace(trace),
            intervals,
            events,
        }
    }
}

/// Suite sizing: `Smoke` is the CI-friendly quarter-length variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quarter-length schedules for CI smoke runs.
    Smoke,
    /// The default measurement size.
    Full,
}

/// A phase whose blocks are `insns`-instruction basic blocks in a bank of
/// `n_blocks` PCs — denser branches than [`PhaseSpec::uniform`], matching
/// branch-per-handful-of-instructions integer code.
fn dense(base_pc: u64, n_blocks: u64, insns: u32, cpi: f64) -> PhaseSpec {
    PhaseSpec {
        blocks: (0..n_blocks).map(|i| (base_pc + i * 0x40, insns)).collect(),
        cpi,
        cpi_jitter: 0.01,
    }
}

/// Builds and encodes the three-program synthetic perf suite.
///
/// Deterministic: the same [`Scale`] always produces byte-identical
/// buffers, so intervals/sec is comparable across runs and commits (as
/// long as the trace codec and workload scripts are unchanged).
pub fn perf_suite(scale: Scale) -> Vec<PerfTrace> {
    let run = |n: u64| match scale {
        Scale::Smoke => (n / 4).max(1),
        Scale::Full => n,
    };
    // 256k-instruction intervals of 16-instruction blocks: 16 384 events
    // per interval, in the regime the paper profiles (branch every
    // handful of instructions over long intervals). Eager replay must
    // materialize a multi-hundred-KB event vector per interval and tens
    // of MB per trace; streaming holds only the scratch state.
    let interval_size = 256_000;

    let steady = SyntheticTrace::new(interval_size)
        .phase(dense(0x10_000, 64, 16, 1.0))
        .phase(dense(0x90_000, 64, 16, 2.4))
        .schedule(&[(0, run(32)), (1, run(32)), (0, run(32))]);

    let mut alternating = SyntheticTrace::new(interval_size)
        .phase(dense(0x10_000, 48, 16, 0.8))
        .phase(dense(0x50_000, 48, 16, 1.9));
    for _ in 0..run(8) {
        alternating = alternating.schedule(&[(0, 6), (1, 6)]);
    }

    let mut many_phase = SyntheticTrace::new(interval_size);
    for p in 0..6u64 {
        many_phase = many_phase.phase(dense(
            0x10_000 + p * 0x40_000,
            32 + (p as usize as u64) * 8,
            16,
            0.9 + 0.3 * p as f64,
        ));
    }
    for round in 0..run(4) {
        for p in 0..6 {
            many_phase = many_phase.schedule(&[((p + round as usize) % 6, 4)]);
        }
    }

    [
        ("steady-2phase", steady),
        ("alternating", alternating),
        ("many-phase", many_phase),
    ]
    .into_iter()
    .map(|(name, script)| PerfTrace::from_trace(name, &script.generate()))
    .collect()
}

/// Host-speed calibration: best-of-N rate of a frozen arithmetic-plus-
/// memory kernel, in word-operations per second.
///
/// The kernel is independent of every measured lane and must never
/// change: the regression gate divides lane rates by this reference, so
/// host-speed swings (hypervisor steal time on shared runners, different
/// CI hardware generations) cancel out of the baseline comparison while
/// genuine lane regressions do not. The working set (512 KiB) is larger
/// than L1 so the kernel, like the decode lanes, mixes ALU work with
/// cache traffic.
pub fn calibration_ops_per_sec() -> f64 {
    const WORDS: usize = 1 << 16;
    const PASSES: u64 = 48;
    const REPS: usize = 7;
    let mut buf: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut best = f64::INFINITY;
    for rep in 0..=REPS {
        let start = std::time::Instant::now();
        let mut acc = 0u64;
        for pass in 0..PASSES {
            for word in buf.iter_mut() {
                *word = word.rotate_left(7) ^ pass;
                acc = acc.wrapping_add(*word);
            }
        }
        std::hint::black_box(acc);
        let secs = start.elapsed().as_secs_f64();
        // The first repetition is warm-up (page faults, frequency ramp).
        if rep > 0 && secs < best {
            best = secs;
        }
    }
    (WORDS as u64 * PASSES) as f64 / best
}

/// Totals for a suite: `(intervals, events, encoded bytes)`.
pub fn suite_totals(suite: &[PerfTrace]) -> (u64, u64, u64) {
    suite.iter().fold((0, 0, 0), |(i, e, b), t| {
        (i + t.intervals, e + t.events, b + t.encoded.len() as u64)
    })
}

/// What one lane repetition processed, plus an order-sensitive checksum
/// over everything it observed. Paired eager/streaming lanes must produce
/// identical checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRun {
    /// Intervals delivered.
    pub intervals: u64,
    /// Events delivered (for classify lanes: taken from the suite totals).
    pub events: u64,
    /// FNV-style fold of the delivered stream.
    pub checksum: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(FNV_PRIME)
}

/// Order-sensitive per-event fold for the decode lanes. The FNV multiply
/// is a ~5-cycle serial dependency chain per event — at one fold per
/// decoded event it dominates the lane and hides the kernel difference the
/// decode lanes exist to measure. A fixed rotate-xor keeps the checksum
/// order-sensitive at two cycles of latency and one uop of throughput.
/// Interval summaries (rare) still go through [`fold`].
#[inline]
fn fold_event(acc: u64, x: u64) -> u64 {
    acc.rotate_left(7) ^ x
}

/// Decode-only, streaming: every event and interval summary is delivered
/// from the encoded buffer without materializing anything. Uses the
/// decoder's default kernel, the SWAR batch path.
pub fn decode_streaming(suite: &[PerfTrace]) -> LaneRun {
    decode_streaming_kernel(suite, false)
}

/// Decode-only, streaming, with the decoder's scalar event kernel forced
/// — the reference half of the decode speedup measurement.
pub fn decode_scalar(suite: &[PerfTrace]) -> LaneRun {
    decode_streaming_kernel(suite, true)
}

/// Decode-only, streaming, through the SWAR batch kernel. Must produce
/// the same [`LaneRun`] as [`decode_scalar`] bit for bit.
pub fn decode_simd(suite: &[PerfTrace]) -> LaneRun {
    decode_streaming_kernel(suite, false)
}

fn decode_streaming_kernel(suite: &[PerfTrace], force_scalar: bool) -> LaneRun {
    let mut intervals = 0u64;
    let mut events = 0u64;
    let mut checksum = 0u64;
    for t in suite {
        let mut decoder =
            StreamingDecoder::new(&t.encoded).expect("perf suite traces are well-formed");
        decoder.force_scalar(force_scalar);
        loop {
            let next = decoder
                .try_next_interval_with(&mut |ev: tpcp_trace::BranchEvent| {
                    checksum = fold_event(checksum, ev.pc ^ u64::from(ev.insns));
                })
                .expect("perf suite traces are well-formed");
            let Some(summary) = next else { break };
            intervals += 1;
            checksum = fold(checksum, summary.instructions ^ summary.cycles);
        }
        // The checksum certifies the exact event stream; the count comes
        // from the suite totals (as in the classify lanes), keeping the
        // per-event closure down to the fold itself.
        events += t.events;
    }
    LaneRun {
        intervals,
        events,
        checksum,
    }
}

/// Decode-only, eager: materialize the whole [`RecordedTrace`], then
/// deliver the same stream by replaying it.
pub fn decode_eager(suite: &[PerfTrace]) -> LaneRun {
    let mut intervals = 0u64;
    let mut events = 0u64;
    let mut checksum = 0u64;
    for t in suite {
        let trace = decode_trace(t.encoded.clone()).expect("perf suite traces are well-formed");
        let mut replay = trace.replay();
        while let Some(summary) = replay.next_interval(&mut |ev| {
            checksum = fold_event(checksum, ev.pc ^ u64::from(ev.insns));
        }) {
            intervals += 1;
            checksum = fold(checksum, summary.instructions ^ summary.cycles);
        }
        events += t.events;
    }
    LaneRun {
        intervals,
        events,
        checksum,
    }
}

/// Every `REPLAY_SAMPLE_STEP`-th interval is on the sampled-replay
/// lane pair's plan: an 8x decode cut, matching the sampling figure's
/// default budget.
const REPLAY_SAMPLE_STEP: u64 = 8;

/// Builds the interval index sidecar for each suite trace — the fixture
/// for [`replay_sampled`], built once outside the timed lane (a cached
/// sidecar is loaded, not rebuilt, in production).
pub fn replay_indices(suite: &[PerfTrace]) -> Vec<tpcp_trace::TraceIndex> {
    suite
        .iter()
        .map(|t| {
            tpcp_trace::TraceIndex::build(&t.encoded).expect("perf suite traces are well-formed")
        })
        .collect()
}

/// Full-decode half of the sampled-replay pair: decodes *every* interval
/// but folds only those on the sampling plan. Its checksum must equal
/// [`replay_sampled`]'s bit for bit — same delivered stream — while its
/// decode work covers the whole trace, so the pair's throughput ratio is
/// the seek win and their equality re-proves seek correctness on every
/// perf run.
pub fn replay_full(suite: &[PerfTrace]) -> LaneRun {
    let mut intervals = 0u64;
    let mut events = 0u64;
    let mut checksum = 0u64;
    for t in suite {
        let mut decoder =
            StreamingDecoder::new(&t.encoded).expect("perf suite traces are well-formed");
        let mut i = 0u64;
        loop {
            let planned = i.is_multiple_of(REPLAY_SAMPLE_STEP);
            let mut seen = 0u64;
            let next = decoder
                .try_next_interval_with(&mut |ev: tpcp_trace::BranchEvent| {
                    if planned {
                        checksum = fold_event(checksum, ev.pc ^ u64::from(ev.insns));
                        seen += 1;
                    }
                })
                .expect("perf suite traces are well-formed");
            let Some(summary) = next else { break };
            if planned {
                intervals += 1;
                events += seen;
                checksum = fold(checksum, summary.instructions ^ summary.cycles);
            }
            i += 1;
        }
    }
    LaneRun {
        intervals,
        events,
        checksum,
    }
}

/// Seek-driven half of the sampled-replay pair: a [`PlannedReplay`](tpcp_trace::PlannedReplay) over
/// the same plan decodes only the planned intervals, seeking across the
/// gaps via the interval index. Must produce the same [`LaneRun`] as
/// [`replay_full`].
pub fn replay_sampled(suite: &[PerfTrace], indices: &[tpcp_trace::TraceIndex]) -> LaneRun {
    let mut intervals = 0u64;
    let mut events = 0u64;
    let mut checksum = 0u64;
    for (t, index) in suite.iter().zip(indices) {
        let decoder = StreamingDecoder::new(&t.encoded).expect("perf suite traces are well-formed");
        let plan = tpcp_trace::ReplayPlan::from_intervals(
            (0..t.intervals).filter(|i| i.is_multiple_of(REPLAY_SAMPLE_STEP)),
        );
        let mut replay = tpcp_trace::PlannedReplay::new(decoder, index, &plan)
            .expect("suite index matches its trace");
        loop {
            let mut seen = 0u64;
            let next = replay.next_interval(&mut |ev| {
                checksum = fold_event(checksum, ev.pc ^ u64::from(ev.insns));
                seen += 1;
            });
            let Some(summary) = next else { break };
            intervals += 1;
            events += seen;
            checksum = fold(checksum, summary.instructions ^ summary.cycles);
        }
        assert!(
            replay.error().is_none(),
            "perf suite traces are well-formed"
        );
    }
    LaneRun {
        intervals,
        events,
        checksum,
    }
}

/// Replay+classify, streaming: a fresh [`PhaseClassifier`] per trace fed
/// straight from the encoded buffer. The checksum folds the phase-ID
/// stream, so it certifies identical classifications, not just identical
/// bytes.
pub fn classify_streaming(suite: &[PerfTrace], config: ClassifierConfig) -> LaneRun {
    let mut intervals = 0u64;
    let mut events = 0u64;
    let mut checksum = 0u64;
    for t in suite {
        let mut classifier = PhaseClassifier::new(config);
        let mut decoder =
            StreamingDecoder::new(&t.encoded).expect("perf suite traces are well-formed");
        loop {
            let next = decoder
                .try_next_interval_with(&mut |ev| classifier.observe(ev))
                .expect("perf suite traces are well-formed");
            let Some(summary) = next else { break };
            let id = classifier.end_interval(summary.cpi());
            intervals += 1;
            checksum = fold(checksum, u64::from(u32::from(id)));
        }
        events += t.events;
        checksum = fold(checksum, classifier.phases_created());
    }
    LaneRun {
        intervals,
        events,
        checksum,
    }
}

/// Replay+classify, eager: identical classifier work, but decoding into a
/// materialized [`RecordedTrace`] first — the pre-engine pipeline this
/// harness exists to measure against.
pub fn classify_eager(suite: &[PerfTrace], config: ClassifierConfig) -> LaneRun {
    let mut intervals = 0u64;
    let mut events = 0u64;
    let mut checksum = 0u64;
    for t in suite {
        let trace = decode_trace(t.encoded.clone()).expect("perf suite traces are well-formed");
        let mut classifier = PhaseClassifier::new(config);
        let mut replay = trace.replay();
        while let Some(summary) = replay.next_interval(&mut |ev| classifier.observe(ev)) {
            let id = classifier.end_interval(summary.cpi());
            intervals += 1;
            checksum = fold(checksum, u64::from(u32::from(id)));
        }
        events += t.events;
        checksum = fold(checksum, classifier.phases_created());
    }
    LaneRun {
        intervals,
        events,
        checksum,
    }
}

/// Deterministic fixture for the distance micro-lane: a full signature
/// table plus a batch of probe signatures, all derived from a fixed
/// xorshift stream. The table threshold (0.85) keeps most entry scans
/// running deep before the early exit can fire, so the lane measures the
/// distance kernel rather than the exit branch.
pub fn distance_fixture() -> (tpcp_core::SignatureTable, Vec<tpcp_core::Signature>) {
    use tpcp_core::{AccumulatorTable, Signature, SignatureTable};

    let mut state = 0x6A09_E667_F3BC_C908u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let sig = |next: &mut dyn FnMut() -> u64| {
        let mut acc = AccumulatorTable::new(64);
        for _ in 0..48 {
            acc.observe(tpcp_trace::BranchEvent::new(
                next(),
                (next() % 30_000) as u32,
            ));
        }
        Signature::from_accumulator(&acc, 6)
    };

    let mut table = SignatureTable::new(Some(512), 0.85);
    for _ in 0..512 {
        table.insert(sig(&mut next));
    }
    let probes: Vec<Signature> = (0..2_048).map(|_| sig(&mut next)).collect();
    (table, probes)
}

/// Distance micro-lane through the table search
/// ([`tpcp_core::SignatureTable::find_best_match`]): every probe
/// best-matched against the whole fixture table. `intervals` counts
/// probes, `events` counts probe×entry comparisons.
pub fn distance_scalar(
    table: &tpcp_core::SignatureTable,
    probes: &[tpcp_core::Signature],
) -> LaneRun {
    use tpcp_core::MatchOutcome;
    let mut checksum = 0u64;
    for probe in probes {
        checksum = fold(
            checksum,
            match table.find_best_match(probe) {
                MatchOutcome::Matched { index, distance } => (index as u64) ^ distance.to_bits(),
                MatchOutcome::NoMatch => u64::MAX,
            },
        );
    }
    LaneRun {
        intervals: probes.len() as u64,
        events: probes.len() as u64 * table.len() as u64,
        checksum,
    }
}

/// One full experiment-engine sweep: every benchmark of the simulated
/// suite under two classifier configurations, streamed through the engine
/// exactly once per trace. The cache must be warm for the timing to
/// measure replay rather than simulation — run once untimed first.
///
/// # Errors
///
/// Returns the first [`EngineError`] from the sweep's failure report; a
/// perf lane over a failed sweep would time a different workload than the
/// baseline.
pub fn engine_suite(cache: &TraceCache, params: &SuiteParams) -> Result<EngineStats, EngineError> {
    let configs = [
        ClassifierConfig::hpca2005(),
        ClassifierConfig::builder().best_match(false).build(),
    ];
    let mut engine = Engine::new(*params);
    let cells: Vec<_> = BenchmarkKind::ALL
        .iter()
        .flat_map(|&kind| configs.iter().map(move |&config| (kind, config)))
        .map(|(kind, config)| engine.classified(kind, config))
        .collect();
    let stats = engine.run(cache);
    for cell in cells {
        std::hint::black_box(cell.try_take()?);
    }
    Ok(stats)
}

/// One cross-technique engine sweep: every benchmark of the simulated
/// suite classified by all three feature back-ends
/// ([`ExtractorKind::ALL`](tpcp_core::ExtractorKind::ALL)) in a single
/// replay pass — the workload behind the `engine_extractors` lane and
/// the `extractors` figure. Like [`engine_suite`], the cache must be
/// warm before timing.
///
/// # Errors
///
/// Returns the first [`EngineError`] from the sweep's failure report.
pub fn engine_extractors(
    cache: &TraceCache,
    params: &SuiteParams,
) -> Result<EngineStats, EngineError> {
    let configs: Vec<ClassifierConfig> = tpcp_core::ExtractorKind::ALL
        .iter()
        .map(|&kind| ClassifierConfig::builder().extractor(kind).build())
        .collect();
    let mut engine = Engine::new(*params);
    let cells: Vec<_> = BenchmarkKind::ALL
        .iter()
        .flat_map(|&kind| configs.iter().map(move |&config| (kind, config)))
        .map(|(kind, config)| engine.classified(kind, config))
        .collect();
    let stats = engine.run(cache);
    for cell in cells {
        std::hint::black_box(cell.try_take()?);
    }
    Ok(stats)
}

/// `n` distinct classifier configurations for the lanes-scaling lane,
/// cycling through 16/32/64 accumulators the way an ablation sweep mixes
/// dimensionalities. Each config is distinct (the engine deduplicates
/// identical ones), so registering all of them yields exactly `n` lanes.
pub fn lane_configs(n: usize) -> Vec<ClassifierConfig> {
    (0..n)
        .map(|i| {
            ClassifierConfig::builder()
                .accumulators([16, 32, 64][i % 3])
                .table_entries(Some(24 + i))
                .build()
        })
        .collect()
}

/// One lanes-scaling engine run: `n` classifier lanes riding a single
/// benchmark trace. Returns the sweep stats plus the fanned-out interval
/// count (`trace intervals × n`), which is what the lane's intervals/sec
/// is measured over.
///
/// # Errors
///
/// Returns the first [`EngineError`] from the sweep, like
/// [`engine_suite`].
pub fn engine_lanes(
    cache: &TraceCache,
    params: &SuiteParams,
    n: usize,
) -> Result<(EngineStats, u64), EngineError> {
    let mut engine = Engine::new(*params);
    let cells: Vec<_> = lane_configs(n)
        .into_iter()
        .map(|config| engine.classified(BenchmarkKind::Mcf, config))
        .collect();
    let stats = engine.run(cache);
    for cell in cells {
        std::hint::black_box(cell.try_take()?);
    }
    let fanned = stats.total_intervals() * n as u64;
    Ok((stats, fanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny suite so debug-mode tests stay fast.
    fn tiny_suite() -> Vec<PerfTrace> {
        let script = SyntheticTrace::new(4_000)
            .phase(dense(0x1000, 8, 16, 1.0))
            .phase(dense(0x9000, 8, 16, 2.0))
            .schedule(&[(0, 10), (1, 10), (0, 10)]);
        vec![PerfTrace::from_trace("tiny", &script.generate())]
    }

    #[test]
    fn decode_lanes_agree() {
        let suite = tiny_suite();
        let streaming = decode_streaming(&suite);
        let eager = decode_eager(&suite);
        assert_eq!(streaming, eager);
        assert_eq!(streaming.intervals, 30);
        assert_eq!(streaming.events, suite_totals(&suite).1);
        assert_ne!(streaming.checksum, 0);
    }

    #[test]
    fn classify_lanes_agree() {
        let suite = tiny_suite();
        let config = ClassifierConfig::hpca2005();
        let streaming = classify_streaming(&suite, config);
        let eager = classify_eager(&suite, config);
        assert_eq!(streaming, eager);
        assert_eq!(streaming.intervals, 30);
    }

    #[test]
    fn decode_kernel_lanes_agree() {
        let suite = tiny_suite();
        assert_eq!(decode_scalar(&suite), decode_streaming(&suite));
        assert_eq!(decode_scalar(&suite), decode_simd(&suite));
    }

    #[test]
    fn replay_lanes_agree() {
        let suite = tiny_suite();
        let indices = replay_indices(&suite);
        let full = replay_full(&suite);
        let sampled = replay_sampled(&suite, &indices);
        assert_eq!(
            full, sampled,
            "seek-driven replay must match the filtered full decode"
        );
        // 30 intervals, every 8th planned: 0, 8, 16, 24.
        assert_eq!(full.intervals, 4);
        assert!(full.events > 0 && full.events < suite_totals(&suite).1);
        assert_ne!(full.checksum, 0);
    }

    #[test]
    fn distance_lanes_agree() {
        let (table, probes) = distance_fixture();
        // A probe subset keeps the debug-mode test fast; the lanes
        // themselves run the full batch.
        let subset = &probes[..64];
        let scalar = distance_scalar(&table, subset);
        assert_eq!(scalar.intervals, 64);
        assert_ne!(scalar.checksum, 0);
    }

    #[test]
    fn suite_is_deterministic() {
        let a = perf_suite(Scale::Smoke);
        let b = perf_suite(Scale::Smoke);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.encoded.as_slice(), y.encoded.as_slice(), "{}", x.name);
            assert_eq!((x.intervals, x.events), (y.intervals, y.events));
        }
    }

    #[test]
    fn smoke_suite_is_smaller_than_full() {
        let smoke = suite_totals(&perf_suite(Scale::Smoke));
        let full = suite_totals(&perf_suite(Scale::Full));
        assert!(smoke.0 < full.0);
        assert!(smoke.1 < full.1);
    }
}
