//! `offline-sweep`: every `repro` figure regenerated back to back through
//! the `tpcp-experiments` library, plus the traced run's re-enactment of
//! the engine's per-trace pipeline from outside.

use std::time::Instant;

use tpcp_core::{ClassifierConfig, ExtractorKind, FeatureExtractor, PhaseClassifier, PhaseId};
use tpcp_experiments::figures;
use tpcp_experiments::{
    run_classifier, Engine, PendingTables, SuiteParams, TelemetrySnapshot, TraceCache,
};
use tpcp_predict::{LengthClassPredictor, NextPhasePredictor, PredictorKind};
use tpcp_trace::StreamingDecoder;
use tpcp_workloads::BenchmarkKind;

use crate::spans::Tracer;

/// Figures that register on the shared engine, in `repro all` order.
pub const SHARED_FIGURES: [&str; 18] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "simpoint",
    "extractors",
    "metric-pred",
    "multi-metric",
    "simpoint-estimate",
    "ablation-bits",
    "ablation-match",
    "ablation-selection",
    "ablation-confidence",
    "ablation-interval",
];

fn register(name: &str, engine: &mut Engine) -> PendingTables {
    match name {
        "fig2" => figures::fig2::register(engine),
        "fig3" => figures::fig3::register(engine),
        "fig4" => figures::fig4::register(engine),
        "fig5" => figures::fig5::register(engine),
        "fig6" => figures::fig6::register(engine),
        "fig7" => figures::fig7::register(engine),
        "fig8" => figures::fig8::register(engine),
        "fig9" => figures::fig9::register(engine),
        "simpoint" => figures::simpoint_cmp::register(engine),
        "extractors" => figures::extractor_cmp::register(engine),
        "metric-pred" => figures::metric_pred::register(engine),
        "multi-metric" => figures::multi_metric::register(engine),
        "simpoint-estimate" => figures::simpoint_cmp::register_estimate(engine),
        "ablation-bits" => figures::ablations::register_bits_sweep(engine),
        "ablation-match" => figures::ablations::register_match_policy(engine),
        "ablation-selection" => figures::ablations::register_selection_mode(engine),
        "ablation-confidence" => figures::ablations::register_confidence_sweep(engine),
        "ablation-interval" => figures::ablations::register_interval_sweep(engine),
        other => unreachable!("{other} is not a shared figure"),
    }
}

/// The quick suite, with its workload seed drawn from the benchmark seed.
pub fn params(seed: u64) -> SuiteParams {
    let mut params = SuiteParams::quick();
    params.workload.seed = crate::serve::Rng::new(seed).next_u64() >> 16;
    params
}

/// FNV-1a over every rendered table.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What one sweep produced.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Digest of every figure's CSV.
    pub digest: u64,
    /// Tables rendered.
    pub tables: u64,
    /// Intervals replayed by the shared engine and the sampling estimator.
    pub intervals: u64,
    /// Traces the shared engine replayed.
    pub traces: usize,
    /// Most replays of any one trace (1 for a correct single-replay sweep).
    pub max_replays: u64,
    /// Engine failures, rendered.
    pub failures: Vec<String>,
    /// Phase streams of the paper configuration, one per benchmark.
    pub paper_ids: Vec<Vec<PhaseId>>,
    /// The engine's own stage telemetry for both engine passes.
    pub telemetry: Vec<TelemetrySnapshot>,
    /// Wall time, s.
    pub wall_s: f64,
}

/// Registers every shared figure plus the paper-configuration phase
/// streams on one engine pinned to `workers`, runs it, renders every
/// table to CSV in memory, then runs the standalone sampling estimator.
pub fn sweep(
    cache: &TraceCache,
    params: &SuiteParams,
    workers: usize,
    mut tr: Option<&mut Tracer>,
    op: u64,
) -> Sweep {
    let start = Instant::now();
    let enter = |tr: &mut Option<&mut Tracer>, name| tr.as_deref_mut().map(|t| t.enter(name, op));
    let exit = |tr: &mut Option<&mut Tracer>, id: Option<usize>| {
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
            t.exit(id);
        }
    };
    let root = enter(&mut tr, "sweep");
    let mut engine = Engine::new(*params).with_workers(workers);
    let pending: Vec<(&str, PendingTables)> = SHARED_FIGURES
        .iter()
        .map(|&name| (name, register(name, &mut engine)))
        .collect();
    let paper: Vec<_> = BenchmarkKind::ALL
        .iter()
        .map(|&kind| engine.classified(kind, ClassifierConfig::hpca2005()))
        .collect();
    let id = enter(&mut tr, "engine.run");
    let stats = engine.run(cache);
    exit(&mut tr, id);
    let mut out = Sweep {
        digest: 0,
        tables: 0,
        intervals: stats.total_intervals(),
        traces: stats.traces_replayed(),
        max_replays: stats.max_replays_per_trace(),
        failures: stats
            .failure_report()
            .failures()
            .iter()
            .map(ToString::to_string)
            .collect(),
        paper_ids: Vec::new(),
        telemetry: vec![stats.telemetry().clone()],
        wall_s: 0.0,
    };
    if !out.failures.is_empty() {
        // A failed lane's pending cells hold errors; rendering would panic.
        exit(&mut tr, root);
        out.wall_s = start.elapsed().as_secs_f64();
        return out;
    }
    let mut digest = Digest::new();
    let mut render =
        |tr: &mut Option<&mut Tracer>, name: &str, tables: Vec<tpcp_experiments::Table>| {
            let id = enter(tr, "csv");
            for table in &tables {
                digest.write(name.as_bytes());
                digest.write(table.to_csv().as_bytes());
            }
            exit(tr, id);
            tables.len() as u64
        };
    for (name, tables) in pending {
        let id = enter(&mut tr, "figures");
        let tables = tables();
        exit(&mut tr, id);
        out.tables += render(&mut tr, name, tables);
    }
    out.paper_ids = paper.iter().map(|p| p.take().ids).collect();
    // The sampling estimator runs its own two engine passes.
    let id = enter(&mut tr, "engine.sampling");
    let (tables, telemetry) = figures::simpoint_cmp::run_sampling(cache, params);
    exit(&mut tr, id);
    out.intervals += telemetry.total_intervals();
    out.telemetry.push(telemetry);
    out.tables += render(&mut tr, "sampling-estimator", tables);
    out.digest = digest.0;
    exit(&mut tr, root);
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The paper configuration's phase streams from `run_classifier` on the
/// fully decoded traces: the oracle the engine's streams must equal.
pub fn reference_ids(cache: &TraceCache, params: &SuiteParams) -> Vec<Vec<PhaseId>> {
    BenchmarkKind::ALL
        .iter()
        .map(|&kind| {
            run_classifier(
                &cache.load_or_simulate(kind, params),
                ClassifierConfig::hpca2005(),
            )
            .ids
        })
        .collect()
}

/// Why a sweep fails the oracle, if it does.
pub fn verdict(s: &Sweep, first: &Sweep, reference: Option<&[Vec<PhaseId>]>) -> Result<(), String> {
    if let Some(err) = s.failures.first() {
        return Err(format!("engine failure: {err}"));
    }
    if s.max_replays != 1 {
        return Err(format!("a trace was replayed {} times", s.max_replays));
    }
    if s.traces != first.traces || s.digest != first.digest {
        return Err(format!(
            "CSV digest {:016x} over {} traces differs from the first sweep's {:016x} over {}",
            s.digest, s.traces, first.digest, first.traces
        ));
    }
    if reference.is_some_and(|r| r != s.paper_ids.as_slice()) {
        return Err("paper-configuration phase streams differ from run_classifier".into());
    }
    Ok(())
}

/// The engine's own stage totals over both passes of a sweep, summed
/// over its workers, ns.
pub fn engine_stage_ns(s: &Sweep) -> u64 {
    s.telemetry
        .iter()
        .map(|t| {
            let st = t.stages();
            st.cache_load_ns
                + st.decode_accumulate_ns
                + st.classify_ns
                + st.finish_ns
                + st.shard_send_wait_ns
        })
        .sum()
}

/// Counts from one re-enactment of the per-trace pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Cache loads, and how many were hits.
    pub loads: u64,
    /// Loads served from a valid cache entry.
    pub hits: u64,
    /// Bytes the loads returned.
    pub bytes: u64,
    /// Loads that quarantined a corrupt entry.
    pub quarantines: u64,
    /// Events decoded.
    pub events: u64,
    /// Events observed, summed over extractors.
    pub observed: u64,
    /// Interval boundaries classified, summed over configurations.
    pub classified: u64,
    /// Of those, boundaries that matched an existing signature.
    pub matched: u64,
    /// Of those, boundaries in the transition phase.
    pub transitions: u64,
    /// Whether the paper configuration reproduced the reference streams.
    pub paper_ok: bool,
}

/// The classifier configurations the re-enactment classifies with: the
/// paper's, then each extractor's default.
fn layer_configs() -> Vec<ClassifierConfig> {
    std::iter::once(ClassifierConfig::hpca2005())
        .chain(
            ExtractorKind::ALL
                .iter()
                .map(|&kind| ClassifierConfig::builder().extractor(kind).build()),
        )
        .collect()
}

/// Re-enacts the engine's per-trace pipeline from outside, one span per
/// call into a layer: cache load, decode, observe per extractor shape,
/// interval boundary and predictors per configuration.
pub fn layers(
    cache: &TraceCache,
    params: &SuiteParams,
    reference: &[Vec<PhaseId>],
    tr: &mut Tracer,
    op: u64,
) -> Layers {
    let configs = layer_configs();
    let mut shapes: Vec<(ExtractorKind, usize)> = Vec::new();
    let shape_of: Vec<usize> = configs
        .iter()
        .map(|c| {
            let shape = (c.extractor, c.accumulators);
            shapes.iter().position(|&s| s == shape).unwrap_or_else(|| {
                shapes.push(shape);
                shapes.len() - 1
            })
        })
        .collect();
    let mut out = Layers {
        paper_ok: true,
        ..Layers::default()
    };
    let root = tr.enter("layers", op);
    for (k, &kind) in BenchmarkKind::ALL.iter().enumerate() {
        let id = tr.enter("cache.load", op);
        let load = cache.try_load_bytes_or_simulate(kind, params);
        tr.exit_ok(id, load.is_ok());
        let Ok(load) = load else { continue };
        out.loads += 1;
        out.hits += u64::from(load.hit);
        out.bytes += load.bytes.len() as u64;
        out.quarantines += u64::from(load.quarantined.is_some());
        let Ok(mut decoder) = StreamingDecoder::new(&load.bytes) else {
            out.paper_ok = false;
            continue;
        };
        let mut extractors: Vec<_> = shapes
            .iter()
            .map(|&(kind, dims)| kind.build(dims))
            .collect();
        let mut classifiers: Vec<_> = configs.iter().map(|&c| PhaseClassifier::new(c)).collect();
        let mut next: Vec<_> = configs
            .iter()
            .map(|_| NextPhasePredictor::new(PredictorKind::rle(2)))
            .collect();
        let mut length: Vec<_> = configs
            .iter()
            .map(|_| LengthClassPredictor::new(32, 4))
            .collect();
        let mut paper = Vec::new();
        loop {
            let id = tr.enter("decode", op);
            let interval = decoder.next_interval_buffered();
            tr.exit_ok(id, interval.is_ok());
            let Ok(Some((events, summary))) = interval else {
                break;
            };
            out.events += events.len() as u64;
            for ex in &mut extractors {
                let id = tr.enter("accumulate", op);
                for &ev in events {
                    ex.observe(ev);
                }
                tr.exit(id);
                out.observed += events.len() as u64;
            }
            let cpi = summary.cpi();
            for (i, classifier) in classifiers.iter_mut().enumerate() {
                let id = tr.enter("classify", op);
                let c = classifier.end_interval_from_detailed(&extractors[shape_of[i]], cpi);
                tr.exit(id);
                let id = tr.enter("predict", op);
                next[i].observe(c.phase_id);
                length[i].observe(c.phase_id);
                tr.exit(id);
                out.classified += 1;
                out.matched += u64::from(!c.new_signature);
                out.transitions += u64::from(c.phase_id.is_transition());
                if i == 0 {
                    paper.push(c.phase_id);
                }
            }
            for ex in &mut extractors {
                let id = tr.enter("accumulate", op);
                ex.reset();
                tr.exit(id);
            }
        }
        out.paper_ok &= reference.get(k) == Some(&paper);
    }
    tr.exit(root);
    out
}

/// Simulates each quick-suite benchmark once, one span per call: the
/// work a cold cache pays for on a miss.
pub fn simulate_all(params: &SuiteParams, tr: &mut Tracer) -> u64 {
    BenchmarkKind::ALL
        .iter()
        .map(|&kind| {
            let id = tr.enter("sim", 0);
            let trace = tpcp_experiments::suite::simulate_one(kind, params);
            tr.exit(id);
            trace.len() as u64
        })
        .sum()
}
