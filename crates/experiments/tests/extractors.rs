//! Equivalence tests for the pluggable feature-extractor refactor.
//!
//! The refactor's contract has two halves:
//!
//! 1. **Bit-identity for the default path.** The BBV extractor *is* the
//!    pre-refactor `AccumulatorTable`; every route to a phase-ID stream —
//!    the owned classifier, the legacy `end_interval_from_detailed(&acc, ..)`
//!    call shape, and the engine's shared-accumulation sweep — must
//!    reproduce the exact IDs the seed produced, on every workload model.
//! 2. **Shape-keyed sharing for the new back-ends.** Lanes that differ in
//!    extractor kind must *not* share a front-end even when they agree on
//!    dimension count, and each must match the serial single-classifier
//!    reference for its kind, all within one replay per trace.

use tpcp_core::{AccumulatorTable, ClassifierConfig, ExtractorKind, PhaseClassifier, PhaseId};
use tpcp_experiments::suite::test_cache;
use tpcp_experiments::{run_classifier, Engine, SuiteParams};
use tpcp_trace::IntervalSource;
use tpcp_workloads::BenchmarkKind;

fn config_for(kind: ExtractorKind) -> ClassifierConfig {
    ClassifierConfig::builder()
        .accumulators(16)
        .table_entries(Some(32))
        .extractor(kind)
        .build()
}

/// The legacy shared-accumulation call shape: an external
/// [`AccumulatorTable`] driven through `end_interval_from_detailed`, reset by the
/// caller each interval — exactly what pre-trait call sites did.
fn classify_via_external_accumulator(
    trace: &tpcp_trace::RecordedTrace,
    config: ClassifierConfig,
) -> Vec<PhaseId> {
    let mut acc = AccumulatorTable::new(config.accumulators);
    let mut classifier = PhaseClassifier::new(config);
    let mut ids = Vec::new();
    let mut replay = trace.replay();
    while let Some(summary) = replay.next_interval(&mut |ev| acc.observe(ev)) {
        ids.push(
            classifier
                .end_interval_from_detailed(&acc, summary.cpi())
                .phase_id,
        );
        acc.reset();
    }
    ids
}

/// On all 11 workload models, the BBV extractor behind the trait produces
/// the same phase-ID stream through the owned path, the legacy external
/// `&AccumulatorTable` path, and the engine's shared sweep.
#[test]
fn bbv_trait_path_reproduces_legacy_ids_on_all_models() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let config = config_for(ExtractorKind::Bbv);

    let mut engine = Engine::new(params);
    let cells: Vec<_> = BenchmarkKind::ALL
        .iter()
        .map(|&kind| (kind, engine.classified(kind, config)))
        .collect();
    let stats = engine.run(&cache);
    assert!(stats.failure_report().is_empty());
    assert_eq!(stats.max_replays_per_trace(), 1);

    for (kind, cell) in cells {
        let trace = cache.load_or_simulate(kind, &params);
        let owned = run_classifier(&trace, config);
        let external = classify_via_external_accumulator(&trace, config);
        let engine_run = cell.take();
        assert_eq!(
            owned.ids,
            external,
            "{}: owned vs external accumulator",
            kind.label()
        );
        assert_eq!(
            owned,
            engine_run,
            "{}: owned vs engine shared sweep",
            kind.label()
        );
    }
}

/// All three extractor kinds at the *same* dimension count ride one
/// replay per trace, each matching its serial reference — proving the
/// sweep keys front-ends by extractor kind, not by dims alone (a
/// dims-only key would feed working-set lanes BBV counters).
#[test]
fn cross_extractor_lanes_match_serial_reference_in_one_replay() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let models = [
        BenchmarkKind::Mcf,
        BenchmarkKind::GzipGraphic,
        BenchmarkKind::Gcc166,
    ];

    let mut engine = Engine::new(params);
    let cells: Vec<_> = models
        .iter()
        .flat_map(|&kind| {
            ExtractorKind::ALL
                .iter()
                .map(move |&ext| (kind, ext, config_for(ext)))
        })
        .map(|(kind, ext, config)| (kind, ext, config, engine.classified(kind, config)))
        .collect();
    let stats = engine.run(&cache);
    assert!(stats.failure_report().is_empty());
    assert_eq!(
        stats.max_replays_per_trace(),
        1,
        "three extractor kinds must share one replay pass"
    );

    for (kind, ext, config, cell) in cells {
        let trace = cache.load_or_simulate(kind, &params);
        let reference = run_classifier(&trace, config);
        assert_eq!(
            reference,
            cell.take(),
            "{} with {ext} extractor",
            kind.label()
        );
    }
}

/// The back-ends genuinely differ: on at least one model the three
/// extractors disagree about the phase structure (otherwise the
/// comparison figure would be three copies of one column).
#[test]
fn extractor_kinds_produce_distinct_classifications() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let trace = cache.load_or_simulate(BenchmarkKind::Gcc166, &params);
    let runs: Vec<_> = ExtractorKind::ALL
        .iter()
        .map(|&ext| run_classifier(&trace, config_for(ext)))
        .collect();
    assert!(
        runs[0].ids != runs[1].ids || runs[0].ids != runs[2].ids,
        "extractors collapsed to identical phase-ID streams"
    );
}
