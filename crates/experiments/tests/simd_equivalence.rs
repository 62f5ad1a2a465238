//! End-to-end scalar-vs-SWAR bit-identity over the paper's workloads.
//!
//! Trace decode runs through the SWAR batched varint kernel in
//! `tpcp-trace`; the scalar kernel stays as its reference. Their contract
//! is *bit identity*: every phase ID, in order, on every one of the
//! paper's 11 benchmark models, must be unchanged. These tests drive whole
//! classification pipelines through both decode kernels from one binary
//! (via `StreamingDecoder::force_scalar`) and compare the full outputs.

use tpcp_core::{ClassifierConfig, PhaseClassifier, PhaseId};
use tpcp_trace::{encode_trace, RecordedTrace, StreamingDecoder};
use tpcp_workloads::{BenchmarkKind, WorkloadParams};

fn tiny_params() -> WorkloadParams {
    WorkloadParams {
        length_scale: 0.02,
        ..Default::default()
    }
}

fn model_trace(kind: BenchmarkKind, params: &WorkloadParams) -> RecordedTrace {
    RecordedTrace::record(kind.build(params).simulate(params))
}

/// Classifies an encoded trace end to end — streaming decode feeding a
/// fresh classifier — with the SWAR decode kernel either enabled
/// (`scalar = false`) or forced off (`scalar = true`).
fn classify(encoded: &[u8], config: ClassifierConfig, scalar: bool) -> (Vec<PhaseId>, u64) {
    let mut decoder = StreamingDecoder::new(encoded).expect("test traces are well-formed");
    decoder.force_scalar(scalar);
    assert_eq!(decoder.uses_simd(), !scalar);
    let mut classifier = PhaseClassifier::new(config);
    let mut ids = Vec::new();
    loop {
        let next = decoder
            .try_next_interval_with(&mut |ev| classifier.observe(ev))
            .expect("test traces are well-formed");
        let Some(summary) = next else { break };
        ids.push(classifier.end_interval(summary.cpi()));
    }
    (ids, classifier.phases_created())
}

/// The acceptance test: all 11 benchmark models classify bit-identically
/// through the SWAR and the scalar decode kernels under the paper's
/// configuration.
#[test]
fn simd_all_eleven_models_classify_identically() {
    let params = tiny_params();
    for kind in BenchmarkKind::ALL {
        let encoded = encode_trace(&model_trace(kind, &params));
        let config = ClassifierConfig::hpca2005();
        let simd = classify(&encoded, config, false);
        let scalar = classify(&encoded, config, true);
        assert!(
            !simd.0.is_empty(),
            "{}: model produced no intervals",
            kind.label()
        );
        assert_eq!(simd, scalar, "{}: phase-ID streams diverged", kind.label());
    }
}

/// Kernel-churn chaos: a small table capacity forces continuous LRU
/// eviction and per-entry adaptive thresholds tighten mid-run, so a
/// decoded event that differs between the kernels shows up as a diverging
/// phase ID.
#[test]
fn simd_equivalence_survives_lru_churn_and_adaptive_thresholds() {
    let params = tiny_params();
    for kind in [BenchmarkKind::Mcf, BenchmarkKind::Gcc166] {
        let encoded = encode_trace(&model_trace(kind, &params));
        for capacity in [4usize, 8, 20] {
            let config = ClassifierConfig::builder()
                .table_entries(Some(capacity))
                .build();
            let simd = classify(&encoded, config, false);
            let scalar = classify(&encoded, config, true);
            assert_eq!(
                simd,
                scalar,
                "{} capacity {}: phase-ID streams diverged",
                kind.label(),
                capacity
            );
        }
    }
}

/// First-match selection takes a different early-exit path through the
/// table search than best-match; pin its equivalence separately.
#[test]
fn simd_equivalence_holds_for_first_match_selection() {
    let params = tiny_params();
    let encoded = encode_trace(&model_trace(BenchmarkKind::GzipGraphic, &params));
    let config = ClassifierConfig::builder().best_match(false).build();
    let simd = classify(&encoded, config, false);
    let scalar = classify(&encoded, config, true);
    assert_eq!(simd, scalar, "first-match phase-ID streams diverged");
}
