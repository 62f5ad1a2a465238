//! End-to-end scalar-vs-SWAR bit-identity over the paper's workloads.
//!
//! Trace decode runs through the SWAR batched varint kernel in
//! `tpcp-trace`; the scalar kernel stays as its reference. Their contract
//! is *bit identity*: every decoded event and interval summary, and so
//! every phase ID, in order, on every one of the paper's 11 benchmark
//! models, must be unchanged. The test drives whole classification
//! pipelines through both decode kernels from one binary (via
//! `StreamingDecoder::force_scalar`) and compares the full outputs.
//!
//! A classifier's output depends only on the events and CPIs it is fed.
//! So equal decoded events and summaries imply equal phase IDs under any
//! classifier configuration (table capacity, adaptive thresholds,
//! first-match selection), and one configuration covers them all.

use tpcp_core::{ClassifierConfig, PhaseClassifier, PhaseId};
use tpcp_trace::{encode_trace, BranchEvent, IntervalSummary, RecordedTrace, StreamingDecoder};
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

/// Everything one decode kernel delivered for a trace, and the phase-ID
/// stream it classified to.
struct Run {
    events: Vec<BranchEvent>,
    summaries: Vec<IntervalSummary>,
    ids: Vec<PhaseId>,
    phases_created: u64,
}

/// Classifies an encoded trace end to end under the paper's
/// configuration — streaming decode feeding a fresh classifier — with the
/// SWAR decode kernel either enabled (`scalar = false`) or forced off
/// (`scalar = true`).
fn classify(encoded: &[u8], scalar: bool) -> Run {
    let mut decoder = StreamingDecoder::new(encoded).expect("test traces are well-formed");
    decoder.force_scalar(scalar);
    assert_eq!(decoder.uses_simd(), !scalar);
    let mut classifier = PhaseClassifier::new(ClassifierConfig::hpca2005());
    let mut events = Vec::new();
    let mut summaries = Vec::new();
    let mut ids = Vec::new();
    loop {
        let next = decoder
            .try_next_interval_with(&mut |ev| {
                events.push(ev);
                classifier.observe(ev);
            })
            .expect("test traces are well-formed");
        let Some(summary) = next else { break };
        summaries.push(summary);
        ids.push(classifier.end_interval(summary.cpi()));
    }
    Run {
        events,
        summaries,
        ids,
        phases_created: classifier.phases_created(),
    }
}

/// The acceptance test: all 11 benchmark models decode to identical
/// events and interval summaries, and classify bit-identically, through
/// the SWAR and the scalar decode kernels.
#[test]
fn simd_all_eleven_models_classify_identically() {
    let params = tiny_params();
    for kind in BenchmarkKind::ALL {
        let label = kind.label();
        let encoded = encode_trace(&model_trace(kind, &params));
        let simd = classify(&encoded, false);
        let scalar = classify(&encoded, true);
        assert!(!simd.ids.is_empty(), "{label}: model produced no intervals");
        // Events are compared by first mismatch, so a failure names the
        // diverging index instead of printing both streams.
        assert_eq!(
            simd.events.len(),
            scalar.events.len(),
            "{label}: event counts"
        );
        let first_diff = simd
            .events
            .iter()
            .zip(&scalar.events)
            .position(|(a, b)| a != b);
        assert!(
            first_diff.is_none(),
            "{label}: decoded events diverge at {first_diff:?}"
        );
        assert_eq!(
            simd.summaries, scalar.summaries,
            "{label}: interval summaries diverged"
        );
        assert_eq!(
            (simd.ids, simd.phases_created),
            (scalar.ids, scalar.phases_created),
            "{label}: phase-ID streams diverged"
        );
    }
}
