//! End-to-end trace-format round trip over the paper's workloads.
//!
//! Every one of the paper's 11 benchmark models is simulated, encoded and
//! streamed back through both decoder delivery paths: the per-event
//! callback, and the buffered fill that the engine's `drive` replays
//! through. Each must reproduce the simulated trace exactly — every event
//! and interval summary, in order. A classifier's output depends only on
//! the events and CPIs it is fed, so equal streams imply equal phase IDs
//! under any classifier configuration.

use tpcp_trace::{encode_trace, BranchEvent, IntervalSummary, RecordedTrace, StreamingDecoder};
use tpcp_workloads::{BenchmarkKind, WorkloadParams};

fn tiny_params() -> WorkloadParams {
    WorkloadParams {
        length_scale: 0.02,
        ..Default::default()
    }
}

/// Every event and summary of a trace, in order.
type Stream = (Vec<BranchEvent>, Vec<IntervalSummary>);

fn simulated(trace: &RecordedTrace) -> Stream {
    let events = trace
        .intervals
        .iter()
        .flat_map(|iv| iv.events.iter().copied())
        .collect();
    let summaries = trace.intervals.iter().map(|iv| iv.summary).collect();
    (events, summaries)
}

fn decoded_by_callback(encoded: &[u8]) -> Stream {
    let mut decoder = StreamingDecoder::new(encoded).expect("test traces are well-formed");
    let (mut events, mut summaries) = (Vec::new(), Vec::new());
    while let Some(summary) = decoder
        .try_next_interval(&mut |ev| events.push(ev))
        .expect("test traces are well-formed")
    {
        summaries.push(summary);
    }
    (events, summaries)
}

fn decoded_buffered(encoded: &[u8]) -> Stream {
    let mut decoder = StreamingDecoder::new(encoded).expect("test traces are well-formed");
    let (mut events, mut summaries) = (Vec::new(), Vec::new());
    while let Some((interval, summary)) = decoder
        .next_interval_buffered()
        .expect("test traces are well-formed")
    {
        events.extend_from_slice(interval);
        summaries.push(summary);
    }
    (events, summaries)
}

#[test]
fn all_eleven_models_round_trip() {
    let params = tiny_params();
    for kind in BenchmarkKind::ALL {
        let label = kind.label();
        let trace = RecordedTrace::record(kind.build(&params).simulate(&params));
        assert!(!trace.is_empty(), "{label}: model produced no intervals");
        let want = simulated(&trace);
        let encoded = encode_trace(&trace);
        for (path, got) in [
            ("callback", decoded_by_callback(&encoded)),
            ("buffered", decoded_buffered(&encoded)),
        ] {
            // Events are compared by first mismatch, so a failure names
            // the diverging index instead of printing both streams.
            assert_eq!(got.0.len(), want.0.len(), "{label} {path}: event counts");
            let first_diff = got.0.iter().zip(&want.0).position(|(a, b)| a != b);
            assert!(
                first_diff.is_none(),
                "{label} {path}: decoded events diverge at {first_diff:?}"
            );
            assert_eq!(got.1, want.1, "{label} {path}: interval summaries diverged");
        }
    }
}
