//! End-to-end trace-format round trip over the paper's workloads.
//!
//! Every one of the paper's 11 benchmark models is simulated, encoded and
//! streamed back through both decoder delivery paths: the per-event
//! callback, and the buffered fill that the engine's `drive` replays
//! through. Each must reproduce the simulated trace exactly — every event
//! and interval summary, in order. A classifier's output depends only on
//! the events and CPIs it is fed, so equal streams imply equal phase IDs
//! under any classifier configuration.
//!
//! The multi-size recorder that fills the trace cache (one simulation cut
//! at several interval sizes) must record, for every size, exactly the
//! trace that a simulation at that size records.

use tpcp_experiments::suite::simulate_sizes;
use tpcp_experiments::SuiteParams;
use tpcp_trace::{
    encode_trace, encode_trace_with_index, BranchEvent, IntervalSummary, RecordedTrace,
    StreamingDecoder,
};
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

/// The trace one simulation of `kind` at interval size `size` records.
fn recorded_at(kind: BenchmarkKind, params: WorkloadParams, size: u64) -> RecordedTrace {
    let params = WorkloadParams {
        interval_size: size,
        ..params
    };
    RecordedTrace::record(kind.build(&params).simulate(&params))
}

/// `simulate_sizes` at `sizes` equals a separate simulation at each size:
/// the same intervals, the same encoded payload and the same index.
fn assert_cuts_match(kind: BenchmarkKind, params: WorkloadParams, sizes: &[u64]) {
    let cuts = simulate_sizes(kind, &SuiteParams { workload: params }, sizes);
    assert_eq!(cuts.len(), sizes.len());
    for (&size, cut) in sizes.iter().zip(&cuts) {
        let label = format!("{} at {size}", kind.label());
        let want = recorded_at(kind, params, size);
        assert_eq!(cut.len(), want.len(), "{label}: interval counts");
        assert!(*cut == want, "{label}: recorded traces differ");
        let (bytes, index) = encode_trace_with_index(cut);
        let (want_bytes, want_index) = encode_trace_with_index(&want);
        assert!(bytes == want_bytes, "{label}: encoded payloads differ");
        assert_eq!(index, want_index, "{label}: interval indexes differ");
    }
}

/// A tenth of `tiny_params`' length at a tenth of its interval size: as
/// many intervals per trace, at a tenth of the simulation time, which
/// matters here because each model is simulated four times.
#[test]
fn one_simulation_cuts_every_interval_size_like_its_own_simulation() {
    let params = WorkloadParams {
        length_scale: 0.002,
        interval_size: 100_000,
        ..Default::default()
    };
    let size = params.interval_size;
    for kind in BenchmarkKind::ALL {
        assert_cuts_match(kind, params, &[size / 4, size, size * 4]);
    }
}

/// Extreme cuts of one short run: every block its own interval (size 1),
/// a prime size, a size past the whole program (one truncated interval),
/// and a list that repeats a size.
#[test]
fn extreme_and_repeated_interval_sizes_cut_like_their_own_simulations() {
    let params = WorkloadParams {
        length_scale: 0.0005,
        ..Default::default()
    };
    for kind in BenchmarkKind::ALL {
        let whole = recorded_at(kind, params, u64::MAX);
        assert_eq!(whole.len(), 1, "{}: one truncated interval", kind.label());
        let past_the_end = whole.total_instructions() + 1;
        assert_cuts_match(kind, params, &[1, 7_919, past_the_end, 7_919]);
    }
}
