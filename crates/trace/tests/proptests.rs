//! Property-based tests for trace invariants.

use proptest::prelude::*;
use tpcp_trace::{
    decode_trace, encode_trace, encode_trace_with_index, validate_trace, BbvBuilder, BranchEvent,
    IndexError, IntervalCutter, IntervalSource, PlannedReplay, RecordedTrace, ReplayPlan,
    StreamingDecoder, TraceIndex,
};

fn arb_event() -> impl Strategy<Value = (BranchEvent, u64)> {
    (any::<u64>(), 1u32..500, 0u64..5_000)
        .prop_map(|(pc, insns, cycles)| (BranchEvent::new(pc, insns), cycles))
}

proptest! {
    /// Cutting a stream into intervals never loses or duplicates events,
    /// instructions, or cycles.
    #[test]
    fn cutter_conserves_totals(events in prop::collection::vec(arb_event(), 0..200),
                               interval_size in 1u64..5_000) {
        let want_insns: u64 = events.iter().map(|(e, _)| u64::from(e.insns)).sum();
        let want_cycles: u64 = events.iter().map(|(_, c)| c).sum();
        let want_events = events.len();

        let mut cutter = IntervalCutter::from_iter(interval_size, events);
        let mut got_events = 0usize;
        let mut got_insns = 0u64;
        let mut got_cycles = 0u64;
        while let Some(s) = cutter.next_interval(&mut |_| got_events += 1) {
            got_insns += s.instructions;
            got_cycles += s.cycles;
        }
        prop_assert_eq!(got_events, want_events);
        prop_assert_eq!(got_insns, want_insns);
        prop_assert_eq!(got_cycles, want_cycles);
    }

    /// Every interval except possibly the last reaches the interval size.
    #[test]
    fn only_last_interval_may_be_short(events in prop::collection::vec(arb_event(), 1..200),
                                       interval_size in 1u64..2_000) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        for iv in trace.intervals.iter().rev().skip(1) {
            prop_assert!(iv.summary.instructions >= interval_size);
        }
    }

    /// Codec round-trip is the identity on arbitrary traces.
    #[test]
    fn codec_round_trip(events in prop::collection::vec(arb_event(), 0..300),
                        interval_size in 1u64..3_000) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let decoded = decode_trace(encode_trace(&trace)).unwrap();
        prop_assert_eq!(trace, decoded);
    }

    /// Streaming decode of an encoded trace is indistinguishable from
    /// eager decode: identical intervals, summaries, and event streams.
    #[test]
    fn streaming_decode_equals_eager_decode(
        events in prop::collection::vec(arb_event(), 0..300),
        interval_size in 1u64..3_000,
    ) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let bytes = encode_trace(&trace);
        let eager = decode_trace(bytes.clone()).unwrap();

        prop_assert_eq!(validate_trace(&bytes).unwrap(), trace.len() as u64);
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let streamed = RecordedTrace::record(&mut decoder);
        prop_assert_eq!(decoder.error(), None);
        prop_assert_eq!(&streamed, &eager);
        prop_assert_eq!(&streamed, &trace);
    }

    /// Any strict prefix of an encoded non-empty trace fails to decode —
    /// truncation at every byte boundary is detected by both decoders.
    #[test]
    fn truncated_buffers_always_rejected(
        events in prop::collection::vec(arb_event(), 1..100),
        interval_size in 1u64..2_000,
        cut_seed in any::<u64>(),
    ) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let bytes = encode_trace(&trace);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(validate_trace(&bytes[..cut]).is_err());
        prop_assert!(decode_trace(bytes.slice(..cut)).is_err());
    }

    /// Randomized byte corruption (XOR flips anywhere in the buffer, not
    /// just truncation) never panics the decoders: validation, eager
    /// decode, and a full streaming drain all terminate with `Ok` or a
    /// typed `CodecError`.
    #[test]
    fn corrupted_buffers_never_panic_decoders(
        events in prop::collection::vec(arb_event(), 1..100),
        interval_size in 1u64..2_000,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let mut corrupted = encode_trace(&trace).to_vec();
        for &(pos, mask) in &flips {
            let i = pos % corrupted.len();
            corrupted[i] ^= mask;
        }

        let validated = validate_trace(&corrupted);
        let decoded = decode_trace(bytes::Bytes::from(corrupted.clone()));
        // Eager decode and validation agree on whether the buffer is a
        // trace at all.
        prop_assert_eq!(validated.is_ok(), decoded.is_ok());
        if let Ok(mut decoder) = StreamingDecoder::new(&corrupted) {
            let drained = RecordedTrace::record(&mut decoder);
            if decoder.error().is_none() {
                // A clean streaming drain (e.g. zero masks, or flips that
                // landed in representable fields) means the buffer is a
                // valid trace; the paths must then agree on its contents.
                prop_assert_eq!(validated.unwrap(), drained.len() as u64);
                prop_assert_eq!(decoded.unwrap(), drained);
            } else {
                prop_assert!(validated.is_err());
            }
        } else {
            prop_assert!(validated.is_err());
        }
    }

    /// Replay of a recording is indistinguishable from the recording.
    #[test]
    fn replay_identity(events in prop::collection::vec(arb_event(), 0..200),
                       interval_size in 1u64..2_000) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let replayed = RecordedTrace::record(trace.replay());
        prop_assert_eq!(trace, replayed);
    }

    /// BBV weights are a probability distribution: non-negative, sum to 1.
    #[test]
    fn bbv_is_distribution(events in prop::collection::vec(arb_event(), 1..200)) {
        let mut b = BbvBuilder::new();
        for (ev, _) in &events {
            b.observe(*ev);
        }
        let bbv = b.finish();
        let sum: f64 = bbv.iter().map(|(_, w)| w).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(bbv.iter().all(|(_, w)| w >= 0.0));
    }

    /// The interval index round-trips through its sidecar codec, matches
    /// a rebuild from the payload, and validates against exactly that
    /// payload.
    #[test]
    fn index_round_trip(events in prop::collection::vec(arb_event(), 0..300),
                        interval_size in 1u64..3_000) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let (payload, index) = encode_trace_with_index(&trace);
        prop_assert_eq!(&index, &TraceIndex::build(&payload).unwrap());
        let decoded = TraceIndex::decode(&index.encode()).unwrap();
        prop_assert_eq!(&decoded, &index);
        prop_assert!(decoded.validate(&payload).is_ok());
        prop_assert_eq!(decoded.n_intervals(), trace.len() as u64);
    }

    /// Seeking to any interval boundary and decoding from there is
    /// bit-identical (summaries and event streams) to streaming to that
    /// boundary — for every boundary of the trace.
    #[test]
    fn seek_equals_stream_at_every_boundary(
        events in prop::collection::vec(arb_event(), 1..200),
        interval_size in 1u64..2_000,
    ) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let (payload, index) = encode_trace_with_index(&trace);
        let n = index.n_intervals();

        // Reference: one full streaming pass, per-interval capture.
        let mut streamed = Vec::new();
        let mut decoder = StreamingDecoder::new(&payload).unwrap();
        let mut evs = Vec::new();
        while let Some(s) = decoder.next_interval(&mut |ev| evs.push(ev)) {
            streamed.push((s, std::mem::take(&mut evs)));
        }
        prop_assert_eq!(decoder.error(), None);

        for start in 0..=n {
            let mut seeked = StreamingDecoder::new(&payload).unwrap();
            seeked.seek_to_interval(&index, start).unwrap();
            prop_assert_eq!(seeked.intervals_decoded(), start);
            let mut tail = Vec::new();
            let mut evs = Vec::new();
            while let Some(s) = seeked.next_interval(&mut |ev| evs.push(ev)) {
                tail.push((s, std::mem::take(&mut evs)));
            }
            prop_assert_eq!(seeked.error(), None);
            prop_assert_eq!(&tail[..], &streamed[start as usize..]);
        }
        // One past the end is a loud error, not a wrap or panic.
        let mut past = StreamingDecoder::new(&payload).unwrap();
        prop_assert_eq!(
            past.seek_to_interval(&index, n + 1),
            Err(IndexError::SeekOutOfRange)
        );
    }

    /// A planned replay delivers exactly the planned subset of the full
    /// stream, bit-identical per interval, whatever the plan shape.
    #[test]
    fn planned_replay_equals_filtered_stream(
        events in prop::collection::vec(arb_event(), 1..200),
        interval_size in 1u64..2_000,
        raw_ranges in prop::collection::vec((0u64..40, 1u64..8), 0..6),
    ) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let (payload, index) = encode_trace_with_index(&trace);
        let n = index.n_intervals();

        let mut streamed = Vec::new();
        let mut decoder = StreamingDecoder::new(&payload).unwrap();
        let mut evs = Vec::new();
        while let Some(s) = decoder.next_interval(&mut |ev| evs.push(ev)) {
            streamed.push((s, std::mem::take(&mut evs)));
        }

        let plan = ReplayPlan::from_ranges(
            raw_ranges.iter().map(|&(s, len)| (s.min(n), (s + len).min(n))),
        );
        let expected: Vec<_> = streamed
            .iter()
            .filter(|(s, _)| {
                plan.ranges()
                    .unwrap()
                    .iter()
                    .any(|&(lo, hi)| (lo..hi).contains(&s.index))
            })
            .cloned()
            .collect();

        let mut replay =
            PlannedReplay::new(StreamingDecoder::new(&payload).unwrap(), &index, &plan).unwrap();
        let mut sampled = Vec::new();
        let mut evs = Vec::new();
        while let Some(s) = replay.next_interval(&mut |ev| evs.push(ev)) {
            sampled.push((s, std::mem::take(&mut evs)));
        }
        prop_assert_eq!(replay.error(), None);
        prop_assert_eq!(sampled, expected);
        prop_assert_eq!(
            replay.skip_stats().intervals_skipped,
            n - plan.intervals_planned(n)
        );
    }

    /// Truncated or byte-flipped sidecars decode to a typed
    /// `IndexError` — never a panic — and a tampered sidecar that still
    /// parses structurally fails payload validation.
    #[test]
    fn corrupt_sidecars_fail_gracefully(
        events in prop::collection::vec(arb_event(), 1..120),
        interval_size in 1u64..2_000,
        flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
        let (payload, index) = encode_trace_with_index(&trace);
        prop_assert!(index.validate(&payload).is_ok());
        let sidecar = index.encode();

        // Truncation anywhere strictly inside the sidecar is corrupt.
        let cut = (cut_seed % sidecar.len() as u64) as usize;
        prop_assert_eq!(
            TraceIndex::decode(&sidecar[..cut]),
            Err(IndexError::CorruptIndex)
        );

        // Byte flips anywhere fail the sidecar's self-checksum at decode
        // time. The only way decode can still succeed is when the flips
        // cancelled each other out — in which case the result must be the
        // original index.
        let mut flipped = sidecar.to_vec();
        for &(pos, mask) in &flips {
            let i = pos % flipped.len();
            flipped[i] ^= mask;
        }
        match TraceIndex::decode(&flipped) {
            Err(IndexError::CorruptIndex) => {}
            Err(e) => prop_assert!(false, "unexpected decode error {e:?}"),
            Ok(parsed) => prop_assert_eq!(parsed, index),
        }
    }

    /// Manhattan distance is symmetric, zero on self, and bounded by 2.
    #[test]
    fn bbv_distance_properties(xs in prop::collection::vec((0u64..64, 1u32..100), 1..50),
                               ys in prop::collection::vec((0u64..64, 1u32..100), 1..50)) {
        let mut b = BbvBuilder::new();
        for &(pc, n) in &xs { b.observe(BranchEvent::new(pc, n)); }
        let x = b.finish();
        for &(pc, n) in &ys { b.observe(BranchEvent::new(pc, n)); }
        let y = b.finish();

        prop_assert!(x.manhattan_distance(&x) < 1e-12);
        let d_xy = x.manhattan_distance(&y);
        let d_yx = y.manhattan_distance(&x);
        prop_assert!((d_xy - d_yx).abs() < 1e-12);
        prop_assert!((0.0..=2.0 + 1e-12).contains(&d_xy));
    }
}

/// Scalar-vs-SWAR decode equivalence, generative twin of the unit tests in
/// `codec.rs`: run-structured event streams must decode identically through
/// both kernels, on the intact buffer, at every truncation boundary, and
/// under byte flips.
mod simd {
    use super::*;
    use tpcp_trace::{CodecError, IntervalSummary};

    /// Runs of 1-40 events that each keep one varint byte layout, as a
    /// phase's branch stream does. The SWAR kernel dispatches on that
    /// layout, so streams of independent full-width PCs (every delta a
    /// ~10-byte varint) would only ever reach its fallback. Layouts, as
    /// (zigzag PC-delta bytes, insns bytes): 0 = (1, 1), 1 = (2, 1),
    /// 2 = (2, 2), 3 = a mix of 1- and 2-byte fields, 4 = wide fields of
    /// three or more bytes.
    fn arb_run_stream(
        runs: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(BranchEvent, u64)>> {
        let run = (
            0u8..5,
            prop::collection::vec((any::<u64>(), any::<u32>(), 0u64..5_000), 1..41),
        );
        prop::collection::vec(run, runs).prop_map(|runs| {
            // One or two varint bytes, chosen by the low bit.
            let small = |x: u64| {
                if x & 1 == 0 {
                    (x >> 1) % 0x80
                } else {
                    0x80 + (x >> 1) % 0x3f80
                }
            };
            let mut pc = 0x4000u64;
            let mut events = Vec::new();
            for (layout, raw) in runs {
                for (a, b, cycles) in raw {
                    let b = u64::from(b);
                    let (zigzag, insns) = match layout {
                        0 => (a % 0x80, 1 + b % 0x7f),
                        1 => (0x80 + a % 0x3f80, 1 + b % 0x7f),
                        2 => (0x80 + a % 0x3f80, 0x80 + b % 0x3f80),
                        3 => (small(a), small(b).max(1)),
                        _ => ((a >> (b % 50)).max(0x4000), b.max(0x4000)),
                    };
                    let delta = (zigzag >> 1) ^ (zigzag & 1).wrapping_neg();
                    pc = pc.wrapping_add(delta);
                    events.push((BranchEvent::new(pc, insns as u32), cycles));
                }
            }
            events
        })
    }

    /// Interval sizes from one event per interval up to one interval for
    /// the whole stream, so runs of 2-byte insns (up to 16,383 each) still
    /// fill intervals with many events.
    fn arb_interval_size() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..3_000, 3_000u64..2_000_000]
    }

    /// What one kernel delivers from `data`: every event and summary up
    /// to the error that stopped the stream, and that error.
    type Streamed = (Vec<BranchEvent>, Vec<IntervalSummary>, Option<CodecError>);

    fn stream(data: &[u8], scalar: bool) -> Streamed {
        let mut events = Vec::new();
        let mut summaries = Vec::new();
        let mut decoder = match StreamingDecoder::new(data) {
            Ok(decoder) => decoder,
            Err(e) => return (events, summaries, Some(e)),
        };
        decoder.force_scalar(scalar);
        loop {
            match decoder.try_next_interval(&mut |ev| events.push(ev)) {
                Ok(Some(summary)) => summaries.push(summary),
                Ok(None) => return (events, summaries, None),
                Err(e) => return (events, summaries, Some(e)),
            }
        }
    }

    proptest! {
        /// Both kernels deliver the same event stream on any well-formed
        /// buffer, and the SWAR stream reproduces the original events.
        #[test]
        fn simd_swar_decode_equals_scalar_on_arbitrary_streams(
            events in arb_run_stream(0..12),
            interval_size in arb_interval_size(),
        ) {
            let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
            let data = encode_trace(&trace);
            let swar = stream(&data, false);
            prop_assert_eq!(&swar, &stream(&data, true));
            let (got, _, error) = swar;
            prop_assert_eq!(error, None);
            let want: Vec<BranchEvent> = trace
                .intervals
                .iter()
                .flat_map(|iv| iv.events.iter().copied())
                .collect();
            prop_assert_eq!(got, want);
        }

        /// Truncating an encoded trace anywhere, with or without XOR byte
        /// flips, yields the same delivered events, the same summaries and
        /// the same error from both kernels: the SWAR fast paths only
        /// consume complete in-bounds varints, so every failure funnels
        /// through the shared scalar error path at the same position.
        #[test]
        fn simd_swar_decode_agrees_with_scalar_under_truncation(
            events in arb_run_stream(1..6),
            interval_size in arb_interval_size(),
            flips in prop::collection::vec(
                (any::<usize>(), any::<u8>().prop_map(|mask| mask.max(1))),
                1..4,
            ),
        ) {
            let trace = RecordedTrace::record(IntervalCutter::from_iter(interval_size, events));
            let data = encode_trace(&trace);
            for cut in 0..data.len() {
                let swar = stream(&data[..cut], false);
                prop_assert_eq!(&swar, &stream(&data[..cut], true));
                prop_assert!(swar.2.is_some(), "cut at {} must fail", cut);
            }
            let mut flipped = data.to_vec();
            for &(pos, mask) in &flips {
                let i = pos % flipped.len();
                flipped[i] ^= mask;
            }
            for cut in 0..=flipped.len() {
                prop_assert_eq!(stream(&flipped[..cut], false), stream(&flipped[..cut], true));
            }
        }
    }
}
