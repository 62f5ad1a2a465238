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

/// The dictionary-coded frame format, generatively: frames at every event
/// id width (up to 256 distinct pairs, up to 65,536, and more) and empty
/// frames round-trip through every decode path, and a cut or flipped byte
/// anywhere fails the same structured way on each.
mod dict {
    use super::*;
    use proptest::runner::TestCaseError;
    use tpcp_trace::{CodecError, IntervalSummary, RecordedInterval};

    /// One frame's shape: distinct-pair count, extra events re-using
    /// those pairs, and a seed for PCs, instruction counts and order.
    type FrameSpec = (u64, u64, u64);

    /// Frame shapes. The pair count is 0 (an empty frame) or lands in the
    /// 1-byte id range, the 2-byte range, or (when `wide`) the 4-byte
    /// range.
    fn arb_frame(wide: bool) -> impl Strategy<Value = FrameSpec> {
        let classes = if wide { 9u8 } else { 8 };
        (0..classes, any::<u64>(), 0u64..100, any::<u64>()).prop_map(
            |(class, raw, repeats, seed)| {
                let n_distinct = match class {
                    0 => 0,
                    1..=4 => 1 + raw % 256,
                    5..=7 => 257 + raw % 64,
                    _ => 65_537 + raw % 64,
                };
                (n_distinct, repeats, seed)
            },
        )
    }

    /// Builds the trace the specs describe. Each frame's pairs have
    /// distinct PCs (basic blocks 0x80 apart with occasional wide jumps,
    /// first used partly out of order, so PC deltas go both ways) and
    /// instruction counts from 1 to `u32::MAX`; new pairs and re-uses of
    /// earlier ones interleave.
    fn build(frames: &[FrameSpec]) -> RecordedTrace {
        let intervals = frames
            .iter()
            .enumerate()
            .map(|(i, &(n_distinct, repeats, seed))| {
                let mut x = seed | 1;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut pc = next() >> 8;
                let mut pairs: Vec<BranchEvent> = (0..n_distinct)
                    .map(|_| {
                        let r = next();
                        pc += if r % 16 == 0 {
                            r >> 40
                        } else {
                            0x80 * (1 + (r >> 8) % 4)
                        };
                        let insns = if r % 8 == 1 {
                            (r >> 16) as u32
                        } else {
                            1 + (r >> 20) as u32 % 300
                        };
                        BranchEvent::new(pc, insns)
                    })
                    .collect();
                for k in 1..pairs.len() {
                    if next() % 4 == 0 {
                        pairs.swap(k - 1, k);
                    }
                }
                let repeats = if n_distinct == 0 { 0 } else { repeats };
                let mut events = Vec::with_capacity((n_distinct + repeats) as usize);
                let (mut introduced, mut left) = (0usize, repeats);
                while introduced < pairs.len() || left > 0 {
                    let r = next();
                    if introduced < pairs.len() && (introduced == 0 || left == 0 || r % 2 == 0) {
                        events.push(pairs[introduced]);
                        introduced += 1;
                    } else {
                        events.push(pairs[(r >> 1) as usize % introduced]);
                        left -= 1;
                    }
                }
                let instructions = events.iter().map(|e| u64::from(e.insns)).sum();
                RecordedInterval {
                    events,
                    summary: IntervalSummary::new(i as u64, instructions, seed % 1_000_000),
                }
            })
            .collect();
        RecordedTrace { intervals }
    }

    /// Everything a decode delivered: events and summaries, or the error
    /// that stopped it.
    type Decoded = Result<(Vec<BranchEvent>, Vec<IntervalSummary>), CodecError>;

    fn flatten(trace: &RecordedTrace) -> (Vec<BranchEvent>, Vec<IntervalSummary>) {
        let events = trace
            .intervals
            .iter()
            .flat_map(|iv| iv.events.iter().copied())
            .collect();
        let summaries = trace.intervals.iter().map(|iv| iv.summary).collect();
        (events, summaries)
    }

    /// Decodes `data` through the streaming callback, the counted frame
    /// path, the buffered streaming path and the eager decoder, checks
    /// that they and `validate_trace` agree, and returns the shared
    /// result.
    fn decode_all_paths(data: &[u8]) -> Result<Decoded, TestCaseError> {
        let streamed: Decoded = StreamingDecoder::new(data).and_then(|mut decoder| {
            let (mut events, mut summaries) = (Vec::new(), Vec::new());
            while let Some(s) = decoder.try_next_interval(&mut |ev| events.push(ev))? {
                summaries.push(s);
            }
            Ok((events, summaries))
        });
        let buffered: Decoded = StreamingDecoder::new(data).and_then(|mut decoder| {
            let (mut events, mut summaries) = (Vec::new(), Vec::new());
            while let Some((evs, s)) = decoder.next_interval_buffered()? {
                events.extend_from_slice(evs);
                summaries.push(s);
            }
            Ok((events, summaries))
        });
        let framed: Decoded = StreamingDecoder::new(data).and_then(|mut decoder| {
            let (mut events, mut summaries) = (Vec::new(), Vec::new());
            while let Some((frame, s)) = decoder.try_next_frame()? {
                let mut occurrences = vec![0u64; frame.pairs().len()];
                frame.for_each_id(|id| occurrences[id] += 1);
                assert_eq!(frame.counts(), &occurrences[..]);
                frame.for_each_event(|ev| events.push(ev));
                summaries.push(s);
            }
            Ok((events, summaries))
        });
        let eager = decode_trace(data.to_vec().into()).map(|t| flatten(&t));
        prop_assert_eq!(&streamed, &framed);
        prop_assert_eq!(&streamed, &buffered);
        prop_assert_eq!(&streamed, &eager);
        prop_assert_eq!(
            validate_trace(data),
            streamed
                .as_ref()
                .map(|(_, s)| s.len() as u64)
                .map_err(Clone::clone)
        );
        Ok(streamed)
    }

    proptest! {
        /// Every frame shape round-trips through every decode path, and
        /// cuts at sampled positions fail the same way on each.
        #[test]
        fn dict_frames_round_trip_at_every_id_width(
            frames in prop::collection::vec(arb_frame(true), 0..4),
            cuts in prop::collection::vec(any::<u64>(), 8),
        ) {
            let trace = build(&frames);
            let data = encode_trace(&trace);
            prop_assert_eq!(decode_all_paths(&data)?, Ok(flatten(&trace)));
            for cut in cuts {
                let cut = (cut % data.len() as u64) as usize;
                prop_assert!(decode_all_paths(&data[..cut])?.is_err(), "cut at {} must fail", cut);
            }
        }

        /// Truncating an encoded trace at every byte, with or without XOR
        /// byte flips, yields the same delivered events, summaries and
        /// error on every decode path, and never a panic.
        #[test]
        fn dict_truncation_and_flips_agree_on_every_path(
            frame in arb_frame(false),
            flips in prop::collection::vec(
                (any::<usize>(), any::<u8>().prop_map(|mask| mask.max(1))),
                1..4,
            ),
        ) {
            let data = encode_trace(&build(&[frame]));
            for cut in 0..data.len() {
                prop_assert!(decode_all_paths(&data[..cut])?.is_err(), "cut at {} must fail", cut);
            }
            let mut flipped = data.to_vec();
            for &(pos, mask) in &flips {
                let i = pos % flipped.len();
                flipped[i] ^= mask;
            }
            for cut in 0..=flipped.len() {
                let _ = decode_all_paths(&flipped[..cut])?;
            }
        }
    }
}

/// `BbvBuilder` against an independent reference: the ordered-map builder
/// it replaced. Every interval's vector must match the reference bit for
/// bit, through one builder reused across intervals.
mod bbv_oracle {
    use super::*;
    use std::collections::BTreeMap;

    /// Per-PC instruction sums in an ordered map, normalized by the
    /// interval total at `finish`.
    #[derive(Default)]
    struct ReferenceBuilder {
        raw: BTreeMap<u64, u64>,
        total: u64,
    }

    impl ReferenceBuilder {
        fn observe(&mut self, ev: BranchEvent) {
            *self.raw.entry(ev.pc).or_insert(0) += u64::from(ev.insns);
            self.total += u64::from(ev.insns);
        }

        fn finish(&mut self) -> BTreeMap<u64, f64> {
            let total = self.total.max(1) as f64;
            self.total = 0;
            std::mem::take(&mut self.raw)
                .into_iter()
                .map(|(pc, n)| (pc, n as f64 / total))
                .collect()
        }
    }

    /// L1 distance by an ordered merge over both maps, summing terms in
    /// ascending PC order.
    fn reference_distance(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> f64 {
        let mut dist = 0.0;
        let mut a = a.iter().peekable();
        let mut b = b.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some((&pa, &wa)), Some((&pb, &wb))) => {
                    if pa == pb {
                        dist += (wa - wb).abs();
                        a.next();
                        b.next();
                    } else if pa < pb {
                        dist += wa;
                        a.next();
                    } else {
                        dist += wb;
                        b.next();
                    }
                }
                (Some((_, &wa)), None) => {
                    dist += wa;
                    a.next();
                }
                (None, Some((_, &wb))) => {
                    dist += wb;
                    b.next();
                }
                (None, None) => break,
            }
        }
        dist
    }

    /// PCs at both ends of the range, a small pool that repeats, aligned
    /// code addresses, and arbitrary ones; instruction counts of zero (a
    /// zero-weight component), small, and up to `u32::MAX`.
    fn arb_bbv_event() -> impl Strategy<Value = BranchEvent> {
        let pc = prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            0u64..8,
            (0u64..4_096).prop_map(|i| 0x40_0000 + 4 * i),
            any::<u64>(),
        ];
        let insns = prop_oneof![Just(0u32), 0u32..500, any::<u32>()];
        (pc, insns).prop_map(|(pc, insns)| BranchEvent::new(pc, insns))
    }

    /// Bit patterns of a vector's components, in iteration order.
    fn bits(components: impl Iterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
        components.map(|(pc, w)| (pc, w.to_bits())).collect()
    }

    proptest! {
        /// Intervals of up to 1,500 events, about two in five at a fresh
        /// PC, so many hold more distinct PCs than the first table has
        /// room for (128 at half load) and it grows mid-interval. Each
        /// vector's distance is checked against the previous interval's
        /// and against one over mid-range PCs only, so the merge also
        /// takes its head and tail paths on both sides.
        #[test]
        fn builder_equals_ordered_map_reference_bit_for_bit(
            intervals in prop::collection::vec(
                prop::collection::vec(arb_bbv_event(), 0..1_500),
                1..6,
            ),
            mid in prop::collection::vec((0u64..64, 0u32..500), 0..40),
        ) {
            let mut builder = BbvBuilder::new();
            let mut reference = ReferenceBuilder::default();
            for &(i, insns) in &mid {
                let ev = BranchEvent::new(0x40_0000 + 4 * i, insns);
                builder.observe(ev);
                reference.observe(ev);
            }
            let mid = (builder.finish(), reference.finish());
            let mut previous = mid.clone();
            for events in &intervals {
                for &ev in events {
                    builder.observe(ev);
                    reference.observe(ev);
                }
                prop_assert_eq!(builder.total_instructions(), reference.total);
                let got = builder.finish();
                let want = reference.finish();
                prop_assert_eq!(builder.total_instructions(), 0);

                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(got.is_empty(), want.is_empty());
                prop_assert_eq!(bits(got.iter()), bits(want.iter().map(|(&pc, &w)| (pc, w))));
                for (&pc, &w) in &want {
                    prop_assert_eq!(got.weight(pc).to_bits(), w.to_bits());
                    for probe in [pc.wrapping_add(1), pc.wrapping_sub(1)] {
                        if !want.contains_key(&probe) {
                            prop_assert_eq!(got.weight(probe).to_bits(), 0.0f64.to_bits());
                        }
                    }
                }
                for probe in [0, u64::MAX, 0x40_0002] {
                    let w = want.get(&probe).copied().unwrap_or(0.0);
                    prop_assert_eq!(got.weight(probe).to_bits(), w.to_bits());
                }

                for (other_got, other_want) in [&previous, &mid] {
                    let d = reference_distance(&want, other_want);
                    prop_assert_eq!(got.manhattan_distance(other_got).to_bits(), d.to_bits());
                    let d = reference_distance(other_want, &want);
                    prop_assert_eq!(other_got.manhattan_distance(&got).to_bits(), d.to_bits());
                }
                previous = (got, want);
            }
        }

        /// The weighted add against the same reference fed each event
        /// `count` times: one builder mixes weighted and per-event adds
        /// across intervals, and a count of 0 adds no component, not even
        /// a zero-weight one.
        #[test]
        fn weighted_add_equals_ordered_map_reference_bit_for_bit(
            intervals in prop::collection::vec(
                prop::collection::vec(
                    (arb_bbv_event(), prop_oneof![Just(0u64), Just(1u64), 0u64..40], any::<bool>()),
                    0..300,
                ),
                1..5,
            ),
        ) {
            let mut builder = BbvBuilder::new();
            let mut reference = ReferenceBuilder::default();
            for adds in &intervals {
                for &(ev, count, weighted) in adds {
                    if weighted {
                        builder.observe_weighted(ev, count);
                    } else {
                        for _ in 0..count {
                            builder.observe(ev);
                        }
                    }
                    for _ in 0..count {
                        reference.observe(ev);
                    }
                }
                prop_assert_eq!(builder.total_instructions(), reference.total);
                let got = builder.finish();
                let want = reference.finish();
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(bits(got.iter()), bits(want.iter().map(|(&pc, &w)| (pc, w))));
            }
        }
    }
}
