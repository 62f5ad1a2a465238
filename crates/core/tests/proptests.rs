//! Property-based tests for classifier invariants.

use proptest::prelude::*;
use proptest::runner::TestCaseError;
use tpcp_core::{
    AccumulatorTable, AnyExtractor, BitSelection, BitSelectionMode, ClassifierConfig,
    ExtractorKind, FeatureExtractor, PhaseClassifier, PhaseId, Signature,
};
use tpcp_trace::{
    encode_trace, BranchEvent, Frame, IntervalSource, IntervalSummary, RecordedInterval,
    RecordedTrace, StreamingDecoder,
};

fn arb_events() -> impl Strategy<Value = Vec<BranchEvent>> {
    prop::collection::vec(
        (0u64..1 << 20, 1u32..500).prop_map(|(pc, n)| BranchEvent::new(pc * 4, n)),
        1..100,
    )
}

/// Branches over a small code footprint (so buckets collide at every
/// width), with block sizes up to `u32::MAX` (so BBV counters saturate).
fn arb_fold_events() -> impl Strategy<Value = Vec<BranchEvent>> {
    prop::collection::vec(
        (
            0u64..1 << 12,
            prop_oneof![1u32..500, any::<u32>(), Just(u32::MAX)],
        )
            .prop_map(|(pc, n)| BranchEvent::new(pc * 4, n)),
        0..200,
    )
}

fn signature_of(events: &[BranchEvent], dims: usize) -> Signature {
    let mut acc = AccumulatorTable::new(dims);
    for &ev in events {
        acc.observe(ev);
    }
    Signature::from_accumulator(&acc, 6)
}

/// Observes one interval's events, then ends the interval.
fn classify_interval(
    c: &mut PhaseClassifier,
    events: impl IntoIterator<Item = BranchEvent>,
    cpi: f64,
) -> PhaseId {
    for ev in events {
        c.observe(ev);
    }
    c.end_interval(cpi)
}

proptest! {
    /// Signature distance is a pseudometric: non-negative, symmetric,
    /// zero on identical inputs, and normalized into [0, 1].
    #[test]
    fn distance_is_pseudometric(a in arb_events(), b in arb_events()) {
        let sa = signature_of(&a, 16);
        let sb = signature_of(&b, 16);
        let d_ab = sa.normalized_distance(&sb);
        let d_ba = sb.normalized_distance(&sa);
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_ab));
        prop_assert!(sa.normalized_distance(&sa) < 1e-12);
    }

    /// Compression never exceeds the per-dimension ceiling and is monotone
    /// in the counter value.
    #[test]
    fn compression_bounded_and_monotone(avg in 1u64..1 << 24, c1 in 0u64..1 << 24, c2 in 0u64..1 << 24) {
        let sel = BitSelection::for_average(avg, 6);
        let lo = c1.min(c2);
        let hi = c1.max(c2);
        let v_lo = sel.compress(lo);
        let v_hi = sel.compress(hi);
        prop_assert!(v_lo <= 63 && v_hi <= 63);
        prop_assert!(v_lo <= v_hi, "compress must be monotone: {lo}->{v_lo}, {hi}->{v_hi}");
    }

    /// The classifier is a pure function of its input stream.
    #[test]
    fn classifier_is_deterministic(intervals in prop::collection::vec((arb_events(), 0.1f64..10.0), 1..30)) {
        let run = || {
            let mut c = PhaseClassifier::new(ClassifierConfig::hpca2005());
            intervals
                .iter()
                .map(|(evs, cpi)| classify_interval(&mut c, evs.iter().copied(), *cpi))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Structural invariants hold on any input: the table never exceeds its
    /// capacity, phase IDs are dense, and interval accounting balances.
    #[test]
    fn classifier_invariants(intervals in prop::collection::vec((arb_events(), 0.1f64..10.0), 1..40),
                             capacity in 1usize..16,
                             min_count in 0u8..4) {
        let cfg = ClassifierConfig::builder()
            .table_entries(Some(capacity))
            .min_count(min_count)
            .build();
        let mut c = PhaseClassifier::new(cfg);
        let mut max_id = 0u32;
        let mut stable = 0u64;
        for (evs, cpi) in &intervals {
            let id = classify_interval(&mut c, evs.iter().copied(), *cpi);
            if !id.is_transition() {
                stable += 1;
                max_id = max_id.max(id.value());
            }
            prop_assert!(c.table().len() <= capacity);
        }
        // IDs are allocated densely from 1.
        prop_assert!(u64::from(max_id) <= c.phases_created());
        prop_assert_eq!(stable + c.transition_intervals(), c.intervals_seen());
        prop_assert_eq!(c.intervals_seen(), intervals.len() as u64);
    }

    /// With min_count = 0 no interval is ever classified as transition.
    #[test]
    fn no_transition_when_disabled(intervals in prop::collection::vec((arb_events(), 0.1f64..10.0), 1..30)) {
        let cfg = ClassifierConfig::builder().min_count(0).build();
        let mut c = PhaseClassifier::new(cfg);
        for (evs, cpi) in &intervals {
            let id = classify_interval(&mut c, evs.iter().copied(), *cpi);
            prop_assert_ne!(id, PhaseId::TRANSITION);
        }
        prop_assert_eq!(c.transition_fraction(), 0.0);
    }

    /// Repeating the same interval enough times always yields a stable
    /// phase, independent of the events' content.
    #[test]
    fn repetition_promotes(events in arb_events(), min_count in 1u8..10) {
        let cfg = ClassifierConfig::builder().min_count(min_count).build();
        let mut c = PhaseClassifier::new(cfg);
        let mut last = PhaseId::TRANSITION;
        for _ in 0..=u32::from(min_count) + 1 {
            last = classify_interval(&mut c, events.iter().copied(), 1.0);
        }
        prop_assert!(!last.is_transition());
    }

    /// A narrower extractor is an exact fold of a wider one: for every
    /// kind, a 64-dim extractor folded into each narrower power of two
    /// (down to 2 dims for branch-mix, 1 for the others) equals one built
    /// at that width from the same events, in state (saturated counters,
    /// totals, the working-set region recount) and in the signature it
    /// finalizes to under dynamic and static bit selection. The fold
    /// target starts dirty, because the engine never resets one.
    #[test]
    fn folding_a_wide_extractor_equals_building_it_narrow(
        events in arb_fold_events(),
        low_bit in 0u32..24,
    ) {
        let configs = [
            ClassifierConfig::hpca2005(),
            ClassifierConfig::builder()
                .bit_selection(BitSelectionMode::Static { low_bit })
                .build(),
        ];
        for kind in ExtractorKind::ALL {
            let mut wide = kind.build(64);
            for &ev in &events {
                wide.observe(ev);
            }
            let narrowest = if kind == ExtractorKind::BranchMix { 2 } else { 1 };
            let mut dims = 64;
            while dims >= narrowest {
                let mut built = kind.build(dims);
                for &ev in &events {
                    built.observe(ev);
                }
                let mut folded = kind.build(dims);
                folded.observe(BranchEvent::new(0x40, 7));
                wide.fold_into(&mut folded);
                prop_assert!(folded == built, "{kind} at {dims} dims: {folded:?} != {built:?}");
                for config in &configs {
                    let (f, b) = (
                        folded.finalize_into(config, Vec::new()),
                        built.finalize_into(config, Vec::new()),
                    );
                    prop_assert!(f == b, "{kind} at {dims} dims, {:?}: {f:?} != {b:?}", config.bit_selection);
                }
                dims /= 2;
            }
        }
    }
}

/// `observe_frame` against per-event `observe`: one frame must leave every
/// extractor exactly as its events, observed one by one in program order,
/// would.
mod frames {
    use super::*;

    /// One interval's events over `n_pairs` distinct `(pc, insns)` pairs,
    /// each used at least once, plus `extra` re-uses in shuffled order. PCs
    /// sit in a small code footprint (buckets collide at every width, and
    /// the order runs both up and down, so branch-mix sees both
    /// directions); block sizes run up to `u32::MAX`, so BBV counters
    /// saturate.
    fn arb_interval(max_pairs: u64) -> impl Strategy<Value = Vec<BranchEvent>> {
        (1..max_pairs + 1, 0usize..600, any::<u64>()).prop_map(|(n_pairs, extra, seed)| {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let pairs: Vec<BranchEvent> = (0..n_pairs)
                .map(|i| {
                    let insns = match next() % 4 {
                        0 => u32::MAX,
                        1 => next() as u32,
                        _ => 1 + (next() % 500) as u32,
                    };
                    BranchEvent::new(0x40_0000 + 4 * i, insns)
                })
                .collect();
            let mut events = pairs.clone();
            events.extend((0..extra).map(|_| pairs[(next() % n_pairs) as usize]));
            for k in (1..events.len()).rev() {
                events.swap(k, (next() % (k as u64 + 1)) as usize);
            }
            events
        })
    }

    /// A few events observed before the frame: dirty counters, and a
    /// starting `last_pc` that is zero only when this is empty.
    fn arb_prefix() -> impl Strategy<Value = Vec<BranchEvent>> {
        prop::collection::vec(
            (0u64..1 << 12, 1u32..500).prop_map(|(pc, n)| BranchEvent::new(0x40_0000 + pc * 4, n)),
            0..6,
        )
    }

    /// Every kind at every width from 2 to 64 dims: the prefix observed
    /// event by event, then the interval as `frame` on one copy and event
    /// by event on the other; the two must be equal in full state and in
    /// the signature they finalize to.
    fn check(
        prefix: &[BranchEvent],
        events: &[BranchEvent],
        frame: &Frame<'_>,
    ) -> Result<(), TestCaseError> {
        let mut walked = Vec::new();
        frame.for_each_event(|ev| walked.push(ev));
        prop_assert_eq!(&walked[..], events);
        prop_assert_eq!(frame.counts().iter().sum::<u64>(), events.len() as u64);
        for kind in ExtractorKind::ALL {
            let mut dims = 2;
            while dims <= 64 {
                let mut by_frame = kind.build(dims);
                let mut by_event = kind.build(dims);
                for &ev in prefix {
                    by_frame.observe(ev);
                    by_event.observe(ev);
                }
                by_frame.observe_frame(frame);
                for &ev in events {
                    by_event.observe(ev);
                }
                prop_assert!(
                    by_frame == by_event,
                    "{kind} at {dims} dims: {by_frame:?} != {by_event:?}"
                );
                let config = ClassifierConfig::builder().accumulators(dims).build();
                prop_assert_eq!(
                    by_frame.finalize_into(&config, Vec::new()),
                    by_event.finalize_into(&config, Vec::new())
                );
                dims *= 2;
            }
        }
        Ok(())
    }

    fn one_interval(events: &[BranchEvent]) -> RecordedTrace {
        RecordedTrace {
            intervals: vec![RecordedInterval {
                events: events.to_vec(),
                summary: IntervalSummary::new(0, 1, 1),
            }],
        }
    }

    proptest! {
        /// A decoded trace frame (distinct pairs with counts, 1-byte ids
        /// up to 256 pairs and 2-byte ids past that) and the default
        /// adapter's frame (every event its own count-1 pair, so pairs
        /// repeat) both equal the per-event walk.
        #[test]
        fn observe_frame_equals_per_event_observe(
            events in prop_oneof![arb_interval(256), arb_interval(700)],
            prefix in arb_prefix(),
        ) {
            let trace = one_interval(&events);
            let bytes = encode_trace(&trace);
            let mut decoder = StreamingDecoder::new(&bytes).unwrap();
            let (frame, _) = decoder.try_next_frame().unwrap().unwrap();
            let distinct: std::collections::HashSet<_> = events.iter().collect();
            prop_assert_eq!(frame.pairs().len(), distinct.len());
            check(&prefix, &events, &frame)?;

            let mut replay = trace.replay();
            let (frame, _) = replay.next_frame().unwrap();
            prop_assert_eq!(frame.pairs(), &events[..]);
            check(&prefix, &events, &frame)?;
        }
    }

    /// A pair that no event id names stands for no event: its count is 0,
    /// and no extractor touches a counter or bit for it, although the
    /// same block observed once would.
    #[test]
    fn frame_pair_with_count_zero_touches_no_extractor() {
        let (a, b, unused) = (
            BranchEvent::new(0x40_0000, 30),
            BranchEvent::new(0x40_0080, 50),
            BranchEvent::new(0x7f_0000, 70),
        );
        let mut bytes = encode_trace(&one_interval(&[a, b, unused, a])).to_vec();
        // The id run closes the buffer, one byte per event: point the
        // third event at pair 0.
        let third = bytes.len() - 2;
        assert_eq!(bytes[third], 2);
        bytes[third] = 0;
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let (frame, _) = decoder.try_next_frame().unwrap().unwrap();
        assert_eq!(frame.pairs(), &[a, b, unused]);
        assert_eq!(frame.counts(), &[3, 1, 0]);
        for kind in ExtractorKind::ALL {
            let mut by_frame = kind.build(64);
            by_frame.observe_frame(&frame);
            let walk = |extra: &[BranchEvent]| {
                let mut x: AnyExtractor = kind.build(64);
                for &ev in [a, b, a, a].iter().chain(extra) {
                    x.observe(ev);
                }
                x
            };
            assert_eq!(by_frame, walk(&[]), "{kind}");
            assert_ne!(
                by_frame,
                walk(&[unused]),
                "{kind}: the unused block must be visible"
            );
        }
    }
}
