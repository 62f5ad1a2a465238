//! Property-based tests for classifier invariants.

use proptest::prelude::*;
use tpcp_core::{
    AccumulatorTable, BitSelection, ClassifierConfig, PhaseClassifier, PhaseId, Signature,
};
use tpcp_trace::BranchEvent;

fn arb_events() -> impl Strategy<Value = Vec<BranchEvent>> {
    prop::collection::vec(
        (0u64..1 << 20, 1u32..500).prop_map(|(pc, n)| BranchEvent::new(pc * 4, n)),
        1..100,
    )
}

fn signature_of(events: &[BranchEvent], dims: usize) -> Signature {
    let mut acc = AccumulatorTable::new(dims);
    for &ev in events {
        acc.observe(ev);
    }
    Signature::from_accumulator(&acc, 6)
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
                .map(|(evs, cpi)| c.classify_interval(evs.iter().copied(), *cpi))
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
            let id = c.classify_interval(evs.iter().copied(), *cpi);
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
            let id = c.classify_interval(evs.iter().copied(), *cpi);
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
            last = c.classify_interval(events.iter().copied(), 1.0);
        }
        prop_assert!(!last.is_transition());
    }
}
