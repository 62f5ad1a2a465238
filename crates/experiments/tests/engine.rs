//! Regression tests for the experiment engine: the single-replay sweep
//! must produce exactly the results of the old serial per-config path,
//! replay every trace at most once, and be deterministic regardless of
//! worker scheduling.

use tpcp_core::ClassifierConfig;
use tpcp_experiments::figures;
use tpcp_experiments::suite::test_cache;
use tpcp_experiments::{run_classifier, Engine, EngineError, SuiteParams, SweepError, Table};
use tpcp_workloads::BenchmarkKind;

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Two benchmarks, two configs: the engine's classification lanes must
/// match the serial `run_classifier` reference path exactly, including a
/// table rendered from each.
#[test]
fn engine_matches_serial_reference() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let benches = [BenchmarkKind::GzipGraphic, BenchmarkKind::Mcf];
    let configs = [
        ClassifierConfig::hpca2005(),
        ClassifierConfig::builder().best_match(false).build(),
    ];

    let mut engine = Engine::new(params);
    let cells: Vec<Vec<_>> = benches
        .iter()
        .map(|&kind| {
            configs
                .iter()
                .map(|&config| engine.classified(kind, config))
                .collect()
        })
        .collect();
    let stats = engine.run(&cache);
    assert_eq!(stats.traces_replayed(), benches.len());
    assert_eq!(stats.max_replays_per_trace(), 1);

    let mut engine_table = Table::new(
        "engine",
        vec!["bench".into(), "cov a".into(), "cov b".into()],
    );
    let mut serial_table = Table::new(
        "engine",
        vec!["bench".into(), "cov a".into(), "cov b".into()],
    );
    for (&kind, row_cells) in benches.iter().zip(&cells) {
        let trace = cache.load_or_simulate(kind, &params);
        let mut engine_row = vec![kind.label().to_owned()];
        let mut serial_row = vec![kind.label().to_owned()];
        for (&config, cell) in configs.iter().zip(row_cells) {
            let from_engine = cell.take();
            let from_serial = run_classifier(&trace, config);
            assert_eq!(from_engine, from_serial, "{} {config:?}", kind.label());
            engine_row.push(pct(from_engine.cov.weighted_cov()));
            serial_row.push(pct(from_serial.cov.weighted_cov()));
        }
        engine_table.row(engine_row);
        serial_table.row(serial_row);
    }
    assert_eq!(engine_table.render(), serial_table.render());
}

/// Several figures sharing one engine: every benchmark trace is replayed
/// exactly once for the whole batch, and each figure's tables are
/// identical to the ones it produces on a private engine.
#[test]
fn shared_engine_replays_each_trace_once() {
    let cache = test_cache();
    let params = SuiteParams::quick();

    let mut engine = Engine::new(params);
    let fig2 = figures::fig2::register(&mut engine);
    let fig9 = figures::fig9::register(&mut engine);
    let metric = figures::metric_pred::register(&mut engine);
    let stats = engine.run(&cache);

    assert_eq!(stats.traces_replayed(), 11);
    assert_eq!(stats.max_replays_per_trace(), 1);
    assert!(stats.replay_counts().values().all(|&n| n == 1));

    let render = |tables: Vec<Table>| -> Vec<String> { tables.iter().map(Table::render).collect() };
    let batch = [render(fig2()), render(fig9()), render(metric())];
    let alone = [
        render(figures::fig2::run(&cache, &params)),
        render(figures::fig9::run(&cache, &params)),
        render(figures::metric_pred::run(&cache, &params)),
    ];
    assert_eq!(batch, alone);
}

/// Streaming replay (the engine's path: encoded bytes through a
/// `StreamingDecoder`) and eager replay (materialized `RecordedTrace`)
/// produce identical `ClassifiedRun`s — the zero-copy decode is
/// observationally equivalent to full materialization.
#[test]
fn streaming_and_eager_replay_classify_identically() {
    use tpcp_trace::{decode_trace, drive, IntervalSink, StreamingDecoder};

    let cache = test_cache();
    let params = SuiteParams::quick();
    for kind in [BenchmarkKind::Mcf, BenchmarkKind::GzipGraphic] {
        let bytes = cache.load_bytes_or_simulate(kind, &params);
        let config = ClassifierConfig::hpca2005();

        // Eager: materialize, then classify the replay.
        let trace = decode_trace(bytes.clone()).unwrap();
        let eager = run_classifier(&trace, config);

        // Streaming: classify straight off the encoded buffer. The engine
        // registers a classifier lane over the same byte stream.
        let mut engine = Engine::new(params);
        let cell = engine.classified(kind, config);
        engine.run(&cache);
        let streamed = cell.take();

        assert_eq!(streamed, eager, "{}", kind.label());

        // And the raw interval stream itself is identical: a counting sink
        // driven from the decoder sees the same events and summaries.
        #[derive(Default, PartialEq, Debug)]
        struct Tally {
            events: u64,
            insns: u64,
            intervals: u64,
            cycles: u64,
        }
        impl IntervalSink for Tally {
            fn observe(&mut self, ev: &tpcp_trace::BranchEvent) {
                self.events += 1;
                self.insns += u64::from(ev.insns);
            }
            fn end_interval(&mut self, summary: &tpcp_trace::IntervalSummary) {
                self.intervals += 1;
                self.cycles += summary.cycles;
            }
        }
        let mut from_stream = Tally::default();
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        drive(&mut decoder, &mut [&mut from_stream]);
        let mut from_eager = Tally::default();
        drive(&mut trace.replay(), &mut [&mut from_eager]);
        assert_eq!(from_stream, from_eager, "{}", kind.label());
    }
}

/// Two identical engine runs produce identical output: results are keyed
/// by registration, not by worker scheduling.
#[test]
fn engine_output_is_deterministic() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let run_once = || {
        let mut engine = Engine::new(params);
        let pending = figures::fig4::register(&mut engine);
        engine.run(&cache);
        pending().iter().map(Table::render).collect::<Vec<String>>()
    };
    assert_eq!(run_once(), run_once());
}

/// A spread of configurations mixing every supported accumulator count,
/// so one group carries three shared accumulation front-ends.
fn mixed_count_configs() -> Vec<ClassifierConfig> {
    (0..24)
        .map(|i| {
            ClassifierConfig::builder()
                .accumulators([16, 32, 64][i % 3])
                .table_entries(Some(16 + i))
                .best_match(i % 2 == 0)
                .build()
        })
        .collect()
}

/// The shared accumulation front-end plus lane sharding must reproduce
/// the serial per-lane classifier bit for bit: 24 lanes mixing 16/32/64
/// accumulators over one trace, swept with 8 workers so the single group
/// shards its lanes across threads.
#[test]
fn shared_front_end_and_sharding_match_serial_reference() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let kind = BenchmarkKind::Mcf;
    let configs = mixed_count_configs();

    let mut engine = Engine::new(params).with_workers(8);
    let cells: Vec<_> = configs
        .iter()
        .map(|&config| engine.classified(kind, config))
        .collect();
    let stats = engine.run(&cache);
    assert_eq!(stats.max_replays_per_trace(), 1);
    assert!(
        stats.lane_sharded_groups() >= 1,
        "8 workers over 1 group of 24 lanes must shard"
    );

    let trace = cache.load_or_simulate(kind, &params);
    for (config, cell) in configs.iter().zip(&cells) {
        let serial = run_classifier(&trace, *config);
        assert_eq!(cell.take(), serial, "{config:?}");
    }
}

/// The worker count changes scheduling, never results: the same
/// registrations under 1, 2, and 8 workers produce identical runs.
#[test]
fn worker_count_does_not_change_results() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let configs = mixed_count_configs();
    let run_with = |workers: usize| {
        let mut engine = Engine::new(params).with_workers(workers);
        let cells: Vec<_> = [BenchmarkKind::Mcf, BenchmarkKind::GzipGraphic]
            .into_iter()
            .flat_map(|kind| {
                configs
                    .iter()
                    .map(move |&config| (kind, config))
                    .collect::<Vec<_>>()
            })
            .map(|(kind, config)| engine.classified(kind, config))
            .collect();
        let stats = engine.run(&cache);
        assert_eq!(stats.max_replays_per_trace(), 1, "workers={workers}");
        cells.into_iter().map(|c| c.take()).collect::<Vec<_>>()
    };
    let single = run_with(1);
    assert_eq!(single, run_with(2));
    assert_eq!(single, run_with(8));
}

/// A healthy sweep reports no failures and no quarantines.
#[test]
fn healthy_run_has_empty_failure_report() {
    let cache = test_cache();
    let mut engine = Engine::new(SuiteParams::quick());
    let cell = engine.classified(BenchmarkKind::Mcf, ClassifierConfig::hpca2005());
    let stats = engine.run(&cache);
    assert!(stats.failure_report().is_empty());
    assert!(stats.failure_report().failures().is_empty());
    assert!(stats.failure_report().quarantined().is_empty());
    let run = cell.try_take().expect("healthy lane resolves Ok");
    assert!(!run.ids.is_empty());
}

/// A probe whose observer panics mid-stream kills only its own lane: the
/// sibling lane on the same trace and the other benchmark still match the
/// serial reference bit for bit, and the sweep reports exactly one
/// structured lane failure instead of unwinding.
#[test]
fn panicking_probe_fails_only_its_lane() {
    use tpcp_core::{PhaseId, PhaseObserver};
    use tpcp_trace::IntervalSummary;

    struct Grenade {
        seen: u64,
    }
    impl PhaseObserver for Grenade {
        fn observe_phase(&mut self, _id: PhaseId, _summary: &IntervalSummary) {
            self.seen += 1;
            assert!(self.seen < 4, "injected probe bug");
        }
    }

    let cache = test_cache();
    let params = SuiteParams::quick();
    let good_config = ClassifierConfig::hpca2005();
    let bad_config = ClassifierConfig::builder().best_match(false).build();

    let mut engine = Engine::new(params);
    let sibling = engine.classified(BenchmarkKind::Mcf, good_config);
    let other_bench = engine.classified(BenchmarkKind::GzipGraphic, good_config);
    let doomed_run = engine.classified(BenchmarkKind::Mcf, bad_config);
    let doomed_probe = engine.probe(
        BenchmarkKind::Mcf,
        bad_config,
        Grenade { seen: 0 },
        |g, _| g.seen,
    );
    let stats = engine.run(&cache);

    let failures = stats.failure_report().failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    match &failures[0] {
        EngineError::Sweep(SweepError::Lane(f)) => {
            assert!(f.group.starts_with("mcf-"), "{}", f.group);
            assert_eq!(f.lane, format!("{bad_config:?}"), "failure names the lane");
        }
        other => panic!("expected a lane failure, got {other}"),
    }
    // Both cells of the dead lane resolve to that error...
    assert!(matches!(
        doomed_run.try_take(),
        Err(EngineError::Sweep(SweepError::Lane(_)))
    ));
    assert!(doomed_probe.try_take().is_err());
    // ...while the survivors match the serial reference exactly.
    let trace = cache.load_or_simulate(BenchmarkKind::Mcf, &params);
    assert_eq!(sibling.take(), run_classifier(&trace, good_config));
    let trace = cache.load_or_simulate(BenchmarkKind::GzipGraphic, &params);
    assert_eq!(other_bench.take(), run_classifier(&trace, good_config));
}

/// A raw interval sink that panics mid-stream fails its whole group (raw
/// sinks run inside the shared replay, so the group's lanes saw a
/// truncated stream), but other benchmarks' groups are untouched.
#[test]
fn panicking_raw_sink_fails_only_its_group() {
    use tpcp_trace::{BranchEvent, IntervalSink, IntervalSummary};

    #[derive(Default)]
    struct Bomb {
        events: u64,
    }
    impl IntervalSink for Bomb {
        fn observe(&mut self, _ev: &BranchEvent) {
            self.events += 1;
            assert!(self.events < 1000, "injected sink bug");
        }
        fn end_interval(&mut self, _summary: &IntervalSummary) {}
    }

    let cache = test_cache();
    let params = SuiteParams::quick();
    let config = ClassifierConfig::hpca2005();
    let mut engine = Engine::new(params);
    let doomed_classified = engine.classified(BenchmarkKind::Mcf, config);
    let doomed_raw = engine.interval_sink(BenchmarkKind::Mcf, Bomb::default(), |b| b.events);
    let unaffected = engine.classified(BenchmarkKind::GzipGraphic, config);
    let stats = engine.run(&cache);

    let failures = stats.failure_report().failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(matches!(
        &failures[0],
        EngineError::Sweep(SweepError::Group { group, .. }) if group.starts_with("mcf-")
    ));
    assert!(doomed_raw.try_take().is_err());
    assert!(matches!(
        doomed_classified.try_take(),
        Err(EngineError::Sweep(SweepError::Group { .. }))
    ));
    let trace = cache.load_or_simulate(BenchmarkKind::GzipGraphic, &params);
    assert_eq!(unaffected.take(), run_classifier(&trace, config));
}

/// Raw sinks get each interval as one frame: a sink registered through
/// `Engine::interval_sink` sees exactly one `observe_frame` per interval
/// and no per-event `observe`, on a full replay and on a sampled plan. A
/// forwarder that fell back to the default per-event walk would still be
/// correct, so only this catches it.
#[test]
fn raw_sinks_get_one_frame_per_interval_and_no_events() {
    use tpcp_trace::{BranchEvent, Frame, IntervalSink, IntervalSummary, ReplayPlan, TraceIndex};

    #[derive(Default, Debug, PartialEq)]
    struct Calls {
        observes: u64,
        frames: u64,
        frame_events: u64,
        intervals: u64,
    }
    impl IntervalSink for Calls {
        fn observe(&mut self, _ev: &BranchEvent) {
            self.observes += 1;
        }
        fn observe_frame(&mut self, frame: &Frame<'_>) {
            self.frames += 1;
            self.frame_events += frame.len() as u64;
        }
        fn end_interval(&mut self, _summary: &IntervalSummary) {
            self.intervals += 1;
        }
    }

    let cache = test_cache();
    let params = SuiteParams::quick();
    let (full_kind, sampled_kind) = (BenchmarkKind::Mcf, BenchmarkKind::GzipGraphic);
    let index_of = |kind| TraceIndex::build(&cache.load_bytes_or_simulate(kind, &params)).unwrap();
    let (full_index, sampled_index) = (index_of(full_kind), index_of(sampled_kind));
    let n = sampled_index.n_intervals();
    let plan = ReplayPlan::from_ranges([(1, 3), (n / 2, n / 2 + 1)]);
    let planned = [(1u64, 3u64), (n / 2, n / 2 + 1)];

    let mut engine = Engine::new(params).with_workers(1);
    let full = engine.interval_sink(full_kind, Calls::default(), |c| c);
    let sampled = engine.interval_sink(sampled_kind, Calls::default(), |c| c);
    // Classifier lanes and a SimPoint registration ride the same replays.
    for kind in [full_kind, sampled_kind] {
        let _ = engine.classified(kind, ClassifierConfig::hpca2005());
        let _ = engine.simpoint(kind, |run| run.bbvs.len());
    }
    engine.with_plan(sampled_kind, plan);
    let stats = engine.run(&cache);
    assert!(
        stats.failure_report().is_empty(),
        "{:?}",
        stats.failure_report()
    );

    let events_in = |index: &TraceIndex, (start, end): (u64, u64)| {
        index.checkpoint(end).unwrap().events - index.checkpoint(start).unwrap().events
    };
    let n_full = full_index.n_intervals();
    assert_eq!(
        full.take(),
        Calls {
            observes: 0,
            frames: n_full,
            frame_events: events_in(&full_index, (0, n_full)),
            intervals: n_full,
        }
    );
    let sampled_intervals: u64 = planned.iter().map(|&(s, e)| e - s).sum();
    assert_eq!(
        sampled.take(),
        Calls {
            observes: 0,
            frames: sampled_intervals,
            frame_events: planned.iter().map(|&r| events_in(&sampled_index, r)).sum(),
            intervals: sampled_intervals,
        }
    );
}

/// A probe whose *reduction* panics (after the replay finished cleanly)
/// still resolves every cell: the sweep converts the finish-stage panic
/// into a structured group failure rather than hanging or unwinding.
#[test]
fn panicking_reduction_is_a_structured_group_failure() {
    let cache = test_cache();
    let config = ClassifierConfig::hpca2005();
    let mut engine = Engine::new(SuiteParams::quick());
    let doomed = engine.probe(BenchmarkKind::Mcf, config, (), |(), _| -> u64 {
        panic!("injected reduction bug")
    });
    let unaffected = engine.classified(BenchmarkKind::GzipGraphic, config);
    let stats = engine.run(&cache);

    assert_eq!(stats.failure_report().failures().len(), 1);
    assert!(matches!(
        doomed.try_take(),
        Err(EngineError::Sweep(SweepError::Group { .. }))
    ));
    assert!(unaffected.try_take().is_ok());
}

/// Repeat `simpoint` registrations on one trace share one BBV collection
/// and one clustering, and both equal the serial reference: the trace's
/// collected BBVs and their default SimPoint clustering. Sharing shows in
/// the BBV buffer's address: separate collections would both be alive at
/// the end of the replay, so their buffers could not share one.
#[test]
fn simpoint_registrations_share_one_serial_equal_run() {
    use tpcp_simpoint::{SimPointClassifier, SimPointConfig};
    use tpcp_trace::BbvTrace;

    let cache = test_cache();
    let params = SuiteParams::quick();
    let kind = BenchmarkKind::GzipGraphic;
    let mut engine = Engine::new(params);
    let lane = engine.classified(kind, ClassifierConfig::hpca2005());
    let first = engine.simpoint(kind, |run| {
        (run.bbvs.vectors.as_ptr() as usize, run.bbvs.clone())
    });
    let second = engine.simpoint(kind, |run| {
        (run.bbvs.vectors.as_ptr() as usize, run.clustering.clone())
    });
    let stats = engine.run(&cache);
    assert!(
        stats.failure_report().is_empty(),
        "{:?}",
        stats.failure_report()
    );
    assert_eq!(stats.max_replays_per_trace(), 1);

    let (first_buf, bbvs) = first.take();
    let (second_buf, clustering) = second.take();
    assert_eq!(first_buf, second_buf, "registrations must share one run");
    let trace = cache.load_or_simulate(kind, &params);
    let want = BbvTrace::collect(trace.replay());
    assert_eq!(bbvs.vectors, want.vectors);
    assert_eq!(bbvs.summaries, want.summaries);
    assert_eq!(
        clustering,
        SimPointClassifier::new(SimPointConfig::default()).classify(&want)
    );
    assert_eq!(
        lane.take(),
        run_classifier(&trace, ClassifierConfig::hpca2005())
    );
}

/// On every quick-suite trace, the engine's shared SimPoint run holds the
/// BBVs of a reference collection that shares no code with `BbvBuilder`
/// (per-PC sums in an ordered map, each divided by the interval total),
/// bit for bit, and the default clustering of those BBVs.
#[test]
fn simpoint_runs_match_reference_bbvs_on_every_quick_trace() {
    use std::collections::BTreeMap;
    use tpcp_simpoint::{SimPointClassifier, SimPointConfig};
    use tpcp_trace::IntervalSource;

    let cache = test_cache();
    let params = SuiteParams::quick();
    let mut engine = Engine::new(params);
    let cells: Vec<_> = BenchmarkKind::ALL
        .iter()
        .map(|&kind| (kind, engine.simpoint(kind, |run| run.clone())))
        .collect();
    let stats = engine.run(&cache);
    assert!(
        stats.failure_report().is_empty(),
        "{:?}",
        stats.failure_report()
    );
    assert_eq!(stats.max_replays_per_trace(), 1);

    for (kind, cell) in cells {
        let run = cell.take();
        let trace = cache.load_or_simulate(kind, &params);
        let mut source = trace.replay();
        let mut raw: BTreeMap<u64, u64> = BTreeMap::new();
        let mut total = 0u64;
        let mut intervals = 0;
        while let Some(summary) = source.next_interval(&mut |ev| {
            *raw.entry(ev.pc).or_insert(0) += u64::from(ev.insns);
            total += u64::from(ev.insns);
        }) {
            let denom = total.max(1) as f64;
            let want: Vec<(u64, u64)> = std::mem::take(&mut raw)
                .into_iter()
                .map(|(pc, n)| (pc, (n as f64 / denom).to_bits()))
                .collect();
            total = 0;
            let got: Vec<(u64, u64)> = run.bbvs.vectors[intervals]
                .iter()
                .map(|(pc, w)| (pc, w.to_bits()))
                .collect();
            assert_eq!(got, want, "{} interval {intervals}", kind.label());
            assert_eq!(run.bbvs.summaries[intervals], summary);
            intervals += 1;
        }
        assert_eq!(run.bbvs.len(), intervals, "{}", kind.label());
        assert_eq!(
            run.clustering,
            SimPointClassifier::new(SimPointConfig::default()).classify(&run.bbvs),
            "{}",
            kind.label()
        );
    }
}

/// A `simpoint` reduction that panics fails its group, and every other
/// registration on the shared run resolves to that failure too (the
/// panicking one runs first, so the second never gets its value).
#[test]
fn panicking_simpoint_reduction_fails_every_registration_on_its_run() {
    let cache = test_cache();
    let config = ClassifierConfig::hpca2005();
    let mut engine = Engine::new(SuiteParams::quick());
    let doomed = engine.simpoint(BenchmarkKind::Mcf, |_| -> usize {
        panic!("injected reduction bug")
    });
    let sibling = engine.simpoint(BenchmarkKind::Mcf, |run| run.clustering.k);
    let unaffected = engine.simpoint(BenchmarkKind::GzipGraphic, |run| run.clustering.k);
    let lane = engine.classified(BenchmarkKind::GzipGraphic, config);
    let stats = engine.run(&cache);

    let failures = stats.failure_report().failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    for cell in [doomed, sibling] {
        assert!(matches!(
            cell.try_take(),
            Err(EngineError::Sweep(SweepError::Group { .. }))
        ));
    }
    assert!(unaffected.try_take().is_ok());
    assert!(lane.try_take().is_ok());
}

/// The telemetry snapshot agrees with the engine's own stats: one group
/// per trace, the same interval and sharding totals, one cache lookup per
/// group, and every lane timed over every interval of its group.
#[test]
fn telemetry_snapshot_agrees_with_engine_stats() {
    let cache = test_cache();
    let params = SuiteParams::quick();
    let configs = mixed_count_configs();
    let benches = [BenchmarkKind::Mcf, BenchmarkKind::GzipGraphic];
    let mut engine = Engine::new(params).with_workers(8);
    for kind in benches {
        for &config in &configs {
            engine.classified(kind, config);
        }
    }
    let stats = engine.run(&cache);

    let on = stats.telemetry();
    assert!(on.enabled());
    assert_eq!(on.groups().len(), benches.len());
    assert_eq!(on.total_intervals(), stats.total_intervals());
    assert_eq!(on.sharded_groups(), stats.lane_sharded_groups());
    assert_eq!(on.cache().hits + on.cache().misses, benches.len() as u64);
    for (key, group) in on.groups() {
        assert!(!group.partial, "{key} reported partial on a healthy run");
        assert_eq!(group.lanes.len(), configs.len(), "{key}");
        assert!(group.stages.decode_accumulate_ns > 0, "{key}");
        assert!(group.stages.classify_ns > 0, "{key}");
        assert!(group.lanes.iter().all(|l| l.intervals == group.intervals));
    }
}

/// Cache counters see through the cache: a sweep against an empty cache
/// directory records all misses, the next one all hits — and the
/// exported JSON carries the per-stage timings and shard stats.
#[test]
fn telemetry_counts_cache_hits_misses_and_exports_json() {
    let dir = std::env::temp_dir().join(format!("tpcp-telemetry-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = tpcp_experiments::TraceCache::new(&dir);
    let params = SuiteParams::quick();
    let configs = mixed_count_configs();
    let run_once = || {
        let mut engine = Engine::new(params).with_workers(8);
        for &config in &configs {
            engine.classified(BenchmarkKind::Mcf, config);
        }
        engine.run(&cache)
    };

    let cold = run_once();
    assert_eq!(cold.telemetry().cache().misses, 1);
    assert_eq!(cold.telemetry().cache().hits, 0);
    assert_eq!(cold.telemetry().cache().quarantines, 0);

    let warm = run_once();
    assert_eq!(warm.telemetry().cache().misses, 0);
    assert_eq!(warm.telemetry().cache().hits, 1);
    assert!(warm.telemetry().stages().cache_load_ns > 0);

    let json = warm.telemetry().to_json();
    assert!(json.contains("\"schema\": \"tpcp-telemetry-v1\""));
    assert!(json.contains("\"cache\": { \"hits\": 1, \"misses\": 0, \"quarantines\": 0 }"));
    assert!(json.contains("\"decode_accumulate_ns\""));
    assert!(json.contains("\"shard_send_wait_ns\""));
    assert!(json.contains("\"sharded_groups\""));
    assert!(json.contains("\"intervals_per_sec\""));
    // Lane objects use "label", never "name" — the bench report's lane
    // scanner depends on "name" appearing only in its own lane objects.
    assert!(!json.contains("\"name\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fully-covering plan — both the `ReplayPlan::full()` sentinel and an
/// explicit `[(0, n)]` range — is bit-identical to not setting a plan at
/// all, and the explicit range exercises the seek-driven path.
#[test]
fn full_plan_is_bit_identical_to_streaming() {
    use tpcp_trace::ReplayPlan;

    let cache = test_cache();
    let params = SuiteParams::quick();
    let kind = BenchmarkKind::Mcf;
    let config = ClassifierConfig::hpca2005();

    let run_with = |plan: Option<ReplayPlan>| {
        let mut engine = Engine::new(params);
        let cell = engine.classified(kind, config);
        if let Some(plan) = plan {
            engine.with_plan(kind, plan);
        }
        let stats = engine.run(&cache);
        assert!(stats.failure_report().is_empty());
        (cell.take(), stats.total_intervals())
    };

    let (unplanned, n) = run_with(None);
    let (sentinel, _) = run_with(Some(ReplayPlan::full()));
    assert_eq!(unplanned, sentinel, "ReplayPlan::full() changed results");
    let (explicit, explicit_n) = run_with(Some(ReplayPlan::from_ranges([(0, n)])));
    assert_eq!(
        unplanned, explicit,
        "explicit [(0, n)] plan changed results"
    );
    assert_eq!(
        n, explicit_n,
        "explicit full coverage decoded every interval"
    );
}

/// A sampled plan delivers exactly the planned intervals — each one
/// bit-identical (summary and events) to the same interval of a full
/// replay — and the per-lane telemetry reports what was skipped.
#[test]
fn sampled_plan_matches_manually_filtered_replay() {
    use tpcp_trace::{BranchEvent, IntervalSink, IntervalSummary, ReplayPlan, StreamingDecoder};

    #[derive(Default, PartialEq, Debug)]
    struct Record {
        intervals: Vec<(u64, u64, u64)>, // (index, instructions, cycles)
        events: Vec<(u64, u32)>,         // (pc, insns)
    }
    impl IntervalSink for Record {
        fn observe(&mut self, ev: &BranchEvent) {
            self.events.push((ev.pc, ev.insns));
        }
        fn end_interval(&mut self, s: &IntervalSummary) {
            self.intervals.push((s.index, s.instructions, s.cycles));
        }
    }

    let cache = test_cache();
    let params = SuiteParams::quick();
    let kind = BenchmarkKind::GzipGraphic;
    let bytes = cache.load_bytes_or_simulate(kind, &params);
    let n = StreamingDecoder::new(&bytes).unwrap().n_intervals();
    assert!(n >= 8, "need enough intervals to sample: {n}");
    // A gappy plan: one early range, two singletons, one tail range.
    let plan = ReplayPlan::from_ranges([(1, 3), (4, 5), (n / 2, n / 2 + 1), (n - 2, n)]);
    let planned: std::collections::BTreeSet<u64> = plan
        .ranges()
        .unwrap()
        .iter()
        .flat_map(|&(s, e)| s..e)
        .collect();

    // Reference: full streaming replay, manually filtered to the plan.
    let mut want = Record::default();
    {
        let mut full = Record::default();
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let mut cursor = 0usize;
        while let Some(summary) =
            tpcp_trace::IntervalSource::next_interval(&mut decoder, &mut |ev| {
                full.events.push((ev.pc, ev.insns));
            })
        {
            let keep = planned.contains(&summary.index);
            if keep {
                want.events.extend_from_slice(&full.events[cursor..]);
                want.intervals
                    .push((summary.index, summary.instructions, summary.cycles));
            }
            cursor = full.events.len();
        }
        assert!(decoder.error().is_none());
    }

    // Engine: a raw sink plus a classifier lane under the sampled plan.
    let mut engine = Engine::new(params);
    let got = engine.interval_sink(kind, Record::default(), |r| r);
    let lane = engine.classified(kind, ClassifierConfig::hpca2005());
    engine.with_plan(kind, plan.clone());
    let stats = engine.run(&cache);
    assert!(
        stats.failure_report().is_empty(),
        "{:?}",
        stats.failure_report()
    );
    assert_eq!(got.take(), want, "sampled stream != filtered full stream");
    assert!(!lane.take().ids.is_empty());
    assert_eq!(stats.total_intervals(), planned.len() as u64);

    // Telemetry: the lane carries the plan's skip totals.
    let (_, group) = stats.telemetry().groups().iter().next().unwrap();
    assert_eq!(group.intervals, planned.len() as u64);
    let lane_tm = &group.lanes[0];
    assert_eq!(lane_tm.intervals, planned.len() as u64);
    assert_eq!(lane_tm.intervals_skipped, n - planned.len() as u64);
    assert!(lane_tm.bytes_skipped > 0, "gaps must skip payload bytes");
    // Normalized ranges are disjoint and non-adjacent, so every range is
    // entered by a seek (the first starts past interval 0 here).
    assert_eq!(lane_tm.seek_count, plan.ranges().unwrap().len() as u64);
    let json = stats.telemetry().to_json();
    assert!(json.contains("\"intervals_skipped\""), "{json}");
    assert!(json.contains("\"seek_count\""), "{json}");
}

/// A plan referencing intervals past the end of the trace fails its
/// group loudly — a structured `FailureCause::Plan`, not truncation.
#[test]
fn out_of_range_plan_is_a_structured_group_failure() {
    use tpcp_experiments::FailureCause;
    use tpcp_trace::ReplayPlan;

    let cache = test_cache();
    let mut engine = Engine::new(SuiteParams::quick());
    let doomed = engine.classified(BenchmarkKind::Mcf, ClassifierConfig::hpca2005());
    let unaffected = engine.classified(BenchmarkKind::GzipGraphic, ClassifierConfig::hpca2005());
    engine.with_plan(BenchmarkKind::Mcf, ReplayPlan::from_ranges([(0, u64::MAX)]));
    let stats = engine.run(&cache);

    let failures = stats.failure_report().failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(matches!(
        &failures[0],
        EngineError::Sweep(SweepError::Group {
            cause: FailureCause::Plan(_),
            ..
        })
    ));
    assert!(doomed.try_take().is_err());
    assert!(unaffected.try_take().is_ok());
}

/// A cancellation probe that is already true when the sweep starts fails
/// every group with `FailureCause::Cancelled` — the cooperative-shutdown
/// path binaries wire to SIGINT/SIGTERM — without replaying anything.
#[test]
fn pre_cancelled_sweep_fails_all_groups_without_replaying() {
    use tpcp_experiments::FailureCause;

    let cache = test_cache();
    let mut engine = Engine::new(SuiteParams::quick())
        .with_workers(1)
        .with_cancel(|| true);
    let a = engine.classified(BenchmarkKind::Mcf, ClassifierConfig::hpca2005());
    let b = engine.classified(BenchmarkKind::GzipGraphic, ClassifierConfig::hpca2005());
    let stats = engine.run(&cache);

    assert_eq!(
        stats.traces_replayed(),
        0,
        "no group replays once cancelled"
    );
    let failures = stats.failure_report().failures();
    assert_eq!(failures.len(), 2, "{failures:?}");
    for failure in failures {
        assert!(matches!(
            failure,
            EngineError::Sweep(SweepError::Group {
                cause: FailureCause::Cancelled,
                ..
            })
        ));
    }
    for cell in [a, b] {
        let err = cell
            .try_take()
            .expect_err("cancelled cells resolve to errors");
        assert!(err.to_string().contains("cancelled before replay"), "{err}");
    }
}

/// Cancellation is cooperative and per-group: a probe that flips after
/// the first claim lets the in-flight group finish bit-identically and
/// only cancels the unclaimed remainder.
#[test]
fn mid_sweep_cancel_finishes_claimed_group_and_cancels_the_rest() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tpcp_experiments::FailureCause;

    let cache = test_cache();
    let params = SuiteParams::quick();
    let claims = Arc::new(AtomicUsize::new(0));
    let probe = Arc::clone(&claims);
    // The probe runs once per claimed group: first poll false (group one
    // replays), every later poll true (the rest cancel).
    let mut engine = Engine::new(params)
        .with_workers(1)
        .with_cancel(move || probe.fetch_add(1, Ordering::SeqCst) >= 1);
    let first = engine.classified(BenchmarkKind::Mcf, ClassifierConfig::hpca2005());
    let second = engine.classified(BenchmarkKind::GzipGraphic, ClassifierConfig::hpca2005());
    let stats = engine.run(&cache);

    assert_eq!(stats.traces_replayed(), 1);
    let completed = first.take();
    let trace = cache.load_or_simulate(BenchmarkKind::Mcf, &params);
    assert_eq!(
        completed,
        run_classifier(&trace, ClassifierConfig::hpca2005()),
        "the claimed group's results are complete, not truncated"
    );
    let failures = stats.failure_report().failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(matches!(
        &failures[0],
        EngineError::Sweep(SweepError::Group {
            cause: FailureCause::Cancelled,
            ..
        })
    ));
    assert!(second.try_take().is_err());
}

mod randomized {
    use super::*;
    use proptest::prelude::*;
    use tpcp_core::ExtractorKind;

    fn arb_config() -> impl Strategy<Value = ClassifierConfig> {
        (
            (0usize..3, 1u32..7),
            1usize..40,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|((kind, log_dims), entries, best_match, unbounded)| {
                ClassifierConfig::builder()
                    .extractor(ExtractorKind::ALL[kind])
                    .accumulators(1 << log_dims)
                    .table_entries((!unbounded).then_some(entries))
                    .best_match(best_match)
                    .build()
            })
    }

    proptest! {
        /// Randomized lane mixes (extractor kinds, dims from 2 to 64,
        /// table capacities, match policies) swept through the shared
        /// front-end — so one group often folds several widths of one
        /// kind from its widest table — match the serial reference
        /// classifier on every lane.
        #[test]
        fn randomized_configs_match_serial_reference(
            configs in prop::collection::vec(arb_config(), 1..6),
            workers in 1usize..9,
        ) {
            let cache = test_cache();
            let params = SuiteParams::quick();
            let kind = BenchmarkKind::GzipGraphic;

            let mut engine = Engine::new(params).with_workers(workers);
            let cells: Vec<_> = configs
                .iter()
                .map(|&config| engine.classified(kind, config))
                .collect();
            let stats = engine.run(&cache);
            prop_assert!(stats.max_replays_per_trace() <= 1);

            let trace = cache.load_or_simulate(kind, &params);
            for (config, cell) in configs.iter().zip(&cells) {
                let serial = run_classifier(&trace, *config);
                prop_assert_eq!(cell.take(), serial);
            }
        }
    }
}
