//! The sweep driver: replays each registered trace exactly once, with a
//! two-level division of work.
//!
//! **Level 1 — groups.** [`Engine::run`] claims trace groups off a shared
//! queue with a pool of scoped worker threads. Each claimer
//! loads its group's *encoded* trace bytes from the [`TraceCache`] and
//! streams them with one [`drive`] pass over a [`StreamingDecoder`] — the
//! trace is never materialized, so a worker's memory footprint is the
//! encoded buffer plus the lanes' own state regardless of trace length.
//! Groups that differ only in interval size form a family, whose traces
//! one simulation records: a family's loads take turns on one lock, so on
//! a cold cache the first fills every member's entry and the rest hit.
//!
//! **Level 2 — lanes.** Inside a group, classifier lanes do not each
//! re-run the per-branch feature extraction. A shared front-end keeps one
//! [`AnyExtractor`] per [`ExtractorKind`] among the group's lanes, sized
//! to the widest dims that kind's lanes ask for, and only those observe
//! events. At each interval boundary it folds each into every narrower
//! shape its lanes need ([`AnyExtractor::fold_into`]) and hands every lane
//! the finished extractor of its shape
//! ([`ClassifierLane::end_interval_shared`]), turning O(lanes × events)
//! hashing into O(kinds × events + lanes × intervals). The fold is exact:
//! every back-end buckets by `mix64(key) & (n − 1)`, so bucket `j` of a
//! narrow table gathers the wide buckets `i ≡ j (mod n)`, and a chain of
//! saturating adds of non-negative values equals one clamp of their sum.
//! When the pool has spare workers beyond the group
//! count, wide groups additionally shard their lanes across those
//! workers: the replaying thread broadcasts an [`Arc`]'d per-interval
//! snapshot over bounded channels and each shard thread classifies its
//! own lanes. Raw (unclassified) sinks always stay inline with the
//! replay. [`drive`] reads each interval once as a [`Frame`] (its
//! distinct `(pc, insns)` pairs and each pair's count) and hands every
//! sink the frame, so each kind's extractor hashes each pair once per
//! interval instead of every event.
//!
//! Output is deterministic under any scheduling: every lane lives on
//! exactly one thread, snapshots arrive in interval order through its
//! channel, and each [`Pending`](crate::engine::Pending) handle has
//! exactly one writer. Sharding divides consumers of one replay, never
//! adds a replay: [`EngineStats::max_replays_per_trace`] stays `1` on a
//! healthy run and only reaches `2` when the cache had to quarantine a
//! corrupt entry and re-simulate the trace (the repair produces the
//! trace a second time).
//!
//! **Fault isolation.** A failure degrades the smallest unit that
//! contains it and never escapes the sweep (see DESIGN.md "Failure
//! model"). Each classifier lane's interval boundary runs under
//! `catch_unwind`: a panicking lane is dropped from its group, its
//! [`Pending`] cells resolve to [`SweepError::Lane`], and the sibling
//! lanes — which only ever *read* the shared extractor state — continue
//! bit-identically. Each group's replay runs under a second
//! `catch_unwind`: a raw-sink panic, probe-reduction panic, or
//! mid-stream decode error fails the whole group ([`SweepError::Group`])
//! but leaves every other group untouched. Cache entries found corrupt
//! are quarantined and re-simulated by the cache itself
//! ([`TraceCache::try_load_bytes_or_simulate`]); a cache error after the
//! bounded retry fails only that group. All failures are collected into
//! the [`FailureReport`] carried by [`EngineStats`].
//!
//! [`Pending`]: crate::engine::Pending

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use tpcp_core::{AnyExtractor, ExtractorKind, FeatureExtractor};
use tpcp_trace::{
    drive, BranchEvent, Frame, IntervalSink, IntervalSummary, PlannedReplay, StreamingDecoder,
    TraceIndex,
};
use tpcp_workloads::BenchmarkKind;

use crate::engine::error::{
    lock_ignore_poison, panic_message, EngineError, FailureCause, FailureReport, LaneFailure,
    SweepError,
};
use crate::engine::sink::ClassifierLane;
use crate::engine::telemetry::{elapsed_ns, span_ns, GroupCollector, LaneSlot, TelemetrySnapshot};
use crate::engine::{Engine, TraceGroup};
use crate::suite::{SuiteParams, TraceCache};

/// A group only shards when each shard thread gets at least this many
/// lanes; below that the per-interval snapshot clone + channel hop costs
/// more than the classification it offloads.
const MIN_LANES_PER_SHARD: usize = 4;

/// In-flight snapshots per shard channel. Bounded so a slow shard applies
/// backpressure to the replay instead of queueing unbounded accumulator
/// clones.
const SNAPSHOT_CHANNEL_DEPTH: usize = 2;

/// What the sweep did: per-trace replay counts, interval totals, the
/// [`TelemetrySnapshot`] of where the time went, and the
/// [`FailureReport`] of everything that went wrong (or was repaired).
///
/// The headline invariant — the reason the engine exists — is
/// [`max_replays_per_trace`](EngineStats::max_replays_per_trace)` <= 1`
/// *on a healthy run*: no matter how many figures and configurations
/// were registered, no trace is decoded or replayed twice. The one
/// exception is cache self-repair — a corrupt entry is quarantined and
/// its trace re-simulated, which produces that trace a second time and
/// is counted as such.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    replays: BTreeMap<String, u64>,
    intervals: u64,
    sharded_groups: u64,
    report: FailureReport,
    telemetry: TelemetrySnapshot,
}

impl EngineStats {
    /// Number of distinct `(benchmark, params)` traces replayed.
    pub fn traces_replayed(&self) -> usize {
        self.replays.len()
    }

    /// The largest number of times any single trace was produced during
    /// the sweep: `1` for every trace on a healthy run, `2` for a trace
    /// whose corrupt cache entry was quarantined and re-simulated (the
    /// bounded repair produces the trace a second time — see
    /// [`TraceCache::try_load_bytes_or_simulate`]), `0` for an empty run.
    pub fn max_replays_per_trace(&self) -> u64 {
        self.replays.values().copied().max().unwrap_or(0)
    }

    /// Total intervals fanned out across all traces.
    pub fn total_intervals(&self) -> u64 {
        self.intervals
    }

    /// Number of groups whose classifier lanes were sharded across
    /// multiple worker threads (0 when the pool had no spare workers or
    /// no group was wide enough).
    pub fn lane_sharded_groups(&self) -> u64 {
        self.sharded_groups
    }

    /// Per-trace replay counts, keyed by `<benchmark>-<fingerprint>`.
    pub fn replay_counts(&self) -> &BTreeMap<String, u64> {
        &self.replays
    }

    /// Everything that failed (or was quarantined and repaired) during
    /// the sweep. Empty on a healthy run.
    pub fn failure_report(&self) -> &FailureReport {
        &self.report
    }

    /// Where the sweep's time went: per-stage timers, cache counters,
    /// and shard stats.
    pub fn telemetry(&self) -> &TelemetrySnapshot {
        &self.telemetry
    }
}

/// Resolves the worker-thread count: an explicit [`Engine::with_workers`]
/// override wins, then a positive `TPCP_WORKERS` environment variable,
/// then one worker per available core. Overrides pin the pool size
/// exactly (no clamping to the group count) so perf runs are reproducible
/// and `workers = 1` really is single-threaded classification.
fn resolve_workers(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Some(n) = std::env::var("TPCP_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Trace groups of one benchmark whose parameters differ only in
/// interval size: one simulation records all their traces.
struct Family {
    kind: BenchmarkKind,
    /// The members' parameters, interval size set aside.
    params: SuiteParams,
    /// Every member's interval size.
    sizes: Vec<u64>,
    /// Held around each member's cache load: on a cold cache the first
    /// load simulates and writes every member's entry, and the members
    /// waiting here then hit.
    fill: Mutex<()>,
}

/// Sorts `groups` into families; returns them and each group's family.
fn families(groups: &[TraceGroup]) -> (Vec<Family>, Vec<usize>) {
    let mut families: Vec<Family> = Vec::new();
    let family_of = groups
        .iter()
        .map(|g| {
            let params = g.params.with_interval_size(0);
            let i = families
                .iter()
                .position(|f| f.kind == g.kind && f.params == params)
                .unwrap_or_else(|| {
                    families.push(Family {
                        kind: g.kind,
                        params,
                        sizes: Vec::new(),
                        fill: Mutex::new(()),
                    });
                    families.len() - 1
                });
            families[i].sizes.push(g.params.workload.interval_size);
            i
        })
        .collect();
    (families, family_of)
}

impl Engine {
    /// Sweeps every registered trace once, filling or failing all
    /// [`Pending`](crate::engine::Pending) handles.
    ///
    /// The sweep is fault-isolated: a panicking lane, a panicking sink,
    /// a mid-stream decode error, or an unrepairable cache entry fails
    /// only the handles that depended on it — every other lane and group
    /// completes normally, and the damage is itemized in
    /// [`EngineStats::failure_report`].
    ///
    /// # Panics
    ///
    /// Panics only on an internal engine bug (a panic escaping the
    /// worker loop outside the isolated replay), never on lane, sink, or
    /// trace failures.
    pub fn run(self, cache: &TraceCache) -> EngineStats {
        let workers = resolve_workers(self.workers);
        let run_start = Instant::now();
        let cancel = self.cancel.clone();
        #[cfg(feature = "fault-inject")]
        let faults = self.faults.clone();
        #[allow(unused_mut)]
        let mut group_list = self.into_groups();
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &faults {
            for group in &mut group_list {
                for (i, lane) in group.lanes.iter_mut().enumerate() {
                    if let Some(at) = faults.lane_panic_at(group.kind.label(), i) {
                        lane.set_panic_at(at);
                    }
                }
            }
        }
        let (families, family_of) = families(&group_list);
        let groups: Vec<Mutex<Option<TraceGroup>>> = group_list
            .into_iter()
            .map(|g| Mutex::new(Some(g)))
            .collect();
        // One claimer per group at most; leftover workers become each
        // claimer's budget for sharding its group's lanes.
        let claimers = workers.min(groups.len()).max(1);
        let lane_budget = (workers / claimers).max(1);
        let next = AtomicUsize::new(0);
        let stats = Mutex::new(EngineStats::default());
        let lane_failures: Mutex<Vec<LaneFailure>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..claimers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(slot) = groups.get(i) else { break };
                    // Invariant: `next` hands out each index once, so no
                    // two claimers ever see the same slot.
                    #[allow(clippy::expect_used)]
                    let group = lock_ignore_poison(slot)
                        .take()
                        .expect("each group is claimed exactly once");
                    let key = format!("{}-{}", group.kind.label(), group.params.fingerprint());
                    // Cooperative shutdown: a cancelled sweep stops
                    // *between* groups — never mid-replay — so everything
                    // already produced stays complete and flushable.
                    if cancel.as_ref().is_some_and(|probe| probe()) {
                        let err = EngineError::Sweep(SweepError::Group {
                            group: key,
                            cause: FailureCause::Cancelled,
                        });
                        for handle in group.failure_handles() {
                            handle(&err);
                        }
                        lock_ignore_poison(&stats).report.record_failure(err);
                        continue;
                    }
                    // The collector lives *outside* the replay's
                    // catch_unwind so a panicking group leaves its
                    // partial timings readable.
                    let collector = GroupCollector::new(group.lanes.len());
                    let family = &families[family_of[i]];
                    let cache_mark = Instant::now();
                    let load = {
                        let _fill = lock_ignore_poison(&family.fill);
                        cache.try_load_with_siblings(group.kind, &group.params, &family.sizes)
                    };
                    let load = match load {
                        Ok(load) => load,
                        Err(error) => {
                            let cache_ns = elapsed_ns(cache_mark);
                            let err = EngineError::Cache {
                                group: key.clone(),
                                error,
                            };
                            for handle in group.failure_handles() {
                                handle(&err);
                            }
                            let mut s = lock_ignore_poison(&stats);
                            s.report.record_failure(err);
                            s.telemetry.record_cache(false, false);
                            s.telemetry
                                .record_group(key, collector.into_group(cache_ns, 0, true));
                            continue;
                        }
                    };
                    let cache_ns = elapsed_ns(cache_mark);
                    #[allow(unused_mut)]
                    let mut bytes = load.bytes;
                    #[cfg(feature = "fault-inject")]
                    if let Some(faults) = &faults {
                        if let Some(offset) = faults.replay_truncation(group.kind.label()) {
                            bytes = bytes.slice(..offset.min(bytes.len()));
                        }
                    }
                    // Harvest the failure hooks *before* the replay can
                    // consume the group by panicking.
                    let handles = group.failure_handles();
                    let ctx = ReplayCtx {
                        group: &key,
                        failures: &lane_failures,
                        collector: &collector,
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        replay_group(group, &bytes, &load.index, lane_budget, &ctx)
                    }));
                    let mut s = lock_ignore_poison(&stats);
                    let repaired = load.quarantined.is_some();
                    s.telemetry.record_cache(load.hit, repaired);
                    if let Some(path) = load.quarantined {
                        s.report.record_quarantine(path);
                    }
                    // A corrupt entry's index sidecar is quarantined
                    // alongside it; both evidence paths go in the report.
                    if let Some(path) = load.quarantined_index {
                        s.report.record_quarantine(path);
                    }
                    // A quarantine repair re-simulated the trace: that is
                    // a second production of it, and the stat says so.
                    *s.replays.entry(key.clone()).or_insert(0) += if repaired { 2 } else { 1 };
                    let cause = match outcome {
                        Ok(Ok((intervals, shards))) => {
                            s.intervals += intervals as u64;
                            s.sharded_groups += u64::from(shards >= 2);
                            s.telemetry.record_group(
                                key,
                                collector.into_group(cache_ns, shards as u64, false),
                            );
                            continue;
                        }
                        Ok(Err(cause)) => cause,
                        Err(payload) => FailureCause::Panic(panic_message(payload.as_ref())),
                    };
                    s.telemetry
                        .record_group(key.clone(), collector.into_group(cache_ns, 0, true));
                    let err = EngineError::Sweep(SweepError::Group { group: key, cause });
                    for handle in &handles {
                        handle(&err);
                    }
                    s.report.record_failure(err);
                });
            }
        });
        let mut stats = stats
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let failures = lane_failures
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for failure in failures {
            stats
                .report
                .record_failure(EngineError::Sweep(SweepError::Lane(failure)));
        }
        stats.report.finalize();
        stats.telemetry.finalize(elapsed_ns(run_start));
        stats
    }
}

/// Shared context for one group's replay: the group key, the sweep-wide
/// collector that lane failures are reported into, and the group's
/// telemetry collector.
struct ReplayCtx<'a> {
    group: &'a str,
    failures: &'a Mutex<Vec<LaneFailure>>,
    collector: &'a GroupCollector,
}

impl ReplayCtx<'_> {
    /// Buries a lane that panicked: resolves its cells to
    /// [`SweepError::Lane`] and records the failure. The sweep-wide lock
    /// is only ever taken here — the happy path never touches it.
    fn fail_lane(&self, lane: ClassifierLane, payload: &(dyn std::any::Any + Send)) {
        let failure = LaneFailure {
            group: self.group.to_owned(),
            lane: lane.label(),
            cause: FailureCause::Panic(panic_message(payload)),
        };
        lane.fail(&EngineError::Sweep(SweepError::Lane(failure.clone())));
        lock_ignore_poison(self.failures).push(failure);
    }
}

/// A classifier lane paired with the index of the front-end extractor
/// of its shape it reads at each boundary, plus its pre-sized telemetry
/// slot — bumped inline at each boundary, flushed into the group
/// collector once when the lane retires.
struct KeyedLane {
    acc: usize,
    lane: ClassifierLane,
    slot: LaneSlot,
}

impl KeyedLane {
    /// Retires the lane into the group collector: flushes its telemetry
    /// slot and returns the lane for finalization or burial.
    fn retire(self, collector: &GroupCollector) -> ClassifierLane {
        collector.flush_lane(self.lane.label(), self.lane.extractor_label(), self.slot);
        self.lane
    }
}

/// A group's shared accumulation front-end. One extractor per
/// [`ExtractorKind`], at the widest dims that kind's lanes ask for,
/// observes every event; each narrower shape is refilled from it by an
/// exact fold ([`AnyExtractor::fold_into`]) at every interval boundary.
struct FrontEnd {
    /// `accs[..observers]` observe events, one per kind; the rest are the
    /// narrower shapes, overwritten whole by each boundary's fold.
    accs: Vec<AnyExtractor>,
    observers: usize,
    /// `(observer, folded)` index pairs into `accs`.
    folds: Vec<(usize, usize)>,
}

impl FrontEnd {
    /// Feeds one event to each kind's extractor.
    fn observe(&mut self, ev: BranchEvent) {
        for acc in &mut self.accs[..self.observers] {
            acc.observe(ev);
        }
    }

    /// Feeds one interval's frame to each kind's extractor: one `match`
    /// per kind per interval, and each pair hashed once per kind.
    fn observe_frame(&mut self, frame: &Frame<'_>) {
        for acc in &mut self.accs[..self.observers] {
            acc.observe_frame(frame);
        }
    }

    /// Closes the interval's accumulation: folds every narrower shape
    /// from its kind's extractor.
    fn fold(&mut self) {
        let (wide, narrow) = self.accs.split_at_mut(self.observers);
        for &(from, to) in &self.folds {
            wide[from].fold_into(&mut narrow[to - self.observers]);
        }
    }

    /// Clears the observing extractors for the next interval.
    fn reset(&mut self) {
        for acc in &mut self.accs[..self.observers] {
            acc.reset();
        }
    }
}

/// Builds a trace group's [`FrontEnd`] and tags each lane with the index
/// of its shape's extractor. Lanes that differ only in classification
/// parameters (thresholds, table size, bit selection) read one extractor,
/// and lanes of one kind share one per-branch extraction pass whatever
/// their dims.
fn keyed_lanes(lanes: Vec<ClassifierLane>) -> (FrontEnd, Vec<KeyedLane>) {
    let mut widest: Vec<(ExtractorKind, usize)> = Vec::new();
    for lane in &lanes {
        let (kind, dims) = lane.extractor_shape();
        match widest.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, w)) => *w = (*w).max(dims),
            None => widest.push((kind, dims)),
        }
    }
    let observers = widest.len();
    let mut shapes = widest;
    let mut folds = Vec::new();
    let keyed = lanes
        .into_iter()
        .map(|lane| {
            let shape = lane.extractor_shape();
            let acc = shapes.iter().position(|&s| s == shape).unwrap_or_else(|| {
                // A narrower shape, folded from its kind's observer (the
                // first `observers` shapes hold one of each kind).
                let from = shapes.iter().take_while(|&&(k, _)| k != shape.0).count();
                shapes.push(shape);
                folds.push((from, shapes.len() - 1));
                shapes.len() - 1
            });
            KeyedLane {
                acc,
                lane,
                slot: LaneSlot::default(),
            }
        })
        .collect();
    let front = FrontEnd {
        accs: shapes
            .into_iter()
            .map(|(kind, dims)| kind.build(dims))
            .collect(),
        observers,
        folds,
    };
    (front, keyed)
}

/// Runs one interval boundary over `lanes` with per-lane panic isolation:
/// a panicking lane is removed and buried, the survivors continue. Lanes
/// only *read* the shared extractors, so a mid-boundary panic cannot
/// corrupt any state a sibling observes — survivors stay bit-identical
/// to a fault-free run.
/// `start` is the boundary's telemetry mark; timestamps chain through the
/// loop (each lane's end mark is the next lane's start) so timing N lanes
/// costs N clock reads, not 2N. Returns the last mark taken, which the
/// caller can reuse as the next window's start.
fn end_interval_isolated(
    lanes: &mut Vec<KeyedLane>,
    accs: &[AnyExtractor],
    summary: &IntervalSummary,
    ctx: &ReplayCtx<'_>,
    start: Instant,
) -> Instant {
    let mut prev = start;
    let mut i = 0;
    while i < lanes.len() {
        let keyed = &mut lanes[i];
        let acc = &accs[keyed.acc];
        let lane = &mut keyed.lane;
        match catch_unwind(AssertUnwindSafe(|| lane.end_interval_shared(acc, summary))) {
            Ok(()) => {
                let end = Instant::now();
                keyed.slot.add(span_ns(prev, end));
                prev = end;
                i += 1;
            }
            Err(payload) => {
                // Cold path: re-mark so the buried lane's cost is not
                // billed to its successor.
                prev = Instant::now();
                let lane = lanes.swap_remove(i).retire(ctx.collector);
                ctx.fail_lane(lane, payload.as_ref());
            }
        }
    }
    prev
}

/// The inline shared-accumulation front-end: every lane classified on
/// the replay thread at each boundary.
///
/// `window` is the telemetry mark of the previous boundary's end (or the
/// replay's start): the span up to the next boundary is the fused
/// decode + accumulate stage, the fold included.
struct SharedFrontEnd<'a> {
    front: FrontEnd,
    lanes: Vec<KeyedLane>,
    ctx: &'a ReplayCtx<'a>,
    window: Instant,
}

impl IntervalSink for SharedFrontEnd<'_> {
    fn observe(&mut self, ev: &BranchEvent) {
        self.front.observe(*ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        self.front.observe_frame(frame);
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        self.front.fold();
        let boundary = Instant::now();
        self.ctx.collector.close_window(self.window, boundary);
        let end = end_interval_isolated(
            &mut self.lanes,
            &self.front.accs,
            summary,
            self.ctx,
            boundary,
        );
        self.front.reset();
        // The last lane's end mark doubles as the next window's start;
        // the extractor reset is billed to decode + accumulate.
        self.window = end;
    }
}

/// One interval's finished extraction state, broadcast to shard
/// threads. `Arc`'d so a snapshot is cloned once per interval, not once
/// per shard.
struct Snapshot {
    accs: Vec<AnyExtractor>,
    summary: IntervalSummary,
}

/// The sharded front-end: accumulates inline, and at each boundary sends
/// the snapshot to every shard's bounded channel instead of classifying.
/// The send loop is timed separately — time spent blocked on a full
/// bounded channel is shard backpressure, not decode work.
struct BroadcastFrontEnd<'a> {
    front: FrontEnd,
    senders: Vec<mpsc::SyncSender<Arc<Snapshot>>>,
    collector: &'a GroupCollector,
    window: Instant,
}

impl IntervalSink for BroadcastFrontEnd<'_> {
    fn observe(&mut self, ev: &BranchEvent) {
        self.front.observe(*ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        self.front.observe_frame(frame);
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        self.front.fold();
        let boundary = Instant::now();
        self.collector.close_window(self.window, boundary);
        let snap = Arc::new(Snapshot {
            accs: self.front.accs.clone(),
            summary: *summary,
        });
        let wait = Instant::now();
        for tx in &self.senders {
            if tx.send(Arc::clone(&snap)).is_err() {
                // A shard thread died mid-replay (only possible through
                // an engine bug — lane panics are caught in the shard
                // loop). Panic here so the group-level catch_unwind
                // turns it into a group failure instead of a hang.
                panic!("lane shard channel closed mid-replay");
            }
        }
        let sent = Instant::now();
        self.collector.add_shard_wait(span_ns(wait, sent));
        self.front.reset();
        // Reuse the post-send mark as the next window's start.
        self.window = sent;
    }
}

/// Splits `lanes` into `shards` contiguous chunks of near-equal size.
fn split_lanes(mut lanes: Vec<KeyedLane>, shards: usize) -> Vec<Vec<KeyedLane>> {
    let mut out = Vec::with_capacity(shards);
    let total = lanes.len();
    for s in 0..shards {
        // Distribute the remainder over the leading shards.
        let take = total / shards + usize::from(s < total % shards);
        let rest = lanes.split_off(take);
        out.push(lanes);
        lanes = rest;
    }
    out
}

/// Streams the encoded trace `bytes` once through every lane of `group`,
/// then finalizes the lanes. Returns the interval count and the number
/// of shard threads the group's classifier lanes were split across (`0`
/// when they ran inline), or the [`FailureCause`] that stopped the
/// stream. Runs under the caller's `catch_unwind`; panics escaping this
/// function become group failures.
fn replay_group(
    mut group: TraceGroup,
    bytes: &[u8],
    index: &TraceIndex,
    lane_budget: usize,
    ctx: &ReplayCtx<'_>,
) -> Result<(usize, usize), FailureCause> {
    // The cache validated the buffer, so streaming "cannot" fail — but a
    // validator/decoder disagreement should cost one group, not the run.
    let decoder = match StreamingDecoder::new(bytes) {
        Ok(decoder) => decoder,
        Err(e) => return Err(FailureCause::Decode(e)),
    };
    // The plan seeks across its gaps via the cache's validated index (a
    // full plan is the one range `[0, n)`: no seeks, zero skips).
    // Construction re-checks plan/index/payload agreement, so a plan built
    // for a different trace fails the group here, loudly, instead of
    // silently decoding the wrong intervals.
    let mut replay = match PlannedReplay::new(decoder, index, &group.plan) {
        Ok(planned) => planned,
        Err(e) => return Err(FailureCause::Plan(e)),
    };
    ctx.collector.set_skip(replay.skip_stats());
    let (front, keyed) = keyed_lanes(std::mem::take(&mut group.lanes));
    if let Some(simpoint) = group.simpoint.take() {
        group.raw.push(Box::new(simpoint));
    }
    let shards = lane_budget.min(keyed.len() / MIN_LANES_PER_SHARD);
    let sharded = shards >= 2;

    let intervals = if sharded {
        let shard_lanes = split_lanes(keyed, shards);
        let abort = AtomicBool::new(false);
        // A shard thread that panics outside the per-lane isolation
        // (probe-reduction bug) makes the scope panic once every shard
        // has joined; the group-level catch turns that into a group
        // failure.
        std::thread::scope(|scope| {
            let mut front = BroadcastFrontEnd {
                front,
                senders: Vec::with_capacity(shards),
                collector: ctx.collector,
                window: Instant::now(),
            };
            for mut lanes in shard_lanes {
                let (tx, rx) = mpsc::sync_channel::<Arc<Snapshot>>(SNAPSHOT_CHANNEL_DEPTH);
                front.senders.push(tx);
                let abort = &abort;
                scope.spawn(move || {
                    while let Ok(snap) = rx.recv() {
                        let start = Instant::now();
                        end_interval_isolated(&mut lanes, &snap.accs, &snap.summary, ctx, start);
                    }
                    // Channel closed: the replay is over; finalize here so
                    // probe reductions also run off the replay thread. On
                    // a mid-stream decode error the lanes hold partial
                    // state — leave their cells for the group failure, but
                    // still flush the classify time they banked.
                    if abort.load(Ordering::SeqCst) {
                        for keyed in lanes {
                            keyed.retire(ctx.collector);
                        }
                    } else {
                        let mark = Instant::now();
                        for keyed in lanes {
                            keyed.retire(ctx.collector).finish();
                        }
                        ctx.collector.add_finish(elapsed_ns(mark));
                    }
                });
            }
            let mut sinks: Vec<&mut dyn IntervalSink> = Vec::with_capacity(1 + group.raw.len());
            sinks.push(&mut front);
            for raw in &mut group.raw {
                sinks.push(raw.as_mut() as &mut dyn IntervalSink);
            }
            let intervals = drive(&mut replay, &mut sinks);
            if replay.error().is_some() {
                // Must be set before the channels close below, so shard
                // threads observe it when their `recv` loop ends.
                abort.store(true, Ordering::SeqCst);
            }
            drop(sinks);
            drop(front); // closes every shard channel; the scope joins
            intervals
        })
    } else {
        let mut front = SharedFrontEnd {
            front,
            lanes: keyed,
            ctx,
            window: Instant::now(),
        };
        let mut sinks: Vec<&mut dyn IntervalSink> = Vec::with_capacity(1 + group.raw.len());
        sinks.push(&mut front);
        for raw in &mut group.raw {
            sinks.push(raw.as_mut() as &mut dyn IntervalSink);
        }
        let intervals = drive(&mut replay, &mut sinks);
        drop(sinks);
        if replay.error().is_none() {
            let mark = Instant::now();
            for keyed in front.lanes {
                keyed.retire(ctx.collector).finish();
            }
            ctx.collector.add_finish(elapsed_ns(mark));
        } else {
            // Decode failed mid-stream: the lanes' cells go to the group
            // failure, but their partial classify timings are kept.
            for keyed in front.lanes {
                keyed.retire(ctx.collector);
            }
        }
        intervals
    };

    if let Some(e) = replay.error() {
        return Err(FailureCause::Decode(e));
    }
    let mark = Instant::now();
    for raw in group.raw {
        raw.finish();
    }
    ctx.collector.add_finish(elapsed_ns(mark));
    Ok((intervals, if sharded { shards } else { 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_core::ClassifierConfig;

    fn lane(kind: ExtractorKind, dims: usize, entries: usize) -> ClassifierLane {
        ClassifierLane::new(
            ClassifierConfig::builder()
                .extractor(kind)
                .accumulators(dims)
                .table_entries(Some(entries))
                .build(),
        )
    }

    /// The six shapes a default-parameters trace group carries — BBV at
    /// 8/16/32/64 dims, working-set and branch-mix at 16 — build exactly
    /// three extractors that observe events, one per kind at its widest
    /// dims; the three narrower BBV shapes are folds of the BBV one, and
    /// every lane reads an extractor of its own shape.
    #[test]
    fn mixed_width_group_builds_one_extractor_per_kind() {
        use ExtractorKind::{Bbv, BranchMix, WorkingSet};
        let lanes = vec![
            lane(Bbv, 16, 32),
            lane(Bbv, 8, 32),
            lane(WorkingSet, 16, 32),
            lane(Bbv, 64, 32),
            lane(BranchMix, 16, 32),
            lane(Bbv, 32, 32),
            lane(Bbv, 16, 8),
        ];
        let (front, keyed) = keyed_lanes(lanes);
        let shapes: Vec<_> = front.accs.iter().map(|a| (a.kind(), a.dims())).collect();
        assert_eq!(front.observers, 3);
        assert_eq!(
            shapes[..front.observers],
            [(Bbv, 64), (WorkingSet, 16), (BranchMix, 16)]
        );
        assert_eq!(shapes[front.observers..], [(Bbv, 16), (Bbv, 8), (Bbv, 32)]);
        assert_eq!(front.folds, [(0, 3), (0, 4), (0, 5)]);
        assert_eq!(keyed.len(), 7);
        for k in &keyed {
            assert_eq!(shapes[k.acc], k.lane.extractor_shape());
        }
    }
}
