//! Sweep telemetry: per-stage timers, cache and shard counters, and
//! per-lane throughput, collected without touching the hot path's
//! allocation or result behaviour.
//!
//! **What is measured.** The sweep's wall-clock decomposes into five
//! stages, timed at interval boundaries (never per event):
//!
//! - **cache load** — [`TraceCache::try_load_bytes_or_simulate`], per
//!   group, including any quarantine-and-re-simulate repair and the wait
//!   for a sibling interval size's fill;
//! - **decode + accumulate** — the streaming window between interval
//!   boundaries, where the [`StreamingDecoder`] and the shared
//!   [`AccumulatorTable`]s (plus any raw sinks) consume events. Decode
//!   and accumulation are deliberately *fused*: separating them would
//!   need a timer per event, which costs more than the work it measures;
//! - **classify** — each lane's `end_interval_shared` call, timed per
//!   lane into a pre-sized slot carried by the lane itself;
//! - **finish** — lane finalization, probe reductions, and raw-sink
//!   reductions after the stream ends;
//! - **shard send wait** — on sharded groups, building the per-interval
//!   snapshot and pushing it into the bounded channels (so backpressure
//!   from a slow shard is visible as wait time).
//!
//! **Zero overhead on the result path.** Timers read a monotonic clock
//! ([`Instant`]) only at interval boundaries; counters are plain `u64`
//! adds into pre-sized per-lane slots, merged into the shared
//! [`GroupCollector`] once per lane at finish (or failure) time. Nothing
//! telemetry does feeds back into classification.
//!
//! **Export.** [`TelemetrySnapshot::to_json`] renders the snapshot
//! (schema `tpcp-telemetry-v1`) with the workspace's one JSON writer,
//! [`Json`]; the bench report embeds [`TelemetrySnapshot::to_value`].
//!
//! **Fault tolerance.** A failed group keeps the timings it accumulated
//! before dying: its [`GroupTelemetry`] is recorded with
//! [`partial`](GroupTelemetry::partial) set, alongside the
//! [`FailureReport`](crate::FailureReport) entry.
//!
//! [`TraceCache::try_load_bytes_or_simulate`]: crate::TraceCache::try_load_bytes_or_simulate
//! [`StreamingDecoder`]: tpcp_trace::StreamingDecoder
//! [`AccumulatorTable`]: tpcp_core::AccumulatorTable

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tpcp_trace::SkipStats;

use crate::engine::error::lock_ignore_poison;
use crate::json::Json;

/// Nanoseconds elapsed since a mark.
#[inline]
pub(crate) fn elapsed_ns(mark: Instant) -> u64 {
    u64::try_from(mark.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds between two marks. Lets hot loops chain timestamps — one
/// lane's end mark is the next lane's start — so timing N lanes costs
/// N + 1 clock reads instead of 2N.
#[inline]
pub(crate) fn span_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Per-stage wall-clock totals, in nanoseconds. Stage totals sum time
/// across worker threads, so on a multi-worker sweep they can exceed the
/// run's wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Cache load (including quarantine repair and re-simulation).
    pub cache_load_ns: u64,
    /// Streaming decode plus shared accumulation (fused; see module docs).
    pub decode_accumulate_ns: u64,
    /// Per-lane classification at interval boundaries.
    pub classify_ns: u64,
    /// Lane finalization, probe reductions, and raw-sink reductions.
    pub finish_ns: u64,
    /// Snapshot broadcast plus bounded-channel send wait on sharded groups.
    pub shard_send_wait_ns: u64,
}

impl StageNanos {
    fn merge(&mut self, other: &StageNanos) {
        self.cache_load_ns += other.cache_load_ns;
        self.decode_accumulate_ns += other.decode_accumulate_ns;
        self.classify_ns += other.classify_ns;
        self.finish_ns += other.finish_ns;
        self.shard_send_wait_ns += other.shard_send_wait_ns;
    }

    fn to_value(self) -> Json {
        Json::object([
            ("cache_load_ns", self.cache_load_ns.into()),
            ("decode_accumulate_ns", self.decode_accumulate_ns.into()),
            ("classify_ns", self.classify_ns.into()),
            ("finish_ns", self.finish_ns.into()),
            ("shard_send_wait_ns", self.shard_send_wait_ns.into()),
        ])
    }
}

/// How the trace cache behaved over one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Loads served from a valid on-disk entry.
    pub hits: u64,
    /// Loads that simulated (no entry, or an unreadable one): one per
    /// simulation. A simulation writes the entries of every interval
    /// size the sweep registers for its benchmark, so a cold
    /// interval-size sweep counts one miss per benchmark and hits for
    /// its other sizes.
    pub misses: u64,
    /// Corrupt entries renamed `*.corrupt` and re-simulated.
    pub quarantines: u64,
}

/// One classifier lane's share of a group's work.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTelemetry {
    /// The lane label (its classifier configuration).
    pub label: String,
    /// The lane's feature back-end
    /// ([`ExtractorKind::label`](tpcp_core::ExtractorKind::label)).
    pub extractor: String,
    /// Intervals this lane classified.
    pub intervals: u64,
    /// Wall-clock spent in this lane's `end_interval_shared`, ns.
    pub classify_ns: u64,
    /// Intervals the group's replay plan skipped past this lane (0 on a
    /// full replay). Plan-wide totals stamped onto every lane of the
    /// group, since all lanes share the one planned replay.
    pub intervals_skipped: u64,
    /// Encoded payload bytes the plan never decoded (0 on a full replay).
    pub bytes_skipped: u64,
    /// Seeks the planned replay performed to cross plan gaps (0 on a
    /// full replay).
    pub seek_count: u64,
}

impl LaneTelemetry {
    /// The lane's classification throughput, intervals per second
    /// (0.0 when no classify time was recorded).
    pub fn intervals_per_sec(&self) -> f64 {
        if self.classify_ns == 0 {
            0.0
        } else {
            self.intervals as f64 / (self.classify_ns as f64 / 1e9)
        }
    }
}

/// One trace group's telemetry: stage timings, interval count, shard
/// fan-out, and per-lane slots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupTelemetry {
    /// Per-stage timings for this group.
    pub stages: StageNanos,
    /// Interval boundaries the group's replay delivered.
    pub intervals: u64,
    /// Shard threads the group's lanes were split across (0 = inline).
    pub shards: u64,
    /// Per-lane classify timings, sorted by label. Lanes abandoned by a
    /// mid-replay group failure may be missing.
    pub lanes: Vec<LaneTelemetry>,
    /// The group failed (or its cache load failed) partway; timings cover
    /// only the completed prefix.
    pub partial: bool,
}

/// Everything the sweep observed about itself: per-group stage timings
/// rolled up into sweep-wide totals, cache behaviour, and shard stats.
/// Returned inside [`EngineStats`](crate::EngineStats); key order in
/// [`to_json`](Self::to_json) is fixed, and groups/lanes are sorted, so
/// two snapshots of identical runs differ only in measured durations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    enabled: bool,
    wall_ns: u64,
    cache: CacheCounters,
    stages: StageNanos,
    groups: BTreeMap<String, GroupTelemetry>,
}

impl TelemetrySnapshot {
    /// Whether an engine run produced this snapshot. The default
    /// snapshot, which stands in for runs without an engine, is empty and
    /// reports `false`.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Wall-clock of the whole [`Engine::run`](crate::Engine::run), ns.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Cache hit/miss/quarantine counts for the sweep.
    pub fn cache(&self) -> CacheCounters {
        self.cache
    }

    /// Sweep-wide stage totals (sum over groups, hence over workers).
    pub fn stages(&self) -> StageNanos {
        self.stages
    }

    /// Per-group telemetry, keyed by `<benchmark>-<fingerprint>`.
    pub fn groups(&self) -> &BTreeMap<String, GroupTelemetry> {
        &self.groups
    }

    /// Total intervals over all groups.
    pub fn total_intervals(&self) -> u64 {
        self.groups.values().map(|g| g.intervals).sum()
    }

    /// Number of groups whose lanes were sharded across threads.
    pub fn sharded_groups(&self) -> u64 {
        self.groups.values().filter(|g| g.shards >= 2).count() as u64
    }

    pub(crate) fn record_cache(&mut self, hit: bool, quarantined: bool) {
        if hit {
            self.cache.hits += 1;
        } else {
            self.cache.misses += 1;
        }
        if quarantined {
            self.cache.quarantines += 1;
        }
    }

    pub(crate) fn record_group(&mut self, key: String, group: GroupTelemetry) {
        self.groups.insert(key, group);
    }

    /// Seals the snapshot: stamps the run wall-clock and rolls the
    /// per-group stage timings up into the sweep-wide totals.
    pub(crate) fn finalize(&mut self, wall_ns: u64) {
        self.enabled = true;
        self.wall_ns = wall_ns;
        self.stages = StageNanos::default();
        for group in self.groups.values() {
            self.stages.merge(&group.stages);
        }
    }

    /// The snapshot as a [`Json`] value (schema `tpcp-telemetry-v1`,
    /// fixed key order), for embedding in an enclosing document. Lane
    /// objects use `"label"` keys (never `"name"`) so embedding a snapshot
    /// inside a `BENCH_*.json` cannot confuse that report's lane-rate
    /// scanner.
    pub fn to_value(&self) -> Json {
        let groups = self.groups.iter().map(|(key, group)| {
            // New lane keys append after the originals —
            // `tpcp-telemetry-v1` consumers index by key, never by
            // position.
            let lanes = group.lanes.iter().map(|lane| {
                Json::object([
                    ("label", lane.label.as_str().into()),
                    ("extractor", lane.extractor.as_str().into()),
                    ("intervals", lane.intervals.into()),
                    ("classify_ns", lane.classify_ns.into()),
                    ("intervals_per_sec", lane.intervals_per_sec().into()),
                    ("intervals_skipped", lane.intervals_skipped.into()),
                    ("bytes_skipped", lane.bytes_skipped.into()),
                    ("seek_count", lane.seek_count.into()),
                ])
            });
            let group = Json::object([
                ("intervals", group.intervals.into()),
                ("shards", group.shards.into()),
                ("partial", group.partial.into()),
                ("stages", group.stages.to_value()),
                ("lanes", Json::Array(lanes.collect())),
            ]);
            (key.as_str(), group)
        });
        Json::object([
            ("schema", "tpcp-telemetry-v1".into()),
            ("enabled", self.enabled.into()),
            ("wall_ns", self.wall_ns.into()),
            (
                "cache",
                Json::object([
                    ("hits", self.cache.hits.into()),
                    ("misses", self.cache.misses.into()),
                    ("quarantines", self.cache.quarantines.into()),
                ]),
            ),
            ("stages", self.stages.to_value()),
            ("total_intervals", self.total_intervals().into()),
            ("sharded_groups", self.sharded_groups().into()),
            ("groups", Json::object(groups)),
        ])
    }

    /// The snapshot as a JSON document ([`to_value`](Self::to_value),
    /// rendered).
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Renders the human one-page summary appended to
    /// `results/full_report.txt` by `repro`.
    pub fn summary(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("== engine telemetry ==\n");
        if !self.enabled {
            s.push_str("collection disabled for this run\n");
            return s;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(s, "wall clock            {:>12.1} ms", ms(self.wall_ns));
        let _ = writeln!(
            s,
            "trace cache           {} hits / {} misses / {} quarantined",
            self.cache.hits, self.cache.misses, self.cache.quarantines
        );
        let _ = writeln!(
            s,
            "groups                {} total, {} sharded, {} partial, {} intervals",
            self.groups.len(),
            self.sharded_groups(),
            self.groups.values().filter(|g| g.partial).count(),
            self.total_intervals()
        );
        s.push_str("stage totals (summed across workers):\n");
        let st = &self.stages;
        for (label, ns) in [
            ("cache load", st.cache_load_ns),
            ("decode+accumulate", st.decode_accumulate_ns),
            ("classify", st.classify_ns),
            ("finish/reduce", st.finish_ns),
            ("shard send wait", st.shard_send_wait_ns),
        ] {
            let _ = writeln!(s, "  {label:<19} {:>12.1} ms", ms(ns));
        }
        // The three heaviest groups by replay time, to show where a
        // sweep's wall-clock goes without printing all of them.
        let mut by_cost: Vec<(&String, &GroupTelemetry)> = self.groups.iter().collect();
        by_cost.sort_by_key(|(key, g)| {
            (
                std::cmp::Reverse(
                    g.stages.decode_accumulate_ns + g.stages.classify_ns + g.stages.finish_ns,
                ),
                *key,
            )
        });
        s.push_str("heaviest groups (decode+classify+finish):\n");
        for (key, g) in by_cost.into_iter().take(3) {
            let _ = writeln!(
                s,
                "  {key:<38} {:>10.1} ms  {:>8} intervals  {} lanes{}{}",
                ms(g.stages.decode_accumulate_ns + g.stages.classify_ns + g.stages.finish_ns),
                g.intervals,
                g.lanes.len(),
                if g.shards >= 2 {
                    format!("  [{} shards]", g.shards)
                } else {
                    String::new()
                },
                if g.partial { "  [partial]" } else { "" }
            );
        }
        s
    }
}

/// A per-lane telemetry slot: two plain counters bumped on the lane's
/// owning thread at each boundary, flushed into the [`GroupCollector`]
/// once when the lane finishes or dies. Pre-sized (it travels inside the
/// lane's `KeyedLane`), so the hot path never allocates for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneSlot {
    pub(crate) classify_ns: u64,
    pub(crate) intervals: u64,
}

impl LaneSlot {
    #[inline]
    pub(crate) fn add(&mut self, ns: u64) {
        self.classify_ns += ns;
        self.intervals += 1;
    }
}

/// The shared per-group collector: atomic stage counters the replay
/// thread and shard threads add into at interval boundaries. Lives
/// outside the group's `catch_unwind`, so a panicking replay leaves its
/// partial timings readable.
pub(crate) struct GroupCollector {
    decode_accumulate_ns: AtomicU64,
    classify_ns: AtomicU64,
    finish_ns: AtomicU64,
    shard_send_wait_ns: AtomicU64,
    intervals: AtomicU64,
    intervals_skipped: AtomicU64,
    bytes_skipped: AtomicU64,
    seek_count: AtomicU64,
    lanes: Mutex<Vec<LaneTelemetry>>,
}

impl GroupCollector {
    pub(crate) fn new(lane_count: usize) -> Self {
        Self {
            decode_accumulate_ns: AtomicU64::new(0),
            classify_ns: AtomicU64::new(0),
            finish_ns: AtomicU64::new(0),
            shard_send_wait_ns: AtomicU64::new(0),
            intervals: AtomicU64::new(0),
            intervals_skipped: AtomicU64::new(0),
            bytes_skipped: AtomicU64::new(0),
            seek_count: AtomicU64::new(0),
            lanes: Mutex::new(Vec::with_capacity(lane_count)),
        }
    }

    /// Records the group's replay-plan skip totals (zeros on a full
    /// plan), stamped onto every lane flushed afterwards. Called once per
    /// group, before the replay starts driving lanes.
    pub(crate) fn set_skip(&self, stats: SkipStats) {
        self.intervals_skipped
            .store(stats.intervals_skipped, Ordering::Relaxed);
        self.bytes_skipped
            .store(stats.bytes_skipped, Ordering::Relaxed);
        self.seek_count.store(stats.seeks, Ordering::Relaxed);
    }

    /// Closes one streaming window: the time from the previous boundary
    /// (or replay start) to `boundary` is decode + accumulation.
    #[inline]
    pub(crate) fn close_window(&self, window_start: Instant, boundary: Instant) {
        self.decode_accumulate_ns
            .fetch_add(span_ns(window_start, boundary), Ordering::Relaxed);
        self.intervals.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_shard_wait(&self, ns: u64) {
        self.shard_send_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn add_finish(&self, ns: u64) {
        self.finish_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Merges a lane's slot into the group (once, when the lane finishes
    /// or is buried after a panic).
    pub(crate) fn flush_lane(&self, label: String, extractor: &str, slot: LaneSlot) {
        self.classify_ns
            .fetch_add(slot.classify_ns, Ordering::Relaxed);
        lock_ignore_poison(&self.lanes).push(LaneTelemetry {
            label,
            extractor: extractor.to_owned(),
            intervals: slot.intervals,
            classify_ns: slot.classify_ns,
            intervals_skipped: self.intervals_skipped.load(Ordering::Relaxed),
            bytes_skipped: self.bytes_skipped.load(Ordering::Relaxed),
            seek_count: self.seek_count.load(Ordering::Relaxed),
        });
    }

    /// Seals the collector into the group's telemetry record.
    pub(crate) fn into_group(
        self,
        cache_load_ns: u64,
        shards: u64,
        partial: bool,
    ) -> GroupTelemetry {
        let mut lanes = self
            .lanes
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        lanes.sort_by(|a, b| a.label.cmp(&b.label));
        GroupTelemetry {
            stages: StageNanos {
                cache_load_ns,
                decode_accumulate_ns: self.decode_accumulate_ns.into_inner(),
                classify_ns: self.classify_ns.into_inner(),
                finish_ns: self.finish_ns.into_inner(),
                shard_send_wait_ns: self.shard_send_wait_ns.into_inner(),
            },
            intervals: self.intervals.into_inner(),
            shards,
            lanes,
            partial,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        snap.record_cache(true, false);
        snap.record_cache(false, true);
        let collector = GroupCollector::new(2);
        let now = Instant::now();
        collector.close_window(now, now);
        collector.close_window(now, now);
        let mut slot = LaneSlot::default();
        slot.add(1_000);
        slot.add(2_000);
        collector.flush_lane("b-lane".into(), "bbv", slot);
        collector.flush_lane("a-lane".into(), "working-set", LaneSlot::default());
        collector.add_finish(500);
        snap.record_group("mcf-v1".into(), collector.into_group(10_000, 0, false));
        snap.finalize(1_000_000);
        snap
    }

    #[test]
    fn snapshot_rolls_up_group_stages() {
        let snap = sample();
        assert!(snap.enabled());
        assert_eq!(snap.wall_ns(), 1_000_000);
        assert_eq!(snap.stages().cache_load_ns, 10_000);
        assert_eq!(snap.stages().classify_ns, 3_000);
        assert_eq!(snap.stages().finish_ns, 500);
        assert_eq!(snap.cache().hits, 1);
        assert_eq!(snap.cache().misses, 1);
        assert_eq!(snap.cache().quarantines, 1);
        assert_eq!(snap.total_intervals(), 2);
        assert_eq!(snap.sharded_groups(), 0);
    }

    #[test]
    fn lanes_are_sorted_for_determinism() {
        let snap = sample();
        let group = &snap.groups()["mcf-v1"];
        let labels: Vec<_> = group.lanes.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, ["a-lane", "b-lane"]);
    }

    #[test]
    fn json_has_fixed_field_order_and_no_name_keys() {
        let snap = sample();
        let json = snap.to_json();
        let schema = json.find("\"schema\"").unwrap();
        let cache = json.find("\"cache\"").unwrap();
        let stages = json.find("\"stages\"").unwrap();
        let groups = json.find("\"groups\"").unwrap();
        assert!(schema < cache && cache < stages && stages < groups);
        // `"name"` keys are reserved for the bench report's lane scanner.
        assert!(!json.contains("\"name\""), "{json}");
        assert!(json.contains("\"extractor\": \"bbv\""), "{json}");
        assert!(json.contains("\"extractor\": \"working-set\""), "{json}");
        assert_eq!(json, snap.to_json(), "serialization is deterministic");
    }

    #[test]
    fn disabled_snapshot_is_empty_and_says_so() {
        let snap = TelemetrySnapshot::default();
        assert!(!snap.enabled());
        assert_eq!(snap.total_intervals(), 0);
        assert!(snap.summary().contains("disabled"));
        assert!(snap.to_json().contains("\"enabled\": false"));
    }

    #[test]
    fn summary_is_one_page() {
        let snap = sample();
        let summary = snap.summary();
        assert!(summary.lines().count() < 30, "{summary}");
        assert!(summary.contains("1 hits / 1 misses / 1 quarantined"));
    }

    #[test]
    fn lane_throughput_handles_zero_time() {
        let lane = LaneTelemetry {
            label: "x".into(),
            extractor: "bbv".into(),
            intervals: 10,
            classify_ns: 0,
            intervals_skipped: 0,
            bytes_skipped: 0,
            seek_count: 0,
        };
        assert_eq!(lane.intervals_per_sec(), 0.0);
        let lane = LaneTelemetry {
            label: "x".into(),
            extractor: "bbv".into(),
            intervals: 10,
            classify_ns: 1_000_000_000,
            intervals_skipped: 0,
            bytes_skipped: 0,
            seek_count: 0,
        };
        assert!((lane.intervals_per_sec() - 10.0).abs() < 1e-9);
    }

    /// The sampled-replay keys ride in every lane object, appended after
    /// the original `tpcp-telemetry-v1` keys, and a full replay (no
    /// `set_skip` call) reports them as zeros.
    #[test]
    fn lane_json_carries_skip_keys_append_only() {
        let mut snap = TelemetrySnapshot::default();
        let collector = GroupCollector::new(1);
        collector.set_skip(SkipStats {
            intervals_skipped: 7,
            bytes_skipped: 1234,
            seeks: 3,
        });
        let mut slot = LaneSlot::default();
        slot.add(1_000);
        collector.flush_lane("sampled-lane".into(), "bbv", slot);
        snap.record_group("mcf-v1".into(), collector.into_group(0, 0, false));
        snap.finalize(1);

        let lane = &snap.groups()["mcf-v1"].lanes[0];
        assert_eq!(lane.intervals_skipped, 7);
        assert_eq!(lane.bytes_skipped, 1234);
        assert_eq!(lane.seek_count, 3);

        let json = snap.to_json();
        assert!(
            json.contains("\"intervals_skipped\": 7, \"bytes_skipped\": 1234, \"seek_count\": 3"),
            "{json}"
        );
        // Append-only: the original keys still precede the new ones
        // inside the lane object, and `"label"`/`"name"` safety holds.
        let lane_obj = json.find("\"label\"").unwrap();
        let per_sec = json.find("\"intervals_per_sec\"").unwrap();
        let skipped = json.find("\"intervals_skipped\"").unwrap();
        assert!(lane_obj < per_sec && per_sec < skipped);
        assert!(!json.contains("\"name\""), "{json}");

        // Full replay: zeros, but the keys are always present.
        let full = sample().to_json();
        assert!(
            full.contains("\"intervals_skipped\": 0, \"bytes_skipped\": 0, \"seek_count\": 0"),
            "{full}"
        );
    }

    /// The engine document, byte for byte, from fixed counters and
    /// timings (no clock reads): a sharded group whose lanes carry
    /// escaped labels, a non-round rate and skip totals, and a partial
    /// group with no lanes.
    #[test]
    fn engine_document_is_byte_identical_to_the_golden_copy() {
        let lane = |label: &str, extractor: &str, intervals, classify_ns, skipped| LaneTelemetry {
            label: label.into(),
            extractor: extractor.into(),
            intervals,
            classify_ns,
            intervals_skipped: skipped,
            bytes_skipped: skipped * 100,
            seek_count: skipped / 2,
        };
        let mut snap = TelemetrySnapshot::default();
        snap.record_cache(true, false);
        snap.record_cache(false, true);
        snap.record_group(
            "gcc-s-00ff".into(),
            GroupTelemetry {
                stages: StageNanos {
                    cache_load_ns: 1,
                    decode_accumulate_ns: 2,
                    classify_ns: 3,
                    finish_ns: 4,
                    shard_send_wait_ns: 5,
                },
                intervals: 7,
                shards: 2,
                lanes: vec![
                    lane("a \"quoted\" \\ lane\t\u{1}", "bbv", 7, 3, 0),
                    lane("b-lane", "working-set", 7, 0, 6),
                ],
                partial: false,
            },
        );
        snap.record_group(
            "mcf-00ff".into(),
            GroupTelemetry {
                stages: StageNanos {
                    cache_load_ns: 10,
                    ..StageNanos::default()
                },
                intervals: 0,
                shards: 0,
                lanes: Vec::new(),
                partial: true,
            },
        );
        snap.finalize(1_000_000);
        let expected = r#"{
  "schema": "tpcp-telemetry-v1",
  "enabled": true,
  "wall_ns": 1000000,
  "cache": { "hits": 1, "misses": 1, "quarantines": 1 },
  "stages": { "cache_load_ns": 11, "decode_accumulate_ns": 2, "classify_ns": 3, "finish_ns": 4, "shard_send_wait_ns": 5 },
  "total_intervals": 7,
  "sharded_groups": 1,
  "groups": {
    "gcc-s-00ff": {
      "intervals": 7,
      "shards": 2,
      "partial": false,
      "stages": { "cache_load_ns": 1, "decode_accumulate_ns": 2, "classify_ns": 3, "finish_ns": 4, "shard_send_wait_ns": 5 },
      "lanes": [
        { "label": "a \"quoted\" \\ lane\t\u0001", "extractor": "bbv", "intervals": 7, "classify_ns": 3, "intervals_per_sec": 2333333333.333, "intervals_skipped": 0, "bytes_skipped": 0, "seek_count": 0 },
        { "label": "b-lane", "extractor": "working-set", "intervals": 7, "classify_ns": 0, "intervals_per_sec": 0.000, "intervals_skipped": 6, "bytes_skipped": 600, "seek_count": 3 }
      ]
    },
    "mcf-00ff": {
      "intervals": 0,
      "shards": 0,
      "partial": true,
      "stages": { "cache_load_ns": 10, "decode_accumulate_ns": 0, "classify_ns": 0, "finish_ns": 0, "shard_send_wait_ns": 0 },
      "lanes": []
    }
  }
}
"#;
        assert_eq!(snap.to_json(), expected);
        assert_eq!(
            TelemetrySnapshot::default().to_json(),
            r#"{
  "schema": "tpcp-telemetry-v1",
  "enabled": false,
  "wall_ns": 0,
  "cache": { "hits": 0, "misses": 0, "quarantines": 0 },
  "stages": { "cache_load_ns": 0, "decode_accumulate_ns": 0, "classify_ns": 0, "finish_ns": 0, "shard_send_wait_ns": 0 },
  "total_intervals": 0,
  "sharded_groups": 0,
  "groups": {}
}
"#
        );
    }
}
