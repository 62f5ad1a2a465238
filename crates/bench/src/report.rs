//! Machine-readable perf reports for the `tpcp-perf` harness.
//!
//! A run produces a [`PerfReport`] — per-lane wall-clock statistics plus
//! process-level facts (peak RSS, git revision, engine replay counts) —
//! serialized as `BENCH_<git-sha>.json` so CI can archive one data point
//! per commit. The report is written with the workspace's one JSON writer
//! ([`Json`]); [`parse_lane_rates`] reads back exactly the subset a
//! regression check needs, so the report and parser must stay in sync:
//! `"name"` keys appear only inside lane objects, and each lane object
//! carries an `"intervals_per_sec"` field after its `"name"`.

use std::time::Duration;

use tpcp_experiments::{Json, TelemetrySnapshot};

/// Timing statistics for one measured lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// Lane identifier (stable across runs; baseline keys match on it).
    pub name: String,
    /// Number of timed repetitions (warm-up excluded).
    pub iters: u32,
    /// Fastest wall-clock repetition, milliseconds.
    pub best_ms: f64,
    /// Median wall-clock per repetition, milliseconds.
    pub median_ms: f64,
    /// 90th-percentile (nearest-rank) wall-clock per repetition, ms.
    pub p90_ms: f64,
    /// Intervals processed per second at the fastest repetition.
    ///
    /// Rates use the best repetition, not the median: co-tenant load
    /// only ever slows a run down, so min-of-N converges to the
    /// machine's true capability and keeps the regression gate stable
    /// on noisy hosts. Median and p90 stay reported for latency shape.
    pub intervals_per_sec: f64,
    /// Events processed per second at the fastest repetition.
    pub events_per_sec: f64,
    /// Intervals processed by one repetition.
    pub intervals: u64,
    /// Events processed by one repetition.
    pub events: u64,
}

/// Collapses raw per-repetition durations into a [`LaneStats`].
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize(name: &str, samples: &[Duration], intervals: u64, events: u64) -> LaneStats {
    assert!(!samples.is_empty(), "lane {name} measured zero repetitions");
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let best_ms = ms[0];
    let median_ms = median(&ms);
    let p90_ms = percentile(&ms, 0.90);
    let best_s = best_ms / 1e3;
    let rate = |n: u64| {
        if best_s > 0.0 {
            n as f64 / best_s
        } else {
            0.0
        }
    };
    LaneStats {
        name: name.to_owned(),
        iters: samples.len() as u32,
        best_ms,
        median_ms,
        p90_ms,
        intervals_per_sec: rate(intervals),
        events_per_sec: rate(events),
        intervals,
        events,
    }
}

/// Median of an already-sorted slice.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an already-sorted slice (`p` in `0.0..=1.0`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// What the experiment-engine lane did, beyond its timing.
#[derive(Debug, Clone, Default)]
pub struct EngineSummary {
    /// Distinct traces replayed per engine run.
    pub traces_replayed: usize,
    /// Largest per-trace replay count. The engine invariant is `1` on a
    /// healthy run; `2` means a corrupt cache entry was quarantined and
    /// its trace re-simulated.
    pub max_replays_per_trace: u64,
    /// Total intervals fanned out per engine run.
    pub total_intervals: u64,
    /// Per-trace replay counts, keyed by `<benchmark>-<fingerprint>`.
    pub replay_counts: Vec<(String, u64)>,
    /// The engine's own telemetry snapshot (per-stage timings, cache and
    /// shard counters) from the reference run.
    pub telemetry: TelemetrySnapshot,
}

/// One full `tpcp-perf` run, ready to serialize.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Abbreviated git revision the binary was built from.
    pub git_sha: String,
    /// Whether this was a `--smoke` run (reduced suite and iterations).
    pub smoke: bool,
    /// Number of synthetic traces in the measured suite.
    pub suite_traces: usize,
    /// Intervals one repetition of a suite-wide lane processes.
    pub suite_intervals: u64,
    /// Events one repetition of a suite-wide lane processes.
    pub suite_events: u64,
    /// Total encoded size of the suite, bytes.
    pub suite_encoded_bytes: u64,
    /// Process peak resident set size, bytes (0 if unavailable).
    pub peak_rss_bytes: u64,
    /// Host-speed reference from the frozen calibration kernel
    /// ([`crate::perf::calibration_ops_per_sec`]), word-ops per second.
    /// The baseline gate divides lane rates by this so host-speed swings
    /// cancel out of the comparison (0 disables normalization).
    pub calibration_ops_per_sec: f64,
    /// Streaming-over-eager intervals/sec ratio on the replay+classify lane.
    pub replay_classify_speedup: f64,
    /// Per-lane timing statistics.
    pub lanes: Vec<LaneStats>,
    /// Engine lane facts, if the engine lane ran.
    pub engine: Option<EngineSummary>,
}

impl PerfReport {
    /// Serializes the report as a JSON document (schema
    /// `tpcp-bench-v1`, fixed key order).
    pub fn to_json(&self) -> String {
        let lanes = self.lanes.iter().map(|lane| {
            Json::object([
                ("name", lane.name.as_str().into()),
                ("iters", lane.iters.into()),
                ("best_ms", lane.best_ms.into()),
                ("median_ms", lane.median_ms.into()),
                ("p90_ms", lane.p90_ms.into()),
                ("intervals_per_sec", lane.intervals_per_sec.into()),
                ("events_per_sec", lane.events_per_sec.into()),
                ("intervals", lane.intervals.into()),
                ("events", lane.events.into()),
            ])
        });
        let engine = self.engine.as_ref().map_or(Json::Null, |engine| {
            let replay_counts = engine
                .replay_counts
                .iter()
                .map(|(key, count)| (key.as_str(), Json::from(*count)));
            Json::object([
                ("traces_replayed", engine.traces_replayed.into()),
                ("max_replays_per_trace", engine.max_replays_per_trace.into()),
                ("total_intervals", engine.total_intervals.into()),
                ("replay_counts", Json::object(replay_counts)),
                // Telemetry lane objects use "label" keys, so embedding
                // them here cannot confuse `parse_lane_rates`' reliance
                // on "name" appearing only in lane objects.
                ("telemetry", engine.telemetry.to_value()),
            ])
        });
        Json::object([
            ("schema", "tpcp-bench-v1".into()),
            ("git_sha", self.git_sha.as_str().into()),
            ("smoke", self.smoke.into()),
            (
                "suite",
                Json::object([
                    ("traces", self.suite_traces.into()),
                    ("intervals", self.suite_intervals.into()),
                    ("events", self.suite_events.into()),
                    ("encoded_bytes", self.suite_encoded_bytes.into()),
                ]),
            ),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            (
                "calibration_ops_per_sec",
                self.calibration_ops_per_sec.into(),
            ),
            (
                "replay_classify_speedup",
                self.replay_classify_speedup.into(),
            ),
            ("lanes", Json::Array(lanes.collect())),
            ("engine", engine),
        ])
        .render()
    }
}

/// Extracts `(lane name, intervals_per_sec)` pairs from a report produced
/// by [`PerfReport::to_json`].
///
/// This is a deliberately narrow scanner, not a JSON parser: it relies on
/// the emitter's invariant that `"name"` keys occur only in lane objects
/// and are followed by that lane's `"intervals_per_sec"`. Lanes it cannot
/// make sense of are skipped rather than reported as errors.
pub fn parse_lane_rates(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + "\"name\"".len()..];
        let Some((name, after_name)) = scan_string_value(rest) else {
            continue;
        };
        // The rate must belong to this lane object: stop at the next lane.
        let scope_end = after_name.find("\"name\"").unwrap_or(after_name.len());
        if let Some(rate) = scan_number_after(&after_name[..scope_end], "\"intervals_per_sec\"") {
            out.push((name, rate));
        }
        rest = after_name;
    }
    out
}

/// After a key, skips `: "` and returns the quoted value plus the rest.
fn scan_string_value(s: &str) -> Option<(String, &str)> {
    let open = s.find('"')?;
    let body = &s[open + 1..];
    let close = body.find('"')?;
    Some((body[..close].to_owned(), &body[close + 1..]))
}

/// Finds `key` in `s` and parses the number following its colon.
fn scan_number_after(s: &str, key: &str) -> Option<f64> {
    let at = s.find(key)?;
    let after = &s[at + key.len()..];
    let colon = after.find(':')?;
    let num: String = after[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}

/// Extracts the top-level `calibration_ops_per_sec` value from a report
/// produced by [`PerfReport::to_json`], if present and positive.
///
/// Reports written before the calibration kernel existed lack the key;
/// callers fall back to unnormalized comparison.
pub fn parse_calibration(json: &str) -> Option<f64> {
    scan_number_after(json, "\"calibration_ops_per_sec\"").filter(|&c| c > 0.0)
}

/// The verdict for one lane of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneCheck {
    /// Lane name common to both runs.
    pub name: String,
    /// Baseline intervals/sec, scaled to the current host's speed when
    /// both reports carry a calibration value.
    pub baseline: f64,
    /// Current intervals/sec.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Whether the lane regressed beyond the tolerance.
    pub regressed: bool,
}

/// Compares the current lanes against a baseline report's JSON.
///
/// When `calibration` is `Some` and the baseline also carries a
/// calibration value, every baseline rate is first scaled by
/// `current_calibration / baseline_calibration`: both runs are expressed
/// in the *current* host's speed, so a globally slower (or faster) host —
/// hypervisor steal, a different CI machine generation — does not read as
/// a lane regression (or mask one). A lane then regresses when its
/// intervals/sec falls below `scaled_baseline * (1 - tolerance)`. Lanes
/// present on only one side are ignored (new lanes must not fail an old
/// baseline, and retired lanes must not block forever); `--strict` turns
/// those into failures via [`unmatched_lanes`].
pub fn check_against_baseline(
    current: &[LaneStats],
    baseline_json: &str,
    tolerance: f64,
    calibration: Option<f64>,
) -> Vec<LaneCheck> {
    let scale = match (calibration, parse_calibration(baseline_json)) {
        (Some(cur), Some(base)) if cur > 0.0 => cur / base,
        _ => 1.0,
    };
    let baseline = parse_lane_rates(baseline_json);
    let mut checks = Vec::new();
    for lane in current {
        let Some(&(_, raw_rate)) = baseline.iter().find(|(name, _)| *name == lane.name) else {
            continue;
        };
        let base_rate = raw_rate * scale;
        let ratio = if base_rate > 0.0 {
            lane.intervals_per_sec / base_rate
        } else {
            1.0
        };
        checks.push(LaneCheck {
            name: lane.name.clone(),
            baseline: base_rate,
            current: lane.intervals_per_sec,
            ratio,
            regressed: base_rate > 0.0 && ratio < 1.0 - tolerance,
        });
    }
    checks
}

/// Lane names present on only one side of a baseline comparison, as
/// `(current_only, baseline_only)`.
///
/// [`check_against_baseline`] ignores unmatched lanes so a new lane
/// cannot fail an old baseline mid-transition; strict mode turns either
/// kind into a failure so the checked-in baseline can never silently
/// drift out of sync with the measured lane set (a renamed lane would
/// otherwise pass the gate forever, unchecked).
pub fn unmatched_lanes(current: &[LaneStats], baseline_json: &str) -> (Vec<String>, Vec<String>) {
    let baseline = parse_lane_rates(baseline_json);
    let current_only = current
        .iter()
        .filter(|l| !baseline.iter().any(|(name, _)| *name == l.name))
        .map(|l| l.name.clone())
        .collect();
    let baseline_only = baseline
        .iter()
        .filter(|(name, _)| !current.iter().any(|l| l.name == *name))
        .map(|(name, _)| name.clone())
        .collect();
    (current_only, baseline_only)
}

/// The process's peak resident set size in bytes (`VmHWM`), or 0 when the
/// platform does not expose `/proc/self/status`.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The abbreviated git revision of the working tree, falling back to the
/// `GITHUB_SHA` environment variable, then `"unknown"`.
pub fn git_sha() -> String {
    let from_git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty());
    from_git
        .or_else(|| {
            std::env::var("GITHUB_SHA")
                .ok()
                .map(|s| s.chars().take(12).collect())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(name: &str, rate: f64) -> LaneStats {
        LaneStats {
            name: name.to_owned(),
            iters: 3,
            best_ms: 9.0,
            median_ms: 10.0,
            p90_ms: 11.0,
            intervals_per_sec: rate,
            events_per_sec: rate * 100.0,
            intervals: 1000,
            events: 100_000,
        }
    }

    fn sample_report() -> PerfReport {
        PerfReport {
            git_sha: "abc123".to_owned(),
            smoke: true,
            suite_traces: 3,
            suite_intervals: 1000,
            suite_events: 100_000,
            suite_encoded_bytes: 42_000,
            peak_rss_bytes: 1 << 20,
            calibration_ops_per_sec: 1_000_000.0,
            replay_classify_speedup: 2.5,
            lanes: vec![
                lane("decode_eager", 50_000.0),
                lane("decode_streaming", 90_000.0),
            ],
            engine: Some(EngineSummary {
                traces_replayed: 11,
                max_replays_per_trace: 1,
                total_intervals: 5000,
                replay_counts: vec![("mcf-v1".to_owned(), 1)],
                telemetry: TelemetrySnapshot::default(),
            }),
        }
    }

    #[test]
    fn summarize_median_and_p90() {
        let samples: Vec<Duration> = [5, 1, 4, 2, 3]
            .iter()
            .map(|&s| Duration::from_millis(s))
            .collect();
        let stats = summarize("x", &samples, 300, 30_000);
        assert_eq!(stats.best_ms, 1.0);
        assert_eq!(stats.median_ms, 3.0);
        assert_eq!(stats.p90_ms, 5.0);
        assert_eq!(stats.iters, 5);
        // Rates come from the fastest repetition (1 ms).
        assert!((stats.intervals_per_sec - 300_000.0).abs() < 1e-6);
        assert!((stats.events_per_sec - 30_000_000.0).abs() < 1e-3);
    }

    #[test]
    fn summarize_even_sample_count_averages_middle() {
        let samples: Vec<Duration> = [2, 4].iter().map(|&s| Duration::from_millis(s)).collect();
        assert_eq!(summarize("x", &samples, 1, 1).median_ms, 3.0);
    }

    #[test]
    fn emitted_json_round_trips_through_the_rate_parser() {
        let report = sample_report();
        let json = report.to_json();
        let rates = parse_lane_rates(&json);
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].0, "decode_eager");
        assert!((rates[0].1 - 50_000.0).abs() < 0.01);
        assert_eq!(rates[1].0, "decode_streaming");
        assert!((rates[1].1 - 90_000.0).abs() < 0.01);
    }

    #[test]
    fn regression_detected_beyond_tolerance() {
        let baseline = sample_report().to_json();
        let current = vec![
            lane("decode_eager", 50_000.0 * 0.80),    // -20%: regression
            lane("decode_streaming", 90_000.0 * 0.9), // -10%: within tolerance
            lane("brand_new_lane", 1.0),              // not in baseline: skipped
        ];
        let checks = check_against_baseline(&current, &baseline, 0.15, None);
        assert_eq!(checks.len(), 2);
        assert!(checks[0].regressed, "{checks:?}");
        assert!(!checks[1].regressed, "{checks:?}");
        assert!((checks[0].ratio - 0.80).abs() < 1e-9);
    }

    #[test]
    fn calibration_cancels_uniform_host_slowdown() {
        // Baseline host ran at 1.0 Mops; current host at 0.5 Mops. Every
        // lane measured 50% slower — pure host speed, not a regression.
        let baseline = sample_report().to_json();
        assert_eq!(parse_calibration(&baseline), Some(1_000_000.0));
        let current = vec![
            lane("decode_eager", 50_000.0 * 0.5),
            lane("decode_streaming", 90_000.0 * 0.5),
        ];
        let checks = check_against_baseline(&current, &baseline, 0.15, Some(500_000.0));
        assert!(checks.iter().all(|c| !c.regressed), "{checks:?}");
        assert!((checks[0].ratio - 1.0).abs() < 1e-9);
        // A genuine lane regression still shows through the same scaling.
        let current = vec![lane("decode_eager", 50_000.0 * 0.5 * 0.7)];
        let checks = check_against_baseline(&current, &baseline, 0.15, Some(500_000.0));
        assert!(checks[0].regressed, "{checks:?}");
        // And a baseline without a calibration value compares raw.
        let old_baseline = baseline.replace("\"calibration_ops_per_sec\": 1000000.000,\n", "");
        assert_eq!(parse_calibration(&old_baseline), None);
        let current = vec![lane("decode_eager", 50_000.0)];
        let checks = check_against_baseline(&current, &old_baseline, 0.15, Some(500_000.0));
        assert!(!checks[0].regressed, "{checks:?}");
        assert!((checks[0].ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unmatched_lanes_reported_on_both_sides() {
        let baseline = sample_report().to_json();
        let current = vec![
            lane("decode_eager", 50_000.0),
            lane("brand_new_lane", 1.0), // current only
                                         // decode_streaming missing: baseline only
        ];
        let (current_only, baseline_only) = unmatched_lanes(&current, &baseline);
        assert_eq!(current_only, vec!["brand_new_lane".to_owned()]);
        assert_eq!(baseline_only, vec!["decode_streaming".to_owned()]);

        let full = vec![
            lane("decode_eager", 50_000.0),
            lane("decode_streaming", 90_000.0),
        ];
        let (current_only, baseline_only) = unmatched_lanes(&full, &baseline);
        assert!(current_only.is_empty() && baseline_only.is_empty());
    }

    #[test]
    fn improvement_never_regresses() {
        let baseline = sample_report().to_json();
        let current = vec![lane("decode_eager", 500_000.0)];
        let checks = check_against_baseline(&current, &baseline, 0.15, None);
        assert_eq!(checks.len(), 1);
        assert!(!checks[0].regressed);
    }

    /// The gate can read the checked-in baseline, which an older writer
    /// laid out: every lane has a positive rate, and the calibration value
    /// is there to normalize against.
    #[test]
    fn checked_in_baseline_parses() {
        let baseline = include_str!("../../../results/bench-baseline.json");
        let rates = parse_lane_rates(baseline);
        assert!(!rates.is_empty());
        assert!(rates.iter().all(|(_, rate)| *rate > 0.0), "{rates:?}");
        assert!(parse_calibration(baseline).is_some());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
