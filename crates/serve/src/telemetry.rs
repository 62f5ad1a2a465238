//! Serve-loop telemetry: atomic counters bumped on the hot paths, frozen
//! into JSON snapshots — periodically while running (when
//! `--telemetry-interval` is set) and finally at drain.
//!
//! The document is written with the workspace's one JSON writer
//! ([`Json`]) with a fixed key order, so two drains of identical runs
//! produce byte-identical documents modulo the measured values.

use std::sync::atomic::{AtomicU64, Ordering};

use tpcp_experiments::Json;

use crate::session::StoreCounters;

/// Shared counters the server threads bump while running.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted (TCP + Unix).
    pub connections: AtomicU64,
    /// Client frames successfully read.
    pub frames_read: AtomicU64,
    /// Server frames written.
    pub frames_written: AtomicU64,
    /// Frames whose payload failed to decode (answered with an error
    /// frame, connection kept).
    pub malformed_frames: AtomicU64,
    /// Frames whose declared length exceeded the limit (answered, then
    /// the connection was closed — the stream offset is unrecoverable).
    pub oversized_frames: AtomicU64,
    /// `EndInterval` frames rejected for a NaN/negative/infinite CPI
    /// (answered with an error frame; session state untouched).
    pub invalid_cpi: AtomicU64,
    /// Connections closed for idling at a frame boundary.
    pub idle_closes: AtomicU64,
    /// Connections closed for stalling mid-frame.
    pub stalled_closes: AtomicU64,
    /// Connections that ended mid-frame (peer vanished).
    pub truncated_closes: AtomicU64,
    /// Accept attempts that failed on the TCP listener (each one closes
    /// only that listener's backoff gate).
    pub accept_failures_tcp: AtomicU64,
    /// Accept attempts that failed on the Unix listener.
    pub accept_failures_unix: AtomicU64,
    /// Intervals classified across all sessions.
    pub intervals: AtomicU64,
    /// Queries answered.
    pub queries: AtomicU64,
    /// Gauge: responses currently queued (encoded, not yet written)
    /// across all connections.
    pub queued_responses: AtomicU64,
}

impl ServeCounters {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A frozen snapshot of the serve loop's counters, written periodically
/// while running (`drained: false`) and finally on drain
/// (`drained: true`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeTelemetry {
    /// Connections accepted.
    pub connections: u64,
    /// Client frames read.
    pub frames_read: u64,
    /// Server frames written.
    pub frames_written: u64,
    /// Malformed frames tolerated.
    pub malformed_frames: u64,
    /// Oversized frames rejected.
    pub oversized_frames: u64,
    /// `EndInterval` frames rejected for an invalid CPI.
    pub invalid_cpi: u64,
    /// Idle-deadline closes.
    pub idle_closes: u64,
    /// Mid-frame stall closes.
    pub stalled_closes: u64,
    /// Mid-frame EOF closes.
    pub truncated_closes: u64,
    /// Failed accepts on the TCP listener.
    pub accept_failures_tcp: u64,
    /// Failed accepts on the Unix listener.
    pub accept_failures_unix: u64,
    /// Intervals classified.
    pub intervals: u64,
    /// Queries answered.
    pub queries: u64,
    /// Responses queued and not yet written, at snapshot time.
    pub queued_responses: u64,
    /// Pool workers serving connections (the configured count, at least
    /// one).
    pub workers: u64,
    /// Session-store counters summed across shards.
    pub store: StoreCounters,
    /// `(live, parked)` occupancy of each store shard, in shard order.
    pub shards: Vec<(u64, u64)>,
    /// Whether this snapshot was frozen by a graceful drain (periodic
    /// snapshots of a running server record `false`).
    pub drained: bool,
}

impl ServeTelemetry {
    /// Freezes the shared counters plus the store's counters and
    /// per-shard occupancy.
    pub fn freeze(
        counters: &ServeCounters,
        store: StoreCounters,
        occupancy: &[(usize, usize)],
        workers: u64,
        drained: bool,
    ) -> Self {
        Self {
            connections: counters.connections.load(Ordering::Relaxed),
            frames_read: counters.frames_read.load(Ordering::Relaxed),
            frames_written: counters.frames_written.load(Ordering::Relaxed),
            malformed_frames: counters.malformed_frames.load(Ordering::Relaxed),
            oversized_frames: counters.oversized_frames.load(Ordering::Relaxed),
            invalid_cpi: counters.invalid_cpi.load(Ordering::Relaxed),
            idle_closes: counters.idle_closes.load(Ordering::Relaxed),
            stalled_closes: counters.stalled_closes.load(Ordering::Relaxed),
            truncated_closes: counters.truncated_closes.load(Ordering::Relaxed),
            accept_failures_tcp: counters.accept_failures_tcp.load(Ordering::Relaxed),
            accept_failures_unix: counters.accept_failures_unix.load(Ordering::Relaxed),
            intervals: counters.intervals.load(Ordering::Relaxed),
            queries: counters.queries.load(Ordering::Relaxed),
            queued_responses: counters.queued_responses.load(Ordering::Relaxed),
            workers,
            store,
            shards: occupancy
                .iter()
                .map(|&(live, parked)| (live as u64, parked as u64))
                .collect(),
            drained,
        }
    }

    /// The snapshot as a JSON document (fixed key order, trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let shards = self.shards.iter().map(|&(live, parked)| {
            Json::object([("live", live.into()), ("parked", parked.into())])
        });
        Json::object([
            ("schema", "tpcp-serve-telemetry-v3".into()),
            ("drained", self.drained.into()),
            ("workers", self.workers.into()),
            ("connections", self.connections.into()),
            ("frames_read", self.frames_read.into()),
            ("frames_written", self.frames_written.into()),
            ("malformed_frames", self.malformed_frames.into()),
            ("oversized_frames", self.oversized_frames.into()),
            ("invalid_cpi", self.invalid_cpi.into()),
            ("idle_closes", self.idle_closes.into()),
            ("stalled_closes", self.stalled_closes.into()),
            ("truncated_closes", self.truncated_closes.into()),
            (
                "accept_failures",
                Json::object([
                    ("tcp", self.accept_failures_tcp.into()),
                    ("unix", self.accept_failures_unix.into()),
                ]),
            ),
            ("intervals", self.intervals.into()),
            ("queries", self.queries.into()),
            ("queued_responses", self.queued_responses.into()),
            (
                "sessions",
                Json::object([
                    ("created", self.store.created.into()),
                    ("evictions", self.store.evictions.into()),
                    ("restores", self.store.restores.into()),
                    ("parked_drops", self.store.parked_drops.into()),
                    ("closed", self.store.closed.into()),
                ]),
            ),
            ("shards", Json::Array(shards.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_fixed_schema_and_every_counter() {
        let counters = ServeCounters::default();
        ServeCounters::bump(&counters.connections);
        ServeCounters::bump(&counters.intervals);
        ServeCounters::bump(&counters.accept_failures_tcp);
        let json = ServeTelemetry::freeze(
            &counters,
            StoreCounters::default(),
            &[(3, 1), (0, 0)],
            4,
            true,
        )
        .to_json();
        assert!(json.contains("\"schema\": \"tpcp-serve-telemetry-v3\""));
        assert!(json.contains("\"connections\": 1"));
        assert!(json.contains("\"intervals\": 1"));
        assert!(json.contains("\"drained\": true"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"parked_drops\": 0"));
        assert!(json.contains("\"invalid_cpi\": 0"));
        assert!(json.contains("\"tcp\": 1"));
        assert!(
            json.contains("{ \"live\": 3, \"parked\": 1 },\n    { \"live\": 0, \"parked\": 0 }")
        );
        // Balanced braces: the hand-rolled document must stay parseable.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn periodic_snapshot_records_not_drained() {
        let counters = ServeCounters::default();
        let json =
            ServeTelemetry::freeze(&counters, StoreCounters::default(), &[], 8, false).to_json();
        assert!(json.contains("\"drained\": false"));
        assert!(json.contains("\"shards\": []"));
    }
}
