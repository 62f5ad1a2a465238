//! Serve-loop telemetry: atomic counters bumped on the hot paths, frozen
//! into JSON snapshots — periodically while running (when
//! `--telemetry-interval` is set) and finally at drain.
//!
//! The JSON is hand-rolled (the workspace has no serialization
//! dependency) with a fixed key order, so two drains of identical runs
//! produce byte-identical documents modulo the measured values.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

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
        let mut out = String::with_capacity(1536);
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"tpcp-serve-telemetry-v3\",");
        let _ = writeln!(out, "  \"drained\": {},", self.drained);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"connections\": {},", self.connections);
        let _ = writeln!(out, "  \"frames_read\": {},", self.frames_read);
        let _ = writeln!(out, "  \"frames_written\": {},", self.frames_written);
        let _ = writeln!(out, "  \"malformed_frames\": {},", self.malformed_frames);
        let _ = writeln!(out, "  \"oversized_frames\": {},", self.oversized_frames);
        let _ = writeln!(out, "  \"invalid_cpi\": {},", self.invalid_cpi);
        let _ = writeln!(out, "  \"idle_closes\": {},", self.idle_closes);
        let _ = writeln!(out, "  \"stalled_closes\": {},", self.stalled_closes);
        let _ = writeln!(out, "  \"truncated_closes\": {},", self.truncated_closes);
        let _ = writeln!(out, "  \"accept_failures\": {{");
        let _ = writeln!(out, "    \"tcp\": {},", self.accept_failures_tcp);
        let _ = writeln!(out, "    \"unix\": {}", self.accept_failures_unix);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"intervals\": {},", self.intervals);
        let _ = writeln!(out, "  \"queries\": {},", self.queries);
        let _ = writeln!(out, "  \"queued_responses\": {},", self.queued_responses);
        let _ = writeln!(out, "  \"sessions\": {{");
        let _ = writeln!(out, "    \"created\": {},", self.store.created);
        let _ = writeln!(out, "    \"evictions\": {},", self.store.evictions);
        let _ = writeln!(out, "    \"restores\": {},", self.store.restores);
        let _ = writeln!(out, "    \"parked_drops\": {},", self.store.parked_drops);
        let _ = writeln!(out, "    \"closed\": {}", self.store.closed);
        let _ = writeln!(out, "  }},");
        let _ = write!(out, "  \"shards\": [");
        for (i, (live, parked)) in self.shards.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", ");
            }
            let _ = write!(out, "{{\"live\": {live}, \"parked\": {parked}}}");
        }
        let _ = writeln!(out, "]");
        let _ = writeln!(out, "}}");
        out
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
        assert!(json.contains("{\"live\": 3, \"parked\": 1}, {\"live\": 0, \"parked\": 0}"));
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
