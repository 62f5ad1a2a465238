//! The server: a pool of workers, each running its own readiness loop
//! over the connections it accepts (the loop itself is in `pool.rs`),
//! over a sharded session store, with per-listener accept backoff,
//! per-connection deadlines, bounded per-connection response queues, and
//! graceful drain.
//!
//! # Failure model
//!
//! Every failure degrades the smallest unit that contains it:
//!
//! - a **malformed frame** costs one error response — the connection and
//!   every session stay up;
//! - an **invalid CPI** (NaN, infinite, negative) costs one error
//!   response — the session's statistics are untouched;
//! - an **oversized frame** costs the connection (the stream offset is
//!   unrecoverable once a length prefix lies) but no session state;
//! - an **idle or stalled peer** costs its own connection at the read
//!   deadline; sessions survive for the next connection to resume;
//! - a **slow reader** fills only its own bounded response queue — its
//!   connection stops being read while every other connection keeps
//!   flowing (the session-store locks are never held across a write);
//! - **memory pressure** parks LRU sessions as snapshots instead of
//!   growing without bound (see [`SessionStore`](crate::SessionStore));
//! - a **failing listener** backs off exponentially *on its own gate*
//!   (`BackoffGate`) — a broken TCP listener never delays accepts on
//!   the healthy Unix listener, or vice versa;
//! - **drain** (SIGTERM or [`ServerHandle::begin_drain`]) stops
//!   accepting, lets in-flight work flush within a deadline, then
//!   freezes a final telemetry snapshot.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tpcp_core::BranchEvent;

use crate::pool::Deadlines;
use crate::protocol::{ErrorCode, FastRequest, Response};
use crate::session::{lock_ignore_poison, ShardedStore, StoreError};
use crate::telemetry::{ServeCounters, ServeTelemetry};

/// Forced accept failures, for fault-injection tests: each listed
/// listener fails its next N accept attempts before behaving normally.
/// Zero (the default) injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptFaults {
    /// Forced failures on the TCP listener.
    pub tcp: u64,
    /// Forced failures on the Unix listener.
    pub unix: u64,
}

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP bind address (e.g. `127.0.0.1:0`); `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix socket path; `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// Most sessions kept materialized before LRU eviction parks them
    /// (split evenly across shards, rounding up).
    pub max_live: usize,
    /// Most parked snapshots kept before the oldest is dropped (split
    /// evenly across shards, rounding up).
    pub max_parked: usize,
    /// Worker threads, each running its own readiness loop over the
    /// connections it accepts. At least one worker runs: `0` is served
    /// as `1`.
    pub workers: usize,
    /// Session-store shards (each an independently locked LRU).
    pub shards: usize,
    /// Socket read deadline — silence past this mid-frame is a stall,
    /// and the poll tick that paces deadline sweeps.
    pub read_timeout: Duration,
    /// How long a connection may sit idle at a frame boundary before the
    /// server closes it.
    pub idle_timeout: Duration,
    /// Write deadline — a reader that stops draining its responses this
    /// long loses its connection (never its sessions).
    pub write_timeout: Duration,
    /// Responses queued per connection before the server stops reading
    /// more of its requests (backpressure is per-connection by
    /// construction).
    pub response_queue: usize,
    /// How long drain waits for in-flight connections to finish.
    pub drain_deadline: Duration,
    /// Emit a telemetry snapshot (counters + per-shard occupancy + queue
    /// depths) this often while running; `None` snapshots only at drain.
    pub telemetry_interval: Option<Duration>,
    /// Where periodic snapshots are written (atomically, via a tempfile
    /// rename); `None` keeps them in memory only
    /// ([`ServerHandle::latest_periodic`]).
    pub telemetry_path: Option<PathBuf>,
    /// Forced accept failures for fault-injection tests.
    pub accept_faults: AcceptFaults,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tcp: Some("127.0.0.1:0".to_owned()),
            unix: None,
            max_live: 256,
            max_parked: 1024,
            workers: 4,
            shards: 8,
            read_timeout: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            response_queue: 8,
            drain_deadline: Duration::from_secs(10),
            telemetry_interval: None,
            telemetry_path: None,
            accept_faults: AcceptFaults::default(),
        }
    }
}

/// State shared between the serve loop, its workers, and the handle.
pub(crate) struct Shared {
    pub(crate) store: ShardedStore,
    pub(crate) counters: ServeCounters,
    /// Set by [`ServerHandle::begin_drain`]; each worker sees it within
    /// one poll tick, stops accepting, and drains its connections.
    stop: AtomicBool,
    /// Set when the serve loop has exited (stops the telemetry thread).
    finished: AtomicBool,
    pub(crate) deadlines: Deadlines,
    /// Accept backoff per listener, TCP's then Unix's, shared by every
    /// worker.
    pub(crate) gates: Mutex<[BackoffGate; 2]>,
    pub(crate) response_queue: usize,
    /// Pool workers that run (the configured count, at least one).
    pub(crate) workers: usize,
    /// The most recent periodic telemetry snapshot.
    latest: Mutex<Option<ServeTelemetry>>,
    /// Remaining forced accept failures per listener, TCP's then Unix's
    /// (fault injection).
    faults: [AtomicU64; 2],
}

impl Shared {
    pub(crate) fn new(config: &ServeConfig) -> Self {
        Self {
            store: ShardedStore::new(config.shards, config.max_live, config.max_parked),
            counters: ServeCounters::default(),
            stop: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            deadlines: Deadlines {
                read: config.read_timeout,
                write: config.write_timeout,
                idle: config.idle_timeout,
                drain: config.drain_deadline,
            },
            gates: Mutex::new([BackoffGate::new(); 2]),
            response_queue: config.response_queue,
            workers: config.workers.max(1),
            latest: Mutex::new(None),
            faults: [config.accept_faults.tcp, config.accept_faults.unix].map(AtomicU64::new),
        }
    }

    pub(crate) fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Consumes one forced accept failure for the listener, if any are
    /// left.
    pub(crate) fn take_accept_fault(&self, tcp: bool) -> bool {
        self.faults[usize::from(!tcp)]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Whether a forced accept failure is still pending for the listener
    /// (fault-injected listeners must be *attempted* even when no real
    /// connection is queued, so the injected failures actually fire).
    pub(crate) fn accept_fault_pending(&self, tcp: bool) -> bool {
        self.faults[usize::from(!tcp)].load(Ordering::SeqCst) > 0
    }

    /// Freezes a telemetry snapshot of the current counters and store
    /// occupancy.
    pub(crate) fn freeze(&self, drained: bool) -> ServeTelemetry {
        ServeTelemetry::freeze(
            &self.counters,
            self.store.counters(),
            &self.store.occupancy(),
            self.workers as u64,
            drained,
        )
    }
}

/// Per-listener accept backoff: exponential from 1 ms to 1 s on
/// failures, reset by the first successful accept. Each listener owns
/// its own gate, so one failing endpoint never delays the other — every
/// worker simply excludes a backed-off listener from its readiness set
/// until the gate's retry time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BackoffGate {
    backoff: Duration,
    retry_at: Option<Instant>,
}

impl BackoffGate {
    const MIN: Duration = Duration::from_millis(1);
    const MAX: Duration = Duration::from_secs(1);

    pub(crate) fn new() -> Self {
        Self {
            backoff: Self::MIN,
            retry_at: None,
        }
    }

    /// Whether the listener may be polled/attempted now.
    pub(crate) fn ready(&self, now: Instant) -> bool {
        match self.retry_at {
            Some(at) => now >= at,
            None => true,
        }
    }

    /// Time until the gate reopens, if it is currently closed.
    pub(crate) fn time_to_retry(&self, now: Instant) -> Option<Duration> {
        self.retry_at.and_then(|at| at.checked_duration_since(now))
    }

    /// Records a failed accept: close the gate and double the backoff.
    pub(crate) fn failure(&mut self, now: Instant) {
        self.retry_at = Some(now + self.backoff);
        self.backoff = (self.backoff * 2).min(Self::MAX);
    }

    /// Records a successful accept: reopen and reset the backoff.
    pub(crate) fn success(&mut self) {
        self.backoff = Self::MIN;
        self.retry_at = None;
    }
}

/// A running server.
pub struct Server;

/// Handle to a spawned server: its bound addresses, a drain trigger,
/// live telemetry access, and the final telemetry on join.
pub struct ServerHandle {
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    shared: Arc<Shared>,
    thread: thread::JoinHandle<ServeTelemetry>,
    telemetry_thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address, if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, if a Unix listener was configured.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Requests a graceful drain: stop accepting, flush in-flight work,
    /// freeze telemetry. Every worker sees the request within one poll
    /// tick (`read_timeout`, clamped to 1–100 ms). Idempotent.
    pub fn begin_drain(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Whether the serve loop is still running.
    pub fn is_running(&self) -> bool {
        !self.thread.is_finished()
    }

    /// A telemetry snapshot of the server as it runs (not a drain
    /// snapshot: `drained` is false).
    pub fn telemetry_now(&self) -> ServeTelemetry {
        self.shared.freeze(false)
    }

    /// The most recent periodic snapshot, if `telemetry_interval` was
    /// configured and at least one tick has fired.
    pub fn latest_periodic(&self) -> Option<ServeTelemetry> {
        lock_ignore_poison(&self.shared.latest).clone()
    }

    /// Drains (if not already draining) and waits for the final telemetry
    /// snapshot.
    pub fn join(self) -> ServeTelemetry {
        self.begin_drain();
        let telemetry = match self.thread.join() {
            Ok(telemetry) => telemetry,
            // The serve loop isolates every per-connection panic; one
            // escaping is an internal bug, surfaced loudly.
            Err(_) => panic!("serve loop panicked"),
        };
        self.shared.finished.store(true, Ordering::SeqCst);
        if let Some(handle) = self.telemetry_thread {
            let _ = handle.join();
        }
        telemetry
    }
}

impl Server {
    /// Binds the configured listeners and spawns the serve loop on a
    /// background thread. Fails only on bind errors; everything after is
    /// handled inside the loop.
    pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
        let backlog = listen_backlog(config.max_live, config.max_parked);
        let tcp = match &config.tcp {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let tcp_addr = match &tcp {
            Some(listener) => {
                crate::poll::set_listen_backlog(listener.as_raw_fd(), backlog)?;
                Some(listener.local_addr()?)
            }
            None => None,
        };
        let unix = match &config.unix {
            Some(path) => {
                // A stale socket file from a previous run blocks the bind.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                crate::poll::set_listen_backlog(listener.as_raw_fd(), backlog)?;
                Some(listener)
            }
            None => None,
        };
        let shared = Arc::new(Shared::new(&config));
        let loop_shared = Arc::clone(&shared);
        let unix_path = config.unix.clone();
        let telemetry_thread = config.telemetry_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            let path = config.telemetry_path.clone();
            thread::spawn(move || telemetry_loop(&shared, interval, path.as_deref()))
        });
        let thread = thread::spawn(move || {
            crate::pool::pool_loop(tcp, unix, &loop_shared);
            if let Some(path) = &config.unix {
                let _ = std::fs::remove_file(path);
            }
            loop_shared.freeze(true)
        });
        Ok(ServerHandle {
            tcp_addr,
            unix_path,
            shared,
            thread,
            telemetry_thread,
        })
    }
}

/// The listen backlog for a store provisioned for `max_live + max_parked`
/// sessions, at least 1024. The std bind backlog (128) drops SYNs under a
/// connect storm — hundreds of clients arriving inside one scheduling
/// quantum — and every dropped SYN costs that client a full TCP
/// retransmission timeout. The sum saturates and clamps to `u32::MAX`,
/// so a huge capacity never wraps or truncates below the floor.
fn listen_backlog(max_live: usize, max_parked: usize) -> u32 {
    u32::try_from(max_live.saturating_add(max_parked))
        .unwrap_or(u32::MAX)
        .max(1024)
}

/// The periodic-telemetry thread: every `interval`, freeze a live
/// snapshot, stash it for [`ServerHandle::latest_periodic`], and (if a
/// path is configured) write it atomically so a scraper never reads a
/// torn document.
fn telemetry_loop(shared: &Shared, interval: Duration, path: Option<&std::path::Path>) {
    let slice = Duration::from_millis(10).min(interval.max(Duration::from_millis(1)));
    let mut next = Instant::now() + interval;
    while !shared.finished.load(Ordering::SeqCst) {
        thread::sleep(slice);
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + interval;
        let snapshot = shared.freeze(false);
        if let Some(path) = path {
            let _ = write_atomic(path, snapshot.to_json().as_bytes());
        }
        *lock_ignore_poison(&shared.latest) = Some(snapshot);
    }
}

/// Writes `bytes` to `path` via a sibling tempfile and rename, so
/// concurrent readers see either the old document or the new one.
pub(crate) fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Maps a store error to its protocol response.
fn store_error(session: u64, err: &StoreError) -> Response {
    let (code, detail) = match err {
        StoreError::UnknownSession => (ErrorCode::UnknownSession, "no such session".to_owned()),
        StoreError::SessionExists => (
            ErrorCode::SessionExists,
            "session id already in use".to_owned(),
        ),
        StoreError::Restore(e) => (
            ErrorCode::Malformed,
            format!("session snapshot failed to restore: {e}"),
        ),
    };
    Response::Error {
        session,
        code,
        detail,
    }
}

/// Executes one decoded request against the sharded store, returning the
/// response to send (if any). Only the named session's shard is locked,
/// and never across a write.
pub(crate) fn execute(
    shared: &Shared,
    request: FastRequest,
    events: &[BranchEvent],
) -> Option<Response> {
    match request {
        FastRequest::Hello { session, extractor } => {
            if shared.draining() {
                Some(Response::Error {
                    session,
                    code: ErrorCode::Draining,
                    detail: "server is draining".to_owned(),
                })
            } else if session == 0 {
                Some(Response::Error {
                    session,
                    code: ErrorCode::Malformed,
                    detail: "session id 0 is reserved".to_owned(),
                })
            } else {
                match shared.store.lock(session).open(session, extractor) {
                    Ok(()) => Some(Response::Ok { session }),
                    Err(e) => Some(store_error(session, &e)),
                }
            }
        }
        FastRequest::Events { session } => {
            let mut shard = shared.store.lock(session);
            match shard.touch(session) {
                Ok(live) => {
                    // One batched call per frame — the accumulate hot
                    // path dispatches per frame, not per event.
                    live.observe_batch(events);
                    // Fire-and-forget: the interval boundary
                    // acknowledges the whole batch.
                    None
                }
                Err(e) => Some(store_error(session, &e)),
            }
        }
        FastRequest::EndInterval { session, cpi } => {
            // Satellite fix: a NaN/negative/infinite CPI would poison
            // the session's CPI and run-length statistics permanently
            // (NaN propagates through every mean). Reject it with a
            // structured error and leave the session untouched.
            if !cpi.is_finite() || cpi < 0.0 {
                ServeCounters::bump(&shared.counters.invalid_cpi);
                return Some(Response::Error {
                    session,
                    code: ErrorCode::Malformed,
                    detail: format!("CPI must be finite and non-negative, got {cpi}"),
                });
            }
            let result = {
                let mut shard = shared.store.lock(session);
                shard.touch(session).map(|live| live.end_interval(cpi))
            };
            match result {
                Ok(classified) => {
                    ServeCounters::bump(&shared.counters.intervals);
                    Some(Response::Classified {
                        session,
                        phase: classified.phase,
                        transition: classified.transition,
                        intervals: classified.intervals,
                    })
                }
                Err(e) => Some(store_error(session, &e)),
            }
        }
        FastRequest::Query { session, kind } => {
            let result = {
                let mut shard = shared.store.lock(session);
                shard.touch(session).map(|live| live.query(kind))
            };
            match result {
                Ok(value) => {
                    ServeCounters::bump(&shared.counters.queries);
                    Some(Response::Answer {
                        session,
                        kind,
                        value,
                    })
                }
                Err(e) => Some(store_error(session, &e)),
            }
        }
        FastRequest::Close { session } => match shared.store.lock(session).close(session) {
            Ok(()) => Some(Response::Ok { session }),
            Err(e) => Some(store_error(session, &e)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_gate_failure_closes_only_its_own_gate() {
        let now = Instant::now();
        let mut tcp = BackoffGate::new();
        let unix = BackoffGate::new();
        for _ in 0..10 {
            tcp.failure(now);
        }
        assert!(!tcp.ready(now), "failed gate must be closed");
        assert!(
            unix.ready(now),
            "sibling gate must be unaffected by the other listener's failures"
        );
        assert_eq!(unix.time_to_retry(now), None);
    }

    #[test]
    fn backoff_gate_doubles_and_caps() {
        let mut gate = BackoffGate::new();
        let now = Instant::now();
        let mut last = Duration::ZERO;
        for _ in 0..15 {
            gate.failure(now);
            let delay = gate.time_to_retry(now).expect("gate closed after failure");
            assert!(delay >= last, "backoff must be monotonic");
            assert!(delay <= BackoffGate::MAX, "backoff must cap at MAX");
            last = delay;
        }
        assert_eq!(last, BackoffGate::MAX);
    }

    #[test]
    fn backoff_gate_reopens_at_retry_time_and_resets_on_success() {
        let now = Instant::now();
        let mut gate = BackoffGate::new();
        gate.failure(now);
        assert!(!gate.ready(now));
        assert!(gate.ready(now + Duration::from_millis(2)));
        gate.failure(now);
        gate.success();
        assert!(gate.ready(now), "success must reopen immediately");
        gate.failure(now);
        assert_eq!(
            gate.time_to_retry(now),
            Some(Duration::from_millis(1)),
            "success must reset the backoff to its minimum"
        );
    }

    #[test]
    fn listen_backlog_saturates_instead_of_wrapping_below_the_floor() {
        assert_eq!(listen_backlog(0, 0), 1024);
        assert_eq!(listen_backlog(256, 1024), 1280);
        // 2^32 used to truncate to 0 and 2^32 + 256 to 256.
        assert_eq!(listen_backlog(256, 1 << 32), u32::MAX);
        assert_eq!(listen_backlog(0, (1 << 32) + 256), u32::MAX);
        // A sum past usize::MAX used to wrap to a tiny value.
        assert_eq!(listen_backlog(usize::MAX, usize::MAX), u32::MAX);
        assert_eq!(listen_backlog(usize::MAX, 2), u32::MAX);
    }
}
