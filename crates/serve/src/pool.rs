//! The serve loop: every worker thread runs its own `poll(2)` loop over
//! the shared listeners and the connections it accepted, so N connections
//! cost N fds, not N threads, and a request costs one thread wake.
//!
//! A worker accepts at most one connection per listener per pass and
//! keeps each connection until it closes; a connect storm spreads across
//! the workers that wake for it, but a few long-lived connections can
//! land on one worker. On a ready connection it runs one *turn* in place
//! per pass: flush pending output, decode and execute buffered frames up
//! to the response cap, read the socket once. A turn is bounded, so every
//! connection a worker owns gets a turn, and drain and the deadline sweep
//! run, on every pass, however hard one client pipelines. One thread owns
//! each connection, so per-connection state needs no locks and responses
//! stay in request order by construction; sessions live in the sharded
//! store, so any worker serves any session. Each pass reads the clock
//! once and passes that `now` to turns, accepts, the backoff gates, the
//! deadline sweep and drain, whose decisions are pure functions of it
//! (`Deadlines::verdict`, `Deadlines::drain_step`).
//!
//! # Invariants
//!
//! - **Backpressure without blocked threads**: a connection with
//!   `response_queue` undelivered responses stops being *read* (its
//!   requests back up into the kernel buffer and TCP flow control does
//!   the rest); workers never block on a slow reader.
//! - **No lost bytes across turns**: partially read frames persist in
//!   the connection's [`FrameDecoder`]; a complete frame left buffered
//!   with response budget free runs on the next pass, which polls
//!   without waiting.
//! - **Deadlines**: a mid-frame connection silent past `read_timeout` is
//!   a stall; one idle at a frame boundary past `idle_timeout` is closed;
//!   one whose output has not drained for `write_timeout` is a dead
//!   reader.
//! - **Drain within one poll tick** (`read_timeout` clamped to 1–100 ms):
//!   each worker drops its listener reference (the last one dropped
//!   closes the fds) and closes its connections by `drain_deadline`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tpcp_core::BranchEvent;
use tpcp_trace::{FrameDecoder, FrameError};

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::protocol::{self, DecodeFailure, ErrorCode, Response};
use crate::server::{execute, Shared};
use crate::session::lock_ignore_poison;
use crate::telemetry::ServeCounters;

/// A connection's transport: an accepted TCP or Unix stream.
trait Socket: Read + Write + AsRawFd {}

impl<T: Read + Write + AsRawFd> Socket for T {}

/// Encoded responses awaiting delivery: a flat byte buffer plus the end
/// offset of each queued response, so the response-count cap and the
/// written-frames counter survive partial writes.
#[derive(Default)]
struct OutBuf {
    bytes: Vec<u8>,
    start: usize,
    ends: VecDeque<usize>,
}

impl OutBuf {
    fn is_empty(&self) -> bool {
        self.start == self.bytes.len()
    }

    /// Queued responses not yet fully written.
    fn pending(&self) -> usize {
        self.ends.len()
    }

    fn push_response(&mut self, shared: &Shared, response: &Response) {
        let payload = response.encode();
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(&payload);
        self.ends.push_back(self.bytes.len());
        ServeCounters::bump(&shared.counters.queued_responses);
    }

    /// Writes as much as the socket accepts. `WouldBlock` leaves the
    /// remainder queued; a hard error is returned. The number of bytes
    /// written is the progress signal for the write deadline.
    fn flush(&mut self, w: &mut impl Write, shared: &Shared) -> io::Result<usize> {
        let mut progressed = 0usize;
        while self.start < self.bytes.len() {
            match w.write(&self.bytes[self.start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.start += n;
                    progressed += n;
                    while self.ends.front().is_some_and(|&end| end <= self.start) {
                        self.ends.pop_front();
                        shared
                            .counters
                            .queued_responses
                            .fetch_sub(1, Ordering::Relaxed);
                        ServeCounters::bump(&shared.counters.frames_written);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.is_empty() {
            self.bytes.clear();
            self.start = 0;
        }
        Ok(progressed)
    }

    /// Gives up on undelivered responses (connection closing), keeping
    /// the queue-depth gauge honest.
    fn abandon(&mut self, shared: &Shared) {
        if !self.ends.is_empty() {
            shared
                .counters
                .queued_responses
                .fetch_sub(self.ends.len() as u64, Ordering::Relaxed);
            self.ends.clear();
        }
    }
}

/// One multiplexed connection, owned by the worker that accepted it.
struct Conn {
    stream: Box<dyn Socket>,
    decoder: FrameDecoder,
    out: OutBuf,
    /// Last moment bytes moved in either direction.
    last_progress: Instant,
    /// Stop reading; close once the out-buffer drains (EOF seen,
    /// oversized answered, or drain notice queued).
    close_after_flush: bool,
    /// A `Draining` notice has been queued.
    notified_draining: bool,
}

impl Conn {
    fn new(stream: Box<dyn Socket>, now: Instant) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            out: OutBuf::default(),
            last_progress: now,
            close_after_flush: false,
            notified_draining: false,
        }
    }

    fn flush(&mut self, shared: &Shared, now: Instant) -> io::Result<()> {
        let progressed = self.out.flush(&mut self.stream, shared)?;
        if progressed > 0 {
            self.last_progress = now;
        }
        Ok(())
    }

    fn buffered(&self) -> Buffered {
        if !self.decoder.mid_frame() {
            Buffered::Nothing
        } else if self.decoder.frame_ready() {
            Buffered::WholeFrame
        } else {
            Buffered::PartFrame
        }
    }

    /// Whether a turn would make progress without new readiness: a
    /// complete frame is buffered and there is response budget for it.
    fn runnable(&self, cap: usize) -> bool {
        !self.close_after_flush && self.decoder.frame_ready() && self.out.pending() < cap
    }

    /// The readiness this connection waits on: input while it has
    /// response budget, output while responses are queued.
    fn interest(&self, cap: usize) -> i16 {
        let mut events = 0;
        if !self.close_after_flush && self.out.pending() < cap {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        events
    }
}

/// Closes a connection: best-effort flush of any queued notice, then
/// release the gauge. The fd closes when the caller drops the `Conn`.
fn close_conn(shared: &Shared, conn: &mut Conn) {
    let _ = conn.out.flush(&mut conn.stream, shared);
    conn.out.abandon(shared);
}

/// What a connection's frame decoder holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buffered {
    /// Nothing: the connection sits at a frame boundary.
    Nothing,
    /// Part of a frame, waiting on more bytes.
    PartFrame,
    /// A complete frame (or an oversized prefix), waiting on response
    /// budget.
    WholeFrame,
}

/// The deadline sweep's decision on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    /// Silent mid-frame past the read deadline.
    Stall,
    /// Queued output unmoved past the write deadline.
    DeadReader,
    /// Silent at a frame boundary past the idle deadline.
    Idle,
}

/// Drain's decision on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainStep {
    /// Let in-flight work finish.
    Wait,
    /// Quiet for a read deadline: queue a `Draining` notice and close
    /// once it is written.
    Notify,
    /// The drain deadline has passed: queue a `Draining` notice and close
    /// now.
    Close,
}

/// The connection and drain deadlines, from `ServeConfig`'s timeouts.
/// Their decisions are pure functions of the clock, so every deadline is
/// testable with synthetic instants.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadlines {
    pub(crate) read: Duration,
    pub(crate) write: Duration,
    pub(crate) idle: Duration,
    pub(crate) drain: Duration,
}

impl Deadlines {
    /// The sweep's close decision for a connection `silent` this long.
    fn verdict(
        &self,
        silent: Duration,
        buffered: Buffered,
        out_empty: bool,
        close_after_flush: bool,
    ) -> Verdict {
        if buffered == Buffered::PartFrame && silent >= self.read {
            Verdict::Stall
        } else if !out_empty && silent >= self.write {
            // A reader that has not drained a byte in a full write
            // deadline is gone; its sessions survive.
            Verdict::DeadReader
        } else if buffered == Buffered::Nothing && !close_after_flush && silent >= self.idle {
            Verdict::Idle
        } else {
            Verdict::Keep
        }
    }

    /// Drain's decision at `now` for a connection `silent` this long,
    /// with the drain due by `drain_by`. One read deadline of grace lets
    /// an active client's in-flight request finish before its notice.
    fn drain_step(
        &self,
        now: Instant,
        drain_by: Instant,
        silent: Duration,
        notified: bool,
    ) -> DrainStep {
        if now >= drain_by {
            DrainStep::Close
        } else if !notified && silent >= self.read {
            DrainStep::Notify
        } else {
            DrainStep::Wait
        }
    }
}

/// The bound listeners, shared by every worker. Each worker drops its
/// reference when drain begins; the last drop closes the fds, so new
/// connects are refused from then on.
struct Listeners {
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
}

impl Listeners {
    fn fd(&self, is_tcp: bool) -> Option<RawFd> {
        if is_tcp {
            self.tcp.as_ref().map(AsRawFd::as_raw_fd)
        } else {
            self.unix.as_ref().map(AsRawFd::as_raw_fd)
        }
    }

    /// Accepts one connection through the listener's backoff gate,
    /// nonblocking because every read and write happens under the
    /// readiness loop. `None` when the gate is closed, none is queued, or
    /// the attempt failed (counted, and the gate backs off). The gate is
    /// locked across the attempt, so a failure closes it before any other
    /// worker retries: one attempt per backoff step, whatever `workers`.
    fn accept(&self, is_tcp: bool, shared: &Shared, now: Instant) -> Option<Box<dyn Socket>> {
        let mut gates = lock_ignore_poison(&shared.gates);
        let gate = &mut gates[usize::from(!is_tcp)];
        if !gate.ready(now) {
            return None;
        }
        let accepted: io::Result<Box<dyn Socket>> = if shared.take_accept_fault(is_tcp) {
            Err(io::ErrorKind::Other.into())
        } else {
            match (is_tcp, &self.tcp, &self.unix) {
                (true, Some(listener), _) => listener.accept().and_then(|(stream, _)| {
                    // Nagle off: responses are small and latency-bound.
                    let _ = stream.set_nodelay(true);
                    stream.set_nonblocking(true)?;
                    Ok(Box::new(stream) as Box<dyn Socket>)
                }),
                (false, _, Some(listener)) => listener.accept().and_then(|(stream, _)| {
                    stream.set_nonblocking(true)?;
                    Ok(Box::new(stream) as Box<dyn Socket>)
                }),
                _ => return None,
            }
        };
        match accepted {
            Ok(stream) => {
                gate.success();
                Some(stream)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(_) => {
                ServeCounters::bump(if is_tcp {
                    &shared.counters.accept_failures_tcp
                } else {
                    &shared.counters.accept_failures_unix
                });
                gate.failure(now);
                None
            }
        }
    }
}

/// Runs the server: `shared.workers` poll loops, one on the calling
/// thread, until drain completes.
pub(crate) fn pool_loop(tcp: Option<TcpListener>, unix: Option<UnixListener>, shared: &Shared) {
    if let Some(listener) = &tcp {
        let _ = listener.set_nonblocking(true);
    }
    if let Some(listener) = &unix {
        let _ = listener.set_nonblocking(true);
    }
    let listeners = Arc::new(Listeners { tcp, unix });
    thread::scope(|scope| {
        for _ in 1..shared.workers {
            let listeners = Arc::clone(&listeners);
            scope.spawn(move || worker_loop(listeners, shared));
        }
        worker_loop(listeners, shared);
    });
}

/// One worker's poll loop. Each pass reads the clock, acts on what the
/// previous poll reported, runs drain and the deadline sweep, and polls
/// again. Returns once draining with no connections left. Per-worker
/// scratch buffers (events + read chunk) are reused across every turn.
fn worker_loop(listeners: Arc<Listeners>, shared: &Shared) {
    let deadlines = shared.deadlines;
    let cap = shared.response_queue.max(1);
    let tick = deadlines
        .read
        .clamp(Duration::from_millis(1), Duration::from_millis(100));
    // The O(connections) deadline sweep runs at most every quarter read
    // deadline, not every pass: deadlines have read-deadline granularity,
    // so sweeping finer than that buys nothing.
    let sweep_every = (deadlines.read / 4).max(Duration::from_millis(1));
    let mut listeners = Some(listeners);
    let mut conns: Vec<Conn> = Vec::new();
    // The poll set: one slot per listener in `polled` (whether it is the
    // TCP one), then one per connection, in `conns` order.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled: Vec<bool> = Vec::with_capacity(2);
    let mut scratch: Vec<BranchEvent> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut drain_by: Option<Instant> = None;
    let mut next_sweep: Option<Instant> = None;

    loop {
        let now = Instant::now();

        // 1. Act on the last poll: one turn per ready or runnable
        //    connection, then at most one accept per ready listener.
        let (listen_fds, conn_fds) = fds.split_at(polled.len());
        let mut ready = conn_fds.iter().map(PollFd::ready);
        conns.retain_mut(|conn| {
            let polled_ready = ready.next().unwrap_or(false);
            !(polled_ready || conn.runnable(cap))
                || serve(conn, shared, now, &mut scratch, &mut chunk)
        });
        if let Some(listeners) = &listeners {
            for (slot, &is_tcp) in listen_fds.iter().zip(&polled) {
                // A fault-injected listener is attempted even without a
                // queued connection, so its forced failures actually fire.
                if !slot.ready() && !shared.accept_fault_pending(is_tcp) {
                    continue;
                }
                let Some(stream) = listeners.accept(is_tcp, shared, now) else {
                    continue;
                };
                ServeCounters::bump(&shared.counters.connections);
                // Served at once: the client's first frame is usually
                // already in flight.
                let mut conn = Conn::new(stream, now);
                if serve(&mut conn, shared, now, &mut scratch, &mut chunk) {
                    conns.push(conn);
                }
            }
        }

        // 2. Drain protocol.
        if shared.draining() {
            listeners = None;
            let by = *drain_by.get_or_insert(now + deadlines.drain);
            conns.retain_mut(|conn| {
                let silent = now.duration_since(conn.last_progress);
                match deadlines.drain_step(now, by, silent, conn.notified_draining) {
                    DrainStep::Wait => true,
                    DrainStep::Notify => {
                        conn.notified_draining = true;
                        conn.close_after_flush = true;
                        conn.out.push_response(shared, &Response::Draining);
                        let _ = conn.flush(shared, now);
                        // Kept only until the notice is written.
                        !conn.out.is_empty()
                    }
                    DrainStep::Close => {
                        conn.out.push_response(shared, &Response::Draining);
                        close_conn(shared, conn);
                        false
                    }
                }
            });
            if conns.is_empty() {
                return;
            }
        }

        // 3. Deadline sweep.
        if next_sweep.is_none_or(|at| now >= at) {
            next_sweep = Some(now + sweep_every);
            conns.retain_mut(|conn| {
                let silent = now.duration_since(conn.last_progress);
                let counter = match deadlines.verdict(
                    silent,
                    conn.buffered(),
                    conn.out.is_empty(),
                    conn.close_after_flush,
                ) {
                    Verdict::Keep => return true,
                    Verdict::Stall | Verdict::DeadReader => &shared.counters.stalled_closes,
                    Verdict::Idle => &shared.counters.idle_closes,
                };
                ServeCounters::bump(counter);
                close_conn(shared, conn);
                false
            });
        }

        // 4. Poll the gated listeners and every connection.
        fds.clear();
        polled.clear();
        let mut timeout = tick;
        if let Some(listeners) = &listeners {
            let gates = *lock_ignore_poison(&shared.gates);
            for is_tcp in [true, false] {
                let Some(fd) = listeners.fd(is_tcp) else {
                    continue;
                };
                let gate = &gates[usize::from(!is_tcp)];
                if gate.ready(now) {
                    fds.push(PollFd::new(fd, POLLIN));
                    polled.push(is_tcp);
                } else if let Some(delay) = gate.time_to_retry(now) {
                    timeout = timeout.min(delay.max(Duration::from_millis(1)));
                }
            }
        }
        for conn in &conns {
            if conn.runnable(cap) {
                // Its next turn needs no readiness: only look.
                timeout = Duration::ZERO;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), conn.interest(cap)));
        }
        let _ = poll::poll(&mut fds, timeout);
    }
}

/// Runs one turn on a connection. Returns whether the connection stays
/// open; a dead one is closed here. A panic in a turn (an internal bug)
/// costs that connection, never the worker.
fn serve(
    conn: &mut Conn,
    shared: &Shared,
    now: Instant,
    scratch: &mut Vec<BranchEvent>,
    chunk: &mut [u8],
) -> bool {
    let dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_turn(conn, shared, now, scratch, chunk)
    }))
    .unwrap_or(true);
    if dead {
        close_conn(shared, conn);
    }
    !dead
}

/// One turn on a connection. Returns `true` when the connection is dead
/// (transport error, truncation, or fully flushed close).
fn serve_turn(
    conn: &mut Conn,
    shared: &Shared,
    now: Instant,
    scratch: &mut Vec<BranchEvent>,
    chunk: &mut [u8],
) -> bool {
    let cap = shared.response_queue.max(1);
    // Flush first: delivered responses free budget for buffered frames.
    if conn.flush(shared, now).is_err() {
        return true;
    }
    if process_buffered(conn, shared, scratch, cap) {
        return true;
    }
    // One read per turn keeps a turn bounded however fast the peer
    // sends (`Events` frames take no response budget); whatever is left
    // keeps the socket readable for the next pass.
    let mut peer_eof = false;
    if !conn.close_after_flush && conn.out.pending() < cap {
        match conn.stream.read(chunk) {
            Ok(0) => peer_eof = true,
            Ok(n) => {
                conn.last_progress = now;
                conn.decoder.extend(&chunk[..n]);
                if process_buffered(conn, shared, scratch, cap) {
                    return true;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                ) => {}
            Err(_) => return true,
        }
    }
    if peer_eof {
        // The peer is gone, so the response cap no longer means
        // anything: execute whatever complete frames it left behind
        // (their responses flush below, best-effort), then classify the
        // close.
        if process_buffered(conn, shared, scratch, usize::MAX) {
            return true;
        }
        if conn.decoder.mid_frame() && !conn.decoder.frame_ready() {
            ServeCounters::bump(&shared.counters.truncated_closes);
            return true;
        }
        conn.close_after_flush = true;
    }
    if conn.flush(shared, now).is_err() {
        return true;
    }
    conn.close_after_flush && conn.out.is_empty()
}

/// Decodes and executes every complete buffered frame while the
/// connection has response budget. Returns `true` when the connection is
/// dead. An oversized prefix is answered and flips `close_after_flush` —
/// the stream offset is unrecoverable.
fn process_buffered(
    conn: &mut Conn,
    shared: &Shared,
    scratch: &mut Vec<BranchEvent>,
    cap: usize,
) -> bool {
    let Conn {
        ref mut decoder,
        ref mut out,
        ref mut close_after_flush,
        ..
    } = *conn;
    loop {
        if *close_after_flush || out.pending() >= cap {
            return false;
        }
        match decoder.next_frame() {
            Ok(None) => return false,
            Ok(Some(payload)) => {
                ServeCounters::bump(&shared.counters.frames_read);
                match protocol::decode_request_into(payload, scratch) {
                    Ok(request) => {
                        if let Some(response) = execute(shared, request, scratch) {
                            out.push_response(shared, &response);
                        }
                    }
                    Err(DecodeFailure {
                        session,
                        code,
                        error,
                    }) => {
                        // Frame-aligned but malformed: answer and keep
                        // the connection.
                        ServeCounters::bump(&shared.counters.malformed_frames);
                        out.push_response(
                            shared,
                            &Response::Error {
                                session,
                                code,
                                detail: error.to_string(),
                            },
                        );
                    }
                }
            }
            Err(FrameError::Oversized { declared }) => {
                ServeCounters::bump(&shared.counters.oversized_frames);
                out.push_response(
                    shared,
                    &Response::Error {
                        session: 0,
                        code: ErrorCode::Oversized,
                        detail: format!("declared frame length {declared}"),
                    },
                );
                *close_after_flush = true;
                return false;
            }
            // The decoder's only error is Oversized; treat anything new
            // as fatal for this connection rather than guessing.
            Err(_) => return true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{QueryKind, Request, WireEvent, WireExtractor};
    use crate::server::ServeConfig;
    use std::os::unix::net::UnixStream;
    use tpcp_trace::FrameWriter;
    use Buffered::{Nothing, PartFrame, WholeFrame};

    const NS: Duration = Duration::from_nanos(1);
    const D: Deadlines = Deadlines {
        read: Duration::from_millis(25),
        write: Duration::from_secs(5),
        idle: Duration::from_secs(30),
        drain: Duration::from_secs(10),
    };

    /// Any instant will do: the tests work in offsets from one.
    fn epoch() -> Instant {
        Instant::now()
    }

    /// `f` at one nanosecond before, exactly at, and one nanosecond after
    /// `deadline` past `t0`, given the silence since `t0` as the worker
    /// measures it.
    fn around<T>(t0: Instant, deadline: Duration, f: impl Fn(Instant, Duration) -> T) -> [T; 3] {
        [deadline - NS, deadline, deadline + NS].map(|d| f(t0 + d, d))
    }

    /// A fresh server state and one accepted connection to it, plus the
    /// client end.
    fn connected() -> (Shared, Conn, UnixStream) {
        let shared = Shared::new(&ServeConfig::default());
        let (client, server) = UnixStream::pair().expect("socket pair");
        server.set_nonblocking(true).expect("nonblocking");
        (shared, Conn::new(Box::new(server), epoch()), client)
    }

    #[test]
    fn a_turn_serves_at_most_the_response_cap() {
        // Eight response caps' worth of requests, all buffered at once:
        // each turn must serve one cap's worth and leave the rest
        // runnable, however fast the client keeps the pipeline full.
        let (shared, mut conn, client) = connected();
        let cap = shared.response_queue;
        let query = Request::Query {
            session: 1,
            kind: QueryKind::Phase,
        }
        .encode();
        let mut frames = FrameWriter::new(&client);
        for _ in 0..8 * cap {
            frames.write_frame(&query).expect("buffer a request");
        }
        let (mut scratch, mut chunk) = (Vec::new(), vec![0u8; 16 * 1024]);
        for turn in 1..=8 {
            assert!(serve(&mut conn, &shared, epoch(), &mut scratch, &mut chunk));
            let read = shared.counters.frames_read.load(Ordering::Relaxed);
            assert_eq!(read, (turn * cap) as u64, "turn {turn}");
            assert_eq!(conn.runnable(cap), turn < 8, "turn {turn}");
        }
    }

    #[test]
    fn a_turn_reads_once_however_much_the_client_sent() {
        // `Events` frames take no response budget, so only the one-read
        // rule bounds a turn that serves them: eight read chunks' worth
        // take at least eight turns.
        let (shared, mut conn, client) = connected();
        let mut frames = FrameWriter::new(Vec::new());
        let hello = Request::Hello {
            session: 1,
            extractor: WireExtractor::Bbv,
        };
        frames
            .write_frame(&hello.encode())
            .expect("frame into memory");
        let events = Request::Events {
            session: 1,
            events: vec![WireEvent { pc: 4, insns: 1 }; 100],
        }
        .encode();
        let chunk_len = 1024;
        let batches = 8 * chunk_len / events.len() + 1;
        for _ in 0..batches {
            frames.write_frame(&events).expect("frame into memory");
        }
        let sent = 1 + batches as u64;
        (&client)
            .write_all(frames.get_ref())
            .expect("buffer the requests");
        let (mut scratch, mut chunk) = (Vec::new(), vec![0u8; chunk_len]);
        let mut turns = 0;
        while shared.counters.frames_read.load(Ordering::Relaxed) < sent {
            assert!(serve(&mut conn, &shared, epoch(), &mut scratch, &mut chunk));
            turns += 1;
        }
        assert!(turns >= 8, "{sent} frames in {turns} turns");
    }

    #[test]
    fn each_sweep_deadline_fires_exactly_at_its_timeout() {
        use Verdict::{DeadReader, Idle, Keep, Stall};
        // (deadline, buffered, out_empty, close_after_flush, verdict).
        // A whole frame waiting on response budget is neither a stall
        // nor idle: only the write deadline applies to it.
        let cases = [
            (D.read, PartFrame, true, false, Stall),
            (D.write, Nothing, false, false, DeadReader),
            (D.write, WholeFrame, false, false, DeadReader),
            (D.write, WholeFrame, false, true, DeadReader),
            (D.idle, Nothing, true, false, Idle),
        ];
        let t0 = epoch();
        for (deadline, buffered, out_empty, close, past) in cases {
            let verdict = |_: Instant, s| D.verdict(s, buffered, out_empty, close);
            assert_eq!(
                around(t0, deadline, verdict),
                [Keep, past, past],
                "{buffered:?}, out_empty {out_empty}, close_after_flush {close}"
            );
        }
        // Past every deadline at once, the first applicable one names
        // the close; a connection closing after its flush, or holding a
        // whole frame, is never idle.
        let long = D.idle + D.write;
        assert_eq!(D.verdict(long, PartFrame, false, false), Stall);
        assert_eq!(D.verdict(long, Nothing, false, false), DeadReader);
        assert_eq!(D.verdict(long, Nothing, true, true), Keep);
        assert_eq!(D.verdict(long, WholeFrame, true, false), Keep);
    }

    #[test]
    fn drain_notifies_after_a_read_deadline_and_closes_at_its_deadline() {
        use DrainStep::{Close, Notify, Wait};
        let t0 = epoch();
        let by = t0 + D.drain;
        assert_eq!(
            around(t0, D.read, |now, s| D.drain_step(now, by, s, false)),
            [Wait, Notify, Notify]
        );
        // One notice per connection.
        assert_eq!(
            around(t0, D.read, |now, s| D.drain_step(now, by, s, true)),
            [Wait, Wait, Wait]
        );
        for notified in [false, true] {
            let step = |now, _: Duration| D.drain_step(now, by, Duration::ZERO, notified);
            assert_eq!(around(t0, D.drain, step), [Wait, Close, Close]);
        }
    }

    #[test]
    fn a_clock_jump_past_the_drain_deadline_closes_in_one_pass() {
        // Drain armed at t0; the clock then jumps far past its deadline
        // before the worker's next pass (a suspended host, say).
        let t0 = epoch();
        let now = t0 + D.drain * 100;
        let silent = now.duration_since(t0 + D.read);
        for notified in [false, true] {
            assert_eq!(
                D.drain_step(now, t0 + D.drain, silent, notified),
                DrainStep::Close
            );
        }
        // The same jump expires every deadline the sweep enforces.
        assert_eq!(D.verdict(silent, PartFrame, true, false), Verdict::Stall);
        assert_eq!(
            D.verdict(silent, WholeFrame, false, false),
            Verdict::DeadReader
        );
        assert_eq!(D.verdict(silent, Nothing, true, false), Verdict::Idle);
    }
}
