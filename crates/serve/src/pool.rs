//! The serve loop: one dispatcher thread multiplexing every connection
//! fd through `poll(2)`, and a small fixed pool of workers doing the
//! reads, decodes, classifier work, and writes — so N connections cost
//! N fds, not N threads.
//!
//! # Shape
//!
//! The dispatcher owns the listeners, a self-wake pipe, and every
//! *parked* (idle) connection. Each loop it polls the parked fds for
//! readability (and writability, when a connection has queued output),
//! then hands ready connections to the workers over an `mpsc` channel.
//! A worker runs one *turn* on the connection — flush pending output,
//! decode and execute buffered frames, read until the socket would
//! block — and hands it back. Ownership of a connection moves between
//! dispatcher and worker, never shared, so per-connection state needs no
//! locks and responses stay in request order by construction.
//!
//! # Invariants the turn loop maintains
//!
//! - **Backpressure without blocked threads**: a connection with
//!   `response_queue` undelivered responses stops being *read* (its
//!   requests back up into the kernel buffer and TCP flow control does
//!   the rest); workers never block on a slow reader.
//! - **No lost bytes across turns**: partially read frames persist in
//!   the connection's [`FrameDecoder`]; a complete frame that could not
//!   be executed yet (response cap) is re-dispatched as soon as output
//!   drains — buffered work never waits on socket readability.
//! - **Deadlines from the dispatcher**: a mid-frame connection with no
//!   progress for `read_timeout` is a stall; a connection idle at a
//!   frame boundary past `idle_timeout` is closed; a connection whose
//!   output has not drained for `write_timeout` is a dead reader.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tpcp_core::BranchEvent;
use tpcp_trace::{FrameDecoder, FrameError};

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::protocol::{self, DecodeFailure, ErrorCode, Response};
use crate::server::{execute, BackoffGate, ServeConfig, Shared};
use crate::session::lock_ignore_poison;
use crate::telemetry::{ServeCounters, ServeTelemetry};

/// A connection's transport, unified across listener kinds.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(s) => s.as_raw_fd(),
            Self::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

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

    fn push_response(&mut self, shared: &Shared, payload: &[u8]) {
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(payload);
        self.ends.push_back(self.bytes.len());
        shared
            .counters
            .queued_responses
            .fetch_add(1, Ordering::Relaxed);
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

/// One multiplexed connection. Owned by exactly one of: the dispatcher's
/// parked map, the job channel, or a worker.
struct Conn {
    stream: Stream,
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
    fn new(stream: Stream) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            out: OutBuf::default(),
            last_progress: Instant::now(),
            close_after_flush: false,
            notified_draining: false,
        }
    }

    fn push_response(&mut self, shared: &Shared, response: &Response) {
        self.out.push_response(shared, &response.encode());
    }

    fn flush(&mut self, shared: &Shared) -> io::Result<()> {
        let progressed = self.out.flush(&mut self.stream, shared)?;
        if progressed > 0 {
            self.last_progress = Instant::now();
        }
        Ok(())
    }
}

struct Job {
    id: u64,
    conn: Conn,
}

struct Return {
    id: u64,
    conn: Conn,
    dead: bool,
}

/// What the dispatcher polls, parallel to its pollfd slice.
enum Token {
    Wake,
    Tcp,
    Unix,
    Conn(u64),
}

/// Closes a connection: best-effort flush of any queued notice, then
/// release the gauge and the fd.
fn close_conn(shared: &Shared, mut conn: Conn) {
    let _ = conn.flush(shared);
    conn.out.abandon(shared);
}

enum AcceptOut {
    Conn(Stream),
    WouldBlock,
    Failed,
}

fn accept_stream(
    is_tcp: bool,
    tcp: Option<&TcpListener>,
    unix: Option<&UnixListener>,
    shared: &Shared,
) -> AcceptOut {
    if shared.take_accept_fault(is_tcp) {
        return AcceptOut::Failed;
    }
    if is_tcp {
        match tcp.map(TcpListener::accept) {
            Some(Ok((stream, _))) => {
                // Nagle off (small latency-bound responses), and
                // nonblocking because every read/write happens under the
                // readiness loop.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    return AcceptOut::Failed;
                }
                AcceptOut::Conn(Stream::Tcp(stream))
            }
            Some(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => AcceptOut::WouldBlock,
            Some(Err(_)) => AcceptOut::Failed,
            None => AcceptOut::WouldBlock,
        }
    } else {
        match unix.map(UnixListener::accept) {
            Some(Ok((stream, _))) => {
                if stream.set_nonblocking(true).is_err() {
                    return AcceptOut::Failed;
                }
                AcceptOut::Conn(Stream::Unix(stream))
            }
            Some(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => AcceptOut::WouldBlock,
            Some(Err(_)) => AcceptOut::Failed,
            None => AcceptOut::WouldBlock,
        }
    }
}

/// The dispatcher: owns the poll set, accepts connections, enforces
/// deadlines, routes ready connections to workers, and runs the drain
/// protocol. Returns the final telemetry snapshot.
pub(crate) fn pool_loop(
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    wake_rx: UnixStream,
    config: ServeConfig,
    shared: Arc<Shared>,
) -> ServeTelemetry {
    if let Some(listener) = &tcp {
        let _ = listener.set_nonblocking(true);
    }
    if let Some(listener) = &unix {
        let _ = listener.set_nonblocking(true);
    }
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (ret_tx, ret_rx) = mpsc::channel::<Return>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<_> = (0..shared.workers)
        .map(|_| {
            let jobs = Arc::clone(&job_rx);
            let ret = ret_tx.clone();
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&jobs, &ret, &shared))
        })
        .collect();
    drop(ret_tx);

    let mut tcp = tcp;
    let mut unix = unix;
    let mut tcp_gate = BackoffGate::new();
    let mut unix_gate = BackoffGate::new();
    let mut parked: HashMap<u64, Conn> = HashMap::new();
    let mut in_flight = 0usize;
    let mut next_id = 1u64;
    let mut listeners_dropped = false;
    // When drain must finish: armed on the first draining pass.
    let mut drain_by: Option<Instant> = None;
    let cap = config.response_queue.max(1);
    let tick = config
        .read_timeout
        .clamp(Duration::from_millis(1), Duration::from_millis(100));
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<Token> = Vec::new();

    let dispatch = |job_tx: &mpsc::Sender<Job>, in_flight: &mut usize, id: u64, conn: Conn| {
        *in_flight += 1;
        shared
            .counters
            .dispatch_depth
            .fetch_add(1, Ordering::Relaxed);
        if let Err(mpsc::SendError(job)) = job_tx.send(Job { id, conn }) {
            // Workers only exit after this loop drops the sender, so
            // this is unreachable; degrade to a clean close anyway.
            *in_flight -= 1;
            shared
                .counters
                .dispatch_depth
                .fetch_sub(1, Ordering::Relaxed);
            close_conn(&shared, job.conn);
        }
    };

    // The O(parked) deadline sweep runs on its own cadence, not every
    // pass — at 512 connections a per-wake sweep dominates the loop.
    let sweep_every = (config.read_timeout / 4).max(Duration::from_millis(1));
    let mut last_sweep = Instant::now();

    loop {
        // Re-arm wake coalescing *before* consuming returns: a worker
        // finishing after this point either lands in try_recv below or
        // writes the pipe and wakes the next poll. Either way no return
        // is stranded.
        shared.begin_dispatch_pass();

        // 1. Take back connections the workers finished with.
        while let Ok(ret) = ret_rx.try_recv() {
            in_flight -= 1;
            shared
                .counters
                .dispatch_depth
                .fetch_sub(1, Ordering::Relaxed);
            let conn = ret.conn;
            if ret.dead || (conn.close_after_flush && conn.out.is_empty()) {
                close_conn(&shared, conn);
                continue;
            }
            if drain_by.is_some_and(|by| Instant::now() >= by) {
                let mut conn = conn;
                conn.push_response(&shared, &Response::Draining);
                close_conn(&shared, conn);
                continue;
            }
            // A complete frame is already buffered and there is response
            // budget: the connection has runnable work regardless of
            // socket readiness, so hand it straight back.
            if !conn.close_after_flush && conn.decoder.frame_ready() && conn.out.pending() < cap {
                dispatch(&job_tx, &mut in_flight, ret.id, conn);
                continue;
            }
            parked.insert(ret.id, conn);
        }

        // 2. Drain protocol.
        let draining = shared.draining();
        if draining {
            let by = *drain_by.get_or_insert_with(|| Instant::now() + config.drain_deadline);
            if !listeners_dropped {
                // Dropping the listeners closes their fds, so new
                // connects are refused from this point on.
                tcp = None;
                unix = None;
                listeners_dropped = true;
            }
            if Instant::now() >= by {
                for (_, mut conn) in parked.drain() {
                    conn.push_response(&shared, &Response::Draining);
                    close_conn(&shared, conn);
                }
            }
            if parked.is_empty() && in_flight == 0 {
                break;
            }
        }

        // 3. Deadline sweep over parked connections, at most every
        //    quarter read-deadline — deadlines have read-timeout
        //    granularity, so sweeping finer than that buys nothing.
        let now = Instant::now();
        if now.duration_since(last_sweep) >= sweep_every {
            last_sweep = now;
            let mut expired: Vec<u64> = Vec::new();
            for (&id, conn) in &parked {
                let silent = now.duration_since(conn.last_progress);
                let mid_frame = conn.decoder.mid_frame() && !conn.decoder.frame_ready();
                if mid_frame && silent >= shared.read_timeout {
                    ServeCounters::bump(&shared.counters.stalled_closes);
                    expired.push(id);
                } else if !conn.out.is_empty() && silent >= shared.write_timeout {
                    // A reader that has not drained a byte in a full
                    // write deadline is gone; its sessions survive.
                    ServeCounters::bump(&shared.counters.stalled_closes);
                    expired.push(id);
                } else if !conn.decoder.mid_frame()
                    && !conn.close_after_flush
                    && silent >= shared.idle_timeout
                {
                    ServeCounters::bump(&shared.counters.idle_closes);
                    expired.push(id);
                }
            }
            for id in expired {
                if let Some(conn) = parked.remove(&id) {
                    close_conn(&shared, conn);
                }
            }
        }

        // 4. Build the poll set: wake pipe, gated listeners, parked fds.
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        tokens.push(Token::Wake);
        let now = Instant::now();
        let mut timeout = tick;
        if !draining {
            if let Some(listener) = &tcp {
                if tcp_gate.ready(now) {
                    fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                    tokens.push(Token::Tcp);
                } else if let Some(delay) = tcp_gate.time_to_retry(now) {
                    timeout = timeout.min(delay.max(Duration::from_millis(1)));
                }
            }
            if let Some(listener) = &unix {
                if unix_gate.ready(now) {
                    fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                    tokens.push(Token::Unix);
                } else if let Some(delay) = unix_gate.time_to_retry(now) {
                    timeout = timeout.min(delay.max(Duration::from_millis(1)));
                }
            }
        }
        for (&id, conn) in &parked {
            let mut events = 0i16;
            if !conn.close_after_flush && conn.out.pending() < cap {
                events |= POLLIN;
            }
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.raw_fd(), events));
                tokens.push(Token::Conn(id));
            }
        }
        let _ = poll::poll(&mut fds, timeout);

        // 5. Act on readiness.
        for (slot, token) in fds.iter().zip(&tokens) {
            match token {
                Token::Wake => {
                    if slot.ready() {
                        let mut sink = [0u8; 64];
                        let mut rx = &wake_rx;
                        loop {
                            match rx.read(&mut sink) {
                                Ok(0) => break,
                                Ok(_) => {}
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                Err(_) => break,
                            }
                        }
                    }
                }
                Token::Tcp | Token::Unix => {
                    let is_tcp = matches!(token, Token::Tcp);
                    // A fault-injected listener is attempted even
                    // without a queued connection, so its forced
                    // failures actually fire.
                    if !slot.ready() && !shared.accept_fault_pending(is_tcp) {
                        continue;
                    }
                    let gate = if is_tcp {
                        &mut tcp_gate
                    } else {
                        &mut unix_gate
                    };
                    loop {
                        match accept_stream(is_tcp, tcp.as_ref(), unix.as_ref(), &shared) {
                            AcceptOut::Conn(stream) => {
                                gate.success();
                                ServeCounters::bump(&shared.counters.connections);
                                let id = next_id;
                                next_id += 1;
                                // Straight to a worker: the client's
                                // first frame is usually already in
                                // flight, and an empty read just parks
                                // the connection.
                                dispatch(&job_tx, &mut in_flight, id, Conn::new(stream));
                            }
                            AcceptOut::WouldBlock => break,
                            AcceptOut::Failed => {
                                let counter = if is_tcp {
                                    &shared.counters.accept_failures_tcp
                                } else {
                                    &shared.counters.accept_failures_unix
                                };
                                ServeCounters::bump(counter);
                                gate.failure(Instant::now());
                                break;
                            }
                        }
                    }
                }
                Token::Conn(id) => {
                    if slot.ready() {
                        if let Some(conn) = parked.remove(id) {
                            dispatch(&job_tx, &mut in_flight, *id, conn);
                        }
                    }
                }
            }
        }

        // 6. Drain notices for parked connections that have gone quiet
        //    (one read-deadline of grace lets an active client's
        //    in-flight request finish first).
        if draining {
            let now = Instant::now();
            let mut flushed_out: Vec<u64> = Vec::new();
            for (&id, conn) in parked.iter_mut() {
                if conn.notified_draining
                    || now.duration_since(conn.last_progress) < shared.read_timeout
                {
                    continue;
                }
                conn.notified_draining = true;
                conn.close_after_flush = true;
                conn.push_response(&shared, &Response::Draining);
                let _ = conn.flush(&shared);
                if conn.out.is_empty() {
                    flushed_out.push(id);
                }
            }
            for id in flushed_out {
                if let Some(conn) = parked.remove(&id) {
                    close_conn(&shared, conn);
                }
            }
        }
    }

    // Shutdown: closing the job channel ends the workers.
    drop(job_tx);
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(path) = &config.unix {
        let _ = std::fs::remove_file(path);
    }
    shared.freeze(true)
}

/// A worker: takes one connection at a time off the shared queue, runs a
/// turn, hands it back, and nudges the dispatcher. Per-worker scratch
/// buffers (events + read chunk) are reused across every turn. A panic
/// in a turn (an internal bug) costs that connection, never the pool.
fn worker_loop(jobs: &Mutex<mpsc::Receiver<Job>>, ret: &mpsc::Sender<Return>, shared: &Shared) {
    let mut scratch: Vec<BranchEvent> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    loop {
        // Hold the receiver lock only for the blocking take, never
        // during a turn.
        let job = lock_ignore_poison(jobs).recv();
        let Ok(mut job) = job else {
            return;
        };
        let dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_turn(&mut job.conn, shared, &mut scratch, &mut chunk)
        }))
        .unwrap_or(true);
        if ret
            .send(Return {
                id: job.id,
                conn: job.conn,
                dead,
            })
            .is_err()
        {
            return;
        }
        shared.wake();
    }
}

/// One turn on a connection. Returns `true` when the connection is dead
/// (transport error, truncation, or fully flushed close).
fn serve_turn(
    conn: &mut Conn,
    shared: &Shared,
    scratch: &mut Vec<BranchEvent>,
    chunk: &mut [u8],
) -> bool {
    let cap = shared.response_queue.max(1);
    // Flush first: delivered responses free budget for buffered frames.
    if conn.flush(shared).is_err() {
        return true;
    }
    if process_buffered(conn, shared, scratch, cap) {
        return true;
    }
    let mut peer_eof = false;
    while !conn.close_after_flush && conn.out.pending() < cap {
        match conn.stream.read(chunk) {
            Ok(0) => {
                peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_progress = Instant::now();
                conn.decoder.extend(&chunk[..n]);
                if process_buffered(conn, shared, scratch, cap) {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
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
    if conn.flush(shared).is_err() {
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
                            out.push_response(shared, &response.encode());
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
                            }
                            .encode(),
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
                    }
                    .encode(),
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
