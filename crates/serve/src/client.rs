//! A blocking client and deterministic chaos driver for `tpcp-serve`.
//!
//! [`SessionScript`] derives a session's whole workload — event streams,
//! CPIs, query points — from its session id with splitmix64, so two runs
//! of the same session are byte-identical on the wire. That is what makes
//! the chaos suite's core assertion possible: run the same scripts twice,
//! once fault-free and once with transport faults on a subset of
//! sessions, and require the *survivor* sessions' transcripts to match
//! bit for bit.
//!
//! Transport faults (under the `fault-inject` feature) are applied
//! client-side at the frame counter the
//! `FaultPlan` names, keyed by the
//! session label `s<id>` — truncated frames, garbage length prefixes,
//! mid-frame stalls, and abrupt disconnects, each ending the faulted
//! session's connection.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tpcp_trace::{FrameReader, FrameWriter};

use crate::protocol::{QueryKind, Request, Response, WireEvent, WireExtractor};

/// Deterministic per-session workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct SessionScript {
    /// The session id (drives the event stream's seed).
    pub session: u64,
    /// Which extractor the session's classifier runs.
    pub extractor: WireExtractor,
    /// Intervals to classify.
    pub intervals: u64,
    /// Events per interval.
    pub events_per_interval: u64,
    /// Issue the three queries after every `query_every`-th interval
    /// (0 disables queries).
    pub query_every: u64,
}

impl SessionScript {
    /// A script for `session`, cycling the extractor by id so a fleet of
    /// sessions exercises all three back-ends.
    pub fn for_session(session: u64, intervals: u64) -> Self {
        Self {
            session,
            extractor: WireExtractor::ALL[(session % 3) as usize],
            intervals,
            events_per_interval: 24,
            query_every: 4,
        }
    }

    /// The fault-plan label for this session (`s<id>`).
    pub fn label(&self) -> String {
        format!("s{}", self.session)
    }
}

/// splitmix64 — the workspace's standard seedable generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a session observed, for bitwise comparison across runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transcript {
    /// `(phase, transition, intervals)` from every `Classified` response.
    pub classified: Vec<(u64, bool, u64)>,
    /// Every query answer, in issue order.
    pub answers: Vec<(QueryKind, Option<(u64, bool)>)>,
    /// Whether the script ran to its clean `Close` (false when a
    /// transport fault cut the connection).
    pub completed: bool,
}

/// How the driver should terminate a frame it was told to fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportAction {
    /// Send the frame normally.
    Send,
    /// Send only the first `keep` bytes of prefix+payload, then close.
    Truncate(usize),
    /// Send a length prefix declaring an absurd payload, then close.
    GarbagePrefix,
    /// Send half the frame, hold the connection silent, then close.
    Stall,
    /// Close without sending.
    Disconnect,
}

/// A per-frame fault oracle. The fault-free driver uses [`no_faults`].
pub type FaultOracle<'a> = dyn Fn(&str, u64) -> TransportAction + Sync + 'a;

/// The fault-free oracle: every frame is sent normally.
pub fn no_faults(_session: &str, _frame: u64) -> TransportAction {
    TransportAction::Send
}

/// Adapts a built [`FaultInjector`](tpcp_experiments::fault::FaultInjector)
/// into a [`FaultOracle`].
#[cfg(feature = "fault-inject")]
pub fn injector_oracle(
    faults: &tpcp_experiments::fault::FaultInjector,
) -> impl Fn(&str, u64) -> TransportAction + Sync + '_ {
    use tpcp_experiments::fault::TransportFault;
    move |session, frame| match faults.transport_fault(session, frame) {
        None => TransportAction::Send,
        Some(TransportFault::TruncateFrame { keep }) => TransportAction::Truncate(keep),
        Some(TransportFault::GarbagePrefix) => TransportAction::GarbagePrefix,
        Some(TransportFault::StalledRead) => TransportAction::Stall,
        Some(TransportFault::Disconnect) => TransportAction::Disconnect,
    }
}

/// A connected client: frame transport plus a send counter the fault
/// oracle keys on.
struct Connection {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    label: String,
    sent: u64,
    /// How long a stall fault holds the socket silent before closing.
    stall_hold: Duration,
}

/// Outcome of a faulted (or clean) send.
enum SendOutcome {
    Sent,
    /// A fault ended the connection; the session's run is over.
    Cut,
}

impl Connection {
    fn open(addr: SocketAddr, label: String, stall_hold: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // The server runs per-read deadlines; a Nagle-delayed request
        // half must never read as a mid-frame stall.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let write = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(stream),
            writer: FrameWriter::new(write),
            label,
            sent: 0,
            stall_hold,
        })
    }

    /// Sends one request, consulting the oracle at this frame counter.
    fn send(&mut self, request: &Request, oracle: &FaultOracle<'_>) -> io::Result<SendOutcome> {
        let frame = self.sent;
        self.sent += 1;
        let payload = request.encode();
        match oracle(&self.label, frame) {
            TransportAction::Send => {
                self.writer.write_frame(&payload)?;
                Ok(SendOutcome::Sent)
            }
            TransportAction::Truncate(keep) => {
                let mut raw = (payload.len() as u32).to_le_bytes().to_vec();
                raw.extend_from_slice(&payload);
                let keep = keep.min(raw.len());
                self.writer.get_ref().write_all(&raw[..keep])?;
                self.writer.get_ref().flush()?;
                Ok(SendOutcome::Cut)
            }
            TransportAction::GarbagePrefix => {
                self.writer.get_ref().write_all(&u32::MAX.to_le_bytes())?;
                self.writer.get_ref().flush()?;
                Ok(SendOutcome::Cut)
            }
            TransportAction::Stall => {
                let half = (payload.len() / 2).max(1).min(payload.len());
                let mut raw = (payload.len() as u32).to_le_bytes().to_vec();
                raw.extend_from_slice(&payload[..half]);
                self.writer.get_ref().write_all(&raw)?;
                self.writer.get_ref().flush()?;
                // Hold the socket open and silent long enough for the
                // server's read deadline to fire.
                std::thread::sleep(self.stall_hold);
                Ok(SendOutcome::Cut)
            }
            TransportAction::Disconnect => Ok(SendOutcome::Cut),
        }
    }

    fn receive(&mut self) -> io::Result<Response> {
        match self.reader.read_frame() {
            Ok(Some(payload)) => Response::decode(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            )),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }
}

/// Runs one session's script against the server at `addr`, returning its
/// transcript. A transport fault ends the run early with
/// `completed: false`; protocol errors from the server are returned as
/// `io` errors (the chaos suite treats any error frame on a *survivor*
/// session as a failure).
pub fn run_session(
    addr: SocketAddr,
    script: &SessionScript,
    oracle: &FaultOracle<'_>,
    stall_hold: Duration,
) -> io::Result<Transcript> {
    let mut transcript = Transcript::default();
    let mut conn = Connection::open(addr, script.label(), stall_hold)?;
    let mut seed = script.session.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;

    let hello = Request::Hello {
        session: script.session,
        extractor: script.extractor,
    };
    match conn.send(&hello, oracle)? {
        SendOutcome::Cut => return Ok(transcript),
        SendOutcome::Sent => {}
    }
    expect_ok(&mut conn, script.session)?;

    for interval in 0..script.intervals {
        // Deterministic event stream: a handful of hot base addresses per
        // session, revisited in a pattern that changes every interval.
        let mut events = Vec::with_capacity(script.events_per_interval as usize);
        for _ in 0..script.events_per_interval {
            let r = splitmix(&mut seed);
            let base = 0x40_0000 + (r % 7) * 0x8_0000;
            events.push(WireEvent {
                pc: base + (r >> 16) % 0x400,
                insns: 20 + r % 40,
            });
        }
        let events = Request::Events {
            session: script.session,
            events,
        };
        match conn.send(&events, oracle)? {
            SendOutcome::Cut => return Ok(transcript),
            SendOutcome::Sent => {}
        }
        let cpi = 0.8 + ((splitmix(&mut seed) % 400) as f64) / 100.0;
        let end = Request::EndInterval {
            session: script.session,
            cpi,
        };
        match conn.send(&end, oracle)? {
            SendOutcome::Cut => return Ok(transcript),
            SendOutcome::Sent => {}
        }
        match conn.receive()? {
            Response::Classified {
                phase,
                transition,
                intervals,
                ..
            } => transcript.classified.push((phase, transition, intervals)),
            other => return Err(unexpected(&other)),
        }

        if script.query_every > 0 && (interval + 1) % script.query_every == 0 {
            for kind in QueryKind::ALL {
                let query = Request::Query {
                    session: script.session,
                    kind,
                };
                match conn.send(&query, oracle)? {
                    SendOutcome::Cut => return Ok(transcript),
                    SendOutcome::Sent => {}
                }
                match conn.receive()? {
                    Response::Answer { kind, value, .. } => transcript.answers.push((kind, value)),
                    other => return Err(unexpected(&other)),
                }
            }
        }
    }

    let close = Request::Close {
        session: script.session,
    };
    match conn.send(&close, oracle)? {
        SendOutcome::Cut => return Ok(transcript),
        SendOutcome::Sent => {}
    }
    expect_ok(&mut conn, script.session)?;
    transcript.completed = true;
    Ok(transcript)
}

fn expect_ok(conn: &mut Connection, session: u64) -> io::Result<()> {
    match conn.receive()? {
        Response::Ok { session: s } if s == session => Ok(()),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(response: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response: {response:?}"),
    )
}

/// Parameters for a throughput-oriented fleet run (the `serve_fleet`
/// perf lane): many concurrent connections, pipelined intervals, no
/// faults, no queries.
#[derive(Debug, Clone, Copy)]
pub struct FleetScript {
    /// Concurrent connections (one session per connection).
    pub connections: u64,
    /// Intervals classified per session.
    pub intervals: u64,
    /// Events per interval.
    pub events_per_interval: u64,
    /// Intervals kept in flight per connection before reading responses.
    /// Must stay at or below the server's `response_queue` so neither
    /// side deadlocks on backpressure.
    pub pipeline: u64,
    /// Client pumper threads; connections are dealt round-robin.
    pub client_threads: usize,
}

impl FleetScript {
    /// A fleet of `connections` sessions with the perf lane's defaults.
    pub fn new(connections: u64, intervals: u64) -> Self {
        Self {
            connections,
            intervals,
            events_per_interval: 24,
            pipeline: 4,
            client_threads: 8,
        }
    }
}

/// Aggregate of a fleet run. The checksum folds every `Classified`
/// response (keyed by session and sequence, so ordering within a session
/// matters but thread interleaving does not) and must be identical
/// across server configurations for the same script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRun {
    /// Connections driven.
    pub connections: u64,
    /// Total intervals classified.
    pub intervals: u64,
    /// Order-insensitive digest of every classification.
    pub checksum: u64,
}

/// One response folded into the fleet digest: mix the session, the
/// interval's sequence number, and the classification, then XOR into the
/// accumulator (commutative across sessions and threads).
fn fold_classified(
    acc: u64,
    session: u64,
    seq: u64,
    phase: u64,
    transition: bool,
    total: u64,
) -> u64 {
    let mut h = session ^ seq.rotate_left(17);
    h = h
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(phase)
        .wrapping_add(u64::from(transition))
        .wrapping_add(total.rotate_left(31));
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    acc ^ (h ^ (h >> 27))
}

/// Connects with exponential backoff — a 512-connection fleet slamming
/// one listener overflows accept backlogs transiently.
fn connect_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut delay = Duration::from_millis(1);
    for _ in 0..8 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    TcpStream::connect(addr)
}

/// A fleet connection: plain frame transport, no fault machinery.
struct FleetConn {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    session: u64,
    seed: u64,
    sent_intervals: u64,
    read_intervals: u64,
}

impl FleetConn {
    fn open(addr: SocketAddr, session: u64) -> io::Result<Self> {
        let stream = connect_retry(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let write = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(stream),
            writer: FrameWriter::new(write),
            session,
            // Same seed derivation as `run_session`, so the event stream
            // for a given session id is one deterministic thing
            // everywhere.
            seed: session.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed,
            sent_intervals: 0,
            read_intervals: 0,
        })
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        self.writer.write_frame(&request.encode())
    }

    fn receive(&mut self) -> io::Result<Response> {
        match self.reader.read_frame() {
            Ok(Some(payload)) => Response::decode(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            )),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Sends one interval (events + end) without reading the response.
    fn send_interval(&mut self, events_per_interval: u64) -> io::Result<()> {
        let mut events = Vec::with_capacity(events_per_interval as usize);
        for _ in 0..events_per_interval {
            let r = splitmix(&mut self.seed);
            let base = 0x40_0000 + (r % 7) * 0x8_0000;
            events.push(WireEvent {
                pc: base + (r >> 16) % 0x400,
                insns: 20 + r % 40,
            });
        }
        self.send(&Request::Events {
            session: self.session,
            events,
        })?;
        let cpi = 0.8 + ((splitmix(&mut self.seed) % 400) as f64) / 100.0;
        self.send(&Request::EndInterval {
            session: self.session,
            cpi,
        })?;
        self.sent_intervals += 1;
        Ok(())
    }

    /// Reads one `Classified` response and folds it into `acc`.
    fn read_classified(&mut self, acc: &mut u64) -> io::Result<()> {
        match self.receive()? {
            Response::Classified {
                phase,
                transition,
                intervals,
                ..
            } => {
                *acc = fold_classified(
                    *acc,
                    self.session,
                    self.read_intervals,
                    phase,
                    transition,
                    intervals,
                );
                self.read_intervals += 1;
                Ok(())
            }
            other => Err(unexpected(&other)),
        }
    }
}

/// One pumper thread's share of the fleet: opens its connections, then
/// round-robins pipelined intervals across them so many requests are in
/// flight at once. Returns its checksum contribution.
fn pump_fleet(addr: SocketAddr, sessions: &[u64], script: &FleetScript) -> io::Result<u64> {
    let mut conns = Vec::with_capacity(sessions.len());
    for &session in sessions {
        let mut conn = FleetConn::open(addr, session)?;
        conn.send(&Request::Hello {
            session,
            extractor: WireExtractor::ALL[(session % 3) as usize],
        })?;
        conns.push(conn);
    }
    for conn in &mut conns {
        match conn.receive()? {
            Response::Ok { session } if session == conn.session => {}
            other => return Err(unexpected(&other)),
        }
    }

    let mut acc = 0u64;
    let pipeline = script.pipeline.max(1);
    while conns.iter().any(|c| c.read_intervals < script.intervals) {
        for conn in &mut conns {
            let batch = pipeline.min(script.intervals - conn.sent_intervals);
            for _ in 0..batch {
                conn.send_interval(script.events_per_interval)?;
            }
        }
        for conn in &mut conns {
            while conn.read_intervals < conn.sent_intervals {
                conn.read_classified(&mut acc)?;
            }
        }
    }

    for conn in &mut conns {
        conn.send(&Request::Close {
            session: conn.session,
        })?;
    }
    for conn in &mut conns {
        match conn.receive()? {
            Response::Ok { session } if session == conn.session => {}
            other => return Err(unexpected(&other)),
        }
    }
    Ok(acc)
}

/// Drives a [`FleetScript`] against the server at `addr`: `connections`
/// concurrent sessions pumped by `client_threads` threads, each keeping
/// `pipeline` intervals in flight per connection. The returned digest is
/// independent of thread scheduling, so runs against servers with any
/// worker or shard count are directly comparable.
pub fn drive_fleet(addr: SocketAddr, script: &FleetScript) -> io::Result<FleetRun> {
    let threads = script.client_threads.max(1);
    let sessions: Vec<u64> = (1..=script.connections).collect();
    let shares: Vec<Vec<u64>> = (0..threads)
        .map(|t| sessions.iter().skip(t).step_by(threads).copied().collect())
        .collect();
    let mut results: Vec<Option<io::Result<u64>>> = (0..threads).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, share) in results.iter_mut().zip(&shares) {
            scope.spawn(move || {
                *slot = Some(pump_fleet(addr, share, script));
            });
        }
    });

    let mut checksum = 0u64;
    for result in results {
        checksum ^= result.unwrap_or_else(|| Err(io::Error::other("pumper produced no result")))?;
    }
    Ok(FleetRun {
        connections: script.connections,
        intervals: script.connections * script.intervals,
        checksum,
    })
}

/// Drives `sessions` scripts concurrently (one thread per session) and
/// returns each session's result in id order.
pub fn drive_sessions(
    addr: SocketAddr,
    scripts: &[SessionScript],
    oracle: &FaultOracle<'_>,
    stall_hold: Duration,
) -> Vec<io::Result<Transcript>> {
    let mut results: Vec<Option<io::Result<Transcript>>> =
        (0..scripts.len()).map(|_| None).collect();
    // Session threads forward failures through their result slot.
    std::thread::scope(|scope| {
        for (slot, script) in results.iter_mut().zip(scripts) {
            scope.spawn(move || {
                *slot = Some(run_session(addr, script, oracle, stall_hold));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err(io::Error::other("session thread produced no result"))))
        .collect()
}
