//! `serve-replay` and `serve-churn`: an open-loop load generator against
//! a `tpcp-serve` child process, plus the in-process replay of the same
//! frames that the reference transcript and the traced run use.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tpcp_core::BranchEvent;
use tpcp_experiments::{SuiteParams, TraceCache};
use tpcp_serve::{
    decode_request_into, ErrorCode, FastRequest, QueryKind, Request, Response, SessionStore,
    ShardedStore, StoreError, WireEvent, WireExtractor,
};
use tpcp_trace::{wire, FrameReader, FrameWriter, StreamingDecoder};
use tpcp_workloads::BenchmarkKind;

use crate::json::{self, Value};
use crate::spans::Tracer;
use crate::sys;

/// One serve workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Session population.
    pub sessions: u64,
    /// Offered op rate during the measured phase, ops per second.
    pub rate: f64,
    /// Warm-up intervals per session, sent pipelined during set-up.
    pub warm: u64,
    /// Keep every n-th branch of an interval (1 keeps the full stream).
    pub sample_every: usize,
    /// Whether each op ends with `NextPhase` and `RunLength` queries.
    pub queries: bool,
    /// Zipf exponent of session popularity (0 cycles through sessions).
    pub zipf: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// Server `--workers`: one dispatcher plus one pool worker.
pub const SERVER_WORKERS: usize = 1;
/// Server `--shards` (the server's default).
pub const SHARDS: usize = 8;
/// Server `--max-live` (the server's default).
pub const MAX_LIVE: usize = 256;
/// Server `--max-parked`: above serve-churn's population, so nothing is
/// dropped.
pub const MAX_PARKED: usize = 8_192;
/// The p90 latency limit a serve run is flagged against, ms: a
/// classification has to arrive before the next interval ends.
pub const P90_LIMIT_MS: f64 = 1.0;

/// Full-stream intervals from a population that fits the live cap.
pub const REPLAY: Spec = Spec {
    name: "serve-replay",
    sessions: 32,
    rate: 1_000.0,
    warm: 128,
    sample_every: 1,
    queries: false,
    zipf: 0.0,
    setup_repeats: 7,
};

/// Sampled intervals plus queries from a population 16x the live cap.
pub const CHURN: Spec = Spec {
    name: "serve-churn",
    sessions: 4_096,
    rate: 5_000.0,
    warm: 16,
    sample_every: 64,
    queries: true,
    zipf: 0.6,
    setup_repeats: 5,
};

/// An op sent later than this after its due time counts as late, ns.
const LATE_NS: u64 = 250_000;

/// Load-generator threads: the pacing sender and one response reader.
pub const LOADGEN_THREADS: usize = 2;
/// Connections the load generator opens; sessions multiplex over it.
pub const LOADGEN_CONNECTIONS: usize = 1;

/// One interval of one input trace, ready to put on the wire.
#[derive(Debug, Clone)]
struct Interval {
    /// `Events` payload for session 1; other sessions splice their id in.
    events: Vec<u8>,
    cpi: f64,
}

/// The quick-suite traces, cut into wire-ready intervals.
#[derive(Debug)]
pub struct Inputs {
    traces: Vec<Vec<Interval>>,
    /// Time spent simulating traces the cache did not hold, and their
    /// interval count.
    pub sim: (Duration, u64),
}

/// Loads (or simulates) every quick-suite trace and encodes its
/// intervals' `Events` payloads, keeping every `sample_every`-th branch.
/// Traces are built on `nproc` threads; this all happens before set-up.
pub fn build_inputs(
    cache: &TraceCache,
    params: &SuiteParams,
    sample_every: usize,
) -> Result<Inputs, String> {
    let kinds = BenchmarkKind::ALL;
    let workers = sys::nproc().clamp(1, kinds.len());
    let mut built: Vec<(usize, Result<Built, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..kinds.len())
                        .step_by(workers)
                        .map(|k| (k, build_trace(cache, params, kinds[k], sample_every)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![(0, Err("input builder panicked".into()))])
            })
            .collect()
    });
    built.sort_by_key(|(k, _)| *k);
    let mut inputs = Inputs {
        traces: Vec::new(),
        sim: (Duration::ZERO, 0),
    };
    for (_, trace) in built {
        let trace = trace?;
        inputs.sim.0 += trace.sim.0;
        inputs.sim.1 += trace.sim.1;
        inputs.traces.push(trace.intervals);
    }
    Ok(inputs)
}

/// One trace's wire-ready intervals, and the simulation its cache miss
/// cost (zero on a hit).
struct Built {
    intervals: Vec<Interval>,
    sim: (Duration, u64),
}

fn build_trace(
    cache: &TraceCache,
    params: &SuiteParams,
    kind: BenchmarkKind,
    sample_every: usize,
) -> Result<Built, String> {
    let start = Instant::now();
    let load = cache
        .try_load_bytes_or_simulate(kind, params)
        .map_err(|e| e.to_string())?;
    let mut decoder = StreamingDecoder::new(&load.bytes).map_err(|e| e.to_string())?;
    let sim = if load.hit {
        (Duration::ZERO, 0)
    } else {
        (start.elapsed(), decoder.n_intervals())
    };
    let mut intervals = Vec::new();
    while let Some((events, summary)) = decoder
        .next_interval_buffered()
        .map_err(|e| e.to_string())?
    {
        let events: Vec<WireEvent> = events
            .iter()
            .step_by(sample_every)
            .map(|e| WireEvent {
                pc: e.pc,
                insns: u64::from(e.insns),
            })
            .collect();
        intervals.push(Interval {
            events: Request::Events { session: 1, events }.encode(),
            cpi: summary.cpi(),
        });
    }
    if intervals.is_empty() {
        return Err(format!("trace {} has no intervals", kind.label()));
    }
    Ok(Built { intervals, sim })
}

/// Writes the `Events` payload of `session` by splicing its id into the
/// session-1 template: a payload is a tag byte, the session id as a
/// varint, then the body.
fn events_payload(template: &[u8], session: u64, out: &mut Vec<u8>) {
    debug_assert_eq!(template[1], 1, "template encodes session 1");
    out.clear();
    out.push(template[0]);
    wire::put_varint(out, session);
    out.extend_from_slice(&template[2..]);
}

/// A SplitMix64 stream: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One session of the population.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SessionPlan {
    id: u64,
    trace: usize,
    extractor: WireExtractor,
}

/// One op: a `Hello`, or the next interval of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    session: u32,
    /// Interval index in the session's trace; `u32::MAX` marks a `Hello`.
    interval: u32,
}

impl Op {
    fn is_hello(self) -> bool {
        self.interval == u32::MAX
    }
}

/// A seeded run plan: population, set-up ops and measured ops.
#[derive(Debug)]
pub struct Plan {
    spec: Spec,
    sessions: Vec<SessionPlan>,
    /// Hellos, then `warm` pipelined intervals per session.
    pub setup: Vec<Op>,
    /// The open-loop ops, one due every `1 / rate` seconds.
    pub measured: Vec<Op>,
}

impl Plan {
    /// Draws the population and the op sequence from `seed`.
    pub fn new(spec: Spec, inputs: &Inputs, seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5e55_1095);
        let n = spec.sessions as usize;
        let sessions: Vec<SessionPlan> = (0..n)
            .map(|i| SessionPlan {
                id: i as u64 + 1,
                // Every (trace, extractor) pair in turn, so the mix of
                // work is the same for every seed.
                trace: i % inputs.traces.len(),
                extractor: WireExtractor::ALL[i % WireExtractor::ALL.len()],
            })
            .collect();
        let mut cursor: Vec<u32> = sessions
            .iter()
            .map(|s| rng.below(inputs.traces[s.trace].len() as u64) as u32)
            .collect();
        let mut next = |i: usize| {
            let len = inputs.traces[sessions[i].trace].len() as u32;
            let interval = cursor[i];
            cursor[i] = (interval + 1) % len;
            Op {
                session: i as u32,
                interval,
            }
        };
        let mut setup: Vec<Op> = (0..n)
            .map(|i| Op {
                session: i as u32,
                interval: u32::MAX,
            })
            .collect();
        for _ in 0..spec.warm {
            for i in 0..n {
                setup.push(next(i));
            }
        }
        // Skewed popularity: rank r is drawn with weight 1 / (r + 1)^zipf,
        // and ranks map to sessions through a seeded shuffle.
        let mut by_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            by_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(spec.zipf);
            cdf.push(total);
        }
        let count = (spec.rate * seconds).round().max(1.0) as usize;
        let measured = (0..count)
            .map(|k| {
                let i = if spec.zipf == 0.0 {
                    k % n
                } else {
                    let x = rng.unit() * total;
                    by_rank[cdf.partition_point(|&c| c <= x).min(n - 1)]
                };
                next(i)
            })
            .collect();
        Self {
            spec,
            sessions,
            setup,
            measured,
        }
    }

    /// Responses the server sends for `op`.
    fn responses(&self, op: Op) -> usize {
        match (op.is_hello(), self.spec.queries) {
            (true, _) => 1,
            (false, false) => 1,
            (false, true) => 3,
        }
    }

    /// Calls `f` with each request payload of `op`, in send order.
    pub fn payloads(
        &self,
        inputs: &Inputs,
        op: Op,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(&[u8]),
    ) {
        let s = self.sessions[op.session as usize];
        if op.is_hello() {
            f(&Request::Hello {
                session: s.id,
                extractor: s.extractor,
            }
            .encode());
            return;
        }
        let interval = &inputs.traces[s.trace][op.interval as usize];
        events_payload(&interval.events, s.id, scratch);
        f(scratch);
        f(&Request::EndInterval {
            session: s.id,
            cpi: interval.cpi,
        }
        .encode());
        if self.spec.queries {
            for kind in [QueryKind::NextPhase, QueryKind::RunLength] {
                f(&Request::Query {
                    session: s.id,
                    kind,
                }
                .encode());
            }
        }
    }

    /// Appends `op`'s requests to `out` as length-prefixed frames.
    fn write_frames(&self, inputs: &Inputs, op: Op, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
        let mut writer = FrameWriter::new(out);
        self.payloads(inputs, op, scratch, &mut |p| {
            writer.write_frame(p).expect("writing to a Vec cannot fail");
        });
    }
}

/// Counters the in-process replay keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCounts {
    /// Frames decoded.
    pub frames: u64,
    /// Payload bytes decoded.
    pub bytes: u64,
    /// Events decoded and observed.
    pub events: u64,
    /// `open` plus `touch` calls on the store.
    pub touches: u64,
    /// Intervals classified.
    pub intervals: u64,
    /// Of those, intervals in the transition phase.
    pub transitions: u64,
    /// Queries answered.
    pub queries: u64,
    /// Frames whose handling failed (decode or store error).
    pub failures: u64,
}

impl ReplayCounts {
    /// What was counted after `before` was taken.
    pub fn since(self, before: Self) -> Self {
        Self {
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
            events: self.events - before.events,
            touches: self.touches - before.touches,
            intervals: self.intervals - before.intervals,
            transitions: self.transitions - before.transitions,
            queries: self.queries - before.queries,
            failures: self.failures - before.failures,
        }
    }
}

/// The request path of one server, run in-process: decode, store, session
/// work, encode. Sessions route to shards exactly as the server's
/// [`ShardedStore`] routes them.
pub struct Replay {
    router: ShardedStore,
    shards: Vec<SessionStore>,
    scratch: Vec<BranchEvent>,
    /// What the replay has done so far.
    pub counts: ReplayCounts,
}

impl Replay {
    /// A replay with `shards` stores, each capped like one server shard
    /// of a server with these totals.
    pub fn new(shards: usize, max_live: usize, max_parked: usize) -> Self {
        let shards = shards.max(1);
        Self {
            router: ShardedStore::new(shards, max_live, max_parked),
            shards: (0..shards)
                .map(|_| SessionStore::new(max_live.div_ceil(shards), max_parked.div_ceil(shards)))
                .collect(),
            scratch: Vec::new(),
            counts: ReplayCounts::default(),
        }
    }

    /// A replay shaped like the benchmark's server.
    pub fn like_server() -> Self {
        Self::new(SHARDS, MAX_LIVE, MAX_PARKED)
    }

    /// A replay whose single store never evicts: the reference.
    pub fn reference(sessions: u64) -> Self {
        Self::new(1, sessions as usize + 1, 1)
    }

    /// Summed store counters: `(restores, evictions, parked_drops)`.
    pub fn store_counters(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |(r, e, d), s| {
            let c = s.counters();
            (r + c.restores, e + c.evictions, d + c.parked_drops)
        })
    }

    /// Handles one request payload and returns the encoded response, if
    /// the request has one, exactly as the server's request path answers
    /// the requests this benchmark sends. Spans go to `tr` when tracing.
    pub fn frame(
        &mut self,
        payload: &[u8],
        op: u64,
        mut tr: Option<&mut Tracer>,
    ) -> Option<Vec<u8>> {
        macro_rules! span {
            ($name:expr, $body:expr) => {{
                let id = tr.as_deref_mut().map(|t| t.enter($name, op));
                let out = $body;
                if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
                    t.exit(id);
                }
                out
            }};
        }
        self.counts.frames += 1;
        self.counts.bytes += payload.len() as u64;
        let request = span!(
            "wire.decode",
            decode_request_into(payload, &mut self.scratch)
        );
        let request = match request {
            Ok(request) => request,
            Err(failure) => {
                self.counts.failures += 1;
                let response = Response::Error {
                    session: failure.session,
                    code: failure.code,
                    detail: failure.error.to_string(),
                };
                return Some(span!("wire.encode", response.encode()));
            }
        };
        let session = request_session(&request);
        let shard = &mut self.shards[self.router.shard_index(session)];
        self.counts.touches += 1;
        let result: Result<Option<Response>, StoreError> = match request {
            FastRequest::Hello { extractor, .. } => {
                span!("store.touch", shard.open(session, extractor))
                    .map(|()| Some(Response::Ok { session }))
            }
            FastRequest::Events { .. } => match span!("store.touch", shard.touch(session)) {
                Ok(live) => {
                    self.counts.events += self.scratch.len() as u64;
                    span!("accumulate", live.observe_batch(&self.scratch));
                    // Fire-and-forget: the interval boundary acknowledges it.
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            FastRequest::EndInterval { cpi, .. } => {
                match span!("store.touch", shard.touch(session)) {
                    Ok(live) => {
                        let c = span!("classify", live.end_interval(cpi));
                        self.counts.intervals += 1;
                        self.counts.transitions += u64::from(c.transition);
                        Ok(Some(Response::Classified {
                            session,
                            phase: c.phase,
                            transition: c.transition,
                            intervals: c.intervals,
                        }))
                    }
                    Err(e) => Err(e),
                }
            }
            FastRequest::Query { kind, .. } => match span!("store.touch", shard.touch(session)) {
                Ok(live) => {
                    let value = span!("query", live.query(kind));
                    self.counts.queries += 1;
                    Ok(Some(Response::Answer {
                        session,
                        kind,
                        value,
                    }))
                }
                Err(e) => Err(e),
            },
            FastRequest::Close { .. } => shard
                .close(session)
                .map(|()| Some(Response::Ok { session })),
        };
        // The benchmark's frames never provoke a store error; one is
        // counted, and its error frame cannot match the reference.
        let response = result.unwrap_or_else(|e| {
            self.counts.failures += 1;
            Some(Response::Error {
                session,
                code: ErrorCode::UnknownSession,
                detail: format!("{e:?}"),
            })
        });
        response.map(|r| span!("wire.encode", r.encode()))
    }
}

fn request_session(request: &FastRequest) -> u64 {
    match *request {
        FastRequest::Hello { session, .. }
        | FastRequest::Events { session }
        | FastRequest::EndInterval { session, .. }
        | FastRequest::Query { session, .. }
        | FastRequest::Close { session } => session,
    }
}

/// Expected response payloads for the set-up ops and then the measured
/// ops, from a store large enough never to evict.
pub fn reference(plan: &Plan, inputs: &Inputs) -> Vec<Vec<u8>> {
    let mut replay = Replay::reference(plan.spec.sessions);
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    for &op in plan.setup.iter().chain(&plan.measured) {
        plan.payloads(inputs, op, &mut scratch, &mut |p| {
            out.extend(replay.frame(p, 0, None));
        });
    }
    out
}

/// What the load generator saw for one sequence of ops.
#[derive(Debug, Default)]
pub struct Drive {
    /// When each op's last response arrived (`None`: never).
    pub done: Vec<Option<Instant>>,
    /// Whether each op's responses all equalled the reference.
    pub ok: Vec<bool>,
    /// How late each op was sent after its due time, ns.
    pub late_ns: Vec<u64>,
    /// Server CPU time read at the start of each window and once after
    /// the last response, ns.
    pub cpu_ns: Vec<u64>,
}

/// Open-loop pacing: op k is due at `start + k / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// When op 0 is due.
    pub start: Instant,
    /// Ops per second.
    pub rate: f64,
    /// Ops per measurement window.
    pub window: usize,
    /// The server whose CPU time is read at each window boundary.
    pub server: u32,
}

impl Pace {
    fn due(&self, k: usize) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }
}

/// Sends `ops` over `stream` and reads their responses on a second
/// thread. With `pace`, the pacer spins until each op is due and sends it
/// then (or at once when behind); without, ops go out back to back in
/// 64 KiB writes.
///
/// The pacer spins rather than sleeps: it runs on the load generator's
/// own CPU (see [`run_server`]), and a sleeping thread on an idle vCPU
/// is woken late by the hypervisor, by milliseconds on a busy host, and
/// that lateness would land in every op's latency.
pub fn drive(
    stream: &TcpStream,
    plan: &Plan,
    inputs: &Inputs,
    ops: &[Op],
    expected: &[Vec<u8>],
    pace: Option<Pace>,
) -> Result<Drive, String> {
    let mut reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let counts: Vec<usize> = ops.iter().map(|&op| plan.responses(op)).collect();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut reader = FrameReader::new(&mut reader_stream);
            let mut done = vec![None; counts.len()];
            let mut ok = vec![false; counts.len()];
            let mut next = 0usize;
            'ops: for (i, &n) in counts.iter().enumerate() {
                let mut same = true;
                for _ in 0..n {
                    match reader.read_frame() {
                        Ok(Some(payload)) => {
                            same &= expected.get(next).is_some_and(|e| e.as_slice() == payload);
                            next += 1;
                        }
                        _ => break 'ops,
                    }
                }
                done[i] = Some(Instant::now());
                ok[i] = same;
            }
            (done, ok)
        });
        let mut late_ns = vec![0u64; ops.len()];
        let mut cpu_ns = Vec::new();
        let mut out = Vec::with_capacity(1 << 17);
        let mut scratch = Vec::new();
        let mut sent = Ok(());
        for (k, &op) in ops.iter().enumerate() {
            if let Some(pace) = pace {
                if k % pace.window.max(1) == 0 {
                    cpu_ns.push(sys::task_cpu_ns(pace.server).unwrap_or(0));
                }
                let due = pace.due(k);
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                late_ns[k] = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            }
            plan.write_frames(inputs, op, &mut scratch, &mut out);
            if pace.is_some() || out.len() >= 1 << 16 || k + 1 == ops.len() {
                sent = writer.write_all(&out);
                out.clear();
                if sent.is_err() {
                    break;
                }
            }
        }
        let (done, ok) = reader
            .join()
            .map_err(|_| "response reader panicked".to_owned())?;
        sent.map_err(|e| format!("send failed: {e}"))?;
        if let Some(pace) = pace {
            cpu_ns.push(sys::task_cpu_ns(pace.server).unwrap_or(0));
        }
        Ok(Drive {
            done,
            ok,
            late_ns,
            cpu_ns,
        })
    })
}

/// A running `tpcp-serve` child process.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    telemetry: PathBuf,
    /// The child's stderr, kept open so its drain messages never hit a
    /// closed pipe.
    stderr: std::io::Lines<BufReader<std::process::ChildStderr>>,
}

impl Server {
    /// Starts the server and waits until it listens.
    pub fn spawn(bin: &Path, telemetry: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_file(&telemetry);
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--max-live", &MAX_LIVE.to_string()])
            .args(["--max-parked", &MAX_PARKED.to_string()])
            .args(["--drain-deadline-ms", "5000"])
            .arg("--telemetry")
            .arg(&telemetry)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = lines.find_map(|line| {
            line.ok()?
                .strip_prefix("# tpcp-serve listening on tcp ")?
                .trim()
                .parse::<SocketAddr>()
                .ok()
        });
        let mut server = Self {
            child,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            telemetry,
            stderr: lines,
        };
        server.addr = addr.ok_or("tpcp-serve exited before it listened")?;
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens the load generator's connection.
    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Drains the server with SIGTERM, waits for it, and returns its
    /// final telemetry document.
    pub fn stop(mut self) -> Result<Value, String> {
        sys::sigterm(self.child.id());
        let said: Vec<String> = self.stderr.by_ref().map_while(Result::ok).collect();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!(
                "tpcp-serve exited with {status}: {}",
                said.join(" | ")
            ));
        }
        let text = std::fs::read_to_string(&self.telemetry).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&self.telemetry);
        json::parse(&text)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server stopped by `stop` has been waited for; this only reaps
        // one abandoned on an error path.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Closes the load generator's connection so the server drains at once.
pub fn hang_up(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
}

/// Counters of the measured phase, read from the server's telemetry by
/// name; `None` marks a counter the server did not report.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounters {
    /// Client frames read.
    pub frames_read: Option<f64>,
    /// Server frames written.
    pub frames_written: Option<f64>,
    /// Frames answered with a decode error.
    pub malformed: Option<f64>,
    /// Parked sessions dropped.
    pub parked_drops: Option<f64>,
    /// Live sessions parked.
    pub evictions: Option<f64>,
    /// Parked sessions restored.
    pub restores: Option<f64>,
}

impl ServerCounters {
    /// Reads the counters from a telemetry document.
    pub fn read(telemetry: &Value) -> Self {
        Self {
            frames_read: telemetry.num("frames_read"),
            frames_written: telemetry.num("frames_written"),
            malformed: telemetry.num("malformed_frames"),
            parked_drops: telemetry.num("sessions.parked_drops"),
            evictions: telemetry.num("sessions.evictions"),
            restores: telemetry.num("sessions.restores"),
        }
    }
}

/// The measured phase of one server run.
#[derive(Debug)]
pub struct Measured {
    /// Per-op latency from due time to last response, ms (infinite for a
    /// failed op).
    pub latency_ms: Vec<f64>,
    /// Ops answered and matching the reference.
    pub ok: u64,
    /// From the first due time to the last response, s.
    pub window_s: f64,
    /// Ops per measurement window.
    pub window: usize,
    /// Server CPU time at each window boundary, ns.
    pub cpu_ns: Vec<u64>,
    /// Server `VmHWM` at the end of the phase, kB.
    pub server_hwm_kb: u64,
    /// Send lateness per op, ns.
    pub late_ns: Vec<u64>,
    /// Final server telemetry.
    pub counters: ServerCounters,
}

/// Set-up times of every repetition plus the measured phase.
#[derive(Debug)]
pub struct ServerRun {
    /// Seconds from server launch to the last warm-up response.
    pub setup_s: Vec<f64>,
    /// Set-up ops that failed across repetitions.
    pub setup_failed: u64,
    /// Set-up ops sent across repetitions.
    pub setup_ops: u64,
    /// The measured phase.
    pub measured: Measured,
}

/// Launches the server `repeats` times, each time opening and warming
/// every session with pipelined frames; the last server then takes the
/// open-loop measured phase. With two or more CPUs allowed, the server
/// is pinned to the second and the load generator to the first, so the
/// scheduler places the four busy threads the same way on every run.
pub fn run_server(
    bin: &Path,
    work: &Path,
    plan: &Plan,
    inputs: &Inputs,
    expected: &[Vec<u8>],
    repeats: usize,
) -> Result<ServerRun, String> {
    let cpus = sys::allowed_cpus();
    let run = run_server_pinned(bin, work, plan, inputs, expected, repeats, &cpus);
    sys::pin_thread(&cpus);
    run
}

fn run_server_pinned(
    bin: &Path,
    work: &Path,
    plan: &Plan,
    inputs: &Inputs,
    expected: &[Vec<u8>],
    repeats: usize,
    cpus: &[usize],
) -> Result<ServerRun, String> {
    let pinned = cpus.len() >= 2;
    let setup_expected: usize = plan.setup.iter().map(|&op| plan.responses(op)).sum();
    let mut setup_s = Vec::new();
    let mut setup_failed = 0;
    let mut setup_ops = 0;
    for rep in 0..repeats.max(1) {
        let start = Instant::now();
        if pinned {
            sys::pin_thread(&cpus[1..2]);
        }
        let server = Server::spawn(bin, work.join(format!("telemetry-{rep}.json")));
        if pinned {
            sys::pin_thread(&cpus[..1]);
        }
        let server = server?;
        let stream = server.connect()?;
        let warm = drive(
            &stream,
            plan,
            inputs,
            &plan.setup,
            &expected[..setup_expected],
            None,
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_ops += plan.setup.len() as u64;
        setup_failed += warm.ok.iter().filter(|&&ok| !ok).count() as u64;
        if rep + 1 < repeats.max(1) {
            hang_up(stream);
            server.stop()?;
            continue;
        }
        let pid = server.pid();
        sys::task_cpu_ns(pid).ok_or("cannot read server CPU time")?;
        let pace = Pace {
            start: Instant::now() + Duration::from_millis(5),
            rate: plan.spec.rate,
            window: plan.spec.rate.round() as usize,
            server: pid,
        };
        let run = drive(
            &stream,
            plan,
            inputs,
            &plan.measured,
            &expected[setup_expected..],
            Some(pace),
        )?;
        let start = pace.start;
        let server_hwm_kb = sys::vm_hwm_kb(Some(pid)).ok_or("cannot read server VmHWM")?;
        hang_up(stream);
        let telemetry = server.stop()?;
        let latency_ms: Vec<f64> = run
            .done
            .iter()
            .zip(&run.ok)
            .enumerate()
            .map(|(k, (done, &ok))| match done {
                Some(t) if ok => t.saturating_duration_since(pace.due(k)).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect();
        let last = run.done.iter().flatten().max().copied().unwrap_or(start);
        return Ok(ServerRun {
            setup_s,
            setup_failed,
            setup_ops,
            measured: Measured {
                ok: run.ok.iter().filter(|&&ok| ok).count() as u64,
                latency_ms,
                window_s: last.saturating_duration_since(start).as_secs_f64(),
                window: pace.window,
                cpu_ns: run.cpu_ns,
                server_hwm_kb,
                late_ns: run.late_ns,
                counters: ServerCounters::read(&telemetry),
            },
        });
    }
    unreachable!("the last repetition returns")
}

/// One measurement window's op latency p50 and p90 (ms) and server CPU
/// per op (ms).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Median op latency.
    pub p50: f64,
    /// 90th-percentile op latency.
    pub p90: f64,
    /// Server CPU per op.
    pub cpu_ms: f64,
}

impl Measured {
    /// Splits the phase into its windows of `window` consecutive ops.
    pub fn windows(&self) -> Vec<Window> {
        self.latency_ms
            .chunks(self.window.max(1))
            .zip(self.cpu_ns.windows(2))
            .map(|(lat, cpu)| {
                let mut sorted = lat.to_vec();
                sorted.sort_by(f64::total_cmp);
                Window {
                    p50: crate::stats::percentile(&sorted, 50.0),
                    p90: crate::stats::percentile(&sorted, 90.0),
                    cpu_ms: cpu[1].saturating_sub(cpu[0]) as f64 / 1e6 / lat.len() as f64,
                }
            })
            .collect()
    }
}

/// Lateness summary: `(max ms, share of ops later than LATE_NS)`.
pub fn lateness(late_ns: &[u64]) -> (f64, f64) {
    let max = late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6;
    let late = late_ns.iter().filter(|&&l| l > LATE_NS).count();
    (max, late as f64 / late_ns.len().max(1) as f64)
}

/// One in-process replay: the measured ops' wall time, whether every
/// response matched the reference, and what the measured ops did.
#[derive(Debug, Clone, Copy)]
pub struct InProcess {
    /// Wall time of the measured ops.
    pub time: Duration,
    /// Whether every response, set-up ones included, matched.
    pub same: bool,
    /// Counters of the measured ops only.
    pub counts: ReplayCounts,
    /// Restores during the measured ops.
    pub restores: u64,
    /// Evictions during the measured ops.
    pub evictions: u64,
}

/// Replays the set-up ops (untimed) and then the measured ops through
/// `replay`. Spans are recorded when `tr` is set; measured op k gets op
/// id k + 1.
pub fn replay_in_process(
    plan: &Plan,
    inputs: &Inputs,
    expected: &[Vec<u8>],
    replay: &mut Replay,
    mut tr: Option<&mut Tracer>,
) -> InProcess {
    let mut scratch = Vec::new();
    let mut next = 0usize;
    let mut same = true;
    let mut check = |response: Option<Vec<u8>>| {
        if let Some(r) = response {
            same &= expected.get(next) == Some(&r);
            next += 1;
        }
    };
    for &op in &plan.setup {
        plan.payloads(inputs, op, &mut scratch, &mut |p| {
            check(replay.frame(p, 0, None))
        });
    }
    let counts = replay.counts;
    let (restores, evictions, _) = replay.store_counters();
    let start = Instant::now();
    for (k, &op) in plan.measured.iter().enumerate() {
        let id = k as u64 + 1;
        let root = tr.as_deref_mut().map(|t| t.enter("serve.op", id));
        plan.payloads(inputs, op, &mut scratch, &mut |p| {
            check(replay.frame(p, id, tr.as_deref_mut()))
        });
        if let (Some(t), Some(root)) = (tr.as_deref_mut(), root) {
            t.exit(root);
        }
    }
    let time = start.elapsed();
    let after = replay.store_counters();
    InProcess {
        time,
        same,
        counts: replay.counts.since(counts),
        restores: after.0 - restores,
        evictions: after.1 - evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_inputs() -> Inputs {
        let interval = |pcs: &[u64], cpi: f64| {
            let events: Vec<WireEvent> = pcs.iter().map(|&pc| WireEvent { pc, insns: 7 }).collect();
            Interval {
                events: Request::Events { session: 1, events }.encode(),
                cpi,
            }
        };
        Inputs {
            traces: vec![
                vec![interval(&[0x400, 0x480], 1.0), interval(&[0x900], 2.0)],
                vec![interval(&[0x1000, 0x1040, 0x1000], 0.5)],
            ],
            sim: (Duration::ZERO, 0),
        }
    }

    fn frames(plan: &Plan, inputs: &Inputs) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for &op in plan.setup.iter().chain(&plan.measured) {
            plan.payloads(inputs, op, &mut scratch, &mut |p| out.push(p.to_vec()));
        }
        out
    }

    #[test]
    fn same_seed_gives_the_same_frames() {
        let inputs = tiny_inputs();
        let spec = Spec {
            sessions: 300,
            rate: 1_000.0,
            warm: 2,
            ..CHURN
        };
        let a = frames(&Plan::new(spec, &inputs, 7, 0.5), &inputs);
        let b = frames(&Plan::new(spec, &inputs, 7, 0.5), &inputs);
        let c = frames(&Plan::new(spec, &inputs, 8, 0.5), &inputs);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // 300 hellos, 2 warm intervals of 4 frames each, 500 ops of 4.
        assert_eq!(a.len(), 300 + 300 * 2 * 4 + 500 * 4);
    }

    #[test]
    fn spliced_events_payload_equals_the_protocol_encoding() {
        let events = vec![
            WireEvent {
                pc: 0x4000,
                insns: 3,
            },
            WireEvent {
                pc: 0x3ff0,
                insns: 9,
            },
        ];
        let template = Request::Events {
            session: 1,
            events: events.clone(),
        }
        .encode();
        let mut out = Vec::new();
        for session in [1, 127, 128, 300, 1 << 40] {
            events_payload(&template, session, &mut out);
            assert_eq!(
                out,
                Request::Events {
                    session,
                    events: events.clone()
                }
                .encode()
            );
        }
    }

    #[test]
    fn skewed_popularity_still_touches_many_sessions() {
        let inputs = tiny_inputs();
        let spec = Spec {
            sessions: 1_000,
            rate: 10_000.0,
            ..CHURN
        };
        let plan = Plan::new(spec, &inputs, 1, 1.0);
        let mut hits = vec![0u32; 1_000];
        for op in &plan.measured {
            hits[op.session as usize] += 1;
        }
        let touched = hits.iter().filter(|&&h| h > 0).count();
        let top = *hits.iter().max().unwrap();
        assert!(touched > 500, "only {touched} sessions touched");
        assert!(
            top > 10 * 10_000 / 1_000,
            "hottest session only got {top} ops"
        );
    }

    #[test]
    fn reference_answers_every_interval_and_query() {
        let inputs = tiny_inputs();
        let spec = Spec {
            sessions: 5,
            rate: 100.0,
            warm: 3,
            ..CHURN
        };
        let plan = Plan::new(spec, &inputs, 3, 0.2);
        let expected = reference(&plan, &inputs);
        assert_eq!(expected.len(), 5 + (5 * 3 + 20) * 3);
        // A store capped at one live session per shard answers the same.
        let mut small = Replay::new(2, 2, 64);
        assert!(replay_in_process(&plan, &inputs, &expected, &mut small, None).same);
        assert!(
            small.store_counters().0 > 0,
            "the small store restored nothing"
        );
        assert_eq!(small.counts.failures, 0);
    }
}
