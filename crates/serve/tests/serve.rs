//! End-to-end tests for `tpcp-serve`: protocol round-trips over real
//! sockets, malformed-frame tolerance, backpressure isolation, graceful
//! drain, and (under `fault-inject`) the transport chaos suite pinning
//! survivor sessions bit-identical to a fault-free run.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tpcp_serve::client::{drive_sessions, no_faults, run_session, SessionScript, TransportAction};
use tpcp_serve::protocol::{QueryKind, Request, Response, WireExtractor};
use tpcp_serve::server::{ServeConfig, Server, ServerHandle};
use tpcp_trace::{FrameReader, FrameWriter};

/// Small timeouts so failure-path tests finish in milliseconds, with an
/// idle window generous enough that healthy clients never trip it.
fn quick_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(25),
        idle_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

fn spawn(config: ServeConfig) -> (ServerHandle, SocketAddr) {
    let handle = Server::spawn(config).expect("bind on loopback");
    let addr = handle.tcp_addr().expect("tcp listener configured");
    (handle, addr)
}

/// Time a stall fault holds its socket silent — must out-wait the
/// server's 25ms read tick by a wide margin.
const STALL_HOLD: Duration = Duration::from_millis(200);

/// A raw frame-level client for tests that need to misbehave on purpose.
struct TestClient {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
}

impl TestClient {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set client read timeout");
        let write = stream.try_clone().expect("clone stream for writing");
        Self {
            reader: FrameReader::new(stream),
            writer: FrameWriter::new(write),
        }
    }

    fn send(&mut self, request: &Request) {
        self.writer
            .write_frame(&request.encode())
            .expect("write request frame");
    }

    fn send_raw(&mut self, payload: &[u8]) {
        self.writer.write_frame(payload).expect("write raw frame");
    }

    fn recv(&mut self) -> Response {
        let payload = self
            .reader
            .read_frame()
            .expect("read response frame")
            .expect("server closed unexpectedly");
        Response::decode(payload).expect("decode response")
    }
}

#[test]
fn identical_scripts_produce_bitwise_identical_transcripts() {
    let scripts: Vec<SessionScript> = (1..=6).map(|s| SessionScript::for_session(s, 8)).collect();

    let mut runs = Vec::new();
    for _ in 0..2 {
        let (handle, addr) = spawn(quick_config());
        let transcripts: Vec<_> = drive_sessions(addr, &scripts, &no_faults, STALL_HOLD)
            .into_iter()
            .map(|r| r.expect("fault-free session must succeed"))
            .collect();
        let telemetry = handle.join();
        assert!(telemetry.drained);
        assert_eq!(telemetry.connections, scripts.len() as u64);
        runs.push(transcripts);
    }

    for (script, (a, b)) in scripts.iter().zip(runs[0].iter().zip(&runs[1])) {
        assert!(a.completed, "session {} did not complete", script.session);
        assert_eq!(
            a.classified.len(),
            script.intervals as usize,
            "one Classified per interval"
        );
        assert_eq!(a, b, "session {} diverged across runs", script.session);
    }
}

#[test]
fn malformed_frame_gets_error_response_and_connection_survives() {
    let (handle, addr) = spawn(quick_config());
    let mut client = TestClient::connect(addr);

    // A well-formed frame whose payload is garbage: structured error,
    // stream stays frame-aligned, connection stays up.
    client.send_raw(&[0xee, 0xee, 0xee]);
    match client.recv() {
        Response::Error { .. } => {}
        other => panic!("expected an error response, got {other:?}"),
    }

    // The same connection still serves real sessions.
    client.send(&Request::Hello {
        session: 7,
        extractor: WireExtractor::Bbv,
    });
    assert!(matches!(client.recv(), Response::Ok { session: 7 }));
    client.send(&Request::EndInterval {
        session: 7,
        cpi: 1.25,
    });
    assert!(matches!(
        client.recv(),
        Response::Classified {
            session: 7,
            intervals: 1,
            ..
        }
    ));

    let telemetry = handle.join();
    assert_eq!(telemetry.malformed_frames, 1);
    assert_eq!(telemetry.intervals, 1);
}

#[test]
fn oversized_frame_is_answered_then_connection_closes() {
    let (handle, addr) = spawn(quick_config());
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut write = stream.try_clone().expect("clone stream");
    // A length prefix declaring far more than FRAME_MAX.
    write
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send garbage prefix");
    write.flush().expect("flush");

    let mut reader = FrameReader::new(stream);
    let payload = reader
        .read_frame()
        .expect("server answers before closing")
        .expect("error frame expected");
    match Response::decode(payload).expect("decode error response") {
        Response::Error { detail, .. } => assert!(detail.contains("declared frame length")),
        other => panic!("expected oversized error, got {other:?}"),
    }
    // Then EOF: the stream offset was unrecoverable.
    assert!(matches!(reader.read_frame(), Ok(None)));

    let telemetry = handle.join();
    assert_eq!(telemetry.oversized_frames, 1);
}

#[test]
fn slow_reader_does_not_stall_sibling_sessions() {
    let mut config = quick_config();
    config.response_queue = 4;
    let (handle, addr) = spawn(config);

    // The laggard: floods interval requests without reading a single
    // response, so its bounded queue fills and *its* reader blocks.
    let mut laggard = TestClient::connect(addr);
    laggard.send(&Request::Hello {
        session: 100,
        extractor: WireExtractor::WorkingSet,
    });
    assert!(matches!(laggard.recv(), Response::Ok { session: 100 }));
    const FLOOD: u64 = 200;
    for i in 0..FLOOD {
        laggard.send(&Request::EndInterval {
            session: 100,
            cpi: 1.0 + (i as f64) / 100.0,
        });
    }

    // A healthy sibling must run to completion while the laggard's
    // responses are still queued.
    let script = SessionScript::for_session(101, 8);
    let transcript =
        run_session(addr, &script, &no_faults, STALL_HOLD).expect("sibling session succeeds");
    assert!(transcript.completed);

    // The laggard's responses were never lost — they all arrive, in
    // order, once it finally reads.
    for i in 0..FLOOD {
        match laggard.recv() {
            Response::Classified {
                session: 100,
                intervals,
                ..
            } => assert_eq!(intervals, i + 1),
            other => panic!("expected Classified #{i}, got {other:?}"),
        }
    }

    let telemetry = handle.join();
    assert_eq!(telemetry.intervals, FLOOD + 8);
}

/// A client that keeps its pipeline full and reads every response always
/// leaves complete frames buffered. It must not hold its worker: at one
/// worker, a sibling session still completes and drain still finishes by
/// its deadline.
#[test]
fn pipelining_client_cannot_hold_a_single_worker() {
    let mut config = quick_config();
    config.workers = 1;
    // A deep queue lets one turn serve many frames, so turns that ran
    // back to back while frames stay buffered would hold the worker long.
    config.response_queue = 256;
    config.drain_deadline = Duration::from_millis(200);
    let (handle, addr) = spawn(config);

    let mut hog = TestClient::connect(addr);
    hog.send(&Request::Hello {
        session: 300,
        extractor: WireExtractor::WorkingSet,
    });
    assert!(matches!(hog.recv(), Response::Ok { session: 300 }));
    // 64 pipelined `EndInterval`s per write, as fast as the server takes
    // them, and responses read through a buffer: the client outpaces the
    // server both ways, so complete frames are always buffered. The time
    // cap only keeps a regression from hanging the suite.
    let end = Request::EndInterval {
        session: 300,
        cpi: 1.0,
    }
    .encode();
    let mut batch = FrameWriter::new(Vec::new());
    for _ in 0..64 {
        batch.write_frame(&end).expect("frame into memory");
    }
    let batch = batch.get_ref().clone();
    let stream = hog.reader.get_ref();
    let mut raw = stream.try_clone().expect("clone hog stream");
    let mut responses = FrameReader::new(std::io::BufReader::with_capacity(
        1 << 16,
        stream.try_clone().expect("clone hog stream"),
    ));
    let cap = Instant::now() + Duration::from_secs(10);
    let writer =
        std::thread::spawn(move || while Instant::now() < cap && raw.write_all(&batch).is_ok() {});
    let reader = std::thread::spawn(move || {
        let mut answered = 0u64;
        // Until the drain notice or a closed socket.
        while let Ok(Some(payload)) = responses.read_frame() {
            match Response::decode(payload).expect("decode response") {
                Response::Classified { intervals, .. } => {
                    answered += 1;
                    assert_eq!(intervals, answered, "responses stay in order");
                }
                Response::Draining => break,
                other => panic!("expected Classified or Draining, got {other:?}"),
            }
        }
        answered
    });
    // Let the pipeline fill before the sibling arrives.
    while handle.telemetry_now().intervals < 256 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let started = Instant::now();
    let script = SessionScript::for_session(301, 8);
    let transcript =
        run_session(addr, &script, &no_faults, STALL_HOLD).expect("sibling session succeeds");
    assert!(transcript.completed);
    let sibling = started.elapsed();
    assert!(
        sibling < Duration::from_secs(2),
        "sibling took {sibling:?} beside a pipelining client"
    );

    let started = Instant::now();
    let telemetry = handle.join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "drain took {elapsed:?} beside a pipelining client, deadline 200ms"
    );
    writer.join().expect("pipelining writer");
    let answered = reader.join().expect("pipelining reader");
    assert!(answered >= 256);
    assert!(telemetry.intervals >= answered + 8);
}

#[test]
fn unix_socket_serves_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("tpcp-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let socket = dir.join("serve.sock");
    let mut config = quick_config();
    config.unix = Some(socket.clone());
    let handle = Server::spawn(config).expect("bind tcp + unix");

    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect unix socket");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let write = stream.try_clone().expect("clone unix stream");
    let mut reader = FrameReader::new(stream);
    let mut writer = FrameWriter::new(write);

    let hello = Request::Hello {
        session: 9,
        extractor: WireExtractor::BranchMix,
    };
    writer.write_frame(&hello.encode()).expect("send hello");
    let payload = reader.read_frame().expect("read").expect("response");
    assert!(matches!(
        Response::decode(payload).expect("decode"),
        Response::Ok { session: 9 }
    ));

    let query = Request::Query {
        session: 9,
        kind: QueryKind::Phase,
    };
    writer.write_frame(&query.encode()).expect("send query");
    let payload = reader.read_frame().expect("read").expect("response");
    assert!(matches!(
        Response::decode(payload).expect("decode"),
        Response::Answer {
            session: 9,
            kind: QueryKind::Phase,
            value: None,
        }
    ));

    handle.join();
    // Drain removes the socket file.
    assert!(!socket.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_completes_within_deadline_and_notifies_idle_clients() {
    let mut config = quick_config();
    config.drain_deadline = Duration::from_millis(500);
    let (handle, addr) = spawn(config);

    // An idle-but-open client: drain must not wait for it to speak.
    let mut idle = TestClient::connect(addr);
    idle.send(&Request::Hello {
        session: 42,
        extractor: WireExtractor::Bbv,
    });
    assert!(matches!(idle.recv(), Response::Ok { session: 42 }));

    let started = Instant::now();
    handle.begin_drain();
    assert!(matches!(idle.recv(), Response::Draining));
    let telemetry = handle.join();
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(2),
        "drain took {elapsed:?}, expected well under the 500ms deadline plus margin"
    );
    assert!(telemetry.drained);
    assert_eq!(telemetry.connections, 1);
    assert_eq!(telemetry.store.created, 1);

    // New connections after drain are refused outright (listener down).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may still complete the handshake against a closed
            // listener's backlog; a Hello must then go unanswered.
            let mut late = TestClient::connect(addr);
            late.send(&Request::Hello {
                session: 43,
                extractor: WireExtractor::Bbv,
            });
            late.reader_eof()
        }
    );
}

impl TestClient {
    /// True if the server side is closed (EOF or reset on next read).
    fn reader_eof(&mut self) -> bool {
        matches!(self.reader.read_frame(), Ok(None) | Err(_))
    }
}

#[test]
fn invalid_cpi_is_rejected_without_touching_session_state() {
    let (handle, addr) = spawn(quick_config());
    let mut client = TestClient::connect(addr);

    client.send(&Request::Hello {
        session: 5,
        extractor: WireExtractor::Bbv,
    });
    assert!(matches!(client.recv(), Response::Ok { session: 5 }));
    client.send(&Request::EndInterval {
        session: 5,
        cpi: 1.5,
    });
    assert!(matches!(
        client.recv(),
        Response::Classified {
            session: 5,
            intervals: 1,
            ..
        }
    ));
    client.send(&Request::Query {
        session: 5,
        kind: QueryKind::Phase,
    });
    let before = client.recv();

    // NaN, infinite, and negative CPIs must each earn a structured
    // Malformed error — and leave the session exactly as it was.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25] {
        client.send(&Request::EndInterval {
            session: 5,
            cpi: bad,
        });
        match client.recv() {
            Response::Error {
                session: 5, detail, ..
            } => assert!(detail.contains("CPI"), "detail names the CPI: {detail}"),
            other => panic!("expected a Malformed error for cpi {bad}, got {other:?}"),
        }
    }

    client.send(&Request::Query {
        session: 5,
        kind: QueryKind::Phase,
    });
    let after = client.recv();
    assert_eq!(before, after, "rejected CPIs must not move the classifier");

    // The session still advances on the next valid interval — by
    // exactly one, proving none of the rejects were observed.
    client.send(&Request::EndInterval {
        session: 5,
        cpi: 2.0,
    });
    assert!(matches!(
        client.recv(),
        Response::Classified {
            session: 5,
            intervals: 2,
            ..
        }
    ));

    let telemetry = handle.join();
    assert_eq!(telemetry.invalid_cpi, 4);
    assert_eq!(telemetry.intervals, 2);
}

/// Satellite regression: a failing TCP listener must back off on its own
/// gate while the Unix listener keeps serving at full speed — and
/// recover once the fault clears.
#[test]
fn tcp_accept_failures_do_not_stall_the_unix_listener() {
    use tpcp_serve::server::AcceptFaults;

    let dir = std::env::temp_dir().join(format!("tpcp-serve-backoff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let socket = dir.join("serve.sock");
    let mut config = quick_config();
    config.unix = Some(socket.clone());
    config.accept_faults = AcceptFaults { tcp: 4, unix: 0 };
    let handle = Server::spawn(config).expect("bind tcp + unix");
    let addr = handle.tcp_addr().expect("tcp listener configured");

    // While the TCP gate is burning through its injected failures, a Unix
    // client must get served promptly.
    let started = Instant::now();
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect unix");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let write = stream.try_clone().expect("clone unix stream");
    let mut reader = FrameReader::new(stream);
    let mut writer = FrameWriter::new(write);
    writer
        .write_frame(
            &Request::Hello {
                session: 21,
                extractor: WireExtractor::WorkingSet,
            }
            .encode(),
        )
        .expect("send hello");
    let payload = reader.read_frame().expect("read").expect("response");
    assert!(matches!(
        Response::decode(payload).expect("decode"),
        Response::Ok { session: 21 }
    ));
    writer
        .write_frame(
            &Request::EndInterval {
                session: 21,
                cpi: 1.0,
            }
            .encode(),
        )
        .expect("send end");
    let payload = reader.read_frame().expect("read").expect("response");
    assert!(matches!(
        Response::decode(payload).expect("decode"),
        Response::Classified { session: 21, .. }
    ));
    let unix_latency = started.elapsed();
    assert!(
        unix_latency < Duration::from_millis(500),
        "unix listener stalled behind tcp backoff: {unix_latency:?}"
    );

    // Once the injected failures are exhausted the TCP gate reopens
    // (worst case: the sum of its doubling backoffs, well under a second)
    // and a whole TCP session runs clean.
    let script = SessionScript::for_session(22, 4);
    let transcript =
        run_session(addr, &script, &no_faults, STALL_HOLD).expect("tcp recovers after faults");
    assert!(transcript.completed);

    let telemetry = handle.join();
    assert_eq!(
        telemetry.accept_failures_tcp, 4,
        "every injected tcp fault fires"
    );
    assert_eq!(telemetry.accept_failures_unix, 0);
    assert_eq!(telemetry.connections, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A many-worker, many-shard server that evicts constantly and a
/// one-worker, one-shard server that never evicts must be observably the
/// same protocol machine: identical scripts, bit-identical transcripts.
///
/// Every session says `Hello` (frame 0) and then waits at a barrier until
/// all nine have, before sending its first `Events` (frame 1). So all
/// nine sessions are open at once whatever the thread scheduling: over 8
/// shards two of them share a shard, and that shard's one live slot
/// (`div_ceil(3, 8)`) must evict.
#[test]
fn sharded_evicting_pool_matches_single_shard_server() {
    let scripts: Vec<SessionScript> = (1..=9).map(|s| SessionScript::for_session(s, 6)).collect();

    let run = |workers: usize, shards: usize, max_live: usize| {
        let mut config = quick_config();
        config.workers = workers;
        config.shards = shards;
        config.max_live = max_live;
        let (handle, addr) = spawn(config);
        let all_open = Barrier::new(scripts.len());
        let after_hello = |_session: &str, frame: u64| {
            if frame == 1 {
                all_open.wait();
            }
            TransportAction::Send
        };
        let transcripts: Vec<_> = drive_sessions(addr, &scripts, &after_hello, STALL_HOLD)
            .into_iter()
            .map(|r| r.expect("fault-free session must succeed"))
            .collect();
        let telemetry = handle.join();
        assert!(telemetry.drained);
        (transcripts, telemetry.store.evictions)
    };

    // Three live slots for nine sessions: eviction churn underneath, same
    // as the chaos suite.
    let (sharded, evictions) = run(4, 8, 3);
    assert!(evictions > 0, "the sharded server must evict");
    let (single, evictions) = run(1, 1, 9);
    assert_eq!(evictions, 0, "the single-shard server must not evict");
    for (script, (a, b)) in scripts.iter().zip(sharded.iter().zip(&single)) {
        assert_eq!(
            a, b,
            "session {} diverged between the sharded and single-shard servers",
            script.session
        );
    }
}

/// `workers: 0` is served by one pool worker, and telemetry reports the
/// worker count that actually runs.
#[test]
fn zero_workers_config_runs_one_worker() {
    let mut config = quick_config();
    config.workers = 0;
    let (handle, addr) = spawn(config);
    let script = SessionScript::for_session(31, 4);
    let transcript =
        run_session(addr, &script, &no_faults, STALL_HOLD).expect("session runs on one worker");
    assert!(transcript.completed);
    assert_eq!(transcript.classified.len(), 4);
    let telemetry = handle.join();
    assert_eq!(telemetry.workers, 1);
}

#[cfg(feature = "fault-inject")]
mod chaos {
    use super::*;
    use tpcp_experiments::fault::FaultPlan;
    use tpcp_serve::client::injector_oracle;
    use tpcp_serve::Transcript;

    /// The tentpole chaos assertion: transport faults on a subset of
    /// sessions leave every *survivor* session's transcript bit-identical
    /// to a fault-free run — across truncated frames, garbage prefixes,
    /// mid-frame stalls, and disconnects, while the store is small enough
    /// that eviction churn happens underneath.
    #[test]
    fn transport_faults_leave_survivor_sessions_bit_identical() {
        let scripts: Vec<SessionScript> =
            (1..=12).map(|s| SessionScript::for_session(s, 8)).collect();
        let faulted: &[u64] = &[3, 6, 9, 11];

        let run = |use_faults: bool| -> Vec<Transcript> {
            let mut config = quick_config();
            // Four live slots for twelve sessions: eviction and snapshot
            // restore run constantly underneath the chaos.
            config.max_live = 4;
            let (handle, addr) = spawn(config);
            let results = if use_faults {
                let labels: Vec<String> = faulted.iter().map(|s| format!("s{s}")).collect();
                let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                // Frame budget below each session's total frame count, so
                // every planned fault actually fires mid-script.
                let plan = FaultPlan::randomized_transport(0xC4A05, &label_refs, 12);
                let injector = plan.build();
                for label in &label_refs {
                    assert!(injector.targets_session(label));
                }
                let oracle = injector_oracle(&injector);
                drive_sessions(addr, &scripts, &oracle, STALL_HOLD)
            } else {
                drive_sessions(addr, &scripts, &no_faults, STALL_HOLD)
            };
            let telemetry = handle.join();
            assert!(telemetry.drained);
            assert!(
                telemetry.store.evictions > 0,
                "twelve sessions over four live slots must evict"
            );
            results
                .into_iter()
                .map(|r| r.expect("sessions never see protocol errors"))
                .collect()
        };

        let baseline = run(false);
        let chaotic = run(true);

        for (script, (clean, faulty)) in scripts.iter().zip(baseline.iter().zip(&chaotic)) {
            if faulted.contains(&script.session) {
                assert!(
                    !faulty.completed,
                    "session {} was faulted mid-script and cannot have closed cleanly",
                    script.session
                );
            } else {
                assert!(faulty.completed, "survivor {} must finish", script.session);
                assert_eq!(
                    clean, faulty,
                    "survivor session {} diverged under chaos",
                    script.session
                );
            }
        }
    }
}
