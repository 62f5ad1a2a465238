//! `tpcp-serve` — the online classification service and its chaos driver.
//!
//! Serve mode (the default) binds TCP and optionally a Unix socket, then
//! runs until SIGINT/SIGTERM, at which point it drains gracefully: stops
//! accepting, lets in-flight sessions finish against the drain deadline,
//! and writes a final telemetry snapshot before exiting 0.
//!
//! ```text
//! tpcp-serve [--tcp ADDR] [--unix PATH] [--telemetry PATH]
//!            [--workers N] [--shards N] [--telemetry-interval-ms N]
//!            [--max-live N] [--max-parked N]
//!            [--read-timeout-ms N] [--idle-timeout-ms N]
//!            [--drain-deadline-ms N]
//! ```
//!
//! Each of `--workers` threads (at least 1) runs its own readiness loop:
//! it accepts connections and serves the ones it accepted, and sees a
//! drain within one poll tick. `--telemetry-interval-ms` (with
//! `--telemetry PATH`) atomically rewrites the snapshot file on that
//! period while running, instead of only at drain.
//!
//! Drive mode runs the deterministic client fleet against a server,
//! optionally with transport chaos (requires the `fault-inject`
//! feature):
//!
//! ```text
//! tpcp-serve drive --addr HOST:PORT [--sessions N] [--intervals N]
//!                  [--chaos SEED] [--fleet]
//! ```
//!
//! Drive exits non-zero if any *unfaulted* session fails its script.
//! `--fleet` switches to the pipelined fleet driver: all sessions are
//! pumped by a fixed set of client threads instead of one thread per
//! session, and the run prints an order-insensitive digest of every
//! classification — the same digest for the same session count and
//! interval count, whatever worker count, shard count or thread schedule
//! produced it.
//! `--fleet` and `--chaos` are mutually exclusive.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tpcp_serve::client::{drive_sessions, no_faults, SessionScript};
use tpcp_serve::server::{ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("drive") {
        drive_main(&args[1..])
    } else {
        serve_main(&args)
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tpcp-serve: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse::<u64>()
        .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
}

fn parse_at_least_one(flag: &str, value: Option<&String>) -> Result<usize, String> {
    match parse_u64(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n as usize),
    }
}

fn serve_main(args: &[String]) -> Result<ExitCode, String> {
    let mut config = ServeConfig::default();
    let mut telemetry_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tcp" => {
                let addr = it.next().ok_or("--tcp requires a value")?;
                config.tcp = Some(addr.clone());
            }
            "--unix" => {
                let path = it.next().ok_or("--unix requires a value")?;
                config.unix = Some(PathBuf::from(path));
            }
            "--telemetry" => {
                let path = it.next().ok_or("--telemetry requires a value")?;
                telemetry_path = Some(PathBuf::from(path));
            }
            "--workers" => config.workers = parse_at_least_one(flag, it.next())?,
            "--shards" => config.shards = parse_at_least_one(flag, it.next())?,
            "--telemetry-interval-ms" => {
                config.telemetry_interval =
                    Some(Duration::from_millis(parse_u64(flag, it.next())?.max(1)));
            }
            "--max-live" => config.max_live = parse_u64(flag, it.next())? as usize,
            "--max-parked" => config.max_parked = parse_u64(flag, it.next())? as usize,
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(parse_u64(flag, it.next())?);
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(parse_u64(flag, it.next())?);
            }
            "--drain-deadline-ms" => {
                config.drain_deadline = Duration::from_millis(parse_u64(flag, it.next())?);
            }
            other => return Err(format!("unknown flag {other:?} (serve mode)")),
        }
    }

    // Periodic snapshots (if an interval is set) go to the same file the
    // final drain snapshot does, rewritten atomically.
    config.telemetry_path = telemetry_path.clone();

    // Catch SIGINT/SIGTERM so the drain path below runs instead of the
    // default immediate termination.
    tpcp_experiments::shutdown::install();

    let handle = Server::spawn(config).map_err(|e| format!("failed to start server: {e}"))?;
    if let Some(addr) = handle.tcp_addr() {
        eprintln!("# tpcp-serve listening on tcp {addr}");
    }
    if let Some(path) = handle.unix_path() {
        eprintln!("# tpcp-serve listening on unix {}", path.display());
    }

    while !tpcp_experiments::shutdown::requested() && handle.is_running() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("# tpcp-serve draining: no new connections, flushing in-flight sessions");
    let telemetry = handle.join();
    let json = telemetry.to_json();
    match telemetry_path {
        Some(path) => {
            std::fs::write(&path, &json)
                .map_err(|e| format!("failed to write telemetry to {}: {e}", path.display()))?;
            eprintln!("# final telemetry written to {}", path.display());
        }
        None => print!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn drive_main(args: &[String]) -> Result<ExitCode, String> {
    let mut addr: Option<SocketAddr> = None;
    let mut sessions: u64 = 16;
    let mut intervals: u64 = 24;
    let mut chaos: Option<u64> = None;
    let mut fleet = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                let value = it.next().ok_or("--addr requires a value")?;
                addr = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--addr expects HOST:PORT, got {value:?}"))?,
                );
            }
            "--sessions" => sessions = parse_u64(flag, it.next())?,
            "--intervals" => intervals = parse_u64(flag, it.next())?,
            "--chaos" => chaos = Some(parse_u64(flag, it.next())?),
            "--fleet" => fleet = true,
            other => return Err(format!("unknown flag {other:?} (drive mode)")),
        }
    }
    let addr = addr.ok_or("drive mode requires --addr HOST:PORT")?;
    if fleet {
        if chaos.is_some() {
            return Err("--fleet and --chaos are mutually exclusive".into());
        }
        let script = tpcp_serve::FleetScript::new(sessions, intervals);
        let run =
            tpcp_serve::drive_fleet(addr, &script).map_err(|e| format!("fleet failed: {e}"))?;
        println!(
            "# fleet: {} connections x {} intervals, digest {:016x}",
            run.connections, intervals, run.checksum
        );
        return Ok(ExitCode::SUCCESS);
    }
    let scripts: Vec<SessionScript> = (0..sessions)
        .map(|s| SessionScript::for_session(s + 1, intervals))
        .collect();

    // A stall fault must out-wait the server's per-read deadline; the
    // default config ticks every 100ms.
    let stall_hold = Duration::from_millis(400);

    let results = match chaos {
        None => drive_sessions(addr, &scripts, &no_faults, stall_hold),
        Some(seed) => run_with_chaos(addr, &scripts, seed, stall_hold)?,
    };

    let mut completed = 0u64;
    let mut cut = 0u64;
    let mut failed = 0u64;
    for (script, result) in scripts.iter().zip(&results) {
        match result {
            Ok(t) if t.completed => completed += 1,
            Ok(_) => cut += 1,
            Err(e) => {
                failed += 1;
                eprintln!("# session {} failed: {e}", script.session);
            }
        }
    }
    println!("# drive: {completed} completed, {cut} cut by faults, {failed} failed");
    if failed > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(feature = "fault-inject")]
fn run_with_chaos(
    addr: SocketAddr,
    scripts: &[SessionScript],
    seed: u64,
    stall_hold: Duration,
) -> Result<Vec<std::io::Result<tpcp_serve::Transcript>>, String> {
    use tpcp_experiments::fault::FaultPlan;
    // Fault a third of the fleet so a chaos run shows both casualties
    // and — the point of the exercise — unaffected survivors.
    let labels: Vec<String> = scripts
        .iter()
        .filter(|s| s.session % 3 == 0)
        .map(SessionScript::label)
        .collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let frames_per_session = scripts
        .iter()
        .map(|s| 2 + s.intervals * 2 + s.intervals / s.query_every.max(1) * 3)
        .max()
        .unwrap_or(8);
    let plan = FaultPlan::randomized_transport(seed, &label_refs, frames_per_session);
    let injector = plan.build();
    let oracle = tpcp_serve::client::injector_oracle(&injector);
    Ok(drive_sessions(addr, scripts, &oracle, stall_hold))
}

#[cfg(not(feature = "fault-inject"))]
fn run_with_chaos(
    _addr: SocketAddr,
    _scripts: &[SessionScript],
    _seed: u64,
    _stall_hold: Duration,
) -> Result<Vec<std::io::Result<tpcp_serve::Transcript>>, String> {
    Err("--chaos requires the fault-inject feature (rebuild with --features fault-inject)".into())
}
