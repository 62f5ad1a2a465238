//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --steadiness RUNS
//! ```
//!
//! Workloads: `offline-sweep` (every figure through `tpcp-experiments`),
//! `serve-replay` and `serve-churn` (open loop against a `tpcp-serve`
//! child); `all` runs the three in turn. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run. `--steadiness RUNS` runs the
//! untraced workload RUNS times with seeds N, N+1, ... and reports each
//! end-to-end metric's quartile spread against its bound in
//! `BENCHMARK.json`. The last line of stdout is the JSON result; see
//! `perfbench/README.md`.

mod json;
mod offline;
mod serve;
mod spans;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tpcp_experiments::TraceCache;

use crate::spans::{LayerTotal, Tracer};

const USAGE: &str =
    "usage: perfbench --serve-bin PATH --workload offline-sweep|serve-replay|serve-churn|all \
--seed N --seconds S [--trace 0|1] [--steadiness RUNS]";

const WORKLOADS: [&str; 3] = ["offline-sweep", "serve-replay", "serve-churn"];

/// Cold fills per offline run; `setup_s` is their median.
const OFFLINE_SETUPS: usize = 3;
/// Fewest measured sweeps per offline run, however short `--seconds` is.
const MIN_SWEEPS: usize = 5;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    steadiness: Option<usize>,
    root: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut steadiness = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--steadiness" => {
                steadiness = Some(value()?.parse().map_err(|_| "--steadiness takes a count")?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if workload == "all" && steadiness.is_some() {
        return Err("--steadiness takes one workload".into());
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        steadiness,
        root: std::env::current_dir().map_err(|e| e.to_string())?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines printed above the result (layer table, flags, errors).
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let whole = match (opts.steadiness, opts.workload.as_str()) {
        (Some(runs), _) => Some(steadiness(&opts, runs)),
        (None, "all") => Some(run_all(&opts)),
        _ => None,
    };
    if let Some(result) = whole {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&opts) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            for m in &outcome.metrics {
                println!(
                    "# metric {:<28} {:>16} {:<6} samples={}",
                    m.name,
                    json::number(m.value),
                    m.unit,
                    m.samples
                );
            }
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn result_line(o: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json::number(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    line
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    let nproc = sys::nproc();
    let spec = match opts.workload.as_str() {
        "serve-replay" => Some(serve::REPLAY),
        "serve-churn" => Some(serve::CHURN),
        _ => None,
    };
    if spec.is_some() && (serve::LOADGEN_THREADS > nproc || serve::LOADGEN_CONNECTIONS > nproc) {
        return Err(format!(
            "the load generator needs {} threads and {} connection(s), more than nproc = {nproc}",
            serve::LOADGEN_THREADS,
            serve::LOADGEN_CONNECTIONS
        ));
    }
    if !opts.serve_bin.is_file() {
        return Err(format!(
            "no tpcp-serve binary at {}",
            opts.serve_bin.display()
        ));
    }
    // Pins every engine, the sampling estimator's included, to nproc.
    std::env::set_var("TPCP_WORKERS", nproc.to_string());
    let work =
        opts.root
            .join(".perfbench")
            .join(format!("{}-{}", opts.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let calibration = tpcp_bench::perf::calibration_ops_per_sec();
    let outcome = match (spec, opts.trace) {
        (None, false) => offline_e2e(opts, &work, nproc),
        (None, true) => offline_traced(opts, &work, nproc),
        (Some(spec), false) => serve_e2e(opts, &work, spec),
        (Some(spec), true) => serve_traced(opts, &work, spec),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome?;
    let server_workers = if spec.is_some() {
        serve::SERVER_WORKERS
    } else {
        0
    };
    outcome.notes.insert(
        0,
        format!(
            "# run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
             \"engine_workers\": {nproc}, \"server_workers\": {server_workers}, \"loadgen_threads\": {}, \
             \"loadgen_connections\": {}, \"git_sha\": \"{}\", \"calibration_ops_per_sec\": {}, \
             \"model_version\": {}}}",
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            if spec.is_some() { serve::LOADGEN_THREADS } else { 1 },
            if spec.is_some() { serve::LOADGEN_CONNECTIONS } else { 0 },
            sys::git_sha(&opts.root),
            json::number(calibration),
            tpcp_workloads::MODEL_VERSION,
        ),
    );
    Ok(outcome)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Pushes the latency percentiles, noting when the sample is too small
/// to support p90 by the ten-beyond rule.
fn latency_metrics(out: &mut Outcome, latency_ms: &[f64]) {
    let mut sorted = latency_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    out.metric("latency_ms_p50", stats::percentile(&sorted, 50.0), "ms", n);
    out.metric("latency_ms_p90", stats::percentile(&sorted, 90.0), "ms", n);
    if !stats::supported(n, 90.0) {
        out.note(format!(
            "# note: p90 over {n} samples has {} beyond it (fewer than 10)",
            stats::samples_beyond(n, 90.0)
        ));
    }
}

fn offline_e2e(opts: &Opts, work: &Path, nproc: usize) -> Result<Outcome, String> {
    let params = offline::params(opts.seed);
    let mut out = Outcome::default();
    let cache_dir = |rep: usize| work.join(format!("cache-{rep}"));
    let mut setup_s = Vec::new();
    let mut first: Option<offline::Sweep> = None;
    for rep in 0..OFFLINE_SETUPS {
        let _ = std::fs::remove_dir_all(cache_dir(rep));
        let s = offline::sweep(&TraceCache::new(cache_dir(rep)), &params, nproc, None, 0);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(cache_dir(rep - 1));
        }
        setup_s.push(s.wall_s);
        let first = first.get_or_insert_with(|| s.clone());
        out.attempted += 1;
        if let Err(e) = offline::verdict(&s, first, None) {
            out.failed += 1;
            out.note(format!("# set-up sweep {rep} failed: {e}"));
        }
    }
    let first = first.expect("at least one set-up sweep");
    let cache = TraceCache::new(cache_dir(OFFLINE_SETUPS - 1));
    let reference = offline::reference_ids(&cache, &params);
    if first.paper_ids != reference {
        out.failed += 1;
        out.note(
            "# set-up sweep failed: paper-configuration streams differ from run_classifier".into(),
        );
    }

    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    let mut latency_ms = Vec::new();
    let mut hwm_kb = Vec::new();
    let mut hwm_reset = true;
    let mut intervals = 0u64;
    let mut ok = 0u64;
    while latency_ms.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < opts.seconds {
        hwm_reset &= sys::reset_hwm();
        let s = offline::sweep(&cache, &params, nproc, None, 0);
        hwm_kb.push(sys::vm_hwm_kb(None).ok_or("cannot read VmHWM")? as f64);
        intervals += s.intervals;
        match offline::verdict(&s, &first, Some(&reference)) {
            Ok(()) => {
                ok += 1;
                latency_ms.push(s.wall_s * 1e3);
            }
            Err(e) => {
                out.note(format!("# sweep {} failed: {e}", latency_ms.len()));
                latency_ms.push(f64::INFINITY);
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    if !hwm_reset {
        out.note("# note: VmHWM could not be reset per sweep; peak_rss_mb includes set-up".into());
    }
    let n = latency_ms.len();
    out.attempted += n as u64;
    out.failed += n as u64 - ok;
    out.correct = out.failed == 0;
    out.metric("setup_s", stats::median(&setup_s), "s", setup_s.len());
    latency_metrics(&mut out, &latency_ms);
    out.metric("throughput_per_s", intervals as f64 / measured_s, "1/s", n);
    out.metric("cpu_ms_per_op", ms(cpu_ns) / n as f64, "ms", n);
    out.metric("ok_ratio", ok as f64 / n as f64, "ratio", n);
    // Per-sweep high-water marks: the process peak alone moves with how
    // the engine's short-lived workers happen to reuse allocator arenas.
    out.metric("peak_rss_mb", stats::median(&hwm_kb) / 1024.0, "MB", n);
    Ok(out)
}

fn serve_e2e(opts: &Opts, work: &Path, spec: serve::Spec) -> Result<Outcome, String> {
    let params = offline::params(opts.seed);
    let cache = TraceCache::new(opts.root.join(".perfbench").join("traces"));
    let inputs = serve::build_inputs(&cache, &params, spec.sample_every)?;
    let plan = serve::Plan::new(spec, &inputs, opts.seed, opts.seconds);
    let expected = serve::reference(&plan, &inputs);
    let run = serve::run_server(
        &opts.serve_bin,
        work,
        &plan,
        &inputs,
        &expected,
        spec.setup_repeats,
    )?;
    let m = &run.measured;
    let n = m.latency_ms.len();
    let mut out = Outcome {
        attempted: run.setup_ops + n as u64,
        failed: run.setup_failed + (n as u64 - m.ok),
        ..Outcome::default()
    };
    let counters = m.counters;
    out.correct = out.failed == 0
        && counters.malformed == Some(0.0)
        && counters.parked_drops.is_none_or(|d| d == 0.0);
    if !out.correct {
        out.note(format!(
            "# failed: {} set-up and {} measured ops wrong or unanswered; malformed={:?} parked_drops={:?}",
            run.setup_failed,
            n as u64 - m.ok,
            counters.malformed,
            counters.parked_drops
        ));
    }
    // Medians over one-second windows: a host hiccup spoils one window,
    // not the run.
    let windows = m.windows();
    let med =
        |f: fn(&serve::Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    let p90 = med(|w| w.p90);
    out.metric(
        "setup_s",
        stats::median(&run.setup_s),
        "s",
        run.setup_s.len(),
    );
    out.metric("latency_ms_p50", med(|w| w.p50), "ms", n);
    out.metric("latency_ms_p90", p90, "ms", n);
    out.metric("throughput_per_s", m.ok as f64 / m.window_s, "1/s", n);
    out.metric("cpu_ms_per_op", med(|w| w.cpu_ms), "ms", n);
    out.metric("ok_ratio", m.ok as f64 / n as f64, "ratio", n);
    out.metric("peak_rss_mb", m.server_hwm_kb as f64 / 1024.0, "MB", 1);
    out.note(format!(
        "# latency and cpu_ms_per_op: medians over {} windows of {} ops",
        windows.len(),
        m.window
    ));
    let (late_max, late_ratio) = serve::lateness(&m.late_ns);
    out.note(format!(
        "# loadgen: {}: spinning pacer, {n} ops at {} ops/s, late_ms_max={late_max:.3}, late_ratio={late_ratio:.4}",
        spec.name, spec.rate
    ));
    // The limit applies to every op of the run, not just the median window.
    let mut all = m.latency_ms.clone();
    all.sort_by(f64::total_cmp);
    let p90_all = stats::percentile(&all, 90.0);
    if p90.max(p90_all) > serve::P90_LIMIT_MS {
        out.note(format!(
            "# LIMIT EXCEEDED: p90 latency {p90:.3} ms (windows), {p90_all:.3} ms (all ops) against a {} ms limit",
            serve::P90_LIMIT_MS
        ));
    }
    Ok(out)
}

/// Every per-layer metric, with the unit `BENCHMARK.json` gives it; the
/// traced runs fill the ones their workload exercises and leave the rest
/// at zero.
const LAYER_METRICS: [(&str, &str); 43] = [
    ("sim.busy_ms", "ms"),
    ("sim.intervals", "count"),
    ("cache.load_ms", "ms"),
    ("cache.loads", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.mb_read", "MB"),
    ("cache.quarantines", "count"),
    ("decode.busy_ms", "ms"),
    ("decode.events", "count"),
    ("decode.ns_per_event", "ns"),
    ("accumulate.busy_ms", "ms"),
    ("accumulate.events", "count"),
    ("accumulate.ns_per_event", "ns"),
    ("classify.busy_ms", "ms"),
    ("classify.intervals", "count"),
    ("classify.match_ratio", "ratio"),
    ("classify.transition_ratio", "ratio"),
    ("predict.busy_ms", "ms"),
    ("figures.busy_ms", "ms"),
    ("figures.tables", "count"),
    ("engine.run_ms", "ms"),
    ("engine.residual_ms", "ms"),
    ("engine.max_replays", "count"),
    ("wire.decode_ms", "ms"),
    ("wire.frames", "count"),
    ("wire.bytes", "count"),
    ("wire.ns_per_event", "ns"),
    ("wire.encode_ms", "ms"),
    ("store.touch_ms", "ms"),
    ("store.touches", "count"),
    ("store.restore_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.parked_drops", "count"),
    ("query.busy_ms", "ms"),
    ("query.calls", "count"),
    ("transport.residual_us_per_op", "us"),
    ("server.frames_read", "count"),
    ("server.frames_written", "count"),
    ("server.malformed", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.late_ratio", "ratio"),
];

/// Emits every per-layer metric in a fixed order from `values`.
fn layer_metrics(out: &mut Outcome, values: &BTreeMap<&'static str, f64>, samples: usize) {
    for (name, unit) in LAYER_METRICS {
        out.metric(
            name,
            values.get(name).copied().unwrap_or(0.0),
            unit,
            samples,
        );
    }
}

/// The per-layer table: count, self time per op, failures and share of
/// the untraced op time.
fn layer_table(
    out: &mut Outcome,
    totals: &BTreeMap<&'static str, LayerTotal>,
    ops: usize,
    untraced_op_ms: f64,
) {
    out.note(format!(
        "# layer {:<18} {:>10} {:>14} {:>8} {:>8}",
        "span", "count", "self_ms/op", "failures", "share"
    ));
    for (name, t) in totals {
        let self_ms = ms(t.self_ns) / ops as f64;
        out.note(format!(
            "# layer {:<18} {:>10} {:>14.6} {:>8} {:>7.2}%",
            name,
            t.count,
            self_ms,
            t.failures,
            100.0 * self_ms / untraced_op_ms
        ));
    }
}

fn offline_traced(opts: &Opts, work: &Path, nproc: usize) -> Result<Outcome, String> {
    let params = offline::params(opts.seed);
    let cache = TraceCache::new(work.join("cache"));
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    // Set-up: one cold fill, then the simulation behind it, traced.
    let first = offline::sweep(&cache, &params, nproc, None, 0);
    let sim_intervals = offline::simulate_all(&params, &mut tr);
    let reference = offline::reference_ids(&cache, &params);
    let mut failures = Vec::new();
    if let Err(e) = offline::verdict(&first, &first, Some(&reference)) {
        failures.push(format!("set-up sweep: {e}"));
    }
    // Untraced op time, measured in this run.
    let start = Instant::now();
    let mut untraced = Vec::new();
    while untraced.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < opts.seconds / 3.0 {
        untraced.push(offline::sweep(&cache, &params, nproc, None, 0).wall_s * 1e3);
    }
    let untraced_ms = stats::median(&untraced);
    // Traced ops: the sweep itself, then the re-enacted pipeline.
    let start = Instant::now();
    let mut ops = 0usize;
    let mut layers = offline::Layers::default();
    let mut traced_ms = Vec::new();
    let mut engine_stage_ns = 0u64;
    let mut stages = [0u64; 4];
    let mut tables = 0u64;
    let mut max_replays = 0u64;
    while ops < MIN_SWEEPS || start.elapsed().as_secs_f64() < opts.seconds {
        ops += 1;
        let s = offline::sweep(&cache, &params, nproc, Some(&mut tr), ops as u64);
        traced_ms.push(s.wall_s * 1e3);
        engine_stage_ns += offline::engine_stage_ns(&s);
        tables += s.tables;
        for t in &s.telemetry {
            let st = t.stages();
            for (sum, ns) in stages.iter_mut().zip([
                st.cache_load_ns,
                st.decode_accumulate_ns,
                st.classify_ns,
                st.finish_ns,
            ]) {
                *sum += ns;
            }
        }
        max_replays = max_replays.max(s.max_replays);
        if let Err(e) = offline::verdict(&s, &first, Some(&reference)) {
            failures.push(format!("traced sweep {ops}: {e}"));
        }
        let l = offline::layers(&cache, &params, &reference, &mut tr, ops as u64);
        if !l.paper_ok {
            failures.push(format!(
                "traced sweep {ops}: re-enacted paper streams differ"
            ));
        }
        layers.loads += l.loads;
        layers.hits += l.hits;
        layers.bytes += l.bytes;
        layers.quarantines += l.quarantines;
        layers.events += l.events;
        layers.observed += l.observed;
        layers.classified += l.classified;
        layers.matched += l.matched;
        layers.transitions += l.transitions;
    }
    let totals = spans::totals(tr.spans(), |s| s.op > 0);
    let sim = spans::totals(tr.spans(), |s| s.name == "sim");
    let per_op = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.self_ns) / ops as f64);
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let n = ops as f64;
    let engine_run_ms = per_op("engine.run") + per_op("engine.sampling");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("sim.busy_ms", sim.get("sim").map_or(0.0, |t| ms(t.self_ns)));
    v.insert("sim.intervals", sim_intervals as f64);
    v.insert("cache.load_ms", per_op("cache.load"));
    v.insert("cache.loads", layers.loads as f64 / n);
    v.insert(
        "cache.hit_ratio",
        layers.hits as f64 / layers.loads.max(1) as f64,
    );
    v.insert("cache.mb_read", layers.bytes as f64 / 1e6 / n);
    v.insert("cache.quarantines", layers.quarantines as f64);
    v.insert("decode.busy_ms", per_op("decode"));
    v.insert("decode.events", layers.events as f64 / n);
    v.insert(
        "decode.ns_per_event",
        self_ns("decode") / layers.events.max(1) as f64,
    );
    v.insert("accumulate.busy_ms", per_op("accumulate"));
    v.insert("accumulate.events", layers.observed as f64 / n);
    v.insert(
        "accumulate.ns_per_event",
        self_ns("accumulate") / layers.observed.max(1) as f64,
    );
    v.insert("classify.busy_ms", per_op("classify"));
    v.insert("classify.intervals", layers.classified as f64 / n);
    v.insert(
        "classify.match_ratio",
        layers.matched as f64 / layers.classified.max(1) as f64,
    );
    v.insert(
        "classify.transition_ratio",
        layers.transitions as f64 / layers.classified.max(1) as f64,
    );
    v.insert("predict.busy_ms", per_op("predict"));
    v.insert("figures.busy_ms", per_op("figures") + per_op("csv"));
    v.insert("figures.tables", tables as f64 / n);
    v.insert("engine.run_ms", engine_run_ms);
    v.insert(
        "engine.residual_ms",
        engine_run_ms - ms(engine_stage_ns) / nproc as f64 / n,
    );
    v.insert("engine.max_replays", max_replays as f64);
    v.insert("loadgen.sent", n);
    v.insert("loadgen.failed", failures.len() as f64);
    out.attempted = ops as u64;
    out.failed = failures.len() as u64;
    out.correct = failures.is_empty();
    for f in &failures {
        out.note(format!("# failed: {f}"));
    }
    layer_table(&mut out, &totals, ops, untraced_ms);
    let traced_op_ms = stats::median(&traced_ms);
    out.note(format!(
        "# residual: sweep self time {:.3} ms/op; layers glue {:.3} ms/op; engine residual {:.3} ms/op",
        per_op("sweep"),
        per_op("layers"),
        v["engine.residual_ms"]
    ));
    out.note(format!(
        "# overhead: traced sweep {traced_op_ms:.3} ms - untraced {untraced_ms:.3} ms = {:.3} ms/op ({} traced, {} untraced sweeps)",
        traced_op_ms - untraced_ms,
        ops,
        untraced.len()
    ));
    let share = |ns: u64| 100.0 * ns as f64 / engine_stage_ns.max(1) as f64;
    out.note(format!(
        "# cross-check: engine stage totals {:.3} ms/op over {nproc} workers: cache load {:.1}%, \
         decode+accumulate {:.1}%, classify {:.1}%, finish {:.1}%; layers re-enact {} traces/op",
        ms(engine_stage_ns) / n,
        share(stages[0]),
        share(stages[1]),
        share(stages[2]),
        share(stages[3]),
        layers.loads as f64 / n
    ));
    layer_metrics(&mut out, &v, ops);
    Ok(out)
}

fn serve_traced(opts: &Opts, work: &Path, spec: serve::Spec) -> Result<Outcome, String> {
    let params = offline::params(opts.seed);
    let cache = TraceCache::new(opts.root.join(".perfbench").join("traces"));
    let inputs = serve::build_inputs(&cache, &params, spec.sample_every)?;
    let plan = serve::Plan::new(spec, &inputs, opts.seed, opts.seconds);
    let expected = serve::reference(&plan, &inputs);
    // The untraced server run: op latency, server counters, lateness.
    let run = serve::run_server(&opts.serve_bin, work, &plan, &inputs, &expected, 1)?;
    let m = &run.measured;
    let ops = m.latency_ms.len();
    let n = ops as f64;
    let untraced_op_ms = stats::median(&m.windows().iter().map(|w| w.p50).collect::<Vec<_>>());
    // The same frames in-process, untraced and then traced.
    let plain = serve::replay_in_process(
        &plan,
        &inputs,
        &expected,
        &mut serve::Replay::like_server(),
        None,
    );
    let mut tr = Tracer::new();
    let mut replay = serve::Replay::like_server();
    let traced = serve::replay_in_process(&plan, &inputs, &expected, &mut replay, Some(&mut tr));
    let totals = spans::totals(tr.spans(), |s| s.op > 0);
    let per_op = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.self_ns) / n);
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let c = traced.counts;
    let (plain_time, traced_time) = (plain.time, traced.time);
    let (plain_same, traced_same) = (plain.same, traced.same);
    let in_process_us = plain_time.as_secs_f64() * 1e6 / n;
    let counter = |v: Option<f64>| v.unwrap_or(-1.0);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("sim.busy_ms", inputs.sim.0.as_secs_f64() * 1e3);
    v.insert("sim.intervals", inputs.sim.1 as f64);
    v.insert("accumulate.busy_ms", per_op("accumulate"));
    v.insert("accumulate.events", c.events as f64 / n);
    v.insert(
        "accumulate.ns_per_event",
        self_ns("accumulate") / c.events.max(1) as f64,
    );
    v.insert("classify.busy_ms", per_op("classify"));
    v.insert("classify.intervals", c.intervals as f64 / n);
    v.insert(
        "classify.transition_ratio",
        c.transitions as f64 / c.intervals.max(1) as f64,
    );
    v.insert("wire.decode_ms", per_op("wire.decode"));
    v.insert("wire.frames", c.frames as f64 / n);
    v.insert("wire.bytes", c.bytes as f64 / n);
    v.insert(
        "wire.ns_per_event",
        self_ns("wire.decode") / c.events.max(1) as f64,
    );
    v.insert("wire.encode_ms", per_op("wire.encode"));
    v.insert("store.touch_ms", per_op("store.touch"));
    v.insert("store.touches", c.touches as f64 / n);
    v.insert(
        "store.restore_ratio",
        traced.restores as f64 / c.touches.max(1) as f64,
    );
    v.insert("store.evictions", traced.evictions as f64 / n);
    v.insert("store.parked_drops", replay.store_counters().2 as f64);
    v.insert("query.busy_ms", per_op("query"));
    v.insert("query.calls", c.queries as f64 / n);
    v.insert(
        "transport.residual_us_per_op",
        untraced_op_ms * 1e3 - in_process_us,
    );
    v.insert("server.frames_read", counter(m.counters.frames_read));
    v.insert("server.frames_written", counter(m.counters.frames_written));
    v.insert("server.malformed", counter(m.counters.malformed));
    let (late_max, late_ratio) = serve::lateness(&m.late_ns);
    v.insert("loadgen.sent", n);
    v.insert("loadgen.failed", (ops as u64 - m.ok) as f64);
    v.insert("loadgen.late_ms_max", late_max);
    v.insert("loadgen.late_ratio", late_ratio);
    let mut out = Outcome {
        attempted: run.setup_ops + ops as u64,
        failed: run.setup_failed
            + (ops as u64 - m.ok)
            + u64::from(!plain_same)
            + u64::from(!traced_same),
        ..Outcome::default()
    };
    out.correct = out.failed == 0 && c.failures == 0 && m.counters.malformed == Some(0.0);
    if !plain_same || !traced_same {
        out.note("# failed: the in-process replay's responses differ from the reference".into());
    }
    let (restores, evictions, _) = replay.store_counters();
    for (name, server, local) in [
        ("restores", m.counters.restores, restores),
        ("evictions", m.counters.evictions, evictions),
    ] {
        if server.is_some_and(|s| s != local as f64) {
            out.note(format!(
                "# cross-check: server {name} {server:?} over the whole run vs in-process {local}"
            ));
        }
    }
    layer_table(&mut out, &totals, ops, untraced_op_ms);
    out.note(format!(
        "# residual: transport {:.3} us/op = untraced op latency p50 {:.3} us - in-process service {:.3} us",
        v["transport.residual_us_per_op"],
        untraced_op_ms * 1e3,
        in_process_us
    ));
    out.note(format!(
        "# overhead: traced in-process {:.3} us/op - untraced {:.3} us/op = {:.3} us/op",
        traced_time.as_secs_f64() * 1e6 / n,
        in_process_us,
        (traced_time.as_secs_f64() - plain_time.as_secs_f64()) * 1e6 / n
    ));
    layer_metrics(&mut out, &v, ops);
    Ok(out)
}

/// Runs `args` through a child copy of this binary and returns its
/// stdout, whose last line is the child's result.
fn run_child(opts: &Opts, workload: &str, seed: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("--serve-bin")
        .arg(&opts.serve_bin)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Runs every workload in turn for one seed, each in its own process,
/// prints each one's report, and ends with one result line whose metric
/// names carry the workload as a prefix.
fn run_all(opts: &Opts) -> Result<(), String> {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let stdout = run_child(opts, workload, opts.seed, opts.trace)?;
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        println!("## {workload}");
        for line in lines {
            println!("{line}");
        }
        let result = json::parse(last).map_err(|e| format!("{workload}: {e}"))?;
        correct &= result.path("correct") == Some(&json::Value::Bool(true));
        attempted += result.num("attempted").unwrap_or(0.0);
        failed += result.num("failed").unwrap_or(0.0);
        if let Some(json::Value::Obj(all)) = result.path("metrics") {
            for (name, m) in all {
                metrics.push(format!(
                    "\"{workload}/{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::number(m.num("value").unwrap_or(f64::NAN)),
                    m.str("unit").unwrap_or_default()
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

/// Runs the untraced workload `runs` times with consecutive seeds and
/// reports each end-to-end metric's median, quartiles and spread against
/// its bound in `BENCHMARK.json`.
fn steadiness(opts: &Opts, runs: usize) -> Result<(), String> {
    let bench = std::fs::read_to_string(opts.root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bench = json::parse(&bench)?;
    let bounds: Vec<(String, f64)> = bench
        .arr("end_to_end")
        .iter()
        .filter_map(|m| Some((m.str("name")?.to_owned(), m.num("bound")?)))
        .collect();
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        let seed = opts.seed + i as u64;
        let stdout = run_child(opts, &opts.workload, seed, false)?;
        let last = stdout.lines().last().unwrap_or_default();
        let result = json::parse(last).map_err(|e| format!("run {i} (seed {seed}): {e}"))?;
        if result.path("correct") != Some(&json::Value::Bool(true)) {
            return Err(format!("run {i} (seed {seed}) failed: {last}"));
        }
        // The child's context line carries the host's calibration rate.
        let calibration = stdout
            .lines()
            .find_map(|l| l.strip_prefix("# run "))
            .and_then(|ctx| json::parse(ctx).ok())
            .and_then(|ctx| ctx.num("calibration_ops_per_sec"))
            .unwrap_or(f64::NAN);
        let mut line = format!("# run {i} seed {seed} calibration {:.3e}:", calibration);
        for (name, _) in &bounds {
            let value = result
                .num(&format!("metrics.{name}.value"))
                .ok_or(format!("run {i} lacks metric {name}"))?;
            let _ = write!(line, " {name}={value:.6}");
            values.entry(name.clone()).or_default().push(value);
        }
        eprintln!("{line}");
    }
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>8} {:>7} verdict",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, bound) in &bounds {
        let v = &values[name];
        let (q1, q3) = stats::quartiles(v);
        let spread = stats::spread(v);
        let verdict = if spread < bound / 3.0 {
            "steady (< bound/3)"
        } else if spread <= *bound {
            "within bound"
        } else if name == "setup_s" {
            "over bound (setup_s spread is not gated)"
        } else {
            "TOO NOISY"
        };
        println!(
            "{name:<18} {:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>6.0}% {verdict}",
            stats::median(v),
            spread * 100.0,
            bound * 100.0
        );
    }
    Ok(())
}
