//! Reproduction harness for the paper's evaluation (Figures 2–9).
//!
//! Each `figN` module reproduces one figure: it runs the figure's
//! classifier/predictor configurations over the eleven benchmark models,
//! collects the same metrics the paper plots, and renders a table with the
//! same rows and series. `cargo run --release -p tpcp-experiments --bin
//! repro -- all` regenerates everything; EXPERIMENTS.md records
//! paper-vs-measured values.
//!
//! Benchmark traces are simulated once per [`SuiteParams`] and cached on
//! disk (see [`TraceCache`]), mirroring the paper's methodology of
//! profiling with SimpleScalar once and sweeping architectures offline.

// `deny` (not `forbid`) so the one signal-handler FFI site in `shutdown`
// can carry a scoped allow; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod engine;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod figures;
pub mod json;
pub mod report;
pub mod shutdown;
pub mod suite;

pub use classify::{run_classifier, ClassifiedRun};
pub use engine::{
    BbvSink, CacheCounters, Engine, EngineError, EngineStats, FailureCause, FailureReport,
    GroupTelemetry, LaneFailure, LaneTelemetry, Pending, PendingTables, SimPointRun, StageNanos,
    SweepError, TelemetrySnapshot,
};
pub use json::Json;
pub use report::Table;
pub use suite::{CacheError, CacheLoad, SuiteParams, TraceCache};
