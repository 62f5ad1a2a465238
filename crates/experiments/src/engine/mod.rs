//! The experiment engine: a single-replay, multi-sink sweep driver.
//!
//! Every figure in this crate used to own a replay loop: load a trace,
//! walk its intervals, feed a classifier, feed the classifier's phase IDs
//! into whatever accumulator or predictor the figure measures. Running
//! several figures meant decoding and replaying the same traces once per
//! figure per configuration.
//!
//! The engine inverts that. Experiments *register* interest up front —
//! "classify benchmark X under config C", "attach this predictor to that
//! classification", "cluster X's BBVs with SimPoint" — and receive [`Pending`]
//! handles. [`Engine::run`] then replays each distinct `(benchmark,
//! params)` trace **exactly once**, fanning every interval out to all
//! registered lanes, and fills the handles. The sweep is two-level:
//! benchmarks are swept concurrently on scoped threads, a
//! group's classifier lanes share one accumulation pass per extractor
//! kind (narrower shapes are exact folds of the widest table of their
//! kind), and wide groups shard their lanes across spare workers (see
//! DESIGN.md). Results are deterministic because
//! each handle is written by exactly one lane regardless of thread
//! scheduling. Worker count is an [`Engine::with_workers`] knob,
//! overridable via the `TPCP_WORKERS` environment variable.
//!
//! ```no_run
//! use tpcp_core::ClassifierConfig;
//! use tpcp_experiments::{Engine, SuiteParams, TraceCache};
//! use tpcp_workloads::BenchmarkKind;
//!
//! let mut engine = Engine::new(SuiteParams::default());
//! let run = engine.classified(BenchmarkKind::Mcf, ClassifierConfig::hpca2005());
//! let stats = engine.run(&TraceCache::default_location());
//! assert_eq!(stats.max_replays_per_trace(), 1);
//! println!("mcf CoV = {}", run.take().cov.weighted_cov());
//! ```

// The engine is the part of the codebase that must degrade, not die:
// every panic escape hatch in this module tree is either proven
// unreachable (and allow-listed with its invariant) or routed through
// the structured failure path.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod sink;
mod sweep;
mod telemetry;

use std::sync::{Arc, Mutex};

use tpcp_core::{ClassifierConfig, PhaseObserver};
use tpcp_trace::{IntervalSink, ReplayPlan};
use tpcp_workloads::BenchmarkKind;

use crate::classify::ClassifiedRun;
use crate::report::Table;
use crate::suite::SuiteParams;

use error::{lock_ignore_poison, FailureHandle};
use sink::{ClassifierLane, ErasedLane, Probe, RawProbe, SimPointLane};

pub use error::{EngineError, FailureCause, FailureReport, LaneFailure, SweepError};
pub use sink::SimPointRun;
pub use sweep::EngineStats;
pub use telemetry::{CacheCounters, GroupTelemetry, LaneTelemetry, StageNanos, TelemetrySnapshot};
pub use tpcp_trace::BbvSink;

/// A figure's deferred output: registration happens before the sweep,
/// table construction after it.
pub type PendingTables = Box<dyn FnOnce() -> Vec<Table>>;

/// A handle to a result the engine has not produced yet.
///
/// Returned by every [`Engine`] registration method; read it with
/// [`Pending::take`] (or the fallible [`Pending::try_take`]) after
/// [`Engine::run`] completes. If the lane or group backing the handle
/// failed, the handle resolves to an [`EngineError`] instead of a value.
#[derive(Debug)]
pub struct Pending<T>(Arc<Mutex<Option<Result<T, EngineError>>>>);

impl<T> Clone for Pending<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Pending<T> {
    fn new() -> Self {
        Self(Arc::new(Mutex::new(None)))
    }

    pub(crate) fn set(&self, value: T) {
        *lock_ignore_poison(&self.0) = Some(Ok(value));
    }

    /// Resolves the cell to `err` — but only if its lane never filled it.
    /// A lane that finished before its group failed keeps its value.
    pub(crate) fn fail_if_unset(&self, err: &EngineError) {
        let mut slot = lock_ignore_poison(&self.0);
        if slot.is_none() {
            *slot = Some(Err(err.clone()));
        }
    }

    /// Takes the produced value.
    ///
    /// # Panics
    ///
    /// Panics if the engine has not run yet, if the value was already
    /// taken, or if the backing lane failed (use
    /// [`try_take`](Self::try_take) to handle failures gracefully).
    pub fn take(&self) -> T {
        match self.try_take() {
            Ok(value) => value,
            Err(e) => panic!("engine lane failed: {e}"),
        }
    }

    /// Takes the produced value, or the [`EngineError`] that kept the
    /// backing lane from producing one.
    ///
    /// # Panics
    ///
    /// Panics if the engine has not run yet or the value was already
    /// taken — those are caller sequencing bugs, not lane failures.
    pub fn try_take(&self) -> Result<T, EngineError> {
        // Invariant, not a runtime failure: `Engine::run` fills or fails
        // every registered cell exactly once before returning.
        #[allow(clippy::expect_used)]
        lock_ignore_poison(&self.0)
            .take()
            .expect("Pending::take before Engine::run (or taken twice)")
    }

    /// A type-erased hook that fails this cell if it is still unset —
    /// collected before a group's replay is moved into `catch_unwind`.
    pub(crate) fn failure_handle(&self) -> FailureHandle
    where
        T: Send + 'static,
    {
        let cell = self.clone();
        Box::new(move |err| cell.fail_if_unset(err))
    }
}

/// One trace's worth of registered work: every lane that wants the
/// `(benchmark, params)` interval stream.
pub(crate) struct TraceGroup {
    pub(crate) kind: BenchmarkKind,
    pub(crate) params: SuiteParams,
    pub(crate) lanes: Vec<ClassifierLane>,
    pub(crate) raw: Vec<Box<dyn ErasedLane>>,
    /// The group's one BBV collection and SimPoint clustering, if any
    /// registration asked for it.
    pub(crate) simpoint: Option<SimPointLane>,
    /// Which intervals of the trace the group's single replay decodes
    /// through the seek-driven [`PlannedReplay`](tpcp_trace::PlannedReplay).
    /// Defaults to [`ReplayPlan::full`].
    pub(crate) plan: ReplayPlan,
}

impl TraceGroup {
    /// Failure hooks for every cell registered anywhere in the group —
    /// harvested before the group is consumed by a replay that may panic.
    pub(crate) fn failure_handles(&self) -> Vec<FailureHandle> {
        let mut handles = Vec::new();
        for lane in &self.lanes {
            lane.collect_failure_handles(&mut handles);
        }
        for raw in &self.raw {
            raw.collect_failure_handles(&mut handles);
        }
        if let Some(simpoint) = &self.simpoint {
            simpoint.collect_failure_handles(&mut handles);
        }
        handles
    }
}

/// Collects registered experiment lanes, then sweeps every needed trace
/// once (see the [module docs](self)).
pub struct Engine {
    params: SuiteParams,
    groups: Vec<TraceGroup>,
    workers: Option<usize>,
    pub(crate) cancel: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<crate::fault::FaultInjector>>,
}

impl Engine {
    /// Creates an empty engine whose registrations default to `params`.
    pub fn new(params: SuiteParams) -> Self {
        Self {
            params,
            groups: Vec::new(),
            workers: None,
            cancel: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// Attaches a fault injector: the sweep consults it for lane panics
    /// and replay-byte truncations (chaos tests only).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, faults: Arc<crate::fault::FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Registers a cooperative cancellation probe: the sweep polls it
    /// once per claimed group, *before* loading or replaying anything.
    /// When it returns `true`, every not-yet-started group is failed with
    /// [`FailureCause::Cancelled`] instead of being replayed — groups
    /// already mid-replay finish normally, so an interrupted run still
    /// flushes complete results for everything it got through. Binaries
    /// wire this to [`crate::shutdown::requested`] so SIGINT/SIGTERM
    /// produce a partial report instead of a dead process.
    pub fn with_cancel<F>(mut self, probe: F) -> Self
    where
        F: Fn() -> bool + Send + Sync + 'static,
    {
        self.cancel = Some(Arc::new(probe));
        self
    }

    /// Pins the sweep's worker-thread count to exactly `n` (clamped to at
    /// least 1), overriding both the `TPCP_WORKERS` environment variable
    /// and the default of one worker per available core. Use `1` for
    /// single-threaded debugging and a fixed value for reproducible perf
    /// runs.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// The default suite parameters registrations run under.
    pub fn params(&self) -> &SuiteParams {
        &self.params
    }

    fn group_mut(&mut self, kind: BenchmarkKind, params: SuiteParams) -> &mut TraceGroup {
        let idx = self
            .groups
            .iter()
            .position(|g| g.kind == kind && g.params == params);
        let idx = idx.unwrap_or_else(|| {
            self.groups.push(TraceGroup {
                kind,
                params,
                lanes: Vec::new(),
                raw: Vec::new(),
                simpoint: None,
                plan: ReplayPlan::full(),
            });
            self.groups.len() - 1
        });
        &mut self.groups[idx]
    }

    fn lane_mut(
        &mut self,
        kind: BenchmarkKind,
        params: SuiteParams,
        config: ClassifierConfig,
    ) -> &mut ClassifierLane {
        let group = self.group_mut(kind, params);
        let idx = group.lanes.iter().position(|l| l.config() == config);
        let idx = idx.unwrap_or_else(|| {
            group.lanes.push(ClassifierLane::new(config));
            group.lanes.len() - 1
        });
        &mut group.lanes[idx]
    }

    /// Restricts the replay of `kind`'s trace (at the engine's default
    /// parameters) to `plan`: only the planned intervals are decoded and
    /// fanned out, and every lane registered on the group — classifier or
    /// raw — sees the same gap-free sampled stream. The default is a full
    /// replay; setting a plan affects *all* registrations sharing the
    /// `(kind, params)` group, because the group shares one replay.
    ///
    /// A fully-covering plan ([`ReplayPlan::full`]) is bit-identical to
    /// not calling this at all. A plan that references intervals past the
    /// end of the trace fails the group loudly ([`FailureCause::Plan`]).
    pub fn with_plan(&mut self, kind: BenchmarkKind, plan: ReplayPlan) {
        let params = self.params;
        self.with_plan_at(kind, params, plan);
    }

    /// Like [`Engine::with_plan`], but at explicit suite parameters.
    pub fn with_plan_at(&mut self, kind: BenchmarkKind, params: SuiteParams, plan: ReplayPlan) {
        self.group_mut(kind, params).plan = plan;
    }

    /// Registers a classification of `kind` under `config` (at the
    /// engine's default parameters). Repeat registrations of the same
    /// `(kind, config)` share one classifier lane.
    pub fn classified(
        &mut self,
        kind: BenchmarkKind,
        config: ClassifierConfig,
    ) -> Pending<ClassifiedRun> {
        let params = self.params;
        self.classified_at(kind, params, config)
    }

    /// Like [`Engine::classified`], but at explicit suite parameters —
    /// used by sweeps that vary the trace itself (e.g. interval size).
    pub fn classified_at(
        &mut self,
        kind: BenchmarkKind,
        params: SuiteParams,
        config: ClassifierConfig,
    ) -> Pending<ClassifiedRun> {
        self.lane_mut(kind, params, config).request_run()
    }

    /// Attaches `observer` to the `(kind, config)` classifier lane: it
    /// sees every classified interval, and after the sweep `reduce` turns
    /// it (plus the lane's [`ClassifiedRun`]) into the handle's value.
    pub fn probe<T, R, F>(
        &mut self,
        kind: BenchmarkKind,
        config: ClassifierConfig,
        observer: T,
        reduce: F,
    ) -> Pending<R>
    where
        T: PhaseObserver + Send + 'static,
        R: Send + 'static,
        F: FnOnce(T, &ClassifiedRun) -> R + Send + 'static,
    {
        let params = self.params;
        let cell = Pending::new();
        self.lane_mut(kind, params, config)
            .attach(Box::new(Probe::new(observer, reduce, cell.clone())));
        cell
    }

    /// Registers a raw (unclassified) interval sink on `kind`'s trace;
    /// after the sweep `reduce` turns the sink into the handle's value.
    /// `reduce` runs on the sweep worker, so expensive post-processing
    /// here stays parallel across benchmarks.
    pub fn interval_sink<S, R, F>(&mut self, kind: BenchmarkKind, sink: S, reduce: F) -> Pending<R>
    where
        S: IntervalSink + Send + 'static,
        R: Send + 'static,
        F: FnOnce(S) -> R + Send + 'static,
    {
        let params = self.params;
        let cell = Pending::new();
        self.group_mut(kind, params)
            .raw
            .push(Box::new(RawProbe::new(sink, reduce, cell.clone())));
        cell
    }

    /// Registers a reduction of `kind`'s basic block vectors and their
    /// default-configuration SimPoint clustering ([`SimPointRun`]), the
    /// offline baseline. Every registration on a trace group shares one
    /// BBV collection riding the group's single replay and one
    /// clustering, the way repeat [`classified`](Self::classified)
    /// registrations share a lane; the clustering and each `reduce` run
    /// on the sweep worker, so they stay parallel across benchmarks.
    pub fn simpoint<R, F>(&mut self, kind: BenchmarkKind, reduce: F) -> Pending<R>
    where
        R: Send + 'static,
        F: FnOnce(&SimPointRun) -> R + Send + 'static,
    {
        let params = self.params;
        self.group_mut(kind, params)
            .simpoint
            .get_or_insert_with(SimPointLane::default)
            .register(reduce)
    }

    pub(crate) fn into_groups(self) -> Vec<TraceGroup> {
        self.groups
    }
}
