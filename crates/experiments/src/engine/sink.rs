//! Lane and sink implementations the sweep fans intervals into.
//!
//! Two layers consume a trace's interval stream:
//!
//! - **Raw lanes** implement [`IntervalSink`] directly and see the
//!   unclassified event stream (arbitrary user sinks, and the group's
//!   one shared BBV collection for SimPoint, [`SimPointLane`]).
//! - **Classifier lanes** wrap one [`PhaseClassifier`] configuration and
//!   forward each classified interval to attached
//!   [`PhaseObserver`](tpcp_core::PhaseObserver) probes — predictors,
//!   accumulators — so any number of measurements share one
//!   classification pass.

use tpcp_core::{
    AnyExtractor, ClassifierConfig, ExtractorKind, PhaseClassifier, PhaseId, PhaseObserver,
};
use tpcp_metrics::{CovAccumulator, RunAccumulator};
use tpcp_simpoint::{SimPointClassifier, SimPointConfig, SimPointResult};
use tpcp_trace::{BbvSink, BbvTrace, BranchEvent, Frame, IntervalSink, IntervalSummary};

use crate::classify::ClassifiedRun;
use crate::engine::error::{EngineError, FailureHandle};
use crate::engine::Pending;

/// A type-erased consumer of one lane's classified interval stream.
pub(crate) trait PhaseSink: Send {
    /// Sees each interval's phase ID and summary, in execution order.
    fn observe_phase(&mut self, id: PhaseId, summary: &IntervalSummary);
    /// Called once after the trace ends, with the lane's final run.
    fn finish(self: Box<Self>, run: &ClassifiedRun);
    /// A hook that fails the sink's result cell if it is still unset.
    fn failure_handle(&self) -> FailureHandle;
}

/// A typed [`PhaseObserver`] plus a reduction that fills a [`Pending`]
/// cell once the lane finishes. Keeping the observer type un-erased until
/// `finish` means reductions read concrete predictor state without
/// downcasts.
pub(crate) struct Probe<T, R, F> {
    observer: T,
    reduce: F,
    cell: Pending<R>,
}

impl<T, R, F> Probe<T, R, F> {
    pub(crate) fn new(observer: T, reduce: F, cell: Pending<R>) -> Self {
        Self {
            observer,
            reduce,
            cell,
        }
    }
}

impl<T, R, F> PhaseSink for Probe<T, R, F>
where
    T: PhaseObserver + Send + 'static,
    R: Send + 'static,
    F: FnOnce(T, &ClassifiedRun) -> R + Send + 'static,
{
    fn observe_phase(&mut self, id: PhaseId, summary: &IntervalSummary) {
        self.observer.observe_phase(id, summary);
    }

    fn finish(self: Box<Self>, run: &ClassifiedRun) {
        let this = *self;
        this.cell.set((this.reduce)(this.observer, run));
    }

    fn failure_handle(&self) -> FailureHandle {
        self.cell.failure_handle()
    }
}

/// One classifier configuration's lane: classifies the interval stream,
/// accumulates the standard [`ClassifiedRun`] measurements, and fans each
/// classified interval to the attached probes.
pub(crate) struct ClassifierLane {
    config: ClassifierConfig,
    classifier: PhaseClassifier,
    ids: Vec<PhaseId>,
    cpis: Vec<f64>,
    cov: CovAccumulator,
    runs: RunAccumulator,
    sinks: Vec<Box<dyn PhaseSink>>,
    cells: Vec<Pending<ClassifiedRun>>,
    /// Fault injection: panic when `ids.len()` reaches this interval.
    #[cfg(feature = "fault-inject")]
    panic_at: Option<u64>,
}

impl ClassifierLane {
    pub(crate) fn new(config: ClassifierConfig) -> Self {
        Self {
            config,
            classifier: PhaseClassifier::new(config),
            ids: Vec::new(),
            cpis: Vec::new(),
            cov: CovAccumulator::new(),
            runs: RunAccumulator::new(),
            sinks: Vec::new(),
            cells: Vec::new(),
            #[cfg(feature = "fault-inject")]
            panic_at: None,
        }
    }

    pub(crate) fn config(&self) -> ClassifierConfig {
        self.config
    }

    /// A human-readable label for failure reports: the lane *is* its
    /// classifier configuration.
    pub(crate) fn label(&self) -> String {
        format!("{:?}", self.config)
    }

    /// Arms an injected panic at the given 0-based interval.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn set_panic_at(&mut self, interval: u64) {
        self.panic_at = Some(interval);
    }

    /// Requests a copy of the lane's final [`ClassifiedRun`].
    pub(crate) fn request_run(&mut self) -> Pending<ClassifiedRun> {
        let cell = Pending::new();
        self.cells.push(cell.clone());
        cell
    }

    pub(crate) fn attach(&mut self, sink: Box<dyn PhaseSink>) {
        self.sinks.push(sink);
    }

    /// The lane's extractor shape — the key the sweep groups lanes by
    /// when sharing accumulation front-ends. Two lanes share a front-end
    /// exactly when they agree on both the feature back-end and the
    /// signature dimensionality.
    pub(crate) fn extractor_shape(&self) -> (ExtractorKind, usize) {
        (self.config.extractor, self.config.accumulators)
    }

    /// The lane's feature back-end label, for telemetry exports.
    pub(crate) fn extractor_label(&self) -> &'static str {
        self.config.extractor.label()
    }

    /// Interval boundary on the shared-accumulation path: classifies the
    /// group's finished extractor snapshot instead of a lane-owned one.
    pub(crate) fn end_interval_shared(
        &mut self,
        features: &AnyExtractor,
        summary: &IntervalSummary,
    ) {
        #[cfg(feature = "fault-inject")]
        if self.panic_at == Some(self.ids.len() as u64) {
            panic!("fault-inject: lane panic at interval {}", self.ids.len());
        }
        let cpi = summary.cpi();
        let id = self
            .classifier
            .end_interval_from_detailed(features, cpi)
            .phase_id;
        self.ids.push(id);
        self.cpis.push(cpi);
        self.cov.observe(id, cpi);
        self.runs.observe(id);
        for sink in &mut self.sinks {
            sink.observe_phase(id, summary);
        }
    }

    /// Appends failure hooks for every cell this lane (and its attached
    /// probes) would fill.
    pub(crate) fn collect_failure_handles(&self, out: &mut Vec<FailureHandle>) {
        for cell in &self.cells {
            out.push(cell.failure_handle());
        }
        for sink in &self.sinks {
            out.push(sink.failure_handle());
        }
    }

    /// Resolves every still-unset cell the lane would have filled to
    /// `err` — called when the lane dies mid-sweep while its siblings
    /// carry on.
    pub(crate) fn fail(self, err: &EngineError) {
        for cell in &self.cells {
            cell.fail_if_unset(err);
        }
        for sink in &self.sinks {
            sink.failure_handle()(err);
        }
    }

    /// Finalizes the lane: builds the [`ClassifiedRun`], runs every
    /// probe's reduction against it, and fills all requested run cells.
    pub(crate) fn finish(self) {
        let run = ClassifiedRun {
            ids: self.ids,
            cpis: self.cpis,
            phases_created: self.classifier.phases_created(),
            transition_fraction: self.classifier.transition_fraction(),
            cov: self.cov.finish(),
            runs: self.runs.finish(),
        };
        for sink in self.sinks {
            sink.finish(&run);
        }
        for cell in self.cells {
            cell.set(run.clone());
        }
    }
}

/// A raw lane: an [`IntervalSink`] that can be finalized after the sweep.
pub(crate) trait ErasedLane: IntervalSink + Send {
    fn finish(self: Box<Self>);
    /// Appends hooks that fail the lane's result cells if still unset.
    fn collect_failure_handles(&self, out: &mut Vec<FailureHandle>);
}

/// A typed raw sink plus the reduction that fills its [`Pending`] cell.
pub(crate) struct RawProbe<S, R, F> {
    sink: S,
    reduce: F,
    cell: Pending<R>,
}

impl<S, R, F> RawProbe<S, R, F> {
    pub(crate) fn new(sink: S, reduce: F, cell: Pending<R>) -> Self {
        Self { sink, reduce, cell }
    }
}

impl<S: IntervalSink, R, F> IntervalSink for RawProbe<S, R, F> {
    fn observe(&mut self, ev: &BranchEvent) {
        self.sink.observe(ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        self.sink.observe_frame(frame);
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        self.sink.end_interval(summary);
    }
}

impl<S, R, F> ErasedLane for RawProbe<S, R, F>
where
    S: IntervalSink + Send + 'static,
    R: Send + 'static,
    F: FnOnce(S) -> R + Send + 'static,
{
    fn finish(self: Box<Self>) {
        let this = *self;
        this.cell.set((this.reduce)(this.sink));
    }

    fn collect_failure_handles(&self, out: &mut Vec<FailureHandle>) {
        out.push(self.cell.failure_handle());
    }
}

/// One trace's basic block vectors and their default-configuration
/// SimPoint clustering: what every
/// [`Engine::simpoint`](crate::Engine::simpoint) registration reduces.
#[derive(Debug, Clone)]
pub struct SimPointRun {
    /// Per-interval BBVs and summaries, in execution order.
    pub bbvs: BbvTrace,
    /// The [`SimPointConfig::default`] clustering of `bbvs`.
    pub clustering: SimPointResult,
}

/// A group's one BBV collection and SimPoint clustering, shared the way
/// repeat `classified` registrations share a classifier lane: one sink,
/// one clustering after the replay, then one reduction into its own cell
/// per registration, all on the sweep worker.
#[derive(Default)]
pub(crate) struct SimPointLane {
    bbvs: BbvSink,
    reductions: Vec<Box<dyn SimPointReduction>>,
}

impl SimPointLane {
    /// Adds a registration: `reduce` turns the shared run into its cell.
    pub(crate) fn register<R, F>(&mut self, reduce: F) -> Pending<R>
    where
        R: Send + 'static,
        F: FnOnce(&SimPointRun) -> R + Send + 'static,
    {
        let cell = Pending::new();
        self.reductions.push(Box::new((reduce, cell.clone())));
        cell
    }
}

impl IntervalSink for SimPointLane {
    fn observe(&mut self, ev: &BranchEvent) {
        self.bbvs.observe(ev);
    }

    fn observe_frame(&mut self, frame: &Frame<'_>) {
        self.bbvs.observe_frame(frame);
    }

    fn end_interval(&mut self, summary: &IntervalSummary) {
        self.bbvs.end_interval(summary);
    }
}

impl ErasedLane for SimPointLane {
    fn finish(self: Box<Self>) {
        let this = *self;
        let bbvs = this.bbvs.into_trace();
        let clustering = SimPointClassifier::new(SimPointConfig::default()).classify(&bbvs);
        let run = SimPointRun { bbvs, clustering };
        for reduction in this.reductions {
            reduction.finish(&run);
        }
    }

    fn collect_failure_handles(&self, out: &mut Vec<FailureHandle>) {
        out.extend(self.reductions.iter().map(|r| r.failure_handle()));
    }
}

/// One [`SimPointLane`] registration, type-erased: its reduction and the
/// cell it fills.
trait SimPointReduction: Send {
    fn finish(self: Box<Self>, run: &SimPointRun);
    fn failure_handle(&self) -> FailureHandle;
}

impl<R, F> SimPointReduction for (F, Pending<R>)
where
    R: Send + 'static,
    F: FnOnce(&SimPointRun) -> R + Send + 'static,
{
    fn finish(self: Box<Self>, run: &SimPointRun) {
        let (reduce, cell) = *self;
        cell.set(reduce(run));
    }

    fn failure_handle(&self) -> FailureHandle {
        self.1.failure_handle()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tpcp_trace::{
        drive, encode_trace, BbvBuilder, IntervalSource, PhaseSpec, StreamingDecoder,
        SyntheticTrace,
    };

    /// The sink fed decoded frames (each pair added once, times its
    /// count) collects the BBVs a builder fed every event does.
    #[test]
    fn bbv_sink_matches_collect() {
        let trace = SyntheticTrace::new(5_000)
            .phase(PhaseSpec::uniform(0x1000, 4, 1.0))
            .schedule(&[(0, 10)])
            .generate();
        let mut direct = BbvTrace::default();
        let mut builder = BbvBuilder::new();
        let mut replay = trace.replay();
        while let Some(summary) = replay.next_interval(&mut |ev| builder.observe(ev)) {
            direct.vectors.push(builder.finish());
            direct.summaries.push(summary);
        }

        let bytes = encode_trace(&trace);
        let mut sink = BbvSink::new();
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let mut sinks: Vec<&mut dyn IntervalSink> = vec![&mut sink];
        drive(&mut decoder, &mut sinks);
        let via_sink = sink.into_trace();

        assert_eq!(direct.vectors, via_sink.vectors);
        assert_eq!(direct.summaries, via_sink.summaries);
        assert_eq!(BbvTrace::collect(trace.replay()).vectors, direct.vectors);
    }

    #[test]
    fn interval_source_and_lane_agree_on_interval_count() {
        let trace = SyntheticTrace::new(5_000)
            .phase(PhaseSpec::uniform(0x1000, 4, 1.0))
            .schedule(&[(0, 8)])
            .generate();
        let n = trace.replay().drain_summaries().len();
        let mut sink = BbvSink::new();
        let mut replay = trace.replay();
        let mut sinks: Vec<&mut dyn IntervalSink> = vec![&mut sink];
        let driven = drive(&mut replay, &mut sinks);
        assert_eq!(driven, n);
    }
}
