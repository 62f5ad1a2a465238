//! The Section 4.4 / Section 7 comparison: online classification quality
//! vs. the offline SimPoint baseline.
//!
//! The paper claims the online classifier's CPI CoV and phase counts are
//! "comparable to the results of the offline phase classification
//! algorithm used in SimPoint". This experiment classifies each benchmark
//! both ways and tabulates CoV and phase counts side by side. Both
//! classifications ride the same single replay: the online classifier as
//! an engine lane, the BBV collection (SimPoint's input) and its
//! clustering as the group's one shared SimPoint registration
//! ([`Engine::simpoint`]), reduced on the sweep worker so it stays
//! parallel across benchmarks.

use tpcp_core::PhaseId;
use tpcp_metrics::CovAccumulator;
use tpcp_simpoint::{RandomProjection, SimPointConfig, SimPoints};

use crate::engine::{Engine, PendingTables, SimPointRun};
use crate::figures::benchmarks;
use crate::figures::fig7::section5_classifier;
use crate::report::{pct, Table};
use crate::suite::{SuiteParams, TraceCache};

/// Registers the SimPoint estimation experiment (see [`estimate`]); the
/// returned closure renders its table once the engine has run.
pub fn register_estimate(engine: &mut Engine) -> PendingTables {
    let cells: Vec<_> = benchmarks()
        .iter()
        .map(|&kind| engine.simpoint(kind, point_estimate))
        .collect();

    Box::new(move || {
        let mut table = Table::new(
            "SimPoint estimation: whole-program CPI from weighted points",
            vec![
                "bench".to_owned(),
                "points".to_owned(),
                "true CPI".to_owned(),
                "estimated".to_owned(),
                "error %".to_owned(),
            ],
        );
        for (kind, cell) in benchmarks().iter().zip(&cells) {
            let (truth, estimated, points) = cell.take();
            let error = if truth == 0.0 {
                0.0
            } else {
                (estimated - truth).abs() / truth
            };
            table.row(vec![
                kind.label().to_owned(),
                points.to_string(),
                format!("{truth:.3}"),
                format!("{estimated:.3}"),
                pct(error),
            ]);
        }
        vec![table]
    })
}

/// SimPoint's whole-program CPI estimate from the run's default
/// clustering: `(true CPI, estimated CPI, simulation points)`.
fn point_estimate(run: &SimPointRun) -> (f64, f64, usize) {
    let cfg = SimPointConfig::default();
    let projection = RandomProjection::new(cfg.projected_dims, cfg.seed);
    let points = SimPoints::select(&run.bbvs, &run.clustering, &projection);
    (
        SimPoints::true_cpi(&run.bbvs),
        points.estimate_cpi(&run.bbvs),
        points.points.len(),
    )
}

/// The SimPoint use case end-to-end: pick weighted simulation points per
/// benchmark and compare the CPI estimated from the points alone against
/// the true whole-program CPI.
pub fn estimate(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    let mut engine = Engine::new(*params);
    let pending = register_estimate(&mut engine);
    engine.run(cache);
    pending()
}

/// The sampling-estimator experiment: full replay vs. classic SimPoint
/// vs. two-phase stratified sampled replay, on every benchmark.
///
/// Pass 1 replays every trace once (the cheap pass): an online
/// classifier lane yields per-interval phase ids and CPIs, and the
/// group's SimPoint registration yields the classic SimPoint baseline. Phases become sampling
/// strata; a [`StratifiedPlan`](tpcp_simpoint::StratifiedPlan) (Neyman
/// allocation, deterministic
/// systematic selection) picks ~1/8 of the intervals. Pass 2 replays
/// *only those intervals* through the engine's seek-driven
/// [`ReplayPlan`](tpcp_trace::ReplayPlan) path and re-measures their
/// CPIs; the stratified estimator combines them into a whole-program CPI
/// with a standard error.
///
/// The table reports, per benchmark: the decode-work speedup of the
/// sampled pass over a full replay, the true CPI, and each estimator's
/// CPI and error — plus a final `mean` row with the mean absolute error
/// and mean speedup, the headline numbers for the sampled-replay claim.
///
/// Also returns the sampled pass's [`TelemetrySnapshot`](crate::TelemetrySnapshot) — the one whose
/// per-lane `intervals_skipped`/`bytes_skipped`/`seek_count` counters
/// show the plan at work. Pass 1's telemetry is not returned, so a caller
/// that sums the returned stage times leaves the full pass-1 replay out.
pub fn run_sampling(
    cache: &TraceCache,
    params: &SuiteParams,
) -> (Vec<Table>, crate::TelemetrySnapshot) {
    use tpcp_simpoint::{StratifiedConfig, StratifiedPlan};

    // Pass 1 (cheap): one full replay per benchmark — phase ids + CPIs
    // from the classifier lane, the SimPoint baseline from the group's
    // SimPoint registration.
    let mut pass1 = Engine::new(*params);
    let cells: Vec<_> = benchmarks()
        .iter()
        .map(|&kind| {
            let run = pass1.classified(kind, section5_classifier());
            let baseline = pass1.simpoint(kind, point_estimate);
            (kind, run, baseline)
        })
        .collect();
    pass1.run(cache);

    // Design one plan per benchmark from the cheap pass: (phase, CPI
    // band) cells are the strata, the cheap CPIs drive the Neyman
    // allocation, and the budget targets an 8x decode reduction. The
    // absolute floor of 8 samples only binds on very short traces,
    // where a deep cut is all noise and no win.
    let designs: Vec<_> = cells
        .into_iter()
        .map(|(kind, run, baseline)| {
            let run = run.take();
            let ids: Vec<u64> = run.ids.iter().map(|id| u64::from(id.value())).collect();
            let config = StratifiedConfig {
                budget: (ids.len() / 8).max(8),
                min_per_stratum: 1,
                ..StratifiedConfig::default()
            };
            let plan = StratifiedPlan::design(&ids, &run.cpis, &config);
            (kind, plan, baseline.take())
        })
        .collect();

    // Pass 2 (sampled): replay only the planned intervals, re-measuring
    // their CPIs off the seek-driven stream.
    let mut pass2 = Engine::new(*params);
    let measured: Vec<_> = designs
        .iter()
        .map(|(kind, plan, _)| {
            pass2.with_plan(*kind, plan.replay_plan());
            // A classifier lane rides the sampled stream too: it keeps
            // the pass honest (lanes see a gap-free view) and stamps the
            // skip counters into the pass's per-lane telemetry.
            let _ = pass2.classified(*kind, section5_classifier());
            pass2.interval_sink(*kind, CpiTape::default(), |tape| tape.cpis)
        })
        .collect();
    let stats = pass2.run(cache);

    let mut table = Table::new(
        "Sampled replay: stratified estimator vs full replay and SimPoint",
        vec![
            "bench".to_owned(),
            "intervals".to_owned(),
            "sampled".to_owned(),
            "speedup".to_owned(),
            "true CPI".to_owned(),
            "simpoint".to_owned(),
            "sp err %".to_owned(),
            "stratified".to_owned(),
            "strat err %".to_owned(),
            "strat SE".to_owned(),
        ],
    );
    let err_of = |est: f64, truth: f64| {
        if truth == 0.0 {
            0.0
        } else {
            (est - truth).abs() / truth
        }
    };
    let (mut sp_err_sum, mut strat_err_sum, mut speedup_sum) = (0.0, 0.0, 0.0);
    for ((kind, plan, (truth, sp_est, _)), cell) in designs.iter().zip(measured) {
        let cpis = cell.take();
        let est = plan.estimate(&cpis);
        let sp_err = err_of(*sp_est, *truth);
        let strat_err = err_of(est.cpi, *truth);
        sp_err_sum += sp_err;
        strat_err_sum += strat_err;
        speedup_sum += plan.speedup();
        table.row(vec![
            kind.label().to_owned(),
            plan.n_intervals.to_string(),
            plan.sampled_intervals().to_string(),
            format!("{:.1}x", plan.speedup()),
            format!("{truth:.3}"),
            format!("{sp_est:.3}"),
            pct(sp_err),
            format!("{:.3}", est.cpi),
            pct(strat_err),
            format!("{:.4}", est.std_error),
        ]);
    }
    let n = benchmarks().len() as f64;
    table.row(vec![
        "mean".to_owned(),
        String::new(),
        String::new(),
        format!("{:.1}x", speedup_sum / n),
        String::new(),
        String::new(),
        pct(sp_err_sum / n),
        String::new(),
        pct(strat_err_sum / n),
        String::new(),
    ]);
    (vec![table], stats.telemetry().clone())
}

/// A raw sink that tapes each interval's CPI in stream order — ascending
/// interval order, so under a sampled plan the tape is parallel to the
/// plan's selected-interval list.
#[derive(Default)]
struct CpiTape {
    cpis: Vec<f64>,
}

impl tpcp_trace::IntervalSink for CpiTape {
    fn observe(&mut self, _ev: &tpcp_trace::BranchEvent) {}
    fn observe_frame(&mut self, _frame: &tpcp_trace::Frame<'_>) {}
    fn end_interval(&mut self, summary: &tpcp_trace::IntervalSummary) {
        self.cpis.push(summary.cpi());
    }
}

/// Registers the online-vs-offline comparison; the returned closure
/// renders its table once the engine has run.
pub fn register(engine: &mut Engine) -> PendingTables {
    let cells: Vec<_> = benchmarks()
        .iter()
        .map(|&kind| {
            let online = engine.classified(kind, section5_classifier());
            let offline = engine.simpoint(kind, |run| {
                let mut cov = CovAccumulator::new();
                for (cluster, summary) in run.clustering.assignments.iter().zip(&run.bbvs.summaries)
                {
                    // Offline clusters have no transition phase; use IDs >= 1 so
                    // none is excluded from the weighted CoV.
                    cov.observe(PhaseId::new(*cluster as u32 + 1), summary.cpi());
                }
                (cov.finish(), run.clustering.k)
            });
            (online, offline)
        })
        .collect();

    Box::new(move || {
        let mut table = Table::new(
            "Section 4.4: online classifier vs offline SimPoint",
            vec![
                "bench".to_owned(),
                "online CoV%".to_owned(),
                "online #ph".to_owned(),
                "simpoint CoV%".to_owned(),
                "simpoint k".to_owned(),
            ],
        );
        for (kind, (online_cell, offline_cell)) in benchmarks().iter().zip(&cells) {
            let online = online_cell.take();
            let (offline_cov, k) = offline_cell.take();
            table.row(vec![
                kind.label().to_owned(),
                pct(online.cov.weighted_cov()),
                online.phases_created.to_string(),
                pct(offline_cov.weighted_cov()),
                k.to_string(),
            ]);
        }
        vec![table]
    })
}

/// Runs both classifiers over every benchmark and renders the comparison.
pub fn run(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    let mut engine = Engine::new(*params);
    let pending = register(&mut engine);
    engine.run(cache);
    pending()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_compares_all_benchmarks() {
        let cache = crate::suite::test_cache();
        let tables = run(&cache, &SuiteParams::quick());
        assert_eq!(tables[0].len(), 11);
    }

    /// The sampled-replay acceptance numbers on the quick suite: at least
    /// 5x mean decode speedup at no more than 2% mean absolute CPI error
    /// across all 11 models.
    #[test]
    fn sampling_estimator_meets_speedup_and_error_targets() {
        let cache = crate::suite::test_cache();
        let (tables, telemetry) = run_sampling(&cache, &SuiteParams::quick());
        assert_eq!(tables.len(), 1);
        // The sampled pass's telemetry shows the plans at work.
        assert!(telemetry
            .groups()
            .values()
            .all(|g| g.lanes.iter().all(|l| l.intervals_skipped > 0)));
        let table = &tables[0];
        assert_eq!(table.len(), 12, "11 benchmarks + mean row");
        let csv = table.to_csv();
        let mean = csv
            .lines()
            .last()
            .expect("mean row present")
            .split(',')
            .map(str::to_owned)
            .collect::<Vec<_>>();
        assert_eq!(mean[0], "mean");
        let speedup: f64 = mean[3].trim_end_matches('x').parse().expect("mean speedup");
        let strat_err: f64 = mean[8].parse().expect("mean stratified error");
        assert!(speedup >= 5.0, "mean speedup {speedup}x < 5x");
        assert!(strat_err <= 2.0, "mean stratified error {strat_err}% > 2%");
    }
}
