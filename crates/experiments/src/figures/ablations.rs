//! Ablation experiments for the design choices DESIGN.md calls out. These
//! go beyond the paper's figures: each isolates one mechanism the paper
//! introduces (or inherits) and quantifies its effect on classification
//! quality with everything else held at the paper's configuration.

use tpcp_core::{BitSelectionMode, ClassifierConfig};
use tpcp_predict::{NextPhaseBreakdown, NextPhasePredictor, PredictorKind};

use crate::classify::ClassifiedRun;
use crate::engine::{Engine, Pending, PendingTables};
use crate::figures::{avg, benchmarks};
use crate::report::{pct, Table};
use crate::suite::{SuiteParams, TraceCache};

fn run_registered(
    cache: &TraceCache,
    params: &SuiteParams,
    register: impl FnOnce(&mut Engine) -> PendingTables,
) -> Vec<Table> {
    let mut engine = Engine::new(*params);
    let pending = register(&mut engine);
    engine.run(cache);
    pending()
}

/// Registers the interval-size sweep; the returned closure renders its
/// panels once the engine has run.
pub fn register_interval_sweep(engine: &mut Engine) -> PendingTables {
    let params = *engine.params();
    let sizes = [
        params.workload.interval_size / 4,
        params.workload.interval_size,
        params.workload.interval_size * 4,
    ];
    let cells: Vec<Vec<Pending<ClassifiedRun>>> = benchmarks()
        .iter()
        .map(|&kind| {
            sizes
                .iter()
                .map(|&size| {
                    let swept = params.with_interval_size(size);
                    engine.classified_at(kind, swept, ClassifierConfig::hpca2005())
                })
                .collect()
        })
        .collect();

    Box::new(move || {
        let mut header = vec!["bench".to_owned()];
        header.extend(sizes.iter().map(|s| format!("{}k", s / 1000)));
        let mut cov_table = Table::new("Ablation: CPI CoV (%) vs interval size", header.clone());
        let mut trans_table = Table::new("Ablation: transition time (%) vs interval size", header);

        let mut cov_cols = vec![Vec::new(); sizes.len()];
        let mut trans_cols = vec![Vec::new(); sizes.len()];
        for (kind, row_cells) in benchmarks().iter().zip(&cells) {
            let mut cov_row = vec![kind.label().to_owned()];
            let mut trans_row = vec![kind.label().to_owned()];
            for (i, cell) in row_cells.iter().enumerate() {
                let run = cell.take();
                cov_cols[i].push(run.cov.weighted_cov());
                trans_cols[i].push(run.transition_fraction);
                cov_row.push(pct(run.cov.weighted_cov()));
                trans_row.push(pct(run.transition_fraction));
            }
            cov_table.row(cov_row);
            trans_table.row(trans_row);
        }
        let mut cov_avg = vec!["avg".to_owned()];
        let mut trans_avg = vec!["avg".to_owned()];
        for i in 0..sizes.len() {
            cov_avg.push(pct(avg(&cov_cols[i])));
            trans_avg.push(pct(avg(&trans_cols[i])));
        }
        cov_table.row(cov_avg);
        trans_table.row(trans_avg);
        vec![cov_table, trans_table]
    })
}

/// Interval-size sweep: the paper fixes 10M instructions but notes the
/// technique works from 1M to 100M. We sweep around our calibrated 1M.
pub fn interval_sweep(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    run_registered(cache, params, register_interval_sweep)
}

/// Registers the signature-resolution sweep; the returned closure renders
/// its panels once the engine has run.
pub fn register_bits_sweep(engine: &mut Engine) -> PendingTables {
    let bits = [2u32, 4, 6, 8, 10];
    let cells: Vec<Vec<Pending<ClassifiedRun>>> = benchmarks()
        .iter()
        .map(|&kind| {
            bits.iter()
                .map(|&b| {
                    let cfg = ClassifierConfig::builder().bits_per_dim(b).build();
                    engine.classified(kind, cfg)
                })
                .collect()
        })
        .collect();

    Box::new(move || {
        let mut header = vec!["bench".to_owned()];
        header.extend(bits.iter().map(|b| format!("{b} bits")));
        let mut cov_table = Table::new(
            "Ablation: CPI CoV (%) vs bits per dimension",
            header.clone(),
        );
        let mut ph_table = Table::new(
            "Ablation: number of phases vs bits per dimension",
            header.clone(),
        );
        let mut trans_table = Table::new(
            "Ablation: transition time (%) vs bits per dimension",
            header,
        );
        let mut cov_cols = vec![Vec::new(); bits.len()];
        let mut ph_cols = vec![Vec::new(); bits.len()];
        let mut trans_cols = vec![Vec::new(); bits.len()];
        for (kind, row_cells) in benchmarks().iter().zip(&cells) {
            let mut cov_row = vec![kind.label().to_owned()];
            let mut ph_row = vec![kind.label().to_owned()];
            let mut trans_row = vec![kind.label().to_owned()];
            for (i, cell) in row_cells.iter().enumerate() {
                let run = cell.take();
                cov_cols[i].push(run.cov.weighted_cov());
                ph_cols[i].push(run.phases_created as f64);
                trans_cols[i].push(run.transition_fraction);
                cov_row.push(pct(run.cov.weighted_cov()));
                ph_row.push(run.phases_created.to_string());
                trans_row.push(pct(run.transition_fraction));
            }
            cov_table.row(cov_row);
            ph_table.row(ph_row);
            trans_table.row(trans_row);
        }
        let mut cov_avg = vec!["avg".to_owned()];
        let mut ph_avg = vec!["avg".to_owned()];
        let mut trans_avg = vec!["avg".to_owned()];
        for i in 0..bits.len() {
            cov_avg.push(pct(avg(&cov_cols[i])));
            ph_avg.push(format!("{:.0}", avg(&ph_cols[i])));
            trans_avg.push(pct(avg(&trans_cols[i])));
        }
        cov_table.row(cov_avg);
        ph_table.row(ph_avg);
        trans_table.row(trans_avg);
        vec![cov_table, ph_table, trans_table]
    })
}

/// Signature resolution sweep: the paper found fewer than 6 bits per
/// counter classifies poorly and more than 8 adds nothing (Section 4.2).
pub fn bits_sweep(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    run_registered(cache, params, register_bits_sweep)
}

/// Registers the match-policy comparison; the returned closure renders
/// its table once the engine has run.
pub fn register_match_policy(engine: &mut Engine) -> PendingTables {
    let cells: Vec<_> = benchmarks()
        .iter()
        .map(|&kind| {
            let best =
                engine.classified(kind, ClassifierConfig::builder().best_match(true).build());
            let first =
                engine.classified(kind, ClassifierConfig::builder().best_match(false).build());
            (best, first)
        })
        .collect();

    Box::new(move || {
        let mut table = Table::new(
            "Ablation: best-match vs first-match (CPI CoV % / #phases)",
            vec![
                "bench".to_owned(),
                "best CoV".to_owned(),
                "first CoV".to_owned(),
                "best #ph".to_owned(),
                "first #ph".to_owned(),
            ],
        );
        let mut best_covs = Vec::new();
        let mut first_covs = Vec::new();
        for (kind, (best_cell, first_cell)) in benchmarks().iter().zip(&cells) {
            let best = best_cell.take();
            let first = first_cell.take();
            best_covs.push(best.cov.weighted_cov());
            first_covs.push(first.cov.weighted_cov());
            table.row(vec![
                kind.label().to_owned(),
                pct(best.cov.weighted_cov()),
                pct(first.cov.weighted_cov()),
                best.phases_created.to_string(),
                first.phases_created.to_string(),
            ]);
        }
        table.row(vec![
            "avg".to_owned(),
            pct(avg(&best_covs)),
            pct(avg(&first_covs)),
            String::new(),
            String::new(),
        ]);
        vec![table]
    })
}

/// Best-match vs first-match table search (Section 4.1, step 3: "choosing
/// the phase with the most similar signature improves the homogeneity").
pub fn match_policy(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    run_registered(cache, params, register_match_policy)
}

/// Registers the bit-selection-mode comparison; the returned closure
/// renders its table once the engine has run.
pub fn register_selection_mode(engine: &mut Engine) -> PendingTables {
    let modes = [
        ("dynamic", BitSelectionMode::Dynamic),
        // Roughly right for 1M-instruction intervals with 16 counters.
        ("static@12", BitSelectionMode::Static { low_bit: 12 }),
        // The prior work's bits 14–21 were tuned for 10M intervals with 32
        // counters; at our scale they sit too high.
        ("static@14", BitSelectionMode::Static { low_bit: 14 }),
        // Far too low: counters saturate the selected bits.
        ("static@2", BitSelectionMode::Static { low_bit: 2 }),
    ];
    let cells: Vec<Vec<Pending<ClassifiedRun>>> = benchmarks()
        .iter()
        .map(|&kind| {
            modes
                .iter()
                .map(|&(_, mode)| {
                    let cfg = ClassifierConfig::builder().bit_selection(mode).build();
                    engine.classified(kind, cfg)
                })
                .collect()
        })
        .collect();

    Box::new(move || {
        let mut header = vec!["bench".to_owned()];
        header.extend(modes.iter().map(|(n, _)| (*n).to_owned()));
        let mut table = Table::new("Ablation: CPI CoV (%) vs bit-selection mode", header);
        let mut cols = vec![Vec::new(); modes.len()];
        for (kind, row_cells) in benchmarks().iter().zip(&cells) {
            let mut row = vec![kind.label().to_owned()];
            for (i, cell) in row_cells.iter().enumerate() {
                let run = cell.take();
                cols[i].push(run.cov.weighted_cov());
                row.push(pct(run.cov.weighted_cov()));
            }
            table.row(row);
        }
        let mut avg_row = vec!["avg".to_owned()];
        for col in &cols {
            avg_row.push(pct(avg(col)));
        }
        table.row(avg_row);
        vec![table]
    })
}

/// Dynamic vs static bit selection (Section 4.2): a static selection tuned
/// for one interval length degrades when the scale changes; the dynamic
/// selection adapts.
pub fn selection_mode(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    run_registered(cache, params, register_selection_mode)
}

/// Registers the last-value confidence sweep; the returned closure renders
/// its table once the engine has run.
pub fn register_confidence_sweep(engine: &mut Engine) -> PendingTables {
    let shapes: [(u32, u8); 6] = [(1, 1), (2, 2), (2, 3), (3, 4), (3, 6), (3, 7)];
    let cells: Vec<Vec<Pending<NextPhaseBreakdown>>> = benchmarks()
        .iter()
        .map(|&kind| {
            shapes
                .iter()
                .map(|&(bits, threshold)| {
                    let p = NextPhasePredictor::new(
                        PredictorKind::last_value().with_lv_counter(bits, threshold),
                    );
                    engine.probe(kind, ClassifierConfig::hpca2005(), p, |p, _| p.breakdown())
                })
                .collect()
        })
        .collect();

    Box::new(move || {
        let mut table = Table::new(
            "Ablation: last-value confidence sweep (accuracy on covered vs coverage)",
            vec![
                "counter".to_owned(),
                "coverage %".to_owned(),
                "acc on covered %".to_owned(),
                "overall acc %".to_owned(),
            ],
        );
        let mut totals: Vec<NextPhaseBreakdown> = vec![NextPhaseBreakdown::default(); shapes.len()];
        for row_cells in &cells {
            for (slot, cell) in totals.iter_mut().zip(row_cells) {
                let b = cell.take();
                slot.correct_lv_conf += b.correct_lv_conf;
                slot.correct_lv_unconf += b.correct_lv_unconf;
                slot.incorrect_lv_unconf += b.incorrect_lv_unconf;
                slot.incorrect_lv_conf += b.incorrect_lv_conf;
            }
        }
        for (&(bits, threshold), b) in shapes.iter().zip(&totals) {
            let covered = b.correct_lv_conf + b.incorrect_lv_conf;
            let total = b.total().max(1);
            let coverage = covered as f64 / total as f64;
            let acc_covered = if covered == 0 {
                0.0
            } else {
                b.correct_lv_conf as f64 / covered as f64
            };
            table.row(vec![
                format!("{bits}-bit/thr{threshold}"),
                pct(coverage),
                pct(acc_covered),
                pct(b.accuracy()),
            ]);
        }
        vec![table]
    })
}

/// Confidence counter sweep for last-value prediction: accuracy on covered
/// (confident) predictions vs coverage, across counter shapes. The paper
/// reports "80% accuracy with 70% coverage" for its 3-bit/threshold-6
/// configuration.
pub fn confidence_sweep(cache: &TraceCache, params: &SuiteParams) -> Vec<Table> {
    run_registered(cache, params, register_confidence_sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cache(_tag: &str) -> (TraceCache, SuiteParams) {
        (crate::suite::test_cache(), SuiteParams::quick())
    }

    #[test]
    fn bits_sweep_runs() {
        let (cache, params) = quick_cache("bits");
        let tables = bits_sweep(&cache, &params);
        assert_eq!(tables.len(), 3, "CoV + #phases + transition panels");
        assert!(tables.iter().all(|t| t.len() == 12));
    }

    #[test]
    fn match_policy_runs() {
        let (cache, params) = quick_cache("match");
        assert_eq!(match_policy(&cache, &params).len(), 1);
    }

    #[test]
    fn confidence_sweep_has_monotone_coverage() {
        let (cache, params) = quick_cache("conf");
        let csv = confidence_sweep(&cache, &params)[0].to_csv();
        // Higher thresholds => lower (or equal) coverage, reading rows in
        // increasing-threshold order within the 3-bit family.
        let rows: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(rows.len(), 6);
        assert!(rows[4] >= rows[5], "thr6 coverage >= thr7: {rows:?}");
    }
}
