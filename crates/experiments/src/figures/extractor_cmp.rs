//! Cross-technique comparison: the same classification machinery driven
//! by each feature back-end ([`ExtractorKind::ALL`]) over every workload
//! model, in one replay pass.
//!
//! Three panels per the transition-phase evaluation's axes: number of
//! phases created, fraction of execution classified into the transition
//! phase, and CPI homogeneity (weighted CoV) of the resulting phases.
//! The BBV column is the paper's architecture; working-set and
//! branch-mix columns show how much of the phase structure survives when
//! the signature captures *which* code ran or *how its branches went*
//! instead of how much of each code region executed.
//!
//! Expected shape: BBV gives the tightest CPI homogeneity; the
//! working-set bitmap finds similar phase boundaries with coarser CPI
//! spread (it cannot separate phases that touch the same code at
//! different intensities); branch-mix sits between, separating
//! data-dependent behaviour changes BBV merges.

use tpcp_core::{ClassifierConfig, ExtractorKind};

use crate::engine::{Engine, PendingTables};
use crate::figures::{avg, benchmarks};
use crate::report::{pct, Table};
use crate::suite::{SuiteParams, TraceCache};

/// The compared back-ends, in [`ExtractorKind::ALL`] order.
pub const EXTRACTORS: [ExtractorKind; 3] = ExtractorKind::ALL;

/// The paper's configuration with only the feature back-end swapped, so
/// column differences are attributable to the extractor alone.
fn config_for(kind: ExtractorKind) -> ClassifierConfig {
    ClassifierConfig::builder()
        .accumulators(16)
        .table_entries(Some(32))
        .extractor(kind)
        .build()
}

/// Registers the comparison's classifications on `engine`; the returned
/// closure renders the three panels once the engine has run. All three
/// lanes of a benchmark join one trace group, so the engine replays each
/// trace once and shares nothing *across* extractors — each kind gets its
/// own front-end, which also serves (by folding) any narrower lanes of
/// that kind other figures put in the group.
pub fn register(engine: &mut Engine) -> PendingTables {
    let cells: Vec<Vec<_>> = benchmarks()
        .iter()
        .map(|&kind| {
            EXTRACTORS
                .iter()
                .map(|&extractor| engine.classified(kind, config_for(extractor)))
                .collect()
        })
        .collect();

    Box::new(move || {
        let mut header = vec!["bench".to_owned()];
        header.extend(EXTRACTORS.iter().map(|e| e.label().to_owned()));

        let mut phases_table = Table::new(
            "Extractor comparison (left): number of phases",
            header.clone(),
        );
        let mut trans_table = Table::new(
            "Extractor comparison (middle): transition time (%)",
            header.clone(),
        );
        let mut cov_table = Table::new("Extractor comparison (right): CPI CoV (%)", header);

        let n = EXTRACTORS.len();
        let mut phase_cols = vec![Vec::new(); n];
        let mut trans_cols = vec![Vec::new(); n];
        let mut cov_cols = vec![Vec::new(); n];

        for (kind, row_cells) in benchmarks().iter().zip(&cells) {
            let mut rows: [Vec<String>; 3] = [
                vec![kind.label().to_owned()],
                vec![kind.label().to_owned()],
                vec![kind.label().to_owned()],
            ];
            for (i, cell) in row_cells.iter().enumerate() {
                let run = cell.take();
                let cov = run.cov.weighted_cov();
                phase_cols[i].push(run.phases_created as f64);
                trans_cols[i].push(run.transition_fraction);
                cov_cols[i].push(cov);
                rows[0].push(run.phases_created.to_string());
                rows[1].push(pct(run.transition_fraction));
                rows[2].push(pct(cov));
            }
            let [r0, r1, r2] = rows;
            phases_table.row(r0);
            trans_table.row(r1);
            cov_table.row(r2);
        }

        let avg_row = |cols: &[Vec<f64>], as_pct: bool| {
            let mut row = vec!["avg".to_owned()];
            for col in cols {
                row.push(if as_pct {
                    pct(avg(col))
                } else {
                    format!("{:.0}", avg(col))
                });
            }
            row
        };
        phases_table.row(avg_row(&phase_cols, false));
        trans_table.row(avg_row(&trans_cols, true));
        cov_table.row(avg_row(&cov_cols, true));

        vec![phases_table, trans_table, cov_table]
    })
}

/// Runs the comparison and renders its three panels.
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
    fn quick_run_produces_three_panels_in_one_replay() {
        let cache = crate::suite::test_cache();
        let mut engine = Engine::new(SuiteParams::quick());
        let pending = register(&mut engine);
        let stats = engine.run(&cache);
        let tables = pending();
        assert_eq!(tables.len(), 3);
        assert!(
            stats.max_replays_per_trace() <= 1,
            "three extractors must share one replay pass"
        );
        assert!(stats.failure_report().is_empty());
        // Every lane's back-end is visible in the telemetry.
        let labels: std::collections::BTreeSet<&str> = stats
            .telemetry()
            .groups()
            .values()
            .flat_map(|g| g.lanes.iter().map(|l| l.extractor.as_str()))
            .collect();
        for kind in EXTRACTORS {
            assert!(
                labels.contains(kind.label()),
                "missing {kind} in {labels:?}"
            );
        }
    }
}
