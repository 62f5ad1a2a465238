//! Two-phase stratified-sampling replay planner (Ekman & Stenström,
//! "Enhancing Multiprocessor Architecture Simulation Speed Using Matched
//! Pair Comparison" / classic survey-sampling theory applied to
//! simulation sampling).
//!
//! The planner turns a *cheap* first classification pass into a *small*
//! second measurement pass:
//!
//! 1. **Stratify.** The first pass assigns every interval a phase id and
//!    a cheap CPI proxy (the interval summaries come free with any
//!    replay). Phases are the strata: intervals inside one phase behave
//!    alike, so a few samples per phase represent the lot. A phase that
//!    still mixes regimes — above all the transition phase, which pools
//!    everything the classifier could not place — is cut at the largest
//!    gaps of its sorted CPIs so every final stratum is tight.
//! 2. **Allocate.** The measurement budget is split across strata by
//!    Neyman allocation — `n_h ∝ N_h·σ_h`, stratum size times CPI
//!    standard deviation — which minimizes the estimator's variance for
//!    a fixed total sample count. Homogeneous phases get few samples,
//!    noisy phases get many.
//! 3. **Select.** Within each stratum, members are picked by
//!    deterministic systematic sampling, evenly spaced through the
//!    stratum's members *ordered by cheap-pass CPI* (implicit
//!    stratification on the auxiliary). No RNG: a plan is reproducible
//!    from its inputs alone.
//! 4. **Estimate.** After the sampled replay, the whole-trace CPI is the
//!    stratum-size-weighted mean of the per-stratum sample means, with a
//!    finite-population-corrected standard error.
//!
//! The selected intervals become a [`ReplayPlan`] that the experiment
//! engine's seek-driven replay decodes directly, skipping everything
//! else.

use tpcp_trace::ReplayPlan;

/// Knobs for [`StratifiedPlan::design`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedConfig {
    /// Total intervals the second pass may decode. Clamped to at least
    /// `min_per_stratum` per stratum and at most the trace length.
    pub budget: usize,
    /// Floor on samples per stratum (capped at the stratum size). At
    /// least 1, so every observed phase contributes to the estimate.
    pub min_per_stratum: usize,
    /// Maximum number of CPI bands a heterogeneous phase is split into
    /// (1 disables sub-stratification). The transition phase is
    /// heterogeneous *by construction* — it pools intervals the
    /// classifier could not place — so treating it as one stratum leaves
    /// an irreducible bias no allocation can fix; cutting it at the
    /// largest gaps of its sorted cheap-pass CPIs isolates each regime
    /// into a tight band instead.
    pub cpi_bands: usize,
    /// A sorted-CPI gap cuts a phase when it exceeds this fraction of
    /// the phase's mean CPI. Smooth phases have no such gaps and stay
    /// whole, preserving the speedup.
    pub band_spread: f64,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        Self {
            budget: 30,
            min_per_stratum: 1,
            cpi_bands: 4,
            band_spread: 0.10,
        }
    }
}

/// One stratum — a (phase, CPI band) cell — of the design: its
/// population statistics from the cheap pass and the sample count Neyman
/// allocation granted it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stratum {
    /// The phase id that defines the stratum.
    pub id: u64,
    /// CPI band within the phase (0 when the phase was not split).
    pub band: usize,
    /// Intervals of the trace in this stratum (`N_h`).
    pub size: usize,
    /// Mean cheap-pass CPI over the stratum.
    pub mean_cpi: f64,
    /// Population standard deviation of the cheap-pass CPI (`σ_h`).
    pub std_cpi: f64,
    /// Samples allocated to the stratum (`n_h`, `min_per_stratum ≤ n_h ≤
    /// N_h`).
    pub allocated: usize,
}

/// A designed sampling plan: strata, the selected interval indices, and
/// the [`ReplayPlan`] that decodes exactly those intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedPlan {
    /// Strata ordered by (phase id, CPI band).
    pub strata: Vec<Stratum>,
    /// Selected interval indices, ascending, deduplicated.
    pub intervals: Vec<u64>,
    /// Trace length the plan was designed for (`N`).
    pub n_intervals: usize,
    /// Stratum index (into [`strata`](Self::strata)) of each selected
    /// interval, parallel to [`intervals`](Self::intervals).
    pub stratum_of: Vec<usize>,
}

/// The combined estimate a sampled replay yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedEstimate {
    /// Estimated whole-trace mean interval CPI: `Σ W_h · x̄_h` with
    /// `W_h = N_h / N`.
    pub cpi: f64,
    /// Finite-population-corrected standard error of the estimate:
    /// `sqrt(Σ W_h² · s_h²/n_h · (1 − n_h/N_h))`.
    pub std_error: f64,
}

impl StratifiedPlan {
    /// Designs a plan from the cheap pass: one phase id and one CPI proxy
    /// per interval.
    ///
    /// Fully deterministic — identical inputs give an identical plan.
    ///
    /// # Panics
    ///
    /// Panics if `ids` and `cpis` differ in length or are empty, or if
    /// `config.min_per_stratum` is 0.
    pub fn design(ids: &[u64], cpis: &[f64], config: &StratifiedConfig) -> Self {
        assert_eq!(ids.len(), cpis.len(), "one CPI per classified interval");
        assert!(!ids.is_empty(), "cannot design a plan for an empty trace");
        assert!(config.min_per_stratum >= 1, "min_per_stratum must be >= 1");
        let n = ids.len();

        // Group interval positions by phase id, deterministically ordered.
        let mut members: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, &id) in ids.iter().enumerate() {
            members.entry(id).or_default().push(i);
        }

        // Sub-stratify at the big *gaps* in each phase's sorted CPI
        // list. A heterogeneous phase — above all the transition phase,
        // which pools intervals the classifier could not place — is a
        // mixture of distinct regimes, and the largest CPI gaps are the
        // regime boundaries. Splitting there isolates each regime into
        // its own tight band (a lone outlier becomes a singleton band
        // and is simply sampled once); a smooth phase has no large gaps
        // and stays whole, where CPI-ordered systematic sampling is
        // already accurate. A gap counts when it exceeds `band_spread`
        // of the phase's mean CPI; the `cpi_bands − 1` largest such
        // gaps cut the phase.
        let mut cells: Vec<(u64, usize, Vec<usize>)> = Vec::new();
        for (&id, idxs) in &members {
            let mut by_cpi = idxs.clone();
            by_cpi.sort_by(|&a, &b| {
                cpis[a]
                    .partial_cmp(&cpis[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let len = by_cpi.len();
            let mean = by_cpi.iter().map(|&i| cpis[i]).sum::<f64>() / len as f64;
            let threshold = config.band_spread * mean.abs().max(f64::EPSILON);
            let mut cuts: Vec<(f64, usize)> = Vec::new();
            if config.cpi_bands > 1 {
                for w in 0..len.saturating_sub(1) {
                    let gap = cpis[by_cpi[w + 1]] - cpis[by_cpi[w]];
                    if gap > threshold {
                        cuts.push((gap, w + 1));
                    }
                }
                cuts.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                cuts.truncate(config.cpi_bands - 1);
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&(_, pos)| pos).collect();
            bounds.sort_unstable();
            bounds.push(len);
            let mut lo = 0;
            for (b, &hi) in bounds.iter().enumerate() {
                cells.push((id, b, by_cpi[lo..hi].to_vec()));
                lo = hi;
            }
        }

        // Population statistics per stratum.
        let mut strata: Vec<Stratum> = cells
            .iter()
            .map(|&(id, band, ref idxs)| {
                let size = idxs.len();
                let mean = idxs.iter().map(|&i| cpis[i]).sum::<f64>() / size as f64;
                let var = idxs
                    .iter()
                    .map(|&i| {
                        let d = cpis[i] - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / size as f64;
                Stratum {
                    id,
                    band,
                    size,
                    mean_cpi: mean,
                    std_cpi: var.sqrt(),
                    allocated: 0,
                }
            })
            .collect();

        // Neyman weights N_h·σ_h; a degenerate all-constant trace falls
        // back to proportional allocation so the budget is still spent.
        let mut weights: Vec<f64> = strata.iter().map(|s| s.size as f64 * s.std_cpi).collect();
        if weights.iter().all(|&w| w == 0.0) {
            for (w, s) in weights.iter_mut().zip(&strata) {
                *w = s.size as f64;
            }
        }

        // Floors first, then spend the rest by Neyman shares with
        // largest-remainder rounding, respecting stratum capacity. The
        // cap loop reruns when a stratum saturates, so small strata
        // cannot absorb budget they cannot hold.
        let floor_total: usize = strata
            .iter_mut()
            .map(|s| {
                s.allocated = config.min_per_stratum.min(s.size);
                s.allocated
            })
            .sum();
        let budget = config.budget.clamp(floor_total, n);
        let mut remaining = budget - floor_total;
        while remaining > 0 {
            let open: Vec<usize> = (0..strata.len())
                .filter(|&h| strata[h].allocated < strata[h].size)
                .collect();
            if open.is_empty() {
                break;
            }
            let total_w: f64 = open.iter().map(|&h| weights[h]).sum();
            // All open weights zero (their strata were exhausted in the
            // proportional fallback): spread evenly.
            let share = |h: usize| {
                if total_w > 0.0 {
                    remaining as f64 * weights[h] / total_w
                } else {
                    remaining as f64 / open.len() as f64
                }
            };
            let mut granted = 0usize;
            let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(open.len());
            for &h in &open {
                let cap = strata[h].size - strata[h].allocated;
                let want = share(h);
                let add = (want.floor() as usize).min(cap);
                strata[h].allocated += add;
                granted += add;
                if strata[h].allocated < strata[h].size {
                    fracs.push((h, want - want.floor()));
                }
            }
            let mut leftover = remaining - granted;
            if leftover > 0 {
                // Largest fractional remainder, stratum order (phase id,
                // then band) as tie-break.
                fracs.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                for (h, _) in fracs {
                    if leftover == 0 {
                        break;
                    }
                    if strata[h].allocated < strata[h].size {
                        strata[h].allocated += 1;
                        granted += 1;
                        leftover -= 1;
                    }
                }
            }
            if granted == 0 {
                break; // nothing placeable: every open stratum refused
            }
            remaining -= granted;
        }

        // Systematic selection through each stratum's members, which are
        // already ordered by cheap-pass CPI ("implicit stratification").
        // Picks spread evenly across the stratum's CPI *distribution*,
        // not its timeline, so even a single sample lands on the CPI
        // median rather than an arbitrary occurrence.
        let mut picked: Vec<(u64, usize)> = Vec::with_capacity(budget);
        for (h, (_, _, idxs)) in cells.iter().enumerate() {
            let n_h = strata[h].allocated;
            let len = idxs.len();
            for j in 0..n_h {
                let pos = ((j as f64 + 0.5) * len as f64 / n_h as f64).floor() as usize;
                picked.push((idxs[pos.min(len - 1)] as u64, h));
            }
        }
        picked.sort_unstable();
        picked.dedup();
        let (intervals, stratum_of): (Vec<u64>, Vec<usize>) = picked.into_iter().unzip();

        Self {
            strata,
            intervals,
            n_intervals: n,
            stratum_of,
        }
    }

    /// The [`ReplayPlan`] decoding exactly the selected intervals.
    pub fn replay_plan(&self) -> ReplayPlan {
        ReplayPlan::from_intervals(self.intervals.iter().copied())
    }

    /// Intervals the second pass decodes.
    pub fn sampled_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Decode-work ratio of a full replay over this plan (`N / n`).
    pub fn speedup(&self) -> f64 {
        if self.intervals.is_empty() {
            0.0
        } else {
            self.n_intervals as f64 / self.intervals.len() as f64
        }
    }

    /// Combines the sampled replay's measured CPIs — `measured[i]` is the
    /// CPI of `self.intervals[i]` — into the whole-trace estimate.
    ///
    /// # Panics
    ///
    /// Panics if `measured` is not parallel to
    /// [`intervals`](Self::intervals).
    pub fn estimate(&self, measured: &[f64]) -> StratifiedEstimate {
        assert_eq!(
            measured.len(),
            self.intervals.len(),
            "one measurement per planned interval"
        );
        let n_total = self.n_intervals as f64;
        // Per-stratum sample mean and (n_h − 1)-denominator variance.
        let mut sums = vec![0.0f64; self.strata.len()];
        let mut sq = vec![0.0f64; self.strata.len()];
        let mut counts = vec![0usize; self.strata.len()];
        for (&h, &x) in self.stratum_of.iter().zip(measured) {
            sums[h] += x;
            sq[h] += x * x;
            counts[h] += 1;
        }
        let mut cpi = 0.0;
        let mut var = 0.0;
        for (h, stratum) in self.strata.iter().enumerate() {
            let n_h = counts[h] as f64;
            if counts[h] == 0 {
                continue;
            }
            let w = stratum.size as f64 / n_total;
            let mean = sums[h] / n_h;
            cpi += w * mean;
            if counts[h] > 1 && counts[h] < stratum.size {
                let s2 = (sq[h] - n_h * mean * mean).max(0.0) / (n_h - 1.0);
                let fpc = 1.0 - n_h / stratum.size as f64;
                var += w * w * s2 / n_h * fpc;
            }
        }
        StratifiedEstimate {
            cpi,
            std_error: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two phases with very different CPI noise: ids alternate in blocks,
    /// phase 0 is flat at 1.0, phase 1 is noisy around 3.0.
    fn noisy_inputs(n: usize) -> (Vec<u64>, Vec<f64>) {
        let mut ids = Vec::with_capacity(n);
        let mut cpis = Vec::with_capacity(n);
        for i in 0..n {
            if (i / 16) % 2 == 0 {
                ids.push(0);
                cpis.push(1.0);
            } else {
                ids.push(1);
                // Deterministic "noise" with nonzero variance.
                cpis.push(3.0 + ((i * 37) % 11) as f64 / 10.0);
            }
        }
        (ids, cpis)
    }

    #[test]
    fn allocation_spends_the_budget_and_respects_caps() {
        let (ids, cpis) = noisy_inputs(256);
        let config = StratifiedConfig {
            budget: 40,
            min_per_stratum: 2,
            ..StratifiedConfig::default()
        };
        let plan = StratifiedPlan::design(&ids, &cpis, &config);
        let total: usize = plan.strata.iter().map(|s| s.allocated).sum();
        assert_eq!(total, 40);
        for s in &plan.strata {
            assert!(s.allocated >= 2.min(s.size));
            assert!(s.allocated <= s.size);
        }
        assert_eq!(plan.sampled_intervals(), 40);
        assert!(plan.speedup() > 6.0);
    }

    #[test]
    fn neyman_favors_the_noisy_stratum() {
        let (ids, cpis) = noisy_inputs(256);
        let plan = StratifiedPlan::design(
            &ids,
            &cpis,
            &StratifiedConfig {
                budget: 32,
                min_per_stratum: 1,
                cpi_bands: 1, // banding off: test pure Neyman allocation
                band_spread: 0.10,
            },
        );
        // Phase 0 has zero variance: the floor only. Phase 1 gets the rest.
        let flat = &plan.strata[0];
        let noisy = &plan.strata[1];
        assert_eq!(flat.allocated, 1, "zero-variance stratum takes the floor");
        assert_eq!(noisy.allocated, 31);
    }

    #[test]
    fn zero_variance_everywhere_falls_back_to_proportional() {
        let ids: Vec<u64> = (0..120).map(|i| u64::from(i >= 90)).collect();
        let cpis = vec![2.0; 120]; // all strata flat
        let plan = StratifiedPlan::design(
            &ids,
            &cpis,
            &StratifiedConfig {
                budget: 12,
                min_per_stratum: 1,
                ..StratifiedConfig::default()
            },
        );
        let a: Vec<usize> = plan.strata.iter().map(|s| s.allocated).collect();
        assert_eq!(a.iter().sum::<usize>(), 12);
        // 90/30 split: proportional allocation is 9/3.
        assert_eq!(a, vec![9, 3]);
    }

    #[test]
    fn design_is_deterministic_and_sorted() {
        let (ids, cpis) = noisy_inputs(200);
        let config = StratifiedConfig::default();
        let a = StratifiedPlan::design(&ids, &cpis, &config);
        let b = StratifiedPlan::design(&ids, &cpis, &config);
        assert_eq!(a, b);
        assert!(a.intervals.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.intervals.len(), a.stratum_of.len());
    }

    #[test]
    fn estimator_is_exact_when_strata_are_internally_constant() {
        // Phases with zero within-stratum variance: any sample reproduces
        // the stratum mean, so the stratified estimate is exact no matter
        // how small the budget.
        let ids: Vec<u64> = (0..300).map(|i| (i / 25) as u64 % 3).collect();
        let cpis: Vec<f64> = ids.iter().map(|&id| 1.0 + id as f64).collect();
        let plan = StratifiedPlan::design(
            &ids,
            &cpis,
            &StratifiedConfig {
                budget: 3,
                min_per_stratum: 1,
                ..StratifiedConfig::default()
            },
        );
        assert_eq!(plan.sampled_intervals(), 3, "one sample per flat phase");
        let measured: Vec<f64> = plan.intervals.iter().map(|&i| cpis[i as usize]).collect();
        let est = plan.estimate(&measured);
        let exact = cpis.iter().sum::<f64>() / cpis.len() as f64;
        assert!((est.cpi - exact).abs() < 1e-12, "{} vs {exact}", est.cpi);
        assert_eq!(est.std_error, 0.0);
        assert_eq!(plan.speedup(), 100.0);
    }

    #[test]
    fn budget_of_everything_reproduces_the_exact_mean() {
        let (ids, cpis) = noisy_inputs(128);
        let plan = StratifiedPlan::design(
            &ids,
            &cpis,
            &StratifiedConfig {
                budget: 128,
                min_per_stratum: 1,
                ..StratifiedConfig::default()
            },
        );
        assert_eq!(plan.sampled_intervals(), 128);
        let measured: Vec<f64> = plan.intervals.iter().map(|&i| cpis[i as usize]).collect();
        let est = plan.estimate(&measured);
        let exact = cpis.iter().sum::<f64>() / cpis.len() as f64;
        assert!((est.cpi - exact).abs() < 1e-12, "{} vs {exact}", est.cpi);
        assert_eq!(est.std_error, 0.0, "census has no sampling error");
    }

    #[test]
    fn small_budget_estimate_is_close_with_sane_error_bar() {
        let (ids, cpis) = noisy_inputs(512);
        let plan = StratifiedPlan::design(
            &ids,
            &cpis,
            &StratifiedConfig {
                budget: 24,
                min_per_stratum: 2,
                ..StratifiedConfig::default()
            },
        );
        let measured: Vec<f64> = plan.intervals.iter().map(|&i| cpis[i as usize]).collect();
        let est = plan.estimate(&measured);
        let exact = cpis.iter().sum::<f64>() / cpis.len() as f64;
        let err = (est.cpi - exact).abs() / exact;
        assert!(err < 0.02, "{:.4} vs {exact:.4}: {err:.3} error", est.cpi);
        assert!(est.std_error >= 0.0 && est.std_error < 0.5, "{est:?}");
        assert!(plan.speedup() > 20.0);
    }

    #[test]
    fn heterogeneous_stratum_is_banded_and_estimated_without_bias() {
        // A "transition"-like phase pooling three CPI regimes (what the
        // online classifier's phase 0 looks like) next to one tight
        // phase. As a single stratum the pooled phase biases any
        // equal-weight sample; CPI banding splits it into tight cells.
        let mut ids = Vec::new();
        let mut cpis = Vec::new();
        for i in 0..120 {
            if i % 5 == 0 {
                ids.push(0u64);
                cpis.push(match (i / 5) % 3 {
                    0 => 1.0,
                    1 => 6.0,
                    _ => 12.0,
                });
            } else {
                ids.push(1);
                cpis.push(6.0 + (i % 7) as f64 * 0.01);
            }
        }
        let plan = StratifiedPlan::design(
            &ids,
            &cpis,
            &StratifiedConfig {
                budget: 12,
                min_per_stratum: 1,
                cpi_bands: 4,
                band_spread: 0.10,
            },
        );
        assert!(
            plan.strata.iter().filter(|s| s.id == 0).count() > 1,
            "the pooled phase is split into CPI bands"
        );
        assert_eq!(
            plan.strata.iter().filter(|s| s.id == 1).count(),
            1,
            "the tight phase stays whole"
        );
        let measured: Vec<f64> = plan.intervals.iter().map(|&i| cpis[i as usize]).collect();
        let est = plan.estimate(&measured);
        let exact = cpis.iter().sum::<f64>() / cpis.len() as f64;
        let err = (est.cpi - exact).abs() / exact;
        assert!(err < 0.02, "{:.4} vs {exact:.4}: {err:.3} error", est.cpi);
    }

    #[test]
    fn replay_plan_covers_exactly_the_selected_intervals() {
        let (ids, cpis) = noisy_inputs(96);
        let plan = StratifiedPlan::design(&ids, &cpis, &StratifiedConfig::default());
        let rp = plan.replay_plan();
        assert!(!rp.is_full());
        assert_eq!(
            rp.intervals_planned(96),
            plan.sampled_intervals() as u64,
            "plan decodes exactly the selection"
        );
        // Every selected interval is inside a planned range.
        let ranges = rp.ranges().unwrap();
        for &i in &plan.intervals {
            assert!(ranges.iter().any(|&(s, e)| s <= i && i < e), "{i}");
        }
    }
}
