//! Property-based tests for the offline classifier.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpcp_simpoint::{kmeans, KmeansResult};

/// k-means as first written, kept as the reference: the same seeding and
/// update, with the assignment and re-seed steps as `min_by`/`max_by`
/// folds that compute both distances of every comparison. Those folds
/// give a tie to the first minimum and to the last maximum.
fn reference_kmeans(points: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> KmeansResult {
    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
    let dim = points[0].len();
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let mut min_d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = min_d2.iter().sum();
        let next = if total <= f64::EPSILON {
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in min_d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, centroids.last().expect("just pushed"));
            if d < min_d2[i] {
                min_d2[i] = d;
            }
        }
    }

    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    sq_dist(p, &centroids[a])
                        .partial_cmp(&sq_dist(p, &centroids[b]))
                        .expect("distances are finite")
                })
                .expect("k >= 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count > 0 {
                for (ci, &s) in c.iter_mut().zip(sum) {
                    *ci = s / count as f64;
                }
            }
        }
        for (ci, &count) in counts.iter().enumerate() {
            if count == 0 {
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(ia, a), (ib, b)| {
                        sq_dist(a, &centroids[assignments[*ia]])
                            .partial_cmp(&sq_dist(b, &centroids[assignments[*ib]]))
                            .expect("finite")
                    })
                    .map(|(i, _)| i)
                    .expect("points non-empty");
                centroids[ci] = points[far].clone();
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }

    let distortion = points
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| sq_dist(p, &centroids[a]))
        .sum();
    KmeansResult {
        assignments,
        centroids,
        distortion,
        iterations,
    }
}

/// 1–60 points of 1–3 dimensions, each a copy of one of a pool of 1–5
/// distinct points on a coarse grid, so duplicate points, coincident
/// k-means++ centroids, equidistant centroids and empty clusters are all
/// common.
fn arb_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        1usize..4,
        1usize..6,
        prop::collection::vec(any::<u64>(), 1..60),
    )
        .prop_map(|(dim, pool, picks)| {
            let grid = |x: u64| (x % 3) as f64;
            let distinct: Vec<Vec<f64>> = (0..pool as u64)
                .map(|i| {
                    (0..dim as u64)
                        .map(|d| grid(i.wrapping_mul(0x9E37_79B9) >> (2 * d)))
                        .collect()
                })
                .collect();
            picks
                .iter()
                .map(|&p| distinct[(p % pool as u64) as usize].clone())
                .collect()
        })
}

proptest! {
    /// `kmeans` equals the reference on every output, ties included.
    #[test]
    fn kmeans_matches_min_by_max_by_reference(
        points in arb_points(),
        k in 1usize..9,
        max_iters in 1usize..20,
        seed in any::<u64>(),
    ) {
        let got = kmeans(&points, k, max_iters, seed);
        let want = reference_kmeans(&points, k, max_iters, seed);
        prop_assert_eq!(&got.assignments, &want.assignments);
        prop_assert_eq!(&got.centroids, &want.centroids);
        prop_assert_eq!(got.distortion.to_bits(), want.distortion.to_bits());
        prop_assert_eq!(got.iterations, want.iterations);
    }
}
