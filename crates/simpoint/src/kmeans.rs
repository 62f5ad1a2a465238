//! Seeded k-means with k-means++ initialization.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index per point.
    pub assignments: Vec<usize>,
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances from points to their centroids.
    pub distortion: f64,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the centroid nearest to `p`; the first one wins a tie.
///
/// # Panics
///
/// Panics if a distance compared is NaN.
fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = sq_dist(p, &centroids[0]);
    for (c, centroid) in centroids.iter().enumerate().skip(1) {
        let d = sq_dist(p, centroid);
        if best_d.partial_cmp(&d).expect("distances are finite") == Ordering::Greater {
            best = c;
            best_d = d;
        }
    }
    best
}

/// Index of the point farthest from its assigned centroid; the last one
/// wins a tie.
///
/// # Panics
///
/// Panics if a distance compared is NaN.
fn farthest(points: &[Vec<f64>], centroids: &[Vec<f64>], assignments: &[usize]) -> usize {
    let dist = |i: usize| sq_dist(&points[i], &centroids[assignments[i]]);
    let mut far = 0;
    let mut far_d = dist(0);
    for i in 1..points.len() {
        let d = dist(i);
        if far_d.partial_cmp(&d).expect("finite") != Ordering::Greater {
            far = i;
            far_d = d;
        }
    }
    far
}

/// Runs k-means on `points` with `k` clusters.
///
/// Initialization is k-means++ driven by a seeded RNG, so results are fully
/// reproducible. Each point goes to its nearest centroid, the lowest index
/// on a tie. Empty clusters are re-seeded to the point farthest from its
/// centroid, the highest index on a tie. Each step computes every distance
/// it compares once.
///
/// # Panics
///
/// Panics if `points` is empty, `k` is zero, points have inconsistent
/// dimensionality, or a distance compared is NaN.
///
/// # Example
///
/// ```
/// use tpcp_simpoint::kmeans;
///
/// let points = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
/// ];
/// let result = kmeans(&points, 2, 100, 42);
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[3]);
/// ```
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> KmeansResult {
    assert!(!points.is_empty(), "kmeans needs at least one point");
    assert!(k > 0, "k must be positive");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "all points must share dimensionality"
    );
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let mut min_d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = min_d2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with current centroids; pick arbitrary.
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
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = nearest(p, &centroids);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update step.
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
        // Re-seed empty clusters with the globally farthest point. No point
        // is assigned to an empty cluster, so re-seeding one moves no
        // point's centroid, and every empty cluster gets the same point.
        if counts.contains(&0) {
            let far = farthest(points, &centroids, &assignments);
            for (ci, &count) in counts.iter().enumerate() {
                if count == 0 {
                    centroids[ci] = points[far].clone();
                }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: (f64, f64), n: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let angle = i as f64 * 2.399963; // golden-angle spiral
                vec![
                    center.0 + spread * angle.cos() * (i as f64 / n as f64),
                    center.1 + spread * angle.sin() * (i as f64 / n as f64),
                ]
            })
            .collect()
    }

    #[test]
    fn separates_well_spaced_blobs() {
        let mut points = blob((0.0, 0.0), 30, 0.5);
        points.extend(blob((10.0, 10.0), 30, 0.5));
        let r = kmeans(&points, 2, 100, 1);
        let first = r.assignments[0];
        assert!(r.assignments[..30].iter().all(|&a| a == first));
        assert!(r.assignments[30..].iter().all(|&a| a != first));
    }

    #[test]
    fn k_one_groups_everything() {
        let points = blob((3.0, 3.0), 20, 1.0);
        let r = kmeans(&points, 1, 50, 0);
        assert!(r.assignments.iter().all(|&a| a == 0));
        assert_eq!(r.centroids.len(), 1);
    }

    #[test]
    fn k_capped_at_point_count() {
        let points = vec![vec![0.0], vec![1.0]];
        let r = kmeans(&points, 10, 50, 0);
        assert!(r.centroids.len() <= 2);
    }

    #[test]
    fn deterministic_for_seed() {
        let points = blob((0.0, 0.0), 40, 2.0);
        let a = kmeans(&points, 3, 100, 9);
        let b = kmeans(&points, 3, 100, 9);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.distortion, b.distortion);
    }

    #[test]
    fn more_clusters_never_increase_distortion_much() {
        let mut points = blob((0.0, 0.0), 25, 1.0);
        points.extend(blob((8.0, 0.0), 25, 1.0));
        points.extend(blob((0.0, 8.0), 25, 1.0));
        let d2 = kmeans(&points, 2, 100, 4).distortion;
        let d3 = kmeans(&points, 3, 100, 4).distortion;
        assert!(d3 < d2, "the true k should fit better: {d3} vs {d2}");
    }

    #[test]
    fn identical_points_converge() {
        let points = vec![vec![1.0, 1.0]; 10];
        let r = kmeans(&points, 3, 50, 7);
        assert!(r.distortion < 1e-12);
    }

    /// Two values, each twice, in four clusters: k-means++ seeds one
    /// centroid on each value and the other two on copies of them (its
    /// distance total is zero by then), whatever the seed. Each point then
    /// ties between coincident centroids and joins the first, leaving two
    /// clusters empty; every point sits at distance zero from its centroid,
    /// so the last point, 2.0, re-seeds both.
    #[test]
    fn ties_go_to_the_first_nearest_centroid_and_the_last_farthest_point() {
        let points = vec![vec![0.0], vec![2.0], vec![0.0], vec![2.0]];
        for seed in 0..32 {
            let r = kmeans(&points, 4, 50, seed);
            let first = |v: f64| r.centroids.iter().position(|c| c[0] == v);
            let (zero, two) = (first(0.0).unwrap(), first(2.0).unwrap());
            assert_eq!(r.assignments, [zero, two, zero, two], "seed {seed}: {r:?}");
            let twos = r.centroids.iter().filter(|c| c[0] == 2.0).count();
            assert_eq!(twos, 3, "seed {seed}: {r:?}");
            assert_eq!(r.distortion, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "distances are finite")]
    fn nan_distance_rejected() {
        kmeans(&[vec![0.0], vec![f64::NAN]], 2, 10, 0);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_rejected() {
        kmeans(&[], 2, 10, 0);
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn ragged_input_rejected() {
        kmeans(&[vec![1.0], vec![1.0, 2.0]], 1, 10, 0);
    }
}
