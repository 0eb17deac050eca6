//! Brute-force k-nearest-neighbours.
//!
//! Stores its training matrix, so it is the memory-heaviest model family and
//! its inference cost grows with the training-set size (like TabPFN's, but
//! without the transformer's constant factor).

use crate::kernel;
use crate::matrix::{Matrix, Shape};
use crate::models::{Predict, Steps, Traversals};
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// k-NN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnParams {
    /// Number of neighbours.
    pub k: usize,
    /// Inverse-distance weighting (`false` = uniform votes).
    pub distance_weighted: bool,
    /// Cap on stored training rows (larger training sets are subsampled —
    /// a seeded uniform sample, not a row prefix), bounding memory and
    /// inference cost.
    pub max_train_rows: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams {
            k: 7,
            distance_weighted: true,
            max_train_rows: 2000,
        }
    }
}

/// A fitted k-NN model (a stored subsample of the training data).
#[derive(Debug, Clone, PartialEq)]
pub struct Knn {
    x: Matrix,
    y: Vec<u32>,
    k: usize,
    distance_weighted: bool,
    n_classes: usize,
}

impl Knn {
    /// "Fit": store (a seeded uniform subsample of) the training data.
    /// `seed` keys the subsample derivation; it is unused when the training
    /// set fits within `max_train_rows`.
    pub fn fit(
        params: &KnnParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        seed: u64,
    ) -> Knn {
        assert!(params.k >= 1, "k must be >= 1");
        let keep = x.rows().min(params.max_train_rows);
        let rows =
            kernel::subsample_rows(x.rows(), keep, kernel::subsample_seed(seed, x.rows(), keep));
        let stored = x.take_rows(&rows);
        let labels: Vec<u32> = rows.iter().map(|&r| y[r]).collect();
        // Fitting is a memory copy.
        tracker.charge(
            OpCounts::mem((keep * x.cols()) as f64 * 8.0 * x.feat_scale),
            ParallelProfile::batch_inference(),
        );
        Knn {
            x: stored,
            y: labels,
            k: params.k.min(keep),
            distance_weighted: params.distance_weighted,
            n_classes,
        }
    }

    /// Per-row inference cost — linear in the stored training set.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        let n = self.x.rows() as f64;
        OpCounts::scalar(3.0 * n * self.x.cols() as f64 + n * n.log2().max(1.0))
    }

    /// Stored matrix cells (memory-size proxy).
    pub fn n_stored_cells(&self) -> usize {
        self.x.rows() * self.x.cols()
    }
}

/// Probability estimates from (weighted) neighbour votes.
///
/// Neighbour selection is a partial selection (`select_nth_unstable`)
/// of the `k` smallest distances followed by a sort of only that
/// prefix, under the total order `(distance, stored-row index)` — the
/// same neighbour sequence the previous full stable sort produced, at
/// `O(n + k log k)` per query instead of `O(n log n)`. Distance and
/// index buffers are reused across queries.
impl Predict for Knn {
    fn answer(&self, x: &Matrix, _walk: &mut Traversals) -> Matrix {
        let n_train = self.x.rows();
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        let mut dists = kernel::scratch(n_train);
        let mut order: Vec<u32> = Vec::with_capacity(n_train);
        for r in 0..x.rows() {
            let query = x.row(r);
            for (t, slot) in dists.iter_mut().enumerate() {
                *slot = kernel::sq_dist(self.x.row(t), query);
            }
            order.clear();
            order.extend(0..n_train as u32);
            let cmp = |a: &u32, b: &u32| {
                dists[*a as usize]
                    .total_cmp(&dists[*b as usize])
                    .then(a.cmp(b))
            };
            if self.k < n_train {
                order.select_nth_unstable_by(self.k - 1, cmp);
            }
            order[..self.k].sort_unstable_by(cmp);
            let votes = out.row_mut(r);
            for &t in order.iter().take(self.k) {
                let w = if self.distance_weighted {
                    1.0 / (dists[t as usize].sqrt() + 1e-9)
                } else {
                    1.0
                };
                votes[self.y[t as usize] as usize] += w;
            }
            let total: f64 = votes.iter().sum();
            if total > 0.0 {
                for v in votes.iter_mut() {
                    *v /= total;
                }
            } else {
                votes.fill(1.0 / self.n_classes as f64);
            }
        }
        out
    }

    fn charge(&self, shape: Shape, _steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        // Distance computation dominates; the stored set is already capped,
        // so only the query side scales. (The charge keeps the published
        // n·log n selection term — it models the charged architecture, not
        // this implementation's partial selection.)
        let n_train = self.x.rows();
        let d = self.x.cols();
        tracker.charge(
            OpCounts::scalar((shape.rows * n_train * d) as f64 * 3.0 * shape.row_scale)
                + OpCounts::scalar(
                    shape.rows as f64
                        * (n_train as f64)
                        * (n_train as f64).log2().max(1.0)
                        * shape.row_scale,
                ),
            ParallelProfile::batch_inference(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::assert_learns;
    use crate::models::ModelSpec;

    #[test]
    fn learns_binary_task() {
        assert_learns(&ModelSpec::Knn(KnnParams::default()), 2, 0.8);
    }

    #[test]
    fn learns_multiclass_task() {
        assert_learns(&ModelSpec::Knn(KnnParams::default()), 4, 0.55);
    }

    #[test]
    fn one_nn_memorises_training_data() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let knn = Knn::fit(
            &KnnParams {
                k: 1,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut t,
            0,
        );
        let pred = crate::models::argmax_rows(&knn.predict_proba(&x, &mut t));
        assert_eq!(pred, y);
    }

    #[test]
    fn train_row_cap_bounds_inference_cost() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let capped = Knn::fit(
            &KnnParams {
                max_train_rows: 50,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut t,
            0,
        );
        let full = Knn::fit(&KnnParams::default(), &x, &y, 2, &mut t, 0);
        assert!(capped.inference_ops_per_row().total() < full.inference_ops_per_row().total());
        assert_eq!(capped.n_stored_cells(), 50 * x.cols());
    }

    #[test]
    fn subsample_covers_ordered_classes() {
        // Rows sorted by class: a prefix "subsample" would store only
        // class 0. The seeded uniform subsample must cover both.
        let x = Matrix::zeros(400, 3);
        let y: Vec<u32> = (0..400).map(|i| u32::from(i >= 200)).collect();
        let mut t = crate::models::testutil::tracker();
        let knn = Knn::fit(
            &KnnParams {
                max_train_rows: 100,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut t,
            7,
        );
        let ones = knn.y.iter().filter(|&&l| l == 1).count();
        let zeros = knn.y.len() - ones;
        assert!(
            ones >= 25 && zeros >= 25,
            "class-biased stored set: {zeros} zeros / {ones} ones"
        );
    }

    #[test]
    fn partial_selection_matches_full_stable_sort_under_ties() {
        // Build a task with heavy distance ties (integer-grid features, many
        // duplicated rows) and check the partial-selection fast path picks
        // byte-identical neighbours to a reference full stable sort — the
        // old implementation — including tie-breaking by stored-row order.
        use green_automl_energy::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0xdead41);
        let (n, d) = (120, 3);
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            data.push(rng.gen_range(0.0..4.0f64).floor());
        }
        let x = Matrix::from_vec(data, n, d);
        let y: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let mut t = crate::models::testutil::tracker();
        let knn = Knn::fit(&KnnParams::default(), &x, &y, 3, &mut t, 0);
        let fast = knn.predict_proba(&x, &mut t);

        // Reference: full stable sort on distance only (ties keep stored
        // order), exactly the replaced implementation.
        let mut reference = Matrix::zeros(n, 3);
        for r in 0..n {
            let query = x.row(r);
            let mut dists: Vec<(f64, u32)> = (0..n)
                .map(|ti| {
                    let row = knn.x.row(ti);
                    let dist: f64 = row.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
                    (dist, knn.y[ti])
                })
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let votes = reference.row_mut(r);
            for &(dist, label) in dists.iter().take(knn.k) {
                votes[label as usize] += 1.0 / (dist.sqrt() + 1e-9);
            }
            let total: f64 = votes.iter().sum();
            for v in votes.iter_mut() {
                *v /= total;
            }
        }
        assert_eq!(fast, reference);

        // And run-to-run: byte-identical on a repeat call (scratch reuse).
        let again = knn.predict_proba(&x, &mut t);
        assert_eq!(fast, again);
    }

    #[test]
    fn inference_is_where_the_cost_lives() {
        // k-NN: fitting is nearly free, predicting is expensive — the same
        // asymmetry TabPFN exhibits at system level.
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let knn = Knn::fit(&KnnParams::default(), &x, &y, 2, &mut t, 0);
        let fit_time = t.now();
        let _ = knn.predict_proba(&xt, &mut t);
        let predict_time = t.now() - fit_time;
        assert!(
            predict_time > fit_time * 10.0,
            "predict {predict_time} should dwarf fit {fit_time}"
        );
    }
}
