//! Gaussian naive Bayes — the cheapest model family in the search space.

use crate::matrix::{Matrix, Shape};
use crate::models::{Predict, Steps, Traversals};
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// Fitted Gaussian naive Bayes: per-class feature means/variances + priors.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNb {
    /// `k x d` feature means.
    means: Matrix,
    /// `k x d` feature variances (floored).
    vars: Matrix,
    /// Class log-priors.
    log_priors: Vec<f64>,
    n_classes: usize,
}

impl GaussianNb {
    /// Fit means, variances and priors in one pass.
    pub fn fit(x: &Matrix, y: &[u32], n_classes: usize, tracker: &mut CostTracker) -> GaussianNb {
        let (n, d) = (x.rows(), x.cols());
        let mut means = Matrix::zeros(n_classes, d);
        let mut vars = Matrix::zeros(n_classes, d);
        let mut counts = vec![0.0f64; n_classes];
        for r in 0..n {
            let k = y[r] as usize;
            counts[k] += 1.0;
            let row = x.row(r);
            let m = means.row_mut(k);
            for (mm, &v) in m.iter_mut().zip(row) {
                *mm += v;
            }
        }
        for k in 0..n_classes {
            let c = counts[k].max(1.0);
            for mm in means.row_mut(k) {
                *mm /= c;
            }
        }
        for r in 0..n {
            let k = y[r] as usize;
            let row = x.row(r);
            // Borrow-split: copy the mean row (d is small) to update vars.
            let mean_row: Vec<f64> = means.row(k).to_vec();
            let vr = vars.row_mut(k);
            for ((vv, &v), &m) in vr.iter_mut().zip(row).zip(&mean_row) {
                *vv += (v - m) * (v - m);
            }
        }
        let total: f64 = counts.iter().sum();
        let mut log_priors = Vec::with_capacity(n_classes);
        for k in 0..n_classes {
            let c = counts[k].max(1.0);
            for vv in vars.row_mut(k) {
                *vv = (*vv / c).max(1e-9);
            }
            log_priors.push(((counts[k] + 1.0) / (total + n_classes as f64)).ln());
        }
        tracker.charge(
            OpCounts::scalar((n * d) as f64 * 4.0 * x.scale()),
            ParallelProfile::model_training(),
        );
        GaussianNb {
            means,
            vars,
            log_priors,
            n_classes,
        }
    }

    /// Per-row inference cost.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        OpCounts::scalar(4.0 * (self.means.cols() * self.n_classes) as f64)
    }

    /// Parameter count (means + variances + priors).
    pub fn n_params(&self) -> usize {
        2 * self.means.rows() * self.means.cols() + self.log_priors.len()
    }
}

/// Posterior class probabilities under the independence assumption.
impl Predict for GaussianNb {
    fn answer(&self, x: &Matrix, _walk: &mut Traversals) -> Matrix {
        let (n, d) = (x.rows(), x.cols());
        let mut out = Matrix::zeros(n, self.n_classes);
        for r in 0..n {
            let row = x.row(r);
            let mut logp: Vec<f64> = (0..self.n_classes)
                .map(|k| {
                    let mut lp = self.log_priors[k];
                    let m = self.means.row(k);
                    let v = self.vars.row(k);
                    for c in 0..d.min(m.len()) {
                        let diff = row[c] - m[c];
                        lp -= 0.5 * (diff * diff / v[c] + v[c].ln());
                    }
                    lp
                })
                .collect();
            crate::models::softmax_inplace(&mut logp);
            out.row_mut(r).copy_from_slice(&logp);
        }
        out
    }

    fn charge(&self, shape: Shape, _steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        tracker.charge(
            OpCounts::scalar(
                (shape.rows * shape.cols * self.n_classes) as f64 * 4.0 * shape.row_scale,
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
    use green_automl_energy::rng::SplitMix64;

    #[test]
    fn learns_binary_task() {
        assert_learns(&ModelSpec::GaussianNb, 2, 0.75);
    }

    #[test]
    fn learns_multiclass_task() {
        assert_learns(&ModelSpec::GaussianNb, 4, 0.55);
    }

    #[test]
    fn recovers_gaussian_structure() {
        // Two well-separated 1-D Gaussians.
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            data.push(-5.0 + (i % 10) as f64 * 0.1);
            y.push(0u32);
            data.push(5.0 + (i % 10) as f64 * 0.1);
            y.push(1u32);
        }
        let x = Matrix::from_vec(data, 200, 1);
        let mut t = crate::models::testutil::tracker();
        let nb = GaussianNb::fit(&x, &y, 2, &mut t);
        let test = Matrix::from_vec(vec![-4.0, 4.0], 2, 1);
        let p = nb.predict_proba(&test, &mut t);
        assert!(p.get(0, 0) > 0.99);
        assert!(p.get(1, 1) > 0.99);
    }

    #[test]
    fn is_the_cheapest_family_to_fit() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let nb_time = {
            let mut t = crate::models::testutil::tracker();
            let _ = GaussianNb::fit(&x, &y, 2, &mut t);
            t.now()
        };
        let forest_time = {
            let mut t = crate::models::testutil::tracker();
            let mut rng = SplitMix64::seed_from_u64(0);
            let _ = crate::models::forest::Forest::fit(
                &Default::default(),
                false,
                &x,
                &y,
                2,
                &mut t,
                &mut rng,
            );
            t.now()
        };
        assert!(nb_time * 10.0 < forest_time);
    }
}
