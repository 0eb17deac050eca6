//! Linear models: multinomial logistic regression and one-vs-rest linear
//! SVM, both trained with mini-batch SGD.

use crate::kernel;
use crate::matrix::{Matrix, Shape};
use crate::models::{softmax_inplace, Predict, Steps, Traversals};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// Logistic-regression hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticParams {
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams {
            epochs: 40,
            lr: 0.1,
            l2: 1e-4,
        }
    }
}

/// Linear-SVM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            epochs: 40,
            lr: 0.05,
            l2: 1e-4,
        }
    }
}

/// Which loss a [`LinearModel`] was trained with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearKind {
    /// Softmax cross-entropy.
    Logistic,
    /// One-vs-rest hinge.
    Svm,
}

/// A fitted linear classifier: weights `k x d` + bias `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Matrix,
    bias: Vec<f64>,
    kind: LinearKind,
    n_classes: usize,
}

impl LinearModel {
    /// Train multinomial logistic regression.
    pub fn fit_logistic(
        params: &LogisticParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
    ) -> LinearModel {
        assert!(params.epochs >= 1, "need at least one epoch");
        Self::fit_sgd(
            LinearKind::Logistic,
            params.epochs,
            params.lr,
            params.l2,
            x,
            y,
            n_classes,
            tracker,
            rng,
        )
    }

    /// Train a one-vs-rest linear SVM.
    pub fn fit_svm(
        params: &SvmParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
    ) -> LinearModel {
        assert!(params.epochs >= 1, "need at least one epoch");
        Self::fit_sgd(
            LinearKind::Svm,
            params.epochs,
            params.lr,
            params.l2,
            x,
            y,
            n_classes,
            tracker,
            rng,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn fit_sgd(
        kind: LinearKind,
        epochs: usize,
        lr: f64,
        l2: f64,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
    ) -> LinearModel {
        let (n, d) = (x.rows(), x.cols());
        let mut weights = Matrix::zeros(n_classes, d);
        let mut bias = vec![0.0; n_classes];

        // Feature standardisation statistics folded into SGD stability: we
        // rely on upstream scalers; here we only guard against exploding
        // inputs with a global norm clip.
        let mut order: Vec<usize> = (0..n).collect();
        // Score buffer reused across samples and epochs.
        let mut scores: Vec<f64> = Vec::with_capacity(n_classes);
        for epoch in 0..epochs {
            // Shuffle per epoch.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let step = lr / (1.0 + 0.1 * epoch as f64);
            for &i in &order {
                let row = x.row(i);
                scores.clear();
                for k in 0..n_classes {
                    scores.push(bias[k] + kernel::dot(weights.row(k), row));
                }
                match kind {
                    LinearKind::Logistic => {
                        softmax_inplace(&mut scores);
                        for k in 0..n_classes {
                            let target = if y[i] as usize == k { 1.0 } else { 0.0 };
                            let g = scores[k] - target;
                            let wk = weights.row_mut(k);
                            for (w, &v) in wk.iter_mut().zip(row) {
                                *w -= step * (g * v + l2 * *w);
                            }
                            bias[k] -= step * g;
                        }
                    }
                    LinearKind::Svm => {
                        for k in 0..n_classes {
                            let target = if y[i] as usize == k { 1.0 } else { -1.0 };
                            let margin = target * scores[k];
                            let wk = weights.row_mut(k);
                            if margin < 1.0 {
                                for (w, &v) in wk.iter_mut().zip(row) {
                                    *w -= step * (-target * v + l2 * *w);
                                }
                                bias[k] += step * target;
                            } else {
                                for w in wk.iter_mut() {
                                    *w -= step * l2 * *w;
                                }
                            }
                        }
                    }
                }
            }
        }
        tracker.charge(
            OpCounts::matmul((epochs * n * d * n_classes) as f64 * 4.0 * x.scale()),
            ParallelProfile::model_training(),
        );
        LinearModel {
            weights,
            bias,
            kind,
            n_classes,
        }
    }

    /// Per-row inference cost: one dense score per class.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        OpCounts::matmul(2.0 * (self.weights.cols() * self.n_classes) as f64)
    }

    /// Weight count (size proxy).
    pub fn n_weights(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Which loss trained this model.
    pub fn kind(&self) -> LinearKind {
        self.kind
    }
}

/// Class-probability predictions (softmax over scores for both kinds):
/// one blocked matmul for the whole batch, straight into the output
/// matrix, then bias + softmax in place per row.
impl Predict for LinearModel {
    fn answer(&self, x: &Matrix, _walk: &mut Traversals) -> Matrix {
        let n = x.rows();
        let mut out = Matrix::zeros(n, self.n_classes);
        kernel::matmul_transb(x, &self.weights, &mut out);
        for r in 0..n {
            let row = out.row_mut(r);
            for (v, &b) in row.iter_mut().zip(&self.bias) {
                *v += b;
            }
            kernel::softmax_row(row);
        }
        out
    }

    fn charge(&self, shape: Shape, _steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        tracker.charge(
            OpCounts::matmul(
                (shape.rows * shape.cols * self.n_classes) as f64 * 2.0 * shape.row_scale,
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
    fn logistic_learns_binary() {
        assert_learns(&ModelSpec::Logistic(LogisticParams::default()), 2, 0.8);
    }

    #[test]
    fn logistic_learns_multiclass() {
        assert_learns(&ModelSpec::Logistic(LogisticParams::default()), 3, 0.6);
    }

    #[test]
    fn svm_learns_binary() {
        assert_learns(&ModelSpec::LinearSvm(SvmParams::default()), 2, 0.75);
    }

    #[test]
    fn more_epochs_cost_more() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let cost = |epochs: usize| {
            let mut t = crate::models::testutil::tracker();
            let mut rng = SplitMix64::seed_from_u64(0);
            let _ = LinearModel::fit_logistic(
                &LogisticParams {
                    epochs,
                    ..Default::default()
                },
                &x,
                &y,
                2,
                &mut t,
                &mut rng,
            );
            t.now()
        };
        assert!(cost(40) > cost(5) * 4.0);
    }

    #[test]
    fn proba_rows_are_distributions() {
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(3);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let m = LinearModel::fit_logistic(&LogisticParams::default(), &x, &y, 3, &mut t, &mut rng);
        let p = m.predict_proba(&xt, &mut t);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
        assert_eq!(m.kind(), LinearKind::Logistic);
    }

    #[test]
    fn linear_inference_is_cheap_compared_to_knn() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let lin =
            LinearModel::fit_logistic(&LogisticParams::default(), &x, &y, 2, &mut t, &mut rng);
        let knn = crate::models::knn::Knn::fit(&Default::default(), &x, &y, 2, &mut t, 0);
        assert!(
            lin.inference_ops_per_row().total() * 10.0 < knn.inference_ops_per_row().total(),
            "linear inference should be at least 10x cheaper than kNN"
        );
    }
}
