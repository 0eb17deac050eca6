//! The classifier zoo.
//!
//! Enum dispatch (no trait objects): [`ModelSpec`] describes an unfitted
//! model with hyperparameters, [`FittedModel`] a trained one. This keeps
//! everything `Clone + Send` and lets search code treat models as plain
//! values. The families cover the paper's Table 1 search spaces:
//!
//! * tree-based — [`tree`] (CART), [`forest`] (random forest & extra trees),
//!   [`boosting`] (gradient-boosted trees): the backbone of AutoGluon,
//!   FLAML, and ASKL;
//! * linear — [`linear`] (softmax regression and linear SVM);
//! * distance/probabilistic — [`knn`], [`naive_bayes`];
//! * neural — [`mlp`] and the TabPFN-style [`attention`] in-context model.
//!
//! Every fitted model predicts in two halves ([`Predict`]): an *answer*
//! pass computes the outputs and records each tree visit's traversal
//! steps ([`Traversals`]) without charging anything; a *charge* walk then
//! issues the predict's charges, in order, from the input's [`Shape`] and
//! those step totals alone. A predict is the answer followed by its
//! charge, so every charge formula is written once — and a serving layer
//! that answered rows earlier can price a batch of them by the charge
//! walk alone.

pub mod attention;
pub mod boosting;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod mlp;
pub mod naive_bayes;
pub mod tree;

use crate::matrix::{Matrix, Shape};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts};

/// The tree traversals of an answer pass: one entry per tree visit (one
/// tree routing every row of one input), in visit order. Every model
/// answers each row independently of the other rows of its input, and
/// tree traversal is the one predict-path charge that reads more than the
/// input's shape: a visit charges the sum over its rows of each row's
/// path length (at least 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Traversals {
    /// Each visit's step total over all rows — what charging the same
    /// input needs.
    Totals(Vec<u64>),
    /// Each visit's per-row steps, the input's row count per visit in
    /// row order — what pricing any batch of the input's rows needs.
    PerRow(Vec<u16>),
}

impl Traversals {
    /// Route `rows` rows through one tree, recording each row's steps
    /// (its path length, at least 1) as `steps_of(row)` yields them.
    fn record(&mut self, rows: usize, mut steps_of: impl FnMut(usize) -> usize) {
        match self {
            Traversals::Totals(totals) => {
                totals.push((0..rows).map(|r| steps_of(r) as u64).sum());
            }
            Traversals::PerRow(steps) => steps
                .extend((0..rows).map(|r| {
                    u16::try_from(steps_of(r)).expect("a tree path longer than u16::MAX")
                })),
        }
    }
}

/// A charge walk's cursor over per-visit step totals, in visit order.
#[derive(Debug, Clone)]
pub struct Steps<'a>(std::slice::Iter<'a, u64>);

impl<'a> Steps<'a> {
    /// A cursor over `totals`.
    pub fn new(totals: &'a [u64]) -> Steps<'a> {
        Steps(totals.iter())
    }

    /// The next visit's step total.
    ///
    /// # Panics
    /// Panics if the answer pass recorded fewer visits than the charge
    /// walk charges.
    pub fn next_visit(&mut self) -> u64 {
        *self.0.next().expect("one step total per tree visit")
    }

    /// `true` once every total has been charged.
    pub fn is_done(&self) -> bool {
        self.0.len() == 0
    }
}

/// Run `answer` with a fresh step-total record, then `charge` the totals
/// it recorded: the one way a predict composes its two halves.
///
/// # Panics
/// Panics if `charge` leaves a recorded visit uncharged.
pub fn answer_then_charge<T>(
    answer: impl FnOnce(&mut Traversals) -> T,
    charge: impl FnOnce(&mut Steps<'_>),
) -> T {
    let mut walk = Traversals::Totals(Vec::new());
    let out = answer(&mut walk);
    let Traversals::Totals(totals) = walk else {
        unreachable!("answer passes only append")
    };
    let mut steps = Steps::new(&totals);
    charge(&mut steps);
    assert!(steps.is_done(), "every recorded tree visit is charged");
    out
}

/// A fitted model's predict path, split into its two halves.
pub trait Predict {
    /// Class probabilities of every row of `x` (`rows x n_classes`),
    /// recording tree visits in `walk`. Charges nothing; each output row
    /// depends on its input row alone.
    fn answer(&self, x: &Matrix, walk: &mut Traversals) -> Matrix;

    /// Issue, in order, every charge predicting an input of `shape` makes,
    /// taking each tree visit's step total from `steps`.
    fn charge(&self, shape: Shape, steps: &mut Steps<'_>, tracker: &mut CostTracker);

    /// Per-row class-probability predictions: [`Predict::answer`], then
    /// [`Predict::charge`] of what it recorded.
    fn predict_proba(&self, x: &Matrix, tracker: &mut CostTracker) -> Matrix {
        answer_then_charge(
            |walk| self.answer(x, walk),
            |steps| self.charge(x.shape(), steps, tracker),
        )
    }
}

/// An unfitted classifier with hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// CART decision tree.
    DecisionTree(tree::TreeParams),
    /// Bootstrap-aggregated forest of CART trees.
    RandomForest(forest::ForestParams),
    /// Extremely randomised trees (random split thresholds).
    ExtraTrees(forest::ForestParams),
    /// Gradient-boosted shallow trees with softmax objective.
    GradientBoosting(boosting::GbParams),
    /// Brute-force k-nearest-neighbours.
    Knn(knn::KnnParams),
    /// Multinomial logistic regression trained by SGD.
    Logistic(linear::LogisticParams),
    /// One-vs-rest linear SVM trained by hinge-loss SGD.
    LinearSvm(linear::SvmParams),
    /// Gaussian naive Bayes.
    GaussianNb,
    /// Multi-layer perceptron.
    Mlp(mlp::MlpParams),
    /// TabPFN-style frozen in-context attention classifier.
    InContextAttention(attention::AttentionParams),
}

impl ModelSpec {
    /// Short display name of the model family.
    pub fn family(&self) -> &'static str {
        match self {
            ModelSpec::DecisionTree(_) => "decision_tree",
            ModelSpec::RandomForest(_) => "random_forest",
            ModelSpec::ExtraTrees(_) => "extra_trees",
            ModelSpec::GradientBoosting(_) => "gradient_boosting",
            ModelSpec::Knn(_) => "knn",
            ModelSpec::Logistic(_) => "logistic_regression",
            ModelSpec::LinearSvm(_) => "linear_svm",
            ModelSpec::GaussianNb => "gaussian_nb",
            ModelSpec::Mlp(_) => "mlp",
            ModelSpec::InContextAttention(_) => "in_context_attention",
        }
    }

    /// A coarse *a-priori* estimate of the operations a fit would charge on
    /// `n_rows x d` data with `n_classes` classes (before logical-size
    /// scaling). Systems use this to decide whether a model fits their
    /// remaining budget — estimates are deliberately rough; the optimism of
    /// real AutoML budget planners (paper Table 7) comes from exactly this
    /// kind of error.
    pub fn estimate_fit_ops(&self, n_rows: usize, d: usize, n_classes: usize) -> OpCounts {
        let n = n_rows as f64;
        let d = d as f64;
        let k = n_classes as f64;
        let logn = n.log2().max(1.0);
        match self {
            ModelSpec::DecisionTree(p) => {
                OpCounts::scalar(
                    n * logn * d * p.max_features_frac * (p.max_depth as f64).min(logn),
                ) + OpCounts::tree(n * d * p.max_features_frac * 2.0)
            }
            ModelSpec::RandomForest(p) | ModelSpec::ExtraTrees(p) => {
                let per_tree =
                    n * logn * d * p.tree.max_features_frac * (p.tree.max_depth as f64).min(logn);
                OpCounts::scalar(per_tree * p.n_trees as f64)
                    + OpCounts::tree(n * d * p.tree.max_features_frac * 2.0 * p.n_trees as f64)
            }
            ModelSpec::GradientBoosting(p) => {
                let rounds = (p.n_rounds.min((600 / n_classes).max(3))) as f64;
                OpCounts::scalar(rounds * k * n * logn * d * 0.8)
                    + OpCounts::tree(rounds * k * n * d)
            }
            ModelSpec::Knn(_) => OpCounts::mem(n * d * 8.0),
            ModelSpec::Logistic(p) => OpCounts::matmul(4.0 * p.epochs as f64 * n * d * k),
            ModelSpec::LinearSvm(p) => OpCounts::matmul(4.0 * p.epochs as f64 * n * d * k),
            ModelSpec::GaussianNb => OpCounts::scalar(4.0 * n * d),
            ModelSpec::Mlp(p) => {
                let width = (d * p.hidden1 as f64
                    + p.hidden1 as f64 * p.hidden2.max(1) as f64
                    + p.hidden1.max(p.hidden2) as f64 * k)
                    * 2.0;
                OpCounts::matmul(3.0 * width * n * p.epochs as f64)
            }
            ModelSpec::InContextAttention(_) => OpCounts::scalar(5.0e8) + OpCounts::mem(1.0e8),
        }
    }

    /// Estimated virtual seconds of a fit on `cores` of `device`, including
    /// the dataset's logical-size factor.
    pub fn estimate_fit_seconds(
        &self,
        n_rows: usize,
        d: usize,
        n_classes: usize,
        scale: f64,
        device: green_automl_energy::Device,
        cores: usize,
    ) -> f64 {
        let mut probe = CostTracker::new(device, cores);
        probe.charge(
            self.estimate_fit_ops(n_rows, d, n_classes) * scale,
            green_automl_energy::ParallelProfile::model_training(),
        );
        probe.now()
    }

    /// Train this model.
    ///
    /// # Panics
    /// Panics if `x` is empty, labels mismatch the row count, or a label is
    /// `>= n_classes`.
    pub fn fit(
        &self,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        seed: u64,
    ) -> FittedModel {
        assert!(x.rows() > 0, "cannot fit on an empty matrix");
        assert_eq!(x.rows(), y.len(), "row/label count mismatch");
        assert!(
            y.iter().all(|&l| (l as usize) < n_classes),
            "label out of range"
        );
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_c0de);
        match self {
            ModelSpec::DecisionTree(p) => FittedModel::Tree(tree::DecisionTree::fit_classifier(
                p,
                x,
                y,
                n_classes,
                tracker,
                &mut rng,
                green_automl_energy::ParallelProfile::model_training(),
            )),
            ModelSpec::RandomForest(p) => FittedModel::Forest(forest::Forest::fit(
                p, false, x, y, n_classes, tracker, &mut rng,
            )),
            ModelSpec::ExtraTrees(p) => FittedModel::Forest(forest::Forest::fit(
                p, true, x, y, n_classes, tracker, &mut rng,
            )),
            ModelSpec::GradientBoosting(p) => FittedModel::Boosting(
                boosting::GradientBoosting::fit(p, x, y, n_classes, tracker, &mut rng),
            ),
            ModelSpec::Knn(p) => FittedModel::Knn(knn::Knn::fit(p, x, y, n_classes, tracker, seed)),
            ModelSpec::Logistic(p) => FittedModel::Linear(linear::LinearModel::fit_logistic(
                p, x, y, n_classes, tracker, &mut rng,
            )),
            ModelSpec::LinearSvm(p) => FittedModel::Linear(linear::LinearModel::fit_svm(
                p, x, y, n_classes, tracker, &mut rng,
            )),
            ModelSpec::GaussianNb => {
                FittedModel::Nb(naive_bayes::GaussianNb::fit(x, y, n_classes, tracker))
            }
            ModelSpec::Mlp(p) => {
                FittedModel::Mlp(mlp::Mlp::fit(p, x, y, n_classes, tracker, &mut rng))
            }
            ModelSpec::InContextAttention(p) => FittedModel::Attention(
                attention::InContextAttention::fit(p, x, y, n_classes, tracker, seed),
            ),
        }
    }
}

/// A trained classifier.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedModel {
    /// Trained decision tree.
    Tree(tree::DecisionTree),
    /// Trained forest (random forest or extra trees).
    Forest(forest::Forest),
    /// Trained gradient-boosting ensemble.
    Boosting(boosting::GradientBoosting),
    /// Fitted k-NN (stores its training data).
    Knn(knn::Knn),
    /// Trained linear model (logistic or SVM).
    Linear(linear::LinearModel),
    /// Fitted Gaussian naive Bayes.
    Nb(naive_bayes::GaussianNb),
    /// Trained MLP.
    Mlp(mlp::Mlp),
    /// Loaded in-context attention model.
    Attention(attention::InContextAttention),
}

impl Predict for FittedModel {
    fn answer(&self, x: &Matrix, walk: &mut Traversals) -> Matrix {
        match self {
            FittedModel::Tree(m) => m.answer(x, walk),
            FittedModel::Forest(m) => m.answer(x, walk),
            FittedModel::Boosting(m) => m.answer(x, walk),
            FittedModel::Knn(m) => m.answer(x, walk),
            FittedModel::Linear(m) => m.answer(x, walk),
            FittedModel::Nb(m) => m.answer(x, walk),
            FittedModel::Mlp(m) => m.answer(x, walk),
            FittedModel::Attention(m) => m.answer(x, walk),
        }
    }

    fn charge(&self, shape: Shape, steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        match self {
            FittedModel::Tree(m) => m.charge(shape, steps, tracker),
            FittedModel::Forest(m) => m.charge(shape, steps, tracker),
            FittedModel::Boosting(m) => m.charge(shape, steps, tracker),
            FittedModel::Knn(m) => m.charge(shape, steps, tracker),
            FittedModel::Linear(m) => m.charge(shape, steps, tracker),
            FittedModel::Nb(m) => m.charge(shape, steps, tracker),
            FittedModel::Mlp(m) => m.charge(shape, steps, tracker),
            FittedModel::Attention(m) => m.charge(shape, steps, tracker),
        }
    }
}

impl FittedModel {
    /// Hard-label predictions (argmax of probabilities).
    pub fn predict(&self, x: &Matrix, tracker: &mut CostTracker) -> Vec<u32> {
        argmax_rows(&self.predict_proba(x, tracker))
    }

    /// Per-row inference operations, for constraint checking and inference-
    /// cost estimation without running a prediction.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        match self {
            FittedModel::Tree(m) => m.inference_ops_per_row(),
            FittedModel::Forest(m) => m.inference_ops_per_row(),
            FittedModel::Boosting(m) => m.inference_ops_per_row(),
            FittedModel::Knn(m) => m.inference_ops_per_row(),
            FittedModel::Linear(m) => m.inference_ops_per_row(),
            FittedModel::Nb(m) => m.inference_ops_per_row(),
            FittedModel::Mlp(m) => m.inference_ops_per_row(),
            FittedModel::Attention(m) => m.inference_ops_per_row(),
        }
    }

    /// Rough parameter count (model size proxy).
    pub fn n_params(&self) -> usize {
        match self {
            FittedModel::Tree(m) => m.n_nodes(),
            FittedModel::Forest(m) => m.n_nodes(),
            FittedModel::Boosting(m) => m.n_nodes(),
            FittedModel::Knn(m) => m.n_stored_cells(),
            FittedModel::Linear(m) => m.n_weights(),
            FittedModel::Nb(m) => m.n_params(),
            FittedModel::Mlp(m) => m.n_weights(),
            FittedModel::Attention(m) => m.n_params(),
        }
    }
}

/// Row-wise argmax of a probability matrix.
pub fn argmax_rows(proba: &Matrix) -> Vec<u32> {
    (0..proba.rows())
        .map(|r| {
            let row = proba.row(r);
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

/// Numerically stable in-place softmax over a slice.
pub(crate) fn softmax_inplace(v: &mut [f64]) {
    crate::kernel::softmax_row(v);
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for model tests.
    use super::*;
    use green_automl_dataset::split::train_test_split;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::Device;

    /// A fresh single-core tracker on the paper's CPU testbed.
    pub fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    /// Train/test matrices for a reasonably separable task.
    pub fn separable_task(classes: usize) -> ((Matrix, Vec<u32>), (Matrix, Vec<u32>)) {
        let mut spec = TaskSpec::new("fixture", 400, 8, classes);
        spec.cluster_sep = 2.2;
        spec.label_noise = 0.02;
        spec.categorical_frac = 0.0;
        let ds = spec.generate();
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let mut t = tracker();
        let xtr = crate::matrix::encode(&train, &mut t);
        let xte = crate::matrix::encode(&test, &mut t);
        ((xtr, train.labels), (xte, test.labels))
    }

    /// Assert a model spec learns the separable task well above chance and
    /// charges non-zero energy; returns the balanced accuracy.
    pub fn assert_learns(spec: &ModelSpec, classes: usize, min_bal_acc: f64) -> f64 {
        let ((xtr, ytr), (xte, yte)) = separable_task(classes);
        let mut tr = tracker();
        let fitted = spec.fit(&xtr, &ytr, classes, &mut tr, 0);
        let fit_energy = tr.measurement().energy.total_joules();
        assert!(fit_energy > 0.0, "{}: fit charged no energy", spec.family());
        let pred = fitted.predict(&xte, &mut tr);
        let bal = crate::metrics::balanced_accuracy(&yte, &pred, classes);
        assert!(
            bal >= min_bal_acc,
            "{}: balanced accuracy {bal:.3} below {min_bal_acc}",
            spec.family()
        );
        assert!(
            tr.measurement().energy.total_joules() > fit_energy,
            "{}: predict charged no energy",
            spec.family()
        );
        assert!(!fitted.inference_ops_per_row().is_zero());
        assert!(fitted.n_params() > 0);
        bal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_largest() {
        let m = Matrix::from_vec(vec![0.1, 0.7, 0.2, 0.9, 0.05, 0.05], 2, 3);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut v = vec![1000.0, 1001.0, 999.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[1] > v[0] && v[0] > v[2]);
        let mut z = vec![f64::NEG_INFINITY, f64::NEG_INFINITY];
        softmax_inplace(&mut z);
        assert!((z[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty matrix")]
    fn fitting_empty_panics() {
        let x = Matrix::zeros(0, 3);
        let mut t = testutil::tracker();
        let _ = ModelSpec::GaussianNb.fit(&x, &[], 2, &mut t, 0);
    }

    #[test]
    fn fit_estimates_track_actual_costs_within_an_order() {
        use green_automl_energy::Device;
        let ((x, y), _) = testutil::separable_task(2);
        for spec in [
            ModelSpec::DecisionTree(Default::default()),
            ModelSpec::RandomForest(Default::default()),
            ModelSpec::GradientBoosting(Default::default()),
            ModelSpec::Logistic(Default::default()),
            ModelSpec::GaussianNb,
            ModelSpec::Mlp(Default::default()),
        ] {
            let est =
                spec.estimate_fit_seconds(x.rows(), x.cols(), 2, 1.0, Device::xeon_gold_6132(), 1);
            let mut t = testutil::tracker();
            let _ = spec.fit(&x, &y, 2, &mut t, 0);
            let actual = t.now();
            let ratio = est / actual;
            assert!(
                (0.05..=20.0).contains(&ratio),
                "{}: estimate {est:.4}s vs actual {actual:.4}s (ratio {ratio:.2})",
                spec.family()
            );
        }
    }

    #[test]
    fn estimates_scale_with_the_charging_factor() {
        use green_automl_energy::Device;
        let spec = ModelSpec::RandomForest(Default::default());
        let d = Device::xeon_gold_6132();
        let base = spec.estimate_fit_seconds(500, 20, 2, 1.0, d, 1);
        let scaled = spec.estimate_fit_seconds(500, 20, 2, 100.0, d, 1);
        assert!((scaled / base - 100.0).abs() < 1.0);
    }

    #[test]
    fn family_names_are_unique() {
        let specs = [
            ModelSpec::DecisionTree(Default::default()),
            ModelSpec::RandomForest(Default::default()),
            ModelSpec::ExtraTrees(Default::default()),
            ModelSpec::GradientBoosting(Default::default()),
            ModelSpec::Knn(Default::default()),
            ModelSpec::Logistic(Default::default()),
            ModelSpec::LinearSvm(Default::default()),
            ModelSpec::GaussianNb,
            ModelSpec::Mlp(Default::default()),
            ModelSpec::InContextAttention(Default::default()),
        ];
        let names: std::collections::BTreeSet<_> = specs.iter().map(|s| s.family()).collect();
        assert_eq!(names.len(), specs.len());
    }
}
